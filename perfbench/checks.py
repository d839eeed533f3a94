"""Output checks of the benchmark, kept apart from virbott.

Every function here takes plain data (rows, numbers, names) and returns a
list of problems, one string each; an empty list means the output is
correct.  Nothing here imports virbott, so a change to the program cannot
change what counts as a correct answer.
"""

from __future__ import annotations

import math

# The registered default tolerance of each check of ``verify --suite all``.
# The benchmark compares every report row against this table, not against
# the tolerance the report carries, so a loosened tolerance shows.  Three
# rows pair independent computational paths: stokes-reduction (the disc
# integral of beta against the exact boundary formula), omega0-coboundary
# (ball W against disc gamma) and beta-fd-bridge (finite differences of
# gamma against the exact beta).
VERIFY_TOLERANCES = {
    "beta-fd-bridge": 1e-3,
    "delta-g-normality": 1e-4,
    "eta-closed-2": 1e-12,
    "eta-closed-3": 1e-12,
    "ext-associativity": 1e-7,
    "gamma-antisymmetry": 1e-8,
    "gamma-cocycle": 1e-7,
    "gamma-normalization": 1e-8,
    "gbeta-cyclic": 1e-10,
    "gelfand-fuchs-cyclic": 1e-12,
    "gelfand-fuchs-pin": 1e-12,
    "generator-bracket-jj": 1e-10,
    "generator-bracket-lj": 1e-10,
    "generator-bracket-ll": 1e-10,
    "mc-plan-agreement": 1e-6,
    "omega0-coboundary": 1e-5,
    "restricted-display": 1e-12,
    "stokes-reduction": 1e-5,
    "wz-boundary-trivial": 1e-6,
    "wz-extension-independence": 1e-6,
}

WZ_TOLERANCE = 1e-6
BRACKET_TOLERANCE = 1e-10
CYCLIC_TOLERANCE = 1e-10


def check_report_rows(rows, registered):
    """``rows``: (name, residual, passed) of one ``verify --suite all``
    report.  Returns (failed rows, problems)."""
    problems = []
    names = [name for name, _, _ in rows]
    if names != list(registered):
        problems.append(f"report lists {names}, registry has {registered}")
    missing = sorted(set(VERIFY_TOLERANCES) - set(names))
    if missing:
        problems.append(f"report lacks checks {missing}")
    failed = 0
    for name, residual, passed in rows:
        tol = VERIFY_TOLERANCES.get(name)
        ok = bool(passed) and math.isfinite(residual) and (
            tol is None or residual <= tol)
        if not ok:
            failed += 1
            problems.append(f"check {name}: residual {residual!r} "
                            f"(tolerance {tol!r}, pass flag {passed!r})")
    return failed, problems


def check_gamma_counts(counts):
    """``counts``: (gamma calls, gamma integrals computed) of every
    repetition.  Each must start from a cold cache, so every repetition
    computes the same, non-zero number of integrals."""
    problems = []
    if not counts or any(computed == 0 for _, computed in counts):
        problems.append(f"no gamma integral seen in some repetition: "
                        f"{counts} (counter installed in the wrong place?)")
    if len(set(counts)) > 1:
        problems.append(f"gamma calls/computed differ between repetitions "
                        f"{counts}: a repetition did not start cold")
    return problems


def check_ladder(rows, tolerance=WZ_TOLERANCE):
    """``rows``: (value W, residual) per ladder level, coarse to fine.

    Each level is one operation.  A level fails when its W is not finite;
    the finest also fails when its residual exceeds ``tolerance``; a level
    past the second fails when its change in W does not shrink.  Returns
    (failed levels, problems).
    """
    problems = []
    bad = set()
    for i, (value, residual) in enumerate(rows):
        if not (math.isfinite(value) and math.isfinite(residual)):
            bad.add(i)
            problems.append(f"level {i}: W {value!r}, residual {residual!r}")
    if len(rows) < 3:
        problems.append(f"a ladder needs 3 levels, got {len(rows)}")
    elif rows[-1][1] > tolerance:
        bad.add(len(rows) - 1)
        problems.append(f"finest residual {rows[-1][1]!r} > {tolerance!r}")
    steps = [abs(b[0] - a[0]) for a, b in zip(rows, rows[1:])]
    for i in range(1, len(steps)):
        if not steps[i] < steps[i - 1]:
            bad.add(i + 1)
            problems.append(f"change in W does not shrink at level {i + 1}: "
                            f"{steps[i - 1]!r} -> {steps[i]!r}")
    return len(bad), problems


def closed_form(kind, n, m, c0):
    """(structure constant, central term) of the paper's brackets:

    [L_n, L_m] = (n - m) L_{n+m} - 12 pi i c0 (n^3 - 2n) delta_{n+m,0}
    [L_n, J_m] = -m J_{n+m} - 12 pi c0 n m delta_{n+m,0}
    [J_n, J_m] = -36 pi i c0 n delta_{n+m,0}
    """
    delta = n + m == 0
    if kind == "LL":
        return float(n - m), (-12j * math.pi * c0 * (n**3 - 2 * n)
                              if delta else 0j)
    if kind == "LJ":
        return float(-m), (-12.0 * math.pi * c0 * n * m + 0j) if delta else 0j
    if kind == "JJ":
        return 0.0, (-36j * math.pi * c0 * n) if delta else 0j
    raise ValueError(f"unknown bracket kind {kind!r}")


def check_bracket_rows(rows, expected_keys, c0,
                       tolerance=BRACKET_TOLERANCE):
    """``rows``: generator table rows (dicts with n, m, kind, coefficient,
    central-real, central-imag); ``expected_keys``: the (kind, n, m) asked
    for, in order.  Returns (failed rows, problems)."""
    problems = []
    keys = [(r["kind"], r["n"], r["m"]) for r in rows]
    if keys != list(expected_keys):
        problems.append(f"table has {len(keys)} rows, not the "
                        f"{len(expected_keys)} asked for in order")
    failed = 0
    for r in rows:
        coeff, central = closed_form(r["kind"], r["n"], r["m"], c0)
        got = complex(r["central-real"], r["central-imag"])
        err = max(abs(r["coefficient"] - coeff), abs(got - central))
        if not err <= tolerance:
            failed += 1
            if len(problems) < 5:
                problems.append(f"[{r['kind']} {r['n']},{r['m']}]: "
                                f"{r['coefficient']!r}, {got!r} against "
                                f"{coeff!r}, {central!r}")
    return failed, problems


def check_cyclic(residuals, tolerance=CYCLIC_TOLERANCE):
    """Cyclic sums of G(beta), one per random triple, must vanish."""
    failed = [x for x in residuals if not abs(x) <= tolerance]
    problems = [f"{len(failed)} cyclic sums above {tolerance!r}, worst "
                f"{max(failed, key=abs)!r}"] if failed else []
    return len(failed), problems
