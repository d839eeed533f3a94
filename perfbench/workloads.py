"""The three workloads: their inputs, one repetition, and its checks.

A workload is built from a seed (set-up, untimed by ``wall_s``), then
``run()`` does one repetition of its timed part and ``check(output)``
returns (operations, failed operations, problems) for that repetition.
``layers`` names the traced layers the workload certainly exercises: a
traced run in which one of them counts no call has a timer in the wrong
place and is marked incorrect.
"""

from __future__ import annotations

import random

from checks import (
    check_bracket_rows,
    check_cyclic,
    check_ladder,
    check_report_rows,
)


class VerifyAll:
    """``virbott verify --suite all`` at the default grids.

    The only private name the benchmark reads is ``cocycle._GAMMA_CACHE``,
    emptied before every repetition so that each starts cold, as a fresh
    ``virbott verify`` does.  Whether that worked is checked from outside,
    by the gamma counts of every repetition (see ``checks``).
    """

    name = "verify-all"
    cold_gamma = True
    layers = ("trigpoly.eval", "trigpoly.multiply", "trigpoly.derivative",
              "diffeo.chain_jet", "diffeo.inverse_jet", "diffeo.ball_jet",
              "jets.compose", "forms.mc_components",
              "forms.wedge_trace_2form", "forms.wedge_trace_cube",
              "forms.integrate_disc", "forms.integrate_ball",
              "cocycle.wz_term", "liealg.semidirect_bracket",
              "liealg.beta_from_gamma_fd", "liealg.beta_integral")

    def __init__(self, vb, seed, tracer=None):
        self.vb = vb
        self.cfg = vb["cli"].SuiteConfig(suite="all", seed=seed, jobs=1)
        self.registered = vb["cli"].check_names("all")
        self.first_json = None
        self.tracer = tracer
        self.trace_problems = []
        if tracer is not None:
            self._install_check_spans()

    def run(self):
        self.vb["cocycle"]._GAMMA_CACHE.clear()
        if self.tracer is None:
            return self.vb["cli"].run_suite(self.cfg)
        self._order = iter(self.registered)
        self.tracer.begin("cli.check." + next(self._order))
        report = self.vb["cli"].run_suite(self.cfg)
        if self.tracer.open_spans:
            self.trace_problems.append(
                f"check spans left open: {self.tracer.open_spans}")
            while self.tracer.open_spans:
                self.tracer.end()
        return report

    def _install_check_spans(self):
        """Time each check of the suite as a span ``cli.check.<name>``.

        ``run_suite`` runs the checks one after another in registry order
        and builds one ``CheckResult`` at the end of each, so a check's
        span runs from the previous result (or the suite's start) to its
        own result.
        """
        cli = self.vb["cli"]
        original = cli.CheckResult
        tracer = self.tracer

        def result(name, *args, **kwargs):
            want = "cli.check." + name
            if tracer.open_spans[-1:] != [want]:
                self.trace_problems.append(
                    f"check {name} ended while {tracer.open_spans} open")
            else:
                tracer.end()
                following = next(self._order, None)
                if following is not None:
                    tracer.begin("cli.check." + following)
            return original(name, *args, **kwargs)

        cli.CheckResult = result

    def check(self, report):
        rows = [(c.name, c.residual, c.passed) for c in report.checks]
        failed, problems = check_report_rows(rows, self.registered)
        text = report.to_json()
        if self.first_json is None:
            self.first_json = text
        elif text != self.first_json:
            problems.append("report differs from the first repetition's")
        return len(rows), failed, problems


class WzLadder:
    """``virbott converge wz-extension-independence`` over doubling ball
    grids.  The check samples nothing, so the seed (passed on as the
    suite seed) leaves the inputs unchanged."""

    name = "wz-ladder"
    cold_gamma = False
    check_name = "wz-extension-independence"
    ladder = ((12, 32), (24, 64), (48, 128))     # (n_rho, n_plane)
    layers = ("diffeo.ball_jet", "jets.compose", "forms.mc_components",
              "forms.wedge_trace_cube", "forms.integrate_ball",
              "cocycle.wz_term")

    def __init__(self, vb, seed, tracer=None):
        self.vb = vb
        self.cfg = vb["cli"].SuiteConfig(suite="wz", seed=seed, jobs=1)
        self.series = [{"n_rho": r, "n_plane": p} for r, p in self.ladder]
        self.trace_problems = []

    def run(self):
        return self.vb["cli"].convergence_study(self.check_name, self.series,
                                                self.cfg)

    def check(self, rows):
        failed, problems = check_ladder(
            [(row["value"], row["residual"]) for row in rows])
        grids = [(row["n_rho"], row["n_plane"]) for row in rows]
        if grids != list(self.ladder):
            problems.append(f"ladder ran on {grids}, not {self.ladder}")
        return len(rows), failed, problems


class ExactBrackets:
    """Generator tables [L_n, L_m], [L_n, J_m], [J_n, J_m] over
    |n|, |m| <= 12, plus cyclic sums of G(beta) on random boundary
    polynomials.  The seed draws c0 and the random fields."""

    name = "exact-brackets"
    cold_gamma = False
    window = 12
    triples = 40
    max_harmonic = 5
    layers = ("trigpoly.multiply", "trigpoly.derivative",
              "liealg.semidirect_bracket")

    def __init__(self, vb, seed, tracer=None):
        self.vb = vb
        rng = random.Random(seed)
        self.c0 = rng.uniform(0.5, 2.0)
        span = range(-self.window, self.window + 1)
        self.keys = [(kind, n, m) for kind in ("LL", "LJ", "JJ")
                     for n in span for m in span]
        pair = vb["liealg"].GeneratorIndexPair
        self.pairs = [pair(n, m, kind) for kind, n, m in self.keys]
        self.fields = [tuple(self._random_field(rng) for _ in range(3))
                       for _ in range(self.triples)]
        self.trace_problems = []

    def _random_field(self, rng):
        diffeo, tp = self.vb["diffeo"], self.vb["trigpoly"]

        def poly():
            k = self.max_harmonic
            return tp.TrigPoly(rng.uniform(-0.25, 0.25),
                               [rng.uniform(-0.25, 0.25) for _ in range(k)],
                               [rng.uniform(-0.25, 0.25) for _ in range(k)])

        profile = diffeo.CutoffProfile(diffeo.cutoff_make(
            rng.uniform(0.1, 0.3), rng.uniform(0.1, 0.3)))
        return self.vb["liealg"].SeparableDiscField(
            v3_terms=[(profile, poly())], v4_terms=[(profile, poly())])

    def run(self):
        liealg = self.vb["liealg"]
        rows = liealg.generator_table_rows(self.pairs, self.c0)
        cyclic = [liealg.gbeta_cyclic_residual(*t, self.c0)
                  for t in self.fields]
        return rows, cyclic

    def check(self, output):
        rows, cyclic = output
        bad_rows, problems = check_bracket_rows(rows, self.keys, self.c0)
        bad_sums, more = check_cyclic(cyclic)
        return len(rows) + len(cyclic), bad_rows + bad_sums, problems + more


WORKLOADS = {w.name: w for w in (VerifyAll, WzLadder, ExactBrackets)}
