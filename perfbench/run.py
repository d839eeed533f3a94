"""Benchmark of virbott: runs one workload in this process and prints
its metrics as the last line of standard output.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree: virbott is imported from ``src/``
there, never from an installed copy.  With ``--trace 0`` it prints the
end-to-end metrics ``setup_s``, ``wall_s`` and ``peak_rss_mb``; with
``--trace 1`` it makes one traced repetition and prints the per-layer
metrics instead (see README.md).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

# One thread, set before numpy loads: the host's two cores are shared,
# and a threaded BLAS would time the neighbours as much as virbott.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import VERIFY_TOLERANCES, check_gamma_counts  # noqa: E402
from spans import GammaCounter, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("trigpoly", "diffeo", "forms", "cocycle", "liealg", "cli")
MIN_REPS = 3

# (layer, fields) reported by a traced run; ``s`` is a span's total time,
# ``self_s`` its time minus its child spans', ``nodes``/``points`` the
# summed batch sizes of its calls.
LAYER_METRICS = (
    ("trigpoly.eval", ("self_s", "calls", "points")),
    ("trigpoly.multiply", ("self_s", "calls")),
    ("trigpoly.derivative", ("calls",)),
    ("diffeo.chain_jet", ("self_s", "calls", "nodes")),
    ("diffeo.inverse_jet", ("self_s", "calls", "nodes")),
    ("diffeo.ball_jet", ("self_s", "calls", "nodes")),
    ("jets.compose", ("self_s", "calls")),
    ("forms.mc_components", ("self_s", "calls", "nodes")),
    ("forms.wedge_trace_2form", ("self_s",)),
    ("forms.wedge_trace_cube", ("self_s",)),
    ("forms.integrate_disc", ("self_s", "nodes")),
    ("forms.integrate_ball", ("self_s", "nodes")),
    ("cocycle.wz_term", ("self_s", "calls")),
    ("liealg.semidirect_bracket", ("self_s", "calls")),
    ("liealg.beta_from_gamma_fd", ("s",)),
    ("liealg.beta_integral", ("s",)),
) + tuple(("cli.check." + name, ("s",)) for name in sorted(VERIFY_TOLERANCES))

UNITS = {"self_s": "s", "s": "s", "calls": "count", "nodes": "count",
         "points": "count"}


def process_age():
    """Seconds since this process started, from /proc (the start time has
    clock-tick resolution, 10 ms on Linux)."""
    with open("/proc/self/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def load_virbott(root: Path) -> dict:
    """Import virbott's modules from ``root/src``; refuse any other copy."""
    src = root / "src"
    if not (src / "virbott" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no virbott source under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module("virbott." + name)
               for name in MODULES}
    origin = Path(modules["cli"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: virbott came from {origin}, not {src}")
    return modules


def peak_rss_mb():
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def layer_metrics(tracer, gamma_delta, traced_wall):
    metrics = {}
    for layer, fields in LAYER_METRICS:
        for field in fields:
            if field == "self_s":
                value = tracer.self_s[layer]
            elif field == "s":
                value = tracer.total_s[layer]
            elif field == "calls":
                value = tracer.calls[layer]
            else:
                value = tracer.sizes[layer]
            metrics[f"{layer}.{field}"] = {"value": value,
                                           "unit": UNITS[field]}
    calls, computed = gamma_delta
    metrics["cocycle.gamma.calls"] = {"value": calls, "unit": "count"}
    metrics["cocycle.gamma.computed"] = {"value": computed, "unit": "count"}
    metrics["cocycle.gamma.hit_ratio"] = {
        "value": (calls - computed) / calls if calls else 0.0,
        "unit": "ratio"}
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="least measured time of the repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vb = load_virbott(HERE.parent)
    tracer = Tracer() if args.trace else None
    problems = []
    if tracer is not None:
        unbound = tracer.install(vb)
        if unbound:
            problems.append(f"layers bound nowhere: {unbound}")
    gammas = GammaCounter(vb)
    workload = WORKLOADS[args.workload](vb, args.seed, tracer)
    setup_s = process_age()

    attempted = failed = 0
    walls, gamma_counts = [], []

    def repetition():
        nonlocal attempted, failed
        before = gammas.snapshot()
        start = time.perf_counter()
        output = workload.run()
        wall = time.perf_counter() - start
        ops, bad, found = workload.check(output)
        attempted += ops
        failed += bad
        problems.extend(found)
        gamma_counts.append(tuple(
            after - b for after, b in zip(gammas.snapshot(), before)))
        return wall

    repetition()                        # warm-up, untimed
    if tracer is not None:
        tracer.reset()
        traced_wall = repetition()
        path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        path.parent.mkdir(exist_ok=True)
        tracer.write(path)
        idle = [name for name in workload.layers if not tracer.calls[name]]
        if idle:
            problems.append(f"traced layers with no call: {idle}")
        if workload.name == "verify-all":
            missing = {"cli.check." + n for n in VERIFY_TOLERANCES}
            missing -= tracer.calls.keys()
            if missing:
                problems.append(f"checks without a span: {sorted(missing)}")
        metrics = layer_metrics(tracer, gamma_counts[-1], traced_wall)
    else:
        measured = 0.0
        while len(walls) < MIN_REPS or measured < args.seconds:
            walls.append(repetition())
            measured += walls[-1]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    problems.extend(workload.trace_problems)
    if workload.cold_gamma:
        problems.extend(check_gamma_counts(gamma_counts))

    for line in problems:
        print(f"perfbench: {line}", file=sys.stderr)
    timed = [round(w, 3) for w in walls] if tracer is None else \
        f"traced {traced_wall:.3f}"
    print(f"perfbench: {args.workload} seed {args.seed}: repetitions "
          f"{timed}, gamma calls/computed {gamma_counts}", file=sys.stderr)
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
