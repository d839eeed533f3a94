"""Run one workload once per seed and report each end-to-end metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/steadiness.py --workload wz-ladder --seeds 1 2 3 4 5

Run from the root of a source tree.  Each run is a fresh process, one
after another; the raw result lines are appended to ``--log`` so that two
sets of runs can be compared later.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--log", default=str(HERE / "out" / "steadiness.jsonl"))
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    Path(args.log).parent.mkdir(exist_ok=True)
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed",
                                 str(seed), "--seconds", str(seconds),
                                 "--trace", "0"]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                             cwd=HERE.parent, timeout=180)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        with open(args.log, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                     "result": result}) + "\n")
        print(f"seed {seed}: correct {result['correct']} "
              + " ".join(f"{k} {v['value']:.4f}"
                         for k, v in result["metrics"].items()), flush=True)

    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3, s = spread(values)
        print(f"{name}: median {q2:.4f}, quartiles {q1:.4f} / {q3:.4f}, "
              f"spread {s:.2%} (bound {bound:.0%}, a third {bound / 3:.1%})")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
