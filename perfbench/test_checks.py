"""Each output check of the benchmark is fed a wrong value and must fail.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import types
import unittest
from pathlib import Path

import checks
import run
import spans

HERE = Path(__file__).resolve().parent

# W per level of the wz-extension-independence ladder 12x32^2 .. 48x128^2
LADDER = [(0.1915687, 3.1e-4), (0.1919088, 2.0e-8), (0.1919086, 3.0e-10)]


def bracket_rows(c0, window=3):
    keys, rows = [], []
    for kind in ("LL", "LJ", "JJ"):
        for n in range(-window, window + 1):
            for m in range(-window, window + 1):
                coeff, central = checks.closed_form(kind, n, m, c0)
                keys.append((kind, n, m))
                rows.append({"n": n, "m": m, "kind": kind,
                             "coefficient": coeff,
                             "central-real": central.real,
                             "central-imag": central.imag})
    return keys, rows


def report_rows():
    return [(name, tol / 10, True)
            for name, tol in sorted(checks.VERIFY_TOLERANCES.items())]


class BracketChecks(unittest.TestCase):
    def test_closed_forms_pass(self):
        keys, rows = bracket_rows(1.3)
        self.assertEqual(checks.check_bracket_rows(rows, keys, 1.3), (0, []))

    def test_known_values(self):
        # [L_2, L_-2] = 4 L_0 - 12 pi i c0 (8 - 4), [J_1, J_-1] = -36 pi i c0
        self.assertEqual(checks.closed_form("LL", 2, -2, 1.0),
                         (4.0, -48j * math.pi))
        self.assertEqual(checks.closed_form("JJ", 1, -1, 1.0)[1],
                         -36j * math.pi)
        self.assertEqual(checks.closed_form("LJ", 3, 1, 2.0), (-1.0, 0j))

    def test_structure_constant_off_by_1e_9_fails(self):
        keys, rows = bracket_rows(1.0)
        rows[7]["coefficient"] += 1e-9
        failed, problems = checks.check_bracket_rows(rows, keys, 1.0)
        self.assertEqual(failed, 1)
        self.assertTrue(problems)

    def test_central_term_off_by_1e_9_fails(self):
        keys, rows = bracket_rows(1.0)
        i = keys.index(("LL", 2, -2))
        rows[i]["central-imag"] += 1e-9
        self.assertEqual(checks.check_bracket_rows(rows, keys, 1.0)[0], 1)

    def test_wrong_c0_fails(self):
        keys, rows = bracket_rows(1.0)
        self.assertGreater(checks.check_bracket_rows(rows, keys, 1.1)[0], 0)

    def test_missing_row_fails(self):
        keys, rows = bracket_rows(1.0)
        self.assertTrue(checks.check_bracket_rows(rows[1:], keys, 1.0)[1])

    def test_cyclic_sum_must_vanish(self):
        self.assertEqual(checks.check_cyclic([1e-14, -3e-13]), (0, []))
        failed, problems = checks.check_cyclic([1e-14, 2e-9])
        self.assertEqual(failed, 1)
        self.assertTrue(problems)


class LadderChecks(unittest.TestCase):
    def test_converging_ladder_passes(self):
        self.assertEqual(checks.check_ladder(LADDER), (0, []))

    def test_w_that_stops_converging_fails(self):
        rows = LADDER[:2] + [(0.1929086, 3.0e-10)]
        failed, problems = checks.check_ladder(rows)
        self.assertEqual(failed, 1)
        self.assertIn("does not shrink", problems[0])

    def test_finest_residual_above_tolerance_fails(self):
        rows = LADDER[:2] + [(0.1919086, 2e-6)]
        self.assertEqual(checks.check_ladder(rows)[0], 1)

    def test_nan_fails(self):
        rows = LADDER[:2] + [(math.nan, 3.0e-10)]
        self.assertGreaterEqual(checks.check_ladder(rows)[0], 1)

    def test_short_ladder_fails(self):
        self.assertTrue(checks.check_ladder(LADDER[:2])[1])


class VerifyChecks(unittest.TestCase):
    def setUp(self):
        self.registered = sorted(checks.VERIFY_TOLERANCES)

    def test_passing_report(self):
        self.assertEqual(checks.check_report_rows(report_rows(),
                                                  self.registered), (0, []))

    def test_residual_above_own_tolerance_fails_despite_pass_flag(self):
        rows = report_rows()
        i = self.registered.index("stokes-reduction")
        rows[i] = ("stokes-reduction", 2e-5, True)
        self.assertEqual(checks.check_report_rows(rows, self.registered)[0],
                         1)

    def test_failing_row_fails(self):
        rows = report_rows()
        rows[0] = (rows[0][0], rows[0][1], False)
        self.assertEqual(checks.check_report_rows(rows, self.registered)[0],
                         1)

    def test_missing_check_fails(self):
        rows = [r for r in report_rows() if r[0] != "omega0-coboundary"]
        self.assertTrue(checks.check_report_rows(rows, self.registered)[1])

    def test_cold_repetitions_pass(self):
        self.assertEqual(checks.check_gamma_counts([(39, 33)] * 4), [])

    def test_warm_cache_repetition_fails(self):
        self.assertTrue(checks.check_gamma_counts([(39, 33), (39, 6)]))

    def test_unseen_gamma_integrals_fail(self):
        self.assertTrue(checks.check_gamma_counts([(39, 0), (39, 0)]))


class FakeWorkload:
    """Stands in for a workload; ``failures`` wrong outputs per repetition."""

    name = "fake"
    layers = ()
    cold_gamma = False
    failures = 0

    def __init__(self, vb, seed, tracer=None):
        self.vb = vb
        self.trace_problems = []

    def run(self):
        return None

    def check(self, output):
        return 1, self.failures, []


class GammaWorkload(FakeWorkload):
    """One gamma integral per repetition on a small disc grid."""

    cold_gamma = True
    clear_cache = True

    def __init__(self, vb, seed, tracer=None):
        super().__init__(vb, seed, tracer)
        diffeo, forms = vb["diffeo"], vb["forms"]
        self.cfg = vb["cocycle"].CocycleConfig(
            disc_grid=forms.DiscGrid(8, 16))
        self.g = diffeo.DiscDiffeo.from_link(
            diffeo.RadialTwist(diffeo.BumpProfile(0.1, 0.9, 0.12)))
        self.h = diffeo.DiscDiffeo.from_link(diffeo.Rotation(0.3))

    def run(self):
        if self.clear_cache:
            self.vb["cocycle"]._GAMMA_CACHE.clear()
        return self.vb["cocycle"].gamma(self.g, self.h, self.cfg)


class RunVerdict(unittest.TestCase):
    def verdict(self, workload, **attrs):
        run.WORKLOADS["fake"] = type("Fake", (workload,), attrs)
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                run.main(["--workload", "fake", "--seed", "1",
                          "--seconds", "0", "--trace", "0"])
        finally:
            del run.WORKLOADS["fake"]
        return json.loads(out.getvalue().strip().splitlines()[-1])

    def test_clean_run_is_correct(self):
        result = self.verdict(FakeWorkload)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 0))
        self.assertEqual(sorted(result["metrics"]),
                         ["peak_rss_mb", "setup_s", "wall_s"])

    def test_failed_output_marks_run_incorrect(self):
        result = self.verdict(FakeWorkload, failures=1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 4)

    def test_cold_gamma_repetitions_are_correct(self):
        self.assertTrue(self.verdict(GammaWorkload)["correct"])

    def test_warm_cache_repetition_marks_run_incorrect(self):
        self.assertFalse(
            self.verdict(GammaWorkload, clear_cache=False)["correct"])

    def test_no_gamma_seen_marks_run_incorrect(self):
        self.assertFalse(self.verdict(FakeWorkload, cold_gamma=True)["correct"])


class TracerTests(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = spans.Tracer()
        clock = iter([0.0, 1.0, 3.0, 10.0])
        saved = spans.time
        spans.time = types.SimpleNamespace(perf_counter=lambda: next(clock))
        try:
            tracer.begin("outer")
            tracer.begin("inner")
            tracer.end(size=5)
            tracer.end()
        finally:
            spans.time = saved
        self.assertEqual(tracer.total_s["outer"], 10.0)
        self.assertEqual(tracer.self_s["outer"], 8.0)
        self.assertEqual(tracer.self_s["inner"], 2.0)
        self.assertEqual(tracer.sizes["inner"], 5)
        inner, outer = tracer.spans
        self.assertEqual(inner[1], outer[0])        # parent id
        self.assertEqual(outer[1], -1)

    def test_function_is_patched_where_callers_look_it_up(self):
        def f(x):
            return x + 1
        home = types.ModuleType("home")
        caller = types.ModuleType("caller")
        other = types.ModuleType("other")
        home.f = caller.f = f
        other.f = len
        tracer = spans.Tracer()
        n = spans.patch_everywhere(
            {"home": home, "caller": caller, "other": other}, home, "f",
            lambda fn: tracer.wrap("f", fn))
        self.assertEqual(n, 2)
        self.assertEqual(caller.f(1), 2)
        self.assertIs(other.f, len)
        self.assertEqual(tracer.calls["f"], 1)

    def test_reported_layers_are_traced(self):
        traced = {name for name, *_ in
                  spans.layer_table(run.load_virbott(HERE.parent))}
        reported = {layer for layer, _ in run.LAYER_METRICS
                    if not layer.startswith("cli.check.")}
        self.assertEqual(reported, traced)
        for workload in run.WORKLOADS.values():
            self.assertLessEqual(set(workload.layers), traced)

    def test_benchmark_json_lists_every_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        emitted = run.layer_metrics(spans.Tracer(), (0, 0), 1.0)
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         list(emitted))
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], emitted[m["name"]]["unit"])
        self.assertEqual(sorted(m["name"] for m in spec["end_to_end"]),
                         ["peak_rss_mb", "setup_s", "wall_s"])


if __name__ == "__main__":
    unittest.main()
