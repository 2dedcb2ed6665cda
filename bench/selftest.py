"""Self-tests of the benchmark's own code (no abperc run needed).

Run from the repository root::

    python3 bench/selftest.py
"""

from __future__ import annotations

import json
import sys
import tempfile
import types
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import check  # noqa: E402
import tracer  # noqa: E402


def span(name, start, end, parent, quantity=None):
    return [name, start, end, parent, quantity]


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [span("root", 0.0, 10.0, -1), span("a", 1.0, 4.0, 0),
                 span("b", 2.0, 3.0, 1), span("c", 5.0, 6.0, 0)]
        index = tracer.SpanIndex(spans)
        self.assertEqual(index.self_time(0), 6.0)
        self.assertEqual(index.self_time(1), 2.0)
        self.assertEqual(index.self_time(2), 1.0)
        self.assertEqual(sorted(index.outermost({"a", "b", "c"})), [1, 3])
        self.assertEqual(index.outermost({"b"}, root=3), [])

    def test_sweep_self_subtracts_only_pair_generation(self):
        spans = [span("cli.main", 0.0, 12.0, -1),
                 span("connectivity.rho_threshold", 1.0, 11.0, 0),
                 span("connectivity.cap_pass", 1.5, 10.5, 1),
                 span("geomgraph.grid", 2.0, 3.0, 2),
                 span("geomgraph.pairs_against", 3.0, 6.0, 2, 1000)]
        metrics, missing = tracer.layer_metrics(spans, set(), tracer.LAYER_METRICS)
        self.assertEqual(metrics["connectivity.sweep_self_s"]["value"], 6.0)
        self.assertEqual(metrics["geomgraph.pairs_s"]["value"], 4.0)
        self.assertEqual(metrics["geomgraph.pairs"]["value"], 1000)
        self.assertEqual(metrics["connectivity.cap_passes"]["value"], 1)
        self.assertEqual(metrics["percolation.trials"]["value"], 0)
        self.assertEqual(metrics["cli.main_s"]["value"], 12.0)
        self.assertEqual(missing, [])


class Percentile(unittest.TestCase):
    def test_refuses_fewer_than_ten_beyond(self):
        self.assertIsNone(tracer.tail_percentile(list(range(999)), 99))
        self.assertEqual(tracer.tail_percentile(list(range(1000)), 99), 989)
        self.assertIsNone(tracer.tail_percentile(list(range(19)), 50))
        self.assertEqual(tracer.tail_percentile(list(range(20)), 50), 9)

    def test_refused_percentile_leaves_metric_out(self):
        spans = [span("percolation.trial", 0.0, 0.001 * k, -1) for k in range(1, 50)]
        metrics, missing = tracer.layer_metrics(spans, set(), tracer.LAYER_METRICS)
        self.assertIn("percolation.trial_ms_p99", missing)
        self.assertAlmostEqual(metrics["percolation.trial_ms_p50"]["value"], 25.0)


class Correctness(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory(dir=HERE.parent)
        self.prefix = str(Path(self.dir.name) / "out")

    def tearDown(self):
        self.dir.cleanup()

    def write_lln(self, rhos):
        n = 100000.0
        rows = [f"100000,4,{k},{rho!r},{check.lln_statistic(n, rho)!r}"
                for k, rho in enumerate(rhos)]
        Path(self.prefix + ".csv").write_text("n,tau,trial,rho,statistic\n"
                                              + "\n".join(rows) + "\n")
        stats = sorted(check.lln_statistic(n, rho) for rho in rhos)
        Path(self.prefix + ".medians.csv").write_text(
            "n,tau,trials,median_statistic,q25_statistic,q75_statistic,median_rho\n"
            f"100000,4,{len(rhos)},{stats[1]!r},{stats[0]!r},{stats[2]!r},0.0037\n")

    def flip_digit(self, suffix, line, column):
        """Raise the last digit below 9 of one CSV field by one."""
        path = Path(self.prefix + suffix)
        lines = path.read_text().splitlines()
        fields = lines[line].split(",")
        text = fields[column]
        k = max(i for i, ch in enumerate(text) if ch in "012345678")
        fields[column] = text[:k] + str(int(text[k]) + 1) + text[k + 1:]
        lines[line] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    def test_lln_flipped_digit_fails(self):
        self.write_lln([0.0037316157341463359, 0.0036, 0.0039])
        self.assertEqual(check.check_lln(self.prefix, 3), [])
        digests = {".csv": check.sha256(self.prefix + ".csv")}
        self.flip_digit(".csv", 2, 3)  # rho 0.0036 -> 0.0037
        self.assertNotEqual(check.check_lln(self.prefix, 3), [])
        self.assertNotEqual(check.check_digests(self.prefix, digests), [])

    def test_bisection_flipped_digit_fails(self):
        Path(self.prefix + ".csv").write_text(
            "probe,trials,successes,p_hat,ci_low,ci_high\n"
            "0.25,400,8,0.02,0.01,0.04\n"
            "0.5,400,397,0.99250000000000005,0.97,0.998\n"
            "0.375,400,231,0.57750000000000001,0.52,0.63\n"
            "0.3125,400,184,0.46000000000000002,0.41,0.51\n")
        Path(self.prefix + ".summary.json").write_text(
            json.dumps({"estimate": {"bracket": [0.3125, 0.375]}}))
        self.assertEqual(check.check_bisection(self.prefix, 0.07, 0.5, 400), [])
        self.assertNotEqual(check.check_bisection(self.prefix, 0.05, 0.5, 400), [])
        self.flip_digit(".csv", 3, 2)  # 231 successes -> 232, p_hat no longer matches
        self.assertNotEqual(check.check_bisection(self.prefix, 0.07, 0.5, 400), [])

    def test_falling_successes_fail(self):
        Path(self.prefix + ".csv").write_text(
            "probe,trials,successes,p_hat,ci_low,ci_high\n"
            "inf,4,3,0.75,0.2,1\n1,4,0,0,0,0.5\n2,4,4,1,0.5,1\n1.5,4,2,0.5,0.1,0.9\n")
        Path(self.prefix + ".summary.json").write_text(
            json.dumps({"estimate": {"bracket": [1.0, 1.5]}}))
        problems = check.check_bisection(self.prefix, 1.0, 0.5, 4)
        self.assertEqual(len(problems), 1)
        self.assertIn("successes fall", problems[0])


class AbsentTarget(unittest.TestCase):
    def test_missing_site_leaves_metric_out(self):
        fake = types.ModuleType("bench_fake_layer")

        class Sampler:
            def prefix(self, n):
                return list(range(n))

        fake.Sampler = Sampler
        spans = {"pointprocess.prefix": ("bench_fake_layer:Sampler.prefix",),
                 "geomgraph.pairs_against": ("bench_fake_layer:NeighborGrid.pairs_against",),
                 "geomgraph.components": ("bench_fake_layer_gone:components",)}
        with mock.patch.dict(sys.modules, {"bench_fake_layer": fake}):
            t = tracer.Tracer()
            t.install(spans)
            self.assertEqual(len(Sampler().prefix(5)), 5)
            t.uninstall()
        self.assertEqual(t.absent, {"geomgraph.pairs_against", "geomgraph.components"})
        self.assertIs(Sampler.prefix, Sampler.__dict__["prefix"])
        metrics, missing = tracer.layer_metrics(t.spans, t.absent, tracer.LAYER_METRICS)
        self.assertEqual(metrics["pointprocess.points"]["value"], 5)
        for name in ("geomgraph.pairs", "geomgraph.pairs_s", "connectivity.sweep_self_s",
                     "geomgraph.components_s", "geomgraph.crossing_self_s"):
            self.assertIn(name, missing)
            self.assertNotIn(name, metrics)

    def test_deleted_neighbor_grid(self):
        try:
            import abperc.geomgraph as geomgraph
        except ImportError:
            self.skipTest("abperc sources not found")
        with mock.patch.dict(geomgraph.__dict__):
            del geomgraph.NeighborGrid
            t = tracer.Tracer()
            t.install(tracer.SPANS)
            t.uninstall()
        self.assertEqual(t.absent, {"geomgraph.grid", "geomgraph.pairs_against"})
        metrics, missing = tracer.layer_metrics(t.spans, t.absent, tracer.LAYER_METRICS)
        self.assertIn("geomgraph.pairs", missing)
        self.assertIn("percolation.trials", metrics)


if __name__ == "__main__":
    unittest.main()
