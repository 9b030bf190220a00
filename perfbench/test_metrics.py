"""Tests for the benchmark's percentile rule and ratio reporting.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest

import metrics as M


def traced_record():
    """A synthetic traced record that exercises every per-layer
    metric, with spans nested one level (a gate inside runService)."""
    spans = {
        "workloads.build": {"self_s": 0.1, "calls": 3},
        "riscv.emu": {"self_s": 0.2, "calls": 3},
        "service.run": {"self_s": 1.0, "calls": 1},
        "absint.gate": {"self_s": 0.05, "calls": 10},
        "service.execute": {"self_s": 0.8, "calls": 10},
        "baseline.dynaspam": {"self_s": 0.01, "calls": 1},
    }
    top = sum(s["self_s"] for s in spans.values())
    return {
        "spans": spans,
        "counters": {"riscv.instructions": 2e6, "mesa.cache.hits": 3,
                     "mesa.cache.lookups": 10, "service.submitted": 10,
                     "service.jobs": 10, "service.queue_wait_cycles": 50},
        "replay_traced_s": top + 0.04,
        "replay_untraced_s": top,
        "replay_top_level_s": top,
        "untraced_wall_s": 2.0,
    }


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(M.percentile(values, 50), 50)
        self.assertEqual(M.percentile(values, 90), 90)
        self.assertEqual(M.percentile(values, 99), 99)
        self.assertEqual(M.percentile([7], 99), 7)

    def test_tail_needs_ten_samples_beyond(self):
        # p90 of 100 samples leaves exactly 10 beyond it.
        self.assertTrue(M.tail_allowed(100, 90))
        self.assertFalse(M.tail_allowed(99, 90))
        self.assertTrue(M.tail_allowed(1000, 99))
        self.assertFalse(M.tail_allowed(999, 99))
        self.assertFalse(M.tail_allowed(19, 50))
        self.assertTrue(M.tail_allowed(20, 50))

    def test_highest_tail(self):
        self.assertIsNone(M.highest_tail(19))
        self.assertEqual(M.highest_tail(20), 50)
        self.assertEqual(M.highest_tail(99), 50)
        self.assertEqual(M.highest_tail(100), 90)
        self.assertEqual(M.highest_tail(252), 90)
        self.assertEqual(M.highest_tail(4096), 99)

    def test_reported_tail_follows_the_rule(self):
        raw = {"wall_s": [1.0, 1.1, 1.2], "setup_s": [0.1] * 3,
               "ref_slice_s": [0.001] * 3,
               "peak_rss_kb": 2048, "attempted": 300, "failed": 0,
               "cell_ms": [float(i) for i in range(150)],
               "job_host_us": [float(i) for i in range(1000)],
               "sim": {}, "sim_latencies": []}
        _, extra = M.end_to_end(raw)
        self.assertIn("cell_ms_p90", extra)
        self.assertNotIn("cell_ms_p99", extra)
        self.assertIn("job_host_us_p99", extra)
        value, _, note = extra["cell_ms_p90"]
        self.assertEqual(value, 134.0)
        self.assertIn("15 beyond", note)


class HostNormalizedWall(unittest.TestCase):
    def test_wall_refs_cancels_host_speed(self):
        # The same work measured on a host running at half speed during
        # one pass: wall_s moves, wall_refs does not.
        raw = {"wall_s": [2.0, 4.0, 2.0], "setup_s": [0.1] * 3,
               "ref_slice_s": [0.001, 0.002, 0.001],
               "peak_rss_kb": 1024, "attempted": 3, "failed": 0,
               "cell_ms": [], "job_host_us": [], "sim": {},
               "sim_latencies": []}
        machine, extra = M.end_to_end(raw)
        self.assertEqual(machine["wall_refs"][0], 2000.0)
        self.assertEqual(extra["wall_s"][0], 2.0)


class RatioBase(unittest.TestCase):
    def test_ratio_keeps_base(self):
        r = M.Ratio(553, 4096)
        self.assertAlmostEqual(r, 553 / 4096)
        self.assertIn("(553/4096)", M.fmt_value("x_ratio", r, "frac"))
        self.assertEqual(M.Ratio(0, 0), 0.0)
        self.assertIn("(0/0)", M.fmt_value("x_ratio", M.Ratio(0, 0), "f"))

    def test_ratio_without_base_is_refused(self):
        with self.assertRaises(ValueError):
            M.fmt_value("mesa.cache_hit_ratio", 0.5, "frac")

    def test_every_ratio_prints_with_its_base(self):
        m, _, _ = M.per_layer(traced_record())
        raw = {"wall_s": [1.0], "setup_s": [0.1], "peak_rss_kb": 1024,
               "ref_slice_s": [0.001],
               "attempted": 4, "failed": 1, "cell_ms": [], "sim": {},
               "job_host_us": [], "sim_latencies": []}
        machine, extra = M.end_to_end(raw)
        values = dict(m)
        values.update({k: v for k, (v, _, _) in machine.items()})
        values.update({k: v for k, (v, _, _) in extra.items()})
        ratios = [k for k in values if M.is_ratio_name(k)]
        self.assertGreater(len(ratios), 10)
        for name in ratios:
            text = M.fmt_value(name, values[name], "frac")
            self.assertRegex(text, r"\(\S+/\S+\)$", name)


class TracedRecord(unittest.TestCase):
    def test_every_per_layer_metric_present(self):
        m, _, _ = M.per_layer(traced_record())
        self.assertEqual(set(m), set(M.PER_LAYER))

    def test_closure_and_self_time(self):
        m, layer_self, closure = M.per_layer(traced_record())
        self.assertTrue(closure["ok"])
        # service self = runService minus its gate children minus the
        # replayed executions.
        self.assertAlmostEqual(m["service.run_s"], 1.05)
        self.assertAlmostEqual(m["service.self_s"], 1.0 - 0.8)
        # The unlisted span and the uncovered gap land in other_s.
        self.assertAlmostEqual(m["other_s"], 0.01 + 0.04)
        self.assertAlmostEqual(layer_self["absint"], 0.05)
        self.assertAlmostEqual(sum(layer_self.values()) + m["other_s"],
                               closure["traced_wall_s"])

    def test_broken_closure_is_detected(self):
        raw = traced_record()
        raw["replay_top_level_s"] += 0.5  # spans overlap somewhere
        _, _, closure = M.per_layer(raw)
        self.assertFalse(closure["ok"])

    def test_idle_layers_read_zero(self):
        m, _, _ = M.per_layer(traced_record())
        self.assertEqual(m["fault.checkpoint_s"], 0.0)
        self.assertEqual(m["cpu.ooo_s"], 0.0)
        self.assertEqual(m["fault.detect_ratio"], 0.0)

    def test_predictions_name_known_workloads(self):
        for heavy, light in M.PREDICTIONS.values():
            self.assertFalse(set(heavy) & set(light))
            self.assertTrue(set(heavy) | set(light) <= set(M.WORKLOADS))


class Reference(unittest.TestCase):
    def test_paper_error(self):
        ref = M.load_reference()
        sim = {"fig11." + k: v for k, v in ref["fig11"]["values"].items()}
        self.assertEqual(M.paper_error_pct(sim, ref), 0.0)
        sim["fig11.perf_m128"] = 1.33 * 1.1
        self.assertAlmostEqual(M.paper_error_pct(sim, ref), 2.5)

    def test_benchmark_json_matches_metric_tables(self):
        with open(M.HERE.parent / "BENCHMARK.json") as f:
            bench = json.load(f)
        self.assertEqual([m["name"] for m in bench["end_to_end"]],
                         list(M.END_TO_END))
        self.assertEqual([m["name"] for m in bench["per_layer"]],
                         list(M.PER_LAYER))
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(M.WORKLOADS))
        for m in bench["end_to_end"] + bench["per_layer"]:
            table = M.END_TO_END if m in bench["end_to_end"] \
                else M.PER_LAYER
            self.assertEqual(m["unit"], table[m["name"]])


if __name__ == "__main__":
    unittest.main()
