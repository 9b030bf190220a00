"""Turn one raw record of the benchmark binary into the benchmark's
metrics and report.

Pure functions only (no I/O beyond reading the reference file), so
test_metrics.py can check the percentile rule and ratio formatting
without building the simulator.
"""

import json
import math
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("paper-repro", "fault-campaign", "serve-closed-loop")

WHY = {
    "paper-repro": "the paper's Fig. 11/14 cells: the CPU timing model "
                   "and emulator do most of the work, translation runs "
                   "once per cell, fault and service layers are idle",
    "fault-campaign": "256 checked injections on 2 shards: the device "
                      "loop dominates, the translation store is read "
                      "warm, the CPU timing model is idle",
    "serve-closed-loop": "4096 closed-loop jobs on 2 backends: nearly "
                         "every job misses the config cache, so "
                         "translation runs cold; CPU model and fault "
                         "layer are idle",
}

# Campaign shards; on a host with fewer cores its host times are not
# comparable with a host that runs both shards at once.
CAMPAIGN_SHARDS = 2

# Percentiles a tail may be reported at; the rule picks the highest
# one with at least MIN_BEYOND samples beyond it.
TAIL_LADDER = (50.0, 90.0, 99.0)
MIN_BEYOND = 10

# A predicted-heavy layer is confirmed when it takes at least this
# share of the traced wall time; a predicted-light one when it takes
# less.
HEAVY_SHARE = 0.05

# Layer -> (workloads where it should be heavy, workloads where it
# should be light). Workloads in neither set carry no prediction.
PREDICTIONS = {
    "workloads": ((), ()),
    "riscv": (("paper-repro", "fault-campaign"), ("serve-closed-loop",)),
    "cpu": (("paper-repro",), ("fault-campaign", "serve-closed-loop")),
    "dfg": (("serve-closed-loop",), ("paper-repro",)),
    "mesa": (("serve-closed-loop", "fault-campaign"), ("paper-repro",)),
    "absint": (("serve-closed-loop",), ("paper-repro", "fault-campaign")),
    "accel": (("fault-campaign",), ("serve-closed-loop",)),
    "fault": (("fault-campaign",), ("paper-repro", "serve-closed-loop")),
    "service": (("serve-closed-loop",), ("paper-repro", "fault-campaign")),
}
LAYERS = tuple(PREDICTIONS)

# Per-layer metrics: name -> unit. Ratios (``*_ratio``/``*_frac``)
# carry their base in the report.
PER_LAYER = {
    "workloads.build_s": "s",
    "riscv.emu_s": "s",
    "riscv.emu_minst": "Minst",
    "riscv.emu_mips": "MIPS",
    "cpu.ooo_s": "s",
    "cpu.ooo_minst": "Minst",
    "cpu.ooo_mips": "MIPS",
    "cpu.monitor_s": "s",
    "cpu.offload_ratio": "frac",
    "dfg.encode_s": "s",
    "dfg.encodes": "count",
    "mesa.map_s": "s",
    "mesa.maps": "count",
    "mesa.map_fail_ratio": "frac",
    "mesa.config_s": "s",
    "mesa.translate_s": "s",
    "mesa.cache_hit_ratio": "frac",
    "mesa.cache_tag_conflicts": "count",
    "mesa.store_load_s": "s",
    "mesa.store_write_s": "s",
    "mesa.store_hit_ratio": "frac",
    "mesa.store_rejects": "count",
    "absint.analyze_s": "s",
    "absint.certified_ratio": "frac",
    "accel.configure_s": "s",
    "accel.run_s": "s",
    "accel.sim_mcycles": "Mcycles",
    "accel.mcycles_per_s": "Mcycles/s",
    "accel.iterations": "count",
    "accel.watchdog_trips": "count",
    "accel.noc_stall_frac": "frac",
    "accel.mem_stall_frac": "frac",
    "fault.checkpoint_s": "s",
    "fault.detect_ratio": "frac",
    "fault.recover_ratio": "frac",
    "service.run_s": "s",
    "service.execute_s": "s",
    "service.self_s": "s",
    "service.shed_ratio": "frac",
    "service.queue_wait_cycles_mean": "cycles",
    "other_s": "s",
    "trace_overhead_frac": "frac",
}

# End-to-end metrics printed in the final JSON line for every
# workload (BENCHMARK.json "end_to_end").
END_TO_END = {
    "wall_refs": "refs",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_frac": "frac",
}


# ---------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_allowed(n, p):
    """A percentile may be reported only with MIN_BEYOND samples
    beyond it."""
    return n > 0 and beyond(n, p) >= MIN_BEYOND


def highest_tail(n, ladder=TAIL_LADDER):
    """The reported tail: the highest ladder percentile the rule
    allows for n samples, or None when even the median is not."""
    allowed = [p for p in ladder if tail_allowed(n, p)]
    return max(allowed) if allowed else None


def pct_label(p):
    return "p%g" % p


# ---------------------------------------------------------------------
# Metric values
# ---------------------------------------------------------------------

class Ratio(float):
    """A ratio that remembers its base (numerator / denominator)."""

    def __new__(cls, num, den):
        value = num / den if den else 0.0
        obj = super().__new__(cls, value)
        obj.num = num
        obj.den = den
        return obj


def is_ratio_name(name):
    return name.endswith("_ratio") or name.endswith("_frac")


def fmt_count(x):
    return "%d" % x if float(x).is_integer() else "%.6g" % x


def fmt_value(name, value, unit):
    """One metric as report text; every ratio prints with its base."""
    text = "%.12g %s" % (value, unit)
    if isinstance(value, Ratio):
        text += " (%s/%s)" % (fmt_count(value.num), fmt_count(value.den))
    elif is_ratio_name(name):
        raise ValueError("ratio %s has no base" % name)
    return text


def load_reference(path=HERE / "paper_reference.json"):
    with open(path) as f:
        return json.load(f)


def paper_error_pct(sim, reference):
    """Mean absolute relative error (%) of the Fig. 11 averages."""
    errs = []
    for key, ref in reference["fig11"]["values"].items():
        errs.append(abs(sim["fig11." + key] - ref) / ref)
    return 100.0 * sum(errs) / len(errs)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(raw):
    """Every END_TO_END metric, plus the workload-specific ones the
    report prints where they apply. Returns (machine, extra) dicts of
    name -> (value, unit, note)."""
    wall = raw["wall_s"]
    setup = raw["setup_s"]
    ok = raw["attempted"] - raw["failed"]
    machine = {
        "wall_refs": (statistics.median(
                          w / r for w, r in zip(wall, raw["ref_slice_s"])),
                      "refs", "median of %d passes, each in reference "
                      "slices timed during it" % len(wall)),
        "setup_s": (statistics.median(setup), "s",
                    "median of %d set-ups" % len(setup)),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MiB",
                        "process peak"),
        "ok_frac": (Ratio(ok, raw["attempted"]), "frac",
                    "operations that passed their gate"),
    }
    extra = {
        "wall_s": (statistics.median(wall), "s",
                   "median of %d passes" % len(wall)),
        "fail_frac": (Ratio(raw["failed"], raw["attempted"]), "frac",
                      "1 - ok_frac"),
    }
    for name, samples, unit in (("cell_ms", raw["cell_ms"], "ms"),
                                ("job_host_us", raw["job_host_us"], "us")):
        if not samples:
            continue
        n = len(samples)
        extra[name + "_p50"] = (percentile(samples, 50), unit,
                                "n=%d" % n)
        tail = highest_tail(n)
        if tail is not None and tail > 50:
            extra["%s_%s" % (name, pct_label(tail))] = (
                percentile(samples, tail), unit,
                "n=%d, %d beyond" % (n, beyond(n, tail)))
    sim = raw["sim"]
    if "sim_cycles" in sim:
        extra["sim_cycles"] = (sim["sim_cycles"], "cycles", "simulated")
    lat = raw["sim_latencies"]
    if lat:
        tail = highest_tail(len(lat))
        extra["sim_latency_%s_cycles" % pct_label(tail)] = (
            percentile(lat, tail), "cycles",
            "simulated, n=%d jobs" % len(lat))
    if "fig11.perf_m128" in sim:
        ref = load_reference()
        extra["paper_err_pct"] = (
            paper_error_pct(sim, ref), "%",
            "Fig. 11 averages " + ", ".join(
                "%s %.3f vs %.2f" % (k, sim["fig11." + k], v)
                for k, v in ref["fig11"]["values"].items()))
    return machine, extra


# ---------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------

def layer_of(span_name):
    layer = span_name.split(".", 1)[0]
    return layer if layer in PREDICTIONS else None


def per_layer(raw):
    """Every PER_LAYER metric from a traced record, plus the closure
    check and the per-layer shares."""
    spans = raw["spans"]
    c = raw["counters"]

    def self_s(*names):
        return sum(spans.get(n, {}).get("self_s", 0.0) for n in names)

    def count(name):
        return c.get(name, 0.0)

    def rate(num, den):
        return num / den if den > 0 else 0.0

    emu_s = self_s("riscv.emu")
    ooo_s = self_s("cpu.ooo")
    run_s = self_s("accel.run")
    accel_total = (count("accel.compute_cycles") +
                   count("accel.noc_stall_cycles") +
                   count("accel.mem_stall_cycles"))
    gate_s = self_s("absint.gate")
    service_run_s = self_s("service.run") + gate_s
    execute_s = self_s("service.execute")
    traced_wall = raw["replay_traced_s"]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, span in spans.items():
        layer = layer_of(name)
        if layer:
            layer_self[layer] += span["self_s"]
    other_s = traced_wall - sum(layer_self.values())

    m = {
        "workloads.build_s": self_s("workloads.build"),
        "riscv.emu_s": emu_s,
        "riscv.emu_minst": count("riscv.instructions") / 1e6,
        "riscv.emu_mips": rate(count("riscv.instructions") / 1e6, emu_s),
        "cpu.ooo_s": ooo_s,
        "cpu.ooo_minst": count("cpu.ooo.instructions") / 1e6,
        "cpu.ooo_mips": rate(count("cpu.ooo.instructions") / 1e6, ooo_s),
        "cpu.monitor_s": self_s("cpu.monitor"),
        "cpu.offload_ratio": Ratio(count("cpu.monitor.qualified"),
                                   count("cpu.monitor.decisions")),
        "dfg.encode_s": self_s("dfg.encode"),
        "dfg.encodes": count("dfg.encodes"),
        "mesa.map_s": self_s("mesa.map"),
        "mesa.maps": count("mesa.maps"),
        "mesa.map_fail_ratio": Ratio(count("mesa.map_failures"),
                                     count("mesa.maps")),
        "mesa.config_s": self_s("mesa.config"),
        "mesa.translate_s": self_s("mesa.translate"),
        "mesa.cache_hit_ratio": Ratio(count("mesa.cache.hits"),
                                      count("mesa.cache.lookups")),
        "mesa.cache_tag_conflicts": count("mesa.cache.tag_conflicts"),
        "mesa.store_load_s": self_s("mesa.store_load"),
        "mesa.store_write_s": self_s("mesa.store_write"),
        "mesa.store_hit_ratio": Ratio(count("mesa.store.hits"),
                                      count("mesa.store.loads")),
        "mesa.store_rejects": count("mesa.store.rejects"),
        "absint.analyze_s": gate_s,
        "absint.certified_ratio": Ratio(count("absint.certified"),
                                        count("absint.analyzed")),
        "accel.configure_s": self_s("accel.configure"),
        "accel.run_s": run_s,
        "accel.sim_mcycles": count("accel.cycles") / 1e6,
        "accel.mcycles_per_s": rate(count("accel.cycles") / 1e6, run_s),
        "accel.iterations": count("accel.iterations"),
        "accel.watchdog_trips": count("accel.watchdog_trips"),
        "accel.noc_stall_frac": Ratio(count("accel.noc_stall_cycles"),
                                      accel_total),
        "accel.mem_stall_frac": Ratio(count("accel.mem_stall_cycles"),
                                      accel_total),
        "fault.checkpoint_s": self_s("fault.checkpoint"),
        "fault.detect_ratio": Ratio(
            count("fault.detected"),
            count("fault.injections") - count("fault.benign")),
        "fault.recover_ratio": Ratio(count("fault.recovered"),
                                     count("fault.detected")),
        "service.run_s": service_run_s,
        "service.execute_s": execute_s,
        "service.self_s": (service_run_s - gate_s - execute_s
                           if service_run_s else 0.0),
        "service.shed_ratio": Ratio(count("service.rejected"),
                                    count("service.submitted")),
        "service.queue_wait_cycles_mean": rate(
            count("service.queue_wait_cycles"), count("service.jobs")),
        "other_s": other_s,
        "trace_overhead_frac": Ratio(
            traced_wall - raw["replay_untraced_s"],
            raw["replay_untraced_s"]),
    }
    assert set(m) == set(PER_LAYER)

    # Closure: spans never cover more than the traced wall, and the
    # self times of all spans add up to the top-level span time (no
    # double counting between parents and children).
    all_self = sum(s["self_s"] for s in spans.values())
    top = raw["replay_top_level_s"]
    tol = 1e-6 * max(1.0, traced_wall) + 1e-9 * sum(
        s["calls"] for s in spans.values())
    closure = {
        "layer_self_s": sum(layer_self.values()),
        "other_s": other_s,
        "traced_wall_s": traced_wall,
        "ok": abs(all_self - top) <= tol and top <= traced_wall + tol
              and abs(sum(layer_self.values()) + other_s -
                      traced_wall) <= tol,
    }
    return m, layer_self, closure


def verdicts(workload, layer_self, traced_wall):
    """Each layer's measured share beside its heavy/light prediction."""
    rows = []
    for layer in LAYERS:
        share = layer_self[layer] / traced_wall if traced_wall else 0.0
        heavy, light = PREDICTIONS[layer]
        if workload in heavy:
            predicted = "heavy"
            ok = share >= HEAVY_SHARE
        elif workload in light:
            predicted = "light"
            ok = share < HEAVY_SHARE
        else:
            predicted, ok = "-", None
        verdict = ("-" if ok is None else
                   "confirmed" if ok else "REFUTED")
        rows.append((layer, layer_self[layer], share, predicted, verdict))
    return rows
