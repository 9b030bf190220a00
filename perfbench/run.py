#!/usr/bin/env python3
"""Repository benchmark: build the simulator, run one workload, check
its outputs, and print its metrics.

    python3 perfbench/run.py --workload paper-repro --seed 1 \
        --seconds 15 --trace 0

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench. The
last stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}; the lines above it are the readable report. Exit status is
0 only when every functional gate passed.
"""

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import metrics as M

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_JOBS = "3"
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        for cmd in (["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", str(BUILD), "-j", BUILD_JOBS]):
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return BUILD / "mesa_perfbench"


def provenance(raw):
    """Host and source identity recorded with every result."""
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        if r.returncode == 0:
            rev = r.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": raw["nproc"],
        "hardware_concurrency": raw["hardware_concurrency"],
        "build_type": raw["build_type"],
        "git_rev": rev,
        "src_sha256": digest.hexdigest()[:16],
        "threads": raw["threads"],
    }


def host_time_comparable(workload, prov):
    cores = min(prov["nproc"], prov["hardware_concurrency"] or 1)
    return workload != "fault-campaign" or cores >= M.CAMPAIGN_SHARDS


def report(args, raw, prov):
    """Readable report lines; returns (metrics dict, correct)."""
    print("perfbench: workload=%s seed=%d trace=%d" %
          (args.workload, args.seed, args.trace))
    print("provenance: " + " ".join("%s=%s" % kv for kv in prov.items()))
    print("why: " + M.WHY[args.workload])
    comparable = host_time_comparable(args.workload, prov)
    if not comparable:
        print("host-time metrics: n/a (host has fewer than %d cores for "
              "the campaign's %d shards; do not compare them)" %
              (M.CAMPAIGN_SHARDS, M.CAMPAIGN_SHARDS))
    for failure in raw["failures"]:
        print("FAILED: " + failure)

    correct = raw["failed"] == 0
    if not args.trace:
        machine, extra = M.end_to_end(raw)
        print("end-to-end:")
        for name, (value, unit, note) in {**machine, **extra}.items():
            print("  %-26s %-32s %s" %
                  (name, M.fmt_value(name, value, unit), note))
        q1, q3 = M.quartiles(raw["wall_s"])
        print("  wall_s quartiles %.6g .. %.6g s" % (q1, q3))
        out = {name: {"value": float(v), "unit": unit}
               for name, (v, unit, _) in machine.items()}
        return out, correct

    m, layer_self, closure = M.per_layer(raw)
    wall = closure["traced_wall_s"]
    print("traced replay: %.6g s with spans, %.6g s without; untraced "
          "workload pass %.6g s" %
          (wall, raw["replay_untraced_s"], raw["untraced_wall_s"]))
    print("layer        self_s      share   predicted  verdict")
    for layer, s, share, predicted, verdict in M.verdicts(
            args.workload, layer_self, wall):
        print("  %-10s %-11.6g %6.2f%%  %-9s  %s" %
              (layer, s, 100 * share, predicted, verdict))
    print("closure: layer self %.6g s + other %.6g s = traced wall "
          "%.6g s: %s" % (closure["layer_self_s"], closure["other_s"],
                          wall, "ok" if closure["ok"] else "BROKEN"))
    print("per-layer:")
    for name, unit in M.PER_LAYER.items():
        print("  %-32s %s" % (name, M.fmt_value(name, m[name], unit)))
    if not closure["ok"]:
        print("FAILED: span self times do not add up to the traced wall")
        correct = False
    out = {name: {"value": float(m[name]), "unit": unit}
           for name, unit in M.PER_LAYER.items()}
    return out, correct


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=M.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    work = BUILD / "work"
    work.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    sys.stderr.write(r.stderr)
    if r.returncode != 0 or not r.stdout.strip():
        fail("benchmark binary exited with status %d" % r.returncode)
    raw = json.loads(r.stdout.strip().splitlines()[-1])

    prov = provenance(raw)
    out, correct = report(args, raw, prov)
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
