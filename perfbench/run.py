#!/usr/bin/env python3
"""Repository benchmark: one command for the three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is recon_sweep, cluster_rebuild, mttdl_verify, or all (the three in
turn, with every metric name prefixed by its workload).

Run it from the root of a source checkout. It configures and builds the
driver (perfbench/CMakeLists.txt, which compiles the declust libraries
from src/) under $CARGO_TARGET_DIR (default .bench_build), runs the
workload for S seconds of host time and prints a report followed, on
the last line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with no spans and no
wall probe installed. --trace 1 reports the per-layer metrics from one
traced pass plus the layer rungs, and writes the spans it recorded next
to the build.

Workloads (the simulated arrivals are open-loop Poisson; on the host
each pass is a batch job that runs to completion):
  recon_sweep      the paper's Fig 8-1/8-2 sweep: C=21, G in
                   {3,4,5,6,10,18,21}, 105 and 210 accesses/s, 50% reads,
                   four reconstruction algorithms, one rebuild process,
                   1-track x 949-cylinder disks, data plane off, one
                   thread. Unit: sweep point (56 per pass).
  cluster_rebuild  16 arrays (C=21, G=6, 100-cylinder disks), Zipf(0.9)
                   over 100k objects at 250 req/s, 70% reads, objects of
                   1/4/16 units, 8 rolling rebuilds over 1502 simulated
                   seconds, min(4, nproc) workers. Unit: 0.25 s epoch.
                   The seed sets when the rebuilds start; object placement
                   and arrivals use a fixed cluster seed (see workloads.cpp).
  mttdl_verify     failure->repair windows (20 at G=3, 12 at G=6) with
                   second-failure hazards, latent sector errors and the
                   data plane verifying every combine. Unit: window.

Timing: every run starts with a reference pass (untimed; it also warms
caches), then repeats the pass until S seconds have gone by. A unit's
host time is the fastest of its repetitions; wall_s, cpu_s and setup_s
sum those over one pass, and unit_ms_p50 / unit_ms_tail are percentiles
over units. The cluster's epochs are timed together, since untraced
runs install no wall probe, so its unit percentiles coincide.

Output check: every unit of every pass (and of the check passes: one
worker for the cluster; spans and capture on; data plane off for mttdl)
must reproduce the reference pass exactly. A unit that throws or
differs counts as failed; failed_frac is printed with the metrics and
carried by the result's "failed" / "attempted" counts.

--tiny shrinks every workload (self-check only) and --corrupt-reference
alters the reference before comparing, which must fail every unit.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("recon_sweep", "cluster_rebuild", "mttdl_verify")

# (name, unit, better, meaning) of every end-to-end metric a --trace 0
# run reports. Host time unless the name starts with model_ (simulated).
END_TO_END = (
    ("wall_s", "s", "lower", "host wall of one pass, setup included"),
    ("setup_s", "s", "lower",
     "host time building simulations before their first event"),
    ("cpu_s", "s", "lower", "user + system CPU of one pass"),
    ("peak_rss_mb", "MB", "lower", "peak resident memory of one pass"),
    ("unit_ms_p50", "ms", "lower", "median host time per unit"),
    ("unit_ms_tail", "ms", "lower",
     "host time per unit at the highest percentile with >= 10 beyond"),
    ("model_recon_s", "s", "lower", "mean simulated rebuild time"),
    ("model_resp_p99_ms", "ms", "lower",
     "simulated user response p99 during reconstruction"),
)

# (name, unit, better, the end-to-end metric and workload it should
# move) of every per-layer metric a --trace 1 run reports. Layers a
# workload bypasses read 0 there.
SIM = "wall_s on recon_sweep (largest share) and cluster_rebuild"
RECON_MTTDL = "wall_s on recon_sweep and mttdl_verify"
TAIL = "model_resp_p99_ms"
MIX = "operation mix: explains why the workloads differ"
CLUSTER = "unit_ms_p50 on cluster_rebuild"
TRACE = "tracing cost: traced minus untraced wall_s"
SELF = "wall_s of every workload that runs the span"
PER_LAYER = (
    ("sim.events", "count", "lower", SIM),
    ("sim.host_ns_per_event", "ns", "lower", SIM),
    ("sim.queue_spills", "count", "lower", SIM),
    ("sim.queue_resizes", "count", "lower", SIM),
    ("sim.queue_rebuilds", "count", "lower", SIM),
    ("sim.callbacks_spilled", "count", "lower", SIM),
    ("sim.hold_ns_per_op", "ns", "lower", SIM),
    ("sim.hold_depth", "count", "lower", "input of sim.hold_ns_per_op"),
    ("disk.completions", "count", "lower", RECON_MTTDL),
    ("disk.host_ns_per_request", "ns", "lower", RECON_MTTDL),
    ("disk.queue_ms_p50", "ms_bucket_ub", "lower",
     "model_resp_p99_ms and model_recon_s"),
    ("disk.queue_ms_p99", "ms_bucket_ub", "lower",
     "model_resp_p99_ms and model_recon_s"),
    ("disk.service_ms_p50", "ms_bucket_ub", "lower",
     "model_resp_p99_ms and model_recon_s"),
    ("layout.host_ns_per_place", "ns", "lower", "wall_s on recon_sweep"),
    ("layout.table_bytes", "bytes", "lower", "peak_rss_mb"),
    ("setup.layout_s", "s", "lower",
     "setup_s on mttdl_verify and cluster_rebuild"),
    ("array.io_ops", "count", "lower", MIX),
    ("array.rmw_writes", "count", "lower", MIX),
    ("array.large_writes", "count", "lower", MIX),
    ("array.degraded_reads", "count", "lower", MIX),
    ("lock.acquires", "count", "lower", "base of lock.contended_frac"),
    ("lock.contended_frac", "fraction", "lower", TAIL),
    ("lock.wait_ms_p99", "ms_bucket_ub", "lower", TAIL),
    ("lock.host_ns_per_pair", "ns", "lower", "wall_s on recon_sweep"),
    ("recon.cycles", "count", "lower", "model_recon_s"),
    ("recon.read_phase_ms_p50", "ms_bucket_ub", "lower", "model_recon_s"),
    ("recon.write_phase_ms_p50", "ms_bucket_ub", "lower", "model_recon_s"),
    ("phase.degraded_host_s", "s", "lower", RECON_MTTDL),
    ("phase.recon_host_s", "s", "lower", RECON_MTTDL),
    ("ec.xor_gbps_4k", "GB/s", "higher", "wall_s on mttdl_verify only"),
    ("ec.gf_muladd_gbps_4k", "GB/s", "higher", "wall_s on mttdl_verify only"),
    ("ec.verify_share", "fraction", "lower", "wall_s on mttdl_verify only"),
    ("router.host_ns_per_arrival", "ns", "lower", CLUSTER),
    ("router.redirects", "count", "lower", CLUSTER),
    ("barrier.serial_ms_per_epoch", "ms", "lower", CLUSTER),
    ("advance.busy_s", "s", "lower", "cpu_s on cluster_rebuild"),
    ("advance.inflation", "ratio", "lower", "cpu_s on cluster_rebuild"),
    ("worker.idle_frac", "fraction", "lower", "wall_s on cluster_rebuild"),
    ("advance.max_over_mean", "ratio", "lower",
     "unit_ms_tail on cluster_rebuild (the straggler)"),
    ("trace.overhead_s", "s", "lower", TRACE),
    ("trace.overhead_frac", "fraction", "lower", TRACE),
    ("trace.spans", "count", "lower", TRACE),
    ("self.pass_s", "s", "lower", SELF),
    ("self.unit_s", "s", "lower", SELF),
    ("self.construct_s", "s", "lower", "setup_s"),
    ("self.degraded_s", "s", "lower", "wall_s on recon_sweep"),
    ("self.warmup_s", "s", "lower", "wall_s on mttdl_verify"),
    ("self.recon_s", "s", "lower", RECON_MTTDL),
    ("self.cluster_run_s", "s", "lower", CLUSTER),
    ("self.advance_s", "s", "lower", "wall_s on cluster_rebuild"),
)

# Tail percentiles tried from the highest down.
TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 97, 96, 95, 90, 80, 75, 50)

# Host seconds one workload may take once the driver is built.
RUN_LIMIT_S = 170


def fail(message, code):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir, deadline):
    """Configure (once) and build the driver; return its path."""
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(min(4, nproc()))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    # Keep the compilers' scratch files inside the build tree too.
    tmp = os.path.join(out_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for cmd in steps:
            left = deadline - time.monotonic()
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=env, timeout=max(left, 1)).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (" + " ".join(cmd) + ")", 3)
    return os.path.join(out_dir, "perfbench")


def median(values):
    return statistics.median(values) if values else 0.0


def tail(samples):
    """(percentile, value) at the highest percentile with >= 10 beyond."""
    values = sorted(samples)
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (1 - p / 100.0) >= 10:
            rank = max(1, -(-int(p * n) // 100))  # ceil(p/100 * n)
            return p, values[min(rank, n) - 1]
    return 100.0, values[-1] if values else 0.0


def check_outputs(raw, corrupt):
    """Count attempted and failed units against the first pass."""
    passes = raw["passes"]
    reference = [u["out"] for u in passes[0]["units"]]
    if corrupt:
        reference = [r + "#altered" for r in reference]
    attempted = failed = 0
    problems = []
    runs = [("pass %d" % i, p) for i, p in enumerate(passes)]
    runs += sorted(raw.get("checks", {}).items())
    for label, p in runs:
        for i, u in enumerate(p["units"]):
            attempted += u["n"]
            bad = u["err"] or i >= len(reference) or u["out"] != reference[i]
            if len(p["units"]) != len(reference):
                bad = True
            if bad:
                failed += u["n"]
                if len(problems) < 5:
                    problems.append("%s unit %d: %s" % (
                        label, i, u["err"] or "output differs from reference"))
    return attempted, failed, problems


def per_unit_times(timed, key):
    """Each unit position's host time: the fastest of its repetitions
    over the timed passes. Other work sharing the host only ever adds
    time, and it comes in stretches long enough to slow whole passes, so
    the fastest repetition is the steadiest estimate of the unit's own
    cost."""
    columns = zip(*[[u[key] for u in p["units"]] for p in timed])
    return [min(c) for c in columns]


def pass_total(timed, unit_key, pass_key, scale):
    """One pass's total, robust to host slow-downs shorter than a pass:
    the sum of every unit's time across passes, plus the median of what
    each pass spent outside its units."""
    units = sum(per_unit_times(timed, unit_key)) / scale
    rest = median([p[pass_key] - sum(u[unit_key] for u in p["units"]) / scale
                   for p in timed])
    return units + rest


def end_to_end(raw):
    # The first pass is the reference and warm-up; it is not timed.
    timed = raw["passes"][1:]
    # The unit percentiles count each unit's time once per pass (and
    # once per epoch for the cluster, whose epochs are timed together:
    # an untraced run installs no wall probe).
    unit_ms = []
    weights = [u["n"] for u in timed[0]["units"]]
    for ms, n in zip(per_unit_times(timed, "ms"), weights):
        per = ms / n
        unit_ms.extend([per] * (n * len(timed)))
    pct, tail_ms = tail(unit_ms)
    ref = raw["passes"][0]
    values = {
        "wall_s": pass_total(timed, "ms", "wall_s", 1e3),
        "setup_s": pass_total(timed, "setup_ms", "setup_s", 1e3),
        "cpu_s": pass_total(timed, "cpu_ms", "cpu_s", 1e3),
        "peak_rss_mb": raw["peak_rss_mb"],
        "unit_ms_p50": median(unit_ms),
        "unit_ms_tail": tail_ms,
        "model_recon_s": ref["model_recon_s"],
        "model_resp_p99_ms": ref["model_resp_p99_ms"],
    }
    notes = {
        "timed_passes": "%d (plus the reference pass)" % len(timed),
        "unit_ms_tail": "p%g of %d unit samples" % (pct, len(unit_ms)),
    }
    return values, notes


def run_workload(args, workload, binary, deadline):
    """Run one workload, print its report; (attempted, failed, metrics)."""
    out_dir = os.path.dirname(binary)
    workers = min(4, nproc())
    tag = "%s_%d_t%d" % (workload, args.seed, args.trace)
    raw_path = os.path.join(out_dir, "raw_%s.json" % tag)
    spans_path = os.path.join(out_dir, "spans_%s.tsv" % tag)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workers", str(workers), "--out", raw_path]
    if args.trace:
        cmd += ["--spans", spans_path]
    if args.tiny:
        cmd.append("--tiny")
    if os.path.exists(raw_path):
        os.remove(raw_path)
    try:
        rc = subprocess.run(cmd, timeout=max(deadline - time.monotonic(), 1)
                            ).returncode
    except subprocess.TimeoutExpired:
        fail("driver exceeded the run time limit", 1)
    if rc != 0:
        fail("driver exited with status %d" % rc, 1)
    with open(raw_path) as f:
        raw = json.load(f)

    fp = dict(raw["fingerprint"])
    fp.update({"nproc": nproc(), "cpu_model": cpu_model(),
               "cluster_workers": workers})
    attempted, failed, problems = check_outputs(raw, args.corrupt_reference)
    record = {"workload": workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "fingerprint": fp, "units_per_pass": raw["units_per_pass"],
              "passes": len(raw["passes"]),
              "checks": sorted(raw.get("checks", {})),
              "failed_frac": failed / attempted if attempted else 1.0}
    print("record " + json.dumps(record, sort_keys=True))
    for p in problems:
        print("output check: " + p)

    if args.trace:
        layer = raw["layer"]
        bad = [n for n, unit, _, _ in PER_LAYER
               if layer.get(n, {}).get("unit") != unit]
        if bad:
            fail("driver did not report " + ", ".join(bad), 1)
        metrics = {n: {"value": layer[n]["value"], "unit": unit}
                   for n, unit, _, _ in PER_LAYER}
        notes = {n: "moves " + moves for n, _, _, moves in PER_LAYER}
        for r in raw["rungs"]:
            print("rung %-28s %14.4f %-5s samples=%d checksum=%d" % (
                r["name"], r["value"], r["unit"], r["samples"],
                r["checksum"]))
        print("spans written to " + os.path.relpath(spans_path, ROOT))
    else:
        values, extra = end_to_end(raw)
        for n, note in extra.items():
            print("note %s: %s" % (n, note))
        metrics = {n: {"value": values[n], "unit": unit}
                   for n, unit, _, _ in END_TO_END}
        notes = {n: meaning for n, _, _, meaning in END_TO_END}

    for name, m in metrics.items():
        print("metric %-28s %16.6f %-12s %s" % (name, m["value"], m["unit"],
                                                 notes[name]))
    print("metric %-28s %16.6f %s" % ("failed_frac", record["failed_frac"],
                                      "fraction"))
    print("output check: %s (%d of %d units failed)" % (
        "PASS" if failed == 0 else "FAIL", failed, attempted))
    return attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all three in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the self-check only")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="alter the reference; every unit must then fail")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0", 2)

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no declust sources at %s/src: run from a source checkout"
             % ROOT, 2)
    binary = build(build_dir(), time.monotonic() + 850)

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for workload in workloads:
        deadline = time.monotonic() + RUN_LIMIT_S - 10
        a, f, m = run_workload(args, workload, binary, deadline)
        attempted += a
        failed += f
        if len(workloads) == 1:
            metrics = m
        else:
            metrics.update({workload + "." + n: v for n, v in m.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
