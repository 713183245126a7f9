#!/usr/bin/env python3
"""Golden-output tests: every checked-in CI golden, table-driven.

Each case runs bench binaries with the flags CI uses and requires the
output to match a golden in ci/ byte for byte. A case is a list of
groups; every run in a group varies only --jobs, --shards or
--cluster-workers, so a group checks two contracts at once: the output
has not drifted, and it is a pure function of (config, seed, shards),
never of how many threads produced it. A group without a golden only
requires its runs to agree with each other.

A run is one or more commands. Its output is their concatenated
stdout, or the file a command writes where its argv says {out}.

  python3 tests/goldens.py --bin-dir build/bench --ci-dir ci [CASE ...]

With no CASE every case runs. CMakeLists.txt registers one ctest per
case, named golden_<case>.
"""
import argparse
import os
import subprocess
import sys
import tempfile

SMOKE = ["--warmup", "0.5", "--measure", "2"]
TINY = ["--warmup", "0.2", "--measure", "0.5", "--cylinders", "60",
        "--rates", "105"]
# TINY without --rates, which the ablation studies do not take.
ABLATIONS = ["--warmup", "0.2", "--measure", "0.5", "--cylinders", "60"]
STUDIES = ("access_size", "cpu_overhead", "double_failure", "mirroring",
           "priority", "scheduler", "sparing", "throttle", "track_buffer",
           "unit_size")
ROBUST = SMOKE + ["--fail-slow", "0,4,0.3,150,0.0005",
                  "--scrub-interval", "5", "--hedge-sweep", "0,30"]
MTTDL = ["--windows", "40", "--warmup", "0.5", "--stripes", "3,6",
         "--seed", "7", "--campaign", "{out}"]
CLUSTER = SMOKE + ["--k-list", "0,2"]
# Figures 8-3/8-4: the figure-8 sweep with eight reconstruction processes.
PARALLEL = TINY + ["--processes", "8"]


def figure(name, args, jobs, shards=None):
    """One `paper <figure>` run; figures without --shards pass None."""
    argv = ["paper", name] + args + ["--jobs", str(jobs)]
    if shards is not None:
        argv += ["--shards", str(shards)]
    return [argv]


def fig8(args, jobs, shards):
    return figure("fig8_recon_single", args, jobs, shards)


def pinned(name, golden, args, sharded):
    """A figure's golden at --jobs 1 and 4; if it takes --shards, its
    4-shard runs must also agree at either job count."""
    if not sharded:
        return [grid(golden, lambda j: figure(name, args, j),
                     [(1,), (4,)])]
    return [
        grid(golden, lambda j, s: figure(name, args, j, s),
             [(1, 1), (4, 1)]),
        grid(None, lambda j, s: figure(name, args, j, s),
             [(1, 4), (4, 4)]),
    ]


def grid(golden, make, cells):
    """One group: the same run at every (jobs, shards) cell."""
    return (golden, [make(*cell) for cell in cells])


CASES = {
    # --shards 1 reproduces the pre-sharding golden; --shards 4 must
    # not depend on --jobs.
    "fig8_tiny": [
        grid("golden_fig8_tiny.out", lambda j, s: fig8(TINY, j, s),
             [(1, 1)]),
        grid(None, lambda j, s: fig8(TINY, j, s), [(1, 4), (4, 4)]),
        grid(None, lambda j, s: fig8(TINY + ["--tails"], j, s),
             [(1, 1), (4, 1)]),
    ],
    "fig8_parallel": [
        grid("golden_fig8_parallel_tiny.out",
             lambda j, s: fig8(PARALLEL, j, s), [(1, 1), (4, 1)]),
        grid(None, lambda j, s: fig8(PARALLEL, j, s), [(1, 4), (4, 4)]),
    ],
    "fig8_smoke": [
        grid("golden_fig8_smoke.out", lambda j, s: fig8(SMOKE, j, s),
             [(1, 1), (4, 1)]),
        grid("golden_fig8_smoke_s4.out", lambda j, s: fig8(SMOKE, j, s),
             [(1, 4), (4, 4)]),
    ],
    # The other paper figures, at the ablations' tiny flags.
    "fig6_response_time": pinned("fig6_response_time",
                                 "golden_fig6_response_time_tiny.out",
                                 ABLATIONS, True),
    "fig6_model_vs_sim": pinned("fig6_model_vs_sim",
                                "golden_fig6_model_vs_sim_tiny.out",
                                ABLATIONS, False),
    "fig8_6_model_vs_sim": pinned("fig8_6_model_vs_sim",
                                  "golden_fig8_6_model_vs_sim_tiny.out",
                                  ABLATIONS, True),
    "table8_1": pinned("table8_1_cycle_times", "golden_table8_1_tiny.out",
                       ABLATIONS, True),
    # Figure 4-3 is its own binary and runs no simulation; its defaults
    # take well under a second.
    "fig4_3": [
        grid("golden_fig4_3_tiny.out",
             lambda j: [["fig4_3_design_catalog", "--jobs", str(j)]],
             [(1,), (4,)]),
    ],
    # The campaign record, not stdout, is the golden.
    "mttdl": [
        grid(f"golden_mttdl_smoke{sfx}.json",
             lambda j, s: [["bench_mttdl"] + MTTDL +
                           ["--jobs", str(j), "--shards", str(s)]],
             [(1, shards), (4, shards)])
        for shards, sfx in ((1, ""), (4, "_s4"))
    ],
    "robustness": [
        grid(f"golden_robustness_smoke{sfx}.out",
             lambda j, s: [["bench_robustness"] + ROBUST +
                           ["--jobs", str(j), "--shards", str(s)]],
             [(1, shards), (4, shards)])
        for shards, sfx in ((1, ""), (4, "_s4"))
    ],
    "cluster": [
        grid("golden_cluster_smoke.out",
             lambda w: [["bench_cluster"] + CLUSTER +
                        ["--cluster-workers", str(w)]],
             [(1,), (4,)]),
    ],
    # fig8 runs CVSCAN with one queue per disk; FCFS, SSTF, SCAN and
    # the background (priority) queue are pinned only here.
    "disk_paths": [
        ("golden_disk_paths_smoke.out",
         [[["ablation", "scheduler"] + SMOKE,
           ["ablation", "priority"] + SMOKE]]),
    ],
    # Every ablation study, one after another, serial and on 4 workers.
    "ablations": [
        grid("golden_ablations_tiny.out",
             lambda j: [["ablation", study] + ABLATIONS +
                        ["--jobs", str(j)] for study in STUDIES],
             [(1,), (4,)]),
    ],
}


def run(bin_dir, commands, scratch):
    """Run @p commands in order; return their output bytes."""
    out_path = os.path.join(scratch, "out")
    stdout = b""
    wrote_file = False
    for argv in commands:
        argv = [os.path.join(bin_dir, argv[0])] + [
            out_path if a == "{out}" else a for a in argv[1:]]
        wrote_file |= out_path in argv
        proc = subprocess.run(argv, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
        if proc.returncode != 0:
            sys.exit(f"FAIL: {' '.join(argv)} exited {proc.returncode}")
        stdout += proc.stdout
    if not wrote_file:
        return stdout
    with open(out_path, "rb") as f:
        return f.read()


def check(name, groups, bin_dir, ci_dir):
    with tempfile.TemporaryDirectory() as scratch:
        for golden, runs in groups:
            expected = None
            if golden:
                with open(os.path.join(ci_dir, golden), "rb") as f:
                    expected = f.read()
            for commands in runs:
                got = run(bin_dir, commands, scratch)
                if expected is None:
                    expected = got
                elif got != expected:
                    against = golden or "the group's first run"
                    shown = " | ".join(" ".join(c) for c in commands)
                    sys.exit(f"FAIL [{name}]: {shown} differs from "
                             f"{against}")
            print(f"ok [{name}]: {len(runs)} run(s) match "
                  f"{golden or 'each other'}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin-dir", required=True,
                        help="directory holding the bench binaries")
    parser.add_argument("--ci-dir", required=True,
                        help="directory holding the golden files")
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"one of {', '.join(CASES)} (default: all)")
    args = parser.parse_args()
    unknown = [name for name in args.cases if name not in CASES]
    if unknown:
        parser.error(f"unknown case(s): {', '.join(unknown)}")
    for name in args.cases or CASES:
        check(name, CASES[name], args.bin_dir, args.ci_dir)


if __name__ == "__main__":
    main()
