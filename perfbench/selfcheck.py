#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. It checks that:
  - BENCHMARK.json names exactly the workloads and metrics run.py reports,
    with the same units and directions;
  - a tiny run of every workload, untraced and traced, passes its output
    check and prints every named metric with its unit;
  - an altered reference makes every unit fail (failed_frac = 1);
  - a second workload seed runs end to end;
  - in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
import run as bench  # noqa: E402

ROOT = bench.ROOT
failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def result_of(argv, cwd=ROOT):
    """(exit code, parsed last-line result or None) of one run.py call."""
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + argv,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return proc.returncode, result


def tiny(workload, seed=1, trace=0, extra=()):
    return result_of(["--workload", workload, "--seed", str(seed),
                      "--seconds", "1", "--trace", str(trace), "--tiny"]
                     + list(extra))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py runs")
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(listed == [row[:3] for row in table],
              "BENCHMARK.json %s matches run.py" % key)
    expected = {0: {n: u for n, u, _, _ in bench.END_TO_END},
                1: {n: u for n, u, _, _ in bench.PER_LAYER}}

    for workload in bench.WORKLOADS:
        for trace in (0, 1):
            rc, res = tiny(workload, trace=trace)
            units = ({n: m["unit"] for n, m in res["metrics"].items()}
                     if res else None)
            check(rc == 0 and res is not None and res["correct"]
                  and res["failed"] == 0 and res["attempted"] >= 1
                  and units == expected[trace],
                  "%s --trace %d: correct, every metric with its unit"
                  % (workload, trace))
        rc, res = tiny(workload, extra=["--corrupt-reference"])
        check(res is not None and not res["correct"]
              and res["failed"] == res["attempted"] > 0,
              "%s: an altered reference gives failed_frac = 1" % workload)
        rc, res = tiny(workload, seed=2)
        check(rc == 0 and res is not None and res["correct"],
              "%s: a second seed runs end to end" % workload)

    os.makedirs(bench.build_dir(), exist_ok=True)
    bare = tempfile.mkdtemp(dir=bench.build_dir(), prefix="bare_")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        rc, res = result_of(["--workload", bench.WORKLOADS[0], "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=bare)
        check(rc != 0 and res is None,
              "without the sources: non-zero exit and no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print("selfcheck: %s" % ("PASS" if not failures else
                             "%d check(s) failed" % len(failures)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
