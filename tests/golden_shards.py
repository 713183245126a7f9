#!/usr/bin/env python3
"""Sharding determinism golden test (ctest: golden_shards).

Two contracts, checked on a seconds-scale fig8_recon_single config:

  1. --shards 1 (the default) is byte-identical to the pre-sharding
     golden output checked in at ci/golden_fig8_tiny.out: sharding
     changed nothing for unsharded runs.
  2. --shards 4 output is byte-identical across --jobs {1,4}: a
     sharded sweep point is a pure function of (seed, shards), not of
     scheduling.
"""
import argparse
import subprocess
import sys

TINY_ARGS = [
    "--warmup", "0.2", "--measure", "0.5", "--cylinders", "60",
    "--rates", "105",
]


def run(binary, extra):
    cmd = [binary] + TINY_ARGS + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    return proc.stdout


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--bin", required=True,
                        help="path to fig8_recon_single")
    parser.add_argument("--golden", required=True,
                        help="path to ci/golden_fig8_tiny.out")
    args = parser.parse_args()

    with open(args.golden, "rb") as f:
        golden = f.read()

    unsharded = run(args.bin, ["--jobs", "1"])
    if unsharded != golden:
        sys.exit("FAIL: default (--shards 1) output differs from the "
                 f"pre-sharding golden {args.golden}")
    print("ok: --shards 1 matches the pre-sharding golden")

    reference = run(args.bin, ["--shards", "4", "--jobs", "1"])
    if run(args.bin, ["--shards", "4", "--jobs", "4"]) != reference:
        sys.exit("FAIL: --shards 4 output differs at --jobs 4")
    print("ok: --shards 4 byte-identical across jobs")


if __name__ == "__main__":
    main()
