#!/usr/bin/env python3
"""The bench drivers reject a bad configuration cleanly.

A driver given a value the simulator rejects must print one line on
stderr and exit 1. It must never end in std::terminate. Each case is one
command line and the prefix its stderr must start with. `ablation` with
no study or an unknown one is misuse too, and so is `paper` with no
figure or an unknown one: one usage line, exit 1.

    python3 tests/driver_errors.py --bin-dir build/bench
"""

import argparse
import os
import subprocess
import sys

CASES = (
    (["ablation", "unit_size", "--unit-sectors", "0"],
     "configuration error: "),
    (["paper", "fig8_recon_single", "--stripes", "1"],
     "configuration error: parity stripe size G=1 must satisfy "
     "2 <= G <= C=21 (G = 2 is declustered mirroring, G = C RAID 5)\n"),
    (["ablation", "cpu_overhead", "--data-plane", "on"],
     "unknown --data-plane 'on' (expected: off | verify)"),
    (["ablation"], "usage: ablation <study> [options], <study> one of: "),
    (["ablation", "bogus"],
     "usage: ablation <study> [options], <study> one of: "),
    (["paper"], "usage: paper <figure> [options], <figure> one of: "),
    (["paper", "bogus"],
     "usage: paper <figure> [options], <figure> one of: "),
)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin-dir", required=True,
                    help="directory holding the bench binaries")
    args = ap.parse_args(argv)

    failed = 0
    for cmd, prefix in CASES:
        proc = subprocess.run(
            [os.path.join(args.bin_dir, cmd[0])] + cmd[1:],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=120)
        line = " ".join(cmd)
        if (proc.returncode != 1 or not proc.stderr.startswith(prefix)
                or proc.stderr.count("\n") != 1):
            print("FAIL %s: exit %d, stderr %r (want exit 1, one stderr "
                  "line starting %r)" % (line, proc.returncode, proc.stderr,
                                         prefix), file=sys.stderr)
            failed += 1
        else:
            print("ok   %s: %s" % (line, proc.stderr.strip()))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
