#!/usr/bin/env python3
"""Assert that a memory-budgeted treegionc sweep stays within an
absolute whole-process max-RSS ceiling.

Synthesizes a stress module (N renamed copies of the largest golden
input), runs `treegionc --all-functions --sweep -j 8
--mem-budget-mb B` on it, and fails if the child's ru_maxrss
exceeds the ceiling.

The point is regression detection, not precision: with streaming
result consumption and per-job arena trimming the whole process
peaks near the runtime baseline (~25 MiB measured at 32 copies),
while re-retaining the batch's results — the failure mode the
streaming sink exists to prevent — peaks past 500 MiB on the same
input. The default ceiling sits between the two with wide margin on
both sides; the *precise* frontier bars live in
`throughput_memsched --assert`, which meters the heap directly.

Usage: assert_max_rss.py [--treegionc PATH] [--source TIR] [--copies N]
                         [--budget-mb B] [--max-rss-mb M]

--treegionc and --source default to build/tools/treegionc and
tests/golden/inputs/fuzz05.tir in the checkout that holds this script,
whatever the working directory.
"""

import argparse
import os
import sys
import tempfile


def synthesize(source: str, copies: int) -> str:
    """N renamed copies of the source module's first function."""
    lines = open(source).read().splitlines(True)
    out = ["module memstress mem=1024\n"]
    body = "".join(lines[1:])
    for i in range(copies):
        out.append(body.replace("func @main", "func @job%d" % i, 1))
    fd, path = tempfile.mkstemp(suffix=".tir", prefix="memstress-")
    with os.fdopen(fd, "w") as f:
        f.writelines(out)
    return path


def max_rss_mb(cmd: list) -> float:
    """Run cmd to completion; return its max-RSS in MiB."""
    pid = os.fork()
    if pid == 0:
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), 1)
        os.execv(cmd[0], cmd)
    _, status, rusage = os.wait4(pid, 0)
    if status != 0:
        sys.exit("FAIL: %s exited with status %d" % (cmd[0], status))
    # ru_maxrss is KiB on Linux.
    return rusage.ru_maxrss / 1024.0


# The checkout that holds this script.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--treegionc",
                        default=os.path.join(ROOT, "build", "tools",
                                             "treegionc"))
    parser.add_argument("--source",
                        default=os.path.join(ROOT, "tests", "golden",
                                             "inputs", "fuzz05.tir"))
    parser.add_argument("--copies", type=int, default=32)
    parser.add_argument("--budget-mb", type=int, default=32)
    parser.add_argument("--max-rss-mb", type=float, default=160.0)
    args = parser.parse_args()

    module = synthesize(args.source, args.copies)
    try:
        rss = max_rss_mb([args.treegionc, "--all-functions", "--sweep",
                          "-j", "8", "--mem-budget-mb",
                          str(args.budget_mb), module])
    finally:
        os.unlink(module)

    print("max-RSS %.1f MiB (%d copies of %s, budget %d MiB, "
          "ceiling %.0f MiB)"
          % (rss, args.copies, os.path.basename(args.source),
             args.budget_mb, args.max_rss_mb))
    if rss > args.max_rss_mb:
        print("FAIL: max-RSS above the ceiling — is the batch "
              "driver retaining results again?")
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
