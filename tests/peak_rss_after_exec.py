#!/usr/bin/env python3
"""Checks that roflsim reports its own peak RSS, not its launcher's.

Linux carries getrusage's ru_maxrss across execve, so a process started by
a large parent would print at least the parent's peak.  This script starts a
child that holds BALLAST_MB resident and then execs `roflsim intra` in
its place, and checks that the printed peak-rss stays below LIMIT_MB.

    python3 peak_rss_after_exec.py path/to/roflsim

Exits 0 on success, 1 on failure, 77 (skipped) off Linux.
"""

import os
import re
import subprocess
import sys

# The limit leaves room for sanitizer builds: under ASan the same roflsim
# command peaks near 60 MB of its own.
BALLAST_MB = 192
LIMIT_MB = 128
ROFLSIM_ARGS = ["intra", "--hosts", "200", "--routes", "100"]


def exec_with_ballast(roflsim):
    ballast = bytearray(BALLAST_MB << 20)
    for i in range(0, len(ballast), 4096):  # touch every page
        ballast[i] = 1
    with open("/proc/self/status") as f:
        rss = next(line for line in f if line.startswith("VmRSS:"))
    print("launcher " + rss.strip(), file=sys.stderr, flush=True)
    os.execv(roflsim, [roflsim] + ROFLSIM_ARGS)


def fail(msg):
    print("FAIL: " + msg)
    return 1


def main():
    if len(sys.argv) == 3 and sys.argv[1] == "--exec":
        exec_with_ballast(sys.argv[2])
    if len(sys.argv) != 2:
        print(__doc__.strip())
        return 2
    if not sys.platform.startswith("linux"):
        print("skipped: ru_maxrss survives execve only on Linux")
        return 77
    proc = subprocess.run([sys.executable, __file__, "--exec", sys.argv[1]],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        return fail(f"roflsim exited {proc.returncode}:\n{proc.stderr}")
    held = re.search(r"launcher VmRSS:\s+(\d+) kB", proc.stderr)
    if held is None or int(held.group(1)) < LIMIT_MB * 1024:
        return fail(f"launcher did not hold {LIMIT_MB} MB resident, so the "
                    f"check proves nothing:\n{proc.stderr}")
    peak = re.search(r"peak-rss=(\d+)MB", proc.stdout)
    if peak is None:
        return fail(f"no peak-rss in roflsim's output:\n{proc.stdout}")
    if int(peak.group(1)) >= LIMIT_MB:
        return fail(f"roflsim reported peak-rss={peak.group(1)}MB after a "
                    f"launcher holding {int(held.group(1)) // 1024} MB: the "
                    "launcher's peak leaked through exec")
    print(f"ok: launcher held {int(held.group(1)) // 1024} MB, roflsim "
          f"reported peak-rss={peak.group(1)}MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
