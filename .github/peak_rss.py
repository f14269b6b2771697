"""Run one qshuffle CLI request in this process and gate its peak memory.

    PYTHONPATH=src python .github/peak_rss.py --limit MB -- ARGV...

runs qshuffle.cli.main(ARGV), prints its wall time and peak resident set
size, and fails if the peak reaches MB megabytes or the request fails. The
peak is the larger ru_maxrss (KiB on Linux) of this process and of its
joined child processes, so the forked workers of verify count too.
"""

import resource
import sys
import time

from qshuffle import cli


def main(args) -> int:
    if len(args) < 4 or args[0] != "--limit" or args[2] != "--":
        sys.exit("usage: peak_rss.py --limit MB -- ARGV...")
    limit, request = float(args[1]), args[3:]
    t0 = time.perf_counter()
    rc = cli.main(request)
    wall = time.perf_counter() - t0
    own, children = (resource.getrusage(who).ru_maxrss / 1024
                     for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    peak = max(own, children)
    print(f"wall {wall:.2f} s, peak RSS {peak:.0f} MB (self {own:.0f}, children {children:.0f})")
    if peak >= limit:
        sys.exit(f"peak RSS reached the {args[1]} MB limit")
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
