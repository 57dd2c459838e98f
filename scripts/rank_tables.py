#!/usr/bin/env python3
"""Print graded rank tables for a range of ranks and degrees.

For each n the table shows, per degree c, the rank of the graded piece of
the group's Lie algebra computed two independent ways (per-level Witt sums
vs. Witt rank of the whole minus the computed ideal rank), plus the rank of
the degree-(c+1) piece realized inside the ambient IA filtration.

Usage: rank_tables.py [max_n] [max_c]   (max_n >= 3, max_c >= 1)
"""

import argparse
import sys
from pathlib import Path

try:
    import pik  # noqa: F401
except ModuleNotFoundError:
    # Not installed: use the package in this checkout.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pik.ajohnson import l1_rank
from pik.decomp import gr_rank_table

def main(argv):
    parser = argparse.ArgumentParser(description="Graded rank tables for n = 3..max_n.")
    parser.add_argument("max_n", type=int, nargs="?", default=4)
    parser.add_argument("max_c", type=int, nargs="?", default=3)
    args = parser.parse_args(argv[1:])
    if args.max_n < 3:
        parser.error(f"max_n must be at least 3, got {args.max_n}")
    if args.max_c < 1:
        parser.error(f"max_c must be at least 1, got {args.max_c}")
    for n in range(3, args.max_n + 1):
        print(f"n = {n}")
        print(f"  {'c':>3} {'factor sum':>11} {'whole - ideal':>14} {'johnson':>8}")
        for row in gr_rank_table(n, args.max_c):
            # l1_rank brackets each weight's echelon basis: (4,5) takes 0.35 s
            # and 45 MB peak RSS (2-vCPU box).
            embedded = l1_rank(n, row.c, row.c + 2)
            mark = "" if row.ok else "  <-- MISMATCH"
            print(f"  {row.c:>3} {row.via_factors:>11} {row.via_quotient:>14} {embedded!s:>8}{mark}")
        print()

if __name__ == "__main__":
    main(sys.argv)
