#!/usr/bin/env python3
"""Print graded rank tables for a range of ranks and degrees.

For each n the table shows, per degree c, the rank of the graded piece of
the group's Lie algebra computed two independent ways (per-level Witt sums
vs. Witt rank of the whole minus the computed ideal rank), plus the rank of
the degree-(c+1) piece realized inside the ambient IA filtration.

Usage: rank_tables.py [max_n] [max_c]
"""

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
    max_n = int(argv[1]) if len(argv) > 1 else 4
    max_c = int(argv[2]) if len(argv) > 2 else 3
    for n in range(3, max_n + 1):
        print(f"n = {n}")
        print(f"  {'c':>3} {'factor sum':>11} {'whole - ideal':>14} {'johnson':>8}")
        for row in gr_rank_table(n, max_c):
            embedded = l1_rank(n, row.c, row.c + 2) if row.c <= 3 else "-"
            mark = "" if row.ok else "  <-- MISMATCH"
            print(f"  {row.c:>3} {row.via_factors:>11} {row.via_quotient:>14} {embedded!s:>8}{mark}")
        print()

if __name__ == "__main__":
    main(sys.argv)
