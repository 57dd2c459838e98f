#!/usr/bin/env python3
"""Run the full verification suite and write the JSON report.

Equivalent to `pik verify-all`; kept as a script so the suite can be run
straight from a checkout.
"""

import sys
from pathlib import Path

try:
    import pik  # noqa: F401
except ModuleNotFoundError:
    # Not installed: use the package in this checkout.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pik.cli import main

if __name__ == "__main__":
    sys.exit(main(["verify-all", *sys.argv[1:]]))
