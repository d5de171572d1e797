#!/usr/bin/env python3
"""Low-temperature experiment at the full published scale (β = 1.0, 16×16).

Writes the report plus the fitted tail profile (path-magnetization survival
and per-distance disagreement envelope) as CSV.  Runs in about half a minute.
"""

import pathlib
import sys

from spinconc.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    argv = ["lowtemp",
            "--config", str(ROOT / "configs" / "lowtemp_16x16.json"),
            "--out", str(ROOT / "artifacts")]
    sys.exit(run(argv + sys.argv[1:]))
