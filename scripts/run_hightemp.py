#!/usr/bin/env python3
"""High-temperature tail experiment at the full published scale (β = 0.1, 8×8).

Takes a few seconds: N = 10^5 Glauber replicas plus the exact
enumeration used for the condition check and the decay fit.  Pass
`--samples 5000` for a quick look.
"""

import pathlib
import sys

from spinconc.cli import run

ROOT = pathlib.Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    argv = ["hightemp",
            "--config", str(ROOT / "configs" / "hightemp_8x8.json"),
            "--out", str(ROOT / "artifacts")]
    sys.exit(run(argv + sys.argv[1:]))
