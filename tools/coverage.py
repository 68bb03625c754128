"""Record which open gaps the critical scan and the Hessian answer, as COVERAGE_<pr>.json.

Usage, from anywhere:

    python3 tools/coverage.py --pr N [--out PATH]

For every (fraction, beta) cell of the grid it runs `critical_scan` and then
`hessian` at s* (with the scan's `ch`, edge_distance 0) on every open gap,
and counts the gaps answered and the gaps refused, by reason:

* `spectrum`: a ValueError that says the point lies in the spectrum (the
  float margin |P| - |c1| - |c2| at s* is not positive);
* `float_range`: an ArithmeticError (a number outside the float64 range);
* `other`: any other ValueError, with its first message kept.

The grid is the golden convergents 2/3..144/233 at beta 0.1, 0.5, 1, 1.5,
2 and 3 (`GOLDEN`, `BETAS`; `coverage` takes any other).  The output,
COVERAGE_<N>.json by default, holds the machine (python, numpy, cpu,
nproc), the grid, one record per cell with the refused gaps listed as
[j, reason], the totals per beta and the run time.
It measures the checkout it sits in; numpy and harperlab only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ["2/3", "3/5", "5/8", "8/13", "13/21", "21/34", "34/55", "55/89", "89/144", "144/233"]
BETAS = [0.1, 0.5, 1.0, 1.5, 2.0, 3.0]
REASONS = ("spectrum", "float_range", "other")


def machine():
    """The host and versions a coverage run is tied to."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__, "cpu": cpu,
            "nproc": os.cpu_count()}


def reason(exc: Exception) -> str:
    """The refusal reason of an exception raised by the scan or the Hessian."""
    if isinstance(exc, ArithmeticError):
        return "float_range"
    return "spectrum" if "lies in the spectrum" in str(exc) else "other"


def cell(hl, freq, beta: float):
    """The coverage record of one (fraction, beta)."""
    ch = hl.chambers(freq, beta, verify=False)
    open_gaps = [g for g in hl.gaps(freq, beta) if g.is_open]
    refused, message = [], None
    for g in open_gaps:
        try:
            cp = hl.critical_scan(freq, beta, g, ch=ch)
            hl.hessian(freq, beta, cp.s_star, ch=ch, edge_distance=0.0)
        except (ValueError, ArithmeticError) as exc:
            refused.append([g.j, reason(exc)])
            if refused[-1][1] == "other" and message is None:
                message = str(exc)
    counts = {r: sum(why == r for _, why in refused) for r in REASONS}
    return {"p": freq.p, "q": freq.q, "beta": beta, "open": len(open_gaps),
            "answered": len(open_gaps) - len(refused), "refused": counts,
            "refused_gaps": refused, "other_message": message}


def coverage(fractions, betas):
    """The coverage document of the grid, without its machine and pr."""
    sys.path.insert(0, str(ROOT / "src"))
    import harperlab as hl

    t0 = time.perf_counter()
    cells = [cell(hl, hl.RationalFrequency(*map(int, f.split("/"))), beta)
             for beta in betas for f in fractions]
    totals = {}
    for c in cells:
        row = totals.setdefault(str(c["beta"]),
                                {"open": 0, "answered": 0} | dict.fromkeys(REASONS, 0))
        row["open"] += c["open"]
        row["answered"] += c["answered"]
        for r in REASONS:
            row[r] += c["refused"][r]
    return {"fractions": fractions, "betas": betas, "cells": cells, "totals": totals,
            "seconds": round(time.perf_counter() - t0, 3)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    doc = {"pr": args.pr, "machine": machine()} | coverage(GOLDEN, BETAS)
    out = args.out or f"COVERAGE_{args.pr}.json"
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for beta, row in doc["totals"].items():
        print(f"beta {beta}: {row['answered']} of {row['open']} answered; refused "
              + ", ".join(f"{r} {row[r]}" for r in REASONS))
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
