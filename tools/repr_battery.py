"""Hash the exact values of harperlab's numerical routes on a fixed battery.

Usage, from anywhere:

    OPENBLAS_NUM_THREADS=1 python3 tools/repr_battery.py

It measures the checkout it sits in.  The battery is the golden convergents
up to 55/89, 73/144 and 1/32, each at beta 0.5, 1 and 2, with energies drawn
from one seeded generator: points inside random bands (uniform and crowded
to the band ends), the widest gap's midpoint, a point above the hull and
complex points near the bands.  Each family evaluates its routes there and
hashes the `repr` of every value, in order; a refusal (ValueError or
ArithmeticError) enters as its message text.  For each family it prints

    # <family> = <first 16 hex digits of the sha256 of the reprs>
    # <family>_count = N

(the `# name = value` format `tools/bench_record.py` reads), for the
families `ids`, `thouless`, `trace`, `transfer`, `log_potential`, `sheet`
and `recursion`.  Two checkouts print the same hash for a family only if
every value is bit for bit equal.  Dense linear algebra makes the trace and
sheet values depend on the BLAS build and its thread count, so compare runs
on one machine with one BLAS thread.

numpy and harperlab only.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harperlab import (RationalFrequency, chambers, coefficient_sheet, convergents,  # noqa: E402
                       corner_bands, ids, log_potential, lyapunov_thouless, lyapunov_trace,
                       lyapunov_transfer, named_continued_fraction, recursion_sheets)

SEED = 20051
BETAS = (0.5, 1.0, 2.0)
WINDOW = 4  # of the coefficient sheets
FAMILIES = ("ids", "thouless", "trace", "transfer", "log_potential", "sheet", "recursion")


def fractions():
    golden = [f for f in convergents(named_continued_fraction("golden", 10)) if f.q > 1]
    return golden + [RationalFrequency(73, 144), RationalFrequency(1, 32)]


def points(bands, rng):
    """(in-band energies, widest-gap midpoint, point above the hull, complex points)."""
    edges = bands.edges.reshape(-1, 2)
    k = rng.integers(0, bands.q, 12)
    u = np.concatenate([rng.random(6), rng.random(6) ** 4])
    inside = edges[k, 0] + (edges[k, 1] - edges[k, 0]) * np.where(k % 2, u, 1.0 - u)
    gaps = bands.edges[1:-1].reshape(-1, 2)
    g = np.argmax(gaps[:, 1] - gaps[:, 0]) if len(gaps) else None
    mid = edges[0, 0] - 1.0 if g is None else 0.5 * (gaps[g, 0] + gaps[g, 1])
    off = [complex(x, y) for x, y in zip(inside[:2], (0.3, 0.05))]
    return inside, float(mid), float(edges[-1, 1] + 0.5), off


def attempt(f, *args):
    try:
        return f(*args)
    except (ValueError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


def value(result):
    """The repr of a route's result: its float, its sheet entries, or a refusal's text."""
    if isinstance(result, str):
        return result
    if isinstance(result, tuple):
        return ";".join(value(r) for r in result)
    if hasattr(result, "values"):
        return repr(result.values.tolist())
    return repr(getattr(result, "value", result))


def battery():
    """{family: list of reprs} over the whole battery."""
    out = {name: [] for name in FAMILIES}
    rng = np.random.default_rng(SEED)
    for freq in fractions():
        for beta in BETAS:
            bands = corner_bands(freq, beta)
            ch = chambers(freq, beta, verify=False)
            inside, mid, above, off = points(bands, rng)
            out["ids"] += [repr(x) for x in ids(bands, inside).tolist()]
            out["ids"].append(repr(ids(bands, float(inside[0]))))
            out["thouless"] += [value(attempt(lyapunov_thouless, bands, z))
                                for z in (mid, inside[0], *off)]
            out["trace"] += [value(attempt(lyapunov_trace, freq, beta, z))
                             for z in (mid, above, off[0])]
            out["transfer"] += [value(attempt(lyapunov_transfer, freq, beta, z))
                                for z in (mid, inside[1], off[0])]
            out["log_potential"] += [value(attempt(log_potential, ch, z)) for z in (mid, above)]
            out["sheet"].append(value(attempt(coefficient_sheet, freq, beta, mid, WINDOW)))
            out["recursion"].append(value(attempt(recursion_sheets, freq, beta, mid, WINDOW)))
    return out


def main() -> int:
    for name, reprs in battery().items():
        digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()[:16]
        print(f"# {name} = {digest}")
        print(f"# {name}_count = {len(reprs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
