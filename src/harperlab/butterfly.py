"""Batch computation and rendering of the Hofstadter butterfly.

The denominator is the unit from solve to file: the corner edges of all its
missing numerators come from one batched solve and its rows' gap tables from
one `gap_tables` call.  Each row's file text is made once, by `gap_csv`, for
the journal and the dataset file alike; the mirror rows p/q and (q - p)/q
share one solve, and one float text through the memo of the rows built with
them.  Both hold one band line per fraction, read back by one parser that
checks all lines at once.  Rows are merged in (q, p) order regardless of
completion order, so the dataset is byte-identical across worker counts and
across checkpoint interruptions.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from .rationals import RationalFrequency
from .numbertheory import farey
from .spectrum import (GAP_CSV_HEADER, _config_hash, _fmt, corner_edges, edge_array, gap_csv,
                       gap_records, gap_tables)

FORMAT_VERSION = "2"


@dataclass(frozen=True)
class FractionRow:
    """One fraction's bands and their `gap_table`, and the `gap_csv` text memo of the rows
    built with it; rows leave both out of comparisons."""

    freq: RationalFrequency
    beta: float
    bands: tuple
    table: np.ndarray = field(compare=False, repr=False)
    memo: dict = field(compare=False, repr=False)
    error: str | None = None

    @property
    def gaps(self):
        """The table's gaps as `GapRecord`s, built on each access."""
        return tuple(gap_records(self.freq, self.beta, self.bands, self.table))

    @cached_property
    def text(self):
        """The row's lines of the dataset file, made on first read and kept: its error
        line, or its band line and its `gap_csv` gap lines."""
        p, q = self.freq.p, self.freq.q
        if self.error:
            return f"# error,{p},{q},{self.error}\n"
        edges, gap_lines = gap_csv(self.freq, _fmt(self.beta), self.bands, self.table, self.memo)
        return f"# bands,{p},{q},{edges}\n{gap_lines}"


@dataclass(frozen=True)
class ButterflyDataset:
    beta: float
    order: int
    rows: tuple
    min_width: float
    provenance: dict = field(default_factory=dict, compare=False)

    def gap_rows(self):
        for row in self.rows:
            yield from row.gaps


def butterfly_fractions(order: int):
    """0/1 plus the Farey fractions of the order, sorted by (q, p)."""
    fracs = [Fraction(0, 1)] + list(farey(order).fractions)
    fracs.sort(key=lambda f: (f.denominator, f.numerator))
    return [RationalFrequency(f.numerator, f.denominator) for f in fracs]


def _denominator_payloads(args):
    """Worker body: a payload (p, q, edges, error) per p of (q, ps, beta), edges the list of
    its corner edges; an exception is recorded, not raised, as an error payload for every p."""
    q, ps, beta = args
    try:
        return [(p, q, e, None) for p, e in zip(ps, corner_edges(q, ps, beta).tolist())]
    except Exception as exc:  # a failed denominator must not abort the batch
        error = " ".join(f"{type(exc).__name__}: {exc}".split())  # its text on one line
        return [(p, q, (), error) for p in ps]


def _read_payloads(lines):
    """The payloads (p, q, edges, error) of band and error lines, keyed by (p, q).

    Band lines must hold 2q finite, non-decreasing edges, checked over all lines
    at once; the first line that fails, that is neither a band nor an error
    line, or that repeats a p/q raises ValueError."""
    payloads = []
    for ln in lines:
        kind, *fields = ln.rstrip("\n").split(",", 3)
        if kind not in ("# bands", "# error") or len(fields) != 3:
            raise ValueError(f"{ln[:40].rstrip()!r} is not a band or error line")
        p, q, rest = int(fields[0]), int(fields[1]), fields[2]
        payloads.append((p, q, np.array(rest.split(","), dtype=float), None)
                        if kind == "# bands" else (p, q, (), rest))
    bands = [payload for payload in payloads if payload[3] is None]
    flat = np.concatenate([edges for _, _, edges, _ in bands] + [np.zeros(0)])
    line = np.repeat(np.arange(len(bands)), [len(edges) for _, _, edges, _ in bands])
    bad = ~np.isfinite(flat) | np.r_[False, (np.diff(flat) < 0) & (np.diff(line) == 0)]
    failed = [k for k, (_, q, edges, _) in enumerate(bands) if len(edges) != 2 * q]
    failed += line[bad].tolist()
    if failed:
        p, q, edges, _ = bands[min(failed)]
        raise ValueError(f"band line for {p}/{q} has " + (
            f"{len(edges)} edges, not {2 * q}" if len(edges) != 2 * q
            else "edges that are not finite and non-decreasing"))
    done = {}
    for payload in payloads:
        if done.setdefault(payload[:2], payload) is not payload:
            raise ValueError(f"dataset has two band or error lines for {payload[0]}/{payload[1]}")
    return done


def _build_rows(freqs, payloads, beta, min_width):
    """The rows of the fractions from their payloads keyed by (p, q): per denominator,
    one `gap_tables` call over the edge block of its band rows.  The rows share one
    `gap_csv` text memo, which lives as long as they do."""
    rows, memo = [], {}
    for q, group in itertools.groupby(freqs, key=lambda f: f.q):
        group = [(f, payloads[(f.p, q)][2:]) for f in group]
        ps = [f.p for f, (_, error) in group if error is None]
        block = np.array([e for _, (e, error) in group if error is None]).reshape(-1, 2 * q)
        made = dict(zip(ps, zip(block.tolist(), gap_tables(q, ps, beta, block, min_width))))
        for f, (_, error) in group:
            e, table = made[f.p] if error is None else ((), np.zeros((0, 4), dtype=np.int64))
            rows.append(FractionRow(f, beta, tuple(zip(e[0::2], e[1::2])), table, memo, error))
    return tuple(rows)


def compute_butterfly(order: int, beta: float, workers: int = 1,
                      min_width: float = 1e-9,
                      checkpoint_path: str | None = None) -> ButterflyDataset:
    """Band and gap rows for every reduced fraction up to the order.

    One work unit is a denominator with its missing numerators, largest
    first.  With a checkpoint path, the band or error lines of a solved
    denominator's rows, the first line of each row's `text`, are appended to
    a journal as its rows are built, so an interrupt loses no finished
    denominator, and reused on restart provided the journal's configuration
    digest matches.  The dataset is complete when no row is an error.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if not 0 < beta < np.inf:
        raise ValueError(f"coupling must be finite and positive, got {beta}")
    freqs = butterfly_fractions(order)
    beta = float(beta)
    digest = _config_hash({"version": FORMAT_VERSION, "Q": order,
                           "beta": _fmt(beta), "min_width": _fmt(min_width)})
    journalled = _resume_journal(checkpoint_path, digest) if checkpoint_path else {}
    done = {(row.freq.p, row.freq.q): row for row in _build_rows(
        [f for f in freqs if (f.p, f.q) in journalled], journalled, beta, min_width)}
    missing = {}
    for f in freqs:
        if (f.p, f.q) not in done:
            missing.setdefault(f.q, []).append(f.p)
    jobs = [(q, ps, beta) for q, ps in sorted(missing.items(), reverse=True)]

    def note(payloads):  # of one denominator, its numerators in order
        rows = _build_rows([RationalFrequency(p, q) for p, q, _, _ in payloads],
                           {payload[:2]: payload for payload in payloads}, beta, min_width)
        done.update(((row.freq.p, row.freq.q), row) for row in rows)
        if checkpoint_path:
            _flush_checkpoint(checkpoint_path, rows)

    if workers == 1:
        for job in jobs:
            note(_denominator_payloads(job))
    else:
        # imported here: the pool loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for payloads in pool.map(_denominator_payloads, jobs, chunksize=1):
                note(payloads)
    rows = tuple(done[(f.p, f.q)] for f in freqs)
    return ButterflyDataset(beta, order, rows, min_width,
                            provenance={"config": digest,
                                        "complete": not any(row.error for row in rows)})


def _resume_journal(path, digest):
    """Payloads journalled under this configuration, keyed by (p, q).

    The journal is a header line with the configuration digest and the line
    format, then the dataset file's band and error lines.  A missing file or
    another header (a journal of JSON payloads has one) starts it afresh, the
    header written in place.  A torn last line (an interrupted append) is cut
    off after the last newline once the whole lines parse.  A line the dataset
    parser refuses raises ValueError naming it.
    """
    header, lines = (json.dumps({"config": digest, "journal": "lines"}) + "\n").encode(), []
    if os.path.exists(path):
        with open(path, "rb") as fh:
            lines = fh.readlines()
    if lines[:1] != [header]:
        with open(path, "wb") as fh:
            fh.write(header)
        return {}
    whole = [ln for ln in lines[1:] if ln.endswith(b"\n")]
    try:
        done = _read_payloads([ln.decode() for ln in whole])
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: {exc}") from None
    if not lines[-1].endswith(b"\n"):  # a torn tail: cut off after the last newline
        os.truncate(path, len(header) + sum(map(len, whole)))
    return done


def _flush_checkpoint(path, rows):
    """The journal's one append site: the band or error line of each row, the first line
    of its `text`."""
    with open(path, "a") as fh:
        fh.write("".join([row.text[:row.text.index("\n") + 1] for row in rows]))


def serialize_dataset(dataset: ButterflyDataset) -> str:
    """Header and gap CSV columns, then each row's text: an error line, or a band line and
    its gap lines."""
    head = (f"# version={FORMAT_VERSION},Q={dataset.order},beta={_fmt(dataset.beta)},"
            f"min_width={_fmt(dataset.min_width)},config={dataset.provenance.get('config', '')},"
            f"convention=farey-(0-1]-plus-zero,label_tiebreak=+q/2\n{GAP_CSV_HEADER}\n")
    return "".join([head] + [row.text for row in dataset.rows])


def parse_dataset(text: str) -> ButterflyDataset:
    """The dataset of a file, read from its header, band and error lines (gaps are derived).

    Only the header and the lines that start with "# " are read.  A missing
    header, another format version, a fraction with neither a band nor an
    error line (a truncated file) or with two of them, and a band line whose
    edges are not finite and non-decreasing (every file `serialize_dataset`
    writes has sorted edges) raise ValueError.
    """
    head = text[:text.find("\n")] if "\n" in text else text
    meta = dict(kv.split("=", 1) for kv in head[2:].split(",") if "=" in kv)
    if not ({"Q", "beta", "min_width"} <= meta.keys() and head.startswith("# version=")):
        raise ValueError("not a butterfly dataset: no '# version=,Q=,beta=,min_width=' header")
    if meta["version"] != FORMAT_VERSION:
        raise ValueError(f"dataset format version {meta['version']} is not {FORMAT_VERSION} "
                         f"and has no band lines; recompute it with `harperlab butterfly`")
    order, beta, min_width = int(meta["Q"]), float(meta["beta"]), float(meta["min_width"])
    payloads = _read_payloads(m[1] for m in re.finditer(r"\n(# .*)", text))
    freqs = butterfly_fractions(order)
    for freq in freqs:
        if (freq.p, freq.q) not in payloads:
            raise ValueError(f"dataset has no band or error line for {freq}; truncated file?")
    rows = _build_rows(freqs, payloads, beta, min_width)
    return ButterflyDataset(beta, order, rows, min_width,
                            provenance={"config": meta.get("config", ""),
                                        "complete": not any(row.error for row in rows)})


def _palette_rgb(n: int):
    fade = round(255 * (1 - abs(n) / 6))
    return (255, fade, fade) if n >= 0 else (fade, fade, 255)


# Hall numbers are clipped to |n| <= 6, so the palette has 13 entries, Hall number n at n + 6
_PALETTE_RGB = np.array([_palette_rgb(n) for n in range(-6, 7)], dtype=np.uint8)
_PALETTE_HEX = ["#%02x%02x%02x" % tuple(rgb) for rgb in _PALETTE_RGB.tolist()]


def hall_color(n: int) -> str:
    """Signed diverging palette: blue for negative, red for positive Hall numbers."""
    return _PALETTE_HEX[max(-6, min(6, n)) + 6]


def render(dataset: ButterflyDataset, path: str, size=(900, 600),
           fmt: str = "svg", gap_fill: bool = True):
    """Draw the dataset: one horizontal segment per band at height p/q.

    Gap rectangles are filled with the Hall palette when requested.  SVG is
    the primary target; PPM is the raster fallback.  Output is a pure
    function of the dataset and style.
    """
    if not dataset.rows:
        raise ValueError("empty dataset")
    if min(size) < 1:
        raise ValueError(f"image size {size[0]}x{size[1]} has a side below 1 pixel")
    if fmt == "svg":
        with open(path, "w") as fh:
            fh.writelines(_render_svg(dataset, size, gap_fill))
    elif fmt == "ppm":
        with open(path, "wb") as fh:
            fh.write(_render_ppm(dataset, size, gap_fill))
    else:
        raise ValueError(f"unsupported format {fmt!r}; use 'svg' or 'ppm'")
    return path


def _extent(dataset):
    lo = min((b[0] for row in dataset.rows for b in row.bands), default=-4.0)
    hi = max((b[1] for row in dataset.rows for b in row.bands), default=4.0)
    pad = 0.02 * (hi - lo)
    return lo - pad, hi + pad


def _render_svg(dataset, size, gap_fill):
    """The SVG document piece by piece: the head, each row's gap rectangles, each row's
    band lines (every rectangle is drawn before the first band line) and the closing tag.
    A row's rectangles, and its lines, are one %-format."""
    width, height = size
    elo, ehi = _extent(dataset)
    stroke = max(1.0, height / (2.5 * dataset.order ** 2))
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n'
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
           f'<!-- config={dataset.provenance.get("config", "")} Q={dataset.order} '
           f'beta={_fmt(dataset.beta)} -->\n')
    rows = [(row, height - row.freq.alpha * height,
             (edge_array(row.bands) - elo) / (ehi - elo) * width) for row in dataset.rows]
    for row, y, x in rows if gap_fill else ():
        j, _, n, _ = row.table[row.table[:, 3] == 1].T
        rect = (f'<rect x="%.2f" y="{y - stroke:.2f}" width="%.2f" height="{2 * stroke:.2f}" '
                f'fill="%s"/>\n')
        yield rect * len(j) % tuple(itertools.chain.from_iterable(zip(
            x[2 * j - 1].tolist(), (x[2 * j] - x[2 * j - 1]).tolist(),
            [_PALETTE_HEX[c] for c in (np.clip(n, -6, 6) + 6).tolist()])))
    for row, y, x in rows:
        yield (f'<line x1="%.2f" y1="{y:.2f}" x2="%.2f" y2="{y:.2f}" stroke="#000000" '
               f'stroke-width="{stroke:.2f}"/>\n' * len(row.bands) % tuple(x.tolist()))
    yield "</svg>\n"


def _render_ppm(dataset, size, gap_fill):
    """Rows by alpha; per row its open gaps' colours, then its bands in black over them.

    Edge columns do not decrease along a row, so of gap j the bands leave
    only the columns strictly between band j's last and band j + 1's first.
    """
    width, height = size
    elo, ehi = _extent(dataset)
    pixels = np.full((height, width, 3), 255, dtype=np.uint8)
    for row in sorted(dataset.rows, key=lambda r: r.freq.alpha):
        y = int(round((1.0 - row.freq.alpha) * (height - 1)))
        cols = np.clip(((edge_array(row.bands) - elo) / (ehi - elo) * (width - 1)).astype(int),
                       0, width - 1)
        lo, hi = cols[0::2], cols[1::2]
        if gap_fill:
            j, _, n, _ = row.table[row.table[:, 3] == 1].T
            inside = np.maximum(lo[j] - hi[j - 1] - 1, 0)
            pixels[y, _spans(hi[j - 1] + 1, inside)] = np.repeat(
                _PALETTE_RGB[np.clip(n, -6, 6) + 6], inside, axis=0)
        pixels[y, _spans(lo, hi - lo + 1)] = 0
    return b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes()


def _spans(start, length):
    """Every index of the runs start[k], ..., start[k] + length[k] - 1, run after run."""
    return np.arange(length.sum()) + np.repeat(start + length - np.cumsum(length), length)

