"""Batch computation and rendering of the Hofstadter butterfly.

The denominator is the unit from solve to file: the corner edges of all its
missing numerators come from one batched solve, of which each row holds a
read-only line, and its rows' gap tables from one `gap_tables` call.  Each
row's file text is made once, by `gap_csv`, for the journal and the dataset
file alike.  The mirror rows p/q and (q - p)/q share one solve, and their
file text, band-line parse and SVG coordinates are each made once.  Journal
and file hold one band line per fraction, read back by one parser.  Rows are
merged in (q, p) order regardless of completion order, so the dataset is
byte-identical across worker counts and across checkpoint interruptions.
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
from .spectrum import (GAP_CSV_HEADER, BandSet, _config_hash, _fmt, corner_edges, gap_csv,
                       gap_records, gap_tables)

FORMAT_VERSION = "2"


@dataclass(frozen=True)
class FractionRow(BandSet):
    """One fraction's `BandSet`, its edges a read-only view into its denominator's edge
    block (empty for an error row), with their `gap_table`, the `gap_csv` text memo of the
    rows built with it and the error; rows compare as band sets and by error."""

    table: np.ndarray = field(compare=False, repr=False)
    memo: dict = field(compare=False, repr=False)
    error: str | None = None

    def __eq__(self, other):
        return super().__eq__(other) and self.error == other.error

    @property
    def gaps(self):
        """The table's gaps as `GapRecord`s, built on each access."""
        return tuple(gap_records(self, self.table))

    @cached_property
    def text(self):
        """The row's lines of the dataset file, made on first read and kept: its error
        line, or its band line and its `gap_csv` gap lines."""
        p, q = self.freq.p, self.freq.q
        if self.error:
            return f"# error,{p},{q},{self.error}\n"
        edges, gap_lines = gap_csv(self, self.table, self.memo)
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
    """Worker body: a payload (p, q, edges, error) per p of (q, ps, beta), edges the array
    of its corner edges; an exception is recorded, not raised, as an error payload for every p."""
    q, ps, beta = args
    try:
        return [(p, q, e, None) for p, e in zip(ps, corner_edges(q, ps, beta))]
    except Exception as exc:  # a failed denominator must not abort the batch
        error = " ".join(f"{type(exc).__name__}: {exc}".split())  # its text on one line
        return [(p, q, (), error) for p in ps]


def _read_payloads(lines, order):
    """The payloads (p, q, edges, error) of band and error lines, keyed by (p, q); a band
    text that repeats, as a mirror pair's does, is converted to floats and checked once.

    The first line that is neither a band nor an error line, that is for no fraction
    of the order, that repeats a p/q, or whose band text is not 2q finite,
    non-decreasing numbers raises ValueError naming it."""
    done, parsed = {}, {}
    for ln in lines:
        m = re.fullmatch(r"# (bands|error),(\d+),(\d+),(.+)", ln.rstrip("\n"))
        if not m:
            raise ValueError(f"{ln[:40].rstrip()!r} is not a band or error line")
        kind, p, q, rest = m[1].rstrip("s"), int(m[2]), int(m[3]), m[4]
        if q > order or p > q or np.gcd(p, q) != 1:
            raise ValueError(f"{kind} line for {p}/{q} is not for a fraction of order {order}")
        if kind == "band" and rest not in parsed:
            try:
                e = parsed[rest] = np.array(rest.split(","), dtype=float)
            except ValueError as exc:
                raise ValueError(f"band line for {p}/{q}: {exc}") from None
            if not (np.isfinite(e).all() and (e[1:] >= e[:-1]).all()):
                raise ValueError(f"band line for {p}/{q} has edges that are not finite and "
                                 f"non-decreasing")
        edges = parsed[rest] if kind == "band" else ()
        if kind == "band" and len(edges) != 2 * q:
            raise ValueError(f"band line for {p}/{q} has {len(edges)} edges, not {2 * q}")
        if (p, q) in done:
            raise ValueError(f"dataset has two band or error lines for {p}/{q}")
        done[p, q] = (p, q, edges, None if kind == "band" else rest)
    return done


def _build_rows(freqs, payloads, beta, min_width):
    """The rows of the fractions from their payloads keyed by (p, q): per denominator,
    one `gap_tables` call over the read-only edge block of its band rows, each row holding
    its line (an error row an empty slice) as `edges`, so no band tuple is built.  The
    rows share one `gap_csv` text memo, which lives as long as they do."""
    rows, memo = [], {}
    for q, group in itertools.groupby(freqs, key=lambda f: f.q):
        group = [(f, payloads[(f.p, q)][2:]) for f in group]
        ps = [f.p for f, (_, error) in group if error is None]
        block = np.array([e for _, (e, error) in group if error is None]).reshape(-1, 2 * q)
        block.setflags(write=False)
        made = dict(zip(ps, zip(block, gap_tables(q, ps, beta, block, min_width))))
        for f, (_, error) in group:
            e, table = made[f.p] if error is None else (block[:0, 0], np.zeros((0, 4), np.int64))
            rows.append(FractionRow(f, beta, e, table, memo, error))
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
    journalled = _resume_journal(checkpoint_path, digest, order) if checkpoint_path else {}
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


def _resume_journal(path, digest, order):
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
        done = _read_payloads([ln.decode() for ln in whole], order)
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
    error line (a truncated file), and a line that `_read_payloads` refuses
    (one for no fraction of the order, a second for one fraction, or band text
    that is not 2q finite, non-decreasing numbers) raise ValueError.
    """
    head = text[:text.find("\n")] if "\n" in text else text
    meta = dict(kv.split("=", 1) for kv in head[2:].split(",") if "=" in kv)
    if not ({"Q", "beta", "min_width"} <= meta.keys() and head.startswith("# version=")):
        raise ValueError("not a butterfly dataset: no '# version=,Q=,beta=,min_width=' header")
    if meta["version"] != FORMAT_VERSION:
        raise ValueError(f"dataset format version {meta['version']} is not {FORMAT_VERSION} "
                         f"and has no band lines; recompute it with `harperlab butterfly`")
    order, beta, min_width = int(meta["Q"]), float(meta["beta"]), float(meta["min_width"])
    payloads = _read_payloads((m[1] for m in re.finditer(r"\n(# .*)", text)), order)
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
_PALETTE_HEX = np.array(["#%02x%02x%02x" % tuple(rgb) for rgb in _PALETTE_RGB.tolist()])


def hall_color(n: int) -> str:
    """Signed diverging palette: blue for negative, red for positive Hall numbers."""
    return str(_PALETTE_HEX[max(-6, min(6, n)) + 6])


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
    edges = np.concatenate([row.edges for row in dataset.rows])
    lo, hi = (float(edges.min()), float(edges.max())) if len(edges) else (-4.0, 4.0)
    pad = 0.02 * (hi - lo)
    return lo - pad, hi + pad


def _render_svg(dataset, size, gap_fill):
    """The SVG document piece by piece: the head, each row's gap rectangles, each row's
    band lines (every rectangle is drawn before the first band line) and the closing tag.
    A mirror pair formats its rectangles' and its lines' x text once, one %-format each,
    with a NUL (no SVG holds one) where each row puts its y and %s where it puts a fill."""
    width, height = size
    elo, ehi = _extent(dataset)
    stroke = max(1.0, height / (2.5 * dataset.order ** 2))
    yield (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">\n'
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>\n'
           f'<!-- config={dataset.provenance.get("config", "")} Q={dataset.order} '
           f'beta={_fmt(dataset.beta)} -->\n')
    rect = f'<rect x="%.2f" y="\0" width="%.2f" height="{2 * stroke:.2f}" fill="%%s"/>\n'
    line = (f'<line x1="%.2f" y1="\0" x2="%.2f" y2="\0" stroke="#000000" '
            f'stroke-width="{stroke:.2f}"/>\n')
    memo = {}

    def pair_text(key, row, make):  # made for p/q, taken out again by its mirror (q - p)/q
        return memo.pop(key, None) or memo.setdefault(
            key, make((row.edges - elo) / (ehi - elo) * width))

    for row in dataset.rows if gap_fill else ():
        j, _, n, _ = row.table[row.table[:, 3] == 1].T
        text = pair_text((row.edges.tobytes(), j.tobytes()), row, lambda x: rect * len(j) % tuple(
            np.stack([x[2 * j - 1], x[2 * j] - x[2 * j - 1]], axis=1).ravel().tolist()))
        yield text.replace("\0", f"{height - row.freq.alpha * height - stroke:.2f}") % tuple(
            _PALETTE_HEX.take(n + 6, mode="clip").tolist())
    for row in dataset.rows:
        text = pair_text(row.edges.tobytes(), row,
                         lambda x: line * (len(x) // 2) % tuple(x.tolist()))
        yield text.replace("\0", f"{height - row.freq.alpha * height:.2f}")
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
        cols = np.clip(((row.edges - elo) / (ehi - elo) * (width - 1)).astype(int),
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

