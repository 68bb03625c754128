"""Batch computation and rendering of the Hofstadter butterfly.

One work unit is one reduced fraction; results are merged in (q, p) order
regardless of completion order, so the dataset is byte-identical across
worker counts and across checkpoint interruptions.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .rationals import RationalFrequency
from .numbertheory import farey
from .spectrum import (GAP_CSV_HEADER, BandSet, _config_hash, _fmt, corner_bands, gap_label,
                       gaps, track_gap)

FORMAT_VERSION = "2"


@dataclass(frozen=True)
class FractionRow:
    freq: RationalFrequency
    bands: tuple
    gaps: tuple
    error: str | None = None


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


def _row_payload(args):
    """Worker body: (p, q, bands, error), exceptions recorded not raised."""
    p, q, beta = args
    try:
        return (p, q, corner_bands(RationalFrequency(p, q), beta).bands, None)
    except Exception as exc:  # per-fraction failures must not abort the batch
        return (p, q, (), f"{type(exc).__name__}: {exc}")


def _build_row(payload, beta, min_width) -> FractionRow:
    """The one way to build a row: its gaps are derived from its bands."""
    p, q, bands, error = payload
    freq = RationalFrequency(p, q)
    bands = tuple(tuple(b) for b in bands)
    return FractionRow(freq, bands, tuple(gaps(freq, beta, min_width,
                                               band_set=BandSet(freq, beta, bands))), error)


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ckpt-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def compute_butterfly(order: int, beta: float, workers: int = 1,
                      min_width: float = 1e-9, checkpoint_path: str | None = None,
                      checkpoint_every: int = 32,
                      max_completions: int | None = None) -> ButterflyDataset:
    """Band and gap rows for every reduced fraction up to the order.

    With a checkpoint path, completed rows are appended to a journal every
    `checkpoint_every` completions and reused on restart provided the
    journal's configuration digest matches.  `max_completions` stops the
    batch early after that many fresh rows (an interruption hook for resume
    tests and budgeted runs).  The dataset is complete when every fraction
    has a row and no row is an error.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if beta <= 0:
        raise ValueError("coupling must be positive")
    freqs = butterfly_fractions(order)
    beta = float(beta)
    digest = _config_hash({"version": FORMAT_VERSION, "Q": order,
                           "beta": _fmt(beta), "min_width": _fmt(min_width)})
    done = _resume_journal(checkpoint_path, digest) if checkpoint_path else {}
    todo = [f for f in freqs if (f.p, f.q) not in done]
    if max_completions is not None:
        todo = todo[:max_completions]
    jobs = [(f.p, f.q, beta) for f in todo]
    pending = []

    def note(payload):
        done[(payload[0], payload[1])] = payload
        if checkpoint_path:
            pending.append(payload)
            if len(pending) == checkpoint_every:
                _flush_checkpoint(checkpoint_path, pending)
                pending.clear()

    if workers == 1:
        for job in jobs:
            note(_row_payload(job))
    else:
        # imported here: the pool loads multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for payload in pool.map(_row_payload, jobs, chunksize=16):
                note(payload)
    if pending:
        _flush_checkpoint(checkpoint_path, pending)
    rows = tuple(_build_row(done[(f.p, f.q)], beta, min_width)
                 for f in freqs if (f.p, f.q) in done)
    complete = len(rows) == len(freqs) and not any(row.error for row in rows)
    return ButterflyDataset(beta, order, rows, min_width,
                            provenance={"config": digest, "complete": complete})


def _journal_header(digest):
    return json.dumps({"config": digest}) + "\n"


def _resume_journal(path, digest):
    """Payloads journalled under this configuration, keyed by (p, q).

    The journal is a header line with the configuration digest and then one
    JSON payload per line.  A missing file or another header starts it
    afresh; a torn last line (an interrupted append) is dropped, and the
    journal is rewritten without it so later appends start on a new line.
    """
    lines = []
    if os.path.exists(path):
        with open(path) as fh:
            lines = fh.readlines()
    clean = bool(lines) and lines[0] == _journal_header(digest)
    done = {}
    for line in lines[1:] if clean else ():
        if not line.endswith("\n"):
            clean = False
            break
        payload = json.loads(line)
        done[(payload[0], payload[1])] = payload
    if not clean:
        _flush_checkpoint(path, [done[k] for k in sorted(done)], header=_journal_header(digest))
    return done


def _flush_checkpoint(path, payloads, header=None):
    """The journal's one write site: append one line per payload.

    With a header the journal starts afresh instead, replaced atomically by
    the header followed by the payloads.
    """
    text = "".join(json.dumps(p) + "\n" for p in payloads)
    if header is None:
        with open(path, "a") as fh:
            fh.write(text)
    else:
        _atomic_write(path, header + text)


def serialize_dataset(dataset: ButterflyDataset) -> str:
    """Header and gap CSV columns, then per row an error line, or a band line and its gaps."""
    head = (f"# version={FORMAT_VERSION},Q={dataset.order},beta={_fmt(dataset.beta)},"
            f"min_width={_fmt(dataset.min_width)},config={dataset.provenance.get('config', '')},"
            f"convention=farey-(0-1]-plus-zero,label_tiebreak=+q/2")
    lines = [head, GAP_CSV_HEADER]
    for row in dataset.rows:
        p, q = row.freq.p, row.freq.q
        if row.error:
            lines.append(f"# error,{p},{q},{row.error}")
            continue
        lines.append(f"# bands,{p},{q}," + ",".join(_fmt(x) for band in row.bands for x in band))
        lines.extend(g.csv_row() for g in row.gaps)
    return "\n".join(lines) + "\n"


def parse_dataset(text: str) -> ButterflyDataset:
    """The dataset of a file, read from its header, band and error lines (gaps are derived).

    A missing header, another format version, or a fraction with neither
    a band nor an error line (a truncated file) raises ValueError.
    """
    lines = text.splitlines()
    meta = dict(kv.split("=", 1) for kv in lines[0][2:].split(",") if "=" in kv) if lines else {}
    if not ({"Q", "beta", "min_width"} <= meta.keys() and lines[0].startswith("# version=")):
        raise ValueError("not a butterfly dataset: no '# version=,Q=,beta=,min_width=' header")
    if meta["version"] != FORMAT_VERSION:
        raise ValueError(f"dataset format version {meta['version']} is not {FORMAT_VERSION} "
                         f"and has no band lines; recompute it with `harperlab butterfly`")
    order, beta, min_width = int(meta["Q"]), float(meta["beta"]), float(meta["min_width"])
    payloads = {}
    for ln in lines:
        if ln.startswith("# bands,"):
            _, p, q, *edges = ln.split(",")
            if len(edges) != 2 * int(q):
                raise ValueError(f"band line for {p}/{q} has {len(edges)} edges, not {2 * int(q)}")
            edges = [float(x) for x in edges]
            payloads[(int(p), int(q))] = (int(p), int(q), zip(edges[0::2], edges[1::2]), None)
        elif ln.startswith("# error,"):
            _, p, q, error = ln.split(",", 3)
            payloads[(int(p), int(q))] = (int(p), int(q), (), error)
    rows = []
    for freq in butterfly_fractions(order):
        if (freq.p, freq.q) not in payloads:
            raise ValueError(f"dataset has no band or error line for {freq}; truncated file?")
        rows.append(_build_row(payloads[(freq.p, freq.q)], beta, min_width))
    return ButterflyDataset(beta, order, tuple(rows), min_width,
                            provenance={"config": meta.get("config", ""),
                                        "complete": not any(row.error for row in rows)})


def _palette_entry(n: int):
    fade = round(255 * (1 - abs(n) / 6))
    rgb = (255, fade, fade) if n >= 0 else (fade, fade, 255)
    return rgb, "#%02x%02x%02x" % rgb


# Hall numbers are clipped to |n| <= 6, so the palette is 13 (RGB, hex) entries
_PALETTE = {n: _palette_entry(n) for n in range(-6, 7)}


def hall_color(n: int) -> str:
    """Signed diverging palette: blue for negative, red for positive Hall numbers."""
    return _PALETTE[max(-6, min(6, n))][1]


def render(dataset: ButterflyDataset, path: str, size=(900, 600),
           fmt: str = "svg", gap_fill: bool = True):
    """Draw the dataset: one horizontal segment per band at height p/q.

    Gap rectangles are filled with the Hall palette when requested.  SVG is
    the primary target; PPM is the raster fallback.  Output is a pure
    function of the dataset and style.
    """
    if not dataset.rows:
        raise ValueError("empty dataset")
    if fmt == "svg":
        text = _render_svg(dataset, size, gap_fill)
        with open(path, "w") as fh:
            fh.write(text)
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
    width, height = size
    elo, ehi = _extent(dataset)

    def xpix(e):
        return (e - elo) / (ehi - elo) * width

    def ypix(alpha):
        return height - alpha * height

    stroke = max(1.0, height / (2.5 * dataset.order ** 2))
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
           f'viewBox="0 0 {width} {height}">',
           f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
           f'<!-- config={dataset.provenance.get("config", "")} Q={dataset.order} '
           f'beta={_fmt(dataset.beta)} -->']
    if gap_fill:
        for row in dataset.rows:
            y = ypix(row.freq.alpha)
            for g in row.gaps:
                if not g.is_open:
                    continue
                out.append(f'<rect x="{xpix(g.lo):.2f}" y="{y - stroke:.2f}" '
                           f'width="{xpix(g.hi) - xpix(g.lo):.2f}" height="{2 * stroke:.2f}" '
                           f'fill="{hall_color(g.hall)}"/>')
    for row in dataset.rows:
        y = ypix(row.freq.alpha)
        for lo, hi in row.bands:
            out.append(f'<line x1="{xpix(lo):.2f}" y1="{y:.2f}" x2="{xpix(hi):.2f}" '
                       f'y2="{y:.2f}" stroke="#000000" stroke-width="{stroke:.2f}"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_ppm(dataset, size, gap_fill):
    width, height = size
    elo, ehi = _extent(dataset)
    pixels = np.full((height, width, 3), 255, dtype=np.uint8)
    rows = sorted(dataset.rows, key=lambda r: r.freq.alpha)
    for row in rows:
        y = int(round((1.0 - row.freq.alpha) * (height - 1)))
        if not 0 <= y < height:
            continue
        fills = [g for g in row.gaps if g.is_open] if gap_fill else []
        colors = [_PALETTE[max(-6, min(6, g.hall))][0] for g in fills] + [0] * len(row.bands)
        ends = np.array([(g.lo, g.hi) for g in fills] + list(row.bands), dtype=float)
        # pixel columns of each segment's ends, truncated toward zero, then clamped
        cols = np.clip(((ends - elo) / (ehi - elo) * (width - 1)).astype(int), 0, width - 1)
        for (a, b), rgb in zip(cols.tolist(), colors):  # in order: bands paint over gaps
            pixels[y, a:b + 1] = rgb
    return b"P6\n%d %d\n255\n" % (width, height) + pixels.tobytes()


@dataclass(frozen=True)
class PersistenceReport:
    beta_grid: tuple
    tracks: tuple
    closure_flags: tuple  # (freq, label, beta) triples where an open label closed

    @property
    def all_open(self) -> bool:
        return not self.closure_flags


def persistence_sweep(freqs, beta_grid, max_hall: int = 3,
                      min_width: float = 1e-9) -> PersistenceReport:
    """Track every gap whose `gap_label` has |n| <= max_hall across the coupling grid.

    Each gap is tracked once, under its own label, so the even-q central gap
    (the permanently touching one) appears once, as n = +q/2, and is
    excluded from closure flagging; everything else must stay open at every
    coupling.
    """
    freqs = list(freqs)
    grid = tuple(float(b) for b in beta_grid)
    tracks = []
    flags = []
    for freq in freqs:
        for label, j in sorted((gap_label(j, freq), j) for j in range(1, freq.q)):
            if abs(label[1]) > max_hall:
                continue
            central = freq.q % 2 == 0 and j == freq.q // 2
            track = track_gap(label, freq, grid, min_width=min_width)
            tracks.append(track)
            if central:
                continue
            for b, ok in zip(grid, track.open_flags):
                if not ok:
                    flags.append((str(freq), label, b))
    return PersistenceReport(grid, tuple(tracks), tuple(flags))
