import contextlib
import json
import random

import numpy as np
import pytest

import harperlab.butterfly as butterfly_module
from harperlab import spectrum
from harperlab import (ChambersError, RationalFrequency, butterfly_fractions, chambers,
                       component_count, compute_butterfly, hall_color,
                       parse_dataset, phi_cumulative, render,
                       serialize_dataset, track_gap)
from harperlab.spectrum import GAP_CSV_HEADER, GapRecord, _config_hash, corner_edges, gap_table
from conftest import (oracle_band_sweep, oracle_component_count, oracle_render_ppm,
                      oracle_render_svg, oracle_serialize_dataset, persistence_sweep)

F = RationalFrequency


def fail_one_denominator(monkeypatch, q, message="synthetic"):
    """Make the in-process denominator solve fail at q only, so every p/q fails."""
    real = butterfly_module.corner_edges

    def flaky(den, ps, beta):
        if den == q:
            raise ChambersError(message)
        return real(den, ps, beta)

    monkeypatch.setattr(butterfly_module, "corner_edges", flaky)


def rows_computed(monkeypatch, stop_after=None):
    """The fractions (p, q) the in-process denominator solves compute, in order.

    With `stop_after`, the first solve to start once that many rows are done
    raises KeyboardInterrupt instead, as an interrupted run would.
    """
    calls = []

    def counted(q, ps, beta):
        if stop_after is not None and len(calls) >= stop_after:
            raise KeyboardInterrupt
        calls.extend((p, q) for p in ps)
        return corner_edges(q, ps, beta)

    monkeypatch.setattr(butterfly_module, "corner_edges", counted)
    return calls


def interrupted_batch(monkeypatch, ck, order, beta, stop_after):
    """Run a checkpointed batch that is interrupted after `stop_after` rows;
    the rows that finished."""
    finished = rows_computed(monkeypatch, stop_after)
    with pytest.raises(KeyboardInterrupt):
        compute_butterfly(order, beta, checkpoint_path=str(ck))
    return finished


def test_fraction_enumeration_order_and_count():
    fracs = butterfly_fractions(3)
    assert [(f.p, f.q) for f in fracs] == [(0, 1), (1, 1), (1, 2), (1, 3), (2, 3)]
    for order in (1, 5, 10):
        assert len(butterfly_fractions(order)) == phi_cumulative(order) + 1


def test_dataset_order_three_gap_counts():
    ds = compute_butterfly(3, 1.0)
    by_freq = {(r.freq.p, r.freq.q): r for r in ds.rows}
    opens = {k: sum(g.is_open for g in r.gaps) for k, r in by_freq.items()}
    assert opens[(0, 1)] == 0 and opens[(1, 1)] == 0
    assert opens[(1, 2)] == 0  # central touching
    assert opens[(1, 3)] == 2 and opens[(2, 3)] == 2
    # band intervals agree with the dense sweep oracle
    for (p, q), row in by_freq.items():
        for (lo, hi), (olo, ohi) in zip(row.bands, oracle_band_sweep(p, q, 1.0)):
            assert abs(lo - olo) <= 1e-8 and abs(hi - ohi) <= 1e-8


def test_dataset_order_one_trivial():
    ds = compute_butterfly(1, 0.5)
    assert len(ds.rows) == 2  # 0/1 and 1/1
    assert all(not r.gaps for r in ds.rows)


def test_worker_counts_byte_identical():
    a = serialize_dataset(compute_butterfly(6, 1.0, workers=1))
    b = serialize_dataset(compute_butterfly(6, 1.0, workers=2))
    assert a == b


def journal_row(line):
    """(p, q, edges, error) of a journal line, one of the dataset file's band or error lines."""
    kind, p, q, rest = line.rstrip("\n").split(",", 3)
    if kind == "# error":
        return int(p), int(q), [], rest
    assert kind == "# bands"
    return int(p), int(q), [float(x) for x in rest.split(",")], None


def journal_lines(path):
    """The journal's JSON header, then (p, q, edges, error) per line."""
    head, *lines = path.read_text().splitlines()
    return [json.loads(head)] + [journal_row(ln) for ln in lines]


def missing_rows(order, journalled):
    return [(f.p, f.q) for f in butterfly_fractions(order) if (f.p, f.q) not in journalled]


def test_checkpoint_resume_byte_identical(tmp_path, monkeypatch):
    ck = tmp_path / "state.json"
    full = serialize_dataset(compute_butterfly(6, 0.7))
    finished = interrupted_batch(monkeypatch, ck, 6, 0.7, stop_after=5)
    # the denominators 6 and 5 finished, and each one's rows reached the
    # journal as they were built, before the interrupted solve of 4 began
    assert finished == [(1, 6), (5, 6), (1, 5), (2, 5), (3, 5), (4, 5)]
    journalled = [(p[0], p[1]) for p in journal_lines(ck)[1:]]
    assert journalled == finished
    calls = rows_computed(monkeypatch)
    resumed = compute_butterfly(6, 0.7, checkpoint_path=str(ck))
    assert sorted(calls, key=lambda r: r[::-1]) == missing_rows(6, journalled)
    assert resumed.provenance["complete"]
    assert serialize_dataset(resumed) == full


def test_checkpoint_resume_after_torn_line(tmp_path, monkeypatch):
    ck = tmp_path / "state.jsonl"
    full = serialize_dataset(compute_butterfly(6, 0.7))
    interrupted_batch(monkeypatch, ck, 6, 0.7, stop_after=5)
    text = ck.read_text()
    ck.write_text(text[:-20])  # an append interrupted mid-line
    assert not ck.read_text().endswith("\n")
    # the torn line is lost
    journalled = [journal_row(ln)[:2] for ln in ck.read_text().splitlines()[1:-1]]
    assert len(journalled) == 5
    calls = rows_computed(monkeypatch)
    resumed = compute_butterfly(6, 0.7, checkpoint_path=str(ck))
    assert sorted(calls, key=lambda r: r[::-1]) == missing_rows(6, journalled)
    assert resumed.provenance["complete"]
    assert serialize_dataset(resumed) == full
    assert len(journal_lines(ck)) == 1 + len(resumed.rows)


def test_resume_replaces_a_missing_or_foreign_header_in_place(tmp_path):
    """A missing journal, or one under another configuration's header, becomes the
    header alone, with no other file left in its directory."""
    ck = tmp_path / "state.jsonl"
    header = json.dumps({"config": "0123456789abcdef", "journal": "lines"}) + "\n"
    assert butterfly_module._resume_journal(str(ck), "0123456789abcdef") == {}
    assert ck.read_text() == header
    ck.write_text(json.dumps({"config": "fedcba9876543210", "journal": "lines"})
                  + "\n# bands,1,2,-2,0,0,2\n# bands,1,3")
    assert butterfly_module._resume_journal(str(ck), "0123456789abcdef") == {}
    assert ck.read_text() == header
    assert [f.name for f in tmp_path.iterdir()] == [ck.name]


def test_resume_cuts_a_torn_tail_in_place(tmp_path, monkeypatch):
    """A torn last line is cut off: the journal is then its header and the whole
    lines, byte for byte, whose rows are reused, and no other file is left."""
    ck = tmp_path / "state.jsonl"
    interrupted_batch(monkeypatch, ck, 6, 0.7, stop_after=5)
    text = ck.read_text()[:-20]
    ck.write_text(text)
    digest = json.loads(text.splitlines()[0])["config"]
    done = butterfly_module._resume_journal(str(ck), digest)
    assert ck.read_text() == text[:text.rindex("\n") + 1]
    assert sorted(done) == sorted(journal_row(ln)[:2] for ln in text.splitlines()[1:-1])
    assert len(done) == 5
    assert [f.name for f in tmp_path.iterdir()] == [ck.name]


def test_journal_holds_header_and_one_line_per_row(tmp_path, monkeypatch):
    ck = tmp_path / "state.jsonl"
    ds = compute_butterfly(6, 0.7, checkpoint_path=str(ck))
    head, *payloads = journal_lines(ck)
    assert head == {"config": ds.provenance["config"], "journal": "lines"}
    assert sorted((p[0], p[1]) for p in payloads) == sorted((r.freq.p, r.freq.q)
                                                            for r in ds.rows)
    # a finished journal is reused as is: nothing recomputed, nothing appended
    before = ck.read_bytes()
    calls = rows_computed(monkeypatch)
    again = compute_butterfly(6, 0.7, checkpoint_path=str(ck))
    assert calls == []
    assert again.provenance["complete"] and ck.read_bytes() == before


def test_journal_appends_each_denominator_as_it_is_solved(tmp_path, monkeypatch):
    """`_flush_checkpoint` runs once per solved denominator, right after its solve,
    in solve order (q down) with that denominator's rows.  An interrupt at the
    k-th solve leaves the k - 1 finished denominators journalled and appends
    nothing after it."""
    solve, flush, events = corner_edges, butterfly_module._flush_checkpoint, []

    def solved(q, ps, beta):
        events.append(("solve", q))
        if q == stop_at:
            raise KeyboardInterrupt
        return solve(q, ps, beta)

    def appended(path, rows):
        events.append(("append", [(row.freq.p, row.freq.q) for row in rows]))
        flush(path, rows)

    monkeypatch.setattr(butterfly_module, "corner_edges", solved)
    monkeypatch.setattr(butterfly_module, "_flush_checkpoint", appended)
    by_q = {}
    for f in butterfly_fractions(8):
        by_q.setdefault(f.q, []).append((f.p, f.q))
    order = sorted(by_q, reverse=True)
    for k in (1, 3, len(order) + 1):  # the last run is not interrupted
        ck, events[:] = tmp_path / f"state-{k}.jsonl", []
        stop_at = order[k - 1] if k <= len(order) else None
        with pytest.raises(KeyboardInterrupt) if stop_at else contextlib.nullcontext():
            compute_butterfly(8, 0.7, checkpoint_path=str(ck))
        finished = order[:k - 1]
        assert events == [e for q in finished for e in (("solve", q), ("append", by_q[q]))] + [
            ("solve", q) for q in order[k - 1:k]]
        assert [p[:2] for p in journal_lines(ck)[1:]] == [r for q in finished for r in by_q[q]]


def tag_gap_csv(monkeypatch):
    """The rows (p, q) that the batch formats, one entry per `gap_csv` call.

    The edge text it returns is tagged with a space after each comma, so a band
    line that another formatter made would differ from the file's."""
    calls = []
    real = butterfly_module.gap_csv

    def tagged(freq, *args):
        calls.append((freq.p, freq.q))
        text, gap_lines = real(freq, *args)
        return text.replace(",", ", "), gap_lines

    monkeypatch.setattr(butterfly_module, "gap_csv", tagged)
    return calls


def band_lines(text):
    return [ln for ln in text.splitlines(keepends=True) if ln.startswith("# bands,")]


@pytest.mark.parametrize("workers", [1, 2])
def test_checkpointed_batch_formats_each_row_once(tmp_path, monkeypatch, workers):
    """Each row is formatted once, and the journal and the file both take its text."""
    from harperlab.cli import main

    ck, out = tmp_path / "state.jsonl", tmp_path / "fly.csv"
    calls = tag_gap_csv(monkeypatch)
    assert main(["butterfly", "--qmax", "12", "--beta", "1", "--workers", str(workers),
                 "--checkpoint", str(ck), "--out", str(out)]) == 0
    dataset = band_lines(out.read_text())
    assert len(dataset) == len(butterfly_fractions(12)) and all(", " in ln for ln in dataset)
    assert sorted(calls) == sorted(journal_row(ln)[:2] for ln in dataset)
    journal = band_lines(ck.read_text())
    if workers == 1:  # the same bytes, journalled in solve order: q down, then p up
        assert sorted(journal, key=lambda ln: journal_row(ln)[1::-1]) == dataset
    else:
        assert set(journal) == set(dataset) and len(journal) == len(dataset)


def test_denominator_solve_takes_one_block_row_per_mirror_pair(monkeypatch):
    """At Q = 12 each tridiagonal call of a denominator's solve holds one block
    per distinct min(p, q - p) of its numerators, and the even-q lo corner's
    stacked call two: no call at q = 1, two at odd q and three at even q."""
    solves, blocks, tridiagonal = {}, [], spectrum._tridiagonal_eigvalsh

    def counted(diag, off):
        blocks.append(len(diag))
        return tridiagonal(diag, off)

    def solved(q, ps, beta):
        blocks.clear()
        edges = corner_edges(q, ps, beta)
        solves[q] = (ps, blocks[:])
        return edges

    monkeypatch.setattr(spectrum, "_tridiagonal_eigvalsh", counted)
    monkeypatch.setattr(butterfly_module, "corner_edges", solved)
    compute_butterfly(12, 1.0)
    assert sorted(solves) == list(range(1, 13))
    for q, (ps, got) in solves.items():
        n = len({min(p, q - p) for p in ps})
        assert got == ([] if q == 1 else [n, n] if q % 2 else [n, n, 2 * n]), (q, ps)


def count_formats(monkeypatch):
    """The edge arrays whose floats `gap_csv` formats, one entry per format: it takes
    the gap widths by `np.diff` only when it formats."""
    made, real = [], np.diff

    def counted(x, *args, **kwargs):
        made.append(x.tobytes())
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "diff", counted)
    return made


@pytest.mark.parametrize("workers, checkpoint", [(1, True), (2, False)])
def test_mirror_rows_format_their_floats_once_per_pair(tmp_path, monkeypatch, workers,
                                                       checkpoint):
    """The rows p/q and (q - p)/q of a Q = 12 batch share one band text, formatted
    once per pair: as the journal is appended with a checkpoint, as the file is
    made without one.  Once the write ends, of the memos the rows hold only 1/2's,
    its own mirror, keeps a text."""
    made = count_formats(monkeypatch)
    ds = compute_butterfly(12, 1.0, workers=workers,
                           checkpoint_path=str(tmp_path / "state.jsonl") if checkpoint else None)
    assert bool(made) == checkpoint
    text = serialize_dataset(ds)
    fracs = butterfly_fractions(12)
    assert len(made) == len(set(made)) == len({(f.q, min(f.p, f.q - f.p)) for f in fracs})
    edges = {(int(p), int(q)): rest for p, q, rest in
             (ln[len("# bands,"):].split(",", 2) for ln in band_lines(text))}
    assert len(edges) == len(fracs)
    assert all(rest == edges[(q - p, q)] for (p, q), rest in edges.items())
    half = next(row for row in ds.rows if (row.freq.p, row.freq.q) == (1, 2))
    memos = {id(row.memo): row.memo for row in ds.rows}
    assert [key for key, memo in memos.items() if memo] == [id(half.memo)]
    assert [edge_text for edge_text, _ in half.memo.values()] == [edges[(1, 2)].rstrip("\n")]


def test_a_dataset_formats_its_own_floats(monkeypatch):
    """A row's text read outside a write is not handed to another dataset: after 1/2's
    text of one Q = 4 batch is read, a second batch formats all its 4 mirror pairs."""
    first = compute_butterfly(4, 1.0)
    assert next(row for row in first.rows if row.freq.q == 2).text.startswith("# bands,1,2,")
    made = count_formats(monkeypatch)
    serialize_dataset(compute_butterfly(4, 1.0))
    assert len(made) == 4


def stop_at_second_flush(monkeypatch):
    """Make the batch raise KeyboardInterrupt once its second journal append is written."""
    real, flushes = butterfly_module._flush_checkpoint, []

    def flush(path, rows):
        real(path, rows)
        flushes.append(len(rows))
        if len(flushes) == 2:
            raise KeyboardInterrupt

    monkeypatch.setattr(butterfly_module, "_flush_checkpoint", flush)


@pytest.mark.parametrize("first, then", [(2, 1), (1, 2)])
def test_resume_across_worker_counts_byte_identical(tmp_path, monkeypatch, first, then):
    ck = tmp_path / "state.jsonl"
    full = serialize_dataset(compute_butterfly(12, 0.7))
    with monkeypatch.context() as m:
        stop_at_second_flush(m)
        with pytest.raises(KeyboardInterrupt):
            compute_butterfly(12, 0.7, workers=first, checkpoint_path=str(ck))
    journalled = [tuple(p[:2]) for p in journal_lines(ck)[1:]]
    assert 6 <= len(journalled) < len(butterfly_fractions(12))
    resumed = compute_butterfly(12, 0.7, workers=then, checkpoint_path=str(ck))
    assert serialize_dataset(resumed) == full
    assert len(journal_lines(ck)) == 1 + len(resumed.rows)


@pytest.mark.parametrize("corruption", ["one_band_at_1_3", "nan_edge_at_1_2"])
def test_corrupt_journal_rows_are_refused(tmp_path, capsys, corruption):
    """A whole journal line gets the band-line checks of the dataset file:
    the batch refuses it, naming the journal, and writes no dataset."""
    from harperlab.cli import main

    ck = tmp_path / "state.jsonl"
    compute_butterfly(4, 0.7, checkpoint_path=str(ck))
    lines = ck.read_text().splitlines(keepends=True)
    for i, ln in enumerate(lines[1:], start=1):
        kind, p, q, *edges = ln.rstrip("\n").split(",")
        if corruption == "one_band_at_1_3" and (p, q) == ("1", "3"):
            lines[i] = ",".join([kind, p, q, *edges[:2]]) + "\n"  # the first band only
        elif corruption == "nan_edge_at_1_2" and (p, q) == ("1", "2"):
            edges[1] = "nan"  # the first band's hi
            lines[i] = ",".join([kind, p, q, *edges]) + "\n"
    ck.write_text("".join(lines))
    match = ("band line for 1/3 has 2 edges, not 6" if corruption == "one_band_at_1_3"
             else "band line for 1/2 has edges that are not finite")
    with pytest.raises(ValueError, match=f"checkpoint {ck}: {match}"):
        compute_butterfly(4, 0.7, checkpoint_path=str(ck))
    out = tmp_path / "fly.csv"
    code = main(["butterfly", "--qmax", "4", "--beta", "0.7", "--checkpoint", str(ck),
                 "--out", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith(f"error: checkpoint {ck}: {match}")


def test_journal_line_that_is_no_row_line_is_refused(tmp_path):
    ck = tmp_path / "state.jsonl"
    compute_butterfly(4, 0.7, checkpoint_path=str(ck))
    with ck.open("a") as fh:
        fh.write("[1, 3, [[-1.0, 1.0]], null]\n")  # a JSON payload under the lines header
    with pytest.raises(ValueError, match=rf"checkpoint {ck}: '\[1, 3, .*' is not a band or "
                                         rf"error line"):
        compute_butterfly(4, 0.7, checkpoint_path=str(ck))


def test_error_text_is_folded_onto_one_line(monkeypatch):
    fail_one_denominator(monkeypatch, 5, "first line\n  second line\n")
    ds = compute_butterfly(5, 1.0)
    assert [row.error for row in ds.rows if row.error] == [
        "ChambersError: first line second line"] * 4
    text = serialize_dataset(ds)
    for p in (1, 2, 3, 4):
        assert f"# error,{p},5,ChambersError: first line second line" in text.splitlines()
    assert parse_dataset(text) == ds


def test_checkpoint_config_mismatch_is_ignored(tmp_path):
    ck = tmp_path / "state.json"
    compute_butterfly(4, 0.7, checkpoint_path=str(ck))
    ds = compute_butterfly(4, 0.9, checkpoint_path=str(ck))  # different coupling
    assert ds.provenance["complete"]
    # the journal was started afresh under the new configuration
    assert journal_lines(ck)[0] == {"config": ds.provenance["config"], "journal": "lines"}
    assert len(journal_lines(ck)) == 1 + len(ds.rows)
    fresh = serialize_dataset(compute_butterfly(4, 0.9))
    assert serialize_dataset(ds) == fresh


def test_json_journal_of_an_older_build_is_started_afresh(tmp_path, monkeypatch):
    """A journal of JSON payloads `[p, q, bands, error]` under the same digest has
    another header: the batch starts it afresh, recomputes every row and writes
    the dataset byte for byte."""
    from harperlab.cli import main

    ds = compute_butterfly(6, 0.7)
    ck = tmp_path / "state.jsonl"
    old = [json.dumps({"config": ds.provenance["config"]})]
    old += [json.dumps([r.freq.p, r.freq.q, [list(b) for b in r.bands], r.error])
            for r in ds.rows]
    ck.write_text("\n".join(old) + "\n")
    calls = rows_computed(monkeypatch)
    out = tmp_path / "fly.csv"
    code = main(["butterfly", "--qmax", "6", "--beta", "0.7", "--checkpoint", str(ck),
                 "--out", str(out)])
    assert code == 0
    assert sorted(calls, key=lambda r: r[::-1]) == missing_rows(6, [])
    assert out.read_text() == serialize_dataset(ds)
    head, *rows = journal_lines(ck)
    assert head == {"config": ds.provenance["config"], "journal": "lines"}
    assert sorted((q, p, edges) for p, q, edges, _ in rows) == [
        (r.freq.q, r.freq.p, [x for b in r.bands for x in b]) for r in ds.rows]


def test_serialize_parse_roundtrip():
    ds = compute_butterfly(5, 1.0)
    text = serialize_dataset(ds)
    back = parse_dataset(text)
    assert back.order == 5 and back.beta == 1.0
    orig = [(g.freq.p, g.freq.q, g.label, round(g.lo, 12)) for g in ds.gap_rows()]
    rtrip = [(g.freq.p, g.freq.q, g.label, round(g.lo, 12)) for g in back.gap_rows()]
    assert orig == rtrip


def test_render_svg_segment_count(tmp_path):
    ds = compute_butterfly(5, 1.0)
    out = tmp_path / "fly.svg"
    render(ds, str(out), size=(640, 480))
    text = out.read_text()
    n_bands = sum(len(r.bands) for r in ds.rows)
    assert text.count("<line") == n_bands
    # deterministic output
    out2 = tmp_path / "fly2.svg"
    render(ds, str(out2), size=(640, 480))
    assert out.read_text() == out2.read_text()


def test_render_band_rows_are_mirror_symmetric():
    ds = compute_butterfly(5, 1.0)
    for row in ds.rows:
        mirrored = sorted((-hi, -lo) for lo, hi in row.bands)
        if row.freq.q % 2:  # the lo corner is the negated hi corner: exact
            assert list(row.bands) == mirrored
        for (a, b), (c, d) in zip(sorted(row.bands), mirrored):
            assert abs(a - c) <= 1e-10 and abs(b - d) <= 1e-10
        # opposite-sign hall labels mirror each other on open gaps (the
        # closed central record carries the +q/2 tie-break and is exempt)
        halls = sorted(g.hall for g in row.gaps if g.is_open)
        assert halls == sorted(-g.hall for g in row.gaps if g.is_open)


def test_render_ppm(tmp_path):
    ds = compute_butterfly(4, 0.8)
    out = tmp_path / "fly.ppm"
    render(ds, str(out), size=(160, 120), fmt="ppm")
    data = out.read_bytes()
    assert data.startswith(b"P6\n160 120\n255\n")
    assert len(data) == len(b"P6\n160 120\n255\n") + 3 * 160 * 120


def ppm_by_pixel(dataset, size, gap_fill):
    """The pixel-by-pixel PPM painter that slice painting replaced, kept as an oracle."""
    width, height = size
    elo, ehi = butterfly_module._extent(dataset)
    pixels = bytearray(b"\xff" * (3 * width * height))

    def paint(x0, x1, y, rgb):
        if y < 0 or y >= height:
            return
        a = max(0, min(width - 1, int(x0)))
        b = max(0, min(width - 1, int(x1)))
        base = 3 * y * width
        for x in range(a, b + 1):
            pixels[base + 3 * x:base + 3 * x + 3] = rgb

    def xpix(e):
        return (e - elo) / (ehi - elo) * (width - 1)

    for row in sorted(dataset.rows, key=lambda r: r.freq.alpha):
        y = int(round((1.0 - row.freq.alpha) * (height - 1)))
        if gap_fill:
            for g in row.gaps:
                if not g.is_open:
                    continue
                color = hall_color(g.hall)
                paint(xpix(g.lo), xpix(g.hi), y, bytes(int(color[i:i + 2], 16) for i in (1, 3, 5)))
        for lo, hi in row.bands:
            paint(xpix(lo), xpix(hi), y, b"\x00\x00\x00")
    return b"P6\n%d %d\n255\n" % (width, height) + bytes(pixels)


@pytest.mark.parametrize("order", [12, 30])
def test_render_ppm_equals_pixel_loop(order):
    ds = compute_butterfly(order, 0.8)
    for gap_fill in (True, False):
        args = (ds, (331, 217), gap_fill)
        assert butterfly_module._render_ppm(*args) == ppm_by_pixel(*args)


def assert_matches_per_gap_oracles(ds):
    """File text, both renderings and the component counts equal the per-gap writers'."""
    text = serialize_dataset(ds)
    assert text == oracle_serialize_dataset(ds)
    back = parse_dataset(text)
    assert back == ds and list(back.gap_rows()) == list(ds.gap_rows())
    for size in ((900, 600), (331, 217)):
        for gap_fill in (True, False):
            svg = "".join(butterfly_module._render_svg(ds, size, gap_fill))
            assert svg == oracle_render_svg(ds, size, gap_fill)
            assert (butterfly_module._render_ppm(ds, size, gap_fill)
                    == oracle_render_ppm(ds, size, gap_fill))
    for hall in (1, 2, 3):
        if any(row.error for row in ds.rows):
            with pytest.raises(ValueError, match="error rows"):
                component_count(ds, hall)
            continue
        cc = component_count(ds, hall)
        assert (cc.observed, cc.members) == oracle_component_count(ds, hall)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("order", [1, 5, 16])
def test_gap_columns_match_per_gap_oracles(order, beta):
    assert_matches_per_gap_oracles(compute_butterfly(order, beta))


@pytest.mark.parametrize("gap_fill", [True, False])
def test_svg_at_order_30_equals_the_per_element_oracle(gap_fill):
    ds = compute_butterfly(30, 1.0)
    svg = "".join(butterfly_module._render_svg(ds, (333, 217), gap_fill))
    assert svg == oracle_render_svg(ds, (333, 217), gap_fill)


def test_component_rows_sort_by_float_in_fraction_order():
    """Sorting by the float p/q gives the exact order at order 60, and the counts
    and members of the per-gap oracle, which sorts by `Fraction`."""
    ds = compute_butterfly(60, 1.0)
    freqs = [row.freq for row in ds.rows if row.freq.q >= 2]
    assert sorted(freqs, key=lambda f: f.alpha) == sorted(freqs, key=lambda f: f.fraction)
    for hall in (1, 2, 3):
        cc = component_count(ds, hall)
        assert (cc.observed, cc.members) == oracle_component_count(ds, hall)


def test_gap_columns_match_per_gap_oracles_with_error_rows(monkeypatch):
    fail_one_denominator(monkeypatch, 7)
    ds = compute_butterfly(9, 0.8)
    assert [str(r.freq) for r in ds.rows if r.error] == [f"{p}/7" for p in range(1, 7)]
    assert_matches_per_gap_oracles(ds)


def test_dataset_paths_build_no_gap_record(tmp_path, monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("a GapRecord was built")
    monkeypatch.setattr(GapRecord, "__init__", refuse)
    ds = compute_butterfly(12, 1.0)
    back = parse_dataset(serialize_dataset(ds))
    render(back, str(tmp_path / "fly.svg"))
    render(back, str(tmp_path / "fly.ppm"), fmt="ppm")
    for hall in (1, 2, 3):
        component_count(back, hall)
    with pytest.raises(AssertionError, match="GapRecord"):
        back.rows[-1].gaps  # the record view is the one place that builds them


@pytest.mark.parametrize("workers", [0, -1])
def test_compute_butterfly_refuses_fewer_than_one_worker(workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        compute_butterfly(3, 1.0, workers=workers)


def test_render_rejects_unknown_format(tmp_path):
    ds = compute_butterfly(3, 1.0)
    with pytest.raises(ValueError):
        render(ds, str(tmp_path / "x.png"), fmt="png")


def test_hall_color_palette():
    assert hall_color(0) == "#ffffff"
    assert hall_color(6) == "#ff0000"
    assert hall_color(-6) == "#0000ff"
    r_pos = int(hall_color(2)[1:3], 16)
    assert r_pos == 255


def test_persistence_sweep_golden_start():
    report = persistence_sweep([F(3, 5)], np.linspace(0.1, 1.0, 5), max_hall=2)
    assert report.all_open
    labels = sorted(t.label for t in report.tracks)
    assert labels == [(-1, 2), (0, 1), (1, -1), (2, -2)]


def test_persistence_sweep_excludes_central_touching():
    report = persistence_sweep([F(1, 2)], [0.4, 0.8], max_hall=1)
    # the only admissible label is the central one, always closed, never flagged
    assert report.all_open
    assert all(not any(t.open_flags) for t in report.tracks)


def test_persistence_sweep_tracks_each_gap_once():
    # the central gap of 1/2 is one gap: tracked once, under its +q/2 label
    report = persistence_sweep([F(1, 2)], [0.4, 0.8], max_hall=1)
    assert [t.label for t in report.tracks] == [(0, 1)]
    report = persistence_sweep([F(5, 8)], [0.5], max_hall=4)
    assert sorted(t.j for t in report.tracks) == list(range(1, 8))


def test_single_point_sweep_matches_track():
    report = persistence_sweep([F(2, 5)], [0.6], max_hall=1)
    for t in report.tracks:
        direct = track_gap(t.label, F(2, 5), [0.6])
        assert direct.widths == t.widths


@pytest.mark.parametrize("beta", [np.nan, np.inf, -np.inf])
def test_non_finite_coupling_is_refused(beta):
    with pytest.raises(ValueError, match="coupling must be finite and positive"):
        compute_butterfly(3, beta)
    for call in (lambda: corner_edges(5, [2], beta), lambda: chambers(F(2, 5), beta)):
        with pytest.raises(ValueError, match="coupling must be finite and nonnegative"):
            call()


def test_row_failures_are_recorded_not_raised():
    from harperlab.butterfly import _denominator_payloads
    payloads = _denominator_payloads((8, [1, 3, 5, 7], -0.5))  # invalid coupling
    assert [(p, q, bands) for p, q, bands, _ in payloads] == [(p, 8, ()) for p in (1, 3, 5, 7)]
    errors = {error for *_, error in payloads}
    assert errors == {"ValueError: coupling must be finite and nonnegative, got -0.5"}


def test_error_rows_serialize_as_comments():
    from harperlab.butterfly import ButterflyDataset
    ds = compute_butterfly(3, 1.0)
    rows = list(ds.rows)
    freq = rows[2].freq
    rows[2], = butterfly_module._build_rows(
        [freq], {(freq.p, freq.q): (freq.p, freq.q, (), "ValueError: synthetic")},
        ds.beta, ds.min_width)
    broken = ButterflyDataset(ds.beta, ds.order, tuple(rows), ds.min_width,
                              provenance=ds.provenance)
    text = serialize_dataset(broken)
    assert any(ln.startswith("# error,") for ln in text.splitlines())
    back = parse_dataset(text)  # error comments come back as error rows
    assert [r.error for r in back.rows] == [None, None, "ValueError: synthetic", None, None]


def test_error_rows_mark_incomplete_and_block_component_counts(monkeypatch):
    fail_one_denominator(monkeypatch, 5)
    ds = compute_butterfly(5, 1.0)
    assert len(ds.rows) == phi_cumulative(5) + 1
    assert not ds.provenance["complete"]
    back = parse_dataset(serialize_dataset(ds))
    assert {(r.freq.p, r.freq.q): r.error for r in back.rows if r.error} == {
        (p, 5): "ChambersError: synthetic" for p in (1, 2, 3, 4)}
    with pytest.raises(ValueError, match="error rows"):
        component_count(back, 1)


@pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
def test_order_80_has_no_error_rows(beta):
    # thin bands (2/43 at beta = 1, widths near 5e-11) once failed as error rows
    ds = compute_butterfly(80, beta, workers=2)
    assert len(ds.rows) == phi_cumulative(80) + 1
    assert [r.freq for r in ds.rows if r.error] == []
    assert ds.provenance["complete"]
    assert all(len(r.bands) == r.freq.q for r in ds.rows)


def test_parse_of_serialize_is_the_dataset(monkeypatch):
    fail_one_denominator(monkeypatch, 7)
    ds = compute_butterfly(7, 0.8)
    back = parse_dataset(serialize_dataset(ds))
    assert back == ds  # bitwise: freq, bands, every GapRecord and the error text
    assert [r.bands for r in back.rows] == [r.bands for r in ds.rows]
    assert list(back.gap_rows()) == list(ds.gap_rows())
    assert [r.error for r in back.rows if r.error] == ["ChambersError: synthetic"] * 6
    assert back.provenance == {"config": ds.provenance["config"], "complete": False}


def test_dataset_file_lines():
    ds = compute_butterfly(6, 1.0)
    lines = serialize_dataset(ds).splitlines()
    assert lines[1] == GAP_CSV_HEADER
    band_lines = [ln.split(",") for ln in lines if ln.startswith("# bands,")]
    assert [(int(b[1]), int(b[2])) for b in band_lines] == [(r.freq.p, r.freq.q)
                                                           for r in ds.rows]
    assert all(len(b) == 3 + 2 * int(b[2]) for b in band_lines)
    gap_lines = [ln for ln in lines[2:] if not ln.startswith("#")]
    assert len(gap_lines) == sum(len(r.gaps) for r in ds.rows)
    assert all(len(ln.split(",")) == len(GAP_CSV_HEADER.split(",")) == 10 for ln in gap_lines)


def test_one_config_hash_for_dataset_and_journal(tmp_path):
    ck = tmp_path / "state.jsonl"
    ds = compute_butterfly(4, 0.7, checkpoint_path=str(ck))
    expected = _config_hash({"version": "2", "Q": 4, "beta": "0.69999999999999996",
                             "min_width": "1.0000000000000001e-09"})
    assert len(expected) == 16
    assert ds.provenance["config"] == expected
    assert journal_lines(ck)[0] == {"config": expected, "journal": "lines"}
    head = serialize_dataset(ds).splitlines()[0]
    assert f",config={expected}," in head


def test_render_and_count_read_only_the_file(tmp_path, monkeypatch):
    ds = compute_butterfly(6, 1.0)
    path = tmp_path / "fly.csv"
    path.write_text(serialize_dataset(ds))
    render(ds, str(tmp_path / "mem.svg"), size=(320, 240))
    render(ds, str(tmp_path / "mem.ppm"), size=(320, 240), fmt="ppm")
    counts = component_count(ds, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("eigensolve called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    back = parse_dataset(path.read_text())
    render(back, str(tmp_path / "file.svg"), size=(320, 240))
    render(back, str(tmp_path / "file.ppm"), size=(320, 240), fmt="ppm")
    assert (tmp_path / "file.svg").read_bytes() == (tmp_path / "mem.svg").read_bytes()
    assert (tmp_path / "file.ppm").read_bytes() == (tmp_path / "mem.ppm").read_bytes()
    assert component_count(back, 1) == counts


@pytest.mark.parametrize("case", ["empty", "no_header", "bare_header", "v1", "truncated",
                                  "short_band_line", "nan_edge", "inf_edge", "swapped_edges",
                                  "two_band_lines", "band_and_error_line"])
def test_parse_refuses_bad_files(case):
    lines = serialize_dataset(compute_butterfly(5, 1.0)).splitlines(keepends=True)
    last = max(i for i, ln in enumerate(lines) if ln.startswith("# bands,"))  # 4/5
    two = lines.index(next(ln for ln in lines if ln.startswith("# bands,2,5,")))
    edges = lines[two].rstrip("\n").split(",")
    if case == "empty":
        text, match = "", "header"
    elif case == "no_header":
        text, match = "".join(lines[1:]), "header"
    elif case == "bare_header":
        text, match = "# version=2\n" + "".join(lines[1:]), "header"
    elif case == "v1":
        # a v1 file: version 1 and no band lines
        text = "".join(ln for ln in lines if not ln.startswith("# bands,"))
        text, match = text.replace("# version=2,", "# version=1,"), "harperlab butterfly"
    elif case == "truncated":
        # cut just before the last fraction's band line: 4/5 has neither line
        text, match = "".join(lines[:last]), "4/5"
    elif case == "short_band_line":
        lines[last] = lines[last].rsplit(",", 1)[0] + "\n"
        text, match = "".join(lines), "band line for 4/5 has 9 edges, not 10"
    elif case in ("nan_edge", "inf_edge", "swapped_edges"):
        if case == "swapped_edges":
            edges[3], edges[4] = edges[4], edges[3]  # the first band's hi before its lo
        else:
            edges[8] = case[:3]
        lines[two] = ",".join(edges) + "\n"
        text, match = "".join(lines), "band line for 2/5 has edges that are not finite"
    elif case == "two_band_lines":
        lines.insert(two + 1, lines[two])
        text, match = "".join(lines), "two band or error lines for 2/5"
    else:
        lines.insert(two, "# error,2,5,ChambersError: synthetic\n")
        text, match = "".join(lines), "two band or error lines for 2/5"
    with pytest.raises(ValueError, match=match):
        parse_dataset(text)


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_equal_rows_built_one_at_a_time(workers):
    """Rows built per denominator block equal a one-fraction solve and its `gap_table`."""
    ds = compute_butterfly(30, 1.0, workers=workers)
    for row in ds.rows:
        e = corner_edges(row.freq.q, [row.freq.p], 1.0)[0].tolist()
        bands = tuple(zip(e[0::2], e[1::2]))
        assert row.bands == bands and row.error is None
        assert row.table.dtype == np.int64
        assert np.array_equal(row.table, gap_table(row.freq, 1.0, bands, ds.min_width))


def test_error_rows_keep_an_empty_gap_table(monkeypatch):
    fail_one_denominator(monkeypatch, 7)
    ds = compute_butterfly(9, 0.8)
    for ds in (ds, parse_dataset(serialize_dataset(ds))):
        tables = [r.table for r in ds.rows if r.error]
        assert len(tables) == 6
        assert all(t.shape == (0, 4) and t.dtype == np.int64 for t in tables)


def test_parse_names_the_first_corrupt_band_line_in_file_order():
    lines = serialize_dataset(compute_butterfly(5, 1.0)).splitlines(keepends=True)
    at = {ln.split(",")[1] + "/" + ln.split(",")[2]: i for i, ln in enumerate(lines)
          if ln.startswith("# bands,")}
    edges = lines[at["1/3"]].rstrip("\n").split(",")
    edges[5] = "nan"
    lines[at["1/3"]] = ",".join(edges) + "\n"
    lines[at["4/5"]] = lines[at["4/5"]].rsplit(",", 1)[0] + "\n"
    with pytest.raises(ValueError, match="band line for 1/3 has edges that are not finite"):
        parse_dataset("".join(lines))
    lines.insert(at["1/3"], lines.pop(at["4/5"]))  # 4/5's band line now comes first
    with pytest.raises(ValueError, match="band line for 4/5 has 9 edges, not 10"):
        parse_dataset("".join(lines))


def test_parse_of_shuffled_band_lines_is_the_dataset(monkeypatch):
    fail_one_denominator(monkeypatch, 7)
    ds = compute_butterfly(9, 0.8)
    lines = serialize_dataset(ds).splitlines(keepends=True)
    at = [i for i, ln in enumerate(lines) if ln.startswith(("# bands,", "# error,"))]
    shuffled = list(lines)
    for i, k in zip(at, random.Random(7).sample(at, len(at))):
        shuffled[i] = lines[k]
    assert shuffled != lines
    back = parse_dataset("".join(shuffled))
    assert back == ds and back.provenance == ds.provenance
    assert all(np.array_equal(a.table, b.table) for a, b in zip(back.rows, ds.rows))
