"""Property tests: windowing against a per-step reference, chronological
splits against index-based subsets, standardization and max pooling
against their original loops, CSV parsing against a per-cell
reference, CSV files read in batches against their text read whole,
the text reader and the streamed UTF-8 check against the whole-text rule
in ``oracles.py``, bit-exact CSV round trips, gap runs against a scan,
gap repair against its per-cell loop, the
symmetric eigensolver's contract on random matrices with and without
repeated eigenvalues, batched model passes against per-sample ones,
memberships on the simplex, grouped convolution and recurrent grouped
stages against per-group references, both convolution primitives and
their gradients against the per-sample im2col references in
``oracles.py``, checkpoint loads of truncated or corrupted files, the
quote-free CSV tokenizer against ``csv.reader``, tables written by
``dumps_table`` read back cell for cell, parsed tables loaded back bit
for bit and every truncation of one refused, the flat SGD step against
the per-tensor update in ``oracles.py``, parameter draws made in place
against ``Generator.uniform``, libyaml's loader against PyYAML's own on
config-shaped YAML, and ``data.prepare`` over one directory through
rewrites of the data file and damage to its cache against a fresh
parse."""

import codecs
import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule
from hypothesis.extra import numpy as hnp

from gcnn import data as D
from gcnn import synth
from gcnn.data import (SplitSpec, TimeSeriesDataset, WindowedRegressionSet, _missing_runs, _parse_time, dumps_csv,
                       dumps_table, load_csv, make_windows, save_csv, repair_gaps, split, stage_parsed,
                       standardize)
from gcnn import tensor as T
from gcnn.errors import ConfigError, DataError, NumericalError, ShapeError
from gcnn.layers import Conv1DLayer, GroupedConv1DLayer, RecurrentConvLayer, draw
from gcnn.models import ModelSpec, _grouped_recurrent_stage, build_model, load_checkpoint, save_checkpoint
from gcnn.spectral import sym_eig
from gcnn.tensor import Tensor, backward, no_grad
from gcnn.training import PREDICT_CHUNK, TrainConfig, evaluate, mse_loss, sgd_step
from oracles import (Drawing, load_parsed, reference_channelwise_conv1d, reference_grouped_conv1d,
                     reference_read_utf8, reference_sgd_step)

SETTINGS = settings(max_examples=80, deadline=None)


def reference_windows(data, target, window):
    """The original per-step windowing loop: one copied window per step
    whose trailing ``window`` steps are all observed."""
    p = data.index_of(target)
    channel_idx = [i for i in range(data.n_series) if i != p]
    usable = data.mask.all(axis=0)
    inputs, targets, times = [], [], []
    for seg_start, seg_len in _missing_runs(~usable):
        # runs of True in `usable` are runs of False in its negation
        for t in range(seg_start + window - 1, seg_start + seg_len):
            block = data.values[channel_idx, t - window + 1 : t + 1]
            inputs.append(block.copy())
            targets.append(float(data.values[p, t]))
            times.append(float(data.times[t]))
    if not inputs:
        raise DataError("no fully-observed stretch")
    return np.stack(inputs), np.array(targets), np.array(times)


@st.composite
def windowing_cases(draw, gaps=True):
    n_series = draw(st.integers(2, 5))
    length = draw(st.integers(1, 40))
    window = draw(st.integers(1, length))
    if gaps:
        mask = draw(hnp.arrays(bool, (n_series, length), elements=st.booleans()))
    else:
        mask = np.ones((n_series, length), dtype=bool)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.where(mask, rng.standard_normal((n_series, length)), np.nan)
    data = TimeSeriesDataset(
        names=[f"s{i}" for i in range(n_series)],
        times=np.arange(length, dtype=float) * 2.0 + 5.0,
        values=values,
        mask=mask,
    )
    target = f"s{draw(st.integers(0, n_series - 1))}"
    return data, target, window


def base_array(a):
    while a.base is not None:
        a = a.base
    return a


@SETTINGS
@given(windowing_cases())
def test_make_windows_matches_per_step_reference(case):
    data, target, window = case
    try:
        expected = reference_windows(data, target, window)
    except DataError:
        with pytest.raises(DataError, match="fully-observed"):
            make_windows(data, target, window)
        return
    wset = make_windows(data, target, window)
    for got, want in zip((wset.inputs, wset.targets, wset.times), expected):
        assert got.shape == want.shape
        np.testing.assert_array_equal(got, want)


@SETTINGS
@given(windowing_cases())
def test_make_windows_ignores_later_writes_to_the_dataset(case):
    data, target, window = case
    try:
        wset = make_windows(data, target, window)
    except DataError:
        return
    before = [a.copy() for a in (wset.inputs, wset.targets, wset.times)]
    data.values[...] = 999.0
    data.times[...] = -1.0
    for got, want in zip((wset.inputs, wset.targets, wset.times), before):
        np.testing.assert_array_equal(got, want)


@SETTINGS
@given(windowing_cases(gaps=False))
def test_gap_free_inputs_are_a_read_only_view_of_one_channel_block(case):
    data, target, window = case
    wset = make_windows(data, target, window)
    assert not wset.inputs.flags.writeable
    block = base_array(wset.inputs)
    assert block.shape == (data.n_series - 1, data.n_steps)
    assert not np.shares_memory(block, data.values)


@SETTINGS
@given(windowing_cases(gaps=False), st.floats(0.05, 0.95))
def test_chronological_split_equals_index_subsets(case, fraction):
    data, target, window = case
    wset = make_windows(data, target, window)
    n_train = int(wset.n_samples * fraction)
    if not 1 <= n_train < wset.n_samples:
        with pytest.raises(DataError):
            split(wset, SplitSpec(fraction))
        return
    train, test = split(wset, SplitSpec(fraction))
    for part, idx in ((train, list(range(n_train))), (test, list(range(n_train, wset.n_samples)))):
        want = wset.subset(idx)
        np.testing.assert_array_equal(part.inputs, want.inputs)
        np.testing.assert_array_equal(part.targets, want.targets)
        np.testing.assert_array_equal(part.times, want.times)
        assert np.shares_memory(part.inputs, wset.inputs)


def reference_standardize(data, train_steps):
    """The per-series statistics loop: one mean and one std per series,
    constant series dropped, the rest scaled."""
    keep, dropped, means, stds = [], [], [], []
    for i, name in enumerate(data.names):
        head = data.values[i, :train_steps]
        mean, std = float(head.mean()), float(head.std())
        if std == 0.0:
            dropped.append(name)
            continue
        keep.append(i)
        means.append(mean)
        stds.append(std)
    mean_arr, std_arr = np.array(means), np.array(stds)
    scaled = (data.values[keep] - mean_arr[:, None]) / std_arr[:, None]
    return [data.names[i] for i in keep], mean_arr, std_arr, scaled, dropped


@st.composite
def standardize_cases(draw):
    n_series = draw(st.integers(2, 6))
    length = draw(st.integers(1, 300))
    train_steps = draw(st.integers(1, length))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e5]))
    values = rng.standard_normal((n_series, length)) * scale + draw(st.floats(-1e4, 1e4))
    for i in draw(st.lists(st.integers(0, n_series - 1), max_size=n_series)):
        values[i, :train_steps] = values[i, 0]  # constant over the training range: dropped
    data = TimeSeriesDataset(names=[f"s{i}" for i in range(n_series)], times=np.arange(length, dtype=float),
                             values=values, mask=np.ones((n_series, length), dtype=bool))
    return data, train_steps


@SETTINGS
@given(standardize_cases())
@example((TimeSeriesDataset(names=["a", "b", "c"], times=np.arange(4.0),
                            values=np.array([[2.0, 2.0, 5.0, 1.0], [0.5, -3.0, 1.0, 7.0], [-0.0, 4.0, 4.0, 9.0]]),
                            mask=np.ones((3, 4), dtype=bool)), 1))
@example((TimeSeriesDataset(names=["a", "b", "c"], times=np.arange(4.0),
                            values=np.array([[2.0, 2.0, 2.0, 1.0], [0.5, -3.0, 1.0, 7.0], [-0.1, 4.0, 4.0, 9.0]]),
                            mask=np.ones((3, 4), dtype=bool)), 3))
def test_standardize_matches_the_per_series_reference_bit_for_bit(case):
    data, train_steps = case
    names, means, stds, scaled, dropped = reference_standardize(data, train_steps)
    if len(names) < 2:
        with pytest.raises(DataError, match=f"left {len(names)} usable series"):
            standardize(data, train_steps)
        return
    out, stats, got_dropped = standardize(data, train_steps)
    assert out.names == stats.names == names and got_dropped == dropped
    for got, want in ((stats.mean, means), (stats.std, stds), (out.values, scaled)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view("<u8"), want.view("<u8"))


# -- CSV text --------------------------------------------------------------

EDGE_FLOATS = [0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308]


@st.composite
def gappy_datasets(draw):
    n_series = draw(st.integers(2, 5))
    length = draw(st.integers(1, 30))
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
    values = draw(hnp.arrays(np.float64, (n_series, length), elements=finite))
    mask = draw(hnp.arrays(bool, (n_series, length), elements=st.booleans()))
    stamps = st.floats(-1e300, 1e300) | st.sampled_from(EDGE_FLOATS[2:5])
    times = np.sort(draw(hnp.arrays(np.float64, length, elements=stamps, unique=True)))
    return TimeSeriesDataset(names=[f"s{i}" for i in range(n_series)], times=times,
                             values=np.where(mask, values, np.nan), mask=mask)


@SETTINGS
@given(gappy_datasets())
@example(TimeSeriesDataset(names=["a", "b"], times=np.array([-1e308, 5e-324, 1e308]),
                           values=np.array([[-0.0, 5e-324, np.nan], EDGE_FLOATS[4:7]]),
                           mask=np.array([[True, True, False], [True, True, True]])))
def test_csv_round_trip_is_bit_exact(tmp_path_factory, data):
    back = load_text(tmp_path_factory, dumps_csv(data))
    assert back.names == data.names
    np.testing.assert_array_equal(back.times.view(np.uint64), data.times.view(np.uint64))
    np.testing.assert_array_equal(back.mask, data.mask)
    np.testing.assert_array_equal(back.values[back.mask].view(np.uint64), data.values[data.mask].view(np.uint64))
    assert np.isnan(back.values[~back.mask]).all()


@SETTINGS
@given(gappy_datasets())
def test_a_parsed_table_loads_back_bit_for_bit(tmp_path_factory, data):
    work = tmp_path_factory.getbasetemp()
    (work / "table.csv").write_text(dumps_csv(data))
    table = load_csv(work / "table.csv")
    os.replace(stage_parsed(table, work / "parsed.bin", D._scan(work / "table.csv")[0]), work / "parsed.bin")
    # each cell below the header row takes a byte of the CSV at least
    for loaded in (load_parsed(work / "parsed.bin", D._scan(work / "table.csv")[0]),
                   load_parsed(work / "parsed.bin", None, (work / "table.csv").stat().st_size)):
        assert loaded.names == table.names
        for got, want in ((loaded.times, table.times), (loaded.values, table.values), (loaded.mask, table.mask)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def written(tmp_path_factory, text: str):
    """A file holding ``text`` as UTF-8."""
    path = tmp_path_factory.getbasetemp() / "text.csv"
    path.write_bytes(text.encode())
    return path


def load_text(tmp_path_factory, text: str) -> TimeSeriesDataset:
    """:func:`load_csv` of a file holding ``text``."""
    return load_csv(written(tmp_path_factory, text))


def records(tmp_path_factory, text: str) -> list:
    """The records the tokenizer reads from a file holding ``text``."""
    path = written(tmp_path_factory, text)
    return list(D._tokenize(D._lines(path), D._scan(path)[1]))


def reference_records(text):
    """``csv.reader``'s non-comment records, each with the line it starts
    on: one past the line the previous record ended on."""
    reader = csv.reader(io.StringIO(text))
    rows, line_no = [], 1
    for row in reader:
        if not (row and row[0].lstrip().startswith("#")):
            rows.append((line_no, row))
        line_no = reader.line_num + 1
    return rows


def reference_loads_csv(text):
    """The per-cell parse loop: each row checked and each cell converted
    in turn, so the first fault in row order is the one raised."""
    rows = reference_records(text)
    if not rows:
        raise DataError("empty input")
    header = [h.strip() for h in rows[0][1]]
    if len(header) < 3:
        raise DataError("need a time column plus at least 2 series columns")
    names = header[1:]
    for i, name in enumerate(names):
        if name == "":
            raise DataError(f"line {rows[0][0]}: column {i + 2}: series name '' is empty")
        if name[0] == "#":
            raise DataError(f"line {rows[0][0]}: column {i + 2}: series name {name!r} starts with #, "
                            "which marks a comment")
    times, line_nos = [], []
    columns, mask_cols = [[] for _ in names], [[] for _ in names]
    for line_no, row in rows[1:]:
        if not row or all(not cell.strip() for cell in row):
            continue
        line_nos.append(line_no)
        if len(row) != len(header):
            raise DataError(f"line {line_no}: expected {len(header)} cells, got {len(row)}")
        stamp = _parse_time(row[0], line_no)
        if times and stamp <= times[-1]:
            kind = "duplicate" if stamp == times[-1] else "non-monotone"
            raise DataError(f"line {line_no}: {kind} time stamp {row[0].strip()!r}")
        times.append(stamp)
        for i, cell in enumerate(row[1:]):
            cell = cell.strip()
            if cell == "":
                columns[i].append(np.nan)
                mask_cols[i].append(False)
            else:
                try:
                    columns[i].append(float(cell))
                except ValueError:
                    raise DataError(f"line {line_no}: cannot parse value {cell!r}") from None
                mask_cols[i].append(True)
    if not times:
        raise DataError("no data rows")
    values, mask = np.array(columns), np.array(mask_cols)
    for i, name in enumerate(names):
        bad = mask[i] & ~np.isfinite(values[i])
        if bad.any():
            t = int(np.argmax(bad))
            raise DataError(f"line {line_nos[t]}: series {name!r} holds non-finite value {float(values[i, t])!r}")
    return TimeSeriesDataset(names=names, times=np.array(times), values=values, mask=mask)


# csv.reader before Python 3.11 refuses a NUL character
CSV_READS_NUL = sys.version_info >= (3, 11)
# str.splitlines splits at each of these but NUL, csv.reader at none;
# str.strip removes all but NUL, float() fewer still
ODD_CHARS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"] + ["\x00"] * CSV_READS_NUL

GOOD_CELLS = ["", " ", "1", "-0.0", " 2.5e-3 ", '"4"', "5e-324", "1_0", '"6\n"', "\x0b7\x0c", "\x1c8\u2029", "\x85"]
BAD_CELLS = ["nan", "-inf", "1e999", "x", '"a,b"', "9\u20289", "1\x1e2"] + ["3\x004"] * CSV_READS_NUL


@st.composite
def csv_texts(draw):
    """Small CSV documents, many with one or more faults: empty or
    comment-like series names, bad, repeated or decreasing stamps, wrong
    cell counts, unparsable and non-finite cells;
    blank and comment lines anywhere, quoted cells that span lines, LF or
    CRLF line ends, a final one or none, and cells holding characters
    that are line breaks to ``str.splitlines`` but not to ``csv.reader``.
    Half the documents hold no quote, so with LF line ends they take the
    quote-free tokenizer."""
    pool = GOOD_CELLS * 8 + BAD_CELLS
    if draw(st.booleans()):
        pool = [cell for cell in pool if '"' not in cell]
    n_series = draw(st.sampled_from([1, 2, 2, 3, 3, 3]))
    names = st.sampled_from(["s{}"] * 30 + ["", " ", " #s{}", '"#s{}"'])
    lines = [",".join(["time"] + [draw(names).format(i) for i in range(n_series)])]
    stamp = 0
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["row"] * 6 + ["blank", "comment"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " , ", ",", "\x0c,\u2028"])))
        elif kind == "comment":
            lines.append(draw(st.sampled_from(["# note", " \t# note"])))
        else:
            stamp += draw(st.sampled_from([1] * 12 + [0, -1]))
            token = draw(st.sampled_from([f" {stamp} "] * 12 + ["noon", "inf"]))
            width = n_series + draw(st.sampled_from([0] * 12 + [-1, 1]))
            cells = st.sampled_from(pool)
            lines.append(",".join([token] + draw(st.lists(cells, min_size=width, max_size=width))))
    if draw(st.booleans()):
        lines.insert(0, "# config abc")
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from([end, ""]))


def parse_outcome(parse, text):
    """The error message, or the dataset's names, time and value bits and mask."""
    try:
        data = parse(text)
    except DataError as e:
        return str(e)
    return (data.names, data.times.view(np.uint64).tolist(), data.mask.tolist(),
            data.values[data.mask].view(np.uint64).tolist())


@SETTINGS
@given(csv_texts())
@example("time,a,b\n0,nan,2\n1,x,3\n")
@example("time,a,b\n0,1,x\n0,2,3\n")
@example("time,a,b\n\n0,1,x\n")
def test_load_csv_matches_the_per_cell_reference(tmp_path_factory, text):
    # csv_texts end lines in LF or CRLF and hold no other CR, so the file
    # reads back as the text with LF ends, which the reference reads alike
    assert parse_outcome(lambda t: load_text(tmp_path_factory, t), text) == parse_outcome(reference_loads_csv, text)


@st.composite
def csv_files(draw):
    """The bytes of a CSV file, and a read batch size: a :func:`csv_texts`
    document with each line end drawn from LF, CRLF and a lone CR, after a
    byte-order mark or none, and maybe with a byte that is not UTF-8 put
    in anywhere.  Batches of a few bytes put a batch boundary inside the
    mark, line ends and multi-byte characters."""
    lines = draw(csv_texts()).replace("\r\n", "\n").split("\n")
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines), max_size=len(lines)))
    raw = "".join(line + end for line, end in zip(lines, ends))[: -len(ends[-1])].encode()
    if draw(st.booleans()):
        raw = codecs.BOM_UTF8 + raw
    if draw(st.integers(0, 4)) == 0:
        at = draw(st.integers(0, len(raw)))
        raw = raw[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xe2\x80"])) + raw[at:]
    return raw, draw(st.sampled_from([1, 2, 3, 5, 8, 64, D.READ_BYTES]))


@SETTINGS
@given(csv_files())
@example((b"\xef\xbb\xbftime,a,b\r\n0,1,\r\n1,2,3\r\n", 1))
@example((b"time,a,b\r0,1,2\r\n1,\"3\r\n\",4\r", 4))
@example((b"time,a,b\n0,x,2\n1,2,3\n\xff\n", 4))
@example((b"time,a,b\n0,1,2\n1,2\n# caf\xc3\xa9\n2,3,4", 3))
@example((b'"time",a,b\n0,' + b"1" * 131073 + b",2\n1," + b"2" * 80 + b",3\n2,3,4\n3,4,\xff5\n", 64))
def test_load_csv_gives_the_parse_of_the_text_read_whole(tmp_path_factory, file):
    raw, batch = file
    path = tmp_path_factory.getbasetemp() / "streamed.csv"
    path.write_bytes(raw)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "READ_BYTES", batch)
        streamed = parse_outcome(load_csv, path)
    assert streamed == parse_outcome(reference_load_csv, path)


def reference_load_csv(path):
    """The per-cell parse of a file's text read whole, by the oracles."""
    return reference_loads_csv(reference_read_utf8(path, path.read_bytes()))


@st.composite
def split_files(draw):
    """A file's bytes cut into chunks, some maybe empty: pieces that make
    line ends and multibyte characters, a byte-order mark, and bytes that
    are not UTF-8 on their own, so a bad byte can fall in the middle, at
    the end as a cut-off character, right after a CR and across a chunk
    edge."""
    pieces = [b"a", b",", b"\n", b"\r", b"\r\n", "\u00e9".encode(), "\u20ac".encode(), "\U0001d11e".encode(),
              codecs.BOM_UTF8, b"\xff", b"\x80", b"\xc3", b"\xe2\x80", b"\xf0\x9d"]
    raw = b"".join(draw(st.lists(st.sampled_from(pieces), max_size=30)))
    cuts = sorted(draw(st.lists(st.integers(0, len(raw)), max_size=8)))
    return [raw[start:stop] for start, stop in zip([0, *cuts], [*cuts, len(raw)])]


def utf8_fault(read, *args) -> str | None:
    """The message of the DataError ``read(*args)`` raises; None for none."""
    try:
        read(*args)
    except DataError as e:
        return str(e)
    return None


@SETTINGS
@given(split_files())
@example([b"time,a\n0,\xff1\n1,2\n"])
@example([b"time,a\n0,1\n\xc3"])
@example([b"a\r\n\r", b"\xff\n"])
@example([b"a\r", b"\nb\xe2", b"\x80", b"x\r\n"])
@example([b"\xef\xbb", b"\xbfa\r", b"", b"\n\xf0\x9d", b"\x84"])
@example([b"a\r", b"\nb\xff"])
@example([b"\xef\xbb\xbfa\n\xff"])
@example([b"\xef"])
@example([b"\xef\xbb"])
@example([b"\xef", b"\xbb"])
def test_lines_in_chunks_match_the_whole_text_rule(chunks):
    raw, text = b"".join(chunks), []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_chunks", lambda path: iter([c for c in chunks if c]))  # _chunks yields no empty chunk
        fault = utf8_fault(lambda path: text.extend(m[0] for m in D._lines(path)), "t.csv")
    assert fault == utf8_fault(reference_read_utf8, "t.csv", raw)
    if fault is None:
        assert "".join(text) == reference_read_utf8("t.csv", raw)


@SETTINGS
@given(split_files().map(b"".join))
def test_lines_match_the_whole_text_rule(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "read.txt"
    path.write_bytes(raw)
    fault = utf8_fault(reference_read_utf8, path, raw)
    assert utf8_fault(lambda p: list(D._lines(p)), path) == fault
    if fault is None:
        assert "".join(m[0] for m in D._lines(path)) == reference_read_utf8(path, raw)


@contextlib.contextmanager
def in_blocks(cpus):
    """Tables and files cut into as many blocks as ``cpus`` allows, each
    but the first rendered or parsed in a forked child; on leaving, no
    child process is left."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "_usable_cpus", lambda: cpus)
        mp.setattr(D, "BLOCK_CELLS", 1)
        mp.setattr(D, "BLOCK_BYTES", 1)
        yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@SETTINGS
@given(gappy_datasets(), st.integers(2, 6), st.sampled_from(["", "# config abc\n"]))
def test_save_csv_in_blocks_writes_the_one_block_text(tmp_path_factory, data, cpus, head):
    path = tmp_path_factory.getbasetemp() / "blocks" / "table.csv"
    path.parent.mkdir(exist_ok=True)
    with in_blocks(cpus):
        save_csv(data, path, head=head)
    assert path.read_bytes() == (head + dumps_csv(data)).encode()
    assert [p.name for p in path.parent.iterdir()] == ["table.csv"]


@st.composite
def table_files(draw):
    """The bytes of a table's CSV text with blank and comment lines put
    in anywhere, LF or CRLF line ends, a final one or none, and maybe a
    fault planted on any line: a bad value, a repeated stamp, a missing
    cell or a byte that is not UTF-8."""
    lines = dumps_csv(draw(gappy_datasets())).splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["", "# note", " , ", "\ufeff# mark"])))
    faults = {"value": lambda line: line + "x", "stamp": lambda line: "0" + line[line.index(","):],
              "count": lambda line: line.rsplit(",", 1)[0], "utf-8": lambda line: line + "\udcff"}
    for fault in draw(st.lists(st.sampled_from(sorted(faults)), max_size=2)):
        at = draw(st.integers(1, len(lines) - 1)) if len(lines) > 1 else 0
        if "," in lines[at]:
            lines[at] = faults[fault](lines[at])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return text.encode("utf-8", "surrogateescape")


@SETTINGS
@given(table_files() | csv_files().map(lambda file: file[0]), st.integers(2, 6), st.sampled_from([7, D.READ_BYTES]))
@example(b"time,a,b\n0,1,2\n1,2,3\n2,3,4\n", 3, D.READ_BYTES)
@example(b"time,a,b\n0,1,2\n2,2,3\n1,3,4\n", 2, D.READ_BYTES)
@example("time,a,b\n0,1,2\n1,2,3\n\ufeff2,3,4\n".encode(), 2, D.READ_BYTES)
@example(b"time,a,b\n\n\n\n\n\n\n\n\n", 3, D.READ_BYTES)
@example(b"time,a,b\n0,1,2\n1,2,3\n2,3,nan\n", 3, D.READ_BYTES)
@example(b"time,a,a\n0,1,2\n1,2,3\n2,3,4\n", 3, D.READ_BYTES)
def test_load_csv_in_blocks_gives_the_one_block_parse(tmp_path_factory, raw, cpus, batch):
    path = tmp_path_factory.getbasetemp() / "blocks.csv"
    path.write_bytes(raw)
    with in_blocks(cpus), pytest.MonkeyPatch.context() as mp:
        mp.setattr(D, "READ_BYTES", batch)
        blocks = parse_outcome(load_csv, path)
    assert blocks == parse_outcome(reference_load_csv, path)


def test_every_truncated_parsed_table_is_a_miss(tmp_path):
    (tmp_path / "table.csv").write_text("time,a,b\n0,1,\n1,2,3\n")
    table = load_csv(tmp_path / "table.csv")
    path = tmp_path / "parsed.bin"
    os.replace(stage_parsed(table, path, D._scan(tmp_path / "table.csv")[0]), path)
    raw = path.read_bytes()
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        assert load_parsed(path, D._scan(tmp_path / "table.csv")[0]) is None


@st.composite
def quote_free_texts(draw):
    """CSV text with no quote and no carriage return: blank lines,
    comment lines with leading whitespace, whitespace-only cells, and
    cells holding the characters of ODD_CHARS; a final newline or none."""
    cell = st.text(st.sampled_from(["1", "a", "-", "#", " ", "\t", *ODD_CHARS]), max_size=4)
    line = st.one_of(st.just(""), st.sampled_from(["#", " # note", "\t#,x", " ", ","]),
                     st.lists(cell, min_size=1, max_size=4).map(",".join))
    lines = draw(st.lists(line, max_size=8))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@SETTINGS
@given(quote_free_texts())
@example("")
@example("\n")
@example("a,b\n\n,\n")
@example("a\x0bb,c\u2028\n# x\n\x85\n")
def test_quote_free_records_match_csv_reader(tmp_path_factory, text):
    assert records(tmp_path_factory, text) == reference_records(text)


TABLE_TEXT = st.text(st.sampled_from([",", "#", '"', "\n", "\r", "\x0c", "\u2028", " ", "a", "B"]), max_size=6)
TABLE_CELLS = st.one_of(TABLE_TEXT, st.integers(-10**20, 10**20), st.floats(allow_nan=False, width=64))


def reads_back(cell, value):
    """Whether a cell read as ``cell`` is the one written as ``value``:
    text as it is but for universal newlines, an integer in decimal, a
    float with the same bits."""
    if isinstance(value, str):
        return cell == value.replace("\r\n", "\n").replace("\r", "\n")
    if isinstance(value, int):
        return int(cell) == value
    return np.float64(float(cell)).view(np.uint64) == np.float64(value).view(np.uint64)


def heads_a_record(row):
    """A row the tokenizer keeps: not blank, and not read as a comment."""
    first = row[0] if isinstance(row[0], str) else ""
    return not first.lstrip().startswith("#") and (len(row) > 1 or row[0] != "")


@SETTINGS
@given(st.lists(st.lists(TABLE_CELLS, min_size=1, max_size=4).filter(heads_a_record), min_size=1, max_size=6))
@example([["time", "a,b", 'q"x', "g1\x0cs1"], [0.0, -0.0, 5e-324, 1e308], [" ", "", 7, "\r\n"]])
def test_tables_read_back_cell_for_cell(tmp_path_factory, table):
    header, *rows = table
    read = records(tmp_path_factory, dumps_table(header, rows))
    assert [len(row) for _, row in read] == [len(row) for row in table]
    for (_, cells), row in zip(read, table):
        assert all(reads_back(cell, value) for cell, value in zip(cells, row))


def brute_force_runs(present):
    runs, start = [], None
    for t, ok in enumerate(present):
        if not ok and start is None:
            start = t
        elif ok and start is not None:
            runs.append((start, t - start))
            start = None
    if start is not None:
        runs.append((start, len(present) - start))
    return runs


@SETTINGS
@given(hnp.arrays(bool, st.integers(0, 40), elements=st.booleans()))
@example(np.ones(7, dtype=bool))
@example(np.zeros(7, dtype=bool))
@example(np.array([True]))
@example(np.array([False]))
def test_missing_runs_match_a_brute_force_scan(present):
    runs = _missing_runs(present)
    assert runs == brute_force_runs(present)
    assert all(type(v) is int for run in runs for v in run)


@SETTINGS
@given(st.integers(0, 2**32 - 1), st.integers(3, 60), st.floats(0.0, 0.9))
def test_gap_repair_fills_the_bits_of_the_per_cell_loop(seed, steps, share):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((4, steps)) * 10.0 ** rng.integers(-300, 300, (4, 1))
    mask = rng.random((4, steps)) >= share
    mask[:, [0, -1]] = True
    values[~mask] = np.nan
    data = TimeSeriesDataset([f"s{i}" for i in range(4)], np.arange(steps, dtype=float), values.copy())
    repaired, report = repair_gaps(data, max_gap=steps)
    for name, start, length in report.filled:  # the loop gap repair ran before it filled a run at once
        row = values[data.index_of(name)]
        left, right = row[start - 1], row[start + length]
        for offset in range(1, length + 1):
            row[start + offset - 1] = left + (right - left) * (offset / (length + 1))
    assert repaired.values.tobytes() == values.tobytes()


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # a few distinct values, so eigenvalues repeat
        palette = rng.standard_normal(draw(st.integers(1, 3)))
        lam = rng.choice(palette, size=n)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = (q * lam) @ q.T
    else:
        a = rng.standard_normal((n, n))
    return (a + a.T) / 2.0


@SETTINGS
@given(symmetric_matrices())
def test_sym_eig_contract(a):
    n = a.shape[0]
    lam, vec = sym_eig(a)
    scale = max(1.0, np.abs(a).max())
    assert lam.shape == (n,) and vec.shape == (n, n)
    assert np.all(np.diff(lam) >= 0.0)
    np.testing.assert_allclose(lam, np.linalg.eigvalsh(a), atol=1e-10 * scale)
    np.testing.assert_allclose(vec.T @ vec, np.eye(n), atol=1e-10)
    np.testing.assert_allclose((vec * lam) @ vec.T, a, atol=1e-10 * scale)
    for j in range(n):
        lead = np.argmax(np.abs(vec[:, j]))
        assert vec[lead, j] > 0.0


# one small network per grouping mode, plus recurrent grouped stacks
TINY = dict(input_channels=4, input_width=8, stage_channels=(6, 6), pool_before=(2,),
            pool_window=2, pool_stride=2, dense_units=(5, 1))
MODEL_SPECS = {
    "none": ModelSpec(**TINY),
    "explicit": ModelSpec(**TINY, grouping="explicit", groups=2),
    "coeff": ModelSpec(**TINY, grouping="coeff", groups=2),
    "rcnn": ModelSpec(**TINY, grouping="explicit", groups=2, recurrent=True, iterations=2),
    "rcnn-coeff": ModelSpec(**TINY, grouping="coeff", groups=2, recurrent=True, iterations=2),
    "rcnn-mixed": ModelSpec(**TINY, grouping="explicit", groups=2, recurrent=True, iterations=3),
}


def tiny_model(mode, seed):
    spec = MODEL_SPECS[mode]
    assignment = None
    if spec.grouping == "explicit":
        # rcnn-mixed: group 1 (channels 0, 2, 3) is already 3 wide and passes through the lift
        assignment = [1, 2, 1, 1] if mode == "rcnn-mixed" else [1, 2, 2, 1]
    return build_model(spec, assignment, seed=seed)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(MODEL_SPECS)), st.integers(1, 2 * PREDICT_CHUNK + 9), st.integers(0, 2**32 - 1))
def test_batched_forward_equals_stacked_per_sample_forwards(mode, n, seed):
    model = tiny_model(mode, seed % 1000)
    x = np.random.default_rng(seed).standard_normal((n, 4, 8))
    with no_grad():
        per_sample = np.array([model.forward(Tensor(xi)).item() for xi in x])
        batched = model.forward(Tensor(x))
    assert batched.shape == (1, n)
    np.testing.assert_allclose(batched.data[0], per_sample, rtol=0, atol=1e-12)
    wset = WindowedRegressionSet(x, np.arange(n, dtype=float), np.arange(n, dtype=float),
                                 [f"s{i}" for i in range(4)], "t", 8)
    np.testing.assert_allclose(evaluate(model, wset).predictions, per_sample, rtol=0, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(MODEL_SPECS)), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_batch_mse_gradient_is_the_mean_of_per_sample_gradients(mode, n, seed):
    model = tiny_model(mode, seed % 1000)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 4, 8))
    y = rng.standard_normal(n)
    params = [t for _, t in model.named_params()]
    grads = backward(mse_loss(model.forward(Tensor(x)), Tensor(y[None, :])), leaves=params)
    batch = [grads[t].copy() for t in params]
    mean = [np.zeros_like(t.data) for t in params]
    for xi, yi in zip(x, y):
        grads = backward(mse_loss(model.forward(Tensor(xi)), Tensor([[yi]])), leaves=params)
        for acc, t in zip(mean, params):
            acc += grads[t] / n
    for got, want in zip(batch, mean):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_coefficients_rows_stay_on_the_simplex(n, k, data):
    spec = ModelSpec(input_channels=n, input_width=4, grouping="coeff", groups=k,
                     stage_channels=(k,), pool_before=(), dense_units=(1,))
    model = build_model(spec, seed=0)
    logits = data.draw(hnp.arrays(float, (n, k), elements=st.floats(-1e300, 1e300)))
    model.coeff_layer().logits.data = logits
    u = model.coefficients()
    assert u.shape == (n, k)
    assert np.isfinite(u).all() and (u >= 0.0).all() and (u <= 1.0).all()
    np.testing.assert_allclose(u.sum(axis=1), 1.0, rtol=0, atol=1e-12)


# -- grouped convolution ---------------------------------------------------


def per_group_reference(x, kernels, biases):
    """Slice each group's channel block, convolve it alone, stack the outputs."""
    outs, c0 = [], 0
    for k, b in zip(kernels, biases):
        c = k.shape[1]
        block = T.gather_rows(x, range(c0, c0 + c))
        outs.append(T.conv1d(block, k, b))
        c0 += c
    return T.concat(outs, axis=-2)


@st.composite
def grouped_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    outs = draw(st.lists(st.integers(1, 3), min_size=len(sizes), max_size=len(sizes)))
    kw = draw(st.integers(1, 4))
    width = draw(st.integers(kw, kw + 5))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    return sizes, outs, kw, width, batch, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(grouped_cases())
def test_grouped_conv1d_equals_per_group_reference(case):
    sizes, outs, kw, width, batch, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((*batch, sum(sizes), width)), requires_grad=True)
    kernels = [Tensor(rng.standard_normal((o, c, kw)), requires_grad=True) for o, c in zip(outs, sizes)]
    biases = [Tensor(rng.standard_normal(o), requires_grad=True) for o in outs]
    weights = rng.standard_normal((*batch, sum(outs), width))
    leaves = [x, *kernels, *biases]

    got = T.grouped_conv1d(x, kernels, biases)
    want = per_group_reference(x, kernels, biases)
    assert got.shape == want.shape == weights.shape
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
    g_got = backward(T.sum_all(T.elementwise("mul", got, Tensor(weights))), leaves=leaves)
    g_want = backward(T.sum_all(T.elementwise("mul", want, Tensor(weights))), leaves=leaves)
    for leaf in leaves:
        np.testing.assert_allclose(g_got[leaf], g_want[leaf], rtol=1e-10, atol=1e-12)


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_grouped_layer_is_invariant_to_relabelling_channels(sizes, kw, seed):
    rng = np.random.default_rng(seed)
    c = sum(sizes)
    labels = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    layer = GroupedConv1DLayer.create(labels, out_per_group=2, kernel_width=kw, record=Drawing(rng))
    pi = rng.permutation(c)  # channel i is called pi[i] in the relabelled layer
    relabels = np.empty_like(labels)
    relabels[pi] = labels
    # a group reads its members in ascending channel order, so kernel column
    # j of the relabelled layer is the column of the member that sorts to j
    new_names = [pi[labels == g] for g in range(len(sizes))]
    kernels = [Tensor(k.data[:, np.argsort(names), :]) for k, names in zip(layer.kernels, new_names)]
    relabelled = GroupedConv1DLayer(relabels, kernels, layer.biases)
    x = rng.standard_normal((3, c, 6))
    x_relabelled = np.empty_like(x)
    x_relabelled[:, pi, :] = x
    with no_grad():
        got, want = relabelled.forward(Tensor(x_relabelled)).data, layer.forward(Tensor(x)).data
    if all(np.all(np.diff(names) > 0) for names in new_names):
        np.testing.assert_array_equal(got, want)  # members keep their order: the same sums in the same order
    else:
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 4), st.sampled_from([(), (2,), (2, 3)]), st.integers(0, 2**32 - 1))
def test_stacked_channelwise_conv_rows_equal_single_kernel_convs(k, kw, batch, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((*batch, 3, kw + 4)))
    stack = rng.standard_normal((k, kw))
    out = T.channelwise_conv1d(x, Tensor(stack))
    for j in range(k):
        single = T.channelwise_conv1d(x, Tensor(stack[j : j + 1]))
        # group-major rows: kernel j's block is rows 3j .. 3j + 2
        np.testing.assert_allclose(out.data[..., 3 * j : 3 * j + 3, :], single.data, rtol=0, atol=1e-12)


def correlate_same(signal, kernel):
    """Zero-pad one row by (kw - 1) // 2 on the left and the rest on the
    right, then take the kernel's inner product at every offset."""
    kw = len(kernel)
    left = (kw - 1) // 2
    padded = np.concatenate([np.zeros(left), signal, np.zeros(kw - 1 - left)])
    return np.array([padded[t : t + kw] @ kernel for t in range(len(signal))])


@SETTINGS
@given(st.integers(1, 5), st.data())
def test_convolutions_keep_the_width_of_inputs_narrower_than_the_kernel(kw, data):
    # water-cnn's last stage convolves width 1 with kw = 3
    width = data.draw(st.integers(1, kw + 2), label="width")
    sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="sizes")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = rng.standard_normal((sum(sizes), width))
    kernels = [rng.standard_normal((2, c, kw)) for c in sizes]
    biases = [rng.standard_normal(2) for _ in sizes]
    stack = rng.standard_normal((3, kw))

    got = T.grouped_conv1d(Tensor(x), [Tensor(k) for k in kernels], [Tensor(b) for b in biases])
    blocks = np.split(x, np.cumsum(sizes)[:-1])
    want = [[sum(correlate_same(row, k[o, i]) for i, row in enumerate(block)) + b[o] for o in range(2)]
            for block, k, b in zip(blocks, kernels, biases)]
    assert got.shape == (2 * len(sizes), width)
    np.testing.assert_allclose(got.data, np.reshape(want, got.shape), rtol=0, atol=1e-12)

    got = T.channelwise_conv1d(Tensor(x), Tensor(stack))
    want = [[correlate_same(row, kern) for row in x] for kern in stack]
    assert got.shape == (3 * sum(sizes), width)
    np.testing.assert_allclose(got.data, np.reshape(want, got.shape), rtol=0, atol=1e-12)

    leaves = [Tensor(a, requires_grad=True) for a in (x, stack, *kernels, *biases)]
    xt, st_, ks, bs = leaves[0], leaves[1], leaves[2 : 2 + len(sizes)], leaves[2 + len(sizes) :]
    w1, w2 = Tensor(rng.standard_normal((2 * len(sizes), width))), Tensor(rng.standard_normal(got.shape))

    def loss():
        return T.elementwise("add", T.sum_all(T.elementwise("mul", T.grouped_conv1d(xt, ks, bs), w1)),
                             T.sum_all(T.elementwise("mul", T.channelwise_conv1d(xt, st_), w2)))

    assert T.grad_check(loss, leaves) < 1e-6


@st.composite
def conv_cases(draw):
    """A (..., C, W) input with 0-2 batch axes, 1-3 groups of their own
    sizes, kernels 1-6 wide over widths 1-9 (so kw > W occurs), and a seed."""
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2), label="batch"))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), label="sizes")
    outs = draw(st.lists(st.integers(1, 3), min_size=len(sizes), max_size=len(sizes)), label="outs")
    kw = draw(st.integers(1, 6), label="kw")
    width = draw(st.integers(1, 9), label="width")
    return batch, sizes, outs, kw, width, draw(st.integers(0, 2**32 - 1), label="seed")


def conv_leaves(case):
    batch, sizes, outs, kw, width, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((*batch, sum(sizes), width))
    kernels = [rng.standard_normal((o, c, kw)) for o, c in zip(outs, sizes)]
    biases = [rng.standard_normal(o) for o in outs]
    stack = rng.standard_normal((outs[0], kw))
    return rng, x, kernels, biases, stack


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(conv_cases())
@example(((1,), [3, 1, 2], [2, 1, 3], 6, 2, 0))  # a batch of 1, kw > W
@example(((2, 1), [1, 4], [3, 1], 4, 1, 1))  # W = 1 under an even kw
@example(((), [2], [1], 1, 9, 2))  # one sample, kw = 1
def test_convolutions_match_the_per_sample_im2col_reference(case):
    rng, x, kernels, biases, stack = conv_leaves(case)
    leaves = [Tensor(a, requires_grad=True) for a in (x, *kernels, *biases)]
    xt, ks, bs = leaves[0], leaves[1 : 1 + len(kernels)], leaves[1 + len(kernels) :]
    got = T.grouped_conv1d(xt, ks, bs)
    want, want_grad = reference_grouped_conv1d(x, kernels, biases)
    assert got.shape == want.shape and got.data.flags.c_contiguous
    assert_close(got.data, want)
    g = rng.standard_normal(want.shape)
    grads = backward(T.sum_all(T.elementwise("mul", got, Tensor(g))), leaves=leaves)
    gx, gks, gbs = want_grad(g)
    for leaf, w in zip(leaves, (gx, *gks, *gbs)):
        assert_close(grads[leaf], w)

    xt, st_ = Tensor(x, requires_grad=True), Tensor(stack, requires_grad=True)
    got = T.channelwise_conv1d(xt, st_)
    want, want_grad = reference_channelwise_conv1d(x, stack)
    assert got.shape == want.shape and got.data.flags.c_contiguous
    assert_close(got.data, want)
    g = rng.standard_normal(want.shape)
    grads = backward(T.sum_all(T.elementwise("mul", got, Tensor(g))), leaves=[xt, st_])
    gx, gk = want_grad(g)
    assert_close(grads[xt], gx)
    assert_close(grads[st_], gk)


@SETTINGS
@given(conv_cases())
def test_a_sample_convolved_in_a_batch_equals_it_convolved_alone(case):
    _, x, kernels, biases, stack = conv_leaves(case)
    ks, bs = [Tensor(k) for k in kernels], [Tensor(b) for b in biases]
    grouped = T.grouped_conv1d(Tensor(x), ks, bs).data
    channelwise = T.channelwise_conv1d(Tensor(x), Tensor(stack)).data
    for i in np.ndindex(x.shape[:-2]):
        assert_close(grouped[i], T.grouped_conv1d(Tensor(x[i]), ks, bs).data)
        assert_close(channelwise[i], T.channelwise_conv1d(Tensor(x[i]), Tensor(stack)).data)


# -- max pooling -----------------------------------------------------------


def reference_maxpool1d(x, window, stride):
    """Windowed maximum by a reduction over sliding windows, with the
    argmax taken in the forward pass; returns the output and a backward
    that sends each window's gradient to its first maximum."""
    wins = sliding_window_view(x, window, axis=-1)[..., ::stride, :]
    out = wins.max(axis=-1)
    arg = wins.argmax(axis=-1)  # first occurrence on ties
    span = stride * (out.shape[-1] - 1) + 1

    def grad(g):
        gx = np.zeros(x.shape)
        for t in range(window):  # overlapping windows add up across offsets
            gx[..., t : t + span : stride] += np.where(arg == t, g, 0.0)
        return gx

    return out, grad


TIE_VALUES = [-1.0, -0.0, 0.0, 1.0, 2.0]


@st.composite
def pooling_cases(draw):
    batch = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    channels = draw(st.integers(1, 3))
    window = draw(st.integers(1, 5))
    stride = draw(st.integers(1, 5))
    width = draw(st.integers(window, window + 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (*batch, channels, width)
    if draw(st.booleans()):
        x = rng.choice(TIE_VALUES, size=shape)
    else:
        x = np.maximum(rng.standard_normal(shape), 0.0)  # relu'd: runs of tied zeros
    g = rng.standard_normal(shape)
    g[rng.random(shape) < 0.3] *= 0.0  # signed zeros, as a relu's backward hands down
    return x, window, stride, g


@SETTINGS
@given(pooling_cases())
@example((np.array([[0.0, -0.0, 1.0, 1.0, -0.0, 0.0, 2.0, 2.0]]), 3, 2, np.arange(8.0) - 4))  # overlapping
@example((np.array([[-0.0, 0.0, -1.0, 0.0, 0.0, -0.0, 1.0]]), 2, 3, np.arange(7.0) - 3))  # stride > window
@example((np.array([[1.0, 1.0, 1.0, 0.0, 2.0, 2.0, -1.0]]), 4, 2, -np.arange(7.0)))  # (W - window) % stride != 0
def test_maxpool1d_matches_the_sliding_window_reference_bit_for_bit(case):
    x, window, stride, g_full = case
    want, want_grad = reference_maxpool1d(x, window, stride)
    g = g_full[..., : want.shape[-1]]
    xt = Tensor(x, requires_grad=True)
    got = T.maxpool1d(xt, window, stride)
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.data.view("<u8"), want.view("<u8"))
    backward(T.sum_all(T.elementwise("mul", got, Tensor(g))))
    np.testing.assert_array_equal(xt.grad.view("<u8"), want_grad(g).view("<u8"))

    with no_grad():
        quiet = T.maxpool1d(xt, window, stride)
    assert quiet._rule is None and quiet._parents == () and not quiet.requires_grad
    np.testing.assert_array_equal(quiet.data.view("<u8"), got.data.view("<u8"))


# -- recurrent grouped stages ----------------------------------------------


def per_group_recurrent_reference(x, stage, labels, per_group, spec):
    """Gather each group's members, lift them unless already ``per_group``
    wide, recur with a plain conv, and stack; parameters are the stage's."""
    lift, inner = (stage[0], stage[1].inner) if len(stage) == 2 else (None, stage[0].inner)
    lifts = {} if lift is None else dict(zip(lift.convolved, zip(lift.kernels, lift.biases)))
    outs = []
    for g in range(labels.max() + 1):
        members = np.flatnonzero(labels == g)
        z = T.gather_rows(x, members)
        if len(members) != per_group:
            conv = Conv1DLayer(len(members), per_group, spec.kernel_width, spec.hidden_activation, record=[])
            conv.kernels, conv.bias = lifts[g]
            z = conv.forward(z)
        cell = Conv1DLayer(per_group, per_group, spec.kernel_width, spec.hidden_activation, record=[])
        cell.kernels, cell.bias = inner.kernels[g], inner.biases[g]
        outs.append(RecurrentConvLayer(cell, spec.iterations).forward(z))
    return T.concat(outs, axis=-2)


@st.composite
def recurrent_stage_cases(draw):
    per_group = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))  # a size equal to per_group passes through
    shuffle = draw(st.booleans())
    iterations = draw(st.integers(1, 3))
    kw = draw(st.integers(1, 4))
    width = draw(st.integers(1, 7))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    return per_group, sizes, shuffle, iterations, kw, width, batch, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(recurrent_stage_cases())
@example((2, [2, 1, 3], True, 2, 3, 6, (3,), 0))
def test_recurrent_grouped_stage_equals_per_group_reference(case):
    per_group, sizes, shuffle, iterations, kw, width, batch, seed = case
    rng = np.random.default_rng(seed)
    c = sum(sizes)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    if shuffle:
        labels = rng.permutation(labels)
    spec = ModelSpec(input_channels=c, input_width=width, kernel_width=kw, iterations=iterations,
                     hidden_activation="tanh")
    stage = _grouped_recurrent_stage(labels, per_group, spec, Drawing(rng))
    x = Tensor(rng.standard_normal((*batch, c, width)), requires_grad=True)
    weights = Tensor(rng.standard_normal((*batch, per_group * len(sizes), width)))
    leaves = [x] + [t for layer in stage for _, t in layer.named_params()]

    got = x
    for layer in stage:
        got = layer.forward(got)
    want = per_group_recurrent_reference(x, stage, labels, per_group, spec)
    assert got.shape == want.shape == weights.shape
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
    g_got = backward(T.sum_all(T.elementwise("mul", got, weights)), leaves=leaves)
    g_want = backward(T.sum_all(T.elementwise("mul", want, weights)), leaves=leaves)
    for leaf in leaves:
        np.testing.assert_allclose(g_got[leaf], g_want[leaf], rtol=1e-10, atol=1e-12)


CHECKPOINT_SPEC = ModelSpec(input_channels=4, input_width=4, stage_channels=(2,), pool_before=(), dense_units=(1,),
                            grouping="explicit", groups=2)


def small_checkpoint(path):
    """Write a small explicit-grouping checkpoint to ``path``; return its bytes."""
    save_checkpoint(build_model(CHECKPOINT_SPEC, [1, 2, 1, 2], seed=3), path, meta={"config": "abc"})
    return path.read_bytes()


def test_every_truncated_checkpoint_is_refused_with_a_typed_error(tmp_path):
    path = tmp_path / "checkpoint.json"
    raw = small_checkpoint(path)
    for n in range(len(raw)):
        path.write_bytes(raw[:n])
        # a cut header is not JSON; a cut body is short of its shapes
        with pytest.raises((ConfigError, ShapeError)):
            load_checkpoint(path)


@SETTINGS
@given(st.data())
def test_checkpoint_header_byte_edit_loads_or_raises_a_typed_error(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "edited.json"
    raw = small_checkpoint(path)
    at = data.draw(st.integers(0, raw.index(b"\n")))  # the newline too
    path.write_bytes(raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1 :])
    try:
        load_checkpoint(path)
    except (ConfigError, ShapeError, NumericalError):
        pass


# -- parameter draws --------------------------------------------------------


@SETTINGS
@given(st.lists(st.integers(1, 40), min_size=1, max_size=3).map(tuple),
       st.floats(1e-300, 1e300), st.integers(0, 2**32 - 1))
@example((500, 87, 3), 1 / math.sqrt(87 * 3), 3)
@example((750, 750, 3), 1 / math.sqrt(750 * 3), 0)
@example((16,), 0.01, 21)
@example((7,), 1 / math.sqrt(7), 5)
def test_in_place_draw_gives_the_bits_of_uniform(shape, bound, seed):
    # random(out=v); v *= 2b; v += -b is -b + 2b*u, the sum uniform(-b, b)
    # forms, from the same numbers; a zero bound stays zero and takes none
    param, zero = T.Parameter(T.Unfilled(shape)), T.Parameter(T.Unfilled((3,)))
    param.data, zero.data = np.zeros(shape), np.zeros(3)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    draw([(param, bound), (zero, 0.0)], rng)
    want = ref.uniform(-bound, bound, size=shape)
    np.testing.assert_array_equal(param.data.view("<u8"), want.view("<u8"))
    assert zero.data.tolist() == [0.0] * 3 and rng.random() == ref.random()


# -- the SGD step ----------------------------------------------------------


def views_of(flat, shapes):
    """``flat`` as consecutive views of the given shapes."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[start : start + size].reshape(shape))
        start += size
    return views


@st.composite
def sgd_cases(draw):
    """Parameter arrays, a few steps of gradients, and settings under
    which the norm clips on some steps and not on others."""
    shapes = draw(st.lists(hnp.array_shapes(min_dims=1, max_dims=3, max_side=4), min_size=1, max_size=4))
    # a trained parameter is never -0.0 (draws are nonzero, biases start
    # at +0.0), and adding +0.0 turns a drawn -0.0 into +0.0
    params = [draw(hnp.arrays(np.float64, s, elements=st.floats(-10, 10))) + 0.0 for s in shapes]
    cell = st.sampled_from([0.0, -0.0]) | st.floats(0.1, 10) | st.floats(-10, -0.1)
    steps = [[draw(hnp.arrays(np.float64, s, elements=cell)) * 4.0 ** i for s in shapes]
             for i in range(draw(st.integers(2, 4)))]
    steps = draw(st.permutations(steps))
    norms = [math.sqrt(sum(float((g * g).sum()) for g in step)) for step in steps]
    lo, hi = min(norms), max(norms)
    clip_norm = lo + draw(st.floats(0.25, 0.75)) * (hi - lo)
    assume(lo < clip_norm < hi)
    momentum = draw(st.just(0.0) | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    config = TrainConfig(learning_rate=draw(st.floats(1e-4, 1.0)), momentum=momentum, clip_norm=clip_norm)
    return params, steps, config


@SETTINGS
@given(sgd_cases())
def test_sgd_step_matches_the_per_tensor_update_bit_for_bit(case):
    params, steps, config = case
    shapes = [p.shape for p in params]
    flat = np.concatenate([p.ravel() for p in params])
    grad = np.empty_like(flat)
    spans = views_of(grad, shapes)
    velocity = np.zeros_like(flat) if config.momentum > 0.0 else None
    ref_velocity = [np.zeros_like(p) for p in params]
    for step in steps:
        for span, g in zip(spans, step):
            span[...] = g
        got = sgd_step(flat, grad, spans, velocity, config)
        want = reference_sgd_step(params, ref_velocity, step, config.learning_rate, config.momentum,
                                  config.clip_norm)
        assert got == want
        assert [v.tobytes() for v in views_of(flat, shapes)] == [p.tobytes() for p in params]


# -- config parsing --------------------------------------------------------

CONFIG_KEYS = st.sampled_from(["data", "path", "target", "window", "model", "preset", "stage_channels", "train",
                               "epochs", "learning_rate", "compare", "candidates", "name", "seed", "out"])
# plain tokens a hand-written config holds, many of which the YAML 1.1
# resolver reads as something other than text
PLAIN_TOKENS = ["0", "-3", "017", "0o17", "0x1f", "1_000", "12:30", "0.003", "1e-3", "1.5e+2", ".inf", "-.Inf", ".nan",
                "true", "False", "yes", "off", "~", "null", "", "water-cnn", "explicit", "[6, 6]", "[]", "{}",
                "{preset: water-cnn}", "'a b'", '"q\\"x\\u00e9"', "2020-01-31", "2001-12-14 21:59:43.10 -5",
                "runs/st07/assignment.csv", "a # comment", "d\u00e9bit", "|\n  two\n  lines", ">-\n  folded"]
config_scalars = (st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=12)
                  | st.sampled_from(PLAIN_TOKENS))
config_docs = st.dictionaries(CONFIG_KEYS, st.recursive(
    config_scalars, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(CONFIG_KEYS, kids, max_size=4),
    max_leaves=12), max_size=6)


@st.composite
def hand_written_configs(draw, depth=0):
    """Lines of a block-style config: nested sections, lists, plain tokens
    and comments, as a person writes one."""
    lines = []
    for key in draw(st.lists(CONFIG_KEYS, max_size=5, unique=True)):
        kind = draw(st.sampled_from(["token", "token", "section", "list", "comment"]))
        if kind == "section" and depth < 2:
            lines.append(f"{key}:")
            lines += ["  " + line for line in draw(hand_written_configs(depth + 1))]
        elif kind == "list":
            lines.append(f"{key}:")
            lines += [f"  - {token}" for token in draw(st.lists(st.sampled_from(PLAIN_TOKENS[:20]), max_size=3))]
        elif kind == "comment":
            lines.append(f"# {key}")
        else:
            lines.append(f"{key}: {draw(st.sampled_from(PLAIN_TOKENS))}".rstrip())
    return lines


def yaml_outcome(text, loader):
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError:
        return "refused"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@SETTINGS
@given(config_docs, st.sampled_from([False, True, None]), st.booleans(), hand_written_configs())
def test_both_yaml_loaders_read_a_config_alike(doc, flow, unicode, lines):
    """The config loader's libyaml parser gives the documents PyYAML's own
    SafeLoader gives, on configs as safe_dump writes them and as a person
    does; every config the tests themselves load is held to this too (see
    conftest.py)."""
    dumped = yaml.safe_dump(doc, default_flow_style=flow, allow_unicode=unicode, sort_keys=False)
    for text in (dumped, "\n".join(lines) + "\n"):
        assert yaml_outcome(text, yaml.CSafeLoader) == yaml_outcome(text, yaml.SafeLoader), text
    assert yaml_outcome(dumped, yaml.CSafeLoader) != "refused"


# -- data.prepare over one directory ------------------------------------------

MAX_GAP, TRAIN_FRACTION = 3, 0.8


def prepare_texts() -> dict[str, str]:
    """The data files the cache machine writes: two repairable tables, with
    a gap that repair fills, and one whose repair keeps a single series."""
    texts = {}
    for name, seed in (("one", 3), ("other", 4)):
        table = synth.generate(synth.SynthSpec(n_groups=2, per_group=2, length=30, seed=seed))
        table.values[1, 10:12] = np.nan
        texts[name] = dumps_csv(TimeSeriesDataset(table.names, table.times, table.values))
    texts["unrepairable"] = "time,a,b,c\n0,1,,\n1,2,3,4\n2,3,5,6\n"
    return texts


PREPARE_TEXTS = prepare_texts()
PREPARE_FORMS = {"lf": lambda text: text.encode(), "crlf": lambda text: text.replace("\n", "\r\n").encode(),
                 "bom": lambda text: "\ufeff".encode() + text.encode()}


def prepare_outcome(call):
    """What ``call()`` gives as comparable bits: the prepared table, its
    statistics and report, or the message of the DataError it raised."""
    try:
        prep = call()
    except DataError as e:
        return str(e)
    ds = prep.dataset
    return (ds.names, ds.times.tobytes(), ds.values.tobytes(), ds.mask.tobytes(), prep.stats.names,
            prep.stats.mean.tobytes(), prep.stats.std.tobytes(), prep.train_steps, prep.filled, prep.dropped)


class PrepareMachine(RuleBasedStateMachine):
    """``data.prepare`` over one directory, as the commands use it: the data
    file rewritten, ``parsed.bin`` damaged or replaced by a stale copy,
    stray temporary files left, and calls with the parse forced or not and
    the overlapped hash forced on or off.  Every call gives a fresh parse's
    result, stages a file exactly when it parsed, and that file holds a
    fresh parse's bytes."""

    def __init__(self):
        super().__init__()
        self.work = Path(tempfile.mkdtemp(prefix="prepare-"))
        self.data, self.cache = self.work / "data.csv", self.work / "parsed.bin"
        self.strays: set[str] = set()
        self.caches: list[bytes] = []  # every parsed.bin put in place so far
        self.threads = threading.active_count()
        self.data.write_bytes(PREPARE_FORMS["lf"](PREPARE_TEXTS["one"]))

    def teardown(self):
        shutil.rmtree(self.work)

    def fresh_cache(self) -> bytes:
        """The parsed.bin a fresh parse of the data file stages."""
        staged = stage_parsed(load_csv(self.data), self.work / "fresh.bin",
                              hashlib.sha256(self.data.read_bytes()).hexdigest())
        raw = staged.read_bytes()
        staged.unlink()
        return raw

    @rule(text=st.sampled_from(sorted(PREPARE_TEXTS)), form=st.sampled_from(sorted(PREPARE_FORMS)))
    def write_data(self, text, form):
        self.data.write_bytes(PREPARE_FORMS[form](PREPARE_TEXTS[text]))

    @precondition(lambda self: self.cache.exists() and self.cache.stat().st_size > 0)
    @rule(at=st.integers(min_value=0), bit=st.integers(min_value=0, max_value=7))
    def flip_a_byte(self, at, bit):
        raw = bytearray(self.cache.read_bytes())
        raw[at % len(raw)] ^= 1 << bit
        self.cache.write_bytes(raw)

    @precondition(lambda self: self.cache.exists() and self.cache.stat().st_size > 0)
    @rule(at=st.integers(min_value=0))
    def truncate(self, at):
        raw = self.cache.read_bytes()
        self.cache.write_bytes(raw[: at % len(raw)])

    @precondition(lambda self: self.caches)
    @rule(pick=st.integers(min_value=0))
    def put_back_an_old_copy(self, pick):
        self.cache.write_bytes(self.caches[pick % len(self.caches)])

    @rule()
    def put_a_fresh_copy_in_place(self):
        self.cache.write_bytes(self.fresh_cache())

    @rule(tag=st.sampled_from(["0123456789abcdef", "fedcba9876543210"]), raw=st.binary(max_size=64))
    def leave_a_temporary_file(self, tag, raw):
        (self.work / f"parsed.bin.{tag}.tmp").write_bytes(raw)
        self.strays.add(f"parsed.bin.{tag}.tmp")

    @rule(parse=st.booleans(), overlap=st.booleans(), commit=st.booleans())
    def prepare(self, parse, overlap, commit):
        before = self.cache.read_bytes() if self.cache.exists() else None
        fresh = self.fresh_cache()
        want = prepare_outcome(lambda: D._refined(lambda: load_csv(self.data), MAX_GAP, TRAIN_FRACTION))
        parses, staged = [], []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "load_csv", lambda *args, load=D.load_csv, **kw: parses.append(1) or load(*args, **kw))
            mp.setattr(D, "OVERLAP_BYTES", 1 if overlap else 1 << 40)
            mp.setattr(D, "_usable_cpus", lambda: 2)

            def call():
                prep, partial = D.prepare(self.data, self.cache, MAX_GAP, TRAIN_FRACTION, parse)
                staged.append(partial)
                return prep

            got = prepare_outcome(call)
        assert got == want
        assert threading.active_count() == self.threads
        if parse or before != fresh:
            assert parses == [1]
        if not parse and before == fresh:
            assert parses == []
        temporary = {p.name for p in self.work.glob("*.tmp")} - self.strays
        if isinstance(got, str):  # a raise stages nothing it leaves behind
            assert staged == [] and temporary == set()
            return
        (partial,) = staged
        assert (partial is not None) == bool(parses)
        assert temporary == ({partial.name} if partial else set())
        if partial is not None:
            assert partial.read_bytes() == fresh
            if commit:
                os.replace(partial, self.cache)
                self.caches.append(fresh)
            else:
                partial.unlink()


TestPrepareMachine = PrepareMachine.TestCase
TestPrepareMachine.settings = settings(max_examples=100, stateful_step_count=12, deadline=None)
