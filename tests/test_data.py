"""Data pipeline: CSV parsing and round-trips, the table writer's bytes,
the parsed-table file and its checks, gap repair policy, training-range standardization, windowing counts, and
splits."""

import hashlib
import json
import os
import signal
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gcnn import cli
from gcnn import data as D
from gcnn.data import (
    SplitSpec,
    TimeSeriesDataset,
    dumps_csv,
    dumps_table,
    load_csv,
    make_windows,
    repair_gaps,
    save_csv,
    stage_parsed,
    split,
    standardize,
)
from gcnn.errors import ConfigError, DataError
from oracles import load_parsed


def dataset(values, names=None, mask=None, times=None):
    values = np.asarray(values, dtype=float)
    n, l = values.shape
    return TimeSeriesDataset(
        names=names or [f"s{i}" for i in range(n)],
        times=np.arange(l, dtype=float) if times is None else np.asarray(times, dtype=float),
        values=values,
        mask=np.ones((n, l), dtype=bool) if mask is None else np.asarray(mask, dtype=bool),
    )


def parse_text(text: str) -> TimeSeriesDataset:
    """:func:`load_csv` of a file holding ``text`` as UTF-8."""
    with tempfile.TemporaryDirectory() as where:
        path = Path(where, "t.csv")
        path.write_bytes(text.encode())
        return load_csv(path)


def write_parsed(table: TimeSeriesDataset, path: Path, source_sha256: str) -> None:
    """The parsed-table file of ``table`` at ``path``, as a command commits it."""
    os.replace(stage_parsed(table, path, source_sha256), path)


def lines(path, *error) -> str:
    """The text of a file as the one text reader gives it."""
    return "".join(m[0] for m in D._lines(path, *error))


class TestLoadCsv:
    def test_simple_file(self):
        data = parse_text("time,a,b\n0,1.5,2.5\n1,3.0,4.0\n")
        assert data.names == ["a", "b"]
        np.testing.assert_array_equal(data.values, [[1.5, 3.0], [2.5, 4.0]])
        assert data.mask.all()

    def test_blank_cell_masked(self):
        data = parse_text("time,a,b\n0,1,2\n1,,4\n2,5,6\n")
        assert not data.mask[0, 1]
        assert np.isnan(data.values[0, 1])
        assert data.mask[1, 1]

    def test_iso_dates_parsed_as_ordinals(self):
        data = parse_text("date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n")
        assert data.times[1] - data.times[0] == 1.0

    def test_duplicate_stamp_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_text("time,a,b\n0,1,2\n0,3,4\n")

    def test_non_monotone_rejected(self):
        with pytest.raises(DataError, match="non-monotone"):
            parse_text("time,a,b\n5,1,2\n3,3,4\n")

    def test_malformed_row_reports_line(self):
        with pytest.raises(DataError, match="line 3"):
            parse_text("time,a,b\n0,1,2\n1,2\n")

    def test_bad_value_reports_line(self):
        with pytest.raises(DataError, match="line 2"):
            parse_text("time,a,b\n0,oops,2\n")

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_reports_line_and_series(self, token):
        with pytest.raises(DataError, match="line 4: series 'b' holds non-finite"):
            parse_text(f"time,a,b\n0,1,2\n# comment\n1,3,{token}\n2,,{token}\n")

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_time_stamp_rejected(self, token):
        with pytest.raises(DataError, match="line 3: time stamp .* is not finite"):
            parse_text(f"time,a,b\n0,1,2\n{token},3,4\n")

    def test_needs_two_series(self):
        with pytest.raises(DataError):
            parse_text("time,a\n0,1\n")

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        original = dataset(rng.standard_normal((3, 20)) * 1e7)
        original.mask[1, 4] = False
        original.values[1, 4] = np.nan
        path = tmp_path / "data.csv"
        save_csv(original, path)
        loaded = load_csv(path)
        assert loaded.names == original.names
        np.testing.assert_array_equal(loaded.mask, original.mask)
        np.testing.assert_array_equal(
            loaded.values[original.mask], original.values[original.mask]
        )


# one row per DataError message the parse of a text can raise, then inputs with two
# faults: row-level faults and unparsable values are reported in row
# order (within a row, cell count, then time stamp, then values), and a
# non-finite value only once every cell has parsed
PARSE_FAULTS = {
    "empty": ("", "empty input"),
    "comments only": ("# config abc\n#\n", "empty input"),
    "one series": ("time,a\n0,1\n", "need a time column plus at least 2 series columns"),
    "no rows": ("time,a,b\n\n , ,\n", "no data rows"),
    "repeated name": ("time,a,a\n0,1,2\n", "series names must be unique"),
    "empty name": ("# config abc\ntime,a, \n0,1,2\n", "line 2: column 3: series name '' is empty"),
    "comment name": ('time,"#c",b\n0,1,2\n', "line 1: column 2: series name '#c' starts with #, which marks a comment"),
    "cell count": ("time,a,b\n0,1,2\n1,2\n", "line 3: expected 3 cells, got 2"),
    "bad stamp": ("time,a,b\n0,1,2\nnoon,3,4\n", "line 3: cannot parse time stamp 'noon'"),
    "infinite stamp": ("time,a,b\n0,1,2\n inf ,3,4\n", "line 3: time stamp 'inf' is not finite"),
    "duplicate stamp": ("time,a,b\n0,1,2\n0.0,3,4\n", "line 3: duplicate time stamp '0.0'"),
    "non-monotone stamp": ("time,a,b\n5,1,2\n 3 ,3,4\n", "line 3: non-monotone time stamp '3'"),
    "bad value": ("time,a,b\n0,1,2\n1,3, oops \n", "line 3: cannot parse value 'oops'"),
    "non-finite value": ("time,a,b\n0,1,2\n1,3,-inf\n", "line 3: series 'b' holds non-finite value -inf"),
    "value before count": ("time,a,b\n0,x,2\n1,2\n", "line 2: cannot parse value 'x'"),
    "count before value": ("time,a,b\n0,1\n1,x,2\n", "line 2: expected 3 cells, got 2"),
    "value before stamp": ("time,a,b\n0,1,x\n1,2,3\nnoon,4,5\n", "line 2: cannot parse value 'x'"),
    "stamp before value": ("time,a,b\n0,1,2\n0,2,3\n1,x,5\n", "line 3: duplicate time stamp '0'"),
    "value before non-monotone": ("time,a,b\n5,1,2\n6,y,3\n4,4,5\n", "line 3: cannot parse value 'y'"),
    "count first in its row": ("time,a,b\n0,1,2\n1,x\n", "line 3: expected 3 cells, got 2"),
    "stamp first in its row": ("time,a,b\n0,1,2\nnoon,x,y\n", "line 3: cannot parse time stamp 'noon'"),
    "leftmost value in its row": ("time,a,b\n0,1,2\n1,x,y\n", "line 3: cannot parse value 'x'"),
    "unparsable before non-finite": ("time,a,b\n0,nan,2\n1,2,3\n2,4,z\n", "line 4: cannot parse value 'z'"),
    "row fault before non-finite": ("time,a,b\n0,inf,2\n1,2,3\n1,4,5\n", "line 4: duplicate time stamp '1'"),
    "first series with non-finite": ("time,a,b\n0,1,2\n1,2,nan\n2,inf,4\n3,nan,5\n",
                                     "line 4: series 'a' holds non-finite value inf"),
    "after a multi-line cell": ('time,"a\nb",c\n0,1,2\n1,x,3\n', "line 4: cannot parse value 'x'"),
    "after a multi-line value": ('time,a,b\n0,"1\n",2\n1,x,3\n', "line 4: cannot parse value 'x'"),
    "in a multi-line cell": ('time,a,b\n0,1,2\n1,"x\ny",3\n2,z,4\n', "line 3: cannot parse value 'x\\ny'"),
}


class TestParseContract:
    @pytest.mark.parametrize("text, message", PARSE_FAULTS.values(), ids=PARSE_FAULTS.keys())
    def test_fault_message(self, text, message):
        with pytest.raises(DataError) as info:
            parse_text(text)
        assert str(info.value) == message

    def test_blank_and_comment_lines_count_toward_line_numbers(self):
        text = "# config abc\ntime,a,b\n0,1,2\n\n# note\n , \t,\n1,3,4\n2,5,x\n"
        with pytest.raises(DataError, match="^line 8: cannot parse value 'x'$"):
            parse_text(text)
        data = parse_text(text.replace("x", "6"))
        np.testing.assert_array_equal(data.times, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(data.values, [[1.0, 3.0, 5.0], [2.0, 4.0, 6.0]])

    def test_whitespace_only_cells_are_missing(self):
        data = parse_text("time,a,b\n0, ,2\n1,3,\t\n2, 5 ,6\n")
        np.testing.assert_array_equal(data.mask, [[False, True, True], [True, False, True]])
        np.testing.assert_array_equal(data.values[data.mask], [3.0, 5.0, 2.0, 6.0])
        assert np.isnan(data.values[~data.mask]).all()

    def test_quoted_cells(self):
        data = parse_text('"time","a,1",b\n"0","1.5",""\n1,"-2e3",4\n')
        assert data.names == ["a,1", "b"]
        np.testing.assert_array_equal(data.mask, [[True, True], [False, True]])
        np.testing.assert_array_equal(data.values[0], [1.5, -2000.0])

    def test_crlf_file(self):
        lf = parse_text("time,a,b\n0,1,\n1,3,4\n")
        crlf = parse_text("time,a,b\r\n0,1,\r\n1,3,4\r\n")
        assert crlf.names == lf.names
        np.testing.assert_array_equal(crlf.mask, lf.mask)
        np.testing.assert_array_equal(crlf.values[crlf.mask], lf.values[lf.mask])
        with pytest.raises(DataError, match="^line 3: cannot parse value 'x'$"):
            parse_text("time,a,b\r\n0,1,2\r\n1,x,4\r\n")

    def test_values_are_series_major_and_contiguous(self):
        data = parse_text("time,a,b,c\n0,1,2,3\n1,4,,6\n")
        np.testing.assert_array_equal(data.mask, [[True, True], [True, False], [True, True]])
        assert data.values.flags.c_contiguous and data.mask.flags.c_contiguous
        assert data.mask.flags.writeable
        assert parse_text("time,a,b\n0,1,2\n").mask.flags.writeable

    def test_reader_fault_names_its_line(self):
        # a cell over csv.reader's limit of 131072 characters, in a file
        # with a quote; a file read with universal newlines holds no \r
        # for the reader to refuse
        with pytest.raises(DataError, match=r"^line 3: field larger than field limit \(131072\)$"):
            parse_text('"time",a,b\n0,1,2\n1,' + "3" * 131073 + ",4\n2,3,4\n")

    def test_reader_fault_wins_over_an_earlier_row_fault(self):
        with pytest.raises(DataError, match=r"^line 3: field larger than field limit \(131072\)$"):
            parse_text('time,a,b\n0,x,2\n"1",' + "3" * 131073 + ",5\n")


def traced_peak(fn) -> int:
    """Bytes ``fn()`` holds at its peak, by tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTextMemory:
    """The text of a table is parsed and rendered a row at a time, and a
    file's text is read and written a batch at a time: a file's text is
    never held whole.  (Holding every cell as a string at once peaked at
    6.4 times the text to parse this table, and rendering it from one
    ``tolist`` of the table at 3.2 times; reading the file whole before a
    parse peaked at 5.3 tables, and rendering its text whole before a
    write at 2.2 texts.)"""

    def table(self, steps=4000):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((20, steps))
        mask = np.ones(values.shape, dtype=bool)
        mask[3, 10:13] = False
        return dataset(np.where(mask, values, np.nan), mask=mask)

    def test_render_peak_is_under_two_and_a_quarter_times_the_text(self):
        data = self.table()
        assert traced_peak(lambda: dumps_csv(data)) < 2.25 * len(dumps_csv(data))

    @pytest.mark.parametrize("steps", [4000, 16000])
    def test_save_peak_does_not_grow_with_the_text(self, tmp_path, steps):
        # a batch of lines and its UTF-8 bytes, and a gap flag a step;
        # the 16000-step text is 6.4 MB
        data = self.table(steps)
        assert traced_peak(lambda: save_csv(data, tmp_path / "t.csv")) < 2**20 + steps
        assert (tmp_path / "t.csv").read_text() == dumps_csv(data)

    def test_a_scan_holds_one_piece_of_the_file(self, tmp_path):
        # reading a piece while the last one was still held peaked at 2.02
        raw = bytes(8 * D.READ_BYTES - 1) + b'"'
        (tmp_path / "t.csv").write_bytes(raw)
        assert traced_peak(lambda: D._scan(tmp_path / "t.csv")) < 1.5 * D.READ_BYTES
        assert D._scan(tmp_path / "t.csv") == (hashlib.sha256(raw).hexdigest(), True, len(raw))

    def test_load_peak_is_under_two_and_a_half_tables(self, tmp_path):
        # the present values as parsed, the table they are scattered into,
        # and one batch of the file; the text is 2.1 times the table
        data = self.table(16000)
        save_csv(data, tmp_path / "t.csv")
        table_bytes = data.values.nbytes + data.mask.nbytes + data.times.nbytes
        assert traced_peak(lambda: load_csv(tmp_path / "t.csv")) < 2.5 * table_bytes

    @pytest.mark.parametrize("faults", [{4}, {5990}, {4, 5990}], ids=["row", "byte", "row-and-byte"])
    @pytest.mark.parametrize("quoted", [False, True], ids=["blocks", "quoted"])
    def test_a_faulty_load_peaks_under_two_and_a_half_tables(self, tmp_path, monkeypatch, quoted, faults):
        # a row fault on line 4 and a bad byte on line 5990: the file, 2.1
        # tables, is read a piece at a time for the bad byte's line too
        # (reading it whole for that peaked at 4.3 to 9.9 tables)
        monkeypatch.setattr(D, "_usable_cpus", lambda: 2)
        data = self.table(6000)
        path = tmp_path / "t.csv"
        save_csv(data, path)
        lines = path.read_bytes().split(b"\n")
        if quoted:
            lines[0] = b'"time"' + lines[0].removeprefix(b"time")
        if 4 in faults:
            lines[3] += b",1"
        if 5990 in faults:
            lines[5989] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        assert path.stat().st_size >= 2 * D.BLOCK_BYTES
        messages, forks, fork = [], [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def load():
            with pytest.raises(DataError) as info:
                load_csv(path)
            messages.append(str(info.value))

        table_bytes = data.values.nbytes + data.mask.nbytes + data.times.nbytes
        assert traced_peak(load) < 2.5 * table_bytes
        want = f"{path}:5990: not valid UTF-8 (byte 0xff)" if 5990 in faults else "line 4: expected 21 cells, got 22"
        assert messages == [want] and len(forks) == (0 if quoted else 1)


def gappy_table(steps=400, series=6):
    rng = np.random.default_rng(1)
    mask = rng.random((series, steps)) > 0.05
    return dataset(np.where(mask, rng.standard_normal((series, steps)), np.nan), mask=mask)


class TestBlocks:
    """Text cut into blocks, each but the first rendered or parsed in a
    forked child, gives the bytes and tables of one block, or its error;
    and no child process or file outlives a call, whatever happens."""

    @pytest.fixture(autouse=True)
    def blocks(self, monkeypatch, tmp_path):
        """Up to four blocks for any table or file; every fork counted.
        Temporary files go to an empty directory, which must stay empty."""
        monkeypatch.setattr(D, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(D, "BLOCK_CELLS", 1)
        monkeypatch.setattr(D, "BLOCK_BYTES", 1)
        (tmp_path / "temp").mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "temp"))
        self.forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: self.forks.append(1) or fork())
        self.parent = os.getpid()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert list((tmp_path / "temp").iterdir()) == []
        assert list(tmp_path.glob("**/*.tmp")) == []

    def in_child(self) -> bool:
        return os.getpid() != self.parent

    def one_block(self, path):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(D, "_usable_cpus", lambda: 1)
            return self.outcome(path)

    def outcome(self, path):
        try:
            return bits(load_csv(path))[:4]
        except DataError as e:
            return str(e)

    @pytest.mark.parametrize("cpus", [2, 3, 4])
    def test_blocks_render_and_parse_as_one(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(D, "_usable_cpus", lambda: cpus)
        data = gappy_table()
        save_csv(data, tmp_path / "t.csv", head="# config abc\n")
        assert (tmp_path / "t.csv").read_text() == "# config abc\n" + dumps_csv(data)
        assert len(self.forks) == cpus - 1
        table = self.outcome(tmp_path / "t.csv")
        assert table == self.one_block(tmp_path / "t.csv") and table[0] == data.names
        assert len(self.forks) == 2 * (cpus - 1)

    def test_a_block_parse_builds_its_table_once(self, tmp_path, monkeypatch):
        calls, parse = [], D._parse_records
        monkeypatch.setattr(D, "_parse_records", lambda *args: calls.append(args) or parse(*args))
        path = self.file(tmp_path)
        table = self.outcome(path)
        assert len(calls) == 1 and len(self.forks) == 3
        assert table == self.one_block(path)

    def file(self, tmp_path, **edits) -> Path:
        """gappy_table's text with CRLF line ends and comment and blank
        lines, 404 lines in all; ``line_<n>=edit`` passes line n through
        ``edit``.  Four blocks start at lines 1, 107, 206 and 306."""
        lines = dumps_csv(gappy_table()).split("\n")
        lines[100:100] = ["# a note", " , , ", ""]
        for key, edit in edits.items():
            n = int(key.removeprefix("line_"))
            lines[n - 1] = edit(lines[n - 1])
        path = tmp_path / "t.csv"
        path.write_bytes("\r\n".join(lines).encode("utf-8", "surrogateescape"))
        return path

    @pytest.mark.parametrize("edit, message", [
        (lambda line: line + ",", "line 300: expected 7 cells, got 8"),
        (lambda line: "1e999" + line[line.index(","):], "line 300: time stamp '1e999' is not finite"),
        (lambda line: "9" + line, "line 301: non-monotone time stamp '296.0'"),
        (lambda line: line + "x", "line 300: cannot parse value '"),
        (lambda line: line + "9e999", "line 300: series 's5' holds non-finite value inf"),
        (lambda line: line + "\udcff", ":300: not valid UTF-8 (byte 0xff)"),
    ], ids=["count", "stamp", "order", "value", "non-finite", "utf-8"])
    def test_a_fault_in_a_later_block_raises_as_in_one(self, tmp_path, edit, message):
        path = self.file(tmp_path, line_300=edit)
        outcome = self.outcome(path)
        assert outcome == self.one_block(path) and message in outcome
        assert len(self.forks) == 3

    def first_line_of_third_block(self, tmp_path) -> tuple[int, list[str]]:
        """The line number of the first line of file()'s third block, and
        file()'s lines."""
        raw = self.file(tmp_path).read_bytes()
        cut = D._block_edges(tmp_path / "t.csv", len(raw), 4)[2]
        return raw.count(b"\n", 0, cut) + 1, raw.decode().split("\r\n")

    def test_times_that_do_not_increase_across_a_cut(self, tmp_path):
        line, lines = self.first_line_of_third_block(tmp_path)
        stamp = lines[line - 2].split(",")[0]
        path = self.file(tmp_path, **{f"line_{line}": lambda row: stamp + row[row.index(","):]})
        assert self.outcome(path) == f"line {line}: duplicate time stamp '{stamp}'" == self.one_block(path)

    def test_a_block_of_rows_wider_than_the_header(self, tmp_path):
        line, lines = self.first_line_of_third_block(tmp_path)
        path = self.file(tmp_path, **{f"line_{n}": lambda row: row + ",1" for n in range(line, len(lines))})
        assert self.outcome(path) == f"line {line}: expected 7 cells, got 8" == self.one_block(path)

    def test_an_earlier_fault_and_a_bad_byte_anywhere_still_win(self, tmp_path):
        def bad_value(line):
            stamp, _, rest = line.partition(",")
            return f"{stamp},y,{rest.partition(',')[2]}"

        later = {"line_300": lambda line: line + "x", "line_350": lambda line: line + ","}
        path = self.file(tmp_path, line_4=bad_value, **later)
        assert self.outcome(path) == "line 4: cannot parse value 'y'" == self.one_block(path)
        path = self.file(tmp_path, line_4=lambda line: line + "\udcff", **later)
        assert self.outcome(path) == f"{path}:4: not valid UTF-8 (byte 0xff)"
        path = self.file(tmp_path, line_4=bad_value, line_401=lambda line: line + "\udcff")
        assert self.outcome(path) == f"{path}:401: not valid UTF-8 (byte 0xff)"

    @pytest.mark.parametrize("crash", ["raise", "kill"])
    def test_a_crashed_child_gives_the_normal_result(self, tmp_path, monkeypatch, crash):
        def crashing(fn):
            def wrapped(*args):
                if self.in_child():
                    if crash == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise RuntimeError("a crash")
                return fn(*args)
            return wrapped

        monkeypatch.setattr(D, "_write_batched", crashing(D._write_batched))
        monkeypatch.setattr(D, "_write_rows", crashing(D._write_rows))
        data = gappy_table()
        save_csv(data, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_text() == dumps_csv(data)
        assert self.outcome(tmp_path / "t.csv") == self.one_block(tmp_path / "t.csv")
        path = self.file(tmp_path, line_300=lambda line: line + "x")
        assert self.outcome(path).startswith("line 300: cannot parse value")
        assert len(self.forks) == 9

    def test_a_failing_parent_kills_its_children(self, tmp_path, monkeypatch):
        write = D._write_batched

        def stuck(out, lines):
            if self.in_child():
                time.sleep(60)
            write(out, lines)
            raise OSError("disk full")

        monkeypatch.setattr(D, "_write_batched", stuck)
        started = time.perf_counter()
        with pytest.raises(OSError, match="disk full"):
            save_csv(gappy_table(), tmp_path / "t.csv")
        assert time.perf_counter() - started < 30 and len(self.forks) == 3


class TestDumpsTable:
    def test_assignment_bytes(self):
        assert dumps_table(["series_name", "group_id"], [["flow", 2], ["level", 1]]) == (
            "series_name,group_id\nflow,2\nlevel,1\n")

    def test_history_bytes(self):
        text = dumps_table(["epoch", "train_srmse", "val_srmse", "loss"], [(1, 0.5, 0.625, 0.25)])
        assert text == "epoch,train_srmse,val_srmse,loss\n1,0.5,0.625,0.25\n"

    def test_prediction_bytes_from_numpy_scalars(self):
        rows = zip(np.array([10.0, 11.0]), np.array([1.0, 3.0]), np.array([1.5, 2.5]))
        assert dumps_table(["t", "target", "prediction"], rows).split("\n")[1] == "10.0,1.0,1.5"
        assert dumps_table(["n"], [[np.int64(3)], [True]]) == "n\n3\n1\n"

    def test_text_is_quoted_only_when_it_must_be(self):
        cells = ["a,b", 'q"x', "l\nm", "c\rr", "g1\x0cs1", " pad ", ""]
        assert dumps_table(["name"], [[cell] for cell in cells]) == (
            'name\n"a,b"\n"q""x"\n"l\nm"\n"c\rr"\ng1\x0cs1\n pad \n\n')

    def test_names_that_need_quotes_read_back(self, tmp_path):
        original = dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], names=["a,b", 'q"x', "g1\x0cs1"])
        save_csv(original, tmp_path / "data.csv")
        assert load_csv(tmp_path / "data.csv").names == original.names


class TestReadUtf8:
    def test_line_ends_are_universal_newlines(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes("a,d\u00e9bit\r\nb\rc\n".encode())
        assert lines(path) == "a,d\u00e9bit\nb\nc\n"

    def test_byte_order_mark_reads_as_nothing(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbf# exported\ntime,a,b\n0,1,2\n")
        assert lines(path) == "# exported\ntime,a,b\n0,1,2\n"
        assert load_csv(path).names == ["a", "b"]

    def test_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbftime,a,b\n0,1,\xff\n")
        with pytest.raises(DataError) as info:
            lines(path)
        assert str(info.value) == f"{path}:2: not valid UTF-8 (byte 0xff)"

    def test_bad_byte_wins_over_an_earlier_parse_fault(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"time,a,b\n0,x,2\n1,2,3\n" + b"4,5,6\n" * 100000 + b"\xff\n")
        # the row fault is two lines in; the bad byte is in a later batch
        with pytest.raises(DataError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}:100004: not valid UTF-8 (byte 0xff)"

    @pytest.mark.parametrize("raw, where", [
        (b"\xff", ":1: not valid UTF-8 (byte 0xff)"),
        (b"a\r\nb\r\xffc\n", ":3: not valid UTF-8 (byte 0xff)"),
        (b"time,a\n0,1\n\xc3", ":3: not valid UTF-8 (byte 0xc3)"),
    ], ids=["first-byte", "after-cr-line-ends", "truncated-sequence"])
    def test_bad_byte_names_the_file_and_its_line(self, tmp_path, raw, where):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(DataError) as info:
            lines(path)
        assert str(info.value) == f"{path}{where}"
        with pytest.raises(ConfigError):
            lines(path, ConfigError)


GAPPY_CSV = "# stamp\ntime,a,b,c\n0,1.5,,-0.0\n1,2.5,3,1e-300\n2,,4,5\n"


def parsed_file(tmp_path):
    """A gappy CSV, its parse and the parsed-table file written from it."""
    source = tmp_path / "data.csv"
    source.write_text(GAPPY_CSV)
    table = load_csv(source)
    write_parsed(table, tmp_path / "parsed.bin", D._scan(source)[0])
    return source, table, tmp_path / "parsed.bin"


def rewrite(path, header=None, body=None):
    """Replace the header fields in ``header`` and the body by ``body``,
    keeping the old table digest."""
    head, _, old = path.read_bytes().partition(b"\n")
    doc = {**json.loads(head), **(header or {})}
    path.write_bytes(json.dumps(doc).encode() + b"\n" + (old if body is None else body))


def bits(table):
    return (table.names, table.times.tobytes(), table.values.tobytes(), table.mask.tobytes())


class TestParsedTable:
    def test_load_gives_the_parse_bit_for_bit(self, tmp_path):
        source, table, parsed = parsed_file(tmp_path)
        assert D._scan(source)[0] == hashlib.sha256(source.read_bytes()).hexdigest()
        loaded = load_parsed(parsed, D._scan(source)[0])
        assert bits(loaded) == bits(table)
        assert loaded.values.flags.writeable and loaded.times.flags.writeable

    def test_layout_is_a_json_line_then_little_endian_times_and_values(self, tmp_path):
        source, table, parsed = parsed_file(tmp_path)
        head, _, body = parsed.read_bytes().partition(b"\n")
        assert json.loads(head) == {"format": "gcnn.parsed/2", "source_sha256": D._scan(source)[0],
                                    "table_sha256": hashlib.sha256(b'[["a","b","c"],3]\n' + body).hexdigest(),
                                    "names": ["a", "b", "c"], "steps": 3}
        flat = np.frombuffer(body, dtype="<f8")
        assert flat[:3].tolist() == [0.0, 1.0, 2.0]
        values = flat[3:].reshape(3, 3)  # series after series, NaN where a cell was empty
        assert np.array_equal(values, [[1.5, 2.5, np.nan], [np.nan, 3, 4], [-0.0, 1e-300, 5]], equal_nan=True)
        assert np.signbit(values[2, 0])

    @pytest.mark.parametrize("edit", [
        lambda p: p.unlink(),
        lambda p: p.write_bytes(b""),
        lambda p: p.write_bytes(p.read_bytes()[:-1]),
        lambda p: p.write_bytes(p.read_bytes() + b"\0"),
        lambda p: p.write_bytes(p.read_bytes()[:-1] + b"\x7f"),
        lambda p: p.write_bytes(b"\xff" + p.read_bytes()),
        lambda p: p.write_bytes(b"[]\n" + p.read_bytes().partition(b"\n")[2]),
        lambda p: rewrite(p, {"format": "gcnn.parsed/1"}),
        lambda p: rewrite(p, {"source_sha256": "0" * 64}),
        lambda p: rewrite(p, {"steps": 2}),
        lambda p: rewrite(p, {"steps": True}),
        lambda p: rewrite(p, {"steps": 0}, b""),
        lambda p: rewrite(p, {"steps": 10**15}),
        lambda p: rewrite(p, {"names": ["a", "b"]}),
        lambda p: rewrite(p, {"names": ["a", "b", "d"]}),
        lambda p: rewrite(p, {"names": ["a", "b", "#c"]}),
        lambda p: rewrite(p, {"names": ["a", "", "c"]}),
        lambda p: rewrite(p, {"names": ["a", " b", "c"]}),
        lambda p: rewrite(p, {"names": ["a", "a", "c"]}),
        lambda p: rewrite(p, {"names": ["a", 2, "c"]}),
        lambda p: rewrite(p, {"names": "abc"}),
    ], ids=["missing", "empty", "short", "long", "body-digest", "header-not-utf8", "header-not-a-mapping", "format",
            "other-source", "steps-off", "steps-bool", "no-steps", "steps-huge", "names-off", "name-edited", "comment-name",
            "empty-name", "unstripped-name", "repeated-name", "name-not-text", "names-not-a-list"])
    def test_any_failed_check_is_a_miss(self, tmp_path, edit):
        source, table, parsed = parsed_file(tmp_path)
        edit(parsed)
        assert load_parsed(parsed, D._scan(source)[0]) is None

    def test_with_no_source_digest_any_source_is_taken_and_reported(self, tmp_path):
        _, table, parsed = parsed_file(tmp_path)
        rewrite(parsed, {"source_sha256": "0" * 64})
        with D.open_parsed(parsed) as (source, load):
            assert source == "0" * 64 and bits(load()) == bits(table)

    def test_a_source_of_fewer_bytes_than_cells_is_a_miss_on_the_header(self, tmp_path, monkeypatch):
        """Each cell below the header row takes a byte of its CSV at least:
        12 here, 4 columns of 3 steps."""
        source, table, parsed = parsed_file(tmp_path)
        assert bits(load_parsed(parsed, None, 12)) == bits(table)
        monkeypatch.setattr(D, "_table_sha256", lambda *args: pytest.fail("the body was read"))
        assert load_parsed(parsed, None, 11) is None
        assert load_parsed(parsed, D._scan(source)[0], 11) is None

    @pytest.mark.parametrize("edit", [
        lambda t: t.values.__setitem__((0, 1), np.inf),
        lambda t: t.values.__setitem__((2, 2), -np.inf),
        lambda t: t.times.__setitem__(2, np.inf),
        lambda t: t.times.__setitem__(1, np.nan),
        lambda t: t.times.__setitem__(2, 1.0),
        lambda t: t.names.__setitem__(1, "#b"),
        lambda t: t.names.__setitem__(1, "a"),
    ], ids=["inf-value", "minus-inf-value", "inf-time", "nan-time", "repeated-time", "comment-name", "repeated-name"])
    def test_a_forged_table_with_its_digest_recomputed_is_a_miss(self, tmp_path, edit):
        source, table, parsed = parsed_file(tmp_path)
        edit(table)
        write_parsed(table, parsed, D._scan(source)[0])
        assert load_parsed(parsed, D._scan(source)[0]) is None

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A command renames the table it staged into place once it
        succeeds; a rename that fails leaves no file."""
        save_csv(dataset(np.arange(12.0).reshape(3, 4) ** 2), tmp_path / "data.csv")
        config = {"data": {"path": str(tmp_path / "data.csv")}, "out": str(tmp_path / "out")}
        (tmp_path / "run.yaml").write_text(json.dumps(config))

        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(D.os, "replace", broken)
        with pytest.raises(OSError, match="disk full"):
            cli.main(["ingest", str(tmp_path / "run.yaml")])
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["dataset.csv", "ingest.json"]

    def test_a_staged_write_that_fails_leaves_no_file(self, tmp_path, monkeypatch):
        source, table, parsed = parsed_file(tmp_path)
        parsed.unlink()
        dumps = json.dumps

        def header_fails(doc, **kw):  # the header is rendered once the file is open
            if isinstance(doc, dict):
                raise OSError("disk full")
            return dumps(doc, **kw)

        monkeypatch.setattr(D.json, "dumps", header_fails)
        with pytest.raises(OSError, match="disk full"):
            stage_parsed(table, parsed, D._scan(source)[0])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.csv"]

    def test_each_writer_stages_a_file_of_its_own(self, tmp_path):
        """Two writers into one directory never share a temporary file, and
        a file left under the old fixed name is neither used nor changed."""
        source, table, parsed = parsed_file(tmp_path)
        good = parsed.read_bytes()
        (tmp_path / "parsed.bin.tmp").write_bytes(b"a writer's partial file")
        first, second = stage_parsed(table, parsed, D._scan(source)[0]), stage_parsed(table, parsed, D._scan(source)[0])
        assert first != second and first.parent == second.parent == tmp_path
        assert all(p.name.startswith("parsed.bin.") and p.suffix == ".tmp" for p in (first, second))
        assert first.read_bytes() == second.read_bytes() == good
        assert (tmp_path / "parsed.bin.tmp").read_bytes() == b"a writer's partial file"
        assert parsed.read_bytes() == good  # staging does not touch the file in place


class TestDatasetInvariants:
    def test_unique_names(self):
        with pytest.raises(DataError, match="unique"):
            dataset(np.ones((2, 3)), names=["x", "x"])

    def test_increasing_times(self):
        with pytest.raises(DataError, match="increasing"):
            dataset(np.ones((2, 3)), times=[0.0, 2.0, 2.0])

    @pytest.mark.parametrize("times", [[0.0, np.nan, 2.0, 3.0], [0.0, 1.0, 2.0, np.inf], [-np.inf, 1.0, 2.0, 3.0]],
                             ids=["nan", "inf", "minus-inf"])
    def test_finite_times(self, times):
        with pytest.raises(DataError, match="time stamps must be finite"):
            dataset(np.ones((2, 4)), times=times)

    def test_no_mask_marks_the_cells_that_are_not_nan(self):
        data = TimeSeriesDataset(["a", "b"], [0.0, 1.0, 2.0], [[1.0, np.nan, 3.0], [4.0, 5.0, np.nan]])
        np.testing.assert_array_equal(data.mask, [[True, False, True], [True, True, False]])

    def test_a_finite_cell_may_be_marked_missing(self):
        data = dataset([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], mask=[[True, False, True], [True] * 3])
        assert not data.mask[0, 1] and data.values[0, 1] == 2.0

    def test_a_nan_marked_present_is_refused(self):
        with pytest.raises(DataError, match="^series 's1' holds NaN marked present at step 2$"):
            dataset([[1.0, np.nan, 3.0], [4.0, 5.0, np.nan]], mask=[[True, False, True], [True] * 3])

    @pytest.mark.parametrize("mask", [None, [[True] * 3] * 2, [[True, False, True], [True] * 3]],
                             ids=["no-mask", "present", "missing"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_an_infinity_is_refused(self, mask, value):
        with pytest.raises(DataError, match="^series 's0' holds an infinity at step 1$"):
            TimeSeriesDataset(["s0", "s1"], [0.0, 1.0, 2.0], [[1.0, value, 3.0], [4.0, 5.0, 6.0]], mask)

    def test_series_lookup(self):
        data = dataset([[1.0, 2.0], [3.0, 4.0]], names=["flow", "stage"])
        np.testing.assert_array_equal(data.series("stage"), [3.0, 4.0])
        with pytest.raises(DataError, match="unknown series"):
            data.series("depth")


class TestRepairGaps:
    def test_midpoint_interpolation(self):
        data = dataset([[1.0, np.nan, 3.0], [0.0, 1.0, 2.0]], mask=[[True, False, True], [True] * 3])
        repaired, report = repair_gaps(data, max_gap=1)
        np.testing.assert_array_equal(repaired.values[0], [1.0, 2.0, 3.0])
        assert report.filled == [("s0", 1, 1)]
        assert repaired.mask.all()

    def test_long_run_interpolated_linearly(self):
        values = np.array([[0.0, np.nan, np.nan, np.nan, 4.0], np.arange(5.0)])
        mask = ~np.isnan(values)
        repaired, _ = repair_gaps(dataset(values, mask=mask), max_gap=3)
        np.testing.assert_allclose(repaired.values[0], [0.0, 1.0, 2.0, 3.0, 4.0], atol=1e-12)

    def test_gap_over_cap_drops_series(self):
        values = np.array([[0.0, np.nan, np.nan, 3.0], np.arange(4.0)])
        mask = ~np.isnan(values)
        data = dataset(np.vstack([values, np.arange(4.0) * 2.0]), mask=np.vstack([mask, np.ones(4, bool)]))
        repaired, report = repair_gaps(data, max_gap=1)
        assert repaired.names == ["s1", "s2"]
        assert report.dropped[0][0] == "s0"
        assert "exceeds cap" in report.dropped[0][1]

    def test_missing_endpoint_drops_series(self):
        values = np.array([[np.nan, 1.0, 2.0], np.arange(3.0), np.arange(3.0) * 3])
        mask = ~np.isnan(values)
        repaired, report = repair_gaps(dataset(values, mask=mask), max_gap=5)
        assert repaired.names == ["s1", "s2"]
        assert report.dropped == [("s0", "missing endpoint")]

    def test_two_month_policy(self):
        # 61 missing daily steps are filled; 62 cause a drop
        l = 200
        base = np.sin(np.arange(l) / 7.0) + 2.0
        for run, kept in ((61, True), (62, False)):
            values = np.vstack([base.copy(), base * 2.0, base * 3.0])
            mask = np.ones((3, l), dtype=bool)
            mask[0, 50 : 50 + run] = False
            values[0, 50 : 50 + run] = np.nan
            repaired, report = repair_gaps(dataset(values, mask=mask), max_gap=61)
            assert ("s0" in repaired.names) == kept

    def test_idempotent(self):
        values = np.array([[1.0, np.nan, 3.0, 4.0], np.arange(4.0)])
        mask = ~np.isnan(values)
        once, _ = repair_gaps(dataset(values, mask=mask), max_gap=2)
        twice, report = repair_gaps(once, max_gap=2)
        np.testing.assert_array_equal(once.values, twice.values)
        assert report.filled == [] and report.dropped == []

    def test_irregular_steps_rejected(self):
        data = dataset(np.ones((2, 4)) * np.arange(4), times=[0.0, 1.0, 2.0, 10.0])
        with pytest.raises(DataError, match="fixed-step"):
            repair_gaps(data, max_gap=2)

    def test_all_dropped_is_error(self):
        values = np.full((2, 4), np.nan)
        values[:, 0] = 1.0
        mask = ~np.isnan(values)
        with pytest.raises(DataError, match="usable series"):
            repair_gaps(dataset(values, mask=mask), max_gap=0)


class TestStandardize:
    def test_train_range_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        data = dataset(rng.standard_normal((3, 100)) * 5.0 + 7.0)
        scaled, stats, dropped = standardize(data, train_steps=80)
        assert dropped == []
        head = scaled.values[:, :80]
        np.testing.assert_allclose(head.mean(axis=1), np.zeros(3), atol=1e-12)
        np.testing.assert_allclose(head.std(axis=1), np.ones(3), atol=1e-12)

    def test_constant_series_dropped(self):
        data = dataset(np.vstack([np.ones(50), np.arange(50.0), np.arange(50.0) ** 2]))
        scaled, stats, dropped = standardize(data, train_steps=40)
        assert dropped == ["s0"]
        assert scaled.names == ["s1", "s2"]

    def test_test_range_keeps_level_shift(self):
        # shift after the train boundary must survive scaling
        base = np.sin(np.arange(100) / 5.0)
        shifted = base.copy()
        shifted[90:] += 10.0
        data = dataset(np.vstack([shifted, base]))
        scaled, stats, _ = standardize(data, train_steps=90)
        tail_gap = scaled.values[0, 90:] - (shifted[90:] - shifted[:90].mean()) / stats.std[0]
        np.testing.assert_allclose(tail_gap, np.zeros(10), atol=1e-12)
        assert scaled.values[0, 90:].mean() > 5.0

    def test_requires_gap_free(self):
        values = np.ones((2, 5))
        mask = np.ones((2, 5), dtype=bool)
        mask[0, 2] = False
        with pytest.raises(DataError, match="repair"):
            standardize(dataset(values, mask=mask), train_steps=4)


class CountingUfunc:
    """A numpy ufunc that notes each call and each reduce."""

    def __init__(self, ufunc, calls):
        self.ufunc, self.calls = ufunc, calls

    def __call__(self, *args, **kwargs):
        self.calls.append(self.ufunc.__name__)
        return self.ufunc(*args, **kwargs)

    def reduce(self, *args, **kwargs):
        self.calls.append(self.ufunc.__name__ + ".reduce")
        return self.ufunc.reduce(*args, **kwargs)


class TestFiniteTables:
    """Values whose sum is finite hold no NaN and no infinity, so the
    dataset marks every cell present, or keeps the mask it is given,
    without its scan for NaN and infinities.  repair_gaps and standardize
    make such tables, unless a value overflows, which the scan still
    names; values whose sum alone overflows still make a table."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        for name in ("isnan", "fmax", "fmin"):
            monkeypatch.setattr(np, name, CountingUfunc(getattr(np, name), calls))
        return calls

    @pytest.mark.parametrize("mask", [None, [[True, False, True], [True] * 3]], ids=["no-mask", "mask"])
    def test_a_finite_table_is_not_scanned(self, scans, mask):
        data = TimeSeriesDataset(["a", "b"], [0.0, 1.0, 2.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], mask)
        assert scans == []
        np.testing.assert_array_equal(data.mask, np.ones((2, 3), bool) if mask is None else mask)

    def test_a_table_with_nan_is_scanned(self, scans):
        data = TimeSeriesDataset(["a", "b"], [0.0, 1.0, 2.0], [[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]])
        assert "isnan" in scans and "fmax.reduce" in scans
        np.testing.assert_array_equal(data.mask, [[True, False, True], [True] * 3])

    def test_repaired_and_standardized_tables_are_not_scanned(self, scans):
        values = np.array([[1.0, np.nan, 3.0, 4.0], [0.5, 1.0, 2.0, 3.0], [0.0, 0.0, 0.0, 0.0]])
        data = dataset(values, mask=~np.isnan(values))
        scans.clear()
        repaired, _ = repair_gaps(data, max_gap=1)
        scaled, _, dropped = standardize(repaired, train_steps=3)
        assert scans == [] and dropped == ["s2"]
        assert repaired.mask.all() and scaled.mask.all()

    def test_a_fill_that_overflows_is_refused(self):
        values = np.array([[-1e308, np.nan, 1e308], [0.0, 1.0, 2.0]])
        with np.errstate(over="ignore"), pytest.raises(DataError, match="^series 's0' holds an infinity at step 1$"):
            repair_gaps(dataset(values, mask=~np.isnan(values)), max_gap=1)

    def test_a_scaled_value_that_overflows_is_refused(self):
        # the training range varies by 1e-100 and the tail reaches 1e300
        with np.errstate(over="ignore"), pytest.raises(DataError, match="^series 's0' holds an infinity at step 2$"):
            standardize(dataset([[0.0, 1e-100, 1e300], [0.0, 1.0, 2.0]]), train_steps=2)

    def test_values_whose_sum_overflows_make_a_table(self):
        values = np.full((2, 3), 1e308)
        values[0, 1] = np.nan
        repaired, report = repair_gaps(dataset(values, mask=~np.isnan(values)), max_gap=1)
        assert report.filled == [("s0", 1, 1)]
        assert repaired.mask.all() and (repaired.values == 1e308).all()


class TestMakeWindows:
    def test_boundary_count(self):
        data = dataset(np.random.default_rng(3).standard_normal((3, 64)))
        wset = make_windows(data, "s0", window=64)
        assert wset.n_samples == 1

    def test_channel_counts_for_both_corpora(self):
        rng = np.random.default_rng(4)
        for n_series, channels in ((88, 87), (148, 147)):
            data = dataset(rng.standard_normal((n_series, 70)))
            wset = make_windows(data, "s0", window=64)
            assert wset.n_channels == channels

    def test_target_excluded_by_name_and_value(self):
        rng = np.random.default_rng(5)
        values = rng.standard_normal((4, 30))
        data = dataset(values)
        wset = make_windows(data, "s2", window=8)
        assert "s2" not in wset.channel_names
        # poke the target series; inputs must be unaffected copies
        data.values[2, :] = 999.0
        assert not np.any(wset.inputs == 999.0)

    def test_window_alignment(self):
        data = dataset(np.vstack([np.arange(10.0), np.arange(10.0) * 10.0]))
        wset = make_windows(data, "s0", window=3)
        assert wset.n_samples == 8
        # sample 0 ends at t=2: channel s1 covers steps 0..2, target s0 at 2
        np.testing.assert_array_equal(wset.inputs[0, 0], [0.0, 10.0, 20.0])
        assert wset.targets[0] == 2.0
        assert wset.times[0] == 2.0

    def test_segment_sample_counts(self):
        # a masked step splits the timeline; each segment contributes
        # max(0, len - T + 1) samples
        values = np.random.default_rng(6).standard_normal((2, 20))
        mask = np.ones((2, 20), dtype=bool)
        mask[0, 7] = False
        data = dataset(values, mask=mask)
        wset = make_windows(data, "s0", window=4)
        assert wset.n_samples == (7 - 4 + 1) + (12 - 4 + 1)

    def test_window_too_long(self):
        data = dataset(np.ones((2, 5)) * np.arange(5))
        with pytest.raises(DataError, match="exceeds"):
            make_windows(data, "s0", window=6)

    def test_no_usable_stretch(self):
        values = np.random.default_rng(7).standard_normal((2, 6))
        mask = np.ones((2, 6), dtype=bool)
        mask[0, ::2] = False
        with pytest.raises(DataError, match="fully-observed"):
            make_windows(dataset(values, mask=mask), "s1", window=3)


class TestSplit:
    def make_set(self, s=100):
        data = dataset(np.random.default_rng(9).standard_normal((3, s + 4)))
        return make_windows(data, "s0", window=5)

    def test_90_10(self):
        wset = self.make_set(100)
        train, test = split(wset, SplitSpec(0.9))
        assert train.n_samples == 90
        assert test.n_samples == 10

    def test_chronological_ordering(self):
        train, test = split(self.make_set(50), SplitSpec(0.9))
        assert train.times.max() < test.times.min()

    def test_shuffled_reproducible(self):
        wset = self.make_set(40)
        t1, _ = split(wset, SplitSpec(0.8, mode="shuffled", seed=7))
        t2, _ = split(wset, SplitSpec(0.8, mode="shuffled", seed=7))
        np.testing.assert_array_equal(t1.times, t2.times)
        t3, _ = split(wset, SplitSpec(0.8, mode="shuffled", seed=8))
        assert not np.array_equal(t1.times, t3.times)

    def test_degenerate_split_rejected(self):
        data = dataset(np.random.default_rng(10).standard_normal((3, 6)))
        wset = make_windows(data, "s0", window=5)  # 2 samples
        with pytest.raises(DataError, match="degenerate"):
            split(wset, SplitSpec(0.4))  # floor(2 * 0.4) = 0 train samples

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0)
        with pytest.raises(ConfigError):
            SplitSpec(0.0)
