"""Time-series ingestion: wide CSV parsing, gap repair, standardization,
windowing into regression samples, and train/test splitting.

Datasets are series-major: ``values[i, t]`` is series i at time step t,
with ``mask[i, t]`` false where the cell was empty.  Missing values are
stored as NaN so accidental use fails loudly downstream, and the mask a
table is built without is its non-NaN cells.  Every text file, the data
file, an assignment and a config, becomes text one way, streamed:
:func:`_lines`, whose decode names the line of a byte that is not UTF-8
with no read of its own, so a load that faults in one block reads the
data file twice, to hash it and to parse it, as a good load does.  The
data file is parsed as it is read and rendered as it is written
(:func:`save_csv`), a batch of lines at a time.

:func:`prepare` gives the table both algorithms read, the data file
repaired and standardized, and alone decides when the ``parsed.bin``
cache, an earlier parse saved in binary, stands in for a parse;
:func:`load_csv` only parses.

Large text is cut into blocks, one per usable CPU, each but the first
handled in a forked child: a quote-free data file of at least two
:data:`BLOCK_BYTES` parses in blocks of whole lines, and a table of at
least two :data:`BLOCK_CELLS` cells renders in blocks of time steps.
The bytes and tables are those of one block.  A block that faults, or
whose child fails, is done again in this process, and every child is
reaped before the call returns.
"""

from __future__ import annotations

import array
import codecs
import contextlib
import csv
import datetime
import hashlib
import io
import itertools
import json
import math
import numbers
import os
import re
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, NoReturn, Sequence, TypeVar

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, DataError, GcnnError

__all__ = [
    "TimeSeriesDataset",
    "WindowedRegressionSet",
    "SplitSpec",
    "RepairReport",
    "StandardizeStats",
    "Prepared",
    "prepare",
    "load_csv",
    "load_assignment",
    "save_csv",
    "table_lines",
    "write_lines",
    "dumps_table",
    "repair_gaps",
    "standardize",
    "make_windows",
    "split",
]

DEFAULT_MAX_GAP = 61  # daily steps; the two-month interpolation cap
PARSED_FORMAT = "gcnn.parsed/2"

_T = TypeVar("_T")


@dataclass
class TimeSeriesDataset:
    """Named series over a shared strictly-increasing time index.

    A present cell holds a finite value; a missing one may hold any value
    but an infinity.  ``mask`` None marks the cells that are not NaN
    present.  A mask that marks a NaN present, or any infinity, raises
    DataError."""

    names: list[str]
    times: np.ndarray  # (L,)
    values: np.ndarray  # (N, L), NaN where missing
    mask: np.ndarray | None = None  # (N, L) bool, True = present

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        # a sum is finite only when every cell is: then no cell is NaN or
        # infinite, every cell is present, and nothing is left to check
        with np.errstate(over="ignore", invalid="ignore"):
            finite = np.isfinite(np.add.reduce(self.values, axis=None))
        given = self.mask is not None
        if given:
            self.mask = np.asarray(self.mask, dtype=bool)
        elif finite:
            self.mask = np.ones(self.values.shape, dtype=bool)
        else:  # worked out in place: no second array the size of the mask
            self.mask = np.isnan(self.values)
            np.logical_not(self.mask, out=self.mask)
        n, l = self.values.shape
        if len(self.names) != n:
            raise DataError(f"{len(self.names)} names for {n} series")
        if n < 2:
            raise DataError(f"need at least 2 series, got {n}")
        if len(set(self.names)) != n:
            raise DataError("series names must be unique")
        if self.times.shape != (l,):
            raise DataError(f"time index length {self.times.shape} does not match {l} steps")
        if self.mask.shape != (n, l):
            raise DataError("mask shape does not match values")
        if not np.isfinite(self.times).all():
            raise DataError("time stamps must be finite")
        if l >= 2 and np.any(np.diff(self.times) <= 0):
            raise DataError("time index must be strictly increasing")
        # reductions, so no array the size of the table is made: fmax and
        # fmin skip NaN and find an infinity anywhere; maximum over the
        # present cells keeps NaN and finds one a given mask marks present
        if not finite and (np.isinf(np.fmax.reduce(self.values, axis=None))
                           or np.isinf(np.fmin.reduce(self.values, axis=None))
                           or given and np.isnan(np.maximum.reduce(self.values, axis=None, where=self.mask,
                                                                   initial=-np.inf))):
            i, t = np.argwhere(np.isinf(self.values) | self.mask & np.isnan(self.values))[0]
            kind = "an infinity" if np.isinf(self.values[i, t]) else "NaN marked present"
            raise DataError(f"series {self.names[i]!r} holds {kind} at step {t}")

    @property
    def n_series(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def series(self, name: str) -> np.ndarray:
        return self.values[self.index_of(name)]

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise DataError(f"unknown series {name!r}; have {self.names}") from None


@dataclass
class RepairReport:
    """What gap repair did: interpolated runs and dropped series."""

    filled: list[tuple[str, int, int]] = field(default_factory=list)  # (name, start step, run length)
    dropped: list[tuple[str, str]] = field(default_factory=list)  # (name, reason)


@dataclass
class StandardizeStats:
    """Per-series training-range statistics used for scaling."""

    names: list[str]
    mean: np.ndarray
    std: np.ndarray


@dataclass
class WindowedRegressionSet:
    """Supervised samples: trailing windows of all series except the target.

    ``inputs[s]`` is (N-1, T) covering steps t-T+1..t in dataset channel
    order with the target series removed; ``targets[s]`` is the target at
    step t; ``times[s]`` is that step's stamp.  As built by
    :func:`make_windows` from gap-free data, ``inputs`` is a read-only
    view of one copy of the channel rows, and chronological subsets are
    views of it too.
    """

    inputs: np.ndarray  # (S, N-1, T)
    targets: np.ndarray  # (S,)
    times: np.ndarray  # (S,)
    channel_names: list[str]
    target_name: str
    window: int

    def __post_init__(self):
        s = self.inputs.shape[0]
        if self.targets.shape != (s,) or self.times.shape != (s,):
            raise DataError("targets/times length does not match sample count")
        if self.inputs.ndim != 3 or self.inputs.shape[2] != self.window:
            raise DataError(f"inputs must be (S, C, {self.window}), got {self.inputs.shape}")
        if len(self.channel_names) != self.inputs.shape[1]:
            raise DataError("channel name count does not match input channels")

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices: Sequence[int]) -> "WindowedRegressionSet":
        """Samples at ``indices``; a ``range`` of in-bounds, increasing
        indices is taken as a basic slice, so the result is a view."""
        if (isinstance(indices, range) and indices.step > 0
                and 0 <= indices.start and indices.stop <= self.n_samples):
            idx = slice(indices.start, indices.stop, indices.step)
        else:
            idx = np.asarray(list(indices), dtype=int)
        return WindowedRegressionSet(
            self.inputs[idx], self.targets[idx], self.times[idx],
            self.channel_names, self.target_name, self.window,
        )


@dataclass
class SplitSpec:
    """How to divide samples between training and testing."""

    train_fraction: float = 0.9
    mode: str = "chronological"  # or "shuffled"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction: must be in (0, 1), got {self.train_fraction}")
        if self.mode not in ("chronological", "shuffled"):
            raise ConfigError(f"mode: must be chronological or shuffled, got {self.mode!r}")


def _parse_time(token: str, line_no: int) -> float:
    token = token.strip()
    try:
        stamp = float(token)
    except ValueError:
        pass
    else:
        if not math.isfinite(stamp):
            raise DataError(f"line {line_no}: time stamp {token!r} is not finite")
        return stamp
    try:
        return float(datetime.date.fromisoformat(token).toordinal())
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse time stamp {token!r}") from None


def _parse_records(records: Iterator[tuple[int, list[str]]],
                   parts: Callable[[], list[BinaryIO | None]] = list) -> TimeSeriesDataset:
    """The table of a stream of ``(line, cells)`` records, the one table
    builder of :func:`load_csv`.  Rows are parsed as they are read, so the
    cells of one row at a time are held as strings, and the present
    values go straight into the series-major table.  When
    a row is at fault the rest of the stream is still read, so a fault the
    tokenizer finds further on is the one raised.

    ``records`` holds the header and the first block of rows; ``parts``,
    called once those have parsed, returns the files of the later blocks
    (:func:`_write_rows`), or None for a block that failed, and none for a
    text of one block.  Their rows follow in order, :data:`READ_BYTES` at
    a time.  A failed part, or one of another width than the header's,
    raises DataError."""
    try:
        header = _parse_header(records)
        names, width = header[1:], len(header)
        _, stamps, lines, present, parsed = _read_rows(records, width)
    except DataError:
        for _ in records:
            pass
        raise
    files = parts()
    if None in files or any(np.frombuffer(f.read(8), dtype=np.int64)[0] not in (0, width) for f in files):
        raise DataError("a block did not parse")  # the one-block parse names the fault
    counts = [len(stamps)] + [(os.fstat(f.fileno()).st_size - 8) // (8 * width) for f in files]
    if not any(counts):
        raise DataError("no data rows")
    times = np.empty(sum(counts))
    times[: counts[0]] = stamps
    values = np.full((len(names), len(times)), np.nan)
    by_row = np.frombuffer(present, dtype=bool).reshape(counts[0], len(names))
    values.T[: counts[0]][by_row] = np.frombuffer(parsed)  # scattered into the series-major table, no transposed copy
    del parsed
    # float() also reads nan and inf; refuse them as present values (empty
    # cells are the missing ones)
    bad = by_row.T & ~np.isfinite(values[:, : counts[0]])
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        t = int(np.argmax(bad[i]))
        raise DataError(f"line {lines[t]}: series {names[i]!r} holds non-finite value {float(values[i, t])!r}")
    step, t = max(1, READ_BYTES // (8 * width)), counts[0]
    for f, count in zip(files, counts[1:]):
        for i in range(0, count, step):
            n = min(step, count - i)
            rows = np.frombuffer(f.read(8 * width * n)).reshape(n, width)
            times[t : t + n], values[:, t : t + n] = rows[:, 0], rows[:, 1:].T
            t += n
    # every present value is finite, so the missing ones are the NaNs
    return TimeSeriesDataset(names, times, values)


def _parse_header(records: Iterator[tuple[int, list[str]]]) -> list[str]:
    """The stripped cells of the first record, the header, checked."""
    first = next(records, None)
    if first is None:
        raise DataError("empty input")
    header = [h.strip() for h in first[1]]
    _check_names(header[1:], first[0])
    return header


def _read_rows(records: Iterator[tuple[int, list[str]]], width: int | None):
    """The data rows of ``records``, each of ``width`` cells (None: as many
    as the first), parsed as they are read; rows of blank cells are
    skipped.  Returns the width, then the rows' stamps, the line of each,
    one presence byte a value cell and the present values in row order."""
    times = array.array("d")
    lines = array.array("q")  # the line of each data row
    parsed = array.array("d")  # the present values, row after row
    present = bytearray()  # one byte a cell, read in place as the bool mask
    for line_no, row in records:
        cells = list(map(str.strip, row))
        if not any(cells):
            continue
        width = width or len(row)
        if len(row) != width:
            raise DataError(f"line {line_no}: expected {width} cells, got {len(row)}")
        stamp = _parse_time(row[0], line_no)
        if times and stamp <= times[-1]:
            kind = "duplicate" if stamp == times[-1] else "non-monotone"
            raise DataError(f"line {line_no}: {kind} time stamp {row[0].strip()!r}")
        times.append(stamp)
        lines.append(line_no)
        cells = cells[1:]
        flags = bytes(map(bool, cells))
        try:
            parsed.extend(map(float, itertools.compress(cells, flags)))
        except ValueError:
            for cell in filter(None, cells):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"line {line_no}: cannot parse value {cell!r}") from None
            raise
        present += flags
    return width, times, lines, present, parsed


def _check_names(names: Sequence[str], line_no: int) -> None:
    """Refuse a header's series names, on line ``line_no``: fewer than two,
    or one that is empty or starts with ``#``, since a name heads its row
    in assignment.csv, where either would not read back as that name."""
    if len(names) < 2:
        raise DataError("need a time column plus at least 2 series columns")
    for column, name in enumerate(names, start=2):
        if not name or name.startswith("#"):
            why = "starts with #, which marks a comment" if name else "is empty"
            raise DataError(f"line {line_no}: column {column}: series name {name!r} {why}")


# a line and its newline, or a last line without one
_LINE = re.compile(r".*\n|.+")


def _tokenize(lines: Iterable[re.Match], quoted: bool, place: str = "line ") -> Iterator[tuple[int, list[str]]]:
    """The non-comment CSV records of ``lines``, matches of :data:`_LINE`
    in order, each with the line it starts on, read as it is reached.

    Only quotes make CSV tokenizing depend on context.  Text that is not
    ``quoted`` is split with no state machine: each line is a record of
    the pieces between its commas, an empty line is the empty record, and
    a final newline ends the last record rather than starting one.  These
    are the records ``csv.reader`` gives for such text, without its limit
    of 131072 characters a cell.

    Quoted text goes through ``csv.reader`` with the default dialect, the
    only parser here of quoted cells.  A record starts one past the line
    the previous one ended on, so a quoted cell that spans lines moves
    the count on by every line it covers.  A fault the reader finds is
    raised as a DataError naming the line it is on after ``place`` (the
    data file's ``line 3:``, an assignment's ``path:3:``), once the rest
    of ``lines`` is read, so a byte further on that is not UTF-8 wins."""
    if not quoted:
        for n, m in enumerate(lines, start=1):
            line = m[0].removesuffix("\n")
            if not line.lstrip().startswith("#"):
                yield n, line.split(",") if line else []
        return
    reader = csv.reader(m[0] for m in lines)
    line_no = 1
    try:
        for row in reader:
            if not (row and row[0].lstrip().startswith("#")):
                yield line_no, row
            line_no = reader.line_num + 1
    except csv.Error as e:
        for _ in lines:
            pass
        raise DataError(f"{place}{reader.line_num}: {e}") from None


# bytes a read of a data file takes: hashing, and decoding for the parse
READ_BYTES = 1 << 18

# the least work a block of text is given: a block more is a process
# more, and a fork and reap cost about 3 ms on a 2-vCPU x86-64 VM, in a
# process of 50 MB; there a cell renders in 1.36 us and a byte of a data
# file parses in 48 ns, so a block at the floor takes about 45 ms
BLOCK_CELLS = 1 << 15  # of a table rendered as text
BLOCK_BYTES = 1 << 20  # of a data file parsed


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where that cannot be known."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def _block_count(work: int, floor: int) -> int:
    """How many blocks to cut ``work`` into: one per usable CPU, none of
    less than ``floor``, and one where the platform cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    return max(1, min(_usable_cpus(), work // floor))


def _child(work: Callable[[int, BinaryIO], None], block: int, out: BinaryIO) -> NoReturn:
    """The life of a forked child: ``work(block, out)``, then an exit, 0
    when it ran through; it never returns to the caller, never raises and
    never flushes the stdio it was forked with."""
    code = 1
    try:
        work(block, out)
        out.flush()
        code = 0
    finally:
        os._exit(code)


@contextlib.contextmanager
def _forked(blocks: int, work: Callable[[int, BinaryIO], None],
            where: str | Path | None = None) -> Iterator[Callable[[], list[BinaryIO | None]]]:
    """Run ``work(k, out)`` for each block k from 1 to ``blocks - 1`` in a
    forked child, writing into ``out``, an unnamed temporary file in
    ``where`` (the default temporary directory for None) opened before
    the fork.  The caller does block 0 in the ``with`` body.  The function
    it gets, called, waits for every child and returns each one's file
    rewound, or None for a block whose file or process could not be made
    or whose child did not exit 0.  On leaving, a child not waited for
    yet, as when the body raised, is killed and reaped, and every file is
    closed."""
    children: list[tuple[int | None, BinaryIO | None]] = []

    def join() -> list[BinaryIO | None]:
        done = []
        for i, (pid, out) in enumerate(children):
            ok = pid is not None and os.waitpid(pid, 0)[1] == 0
            children[i] = (None, out)
            if ok:
                out.seek(0)
            done.append(out if ok else None)
        return done

    try:
        for k in range(1, blocks):
            out = pid = None
            try:
                out = tempfile.TemporaryFile(dir=where)
                pid = os.fork()
            except OSError:  # the caller does this block itself
                pass
            if pid == 0:
                _child(work, k, out)
            children.append((pid, out))
        yield join
    finally:
        for pid, out in children:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            if out is not None:
                out.close()


def _scan(path: str | Path) -> tuple[str, bool, int]:
    """The sha256 of a file's bytes, whether any of them is ``"``, and
    their count, read :data:`READ_BYTES` at a time into one buffer."""
    digest, quoted, size = hashlib.sha256(), False, 0
    piece = bytearray(READ_BYTES)
    with _reading(path), open(path, "rb") as f, memoryview(piece) as view:
        while n := f.readinto(piece):
            digest.update(view[:n])
            quoted = quoted or piece.find(b'"', 0, n) >= 0
            size += n
    return digest.hexdigest(), quoted, size


def _chunks(path: str | Path, start: int = 0, stop: int | None = None) -> Iterator[bytes]:
    """A file's bytes from offset ``start`` to ``stop`` (None: its end),
    read :data:`READ_BYTES` at a time."""
    with open(path, "rb") as f:
        f.seek(start)
        left = math.inf if stop is None else stop - start
        while left > 0 and (raw := f.read(min(READ_BYTES, left))):
            left -= len(raw)
            yield raw


def _decode_lines(chunks: Iterable[bytes], start: bool = True) -> Iterator[re.Match]:
    """The lines of UTF-8 bytes, each a match of :data:`_LINE`, decoded a
    chunk at a time with universal newlines: ``\\r\\n`` and a lone ``\\r``
    come back as ``\\n``.  A byte-order mark is dropped only at the
    ``start`` of a file.  A byte that is not UTF-8 raises
    UnicodeDecodeError, its ``line_ends`` the line ends before the bad byte
    that no line yielded holds: those of the good bytes not yet decoded,
    read by the same newline rule after any ``\\r`` held back."""
    decoder = io.IncrementalNewlineDecoder(
        codecs.getincrementaldecoder("utf-8-sig" if start else "utf-8")(), translate=True)
    rest = ""
    try:
        for raw in chunks:
            text = rest + decoder.decode(raw)
            end = text.rfind("\n") + 1
            yield from _LINE.finditer(text, 0, end)
            rest = text[end:]
        yield from _LINE.finditer(rest + decoder.decode(b"", final=True))
    except UnicodeDecodeError as e:
        head = io.IncrementalNewlineDecoder(None, translate=True)
        head.setstate((b"", decoder.getstate()[1] & 1))  # the \r held back, if any
        e.line_ends = head.decode(e.object[: e.start].decode(), final=True).count("\n")
        raise


@contextlib.contextmanager
def _reading(path: str | Path, error: type[GcnnError] = DataError) -> Iterator[None]:
    """Raise ``error`` naming ``path`` for an OSError the body raises."""
    try:
        yield
    except OSError as e:
        raise error(f"{path}: cannot read ({e.strerror or e})") from None


def _lines(path: str | Path, error: type[GcnnError] = DataError) -> Iterator[re.Match]:
    """The lines of a UTF-8 text file, the one reader of a whole file's
    text: :func:`_decode_lines` of its :func:`_chunks`, so one piece of
    the file is held at a time.  A byte that is not UTF-8 raises ``error``
    naming the file and the line of the first bad byte: the lines yielded
    before it and the line ends :func:`_decode_lines` counts, so a faulty
    file is not read again.  A read that fails raises ``error`` naming the
    file."""
    n = 0
    with _reading(path, error):
        try:
            for n, line in enumerate(_decode_lines(_chunks(path)), start=1):
                yield line
        except UnicodeDecodeError as e:
            raise error(f"{path}:{n + e.line_ends + 1}: not valid UTF-8 (byte 0x{e.object[e.start]:02x})") from None


def _block_edges(path: str | Path, size: int, blocks: int) -> list[int]:
    """Offsets that cut a file of ``size`` bytes into at most ``blocks``
    runs of whole lines of about equal size, from 0 to ``size``: each cut
    is just past the first ``\\n`` byte at or after its even share.  A
    ``\\n`` byte is a line end in UTF-8 with universal newlines, whatever
    precedes it, so every block decodes and splits on its own."""
    edges = [0]
    with open(path, "rb") as f:
        for k in range(1, blocks):
            at = max(edges[-1], size * k // blocks)
            f.seek(at)
            while (piece := f.read(1 << 16)) and b"\n" not in piece:
                at += len(piece)
            cut = at + piece.find(b"\n") + 1
            if not piece or cut >= size:
                break
            edges.append(cut)
    return edges + [size]


def _write_rows(path: str | Path, start: int, stop: int, out: BinaryIO) -> None:
    """Parse the rows in bytes ``start`` to ``stop`` of a quote-free file
    and write them to ``out``: their width as one int64 (0 for no rows),
    then row after row that many float64, the stamp and then the values,
    NaN for a missing cell.  Raises for any fault, or a non-finite value."""
    records = _tokenize(_decode_lines(_chunks(path, start, stop), start == 0), quoted=False)
    width, times, _, present, parsed = _read_rows(records, None)
    if not np.isfinite(np.frombuffer(parsed)).all():
        raise DataError("a non-finite value")  # the one-block parse names it
    out.write(np.int64(width or 0).tobytes())
    if times:
        rows = np.full((len(times), width), np.nan)
        rows[:, 0] = times
        rows[:, 1:][np.frombuffer(present, dtype=bool).reshape(len(times), width - 1)] = np.frombuffer(parsed)
        out.write(rows.data)


def _parse_blocks(path: str | Path, size: int) -> TimeSeriesDataset | None:
    """The table of a quote-free data file parsed in blocks (see
    :func:`_block_edges`), one per usable CPU and none under
    :data:`BLOCK_BYTES` (:func:`_block_count`); None for a file that takes
    one block.  Each block but the first is parsed in a forked child
    (:func:`_write_rows`), and :func:`_parse_records` parses the first,
    header included, then builds the table from all of them.  None too
    when any block faults or its child fails, or when the blocks do not
    make a table (rows of another width than the header's, times that do
    not increase across a cut): the caller then parses the file as one
    block, which raises the fault with its line."""
    blocks = _block_count(size, BLOCK_BYTES)
    if blocks < 2 or len(edges := _block_edges(path, size, blocks)) < 3:
        return None
    with _forked(len(edges) - 1, lambda k, out: _write_rows(path, edges[k], edges[k + 1], out)) as join:
        try:
            return _parse_records(_tokenize(_decode_lines(_chunks(path, 0, edges[1])), quoted=False), join)
        except (DataError, UnicodeDecodeError):
            return None


def load_csv(path: str | Path, scan: tuple[str, bool, int] | None = None) -> TimeSeriesDataset:
    """Parse a wide-format CSV file: time column first, one column per
    series.

    Lines whose first cell starts with ``#`` are comments (provenance
    stamps and such) and are skipped wherever they appear.  Faults are
    reported in row order, the first one winning (within a row: cell
    count, then time stamp, then values); a non-finite value is reported
    only once every cell has parsed, and a fault the ``csv`` module finds
    in quoted text wins over any row's.  The file is read as UTF-8 with
    universal newlines (:func:`_lines`), so the line numbers in messages
    are the file's whatever its line ends; a byte that is not UTF-8
    anywhere in the file raises DataError, over any fault of the parse.

    The file is read in pieces of :data:`READ_BYTES`: once to hash it and
    note whether it holds a quote (:func:`_scan`), which picks the
    tokenizer, and once more, decoding as it goes, to parse it
    (:func:`_lines`).  So the whole text is never held, only the table
    and one piece.  A ``scan``, what :func:`_scan` returned for these
    bytes, stands in for the first read, so a caller that has hashed the
    file does not hash it again.  A quote-free file of at least two
    :data:`BLOCK_BYTES` is parsed in blocks, one per usable CPU
    (:func:`_parse_blocks`), the later ones in forked children; should
    any block fault, the file is parsed again as one block, for the
    fault's message.  Either way, :func:`_parse_records` builds the table,
    and reads the file to its end after a fault, so a byte further on
    that is not UTF-8 is the fault raised; the decode that meets it
    names its line, so a faulty one-block load reads the file twice."""
    _, quoted, size = scan or _scan(path)
    blocks = None if quoted else _parse_blocks(path, size)
    return blocks or _parse_records(_tokenize(_lines(path), quoted))


def load_assignment(path: str | Path, k: int) -> dict[str, int]:
    """Series name -> group label; every label is in 1..k and every group has a series.
    Read a record at a time; after a row's fault the rest is still read, so
    a later fault of the tokenizer or byte that is not UTF-8 wins."""
    mapping: dict[str, int] = {}
    first_line: dict[str, int] = {}
    records = _tokenize(_lines(path), _scan(path)[1], f"{path}:")
    try:
        for line_no, row in records:
            cells = [cell.strip() for cell in row]
            if cells in ([], [""], ["series_name", "group_id"]):
                continue
            if len(cells) != 2 or not cells[0]:
                raise DataError(f"{path}:{line_no}: expected series_name,group_id")
            name, label = cells
            if name in first_line:
                raise DataError(f"{path}:{line_no}: series {name!r} already assigned on line {first_line[name]}")
            first_line[name] = line_no
            try:
                mapping[name] = int(label)
            except ValueError:
                raise DataError(f"{path}:{line_no}: group id {label!r} is not an integer") from None
            if not 1 <= mapping[name] <= k:
                raise DataError(f"{path}:{line_no}: group id {mapping[name]} outside 1..{k} (model.groups)")
    except DataError:
        for _ in records:
            pass
        raise
    if not mapping:
        raise DataError(f"{path}: no assignments found")
    empty = sorted(set(range(1, k + 1)) - set(mapping.values()))
    if empty:
        raise DataError(f"{path}: group {empty[0]} has no series (model.groups is {k})")
    return mapping


def _table_sha256(names: list[str], steps: int, body: Iterable) -> str:
    """The digest a parsed-table header carries: sha256 over the line of
    compact JSON ``[names, steps]`` (ASCII, non-ASCII as ``\\u`` escapes),
    then the body's bytes."""
    digest = hashlib.sha256(json.dumps([names, steps], separators=(",", ":")).encode() + b"\n")
    for part in body:
        digest.update(part)
    return digest.hexdigest()


def stage_parsed(data: TimeSeriesDataset, path: str | Path, source_sha256: str) -> Path:
    """Write a table :func:`load_csv` parsed from a file of sha256
    ``source_sha256`` for :func:`open_parsed`, under a temporary name of
    its own beside ``path``; returns that name, for the caller to rename
    over ``path``.  A write that fails leaves no file.

    One JSON header line (``format``, ``source_sha256``, ``table_sha256``,
    ``names``, ``steps``), then the body: the times, then the values series
    after series, as little-endian float64 with NaN for a missing cell.
    The temporary name is ``path``'s with a random tag and ``.tmp`` added,
    created exclusively, so writers into one directory never share a file."""
    body = [np.ascontiguousarray(a, dtype="<f8") for a in (data.times, data.values)]
    header = {"format": PARSED_FORMAT, "source_sha256": source_sha256, "names": data.names,
              "steps": data.n_steps, "table_sha256": _table_sha256(data.names, data.n_steps, body)}
    path = Path(path)
    partial = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with partial.open("xb") as f:
            f.write(json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n")
            for part in body:
                f.write(part.data)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return partial


@contextlib.contextmanager
def open_parsed(path: str | Path, source_size: float = math.inf) -> Iterator[
        tuple[str | None, Callable[[], TimeSeriesDataset | None]]]:
    """Open a :func:`stage_parsed` file and check its header; yields the
    source sha256 it names and a function that reads the body and returns
    the table, while the ``with`` lasts.  The digest is None, and the
    function returns None, for a file that is missing, unreadable, in
    another format or fails a header check: the names, by :func:`load_csv`'s
    header checks; the body's length; no more cells below the header row
    than ``source_size``, the source's length in bytes, as each takes a
    byte of the CSV at least, so what a stale file costs is bounded by the
    source.  The function also returns None for a body that fails a check:
    the table digest over the names, the step count and the body; finite,
    increasing times; finite or NaN values.  A table that passes is the
    parse's, down to the bits, unless the file was forged; whether it was
    written for the source's bytes is the caller's to check."""
    def header() -> dict | None:
        head = json.loads(f.readline())
        head = head if isinstance(head, dict) else {}  # which fails every check
        names, steps = head.get("names"), head.get("steps")
        if not (isinstance(head.get("source_sha256"), str) and head.get("format") == PARSED_FORMAT
                and isinstance(names, list) and all(isinstance(n, str) and n == n.strip() for n in names)
                and type(steps) is int and 1 <= steps and steps * (len(names) + 1) <= source_size):
            return None
        _check_names(names, 1)
        return head if os.fstat(f.fileno()).st_size - f.tell() == 8 * steps * (len(names) + 1) else None

    def table() -> TimeSeriesDataset | None:
        names, steps = head["names"], head["steps"]
        body = bytearray(8 * steps * (len(names) + 1))
        if f.readinto(body) != len(body) or _table_sha256(names, steps, [body]) != head.get("table_sha256"):
            return None
        flat = np.frombuffer(body, dtype="<f8")
        # the dataset refuses repeated names, times that are not finite or do
        # not increase, and infinite values; the NaNs are the missing cells
        return TimeSeriesDataset(names, flat[:steps], flat[steps:].reshape(len(names), steps))

    def checked(read: Callable[[], _T]) -> _T | None:
        try:
            return read()
        except (OSError, ValueError, RecursionError, DataError):  # ValueError covers bad JSON and bad UTF-8
            return None

    f = checked(lambda: open(path, "rb"))
    with f or contextlib.nullcontext():
        head = f and checked(header)
        yield (None, lambda: None) if head is None else (head["source_sha256"], lambda: checked(table))


@dataclass
class Prepared:
    """A dataset after repair and standardization, plus how it got there."""

    dataset: TimeSeriesDataset
    stats: StandardizeStats
    train_steps: int
    filled: list[tuple[str, int, int]]
    dropped: list[tuple[str, str]]  # (series, reason), repair and scaling drops merged


# the least data file hashed on a thread while parsed.bin loads: the
# thread's start, join and hand-offs of the interpreter lock cost about
# 0.4 ms on a 2-vCPU x86-64 VM.  There, prepare from a good parsed.bin,
# overlapped against in turn, read +3.0% at 0.55 MB, -0.5% at 0.83 MB
# and -3.5% at 1.1 MB (147 series; 13 series: +0.9% at 0.74 MB, -4.2% at
# 0.99 MB), and the benchmark's desk (70 kB) and paper (160 kB) files
# read cluster_s +15% and +9%
OVERLAP_BYTES = 1 << 20


def prepare(path: str | Path, cache: str | Path, max_gap: int, train_fraction: float,
            parse: bool = False) -> tuple[Prepared, Path | None]:
    """The data file at ``path`` repaired and standardized, its training
    range the leading ``train_fraction`` of its steps, and the parse
    staged for ``cache`` (:func:`stage_parsed`) for the caller to rename
    over ``cache`` or remove, or None when ``cache`` held the table.  Each
    table is let go as soon as the next one exists; a raise leaves no
    staged file.

    Unless ``parse`` is set, ``cache`` (:func:`open_parsed`) stands in for
    a parse when its header names the sha256 of the file (:func:`_scan`).
    The file is hashed first, so a stale table is not read past its
    header; but a file of at least :data:`OVERLAP_BYTES`, with two usable
    CPUs, is hashed on a thread while this one loads, repairs and
    standardizes the cached table, which is kept, or the error that
    raised, only when the digests then match.  The thread is joined
    before any parse, and before this returns or raises; where none can
    start, the steps run in turn.  A parse reuses the hash."""
    def attempt(load: Callable[[], TimeSeriesDataset | None]) -> Prepared | GcnnError | None:
        try:
            return _refined(load, max_gap, train_fraction)
        except GcnnError as e:
            return e

    if parse:
        scan = _scan(path)
    else:
        size = os.path.getsize(path)
        scanned = _on_a_thread(lambda: _scan(path)) if size >= OVERLAP_BYTES and _usable_cpus() >= 2 else None
        scan = None if scanned else _scan(path)
        with open_parsed(cache, size) as (source, table):
            try:
                ahead = attempt(table) if scanned else None
            finally:
                scan = scan or scanned()
            outcome = (ahead if scanned else attempt(table)) if source == scan[0] else None
            del ahead  # a stale table, or the traceback of the error it raised
        if isinstance(outcome, GcnnError):
            raise outcome
        if outcome is not None:
            return outcome, None
    staged = []

    def parsed() -> TimeSeriesDataset:
        raw = load_csv(path, scan=scan)
        staged.append(stage_parsed(raw, cache, scan[0]))
        return raw

    try:
        return _refined(parsed, max_gap, train_fraction), staged[0]
    except BaseException:
        for partial in staged:
            partial.unlink(missing_ok=True)
        raise


def _refined(load: Callable[[], TimeSeriesDataset | None], max_gap: int, train_fraction: float) -> Prepared | None:
    """The table ``load()`` returns, repaired and standardized, or None
    for None.  Only this call holds the table, so it goes once repaired."""
    raw = load()
    if raw is None:
        return None
    repaired, report = repair_gaps(raw, max_gap=max_gap)
    del raw
    # training range = leading fraction of the time axis; scaling and the
    # similarity graph must not see the evaluation tail
    train_steps = min(repaired.n_steps, max(2, int(repaired.n_steps * train_fraction)))
    scaled, stats, flat = standardize(repaired, train_steps)
    del repaired
    dropped = list(report.dropped) + [(name, "constant over the training range") for name in flat]
    return Prepared(scaled, stats, train_steps, list(report.filled), dropped)


def _on_a_thread(work: Callable[[], _T]) -> Callable[[], _T] | None:
    """Start ``work()`` on a thread of its own; None when no thread can
    start, as under a limit on a user's processes.  The function returned
    waits for the thread, then returns what ``work`` returned or raises
    what it raised."""
    outcome = []

    def run() -> None:
        try:
            outcome.append((True, work()))
        except BaseException as e:  # raised where the caller joins
            outcome.append((False, e))

    thread = threading.Thread(target=run)
    try:
        thread.start()
    except RuntimeError:  # "can't start new thread"
        return None

    def join() -> _T:
        thread.join()
        ok, value = outcome[0]
        if not ok:
            raise value
        return value

    return join


def _cell(value) -> str:
    if isinstance(value, str):
        return '"' + value.replace('"', '""') + '"' if any(c in value for c in ',"\n\r') else value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    return repr(float(value))


def table_lines(header: Sequence[str], rows: Iterable[Sequence]) -> Iterator[str]:
    """The lines of CSV text of a header and rows, each ending in ``\\n``.
    Text holding a comma, a quote, a ``\\n`` or a ``\\r`` is quoted, its
    quotes doubled (RFC 4180); other text is written as it is.  Integers
    are written in decimal, other numbers by ``repr`` of their float,
    which round-trips fp64.  :func:`load_csv`'s tokenizer reads every
    cell back as written, but for a ``\\r``: a file is read with
    universal newlines, so it comes back as ``\\n``."""
    return (",".join(map(_cell, row)) + "\n" for row in itertools.chain([header], rows))


def dumps_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """:func:`table_lines` as one text."""
    return "".join(table_lines(header, rows))


def _row_lines(data: TimeSeriesDataset, start: int, stop: int) -> Iterator[str]:
    """The wide-format lines of time steps ``start`` to ``stop``, each
    ending in ``\\n``; repr round-trips fp64 exactly.  Rows render one at
    a time, each from its own ``tolist``, so one row at a time is held as
    Python objects; only a row with a missing cell goes cell by cell."""
    gappy = ~data.mask[:, start:stop].all(axis=0)
    for t in range(start, stop):
        stamp, row = float(data.times[t]), data.values[:, t].tolist()
        if gappy[t - start]:
            cells = [repr(v) if ok else "" for v, ok in zip(row, data.mask[:, t].tolist())]
            yield f"{stamp!r},{','.join(cells)}\n"
        else:
            yield f"{stamp!r},{','.join(map(repr, row))}\n"


def dumps_csv(data: TimeSeriesDataset) -> str:
    """The wide format as one text: the header, through
    :func:`table_lines`'s cell rule, then every time step's row
    (:func:`_row_lines`).  The reference, in one block, that
    :func:`save_csv`'s blocks are held to."""
    return "".join(itertools.chain(table_lines(["time", *data.names], []), _row_lines(data, 0, data.n_steps)))


# characters a write of text lines joins first
WRITE_CHARS = 1 << 18


def _write_batched(f: BinaryIO, lines: Iterable[str]) -> None:
    """Write text lines to ``f`` as UTF-8, joined into one ``write`` of
    about :data:`WRITE_CHARS` at a time, so the text is never held whole."""
    batch, size = [], 0
    for line in lines:
        batch.append(line)
        size += len(line)
        if size >= WRITE_CHARS:
            f.write("".join(batch).encode())
            batch, size = [], 0
    f.write("".join(batch).encode())


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write text lines to ``path`` (see :func:`_write_batched`)."""
    with open(path, "wb") as f:
        _write_batched(f, lines)


def save_csv(data: TimeSeriesDataset, path: str | Path, head: str = "") -> None:
    """Write ``head``, then the lines of :func:`dumps_csv`, to ``path``.

    A table of at least two :data:`BLOCK_CELLS` cells renders in blocks
    of contiguous time steps, one per usable CPU (:func:`_block_count`).
    This process renders the header and the first block into ``path``;
    each other block renders in a forked child, into an unnamed temporary
    file beside ``path``, appended in order once the first block is
    written.  A block whose child fails is rendered here instead, so the
    bytes are :func:`dumps_csv`'s whatever the blocks."""
    blocks = _block_count(data.values.size, BLOCK_CELLS)
    edges = [data.n_steps * k // blocks for k in range(blocks + 1)]

    def render(k: int, out: BinaryIO) -> None:
        _write_batched(out, _row_lines(data, edges[k], edges[k + 1]))

    with _forked(blocks, render, Path(path).parent) as join, open(path, "wb") as f:
        _write_batched(f, itertools.chain([head], table_lines(["time", *data.names], []),
                                          _row_lines(data, 0, edges[1])))
        for k, part in enumerate(join(), start=1):
            if part is None:
                render(k, f)
            else:
                shutil.copyfileobj(part, f)


def _missing_runs(present: np.ndarray) -> list[tuple[int, int]]:
    """(start, length) of each run of False."""
    present = np.asarray(present, dtype=bool)
    if present.all():  # gap-free series, most of them, skip the array set-up
        return []
    padded = np.ones(present.size + 2, dtype=np.int8)
    padded[1:-1] = present
    edges = np.diff(padded)
    starts, ends = np.flatnonzero(edges == -1), np.flatnonzero(edges == 1)
    return list(zip(starts.tolist(), (ends - starts).tolist()))


def repair_gaps(data: TimeSeriesDataset, max_gap: int = DEFAULT_MAX_GAP) -> tuple[TimeSeriesDataset, RepairReport]:
    """Fill short interior gaps by linear interpolation; drop bad series.

    A run of up to ``max_gap`` consecutive missing steps strictly inside a
    series is filled linearly between its flanking present values.  Series
    with longer runs, or with missing first/last values (nothing to anchor
    the interpolation), are dropped and named in the report.  Requires a
    fixed-step time index.  Idempotent: repaired output passes unchanged.
    """
    if max_gap < 0:
        raise DataError(f"max_gap must be >= 0, got {max_gap}")
    if data.n_steps >= 3:
        steps = np.diff(data.times)
        if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, abs(float(steps[0]))):
            raise DataError("gap repair requires a fixed-step time index")
    report = RepairReport()
    keep: list[int] = []
    gaps: list[list[tuple[int, int]]] = []  # the runs to fill in each kept series
    for i, name in enumerate(data.names):
        runs = _missing_runs(data.mask[i])
        endpoint_gap = any(start == 0 or start + length == data.n_steps for start, length in runs)
        too_long = [run for run in runs if run[1] > max_gap]
        if endpoint_gap:
            report.dropped.append((name, "missing endpoint"))
            continue
        if too_long:
            start, length = too_long[0]
            report.dropped.append((name, f"gap of {length} steps exceeds cap {max_gap}"))
            continue
        report.filled.extend((name, start, length) for start, length in runs)
        keep.append(i)
        gaps.append(runs)
    if len(keep) < 2:
        raise DataError(f"gap repair left {len(keep)} usable series (need at least 2)")
    values = data.values[keep]  # the one copy, of the kept series only, filled in place
    for row, runs in zip(values, gaps):
        for start, length in runs:
            left, right = row[start - 1], row[start + length]
            row[start : start + length] = left + (right - left) * (np.arange(1, length + 1) / (length + 1))
    # every cell is present now, none NaN
    repaired = TimeSeriesDataset(names=[data.names[i] for i in keep], times=data.times.copy(), values=values)
    return repaired, report


def standardize(
    data: TimeSeriesDataset, train_steps: int
) -> tuple[TimeSeriesDataset, StandardizeStats, list[str]]:
    """Scale each series by its mean/std over the leading training range.

    Statistics come only from the first ``train_steps`` steps so the test
    range stays untouched by its own distribution.  Zero-variance series
    are dropped and reported.  Requires fully-present data (repair first).
    """
    if not 1 <= train_steps <= data.n_steps:
        raise DataError(f"train range must cover 1..{data.n_steps} steps, got {train_steps}")
    if not data.mask.all():
        raise DataError("standardize requires gap-free data; run repair_gaps first")
    head = data.values[:, :train_steps]
    all_means, all_stds = head.mean(axis=1), head.std(axis=1)
    keep = np.flatnonzero(all_stds != 0.0)
    dropped = [name for name, std in zip(data.names, all_stds) if std == 0.0]
    if len(keep) < 2:
        raise DataError(f"standardization left {len(keep)} usable series (need at least 2)")
    mean_arr, std_arr = all_means[keep], all_stds[keep]
    scaled = data.values[keep]  # the one copy; in place, the bits of (x - mean) / std
    scaled -= mean_arr[:, None]
    scaled /= std_arr[:, None]
    names = [data.names[i] for i in keep]
    out = TimeSeriesDataset(names=names, times=data.times.copy(), values=scaled)
    return out, StandardizeStats(names, mean_arr, std_arr), dropped


def make_windows(data: TimeSeriesDataset, target: str, window: int) -> WindowedRegressionSet:
    """One sample per step t whose trailing window is fully observed.

    Inputs are the non-target series over steps t-window+1..t; the label
    is the target series at t.  Steps where any series is missing break
    the timeline into segments, each contributing max(0, len-window+1)
    samples.  The non-target rows are copied once, as a (C, L) block;
    on gap-free data ``inputs`` is a read-only view of that block, and
    data with gaps gathers its usable windows into a fresh array.
    """
    if window < 1:
        raise DataError(f"window must be >= 1, got {window}")
    if window > data.n_steps:
        raise DataError(f"window {window} exceeds series length {data.n_steps}")
    p = data.index_of(target)
    channel_idx = [i for i in range(data.n_series) if i != p]
    channel_names = [data.names[i] for i in channel_idx]
    block = data.values[channel_idx]
    windows = sliding_window_view(block, window, axis=1).transpose(1, 0, 2)  # (L-T+1, C, T)
    missing = np.concatenate([[0], np.cumsum(~data.mask.all(axis=0))])
    starts = np.flatnonzero(missing[window:] == missing[:-window])
    if starts.size == 0:
        raise DataError(f"no fully-observed stretch of {window} steps; cannot window")
    if starts[-1] - starts[0] + 1 == starts.size:
        # one unbroken run (all gap-free data): a basic slice stays a view
        inputs = windows[starts[0] : starts[-1] + 1]
    else:
        inputs = windows[starts]
    ends = starts + window - 1
    return WindowedRegressionSet(
        inputs=inputs,
        targets=data.values[p, ends],
        times=data.times[ends],
        channel_names=channel_names,
        target_name=target,
        window=window,
    )


def split(wset: WindowedRegressionSet, spec: SplitSpec | None = None) -> tuple[WindowedRegressionSet, WindowedRegressionSet]:
    """Divide samples into train/test per the split spec.

    Chronological mode cuts at floor(S * fraction) in time order, so
    every training target stamp precedes every test target stamp.
    """
    spec = spec or SplitSpec()
    s = wset.n_samples
    if s < 2:
        raise DataError(f"need at least 2 samples to split, got {s}")
    n_train = int(s * spec.train_fraction)
    if n_train < 1 or n_train >= s:
        raise DataError(f"degenerate split: {n_train} train of {s} total")
    if spec.mode == "chronological":
        return wset.subset(range(n_train)), wset.subset(range(n_train, s))
    order = np.random.default_rng(spec.seed).permutation(s)
    return wset.subset(order[:n_train]), wset.subset(order[n_train:])
