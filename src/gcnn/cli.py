"""Command-line front end: file-in, file-out workflows over one config.

Subcommands
    ingest       repair + standardize a CSV, export dataset and report
    cluster      group the input series spectrally, export assignment
    train        build and fit a model, export checkpoint and history
    eval         score a checkpoint on a data slice, export predictions
    compare      baselines vs candidate nets over repeated target picks
    param-count  layer plan and parameter count, no data needed

A single YAML document (the one positional argument) configures every
command; ``--seed``, ``--out`` and repeatable ``--override key=value``
adjust it without editing the file.  The resolved settings are hashed
(sha256 over canonical JSON, output directory excluded) and the hash is
stamped into every artifact: a ``# config <hash>`` first line on CSV
files, a ``config_hash`` key in JSON files, a ``meta`` block in
checkpoints.  Nothing records wall-clock data, so rerunning a command
over identical inputs reproduces byte-identical files.

Every command that parses the data file leaves ``parsed.bin`` in the
output directory: the table it parsed, keyed by the data file's sha256.
``ingest`` always parses.  ``cluster``, ``train``, ``eval`` and
``compare`` read the table from there when it was written for the same
file bytes and passes its checks (see ``data.load_parsed``), and parse
the file on a miss; ``_prepare`` alone makes that choice.  Right after
a parse the command stages the table under a temporary name, which
``main`` renames to ``parsed.bin`` when the command exits 0 and removes
on any other exit.  With a data file of at least ``OVERLAP_BYTES`` and
two usable CPUs, the file is hashed on a second thread while
``parsed.bin`` is loaded and refined; where no thread can start, the
steps run in turn, as for a smaller file (see ``_prepare``).

The data file's text is streamed: it is parsed as it is read and
rendered as it is written (``dataset.csv``), a batch of lines at a
time, and a command holds one table at a time from the parse through
gap repair to standardization.

Large text is cut into blocks, one per usable CPU (the process's CPU
affinity), each block but the first handled in a forked child.  A
quote-free data file of at least two ``data.BLOCK_BYTES`` parses in
blocks of whole lines, and a table of at least two ``data.BLOCK_CELLS``
cells renders in blocks of time steps; smaller text, one usable CPU, a
platform without ``fork`` and a file with a quote take one block, in
this process.  The bytes and tables are those of one block.  Should a
block fault, or its child fail, the parse runs again as one block and
raises the fault with its line, and a failed render block is rendered
here instead.  Every child is reaped before the call returns.

``main`` first fixes glibc's malloc thresholds, once per process, so a
training step reuses the memory the last step freed instead of faulting
fresh pages in (see ``_keep_freed_memory``).

Exit codes: 0 success, 2 bad configuration, 3 bad data, 4 numerical
failure (divergence, singular systems, non-convergence).
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import itertools
import json
import os
import sys
import threading
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Iterable, TypeVar

import numpy as np
import yaml

from . import data as D
from . import models as M
from . import spectral as S
from . import training as R
from .errors import ConfigError, DataError, GcnnError, NumericalError, ShapeError

COMMANDS = ("ingest", "cluster", "train", "eval", "compare", "param-count")

_TOP_KEYS = ("data", "split", "model", "train", "eval", "compare", "seed", "out")

# the model, split and train sections are the fields of the dataclasses
# they build; seed is top-level, train also names the assignment file,
# and model also names a preset (whose fields replace these defaults),
# takes family for ``recurrent`` and lets the geometry wait for the data
_SPLIT_SCHEMA = {f.name: (f.type, f.default) for f in fields(D.SplitSpec) if f.name != "seed"}
_TRAIN_SCHEMA = {f.name: (f.type, f.default) for f in fields(R.TrainConfig) if f.name != "seed"}
_TRAIN_SCHEMA["assignment"] = ("str | None", None)
_MODEL_SCHEMA = {f.name: (f.type, f.default) for f in fields(M.ModelSpec) if f.name != "recurrent"} | {
    "preset": ("str | None", None),
    "family": ("str", "cnn"),
    "input_channels": ("int | None", None),
    "input_width": ("int | None", None),
}
_DATA_SCHEMA = {
    "path": ("str | None", None),
    "target": ("str | None", None),
    "window": ("int | None", None),
    "max_gap": ("int", D.DEFAULT_MAX_GAP),
}
_EVAL_SCHEMA = {"checkpoint": ("str | None", None), "split": ("str", "test")}
_COMPARE_DEFAULTS: dict = {"repeats": 3, "ridge_penalty": 1.0, "targets": None, "candidates": []}

# reserved row names in compare summaries
_BASELINES = ("linear", "ridge")

# the parsed data file, which a command loads instead of parsing it again
PARSED_NAME = "parsed.bin"

# the least data file hashed on a thread while parsed.bin loads: the
# thread's start, join and hand-offs of the interpreter lock cost about
# 0.4 ms on a 2-vCPU x86-64 VM.  There, _prepare from a good parsed.bin,
# overlapped against in turn, read +3.0% at 0.55 MB, -0.5% at 0.83 MB
# and -3.5% at 1.1 MB (147 series; 13 series: +0.9% at 0.74 MB, -4.2% at
# 0.99 MB), and the benchmark's desk (70 kB) and paper (160 kB) files
# read cluster_s +15% and +9%
OVERLAP_BYTES = 1 << 20

_T = TypeVar("_T")

# libyaml's parser where PyYAML was built with it: several times faster
# than the pure-Python SafeLoader, and a property test holds the two to
# the same documents on config-shaped YAML
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str):
    try:
        return yaml.load(text, Loader=_YAML_LOADER)
    except UnicodeEncodeError as e:  # libyaml reads UTF-8; an argument byte that was not UTF-8 decodes to a surrogate
        raise yaml.YAMLError(f"character {e.object[e.start]!r} is not text") from None


def _mapping(section, where: str, known) -> dict:
    """A config section as a dict ({} for None), refusing unknown keys."""
    if section is None:
        return {}
    if not isinstance(section, dict):
        raise ConfigError(f"{where}: expected a mapping, got {type(section).__name__}")
    extra = sorted(set(section) - set(known))
    if extra:
        raise ConfigError(f"{where}.{extra[0]}: unknown setting")
    return section


def _resolve_section(section, schema: dict, where: str) -> dict:
    section = _mapping(section, where, schema)
    return {key: M.check_setting(f"{where}.{key}", section.get(key, default), annotation)
            for key, (annotation, default) in schema.items()}


def _resolve_model(section, where: str = "model") -> dict:
    """Merge a model section over its preset (or the defaults).

    Returns a fully-populated dict in config vocabulary: ``family`` is
    cnn/rcnn, geometry keys may stay None until data supplies them.
    """
    section = _mapping(section, where, _MODEL_SCHEMA)
    schema = _MODEL_SCHEMA
    preset_name = M.check_setting(f"{where}.preset", section.get("preset"), "str | None")
    if preset_name is not None:
        try:
            base = M.preset(preset_name).to_dict()
        except ConfigError as e:
            raise ConfigError(f"{where}.preset: {e}") from None
        base["family"] = "rcnn" if base.pop("recurrent") else "cnn"
        schema = {key: (annotation, base.get(key, default)) for key, (annotation, default) in schema.items()}
    out = _resolve_section(section, schema, where)
    if out["family"] not in ("cnn", "rcnn"):
        raise ConfigError(f"{where}.family: must be cnn or rcnn, got {out['family']!r}")
    if out["grouping"] == "explicit" and out["groups"] < 2:
        raise ConfigError(f"{where}.groups: explicit grouping needs at least 2 groups")
    return out


def _resolve_compare(section, where: str = "compare") -> dict:
    out = {**_COMPARE_DEFAULTS, **_mapping(section, where, _COMPARE_DEFAULTS)}
    out["repeats"] = M.check_setting(f"{where}.repeats", out["repeats"], "int")
    out["ridge_penalty"] = M.check_setting(f"{where}.ridge_penalty", out["ridge_penalty"], "float")
    if out["repeats"] < 1:
        raise ConfigError(f"{where}.repeats: must be >= 1, got {out['repeats']}")
    if not out["ridge_penalty"] >= 0.0:
        raise ConfigError(f"{where}.ridge_penalty: must be >= 0, got {out['ridge_penalty']}")
    if out["targets"] is not None:
        if not isinstance(out["targets"], list) or not out["targets"]:
            raise ConfigError(f"{where}.targets: expected a non-empty list of series names")
        out["targets"] = [M.check_setting(f"{where}.targets[{i}]", t, "str") for i, t in enumerate(out["targets"])]
        for i, t in enumerate(out["targets"]):
            if t in out["targets"][:i]:
                raise ConfigError(f"{where}.targets[{i}]: {t!r} is already listed")
    if not isinstance(out["candidates"], list):
        raise ConfigError(f"{where}.candidates: expected a list")
    resolved = []
    seen = set(_BASELINES)
    for i, entry in enumerate(out["candidates"]):
        here = f"{where}.candidates[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{here}: expected a mapping with name and model")
        _mapping(entry, here, ("name", "model"))
        name = M.check_setting(f"{here}.name", entry.get("name"), "str")
        if name.lstrip().startswith("#"):  # it heads a summary.csv row, which would read as a comment
            raise ConfigError(f"{here}.name: {name!r} starts with #")
        if name in seen:
            raise ConfigError(f"{here}.name: {name!r} already taken (linear/ridge are reserved)")
        seen.add(name)
        resolved.append({"name": name, "model": _resolve_model(entry.get("model"), f"{here}.model")})
    out["candidates"] = resolved
    return out


@dataclass
class RunConfig:
    """Fully-resolved settings for one command invocation.

    ``doc`` is the canonical tree the config hash is computed over; the
    output directory lives outside it so relocating a run's artifacts
    does not change their content.  ``split`` and ``train`` are the
    range-checked objects the split and train sections build.  ``width``
    is the input window length: ``data.window``, or else the model
    section's ``input_width`` (None when neither is set).  ``staged``
    holds the temporary copies of a parse the command made for
    ``parsed.bin``, which only an exit 0 puts in place.
    """

    command: str
    doc: dict
    config_hash: str
    out_dir: Path
    split: D.SplitSpec
    train: R.TrainConfig
    width: int | None
    staged: list[Path] = field(default_factory=list)

    @classmethod
    def load(
        cls,
        command: str,
        config_path: str,
        seed: int | None = None,
        out: str | None = None,
        overrides: list[str] | None = None,
    ) -> "RunConfig":
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config: no such file: {config_path}")
        try:
            raw = _load_yaml(D.read_utf8(path, ConfigError))
        except yaml.YAMLError as e:
            raise ConfigError(f"config: not valid YAML: {e}") from e
        if raw is None:
            raw = {}
        if not isinstance(raw, dict):
            raise ConfigError(f"config: expected a mapping at the top level, got {type(raw).__name__}")
        for item in overrides or []:
            _apply_override(raw, item)
        if seed is not None:
            raw["seed"] = seed
        if out is not None:
            raw["out"] = out
        return cls.resolve(command, raw)

    @classmethod
    def resolve(cls, command: str, raw: dict) -> "RunConfig":
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        _mapping(raw, "config", _TOP_KEYS)
        doc = {
            "data": _resolve_section(raw.get("data"), _DATA_SCHEMA, "data"),
            "split": _resolve_section(raw.get("split"), _SPLIT_SCHEMA, "split"),
            "model": _resolve_model(raw.get("model")),
            "train": _resolve_section(raw.get("train"), _TRAIN_SCHEMA, "train"),
            "eval": _resolve_section(raw.get("eval"), _EVAL_SCHEMA, "eval"),
            "compare": _resolve_compare(raw.get("compare")),
            "seed": M.check_setting("seed", raw.get("seed", 0), "int"),
        }
        if doc["seed"] < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed: must be >= 0, got {doc['seed']}")
        # range checks live in the dataclasses; they run here, for every
        # command, before any data is read or any artifact written
        split = _build(D.SplitSpec, "split", **doc["split"], seed=doc["seed"])
        train = _build(R.TrainConfig, "train", **{k: v for k, v in doc["train"].items() if k != "assignment"},
                       seed=doc["seed"])
        if doc["eval"]["split"] not in ("test", "val", "train"):
            raise ConfigError(f"eval.split: must be test, val or train, got {doc['eval']['split']!r}")
        out_dir = Path(M.check_setting("out", raw.get("out", "out"), "str"))
        existing = next(p for p in (out_dir, *out_dir.parents) if p.exists())
        if not existing.is_dir():
            raise ConfigError(f"out: {existing} is not a directory")
        window, width = doc["data"]["window"], doc["model"]["input_width"]
        for key, value in (("data.window", window), ("model.input_width", width)):
            if value is not None and value < 1:
                raise ConfigError(f"{key}: must be >= 1, got {value}")
        if None not in (window, width) and window != width:
            raise ConfigError(f"data.window: {window} does not match the model input width {width}")
        cfg = cls(command, doc, _hash_doc(doc), out_dir, split, train, width if window is None else window)
        cfg._validate_for_command()
        return cfg

    # -- typed accessors ------------------------------------------------

    @property
    def seed(self) -> int:
        return self.doc["seed"]

    @property
    def data_path(self) -> str:
        return self.doc["data"]["path"]

    @property
    def target(self) -> str:
        return self.doc["data"]["target"]

    @property
    def model(self) -> dict:
        return self.doc["model"]

    @property
    def grouping(self) -> str:
        return self.doc["model"]["grouping"]

    def train_config(self) -> R.TrainConfig:
        """The resolved train section; perfbench reads it through this name."""
        return self.train

    # -- validation -----------------------------------------------------

    def _require_file(self, path_value: str | None, field: str) -> Path:
        if path_value is None:
            raise ConfigError(f"{field}: required for {self.command}")
        p = Path(path_value)
        if not p.is_file():
            raise ConfigError(f"{field}: no such file: {path_value}")
        return p

    def _validate_for_command(self) -> None:
        cmd = self.command
        if cmd != "param-count":
            self._require_file(self.data_path, "data.path")
            if self.width is None and cmd != "ingest":
                raise ConfigError("data.window: required (or name a preset that sets the width)")
        # ModelSpec's own checks, for every command and every compare
        # candidate, before any data is read.  Geometry the data supplies
        # later stands in at a value that passes: as many input channels as
        # groups and, with no width set anywhere, a width every pool fits
        # (compare checks each candidate's channels before it writes anything)
        sections = [("model", self.model)] + [
            (f"compare.candidates[{i}].model", c["model"]) for i, c in enumerate(self.doc["compare"]["candidates"])]
        for where, section in sections:
            channels = None if section["input_channels"] is not None else max(section["groups"], 1)
            pinned = self.width is not None or section["input_width"] is not None
            _model_spec(section, where, channels, self.width if pinned else sys.maxsize)
        if cmd == "param-count":  # no data: the model section's own geometry must do
            _model_spec(self.model, "model", None, self.width)
            return
        if self.doc["data"]["max_gap"] < 0:
            raise ConfigError(f"data.max_gap: must be >= 0, got {self.doc['data']['max_gap']}")
        if cmd in ("cluster", "train", "eval") and self.target is None:
            raise ConfigError(f"data.target: required for {cmd}")
        if cmd == "cluster" and self.grouping != "explicit":
            raise ConfigError(f"model.grouping: cluster needs explicit grouping, got {self.grouping!r}")
        if cmd == "train" and self.grouping == "explicit":
            self._require_file(self.doc["train"]["assignment"], "train.assignment")
        if cmd == "eval":
            self._require_file(self.eval_checkpoint_path(), "eval.checkpoint")
            if self.doc["eval"]["split"] == "val" and self.train.val_fraction == 0.0:
                raise ConfigError("eval.split: no validation slice when train.val_fraction is 0")

    def eval_checkpoint_path(self) -> str:
        return self.doc["eval"]["checkpoint"] or str(self.out_dir / "checkpoint.json")


def _build(cls, where: str, **kw):
    """The dataclass a config section sets up; its range errors, which
    start with the field name, gain the section's name."""
    try:
        return cls(**kw)
    except ConfigError as e:
        raise ConfigError(f"{where}.{e}") from None


def _apply_override(doc: dict, item: str) -> None:
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise ConfigError(f"override: expected key=value, got {item!r}")
    node = doc
    parts = key.split(".")
    for part in parts[:-1]:
        if node.get(part) is None:  # YAML reads a section with no keys as null
            node[part] = {}
        node = node[part]
        if not isinstance(node, dict):
            raise ConfigError(f"override: {key!r} descends into a non-mapping")
    try:
        node[parts[-1]] = _load_yaml(value) if value else None
    except yaml.YAMLError as e:
        raise ConfigError(f"override: cannot parse value for {key!r}: {e}") from e


def _hash_doc(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- shared pipeline ------------------------------------------------------


@dataclass
class Prepared:
    """A dataset after repair and standardization, plus how it got there."""

    dataset: D.TimeSeriesDataset
    stats: D.StandardizeStats
    train_steps: int
    filled: list[tuple[str, int, int]]
    dropped: list[tuple[str, str]]  # (series, reason), repair and scaling drops merged


def _prepare(cfg: RunConfig, parse: bool = False) -> Prepared:
    """Repair and standardize the data file's table: the output
    directory's parsed.bin when it holds a good one written for the data
    file's bytes and ``parse`` is false, or else a parse, staged for
    parsed.bin.  This is the one place that makes that choice.  Each
    table is let go as soon as the next one exists.

    The file is hashed (``data._scan``), then parsed.bin is loaded only if
    written for that digest.  A file of at least ``OVERLAP_BYTES``, with
    two usable CPUs, is hashed on a thread of its own instead, while this
    one loads parsed.bin whatever source its header names, so long as its
    table could come from a file of this size (see ``data.load_parsed``),
    and repairs and standardizes that table.  Either way the result, or
    the error repair or standardization raised, is kept only when the
    header names the file's digest; otherwise the parse reuses the scan,
    so the file is hashed once.  The thread is joined before any parse,
    and before this returns or raises.  Where no thread can start, the
    steps run in turn."""
    path, cache = cfg.data_path, cfg.out_dir / PARSED_NAME
    if parse:
        return _refined(cfg, lambda: _staged(cfg, D.load_csv(path)))
    size = os.path.getsize(path)
    scanned = _on_a_thread(lambda: D._scan(path)) if size >= OVERLAP_BYTES and D._usable_cpus() >= 2 else None
    scan = None if scanned else D._scan(path)
    claims = []  # the source digest parsed.bin's header names, once its table passed its checks

    def parsed_bin() -> D.TimeSeriesDataset | None:
        raw = D.load_parsed(cache, scan and scan[0], size)
        claims.append(None if raw is None else raw.source_sha256)
        return raw

    try:
        prep, error = _refined(cfg, parsed_bin), None
    except GcnnError as e:
        prep, error = None, e
    finally:
        scan = scan or scanned()
    if claims == [scan[0]]:  # the table is the file's, and so is the error
        if error is not None:
            raise error
        return prep
    del prep, error  # the error's traceback holds the table it was raised for
    return _refined(cfg, lambda: _staged(cfg, D.load_csv(path, scan=scan)))


def _staged(cfg: RunConfig, raw: D.TimeSeriesDataset) -> D.TimeSeriesDataset:
    """``raw``, a parse of the data file, once staged for parsed.bin."""
    cfg.staged.append(D.stage_parsed(raw, cfg.out_dir / PARSED_NAME))
    return raw


def _refined(cfg: RunConfig, load: Callable[[], D.TimeSeriesDataset | None]) -> Prepared | None:
    """The table ``load()`` returns, repaired and standardized, or None
    for None.  Only this call holds the table, so it goes once repaired."""
    raw = load()
    if raw is None:
        return None
    repaired, report = D.repair_gaps(raw, max_gap=cfg.doc["data"]["max_gap"])
    del raw
    # training range = leading fraction of the time axis; scaling and the
    # similarity graph must not see the evaluation tail
    train_steps = min(repaired.n_steps, max(2, int(repaired.n_steps * cfg.split.train_fraction)))
    scaled, stats, flat = D.standardize(repaired, train_steps)
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


def _input_series(prep: Prepared, target: str) -> tuple[list[str], np.ndarray]:
    """Names and training-range values of every series except the target."""
    ds = prep.dataset
    ds.index_of(target)  # unknown target fails here with the name list
    rows = [i for i, name in enumerate(ds.names) if name != target]
    names = [ds.names[i] for i in rows]
    return names, ds.values[np.array(rows), : prep.train_steps]


def _cluster_inputs(prep: Prepared, target: str, k: int, seed: int) -> tuple[list[str], S.GroupAssignment, float]:
    names, values = _input_series(prep, target)
    graph = S.similarity_from_series(values, names)
    assignment = S.spectral_cluster(graph, k, seed=seed)
    return names, assignment, S.ncut_value(graph, assignment)


def _read_assignment(path: Path, k: int) -> dict[str, int]:
    """Series name -> group label; every label is in 1..k and every group has a series."""
    mapping: dict[str, int] = {}
    first_line: dict[str, int] = {}
    text = D.read_utf8(path)
    try:
        records = D._records(text)
    except DataError as e:  # a fault csv.reader found, as "line N: ..."
        raise DataError(f"{path}:{str(e).removeprefix('line ')}") from None
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
    if not mapping:
        raise DataError(f"{path}: no assignments found")
    empty = sorted(set(range(1, k + 1)) - set(mapping.values()))
    if empty:
        raise DataError(f"{path}: group {empty[0]} has no series (model.groups is {k})")
    return mapping


def _aligned_labels(mapping: dict[str, int], channel_names: list[str]) -> list[int]:
    missing = [n for n in channel_names if n not in mapping]
    if missing:
        raise DataError(f"assignment lacks series {missing}")
    extra = sorted(set(mapping) - set(channel_names))
    if extra:
        raise DataError(f"assignment names unknown series {extra}")
    return [mapping[n] for n in channel_names]


def _model_spec(section: dict, where: str, channels: int | None, width: int | None) -> M.ModelSpec:
    """The model a resolved model section describes, over the ``channels``
    input series and ``width``-step windows the data supplies (None: the
    section's own).  Geometry the section pins must match them; every
    error names the section, ``where``."""
    pinned_channels, pinned_width = section["input_channels"], section["input_width"]
    if None not in (pinned_channels, channels) and pinned_channels != channels:
        raise ConfigError(f"{where}: model expects {pinned_channels} input channels, dataset provides {channels}")
    if None not in (pinned_width, width) and pinned_width != width:
        raise ConfigError(f"{where}: model expects {pinned_width}-step windows, the run's are {width} steps")
    channels = pinned_channels if channels is None else channels
    width = pinned_width if width is None else width
    if channels is None:
        raise ConfigError(f"{where}.input_channels: required here (set it or name a preset)")
    if width is None:
        raise ConfigError(f"{where}.input_width: required here (set data.window or name a preset)")
    named = {f.name: section[f.name] for f in fields(M.ModelSpec) if f.name in section}
    try:
        return M.ModelSpec(**{**named, "input_channels": channels, "input_width": width,
                              "recurrent": section["family"] == "rcnn"})
    except ConfigError as e:
        raise ConfigError(f"{where}: {e}") from None


def _counted_model(spec: M.ModelSpec, labels: list[int] | None, seed: int,
                   where: str = "model", make=M.build_model) -> tuple[M.Model, int, int | None]:
    """The model ``make`` gives (built, or only assembled to be counted),
    its parameter count and, when it is grouped, the count of the same
    geometry without grouping, assembled unfilled.  Explicit grouping exists
    to cut parameters, so a model it does not shrink is refused.  Errors
    name the model section, ``where``."""
    try:
        model = make(spec, labels, seed)
    except (ConfigError, ShapeError) as e:
        raise ConfigError(f"{where}: {e}") from None
    n_params = M.count_params(model)
    if spec.grouping == "none":
        return model, n_params, None
    vanilla = M.count_params(M.assemble(replace(spec, grouping="none", groups=1), None, seed))
    if spec.grouping == "explicit" and n_params >= vanilla:
        raise ConfigError(
            f"{where}: explicit grouping must shrink the parameter count: {n_params} grouped, {vanilla} ungrouped")
    return model, n_params, vanilla


# -- artifact helpers -----------------------------------------------------


def _write_json(cfg: RunConfig, name: str, doc: dict) -> Path:
    path = cfg.out_dir / name
    payload = {"config_hash": cfg.config_hash, **doc}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _stamp(cfg: RunConfig) -> str:
    """The first line of every CSV file a command writes."""
    return f"# config {cfg.config_hash}\n"


def _write_csv(cfg: RunConfig, name: str, lines: Iterable[str]) -> Path:
    """Write the config stamp, then ``lines`` (each ending in a newline)."""
    path = cfg.out_dir / name
    D.write_lines(path, itertools.chain([_stamp(cfg)], lines))
    return path


def _plan_lines(spec: M.ModelSpec, n_params: int, vanilla: int | None) -> list[str]:
    lines = [
        f"widths {spec.layer_widths()}",
        f"channels {[spec.input_channels, *spec.stage_channels]}",
    ]
    if vanilla is None:
        lines.append(f"parameters {n_params}")
    else:
        lines.append(f"parameters {n_params} (ungrouped equivalent {vanilla})")
    return lines


# -- commands -------------------------------------------------------------


def cmd_ingest(cfg: RunConfig) -> int:
    # always a parse: a parsed.bin here is this command's own earlier output
    prep = _prepare(cfg, parse=True)
    ds = prep.dataset
    dataset_path = cfg.out_dir / "dataset.csv"
    D.save_csv(ds, dataset_path, head=_stamp(cfg))
    report = {
        "source": cfg.data_path,
        "series": ds.names,
        "steps": ds.n_steps,
        "train_steps": prep.train_steps,
        "filled": [{"series": n, "start": s, "length": ln} for n, s, ln in prep.filled],
        "dropped": [{"series": n, "reason": r} for n, r in prep.dropped],
        "stats": {n: {"mean": float(m), "std": float(s)}
                  for n, m, s in zip(prep.stats.names, prep.stats.mean, prep.stats.std)},
    }
    report_path = _write_json(cfg, "ingest.json", report)
    print(f"config {cfg.config_hash[:12]}")
    print(f"kept {ds.n_series} series over {ds.n_steps} steps "
          f"({len(prep.dropped)} dropped, {len(prep.filled)} gaps filled, train range {prep.train_steps})")
    print(f"wrote {dataset_path} {report_path} {cfg.out_dir / PARSED_NAME}")
    return 0


def cmd_cluster(cfg: RunConfig) -> int:
    prep = _prepare(cfg)
    k = cfg.model["groups"]
    names, assignment, ncut = _cluster_inputs(prep, cfg.target, k, cfg.seed)
    table_path = _write_csv(cfg, "assignment.csv",
                            D.table_lines(["series_name", "group_id"], zip(names, assignment.labels)))
    report_path = _write_json(cfg, "cluster.json", {
        "target": cfg.target,
        "k": k,
        "ncut": ncut,
        "sizes": assignment.group_sizes(),
        "groups": {name: label for name, label in zip(names, assignment.labels)},
    })
    print(f"config {cfg.config_hash[:12]}")
    print(f"{k} groups of sizes {assignment.group_sizes()}, ncut {ncut!r}")
    print(f"wrote {table_path} {report_path}")
    return 0


def cmd_train(cfg: RunConfig) -> int:
    prep = _prepare(cfg)
    wset = D.make_windows(prep.dataset, cfg.target, cfg.width)
    del prep  # the windows hold copies of what they need
    train_set, test_set = D.split(wset, cfg.split)

    labels = None
    if cfg.grouping == "explicit":
        mapping = _read_assignment(Path(cfg.doc["train"]["assignment"]), cfg.model["groups"])
        labels = _aligned_labels(mapping, wset.channel_names)
    spec = _model_spec(cfg.model, "model", wset.n_channels, wset.window)
    model, n_params, vanilla = _counted_model(spec, labels, cfg.seed)

    print(f"config {cfg.config_hash[:12]}")
    for line in _plan_lines(model.spec, n_params, vanilla):
        print(line)

    result = R.train(model, train_set, cfg.train)
    ckpt_path = cfg.out_dir / "checkpoint.json"
    M.save_checkpoint(result.model, ckpt_path, meta={"config": cfg.config_hash})
    history_path = _write_csv(cfg, "history.csv", D.table_lines(
        [f.name for f in fields(R.HistoryEntry)], map(astuple, result.history)))
    report = {
        "target": cfg.target,
        "parameters": n_params,
        "widths": model.spec.layer_widths(),
        "best_epoch": result.best_epoch,
        "best_val_srmse": result.best_val_srmse,
        "train_samples": train_set.n_samples,
        "test_samples": test_set.n_samples,
        "checkpoint": ckpt_path.name,
    }
    if vanilla is not None:
        report["ungrouped_parameters"] = vanilla
    paths = [ckpt_path, history_path]
    coeffs = result.model.coefficients()
    if coeffs is not None:
        header = ["series_name", *(f"u{j + 1}" for j in range(coeffs.shape[1]))]
        rows = ([name, *row] for name, row in zip(wset.channel_names, coeffs.tolist()))
        paths.append(_write_csv(cfg, "coefficients.csv", D.table_lines(header, rows)))
    paths.append(_write_json(cfg, "train.json", report))
    print(f"best epoch {result.best_epoch} val srmse {result.best_val_srmse!r}")
    print("wrote " + " ".join(str(p) for p in paths))
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    prep = _prepare(cfg)
    wset = D.make_windows(prep.dataset, cfg.target, cfg.width)
    del prep  # the windows hold copies of what they need
    train_set, test_set = D.split(wset, cfg.split)
    which = cfg.doc["eval"]["split"]
    if which == "test":
        chosen = test_set
    else:
        fit_set, val_set = R.validation_carve(train_set, cfg.train.val_fraction)
        chosen = val_set if which == "val" else fit_set

    model = M.load_checkpoint(cfg.eval_checkpoint_path())
    spec = model.spec
    if (spec.input_channels, spec.input_width) != (wset.n_channels, wset.window):
        raise ShapeError(f"checkpoint expects {spec.input_channels} input channels over {spec.input_width}-step "
                         f"windows, the data gives {wset.n_channels} over {wset.window}")

    report = R.evaluate(model, chosen, model_id=cfg.config_hash[:12])
    report_path = _write_json(cfg, "eval.json", {"split": which, **report.to_dict()})
    pred_path = _write_csv(cfg, "predictions.csv", D.table_lines(
        ["t", "target", "prediction"], zip(report.times, report.targets, report.predictions)))
    print(f"config {cfg.config_hash[:12]}")
    print(f"{which} srmse {report.srmse!r} (rmse {report.rmse!r}) over {len(report.targets)} samples")
    print(f"wrote {report_path} {pred_path}")
    return 0


def _pick_targets(cfg: RunConfig, names: list[str]) -> list[str]:
    wanted = cfg.doc["compare"]["targets"]
    if wanted is not None:
        unknown = [t for t in wanted if t not in names]
        if unknown:
            raise DataError(f"compare.targets: unknown series {unknown}; have {names}")
        return list(wanted)
    repeats = cfg.doc["compare"]["repeats"]
    if repeats > len(names):
        raise ConfigError(f"compare.repeats: {repeats} picks from only {len(names)} series")
    rng = np.random.default_rng(cfg.seed)
    picked = rng.choice(len(names), size=repeats, replace=False)
    return [names[i] for i in picked]


def cmd_compare(cfg: RunConfig) -> int:
    prep = _prepare(cfg)
    candidates = cfg.doc["compare"]["candidates"]
    # every candidate's geometry is checked before the first baseline
    # writes anything; each target leaves the other series as inputs
    wheres = [f"compare.candidates[{i}].model" for i in range(len(candidates))]
    specs = [_model_spec(c["model"], where, prep.dataset.n_series - 1, cfg.width)
             for c, where in zip(candidates, wheres)]
    picks = _pick_targets(cfg, prep.dataset.names)
    order = list(_BASELINES) + [c["name"] for c in candidates]
    results: dict[str, dict[str, float]] = {name: {} for name in order}
    try:
        for target in picks:
            wset = D.make_windows(prep.dataset, target, cfg.width)
            train_set, test_set = D.split(wset, cfg.split)
            results["linear"][target] = R.linear_baseline(train_set, test_set, 0.0).srmse
            results["ridge"][target] = R.linear_baseline(
                train_set, test_set, cfg.doc["compare"]["ridge_penalty"]).srmse
            assignments: dict[int, S.GroupAssignment] = {}  # by k: cluster once per target
            for cand, where, spec in zip(candidates, wheres, specs):
                labels = None
                if spec.grouping == "explicit":
                    if spec.groups not in assignments:
                        assignments[spec.groups] = _cluster_inputs(prep, target, spec.groups, cfg.seed)[1]
                    labels = assignments[spec.groups].labels
                model = _counted_model(spec, labels, cfg.seed, where)[0]
                fitted = R.train(model, train_set, cfg.train)
                results[cand["name"]][target] = R.evaluate(fitted.model, test_set).srmse
    finally:
        # a failing member keeps whatever finished before it
        complete = all(len(results[name]) == len(picks) for name in order)
        rows = []
        for name in order:
            scores = [results[name][t] for t in picks if t in results[name]]
            if scores:  # std is the population spread across picks
                rows.append((name, np.mean(scores), np.std(scores), len(scores)))
        summary = D.dumps_table(["model", "mean_srmse", "std_srmse", "repeats"], rows)
        summary_path = _write_csv(cfg, "summary.csv", [summary])
        detail_path = _write_json(cfg, "compare.json", {
            "targets": picks,
            "ridge_penalty": cfg.doc["compare"]["ridge_penalty"],
            "complete": complete,
            "results": results,
        })
    print(f"config {cfg.config_hash[:12]}")
    print(summary, end="")
    print(f"wrote {summary_path} {detail_path}")
    return 0


def cmd_param_count(cfg: RunConfig) -> int:
    spec = _model_spec(cfg.model, "model", None, cfg.width)
    labels = None
    if spec.grouping == "explicit":
        # without data there is no clustering, so the count is for
        # round-robin groups; other partitions can count more, since in
        # rcnn a group exactly as wide as its stage share skips the lift
        labels = [i % spec.groups + 1 for i in range(spec.input_channels)]
    _, n_params, vanilla = _counted_model(spec, labels, cfg.seed, make=M.assemble)
    lines = _plan_lines(spec, n_params, vanilla)
    path = _write_csv(cfg, "params.txt", (line + "\n" for line in lines))
    print(f"config {cfg.config_hash[:12]}")
    for line in lines:
        print(line)
    print(f"wrote {path}")
    return 0


_HANDLERS = {
    "ingest": cmd_ingest,
    "cluster": cmd_cluster,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "param-count": cmd_param_count,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcnn", description="grouped time-series CNNs: ingest, cluster, train, evaluate")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} step")
        p.add_argument("config", help="YAML settings document")
        p.add_argument("--seed", type=int, default=None, help="replace the config seed")
        p.add_argument("--out", default=None, help="replace the output directory")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="replace one setting, e.g. train.epochs=50")
    return parser


# glibc's mallopt parameters and the values main sets: arrays under 32 MiB
# come from the heap, and a free top of the heap up to 128 MiB stays in
# the process
_MALLOC_THRESHOLDS = ((-3, 32 << 20), (-1, 128 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

# glibc's variables that each freeze its dynamic thresholds: a user who
# set one, or a glibc.malloc tunable, chose the allocator's behaviour
_MALLOC_VARIABLES = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_TOP_PAD_", "MALLOC_MMAP_MAX_")


@functools.cache
def _keep_freed_memory() -> bool:
    """Fix glibc's mmap and trim thresholds for this process; True if set.

    By default glibc moves both thresholds as the program frees memory, and
    gives a free top of the heap back to the kernel.  A training step frees
    the arrays the next step allocates again, so each step faulted the same
    pages back in, zero-filled: 18k-26k minor faults and 28-76 ms of system
    time per ``train`` call of the benchmark's ``desk`` workload.  With both
    thresholds fixed (fixing either stops glibc moving the other) the freed
    memory stays here for the next step, at the cost of up to 128 MiB kept
    resident and a peak RSS that may grow by a few MB.  Where the C library
    has no ``mallopt`` (macOS) or refuses the values (musl), nothing
    changes; nor when the user set the allocator through glibc's
    environment.
    """
    if any(name in os.environ for name in _MALLOC_VARIABLES) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return False
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no symbols to search, no mallopt, or no CDLL(None) (Windows)
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _MALLOC_THRESHOLDS)


def main(argv: list[str] | None = None) -> int:
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    cfg = None
    code = 1  # a crash
    try:
        cfg = RunConfig.load(args.command, args.config,
                             seed=args.seed, out=args.out, overrides=args.override)
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        # overflow on the way to the divergence guard is reported via the
        # exit code; numpy warning spam would only obscure it
        with np.errstate(over="ignore", invalid="ignore"):
            code = _HANDLERS[args.command](cfg)
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 4
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        code = 3
    except GcnnError as e:
        # config and shape problems are both "fix the config" failures
        print(f"error: {e}", file=sys.stderr)
        code = 2
    finally:
        # a parse becomes parsed.bin only when the command succeeded
        for partial in cfg.staged if cfg is not None else ():
            try:
                if code == 0:
                    os.replace(partial, cfg.out_dir / PARSED_NAME)
            finally:  # after a rename, nothing is left to remove
                partial.unlink(missing_ok=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
