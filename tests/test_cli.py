"""End-to-end checks of the command-line front end.

Commands run in-process through cli.main so exit codes and artifacts
can be asserted directly; a test starts a fresh interpreter only where
the check is about the process itself (its exit status, the allocator
variables glibc reads at start, its CPU affinity).  Training configs are
kept tiny; the whole file should stay well under a minute.
"""

import ctypes
import hashlib
import importlib
import json
import math
import os
import pkgutil
import re
import resource
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

import gcnn
from gcnn import cli
from gcnn import data as D
from gcnn import models as M
from gcnn import synth
from gcnn.data import load_csv, make_windows, repair_gaps, save_csv, split, standardize
from gcnn.data import SplitSpec
from gcnn.errors import DataError
from oracles import load_parsed


def make_series(path: Path, **kw) -> Path:
    spec = synth.SynthSpec(**{"n_groups": 3, "per_group": 4, "length": 120, "seed": 7, **kw})
    save_csv(synth.generate(spec), path)
    return path


def write_config(path: Path, doc: dict) -> Path:
    path.write_text(yaml.safe_dump(doc))
    return path


def base_config(data_path: Path, out_dir: Path, **model_kw) -> dict:
    return {
        "data": {"path": str(data_path), "target": "target", "window": 8},
        "model": {
            "stage_channels": [6, 6],
            "pool_before": [2],
            "pool_window": 2,
            "pool_stride": 2,
            "dense_units": [4, 1],
            **model_kw,
        },
        "train": {"epochs": 2, "batch_size": 16, "learning_rate": 0.003},
        "seed": 0,
        "out": str(out_dir),
    }


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory) -> Path:
    return make_series(tmp_path_factory.mktemp("data") / "series.csv")


def run(command: str, config: Path, *extra: str) -> int:
    return cli.main([command, str(config), *extra])


def test_every_name_a_module_exports_resolves():
    """Each name in the ``__all__`` of gcnn and of each of its modules is
    defined there, so a deleted function cannot stay listed."""
    modules = [gcnn] + [importlib.import_module(m.name) for m in pkgutil.iter_modules(gcnn.__path__, "gcnn.")]
    assert len(modules) > 8
    for module in modules:
        assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == [], module.__name__


# -- ingest ----------------------------------------------------------------


def test_ingest_clean_fixture_reports_no_drops(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("ingest", cfg) == 0
    report = json.loads((tmp_path / "out" / "ingest.json").read_text())
    assert report["dropped"] == []
    assert report["filled"] == []
    assert len(report["series"]) == 13
    exported = load_csv(tmp_path / "out" / "dataset.csv")
    assert exported.n_series == 13
    assert exported.mask.all()


def test_ingest_gap_policy_fills_short_and_drops_long(tmp_path):
    times = list(range(30))
    rng = np.random.default_rng(3)
    a, b, c = rng.normal(size=(3, 30))
    a = np.cumsum(np.abs(a)) + 1.0
    lines = ["time,a,b,c"]
    for t in times:
        b_cell = "" if 10 <= t < 15 else repr(float(b[t] + t))
        c_cell = "" if 20 <= t < 22 else repr(float(c[t] - t))
        lines.append(f"{t}.0,{repr(float(a[t]))},{b_cell},{c_cell}")
    data_path = tmp_path / "gaps.csv"
    data_path.write_text("\n".join(lines) + "\n")

    doc = base_config(data_path, tmp_path / "out")
    doc["data"]["max_gap"] = 2
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("ingest", cfg) == 0
    report = json.loads((tmp_path / "out" / "ingest.json").read_text())
    assert [d["series"] for d in report["dropped"]] == ["b"]
    assert "gap" in report["dropped"][0]["reason"]
    assert [f["series"] for f in report["filled"]] == ["c"]
    assert sorted(report["series"]) == ["a", "c"]


def test_ingest_rerun_is_byte_identical(series_csv, tmp_path):
    doc = base_config(series_csv, tmp_path / "out1")
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("ingest", cfg) == 0
    assert run("ingest", cfg, "--out", str(tmp_path / "out2")) == 0
    for name in ("dataset.csv", "ingest.json", "parsed.bin"):
        first = (tmp_path / "out1" / name).read_bytes()
        second = (tmp_path / "out2" / name).read_bytes()
        assert first == second


def gappy_synth() -> D.TimeSeriesDataset:
    """A fixed synthetic set with gaps: with data.max_gap 3, one series
    loses its first step (dropped), one has a 5-step run (dropped) and
    two have short runs (filled)."""
    ds = synth.generate(synth.SynthSpec(n_groups=2, per_group=3, length=60, seed=5))
    for row, start, length in ((0, 0, 1), (1, 10, 2), (2, 30, 5), (4, 20, 1), (4, 40, 3)):
        ds.values[row, start : start + length] = np.nan
        ds.mask[row, start : start + length] = False
    return ds


@pytest.mark.skipif(D._usable_cpus() < 2, reason="one usable CPU: the pinned and the unpinned ingest would both "
                                                  "take one block, so this cannot show one block and several agree")
def test_ingest_bytes_do_not_depend_on_the_cpus_it_may_use(tmp_path):
    """A gappy table of over two BLOCK_BYTES of text, ingested by a process
    pinned to one CPU (one block) and by one free to use every usable CPU
    (a block each, parsed and rendered in forked children): the same
    bytes, and no temporary file left."""
    ds = synth.generate(synth.SynthSpec(n_groups=20, per_group=5, length=1500, seed=4))
    for row, start, length in ((2, 40, 3), (30, 700, 2), (55, 1200, 5), (80, 0, 1)):  # the last one is dropped
        ds.values[row, start : start + length] = np.nan
        ds.mask[row, start : start + length] = False
    save_csv(ds, tmp_path / "big.csv")
    assert (tmp_path / "big.csv").stat().st_size >= 2 * D.BLOCK_BYTES and ds.values.size - 1500 >= 2 * D.BLOCK_CELLS
    write_config(tmp_path / "big.yaml", {"data": {"path": "big.csv"}})
    script = textwrap.dedent("""
        import os, sys
        from gcnn import cli
        if sys.argv[1] == "one":
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        print(len(os.sched_getaffinity(0)))
        sys.exit(cli.main(["ingest", "big.yaml", "--out", sys.argv[1]]))
    """)
    cpus = {out: int(run_in_child(tmp_path, "-c", script, out).split()[0]) for out in ("one", "all")}
    assert cpus["one"] == 1 and cpus["all"] >= 2
    for name in ("dataset.csv", "ingest.json", cli.PARSED_NAME):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "all" / name).read_bytes(), name
    assert list(tmp_path.glob("**/*.tmp")) == []


def test_ingest_output_bytes_are_pinned(tmp_path, monkeypatch):
    """The rendered CSV and what ingest writes for it (a missing endpoint
    and a gap over the cap dropped, short gaps filled), byte for byte; a
    relative data.path keeps the stamped config hash fixed."""
    monkeypatch.chdir(tmp_path)
    text = D.dumps_csv(gappy_synth())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f52d3685f1ac82707ed3659b667b0339b1921648e8711eccc75cd89af8d726e8")
    Path("series.csv").write_text(text)
    cfg = write_config(Path("run.yaml"), {"data": {"path": "series.csv", "max_gap": 3}, "out": "out"})
    assert run("ingest", cfg) == 0
    assert hashlib.sha256(Path("out/dataset.csv").read_bytes()).hexdigest() == (
        "fc1923e3cc3b1b1d2f5847cfcabea9a098b22a5ec1c1bd3fe98896689449bc76")
    assert hashlib.sha256(Path("out/parsed.bin").read_bytes()).hexdigest() == (
        "6e34cf25286bc151fb5d09609170d973a47df91eb151d56edfe84c0972232d12")
    assert hashlib.sha256(Path("out/ingest.json").read_bytes()).hexdigest() == (
        "dedae3502cb969bdaf25d25f559082c6e701f6911f8733188f96be10002383e8")


def test_ingest_that_fails_after_the_parse_exits_3_and_writes_nothing(tmp_path, capsys):
    """The file parses, but gap repair leaves one series: no parsed.bin
    either, since the copy of the parse ingest staged is put in place
    only when it exits 0."""
    data_path = tmp_path / "gaps.csv"
    data_path.write_text("time,a,b,c\n0,1,,\n1,2,3,4\n2,3,5,6\n")
    cfg = write_config(tmp_path / "run.yaml", base_config(data_path, tmp_path / "out"))
    assert run("ingest", cfg) == 3
    assert "gap repair left 1 usable series" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_ingest_never_reads_parsed_bin(tmp_path, monkeypatch):
    """A parsed.bin that passes every check but holds other values (forged,
    its digest recomputed) is ignored and rewritten by ingest."""
    monkeypatch.chdir(tmp_path)
    gappy_series(Path("series.csv"))
    cfg = write_config(Path("run.yaml"), pipeline_config())
    assert run("ingest", cfg, "--out", "fresh") == 0
    Path("out").mkdir()
    table = D.load_csv("series.csv")
    table.values *= 2.0
    os.replace(D.stage_parsed(table, Path("out/parsed.bin"), D._scan("series.csv")[0]), Path("out/parsed.bin"))
    assert load_parsed(Path("out/parsed.bin"), D._scan("series.csv")[0]) is not None
    assert run("ingest", cfg) == 0
    for name in ("dataset.csv", "ingest.json", "parsed.bin"):
        assert Path("out", name).read_bytes() == Path("fresh", name).read_bytes()


@pytest.mark.parametrize("cache", ["parse", "parsed-bin", "stale", "stale-larger"],
                         ids=["parse", "parsed-bin", "stale-parsed-bin", "larger-stale-parsed-bin"])
def test_prepare_holds_at_most_two_and_a_half_tables(tmp_path, monkeypatch, cache):
    """_prepare lets each table go as soon as the next one exists: the
    parse, then the table with its repaired copy, then that copy with the
    standardized one.  (Holding the parsed, repaired and standardized
    tables at once, with the file's text read whole, peaked at 5.3.)  A
    stale parsed.bin, refined on two CPUs while the file is hashed, is let
    go before the parse; one of more cells than the file has bytes, here
    five times the file's table, is never loaded."""
    rng = np.random.default_rng(0)
    ds = D.TimeSeriesDataset([f"s{i}" for i in range(20)], np.arange(16000.0), rng.standard_normal((20, 16000)),
                             np.ones((20, 16000), dtype=bool))
    ds.values[3, 10:13], ds.mask[3, 10:13] = np.nan, False  # filled
    ds.values[5, 100:200], ds.mask[5, 100:200] = np.nan, False  # dropped
    save_csv(ds, tmp_path / "t.csv")
    cfg = write_config(tmp_path / "run.yaml", {"data": {"path": str(tmp_path / "t.csv")}, "out": str(tmp_path)})
    assert run("ingest", cfg) == 0
    if cache.startswith("stale"):
        monkeypatch.setattr(D, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(D, "OVERLAP_BYTES", 1)
        ds.values[0, 0] += 1.0
        if cache == "stale-larger":  # values such as -1.0 in 1.6 MB of text, and 2M cells in parsed.bin
            np.round(ds.values, out=ds.values)
            other = D.TimeSeriesDataset(ds.names, np.arange(96000.0), np.zeros((20, 96000)))
            os.replace(D.stage_parsed(other, tmp_path / "parsed.bin", "0" * 64), tmp_path / "parsed.bin")
            del other
        save_csv(ds, tmp_path / "t.csv")
    cfg = cli.RunConfig.load("ingest", str(cfg))
    tracemalloc.start()
    try:
        prep = cli._prepare(cfg, parse=cache == "parse")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(cfg.staged) == (cache != "parsed-bin") and prep.dataset.n_series == 19
    for partial in cfg.staged:
        partial.unlink()
    assert peak < 2.5 * (ds.values.nbytes + ds.mask.nbytes + ds.times.nbytes)


def test_eval_lets_the_prepared_table_go_before_the_forward_pass(tmp_path):
    """eval keeps only the windows of the prepared table through the
    checkpoint load and the forward pass.  (Holding the table as well
    peaked at 3.26 tables here; the parse of the same table into
    parsed.bin and its standardized copy peak at about 2.1.)"""
    rng = np.random.default_rng(0)
    ds = D.TimeSeriesDataset([f"s{i}" for i in range(20)], np.arange(8000.0), rng.standard_normal((20, 8000)),
                             np.ones((20, 8000), dtype=bool))
    save_csv(ds, tmp_path / "t.csv")
    spec = M.ModelSpec(input_channels=19, input_width=64, stage_channels=(40, 40), pool_before=(2,),
                       dense_units=(4, 1))
    M.save_checkpoint(M.build_model(spec, seed=0), tmp_path / "checkpoint.json")
    cfg = write_config(tmp_path / "run.yaml", {
        "data": {"path": str(tmp_path / "t.csv"), "target": "s0", "window": 64},
        "model": {"stage_channels": [40, 40], "pool_before": [2], "dense_units": [4, 1]},
        "out": str(tmp_path)})
    assert run("ingest", cfg) == 0
    tracemalloc.start()
    try:
        assert run("eval", cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * (ds.values.nbytes + ds.mask.nbytes + ds.times.nbytes)


def test_ingest_missing_data_file_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(tmp_path / "nope.csv", tmp_path / "out"))
    assert run("ingest", cfg) == 2


def test_malformed_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a,b\n1.0,1,2\n1.0,3,4\n")  # duplicate stamp
    cfg = write_config(tmp_path / "run.yaml", base_config(bad, tmp_path / "out"))
    assert run("ingest", cfg) == 3


# -- the parsed table a command leaves ------------------------------------------

PIPELINE = ("cluster", "train", "eval", "compare")
PIPELINE_ARTIFACTS = ("assignment.csv", "cluster.json", "checkpoint.json", "history.csv", "train.json", "eval.json",
                      "predictions.csv", "summary.csv", "compare.json")


def gappy_series(path: Path, seed: int = 7) -> Path:
    """make_series's set with three short gaps, which repair fills."""
    ds = synth.generate(synth.SynthSpec(n_groups=3, per_group=4, length=120, seed=seed))
    for row, start, length in ((1, 20, 3), (5, 60, 1), (12, 90, 2)):
        ds.values[row, start : start + length] = np.nan
        ds.mask[row, start : start + length] = False
    save_csv(ds, path)
    return path


def pipeline_config() -> dict:
    """Every command on series.csv into out/; relative paths keep the config
    hash fixed, so runs in different directories write the same bytes."""
    doc = base_config(Path("series.csv"), Path("out"), grouping="explicit", groups=3)
    doc["train"]["assignment"] = "out/assignment.csv"
    doc["compare"] = {"targets": ["target", "g2s1"], "candidates": [{"name": "grouped", "model": dict(doc["model"])}]}
    return doc


def counting_parses(monkeypatch) -> list:
    """The record stream of every CSV parse from here on."""
    parses = []
    monkeypatch.setattr(D, "_parse_records",
                        lambda records, *rest, parse=D._parse_records: parses.append(records) or parse(records, *rest))
    return parses


def temporary_files(out: Path) -> list[str]:
    return sorted(p.name for p in out.iterdir() if p.name.endswith(".tmp"))


@pytest.fixture(scope="module")
def pipeline_reference(tmp_path_factory) -> dict[str, bytes]:
    """The artifacts of cluster, train, eval and compare run where ingest
    never ran, and, as "parsed.bin", the copy ingest writes in a fresh
    directory.  cluster finds no parsed.bin, so it parses and leaves one,
    byte for byte ingest's; the commands after it parse nothing."""
    work = tmp_path_factory.mktemp("reference")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        gappy_series(Path("series.csv"))
        cfg = write_config(Path("run.yaml"), pipeline_config())
        parses = counting_parses(mp)
        for command in PIPELINE:
            assert run(command, cfg) == 0
        assert len(parses) == 1
        assert run("ingest", cfg, "--out", "fresh") == 0
        assert Path("out/parsed.bin").read_bytes() == Path("fresh/parsed.bin").read_bytes()
        assert temporary_files(Path("out")) == []
        return {name: Path(directory, name).read_bytes()
                for directory, names in (("out", PIPELINE_ARTIFACTS), ("fresh", [cli.PARSED_NAME]))
                for name in names}


def forged(edit, source_sha256=None):
    """Rewrite parsed.bin from an edited copy of the table it holds, for
    ``source_sha256`` (None: the data file's digest); the body digest is
    recomputed, so only the table checks can refuse it."""
    def forge(parsed: Path) -> None:
        table = D.load_csv("series.csv")
        edit(table)
        os.replace(D.stage_parsed(table, parsed, source_sha256 or D._scan("series.csv")[0]), parsed)
    return forge


def flip_last_byte(parsed: Path) -> None:
    raw = parsed.read_bytes()
    parsed.write_bytes(raw[:-1] + bytes([raw[-1] ^ 0x40]))  # the top byte of the last value: a wrong table digest


def edit_header(parsed: Path, edit) -> None:
    """Rewrite parsed.bin's header line as ``edit`` returns it, body kept."""
    head, _, body = parsed.read_bytes().partition(b"\n")
    parsed.write_bytes(edit(head) + b"\n" + body)


def format_1(parsed: Path) -> None:
    """Rewrite parsed.bin as the first format held the same table: its
    digest covered the body only."""
    head, _, body = parsed.read_bytes().partition(b"\n")
    doc = json.loads(head)
    doc = {"format": "gcnn.parsed/1", "source_sha256": doc["source_sha256"],
           "body_sha256": hashlib.sha256(body).hexdigest(), "names": doc["names"], "steps": doc["steps"]}
    parsed.write_bytes(json.dumps(doc, sort_keys=True, separators=(",", ":")).encode() + b"\n" + body)


def unrepairable(table: D.TimeSeriesDataset) -> None:
    """Every series misses its first step, so gap repair keeps none."""
    table.values[:, 0] = np.nan


PARSED_CASES = {
    "present": lambda parsed: None,
    "absent": Path.unlink,
    "stale": lambda parsed: gappy_series(Path("series.csv")),  # ingest read another table
    "truncated": lambda parsed: parsed.write_bytes(parsed.read_bytes()[:-8]),
    "wrong-body-digest": flip_last_byte,  # the body no longer matches the table digest
    # a name edited with no digest recomputed; the names still pass their checks
    "edited-name": lambda parsed: edit_header(parsed, lambda head: head.replace(b'"g1s1"', b'"h1s1"')),
    "format-1": format_1,
    "forged-inf": forged(lambda table: table.values.__setitem__((2, 5), np.inf)),
    "forged-comment-name": forged(lambda table: table.names.__setitem__(0, "#g1s1")),
    "stale-unrepairable": forged(unrepairable, "0" * 64),  # written for other source bytes
}


def overlapped(monkeypatch) -> list:
    """Every data file counts as large on two usable CPUs, so a command
    that may load parsed.bin hashes the file on a second thread while it
    refines the table there (and a parse takes blocks); returns the list
    of those threads' starts."""
    monkeypatch.setattr(D, "BLOCK_BYTES", 1)
    monkeypatch.setattr(D, "OVERLAP_BYTES", 1)
    monkeypatch.setattr(D, "_usable_cpus", lambda: 2)
    starts, start = [], D._on_a_thread
    monkeypatch.setattr(D, "_on_a_thread", lambda work: starts.append(1) or start(work))
    return starts


@pytest.mark.parametrize("case", PARSED_CASES)
def test_commands_write_the_same_bytes_whatever_parsed_bin_holds(pipeline_reference, tmp_path, monkeypatch, case):
    """cluster, train, eval and compare load parsed.bin only when it was
    written for the data file's bytes and passes every check.  On a miss
    the first of them parses the file, once, and leaves ingest's own copy
    of the table in parsed.bin, so the rest parse nothing.  Either way
    they write the bytes of a run that never had a parsed.bin."""
    commands_write_the_reference_bytes(pipeline_reference, tmp_path, monkeypatch, case)


@pytest.mark.parametrize("case", PARSED_CASES)
def test_commands_write_the_same_bytes_whatever_parsed_bin_holds_when_hashing_overlaps(
        pipeline_reference, tmp_path, monkeypatch, case):
    """The same with the data file hashed on a second thread while the
    table parsed.bin holds is loaded, repaired and standardized: the
    table, or the error its repair raised, is kept only when parsed.bin
    was written for the file's bytes."""
    starts = overlapped(monkeypatch)
    commands_write_the_reference_bytes(pipeline_reference, tmp_path, monkeypatch, case)
    assert len(starts) == len(PIPELINE)


@pytest.mark.parametrize("case", ["present", "stale"])
def test_commands_write_the_same_bytes_when_no_thread_can_start(pipeline_reference, tmp_path, monkeypatch, case):
    """Where a large file on two CPUs finds no thread to hash it on, as
    under a limit on processes, the steps run in turn."""
    starts = overlapped(monkeypatch)

    def refused(thread):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refused)
    commands_write_the_reference_bytes(pipeline_reference, tmp_path, monkeypatch, case)
    assert len(starts) == len(PIPELINE)


def commands_write_the_reference_bytes(pipeline_reference, tmp_path, monkeypatch, case) -> None:
    monkeypatch.chdir(tmp_path)
    gappy_series(Path("series.csv"), seed=8 if case == "stale" else 7)
    cfg = write_config(Path("run.yaml"), pipeline_config())
    assert run("ingest", cfg) == 0
    parsed = Path("out/parsed.bin")
    assert sorted(p.name for p in Path("out").iterdir()) == ["dataset.csv", "ingest.json", "parsed.bin"]
    PARSED_CASES[case](parsed)
    parses = counting_parses(monkeypatch)
    for command in PIPELINE:
        assert run(command, cfg) == 0
    assert len(parses) == (0 if case == "present" else 1)
    for name in PIPELINE_ARTIFACTS:
        assert Path("out", name).read_bytes() == pipeline_reference[name], name
    assert parsed.read_bytes() == pipeline_reference[cli.PARSED_NAME]
    assert temporary_files(Path("out")) == []


@pytest.mark.parametrize("overlap", [False, True], ids=["in-turn", "overlapped"])
def test_a_matching_parsed_bin_whose_repair_fails_exits_3_as_a_parse_does(tmp_path, monkeypatch, capsys, overlap):
    """A data file whose gap repair fails, with its own table in
    parsed.bin: every command exits 3 with the message of a run that
    parses, parses nothing, and leaves parsed.bin as it was."""
    monkeypatch.chdir(tmp_path)
    ds = synth.generate(synth.SynthSpec(n_groups=3, per_group=4, length=120, seed=7))
    ds.values[1:, 0], ds.mask[1:, 0] = np.nan, False  # every series but one misses its first step
    save_csv(ds, Path("series.csv"))
    cfg = write_config(Path("run.yaml"), pipeline_config())
    Path("out").mkdir()
    Path("out/assignment.csv").write_text("")  # the files train and eval require; neither is read
    Path("out/checkpoint.json").write_text("")
    parsed_run = {}
    for command in PIPELINE:
        assert run(command, cfg) == 3
        parsed_run[command] = capsys.readouterr().err
        assert "gap repair left 1 usable series" in parsed_run[command]
    assert not Path("out", cli.PARSED_NAME).exists()
    os.replace(D.stage_parsed(D.load_csv("series.csv"), Path("out", cli.PARSED_NAME), D._scan("series.csv")[0]),
               Path("out", cli.PARSED_NAME))
    left = Path("out", cli.PARSED_NAME).read_bytes()
    starts = overlapped(monkeypatch) if overlap else []
    parses = counting_parses(monkeypatch)
    for command in PIPELINE:
        assert run(command, cfg) == 3
        assert capsys.readouterr().err == parsed_run[command], command
    assert parses == [] and len(starts) == (len(PIPELINE) if overlap else 0)
    assert Path("out", cli.PARSED_NAME).read_bytes() == left
    assert temporary_files(Path("out")) == []


def stale_large_cache(monkeypatch, data: str) -> cli.RunConfig:
    """A config whose out/parsed.bin holds another file's table, and whose
    data file, the CSV text ``data``, counts as large on two CPUs."""
    gappy_series(Path("series.csv"), seed=8)
    cfg = write_config(Path("run.yaml"), pipeline_config())
    assert run("ingest", cfg) == 0
    Path("series.csv").write_text(data)
    overlapped(monkeypatch)
    return cli.RunConfig.load("cluster", str(cfg))


@pytest.mark.parametrize("data, error, whole", [
    (None, None, [False]),
    ("time,a,b,c\n0,1,,\n1,2,3,4\n2,3,5,6\n", "gap repair left 1 usable series", [False]),
    ("time,a,b,c\n0,1,2\n", "line 2: expected 4 cells, got 3", [False, True]),
], ids=["returns", "repair-raises", "parse-raises"])
def test_a_stale_large_cache_hashes_the_file_once_and_leaves_no_thread(tmp_path, monkeypatch, data, error, whole):
    """On a stale parsed.bin the file is hashed once, by the thread, and
    the parse reuses that scan: the other reads of the file are the first
    block, and for a fault the one-block parse.
    The thread is joined before the block parse forks, and no thread
    outlives _prepare, whether it returns or raises."""
    monkeypatch.chdir(tmp_path)
    cfg = stale_large_cache(monkeypatch, data or gappy_series(Path("other.csv")).read_text())
    scans, scan = [], D._scan
    monkeypatch.setattr(D, "_scan", lambda path: scans.append(path) or scan(path))
    passes, chunks = [], D._chunks
    monkeypatch.setattr(D, "_chunks", lambda path, start=0, stop=None: passes.append((start, stop))
                        or chunks(path, start, stop))
    threads_at_fork, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: threads_at_fork.append(threading.active_count()) or fork())
    if error is None:
        assert cli._prepare(cfg).dataset.n_series == 13
    else:
        with pytest.raises(DataError, match=error):
            cli._prepare(cfg)
    assert threading.active_count() == 1
    assert len(scans) == 1 and [stop is None for _, stop in passes] == whole
    assert threads_at_fork == [1]
    for partial in cfg.staged:
        partial.unlink()


def test_each_command_that_misses_leaves_the_bytes_ingest_writes(pipeline_reference, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    gappy_series(Path("series.csv"))
    cfg = write_config(Path("run.yaml"), pipeline_config())
    parses = counting_parses(monkeypatch)
    for command in PIPELINE:
        Path("out", cli.PARSED_NAME).unlink(missing_ok=True)
        assert run(command, cfg) == 0
        assert Path("out", cli.PARSED_NAME).read_bytes() == pipeline_reference[cli.PARSED_NAME], command
    assert len(parses) == len(PIPELINE)
    assert temporary_files(Path("out")) == []


@pytest.mark.parametrize("override, code, message", [
    ("train.learning_rate=1e40", 4, "training diverged"),
    ("model.input_channels=5", 2, "model expects 5 input channels, dataset provides 12"),
    ("train.assignment=other.csv", 3, "assignment lacks series"),
], ids=["exit-4", "exit-2", "exit-3"])
@pytest.mark.parametrize("before", ["absent", "damaged"])
def test_a_command_that_fails_after_the_parse_leaves_no_parsed_bin(tmp_path, monkeypatch, capsys, override, code,
                                                                   message, before):
    """train parses (no parsed.bin, or a damaged one) and then fails: the
    copy of the parse it staged is removed, and a parsed.bin it found is
    left as it was."""
    monkeypatch.chdir(tmp_path)
    gappy_series(Path("series.csv"))
    cfg = write_config(Path("run.yaml"), pipeline_config())
    assert run("cluster", cfg) == 0
    Path("other.csv").write_text("series_name,group_id\ng1s1,1\ng1s2,2\ng1s3,3\n")
    parsed = Path("out/parsed.bin")
    if before == "absent":
        parsed.unlink()
    else:
        flip_last_byte(parsed)
    left = parsed.read_bytes() if parsed.exists() else None
    parses = counting_parses(monkeypatch)
    capsys.readouterr()
    assert run("train", cfg, "--override", override) == code
    assert message in capsys.readouterr().err
    assert len(parses) == 1
    assert (parsed.read_bytes() if parsed.exists() else None) == left
    assert temporary_files(Path("out")) == []


def test_a_leftover_temporary_file_is_never_read_and_never_blocks(pipeline_reference, tmp_path, monkeypatch):
    """A writer killed mid-write leaves parsed.bin.<tag>.tmp behind.  A
    command that misses parses (it never reads the leftover), commits its
    own copy under a name of its own and leaves the leftover alone; the
    next command hits."""
    monkeypatch.chdir(tmp_path)
    gappy_series(Path("series.csv"))
    cfg = write_config(Path("run.yaml"), pipeline_config())
    Path("out").mkdir()
    good = pipeline_reference[cli.PARSED_NAME]
    leftovers = {"parsed.bin.0123456789abcdef.tmp": good[: len(good) // 2], "parsed.bin.tmp": good}
    for name, content in leftovers.items():
        Path("out", name).write_bytes(content)
    parses = counting_parses(monkeypatch)
    for command in PIPELINE:
        assert run(command, cfg) == 0
    assert len(parses) == 1
    assert Path("out/parsed.bin").read_bytes() == good
    assert temporary_files(Path("out")) == sorted(leftovers)
    assert all(Path("out", name).read_bytes() == content for name, content in leftovers.items())


# -- cluster ---------------------------------------------------------------


def cluster_config(series_csv, tmp_path, groups=3) -> dict:
    doc = base_config(series_csv, tmp_path / "out", grouping="explicit", groups=groups)
    doc["model"]["stage_channels"] = [6, 6]
    return doc


def test_cluster_recovers_planted_groups(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", cluster_config(series_csv, tmp_path))
    assert run("cluster", cfg) == 0
    rows = [
        line.split(",")
        for line in (tmp_path / "out" / "assignment.csv").read_text().splitlines()
        if line and not line.startswith("#") and not line.startswith("series_name")
    ]
    assert len(rows) == 12  # target excluded
    by_prefix = {}
    for name, label in rows:
        by_prefix.setdefault(name[:2], set()).add(label)
    # every planted group maps to exactly one label, and labels differ
    assert all(len(labels) == 1 for labels in by_prefix.values())
    assert len(set.union(*by_prefix.values())) == 3
    report = json.loads((tmp_path / "out" / "cluster.json").read_text())
    assert report["k"] == 3
    assert sorted(report["sizes"]) == [4, 4, 4]
    assert 0.0 <= report["ncut"] < 1.0


def test_cluster_requires_explicit_grouping(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("cluster", cfg) == 2


def test_cluster_rejects_single_group(series_csv, tmp_path):
    doc = cluster_config(series_csv, tmp_path, groups=1)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("cluster", cfg) == 2


def test_cluster_rerun_is_byte_identical(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", cluster_config(series_csv, tmp_path))
    assert run("cluster", cfg, "--out", str(tmp_path / "o1")) == 0
    assert run("cluster", cfg, "--out", str(tmp_path / "o2")) == 0
    assert (tmp_path / "o1" / "assignment.csv").read_bytes() == (tmp_path / "o2" / "assignment.csv").read_bytes()


# -- train -----------------------------------------------------------------


def test_train_writes_checkpoint_history_and_report(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("train", cfg) == 0
    out = tmp_path / "out"
    history = (out / "history.csv").read_text().splitlines()
    assert history[1] == "epoch,train_srmse,val_srmse,loss"
    assert len(history) == 2 + 2  # hash comment + header + one row per epoch
    report = json.loads((out / "train.json").read_text())
    model = M.load_checkpoint(out / "checkpoint.json")
    assert report["parameters"] == M.count_params(model)
    assert report["best_epoch"] in (1, 2)
    assert np.isfinite(report["best_val_srmse"])


# the pool (window 3, stride 2: width 8 pools to 3) overlaps, so
# gradients add up across windows
RERUN_MODEL = {"stage_channels": [6, 6], "pool_before": [2], "pool_window": 3, "pool_stride": 2, "dense_units": [4, 1]}

# shuffled groups; group 1 is one stage share (6 / 3 = 2 channels) wide,
# so the rcnn's grouped lift passes it through and lifts the other two
SHUFFLED_GROUPS = {"g1s1": 3, "g1s2": 1, "g1s3": 2, "g1s4": 3, "g2s1": 2, "g2s2": 3, "g2s3": 2, "g2s4": 3,
                   "g3s1": 1, "g3s2": 3, "g3s3": 2, "g3s4": 3}

# name: (model settings, train settings) over RERUN_MODEL and 2 epochs
RERUN_CONFIGS = {
    "ungrouped": ({}, {}),  # grouped_conv1d with one group
    "coeff": ({"grouping": "coeff", "groups": 2}, {}),  # channelwise_conv1d, then grouped_conv1d over two blocks
    "momentum": ({}, {"momentum": 0.9, "clip_norm": 0.5}),  # clips 6 of its 12 steps
    "rcnn": ({"grouping": "explicit", "groups": 3, "family": "rcnn"}, {"assignment": "assignment.csv"}),
    # no best-epoch snapshot: the parameters as they end, kernel gradients
    # computed straight into the gradient vector (matmul into a view)
    "one-epoch": ({}, {"epochs": 1}),
    "tanh": ({"grouping": "coeff", "groups": 2, "hidden_activation": "tanh"}, {}),  # applied in place
}


def test_train_rerun_is_byte_identical(tmp_path, monkeypatch):
    """Each config, trained twice into fresh directories, writes the same
    checkpoint, history and parsed.bin, and eval loads the checkpoint."""
    monkeypatch.chdir(tmp_path)
    make_series(Path("series.csv"), seed=5)
    Path("assignment.csv").write_text(D.dumps_table(["series_name", "group_id"], SHUFFLED_GROUPS.items()))
    for name, (model, train) in RERUN_CONFIGS.items():
        cfg = write_config(Path(f"{name}.yaml"), {
            "data": {"path": "series.csv", "target": "target", "window": 8},
            "model": {**RERUN_MODEL, **model}, "train": {"epochs": 2, "batch_size": 16, **train}})
        for out in (f"{name}1", f"{name}2"):
            assert run("train", cfg, "--out", out) == 0, name
        for artifact in ("checkpoint.json", "history.csv", cli.PARSED_NAME):
            assert Path(f"{name}1", artifact).read_bytes() == Path(f"{name}2", artifact).read_bytes(), (name, artifact)
        assert run("eval", cfg, "--out", f"{name}1") == 0, name


@pytest.mark.parametrize("momentum, clip_norm, digests", [
    # clip_norm 10 never clips here; 0.6 clips 5 of the 12 steps
    (0.0, 10.0, ("cf96be2207b26c1e020428878e689bb630b72750d0e3cbb7a61244f80aec8605",
                 "5973f3a437c6f87a247bdfcd578e0ca7cffc1ac63ebbbf2e4578e5f77baf47a9")),
    (0.9, 0.6, ("4efb5f4ffbdc2f1a7654592df0e52fd97b9a44d77125839d57a9f7b64294837d",
                "f37340c13339e2de6199aef4ce8217babdb2f4d7d3419610836cd5bdd414a652")),
], ids=["momentum-0", "momentum-0.9-clipped"])
def test_train_output_bytes_are_pinned(tmp_path, monkeypatch, momentum, clip_norm, digests):
    """checkpoint.json and history.csv of a small train, byte for byte,
    on both update paths; relative paths keep the config hash fixed."""
    monkeypatch.chdir(tmp_path)
    make_series(Path("series.csv"))
    doc = base_config(Path("series.csv"), Path("out"))
    doc["train"].update(momentum=momentum, clip_norm=clip_norm)
    assert run("train", write_config(Path("run.yaml"), doc)) == 0
    got = tuple(hashlib.sha256(Path("out", name).read_bytes()).hexdigest()
                for name in ("checkpoint.json", "history.csv"))
    assert got == digests


def test_train_explicit_needs_assignment_then_shrinks_params(series_csv, tmp_path):
    doc = cluster_config(series_csv, tmp_path)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("train", cfg) == 2  # no assignment file yet

    assert run("cluster", cfg) == 0
    doc["train"]["assignment"] = str(tmp_path / "out" / "assignment.csv")
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("train", cfg) == 0
    report = json.loads((tmp_path / "out" / "train.json").read_text())
    assert report["parameters"] < report["ungrouped_parameters"]
    model = M.load_checkpoint(tmp_path / "out" / "checkpoint.json")
    assert model.spec.grouping == "explicit"
    assert sorted(set(model.assignment)) == [1, 2, 3]


def test_train_coeff_writes_membership_rows_on_the_simplex(series_csv, tmp_path):
    doc = base_config(series_csv, tmp_path / "out", grouping="coeff", groups=3)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("train", cfg) == 0
    lines = (tmp_path / "out" / "coefficients.csv").read_text().splitlines()
    assert lines[1] == "series_name,u1,u2,u3"
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 12
    for row in rows:
        values = np.array([float(x) for x in row[1:]])
        assert abs(values.sum() - 1.0) < 1e-12
        assert np.all(values >= 0.0) and np.all(values <= 1.0)


def test_train_divergence_exits_4(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("train", cfg, "--override", "train.learning_rate=1e40") == 4


def test_train_with_no_finite_epoch_exits_4_and_writes_no_checkpoint(tmp_path, capsys):
    # the target varies only before the first window ends, and its mean is
    # exactly its later value, so every training label standardizes to 0.0;
    # with no validation tail epochs are ranked by training SRMSE, which is
    # then NaN every epoch
    ds = synth.generate(synth.SynthSpec(n_groups=3, per_group=4, length=120, seed=7))
    ds.values[ds.index_of("target")] = [0.0, 1.0] * 3 + [0.5] * 114
    save_csv(ds, tmp_path / "flat.csv")
    doc = base_config(tmp_path / "flat.csv", tmp_path / "out")
    doc["train"]["val_fraction"] = 0.0
    assert run("train", write_config(tmp_path / "run.yaml", doc)) == 4
    assert "no epoch of 2 has a finite training SRMSE" in capsys.readouterr().err
    assert not (tmp_path / "out" / "checkpoint.json").exists()
    assert not (tmp_path / "out" / "train.json").exists()


def test_train_explicit_grouping_that_does_not_shrink_exits_2(series_csv, tmp_path, capsys):
    # a 1/11 split with kernel width 1: the 11-channel group's lift conv
    # costs what the ungrouped stage saves, so both models count 199
    names = [n for n in load_csv(series_csv).names if n != "target"]
    assignment = tmp_path / "assignment.csv"
    assignment.write_text("series_name,group_id\n" + "".join(
        f"{name},{1 if i == 0 else 2}\n" for i, name in enumerate(names)))
    doc = base_config(series_csv, tmp_path / "out", grouping="explicit", groups=2, family="rcnn",
                      stage_channels=[12, 2], kernel_width=1, pool_before=[], dense_units=[1])
    doc["train"]["assignment"] = str(assignment)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("train", cfg) == 2
    err = capsys.readouterr().err
    assert "199 grouped" in err and "199 ungrouped" in err
    assert not (tmp_path / "out" / "checkpoint.json").exists()


# -- eval ------------------------------------------------------------------


def trained_run(series_csv, tmp_path) -> tuple[Path, Path]:
    out = tmp_path / "out"
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, out))
    assert run("train", cfg) == 0
    return cfg, out


def test_eval_writes_report_and_predictions(series_csv, tmp_path):
    cfg, out = trained_run(series_csv, tmp_path)
    assert run("eval", cfg) == 0
    report = json.loads((out / "eval.json").read_text())
    assert report["split"] == "test"
    assert np.isfinite(report["srmse"])
    lines = (out / "predictions.csv").read_text().splitlines()
    assert lines[1] == "t,target,prediction"
    assert len(lines) - 2 == report["samples"]


def test_eval_on_validation_slice_reproduces_logged_best(series_csv, tmp_path):
    cfg, out = trained_run(series_csv, tmp_path)
    best = json.loads((out / "train.json").read_text())["best_val_srmse"]
    assert run("eval", cfg, "--override", "eval.split=val") == 0
    report = json.loads((out / "eval.json").read_text())
    assert abs(report["srmse"] - best) < 1e-12


def test_eval_geometry_mismatch_exits_2(series_csv, tmp_path):
    cfg, out = trained_run(series_csv, tmp_path)
    # the checkpoint was built for 8-wide windows
    assert run("eval", cfg, "--override", "data.window=10") == 2


def test_eval_missing_checkpoint_exits_2(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("eval", cfg) == 2


def eval_doctored(series_csv, tmp_path, doctor) -> int:
    """Exit code of `gcnn eval` on a checkpoint whose bytes ``doctor``
    rewrote."""
    spec = M.ModelSpec(input_channels=12, input_width=8, stage_channels=(6, 6),
                       pool_window=2, pool_stride=2, pool_before=(2,), dense_units=(4, 1))
    ckpt = tmp_path / "doctored.json"
    M.save_checkpoint(M.build_model(spec, seed=0), ckpt)
    ckpt.write_bytes(doctor(ckpt.read_bytes()))

    config = base_config(series_csv, tmp_path / "out")
    config["eval"] = {"checkpoint": str(ckpt)}
    return run("eval", write_config(tmp_path / "run.yaml", config))


def split_checkpoint(raw):
    """A checkpoint file as its header dict and its body bytes."""
    head, _, body = raw.partition(b"\n")
    return json.loads(head), body


def join_checkpoint(doc, body):
    return json.dumps(doc).encode() + b"\n" + body


def header(edit):
    """Doctor that passes the header through ``edit`` and keeps the body."""
    def doctor(raw):
        doc, body = split_checkpoint(raw)
        return join_checkpoint(edit(doc), body)
    return doctor


def first_payload(edit):
    """Doctor that passes the first parameter's raw <f8 bytes through ``edit``."""
    def doctor(raw):
        doc, body = split_checkpoint(raw)
        n = 8 * math.prod(doc["params"][0]["shape"])
        return join_checkpoint(doc, edit(body[:n]) + body[n:])
    return doctor


def first_value(value):
    return first_payload(lambda raw: np.array([value], "<f8").tobytes() + raw[8:])


def test_eval_undoctored_checkpoint_exits_0(series_csv, tmp_path):
    # the control for the doctored cases below
    assert eval_doctored(series_csv, tmp_path, header(lambda doc: doc)) == 0


def test_eval_non_finite_checkpoint_exits_4(series_csv, tmp_path):
    assert eval_doctored(series_csv, tmp_path, first_value(float("nan"))) == 4


def test_eval_infinite_checkpoint_exits_4(series_csv, tmp_path):
    assert eval_doctored(series_csv, tmp_path, first_value(float("inf"))) == 4


def test_eval_format_2_checkpoint_exits_2(series_csv, tmp_path):
    for old in ("gcnn.checkpoint/1", "gcnn.checkpoint/2", "gcnn.checkpoint/3", "gcnn.checkpoint/4"):
        assert eval_doctored(series_csv, tmp_path, header(lambda doc: {**doc, "format": old})) == 2


@pytest.mark.parametrize("doctor", [
    lambda raw: b"not json" + raw[raw.index(b"\n") :],
    lambda raw: b"",
    lambda raw: raw.replace(b"\n", b" ", 1),
    first_payload(lambda raw: raw[:-8]),
    first_payload(lambda raw: raw + bytes(8)),
    header(lambda doc: [doc]),
    header(lambda doc: {k: v for k, v in doc.items() if k != "spec"}),
    header(lambda doc: {k: v for k, v in doc.items() if k != "params"}),
    header(lambda doc: {**doc, "params": {p["name"]: p for p in doc["params"]}}),
    header(lambda doc: {**doc, "params": [{k: v for k, v in p.items() if k != "name"} for p in doc["params"]]}),
    header(lambda doc: {**doc, "seed": 1.5}),
    header(lambda doc: {**doc, "params": doc["params"] + doc["params"][:1]}),
    lambda raw: raw[: raw.index(b"\n") // 2],
    lambda raw: raw[: raw.index(b"\n") + 1],
    lambda raw: raw[: len(raw) - 100],
], ids=["header-not-json", "empty", "no-newline", "payload-short", "payload-long", "array", "no-spec", "no-params",
        "params-not-list", "nameless-param", "float-seed", "duplicate-param", "cut-in-header", "cut-after-header",
        "cut-in-body"])
def test_eval_malformed_checkpoint_exits_2(series_csv, tmp_path, doctor):
    assert eval_doctored(series_csv, tmp_path, doctor) == 2


def test_eval_checkpoint_whose_spec_implies_a_huge_model_exits_2(series_csv, tmp_path, capsys):
    # the spec alone is edited; its model's vector would need 873 TiB, and
    # the load refuses it on shapes before it allocates anything
    huge = header(lambda doc: {**doc, "spec": {**doc["spec"], "input_width": 10**13}})
    assert eval_doctored(series_csv, tmp_path, huge) == 2
    assert "shape [4, 24] does not match (4, 30000000000000)" in capsys.readouterr().err


def test_eval_mean_predictor_checkpoint_scores_exactly_one(series_csv, tmp_path):
    # replicate the command's data pipeline to find the test-slice mean
    raw = load_csv(series_csv)
    repaired, _ = repair_gaps(raw)
    scaled, _, _ = standardize(repaired, min(repaired.n_steps, max(2, int(repaired.n_steps * 0.9))))
    wset = make_windows(scaled, "target", 8)
    _, test_set = split(wset, SplitSpec(seed=0))

    spec = M.ModelSpec(input_channels=wset.n_channels, input_width=8,
                       stage_channels=(6, 6), pool_window=2, pool_stride=2,
                       pool_before=(2,), dense_units=(4, 1))
    model = M.build_model(spec, seed=0)
    params = model.named_params()
    for _, t in params:
        t.data[...] = 0.0
    name, bias = params[-1]
    assert "bias" in name and bias.shape == (1,)
    bias.data[...] = float(np.mean(test_set.targets))
    ckpt = tmp_path / "mean.json"
    M.save_checkpoint(model, ckpt)

    doc = base_config(series_csv, tmp_path / "out")
    doc["eval"] = {"checkpoint": str(ckpt)}
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("eval", cfg) == 0
    report = json.loads((tmp_path / "out" / "eval.json").read_text())
    assert report["srmse"] == 1.0


# -- compare ---------------------------------------------------------------


def test_compare_linear_beats_ridge_on_exact_linear_target(tmp_path):
    rng = np.random.default_rng(11)
    base = rng.normal(size=(4, 60))
    target = 0.5 * base[0] - 0.3 * base[1] + 0.2 * base[2]
    lines = ["time,a,b,c,d,target"]
    for t in range(60):
        cells = [f"{t}.0"] + [repr(float(x)) for x in base[:, t]] + [repr(float(target[t]))]
        lines.append(",".join(cells))
    data_path = tmp_path / "linear.csv"
    data_path.write_text("\n".join(lines) + "\n")

    doc = {
        "data": {"path": str(data_path), "window": 4},
        "compare": {"targets": ["target"], "ridge_penalty": 1.0},
        "seed": 0,
        "out": str(tmp_path / "out"),
    }
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 0
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["complete"] is True
    linear = report["results"]["linear"]["target"]
    ridge = report["results"]["ridge"]["target"]
    assert linear <= ridge
    assert linear < 1e-6  # the target is an exact combination


def test_compare_rerun_is_byte_identical(series_csv, tmp_path):
    doc = base_config(series_csv, tmp_path / "o1")
    doc["compare"] = {"repeats": 3}
    del doc["data"]["target"]  # picks are random, seeded
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 0
    assert run("compare", cfg, "--out", str(tmp_path / "o2")) == 0
    assert (tmp_path / "o1" / "summary.csv").read_bytes() == (tmp_path / "o2" / "summary.csv").read_bytes()
    summary = (tmp_path / "o1" / "summary.csv").read_text().splitlines()
    assert summary[1] == "model,mean_srmse,std_srmse,repeats"
    assert [line.split(",")[0] for line in summary[2:]] == ["linear", "ridge"]


def test_compare_preserves_partial_results_when_a_member_fails(series_csv, tmp_path):
    doc = base_config(series_csv, tmp_path / "out")
    doc["train"]["learning_rate"] = 1e80  # candidate diverges, baselines do not
    doc["compare"] = {
        "targets": ["target"],
        "candidates": [{"name": "tiny", "model": {"stage_channels": [6], "dense_units": [4, 1]}}],
    }
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 4
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["complete"] is False
    assert "target" in report["results"]["linear"]
    assert report["results"]["tiny"] == {}
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    assert [line.split(",")[0] for line in rows[2:]] == ["linear", "ridge"]


def test_compare_clusters_each_target_once_per_group_count(series_csv, tmp_path, monkeypatch):
    calls = []
    real = cli.S.spectral_cluster

    def counting(graph, k, **kw):
        calls.append(k)
        return real(graph, k, **kw)

    monkeypatch.setattr(cli.S, "spectral_cluster", counting)
    doc = base_config(series_csv, tmp_path / "out")
    doc["train"]["epochs"] = 1
    explicit = {"grouping": "explicit", "groups": 3, "stage_channels": [6], "dense_units": [4, 1]}
    doc["compare"] = {
        "targets": ["target"],
        "candidates": [
            {"name": "narrow", "model": explicit},
            {"name": "wide", "model": {**explicit, "stage_channels": [12]}},
        ],
    }
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 0
    assert calls == [3]
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert set(report["results"]["narrow"]) == set(report["results"]["wide"]) == {"target"}


def test_compare_candidate_name_clash_rejected(series_csv, tmp_path):
    doc = base_config(series_csv, tmp_path / "out")
    doc["compare"] = {"candidates": [{"name": "linear", "model": {}}]}
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 2


def test_compare_candidate_name_that_reads_as_a_comment_exits_2(series_csv, tmp_path, capsys):
    """A candidate's name heads its summary.csv row, where # marks a comment."""
    doc = base_config(series_csv, tmp_path / "out")
    doc["compare"] = {"candidates": [{"name": " #net", "model": {}}]}
    assert run("compare", write_config(tmp_path / "run.yaml", doc)) == 2
    assert "compare.candidates[0].name: ' #net' starts with #" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, message, at_load", [
    ({"kernel_width": 0}, "kernel width must be >= 1", True),
    ({"preset": "water-cnn", "input_width": 8}, "model expects 87 input channels", False),
    ({"input_width": 16}, "model expects 16-step windows", True),
], ids=["kernel_width", "channels", "width"])
def test_compare_bad_candidate_exits_2_before_any_output(series_csv, tmp_path, capsys, model, message, at_load):
    doc = base_config(series_csv, tmp_path / "out")
    doc["compare"] = {"targets": ["target"], "candidates": [
        {"name": "ok", "model": doc["model"]}, {"name": "bad", "model": {**doc["model"], **model}}]}
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 2
    assert f"compare.candidates[1].model: {message}" in capsys.readouterr().err
    # a candidate's own checks run at load, before out/ is made; its input
    # channel count waits for the data, and out/ then stays empty
    out = tmp_path / "out"
    assert not out.exists() if at_load else list(out.iterdir()) == []


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_bad_compare_candidate_exits_2_at_load_for_every_command(series_csv, tmp_path, capsys, command):
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(series_csv)  # exists; never read
    doc["eval"] = {"checkpoint": str(series_csv)}
    doc["compare"] = {"candidates": [{"name": "net", "model": {"kernel_width": 0}}]}
    assert run(command, write_config(tmp_path / "run.yaml", doc)) == 2
    assert "compare.candidates[0].model: kernel width must be >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# 12 inputs in 2 groups, stages [12, 2] at kernel width 1: unless the
# groups are 6 and 6, the rcnn lifts cost what grouping saves
NON_SHRINKING = {"grouping": "explicit", "groups": 2, "family": "rcnn", "stage_channels": [12, 2],
                 "kernel_width": 1, "pool_before": [], "dense_units": [1]}


def test_compare_explicit_candidate_that_does_not_shrink_exits_2(series_csv, tmp_path, capsys):
    # clustering splits the three planted groups of four 4/8, and the
    # rule train applies holds for every candidate too
    doc = base_config(series_csv, tmp_path / "out")
    doc["compare"] = {"targets": ["target"], "candidates": [{"name": "flat", "model": NON_SHRINKING}]}
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 2
    assert ("compare.candidates[0].model: explicit grouping must shrink the parameter count: "
            "199 grouped, 199 ungrouped") in capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "compare.json").read_text())
    assert report["complete"] is False
    assert set(report["results"]["ridge"]) == {"target"} and report["results"]["flat"] == {}


def test_compare_duplicate_target_exits_2_at_load(series_csv, tmp_path, capsys):
    doc = base_config(series_csv, tmp_path / "out")
    doc["compare"] = {"targets": ["target", "g1s1", "target"]}
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("compare", cfg) == 2
    assert "compare.targets[2]: 'target' is already listed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# -- param-count -------------------------------------------------------------


def test_param_count_explicit_counts_round_robin_groups(tmp_path, capsys):
    # 6/6 groups skip both lifts (115); the 1/11 or 4/8 split train and
    # compare may build counts 199
    doc = {"data": {"window": 8}, "model": {**NON_SHRINKING, "input_channels": 12}, "out": str(tmp_path / "out")}
    assert run("param-count", write_config(tmp_path / "run.yaml", doc)) == 0
    assert "parameters 115 (ungrouped equivalent 199)" in capsys.readouterr().out


def test_param_count_echoes_published_plan(tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml",
                       {"model": {"preset": "water-cnn"}, "out": str(tmp_path / "out")})
    assert run("param-count", cfg) == 0
    printed = capsys.readouterr().out
    assert "widths [64, 16, 4, 1]" in printed
    assert "parameters 2432701" in printed


def test_param_count_grouped_preset_shrinks(tmp_path):
    cfg = write_config(tmp_path / "run.yaml",
                       {"model": {"preset": "water-cnn-grouped"}, "out": str(tmp_path / "out")})
    assert run("param-count", cfg) == 0
    text = (tmp_path / "out" / "params.txt").read_text()
    assert "parameters 528301 (ungrouped equivalent 2432701)" in text


@pytest.mark.parametrize("name", ["drone-rcnn", "drone-rcnn-grouped"])
def test_param_count_allocates_no_parameter_vector(tmp_path, capsys, name):
    # the model and its ungrouped twin are assembled unfilled and only
    # counted: a drone-rcnn vector would take 55.2 MiB
    cfg = write_config(tmp_path / "run.yaml", {"model": {"preset": name}, "out": str(tmp_path / "out")})
    tracemalloc.start()
    try:
        assert run("param-count", cfg) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "7234901" in capsys.readouterr().out  # drone-rcnn's count, the twin's for the grouped one
    assert peak < 2**20


def test_param_count_without_geometry_exits_2(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", {"model": {"stage_channels": [8]}})
    assert run("param-count", cfg, "--out", str(tmp_path / "out")) == 2


def test_param_count_reads_data_window(tmp_path, capsys):
    doc = {"data": {"window": 64}, "model": {"input_channels": 87, "stage_channels": [8, 8], "pool_before": [2]},
           "out": str(tmp_path / "out")}
    assert run("param-count", write_config(tmp_path / "run.yaml", doc)) == 0
    assert "widths [64, 16]" in capsys.readouterr().out


@pytest.mark.parametrize("window, message", [(32, "does not match the model input width 64"), (0, ">= 1")],
                         ids=["mismatch", "non_positive"])
def test_param_count_checks_data_window_like_other_commands(tmp_path, capsys, window, message):
    doc = {"data": {"window": window}, "model": {"preset": "water-cnn"}, "out": str(tmp_path / "out")}
    assert run("param-count", write_config(tmp_path / "run.yaml", doc)) == 2
    err = capsys.readouterr().err
    assert "data.window: " in err and message in err


def test_param_count_non_positive_model_width_names_its_key(tmp_path, capsys):
    doc = {"model": {"input_channels": 4, "input_width": 0}, "out": str(tmp_path / "out")}
    assert run("param-count", write_config(tmp_path / "run.yaml", doc)) == 2
    assert "model.input_width: must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("pool_stride", 0), ("pool_window", 0), ("stage_channels", [-4, 4]), ("dense_units", [-2, 1])])
def test_param_count_non_positive_size_exits_2(tmp_path, capsys, key, value):
    model = {"input_channels": 4, "input_width": 16, "stage_channels": [4, 4], "pool_before": [2],
             "pool_window": 4, "pool_stride": 4, "dense_units": [2, 1], key: value}
    cfg = write_config(tmp_path / "run.yaml", {"model": model, "out": str(tmp_path / "out")})
    assert run("param-count", cfg) == 2
    assert ">= 1" in capsys.readouterr().err


# -- config plumbing ---------------------------------------------------------


def test_override_flag_changes_one_setting(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("train", cfg, "--override", "train.epochs=1") == 0
    history = (tmp_path / "out" / "history.csv").read_text().splitlines()
    assert len(history) == 2 + 1


def test_override_into_an_empty_section(tmp_path):
    # YAML reads a section with no keys as null; an override fills it like {}
    (tmp_path / "empty.yaml").write_text("model:\n")
    assert run("param-count", tmp_path / "empty.yaml", "--override", "model.preset=water-cnn",
               "--out", str(tmp_path / "empty")) == 0
    full = write_config(tmp_path / "full.yaml", {"model": {"preset": "water-cnn"}})
    assert run("param-count", full, "--out", str(tmp_path / "full")) == 0
    assert (tmp_path / "empty" / "params.txt").read_bytes() == (tmp_path / "full" / "params.txt").read_bytes()
    (tmp_path / "scalar.yaml").write_text("model: 3\n")
    assert run("param-count", tmp_path / "scalar.yaml", "--override", "model.preset=water-cnn",
               "--out", str(tmp_path / "scalar")) == 2


def test_seed_flag_changes_the_config_hash(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    assert run("ingest", cfg) == 0
    first = json.loads((tmp_path / "out" / "ingest.json").read_text())["config_hash"]
    assert run("ingest", cfg, "--seed", "1") == 0
    second = json.loads((tmp_path / "out" / "ingest.json").read_text())["config_hash"]
    assert first != second


def test_unknown_setting_is_named_in_the_error(series_csv, tmp_path, capsys):
    doc = base_config(series_csv, tmp_path / "out")
    doc["model"]["bogus"] = 1
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("ingest", cfg) == 2
    assert "model.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["data: [1, 2\n", "data: a: b\n", "\tdata: {}\n", "out: 'open\n", "out: \x00\n"],
                         ids=["open-flow", "nested-plain", "tab-indent", "open-quote", "nul"])
def test_config_that_is_not_valid_yaml_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "run.yaml"
    cfg.write_text(text)
    assert run("param-count", cfg) == 2
    assert "config: not valid YAML" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["[1, 2", "a: b: c", "'open", "\udcff"],
                         ids=["open-flow", "nested-plain", "open-quote", "undecodable-argument-byte"])
def test_override_that_is_not_valid_yaml_exits_2(tmp_path, capsys, value):
    """A byte of an argument that is not UTF-8 reaches the parser as a lone
    surrogate, which libyaml cannot encode; it is refused like bad YAML."""
    (tmp_path / "run.yaml").write_text("model:\n")
    assert run("param-count", tmp_path / "run.yaml", "--override", f"model.preset={value}",
               "--out", str(tmp_path / "out")) == 2
    assert "override: cannot parse value for 'model.preset'" in capsys.readouterr().err


def test_config_must_be_a_mapping(tmp_path):
    cfg = tmp_path / "run.yaml"
    cfg.write_text("- 1\n- 2\n")
    assert run("ingest", cfg) == 2
    assert run("ingest", tmp_path / "missing.yaml") == 2


def test_every_artifact_names_the_config_hash(series_csv, tmp_path):
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(tmp_path / "out" / "assignment.csv")
    cfg = write_config(tmp_path / "run.yaml", doc)
    for command in ("ingest", "cluster", "train", "eval"):
        assert run(command, cfg) == 0

    out = tmp_path / "out"
    hashes = set()
    for name in ("ingest.json", "cluster.json", "train.json", "eval.json"):
        hashes.add(json.loads((out / name).read_text())["config_hash"])
    assert len(hashes) == 1
    stamp = f"# config {hashes.pop()}"
    for name in ("dataset.csv", "assignment.csv", "history.csv", "predictions.csv"):
        assert (out / name).read_text().splitlines()[0] == stamp
    checkpoint, _ = split_checkpoint((out / "checkpoint.json").read_bytes())
    assert checkpoint["meta"]["config"] == stamp.split()[-1]


# -- settings schema ---------------------------------------------------------


@pytest.mark.parametrize("command", ["ingest", "cluster", "train", "eval", "compare"])
@pytest.mark.parametrize("section, key, value", [
    ("split", "train_fraction", 1.5),
    ("split", "train_fraction", 0.0),
    ("split", "train_fraction", -1.0),
    ("train", "val_fraction", 1.5),
    ("train", "val_fraction", -0.5),
    ("train", "epochs", 0),
    ("train", "batch_size", 0),
    ("train", "learning_rate", float("nan")),
    ("compare", "ridge_penalty", -1.0),
])
def test_out_of_range_setting_exits_2_at_load(series_csv, tmp_path, capsys, command, section, key, value):
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(series_csv)  # exists; never read
    doc["eval"] = {"split": "val", "checkpoint": str(series_csv)}
    doc["compare"] = {"repeats": 1, "candidates": [{"name": "net", "model": doc["model"]}]}
    doc.setdefault(section, {})[key] = value
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run(command, cfg) == 2
    assert f"{section}.{key}: must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("model, message", [
    ({"kernel_width": 0}, "model: kernel width must be >= 1, got 0"),
    ({"grouping": "coeff", "groups": 4}, "model: stage channels 6 not divisible into 4 groups"),
    ({"pool_window": 9}, "model: width 8 too small for pool window 9"),
    ({"preset": "bogus"}, "model.preset: unknown preset 'bogus'"),
], ids=["kernel_width", "groups", "pool_window", "preset"])
def test_invalid_model_section_exits_2_at_load(series_csv, tmp_path, capsys, command, model, message):
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(series_csv)  # exists; never read
    doc["eval"] = {"checkpoint": str(series_csv)}
    doc["model"].update(model)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run(command, cfg) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def every_command_config(series_csv, tmp_path) -> dict:
    """A config every command would run past load with: the files that
    train and eval need exist, though they are never read."""
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(series_csv)
    doc["eval"] = {"checkpoint": str(series_csv)}
    return doc


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_window_that_disagrees_with_the_preset_exits_2_at_load_for_every_command(series_csv, tmp_path, capsys,
                                                                                  command):
    doc = every_command_config(series_csv, tmp_path)
    doc["data"]["window"] = 32
    doc["model"] = {"preset": "water-cnn"}
    assert run(command, write_config(tmp_path / "run.yaml", doc)) == 2
    assert "data.window: 32 does not match the model input width 64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
def test_candidate_width_that_disagrees_exits_2_at_load_for_every_command(series_csv, tmp_path, capsys, command):
    doc = every_command_config(series_csv, tmp_path)
    doc["compare"] = {"candidates": [{"name": "net", "model": {**doc["model"], "input_width": 16}}]}
    assert run(command, write_config(tmp_path / "run.yaml", doc)) == 2
    assert ("compare.candidates[0].model: model expects 16-step windows, the run's are 8 steps"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("from_flag", [False, True], ids=["config", "flag"])
def test_negative_seed_exits_2_at_load(series_csv, tmp_path, capsys, command, from_flag):
    # numpy's generators take no negative seed
    doc = every_command_config(series_csv, tmp_path)
    if not from_flag:
        doc["seed"] = -1
    extra = ("--seed", "-1") if from_flag else ()
    assert run(command, write_config(tmp_path / "run.yaml", doc), *extra) == 2
    assert "seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    if from_flag and command == "param-count":  # the status a shell sees, through the module's entry point
        run_in_child(tmp_path, "-m", "gcnn.cli", command, "run.yaml", "--seed", "-1", code=2)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", cli.COMMANDS)
@pytest.mark.parametrize("out", ["afile", "afile/sub"], ids=["file", "below-a-file"])
def test_out_that_cannot_be_a_directory_exits_2_at_load(series_csv, tmp_path, capsys, command, out):
    (tmp_path / "afile").write_text("kept\n")
    cfg = write_config(tmp_path / "run.yaml", every_command_config(series_csv, tmp_path))
    assert run(command, cfg, "--out", str(tmp_path / out)) == 2
    assert f"out: {tmp_path / 'afile'} is not a directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "kept\n"


def test_model_section_without_a_window_is_checked_but_its_width_waits(series_csv, tmp_path, capsys):
    # ingest needs no window; a pooled model is then checked at the
    # narrowest width its pools fit
    doc = base_config(series_csv, tmp_path / "out", pool_before=[1, 2], pool_window=5, pool_stride=3)
    del doc["data"]["window"]
    assert run("ingest", write_config(tmp_path / "run.yaml", doc)) == 0
    doc["model"]["kernel_width"] = 0
    assert run("ingest", write_config(tmp_path / "run.yaml", doc)) == 2
    assert "model: kernel width must be >= 1, got 0" in capsys.readouterr().err


def test_candidate_without_a_window_is_checked_at_its_own_width(series_csv, tmp_path, capsys):
    doc = base_config(series_csv, tmp_path / "out")
    del doc["data"]["window"]
    doc["compare"] = {"candidates": [{"name": "net", "model": {"input_width": 4, "pool_before": [1], "pool_window": 5}}]}
    assert run("ingest", write_config(tmp_path / "run.yaml", doc)) == 2
    assert "compare.candidates[0].model: width 4 too small for pool window 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_candidate_preset_names_its_path(series_csv, tmp_path, capsys):
    doc = base_config(series_csv, tmp_path / "out")
    doc["compare"] = {"candidates": [{"name": "net", "model": {"preset": "bogus"}}]}
    assert run("compare", write_config(tmp_path / "run.yaml", doc)) == 2
    assert "compare.candidates[0].model.preset: unknown preset 'bogus'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_hash_is_pinned():
    """The hash of one fixed config; a schema change that moves it would
    change the stamp on every artifact."""
    raw = {
        "data": {"path": "levels.csv", "target": "station_07", "window": 64},
        "split": {"train_fraction": 0.8, "mode": "shuffled"},
        "model": {"grouping": "explicit", "groups": 5, "family": "rcnn", "input_channels": 87,
                  "input_width": 64, "stage_channels": [30, 15], "pool_before": [2], "dense_units": [32, 1]},
        "train": {"epochs": 50, "batch_size": 32, "learning_rate": "1e-3", "assignment": "assignment.csv"},
        "eval": {"split": "val"},
        "compare": {"repeats": 2, "candidates": [{"name": "wide", "model": {"preset": "water-cnn-grouped"}}]},
        "seed": 7,
    }
    cfg = cli.RunConfig.resolve("param-count", raw)
    assert cfg.config_hash == "160aba7b9d9acec2e9990d5d81e059c8a2b9dee1b6f9d7672daee49e612fc9fb"
    assert cfg.train_config().learning_rate == 1e-3
    assert (cfg.split.train_fraction, cfg.split.mode, cfg.split.seed) == (0.8, "shuffled", 7)


@pytest.mark.parametrize("key, value, expected", [
    ("epochs", 2.0, "an integer"), ("epochs", True, "an integer"), ("learning_rate", "fast", "a number"),
    ("momentum", [0.5], "a number"), ("assignment", "", "a non-empty string")])
def test_mistyped_train_setting_exits_2(series_csv, tmp_path, capsys, key, value, expected):
    doc = base_config(series_csv, tmp_path / "out")
    doc["train"][key] = value
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("ingest", cfg) == 2
    assert f"train.{key}: expected {expected}" in capsys.readouterr().err


# -- input checks --------------------------------------------------------------


@pytest.mark.parametrize("command", ["ingest", "train"])
@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_csv_cell_exits_3(series_csv, tmp_path, capsys, command, token):
    lines = series_csv.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[5].split(",")
    cells[2] = token
    lines[5] = ",".join(cells)
    poisoned = tmp_path / "poisoned.csv"
    poisoned.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path / "run.yaml", base_config(poisoned, tmp_path / "out"))
    assert run(command, cfg) == 3
    assert f"line 6: series {header[2]!r} holds non-finite value" in capsys.readouterr().err
    assert list((tmp_path / "out").iterdir()) == []


def test_duplicate_series_in_assignment_exits_3(series_csv, tmp_path, capsys):
    doc = cluster_config(series_csv, tmp_path)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("cluster", cfg) == 0
    table = tmp_path / "out" / "assignment.csv"
    lines = table.read_text().splitlines()
    first = next(i for i, line in enumerate(lines, start=1) if line.startswith("g1s"))
    name = lines[first - 1].rpartition(",")[0]
    table.write_text("\n".join(lines + [f"{name},2"]) + "\n")
    doc["train"]["assignment"] = str(table)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("train", cfg) == 3
    assert f":{len(lines) + 1}: series {name!r} already assigned on line {first}" in capsys.readouterr().err


@pytest.mark.parametrize("labels, where", [
    ([1, 2, 3] * 3 + [1, 2, 7], ":13: group id 7 outside 1..3 (model.groups)"),
    ([1, 2] * 6, ": group 3 has no series (model.groups is 3)"),
], ids=["label-out-of-range", "empty-group"])
def test_assignment_label_fault_exits_3_and_names_the_file(series_csv, tmp_path, capsys, labels, where):
    names = [f"g{g}s{i}" for g in (1, 2, 3) for i in (1, 2, 3, 4)]
    table = tmp_path / "assignment.csv"
    table.write_text("series_name,group_id\n" + "".join(f"{n},{g}\n" for n, g in zip(names, labels)))
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(table)
    assert run("train", write_config(tmp_path / "run.yaml", doc)) == 3
    assert f"{table}{where}" in capsys.readouterr().err


def test_names_that_need_quotes_pass_every_command(tmp_path, monkeypatch):
    """Series names holding a comma, a quote and a form feed are written
    quoted where they must be and read back by every command, and a run
    in another directory writes the same bytes."""
    ds = synth.generate(synth.SynthSpec(n_groups=3, per_group=4, length=120, seed=7))
    renamed = {"g1s1": "g1\x0cs1", "g2s1": "a,b", "g3s1": 'q"x'}
    ds.names = [renamed.get(name, name) for name in ds.names]
    for work in ("a", "b"):
        (tmp_path / work).mkdir()
        monkeypatch.chdir(tmp_path / work)
        save_csv(ds, Path("series.csv"))
        doc = cluster_config(Path("series.csv"), Path("."))
        doc["train"]["assignment"] = "out/assignment.csv"
        cfg = write_config(Path("run.yaml"), doc)
        for command in ("ingest", "cluster", "train", "eval"):
            assert run(command, cfg) == 0, command
    assert load_csv(Path("out/dataset.csv")).names == ds.names
    table = Path("out/assignment.csv").read_text()
    assert '\n"a,b",' in table and '\n"q""x",' in table and "\ng1\x0cs1," in table
    assert_same_files(tmp_path / "a" / "out", tmp_path / "b" / "out")


def test_assignment_with_byte_order_mark_reads(series_csv, tmp_path):
    names = [f"g{g}s{i}" for g in (1, 2, 3) for i in (1, 2, 3, 4)]
    table = tmp_path / "assignment.csv"
    table.write_bytes(b"\xef\xbb\xbf" + ("series_name,group_id\n" + "".join(
        f"{n},{g}\n" for n, g in zip(names, [1, 2, 3] * 4))).encode())
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(table)
    assert run("train", write_config(tmp_path / "run.yaml", doc)) == 0


@pytest.mark.parametrize("row", ["g3s4,1,3", ",3", "g3s4", '"g3s4,3'])
def test_assignment_row_that_is_not_two_cells_exits_3(series_csv, tmp_path, capsys, row):
    """A name with an unquoted comma, as older versions wrote it, makes a
    row of three cells."""
    names = [f"g{g}s{i}" for g in (1, 2, 3) for i in (1, 2, 3, 4)]
    table = tmp_path / "assignment.csv"
    table.write_text("# config abc\nseries_name,group_id\n"
                     + "".join(f"{n},{g}\n" for n, g in zip(names[:-1], [1, 2, 3] * 4)) + row + "\n")
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(table)
    assert run("train", write_config(tmp_path / "run.yaml", doc)) == 3
    assert f"{table}:14: expected series_name,group_id" in capsys.readouterr().err


def test_assignment_cell_csv_reader_refuses_exits_3_and_names_the_file(series_csv, tmp_path, capsys):
    table = tmp_path / "assignment.csv"
    table.write_text('series_name,group_id\n"' + "x" * 140000 + '",1\n')
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(table)
    assert run("train", write_config(tmp_path / "run.yaml", doc)) == 3
    assert f"error: {table}:2: field larger than field limit (131072)" in capsys.readouterr().err


# -- text encoding ---------------------------------------------------------


def with_bad_byte(path: Path, line: int) -> None:
    """Replace the first byte of line ``line`` of ``path`` by 0xff."""
    lines = path.read_bytes().split(b"\n")
    lines[line - 1] = b"\xff" + lines[line - 1][1:]
    path.write_bytes(b"\n".join(lines))


def test_data_csv_that_is_not_utf8_exits_3(series_csv, tmp_path, capsys):
    bad = tmp_path / "series.csv"
    bad.write_bytes(series_csv.read_bytes())
    with_bad_byte(bad, 4)
    assert run("ingest", write_config(tmp_path / "run.yaml", base_config(bad, tmp_path / "out"))) == 3
    assert capsys.readouterr().err == f"error: {bad}:4: not valid UTF-8 (byte 0xff)\n"


def test_assignment_that_is_not_utf8_exits_3(series_csv, tmp_path, capsys):
    """The bad byte's line is the one named, also after a row fault or a
    fault of the csv module on an earlier line, more than one piece of
    the file (``data.READ_BYTES``) before the bad byte."""
    names = [f"g{g}s{i}" for g in (1, 2, 3) for i in (1, 2, 3, 4)]
    rows = "".join(f"{n},{g}\n" for n, g in zip(names, [1, 2, 3] * 4))
    table = tmp_path / "assignment.csv"
    table.write_text("series_name,group_id\n" + rows)
    with_bad_byte(table, 3)
    doc = cluster_config(series_csv, tmp_path)
    doc["train"]["assignment"] = str(table)
    cfg = write_config(tmp_path / "run.yaml", doc)
    assert run("train", cfg) == 3
    assert f"{table}:3: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err
    padding = ("# " + "-" * 78 + "\n") * (D.READ_BYTES // 80 + 1)
    for earlier in ["g3s4,1,3\n", '"' + "x" * 140000 + '",1\n']:
        text = "series_name,group_id\n" + earlier + rows + padding
        table.write_bytes(text.encode() + b"\xff\n")
        line = text.count("\n") + 1
        assert run("train", cfg) == 3
        assert f"{table}:{line}: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err


def test_config_that_is_not_utf8_exits_2(series_csv, tmp_path, capsys):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out"))
    cfg.write_bytes(cfg.read_bytes() + b"# \xff\n")
    line = cfg.read_bytes().count(b"\n")
    assert run("ingest", cfg) == 2
    assert f"{cfg}:{line}: not valid UTF-8 (byte 0xff)" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isfile("/proc/self/mem"), reason="needs /proc/self/mem, a file whose reads fail")
@pytest.mark.parametrize("command, where, code", [
    ("ingest", "data", 3), ("train", "assignment", 3), ("ingest", "config", 2), ("eval", "checkpoint", 2),
])
def test_an_input_that_cannot_be_read_exits_with_its_code(series_csv, tmp_path, capsys, command, where, code):
    """/proc/self/mem is a regular file, but reading its first byte fails
    (EIO), even for root: the data file and the assignment are data
    faults, the config and the checkpoint config faults."""
    unreadable = "/proc/self/mem"
    doc = cluster_config(series_csv, tmp_path)
    doc["data"]["path"] = unreadable if where == "data" else str(series_csv)
    doc["train"]["assignment"] = unreadable
    doc["eval"] = {"checkpoint": unreadable}
    cfg = Path(unreadable) if where == "config" else write_config(tmp_path / "run.yaml", doc)
    assert run(command, cfg) == code
    assert re.fullmatch(rf"error: {unreadable}: cannot read \(.+\)\n", capsys.readouterr().err)


def test_nul_byte_in_quoted_text_exits_3(series_csv, tmp_path, capsys):
    lines = series_csv.read_text().splitlines()
    lines[0] = '"time"' + lines[0][len("time"):]
    lines[4] = lines[4].replace(",", ",\x00", 1)
    poisoned = tmp_path / "poisoned.csv"
    poisoned.write_text("\n".join(lines) + "\n")
    assert run("ingest", write_config(tmp_path / "run.yaml", base_config(poisoned, tmp_path / "out"))) == 3
    assert "error: line 5: " in capsys.readouterr().err


def test_ingest_bytes_do_not_depend_on_the_locale(tmp_path):
    """A series name outside ASCII reads and writes the same bytes in the
    C locale, with UTF-8 mode off, as in UTF-8 mode."""
    ds = synth.generate(synth.SynthSpec(n_groups=2, per_group=2, length=40, seed=3))
    ds.names[0] = "d\u00e9bit"
    save_csv(ds, tmp_path / "series.csv")
    write_config(tmp_path / "run.yaml", {"data": {"path": "series.csv"}})
    env = {**os.environ, "PYTHONPATH": str(Path(gcnn.__file__).parents[1])}
    for out, mode in (("c", {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"}),
                      ("utf8", {"PYTHONUTF8": "1"})):
        done = subprocess.run([sys.executable, "-m", "gcnn.cli", "ingest", "run.yaml", "--out", out],
                              cwd=tmp_path, env={**env, **mode}, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    dataset = (tmp_path / "c" / "dataset.csv").read_bytes()
    assert "d\u00e9bit".encode() in dataset
    assert dataset == (tmp_path / "utf8" / "dataset.csv").read_bytes()


# -- the allocator -----------------------------------------------------------


def desk_like() -> Path:
    """A coeff config the size of the benchmark's desk workload, written
    with its series into the current directory, its paths relative to it."""
    make_series(Path("series.csv"), length=300, phi=0.9)
    return write_config(Path("run.yaml"), {
        "data": {"path": "series.csv", "target": "target", "window": 32},
        "model": {"grouping": "coeff", "groups": 3, "stage_channels": [12, 12], "pool_before": [],
                  "dense_units": [16, 1]},
        "train": {"epochs": 3, "batch_size": 32, "learning_rate": 0.05, "momentum": 0.9},
        "seed": 21,
    })


class FakeMallopt:
    """Stands in for the C library's ``mallopt``, recording each call."""

    def __init__(self, result: int = 1):
        self.result = result
        self.calls: list[tuple[int, int]] = []

    def __call__(self, param: int, value: int) -> int:
        self.calls.append((param, value))
        return self.result


@pytest.fixture
def fresh_setter(monkeypatch):
    """The once-per-process setter, run anew, with no allocator variable
    of the user's in the way; it runs anew after the test too."""
    for name in (*cli._MALLOC_VARIABLES, "GLIBC_TUNABLES"):
        monkeypatch.delenv(name, raising=False)
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


def assert_same_files(a: Path, b: Path) -> None:
    names = sorted(p.name for p in a.iterdir())
    assert "checkpoint.json" in names and names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def fake_libc(monkeypatch, mallopt) -> None:
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=mallopt))


def libc_has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


def run_in_child(cwd: Path, *argv: str, code: int = 0, env: dict[str, str] | None = None) -> str:
    """Run a fresh interpreter on ``argv``, with no allocator variable of
    the user's but those in ``env``, and check that it exits ``code``; its
    standard output."""
    variables = {name: value for name, value in os.environ.items()
                 if name not in (*cli._MALLOC_VARIABLES, "GLIBC_TUNABLES")}
    variables.update(env or {}, PYTHONPATH=str(Path(gcnn.__file__).parents[1]))
    done = subprocess.run([sys.executable, *argv], cwd=cwd, env=variables, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    return done.stdout


@pytest.mark.skipif(not libc_has_mallopt(), reason="the C library has no mallopt")
def test_a_second_train_faults_no_pages_in(tmp_path, monkeypatch):
    """Freed arrays stay in the process: a second train of a desk-sized
    config takes a few dozen minor faults at most, where glibc's adaptive
    thresholds cost about 6.5k a call (20k for desk's longer coeff run).
    A fresh process, since what a process freed before moves glibc's
    thresholds."""
    monkeypatch.chdir(tmp_path)
    desk_like()
    script = textwrap.dedent("""
        import resource
        from gcnn import cli
        assert cli.main(["train", "run.yaml", "--out", "first"]) == 0
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(["train", "run.yaml", "--out", "second"]) == 0
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    faults = int(run_in_child(tmp_path, "-c", script).split()[-1])
    assert faults <= 64, faults


def test_the_thresholds_are_set_once_per_process(fresh_setter, tmp_path, monkeypatch):
    mallopt = FakeMallopt()
    fake_libc(monkeypatch, mallopt)
    write_config(tmp_path / "run.yaml", {"model": {"preset": "water-cnn"}})
    for out in ("a", "b"):
        assert run("param-count", tmp_path / "run.yaml", "--out", str(tmp_path / out)) == 0
    # M_MMAP_THRESHOLD to 32 MiB, then M_TRIM_THRESHOLD to 128 MiB
    assert mallopt.calls == [(-3, 32 << 20), (-1, 128 << 20)]


def refusing_libc(name):
    raise OSError("no symbols")


@pytest.mark.parametrize("libc", [
    refusing_libc,
    lambda name: SimpleNamespace(),  # no mallopt, as on macOS
    lambda name: SimpleNamespace(mallopt=FakeMallopt(result=0)),  # every value refused, as on musl
], ids=["no-library", "no-mallopt", "refused"])
def test_train_without_mallopt_exits_0_silently_with_the_same_bytes(fresh_setter, tmp_path, monkeypatch,
                                                                     capsys, libc):
    """Each side trains in a directory of its own, so the two print the
    same relative paths."""
    outputs = []
    for side in ("set", "unset"):
        if side == "unset":
            cli._keep_freed_memory.cache_clear()
            monkeypatch.setattr(cli.ctypes, "CDLL", libc)
        work = tmp_path / side
        work.mkdir()
        monkeypatch.chdir(work)
        assert run("train", desk_like(), "--out", "out") == 0
        outputs.append(capsys.readouterr())
    assert not cli._keep_freed_memory()
    assert outputs[0] == outputs[1]
    assert_same_files(tmp_path / "set" / "out", tmp_path / "unset" / "out")


def test_train_bytes_do_not_depend_on_the_allocator(tmp_path, monkeypatch):
    """Every artifact of a train whose process kept glibc's own
    thresholds, or took the mmap threshold the user set through glibc's
    variable, equals, byte for byte, that of one with them fixed."""
    monkeypatch.chdir(tmp_path)
    cfg = desk_like()
    run_in_child(tmp_path, "-c", "import sys; from gcnn import cli; cli._keep_freed_memory = lambda: False; "
                                 "sys.exit(cli.main(sys.argv[1:]))", "train", cfg.name, "--out", "glibc")
    run_in_child(tmp_path, "-m", "gcnn.cli", "train", cfg.name, "--out", "user",
                 env={"MALLOC_MMAP_THRESHOLD_": "131072"})
    assert run("train", cfg, "--out", "fixed") == 0
    assert_same_files(tmp_path / "glibc", tmp_path / "fixed")
    assert_same_files(tmp_path / "user", tmp_path / "fixed")


@pytest.mark.parametrize("name, value", [
    ("MALLOC_MMAP_THRESHOLD_", "131072"),
    ("MALLOC_TRIM_THRESHOLD_", "131072"),
    ("MALLOC_TOP_PAD_", "0"),
    ("MALLOC_MMAP_MAX_", "0"),
    ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=131072"),
    ("GLIBC_TUNABLES", "glibc.elision.enable=1:glibc.malloc.mmap_threshold=65536"),
])
def test_the_users_allocator_settings_are_left_alone(fresh_setter, tmp_path, monkeypatch, name, value):
    mallopt = FakeMallopt()
    fake_libc(monkeypatch, mallopt)
    monkeypatch.setenv(name, value)
    write_config(tmp_path / "run.yaml", {"model": {"preset": "water-cnn"}})
    assert run("param-count", tmp_path / "run.yaml", "--out", str(tmp_path / "out")) == 0
    assert mallopt.calls == []


def test_tunables_of_other_glibc_parts_do_not_stop_the_setting(fresh_setter, monkeypatch):
    mallopt = FakeMallopt()
    fake_libc(monkeypatch, mallopt)
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.elision.enable=1")
    assert cli._keep_freed_memory()
    assert len(mallopt.calls) == 2
