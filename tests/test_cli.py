"""End-to-end checks of the command-line front end.

Commands run in-process through cli.main so exit codes and artifacts
can be asserted directly.  Training configs are kept tiny; the whole
file should stay well under a minute.
"""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from gcnn import cli
from gcnn import models as M
from gcnn import synth
from gcnn.data import load_csv, make_windows, repair_gaps, save_csv, split, standardize
from gcnn.data import SplitSpec


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
    for name in ("dataset.csv", "ingest.json"):
        first = (tmp_path / "out1" / name).read_bytes()
        second = (tmp_path / "out2" / name).read_bytes()
        assert first == second


def test_ingest_missing_data_file_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(tmp_path / "nope.csv", tmp_path / "out"))
    assert run("ingest", cfg) == 2


def test_malformed_csv_is_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,a,b\n1.0,1,2\n1.0,3,4\n")  # duplicate stamp
    cfg = write_config(tmp_path / "run.yaml", base_config(bad, tmp_path / "out"))
    assert run("ingest", cfg) == 3


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


def test_train_rerun_is_byte_identical(series_csv, tmp_path):
    cfg = write_config(tmp_path / "run.yaml", base_config(series_csv, tmp_path / "out1"))
    assert run("train", cfg) == 0
    assert run("train", cfg, "--out", str(tmp_path / "out2")) == 0
    for name in ("checkpoint.json", "history.csv"):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


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


def test_eval_non_finite_checkpoint_exits_4(series_csv, tmp_path):
    spec = M.ModelSpec(input_channels=12, input_width=8, stage_channels=(6, 6),
                       pool_window=2, pool_stride=2, pool_before=(2,), dense_units=(4, 1))
    ckpt = tmp_path / "doctored.json"
    M.save_checkpoint(M.build_model(spec, seed=0), ckpt)
    doc = json.loads(ckpt.read_text())
    doc["params"][0]["values"][0] = float("nan")  # json writes it as NaN, and reads it back
    ckpt.write_text(json.dumps(doc))

    config = base_config(series_csv, tmp_path / "out")
    config["eval"] = {"checkpoint": str(ckpt)}
    assert run("eval", write_config(tmp_path / "run.yaml", config)) == 4


def test_eval_format_2_checkpoint_exits_2(series_csv, tmp_path):
    spec = M.ModelSpec(input_channels=12, input_width=8, stage_channels=(6, 6),
                       pool_window=2, pool_stride=2, pool_before=(2,), dense_units=(4, 1))
    ckpt = tmp_path / "old.json"
    M.save_checkpoint(M.build_model(spec, seed=0), ckpt)
    doc = json.loads(ckpt.read_text())
    doc["format"] = "gcnn.checkpoint/2"
    ckpt.write_text(json.dumps(doc))

    config = base_config(series_csv, tmp_path / "out")
    config["eval"] = {"checkpoint": str(ckpt)}
    assert run("eval", write_config(tmp_path / "run.yaml", config)) == 2


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


# -- param-count -------------------------------------------------------------


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


def test_param_count_without_geometry_exits_2(tmp_path):
    cfg = write_config(tmp_path / "run.yaml", {"model": {"stage_channels": [8]}})
    assert run("param-count", cfg, "--out", str(tmp_path / "out")) == 2


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
    checkpoint = json.loads((out / "checkpoint.json").read_text())
    assert checkpoint["meta"]["config"] == stamp.split()[-1]
