"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/tests

The smoke runs drive each workload end to end at a tiny size in this
process; they check the plumbing, not the figures.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import metrics as MX  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracing.self_times(start, end, parent) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # children [1, 5] and [3, 6] cover [1, 6]; [9, 12] is clipped to [9, 10]
    start = [0.0, 1.0, 3.0, 9.0]
    end = [10.0, 5.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    assert tracing.self_times(start, end, parent)[0] == 10.0 - 5.0 - 1.0


def test_tracer_records_parents_and_rejects_misordered_close():
    t = tracing.Tracer()
    with t.span("outer"):
        with t.span("inner"):
            pass
    assert [t.name_of(i) for i in range(len(t))] == ["outer", "inner"]
    assert list(t.parent) == [-1, 0]
    assert t.duration(0) >= t.duration(1) >= 0.0
    a = t.open("a")
    t.open("b")
    with pytest.raises(RuntimeError):
        t.close(a)


# -- percentile rule ---------------------------------------------------------


def test_no_percentile_qualifies_below_twenty_samples():
    assert MX.tail_percentile(list(range(19))) is None
    assert MX.describe([3.0, 1.0, 2.0], "s") == "2 s (n=3)"


def test_highest_percentile_with_ten_samples_beyond():
    # 20 samples: the median (rank 10) has exactly 10 beyond it
    assert MX.tail_percentile(list(range(1, 21))) == (50.0, 10.0)
    # 100 samples: p90 (rank 90) has 10 beyond; p99 has only 1
    assert MX.tail_percentile(list(range(1, 101))) == (90.0, 90.0)
    # 1000 samples: p99 (rank 990) has 10 beyond
    assert MX.tail_percentile(list(range(1, 1001))) == (99.0, 990.0)
    assert MX.describe(list(range(1, 101)), "s") == "50.5 s, p90 90 s (n=100)"


# -- metric names --------------------------------------------------------------


@pytest.mark.parametrize("name", ["setup_s", "tensor.conv1d.fwd_s", "train_samples_per_s.none", "a-b", "9x"])
def test_good_metric_names(name):
    assert MX.check_name(name) == name


@pytest.mark.parametrize("name", ["", ".x", "_x", "a b", "a/b", "tensor:conv", "x" * 65])
def test_bad_metric_names(name):
    with pytest.raises(ValueError):
        MX.check_name(name)


def test_every_catalogued_name_fits_the_grammar():
    for name in [*MX.END_TO_END, *MX.WORKLOAD_SPECIFIC, *MX.PER_LAYER]:
        MX.check_name(name)


def test_benchmark_json_matches_the_catalogue():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == MX.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == MX.PER_LAYER


# -- smoke runs ----------------------------------------------------------------

TINY = {
    "desk": W.DeskSize(length=80, window=8, epochs=(("none", 1), ("explicit", 2), ("coeff", 1))),
    "paper": W.PaperSize(length=90, model=(("stage_channels", [5, 5, 5, 5]), ("dense_units", [4, 1]))),
    "wide": W.WideSize(groups=6, length=200, window=16, gaps=4, k=3, stages=(6, 3)),
}


@pytest.mark.parametrize("workload", W.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(workload, trace, tmp_path):
    result = W.execute(workload, seed=3, seconds=0.0, trace=trace, work=tmp_path / "w", size=TINY[workload])
    line = result.line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    expected = MX.PER_LAYER if trace else MX.END_TO_END
    assert set(line["metrics"]) == set(expected)
    for name, m in line["metrics"].items():
        assert m["unit"] == expected[name]
        assert isinstance(m["value"], (int, float))
    # the tiny models are too small to fit; everything else holds
    failed = [label for label, ok in result.checks if not ok]
    assert all("train SRMSE" in label for label in failed), failed
    if trace:
        m = line["metrics"]
        for cmd in ("ingest", "cluster", "eval") if workload == "wide" else MX.CLI_COMMANDS:
            assert m[f"cli.{cmd}.self_s"]["value"] > 0.0
        assert m["data.window_bytes"]["value"] > 0
        if workload != "wide":
            assert m["training.steps"]["value"] >= 1
            assert m["tensor.tape_entries"]["value"] >= 1
            assert m["tensor.conv_flops"]["value"] > 0


DIGESTS = """
import sys
from pathlib import Path
sys.path.insert(0, {tests!r})
import test_perfbench as T
result = T.W.execute({workload!r}, 3, 0.0, False, Path(sys.argv[1]), size=T.TINY[{workload!r}])
print("\\n".join(line for line in result.report if line.startswith("  sha256")))
"""


@pytest.mark.parametrize("workload", ["desk", "wide"])
def test_artifact_digests_repeat_across_processes(workload, tmp_path):
    # two processes, two work directories, two string-hash seeds
    outputs = []
    for hash_seed, name in (("1", "first"), ("2", "second-run")):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        done = subprocess.run(
            [sys.executable, "-c", DIGESTS.format(tests=str(HERE), workload=workload), str(tmp_path / name)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    lines = outputs[0].splitlines()
    assert len(lines) >= 2 and not any(line.endswith("None") for line in lines)
    assert outputs[0] == outputs[1]


def test_tracing_restores_every_wrapped_name():
    from gcnn import layers, tensor

    before = (tensor.conv1d, tensor.GradTape.__dict__["from_root"], layers.DenseLayer.forward)
    with tracing.instrument(tracing.Tracer()):
        assert tensor.conv1d is not before[0]
    assert (tensor.conv1d, tensor.GradTape.__dict__["from_root"], layers.DenseLayer.forward) == before


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in ("run.py", "workloads.py", "tracing.py", "metrics.py"):
        (tmp_path / "perfbench" / f).write_text((BENCH / f).read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


# -- speed probe -----------------------------------------------------------------


def test_speed_factor_uses_probes_inside_the_call_or_the_nearest_ones():
    import speed

    probe = speed.SpeedProbe()
    for t, cost in enumerate([1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 4.0, 4.0]):
        probe.at.append(float(t))
        probe.cost.append(cost * speed.REFERENCE_S)
    # probes at 2..6 all cost 2x the reference: the host ran at half speed
    assert probe.factor(2.0, 6.0) == 0.5
    assert probe.scaled(2.0, 4.0) == 2.0
    # a call between probes borrows the five nearest: 3, 4, 5, 6 and 2
    assert probe.factor(4.4, 4.5) == 0.5
    # at the edge the window widens inward to 4..8: three at half speed,
    # two at quarter speed, so the mean speed is 0.4 of the reference
    assert probe.factor(8.5, 8.6) == pytest.approx(0.4)


def _busy() -> None:
    """Pure-Python work of about a quarter second, no numpy."""
    s = 0
    for i in range(4_000_000):
        s += i


def test_rescaled_time_rises_by_the_rescaled_cost_of_injected_work(tmp_path, monkeypatch):
    # A program made slower by fixed work must read slower by that work's
    # own rescaled cost: the probe corrects the host's speed, not the program's.
    import speed

    ingest = W.desk(tmp_path, 3, TINY["desk"]).calls[0]
    real = W.cli.main

    def slowed(argv):
        _busy()
        return real(argv)

    plain, slow, alone = [], [], []
    with speed.SpeedProbe() as probe:
        for _ in range(5):
            plain.append(W.invoke(ingest))
            monkeypatch.setattr(W.cli, "main", slowed)
            slow.append(W.invoke(ingest))
            monkeypatch.setattr(W.cli, "main", real)
            started = time.perf_counter()
            _busy()
            alone.append((started, time.perf_counter() - started))
    assert all(s.code == 0 for s in plain + slow)

    def median_scaled(pairs):
        return statistics.median(probe.scaled(start, seconds) for start, seconds in pairs)

    busy = median_scaled(alone)
    added = median_scaled((s.started, s.seconds) for s in slow) - median_scaled((s.started, s.seconds) for s in plain)
    assert added == pytest.approx(busy, rel=0.25)
    # and the rescaled cost stays a time of the same order as the wall time
    assert 0.2 < busy / statistics.median(seconds for _, seconds in alone) < 5.0


def test_speed_probe_samples_while_active_and_stops_after():
    import time

    import speed

    with speed.SpeedProbe(interval=0.01) as probe:
        deadline = time.perf_counter() + 0.3
        while time.perf_counter() < deadline:
            pass
    taken = len(probe.at)
    assert taken >= 5
    time.sleep(0.05)
    assert len(probe.at) == taken
