"""The benchmark's workloads and the closed loop that drives them.

Each workload writes its inputs from the seed (``setup``), then runs the
real ``gcnn`` subcommands in process through ``cli.main``, one call after
the previous one returns: a closed loop with one client.  A *pass* is
the workload's whole call sequence.  Passes repeat until the requested
measuring time is spent, and there are always at least two, so every
artifact's sha256 is compared across reruns with one seed.  The calls run
with the work directory as the current directory and every path in the
configs is relative to it, so the artifacts (which carry the config's
hash) hold nothing specific to one run directory and their digests, which
the report prints, compare across processes too.

- ``desk``: criterion 7's 3x4-series synthetic set at 300 steps; tiny
  tensors, so per-primitive Python overhead, tape building and the
  per-sample loop in ``training`` dominate.
- ``paper``: 87 inputs through the three ``water-cnn`` presets for one
  epoch of 18 samples at batch 16; convolution FLOPs and the large JSON
  checkpoints dominate.
- ``wide``: 147 inputs over 3650 daily steps with gaps, clustered at
  K=15 and scored forward-only by a mid-size explicit checkpoint; CSV
  parsing, gap repair, window copies and the eigensolver dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import resource
import shutil
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from gcnn import cli, synth
from gcnn.data import TimeSeriesDataset, save_csv
from gcnn.models import ModelSpec, build_model, save_checkpoint

import metrics as MX
import speed
import tracing

SETUPS = 3  # set-ups per run; setup_s is their median
MIN_PASSES = 2
# calls faster than this are repeated after the passes until they have
# REPEAT_TO samples, so their medians are not two-sample noise
REPEAT_BELOW_S = 0.1
REPEAT_TO = 61
# every other non-training call is timed at least this often
MIN_SAMPLES = 3
TARGET_SRMSE = 0.5  # time_to_target_s: first epoch whose val SRMSE reaches this
# desk's accuracy guard is on the fit, not on the test split.  The same
# training scores the 27-sample test tail anywhere from 0.1 to 1.15 SRMSE
# across seeds (2 of 26 random seeds above 1.0, the mean predictor's
# score), so no fixed test limit holds on every seed.  The explicit
# model's running train SRMSE over its 218 fit samples falls to 0.05-0.12
# on every one of those seeds; an untrained model or wrong gradients stay
# near 1.0.
DESK_FIT_LIMIT = 0.5


@dataclass
class Call:
    command: str
    config: Path
    mode: str | None = None


@dataclass
class Plan:
    """What a set-up produced: the call sequence and how to check it."""

    calls: list[Call]
    inputs: list[Path]  # set-up outputs whose sha256 must repeat across set-ups
    artifacts: list[Path]  # pass outputs whose sha256 must repeat across passes
    check: Callable[[], list[tuple[str, bool]]]
    out_dirs: dict[str, Path]  # grouping mode -> output directory


# -- shared helpers --------------------------------------------------------

INPUT = "input.csv"  # paths in the configs, relative to the work directory
ASSIGNMENT = "explicit/assignment.csv"


def _write_config(work: Path, name: str, doc: dict) -> Path:
    """``work/<name>.yaml`` writing into ``<name>/``; paths in ``doc`` are
    relative to ``work``, the directory the calls run in."""
    path = work / f"{name}.yaml"
    doc = {**doc, "out": name}
    path.write_text(yaml.safe_dump(doc, sort_keys=True))
    return path


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    """Data rows of a CSV artifact: config stamp and header skipped."""
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


def _labels_by_group(assignment: Path) -> dict[str, set[str]]:
    """Planted group ("g12" of "g12s3") -> cluster labels its members got."""
    groups: dict[str, set[str]] = {}
    for name, label in _csv_rows(assignment):
        groups.setdefault(name.split("s")[0], set()).add(label)
    return groups


def _guard(fn) -> bool:
    """A check whose artifact is missing or malformed fails."""
    try:
        return bool(fn())
    except (OSError, ValueError, KeyError, TypeError):
        return False


def _train_checks(out_dirs: dict[str, Path]) -> list[tuple[str, bool]]:
    def trained(d: Path) -> bool:
        report = _read_json(d / "train.json")
        return report["best_epoch"] >= 1 and math.isfinite(report["best_val_srmse"])

    return [(f"train.json {mode}: best_epoch >= 1, finite best_val_srmse", _guard(lambda d=d: trained(d)))
            for mode, d in out_dirs.items()]


def _training_pipeline(work: Path, configs: dict[str, Path]) -> tuple[list[Call], list[Path]]:
    """Ingest and cluster on the explicit config, then train + eval per
    grouping mode; the artifacts whose digests must repeat across passes."""
    calls = [Call("ingest", configs["explicit"]), Call("cluster", configs["explicit"])]
    artifacts = [work / "explicit" / "assignment.csv"]
    for mode, config in configs.items():
        calls += [Call("train", config, mode), Call("eval", config, mode)]
        artifacts += [work / mode / "checkpoint.json", work / mode / "history.csv"]
    return calls, artifacts


def sha256(path: Path) -> str | None:
    """Digest of a file, or None when the file is missing."""
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# -- desk --------------------------------------------------------------------


@dataclass(frozen=True)
class DeskSize:
    length: int = 300
    window: int = 32
    # explicit trains long enough to pass the accuracy check; the other
    # modes train long enough to give their throughput several epochs
    epochs: tuple[tuple[str, int], ...] = (("none", 10), ("explicit", 30), ("coeff", 6))


def desk(work: Path, seed: int, size: DeskSize = DeskSize()) -> Plan:
    data = work / INPUT
    save_csv(synth.generate(synth.SynthSpec(
        n_groups=3, per_group=4, length=size.length, phi=0.9, seed=seed)), data)
    assignment = work / ASSIGNMENT
    epochs = dict(size.epochs)
    configs = {
        mode: _write_config(work, mode, {
            "data": {"path": INPUT, "target": synth.TARGET_NAME, "window": size.window},
            "model": {"grouping": mode, "groups": 1 if mode == "none" else 3,
                      "stage_channels": [12, 12], "pool_before": [], "dense_units": [16, 1]},
            "train": {"epochs": epochs[mode], "batch_size": 32, "learning_rate": 0.05,
                      "momentum": 0.9, "assignment": ASSIGNMENT},
            "seed": seed,
        })
        for mode in MX.MODES
    }
    out_dirs = {mode: work / mode for mode in MX.MODES}
    calls, artifacts = _training_pipeline(work, configs)

    def recovered() -> bool:
        groups = _labels_by_group(assignment)
        return len(groups) == 3 and all(len(s) == 1 for s in groups.values()) \
            and len(set.union(*groups.values())) == 3

    def fitted() -> bool:
        rows = _csv_rows(out_dirs["explicit"] / "history.csv")
        return len(rows) == epochs["explicit"] and min(float(r[1]) for r in rows) < DESK_FIT_LIMIT

    def check() -> list[tuple[str, bool]]:
        return _train_checks(out_dirs) + [
            ("desk: clustering recovers the planted groups", _guard(recovered)),
            (f"desk: explicit's train SRMSE falls below {DESK_FIT_LIMIT}", _guard(fitted)),
            ("desk: test_srmse.explicit is finite",
             _guard(lambda: math.isfinite(_read_json(out_dirs["explicit"] / "eval.json")["srmse"]))),
        ]

    return Plan(calls, [data], artifacts, check, out_dirs)


# -- paper -------------------------------------------------------------------

PAPER_PRESETS = {"none": "water-cnn", "explicit": "water-cnn-grouped", "coeff": "water-cnn-coeff"}


@dataclass(frozen=True)
class PaperSize:
    # 86 steps at window 64 give 23 samples: 20 train, of which 18 fit
    # (a batch-16 step and a 2-sample step) and 2 validate, and 3 test
    length: int = 86
    model: tuple[tuple[str, object], ...] = ()  # preset overrides


def paper(work: Path, seed: int, size: PaperSize = PaperSize()) -> Plan:
    data = work / INPUT
    save_csv(synth.generate(synth.SynthSpec(
        n_groups=29, per_group=3, length=size.length, phi=0.9, seed=seed)), data)
    configs = {
        mode: _write_config(work, mode, {
            "data": {"path": INPUT, "target": synth.TARGET_NAME},
            "model": {"preset": preset, **dict(size.model)},
            "train": {"epochs": 1, "batch_size": 16, "learning_rate": 1e-3, "assignment": ASSIGNMENT},
            "seed": seed,
        })
        for mode, preset in PAPER_PRESETS.items()
    }
    out_dirs = {mode: work / mode for mode in MX.MODES}
    calls, artifacts = _training_pipeline(work, configs)
    return Plan(calls, [data], artifacts, lambda: _train_checks(out_dirs), out_dirs)


# -- wide --------------------------------------------------------------------


TRAIN_FRACTION = 0.9  # wide's chronological split; the rest is scored


@dataclass(frozen=True)
class WideSize:
    groups: int = 49  # planted triples: 147 inputs
    length: int = 3650  # ten years of daily steps
    window: int = 64
    gaps: int = 40  # short gaps, one per damaged series, all repairable
    k: int = 15
    stages: tuple[int, ...] = (60, 30)


def _wide_dataset(seed: int, size: WideSize) -> TimeSeriesDataset:
    """Planted triples plus target, with short gaps and one series whose
    100-step gap exceeds the repair cap, so ingest must drop it."""
    ds = synth.generate(synth.SynthSpec(
        n_groups=size.groups, per_group=3, length=size.length, phi=0.9, seed=seed))
    rng = np.random.default_rng([seed, 1])  # damage draws its own stream
    values, mask = ds.values.copy(), ds.mask.copy()
    for row in rng.choice(size.groups * 3, size=size.gaps, replace=False):
        n = int(rng.integers(1, 11))
        start = int(rng.integers(1, size.length - n - 1))
        values[row, start : start + n] = np.nan
        mask[row, start : start + n] = False
    broken = rng.standard_normal(size.length)
    broken_mask = np.ones(size.length, dtype=bool)
    gap = slice(size.length // 2, size.length // 2 + 100)
    broken[gap] = np.nan
    broken_mask[gap] = False
    names = ds.names[:-1] + ["broken", ds.names[-1]]
    return TimeSeriesDataset(
        names=names,
        times=ds.times,
        values=np.vstack([values[:-1], broken, values[-1:]]),
        mask=np.vstack([mask[:-1], broken_mask, mask[-1:]]),
    )


def wide(work: Path, seed: int, size: WideSize = WideSize()) -> Plan:
    data = work / INPUT
    save_csv(_wide_dataset(seed, size), data)
    out = work / "explicit"
    out.mkdir(parents=True)
    checkpoint = out / "checkpoint.json"
    n_inputs = size.groups * 3
    spec = ModelSpec(input_channels=n_inputs, input_width=size.window, grouping="explicit",
                     groups=size.k, stage_channels=size.stages, pool_before=(2,), dense_units=(16, 1))
    # planted triples dealt round-robin onto the K groups: a valid partition
    labels = [g % size.k + 1 for g in range(size.groups) for _ in range(3)]
    save_checkpoint(build_model(spec, labels, seed=seed), checkpoint)
    config = _write_config(work, "explicit", {
        "data": {"path": INPUT, "target": synth.TARGET_NAME, "window": size.window},
        "model": {"grouping": "explicit", "groups": size.k, "stage_channels": list(size.stages),
                  "pool_before": [2], "dense_units": [16, 1]},
        "split": {"train_fraction": TRAIN_FRACTION},
        "eval": {"checkpoint": "explicit/checkpoint.json"},
        "seed": seed,
    })
    samples = size.length - size.window + 1
    test_samples = samples - int(samples * TRAIN_FRACTION)

    def ingested() -> bool:
        report = _read_json(out / "ingest.json")
        return [d["series"] for d in report["dropped"]] == ["broken"] and len(report["filled"]) == size.gaps

    def check() -> list[tuple[str, bool]]:
        return [
            ("wide: ingest drops only the broken series and fills every gap", _guard(ingested)),
            ("wide: each planted triple gets a single label",
             _guard(lambda: all(len(s) == 1 for s in _labels_by_group(out / "assignment.csv").values()))),
            (f"wide: eval scores {test_samples} samples to a finite srmse",
             _guard(lambda: _read_json(out / "eval.json")["samples"] == test_samples
                    and math.isfinite(_read_json(out / "eval.json")["srmse"]))),
        ]

    calls = [Call("ingest", config), Call("cluster", config), Call("eval", config, "explicit")]
    return Plan(calls, [data, checkpoint], [out / "assignment.csv", out / "predictions.csv"],
                check, {"explicit": out})


WORKLOADS: dict[str, Callable[..., Plan]] = {"desk": desk, "paper": paper, "wide": wide}


# -- the closed loop ---------------------------------------------------------


@dataclass
class Sample:
    call: Call
    started: float
    seconds: float  # wall time
    code: int

    def exit_check(self) -> tuple[str, bool]:
        mode = f" ({self.call.mode})" if self.call.mode else ""
        return f"gcnn {self.call.command}{mode} exits 0", self.code == 0


def invoke(call: Call, tracer: tracing.Tracer | None = None) -> Sample:
    """One ``gcnn <command> <config>`` call, in process, timed, run in the
    config's directory."""
    argv = [call.command, call.config.name]
    span = tracer.span(f"cli.{call.command}") if tracer is not None else contextlib.nullcontext()
    started = time.perf_counter()
    try:
        with contextlib.chdir(call.config.parent), contextlib.redirect_stdout(io.StringIO()), span:
            code = cli.main(argv)
    except Exception:  # a crash is a failed call, reported like any other
        traceback.print_exc()
        code = 1
    return Sample(call, started, time.perf_counter() - started, code)


@dataclass
class Result:
    metrics: dict[str, float]
    report: list[str]
    checks: list[tuple[str, bool]]

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.checks if not ok)

    def line(self) -> dict:
        units = {**MX.END_TO_END, **MX.PER_LAYER}
        return {
            "correct": self.failed == 0,
            "attempted": len(self.checks),
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in self.metrics.items()},
        }


class Run:
    """One benchmark run of one workload: set-ups, passes, checks."""

    def __init__(self, workload: str, seed: int, work: Path, size=None):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.size = size
        self.checks: list[tuple[str, bool]] = []
        self.setup_s: list[tuple[float, float]] = []  # (start, wall seconds)
        self.passes: list[list[Sample]] = []
        self.repeats: list[Sample] = []
        self.digests: dict[Path, str | None] = {}
        self.probe = speed.SpeedProbe()

    def _setup(self) -> Plan:
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        sized = () if self.size is None else (self.size,)
        started = time.perf_counter()
        plan = WORKLOADS[self.workload](self.work, self.seed, *sized)
        self.setup_s.append((started, time.perf_counter() - started))
        return plan

    def setups(self) -> Plan:
        plan = self._setup()
        first = {p.name: sha256(p) for p in plan.inputs}
        for _ in range(SETUPS - 1):
            plan = self._setup()
            for p in plan.inputs:
                self.checks.append((f"set-up {p.name} has one sha256",
                                    first[p.name] is not None and sha256(p) == first[p.name]))
        return plan

    def one_pass(self, plan: Plan, tracer: tracing.Tracer | None = None) -> None:
        samples = [invoke(c, tracer) for c in plan.calls]
        self.checks += [s.exit_check() for s in samples]
        self.checks += plan.check()
        digests = {p: sha256(p) for p in plan.artifacts}
        if self.passes:
            for p, digest in digests.items():
                self.checks.append((f"{p.parent.name}/{p.name} has one sha256 across passes",
                                    digest is not None and digest == self.digests[p]))
        else:
            self.digests = digests
        self.passes.append(samples)

    def repeat_calls(self) -> None:
        """Time again each non-training call: short ones until they have
        REPEAT_TO samples, the rest until they have MIN_SAMPLES.  The
        calls take turns, so each call's samples spread over the whole
        phase: the speed probe corrects a host slowdown only in part, and
        one burst of samples would all share the same residual."""
        owed: list[tuple[Call, int]] = []
        for sample in self.passes[0]:
            call = sample.call
            if call.command == "train":
                continue
            same = self.samples(call.command, call.mode)
            short = MX.median(self.seconds(same)) < REPEAT_BELOW_S
            owed.append((call, (REPEAT_TO if short else MIN_SAMPLES) - len(same)))
        for turn in range(max((n for _, n in owed), default=0)):
            for call, n in owed:
                if turn < n:
                    s = invoke(call)
                    self.checks.append(s.exit_check())
                    self.repeats.append(s)

    def samples(self, command: str, mode: str | None = None) -> list[Sample]:
        every = [s for p in self.passes for s in p] + self.repeats
        return [s for s in every if s.call.command == command and (mode is None or s.call.mode == mode)]

    def seconds(self, samples: list[Sample]) -> list[float]:
        """Call times rescaled to the speed probe's reference speed."""
        return [self.probe.scaled(s.started, s.seconds) for s in samples]

    def pipeline_s(self, index: int) -> float:
        return sum(self.seconds(self.passes[index]))


def _wall(samples: list[Sample]) -> str:
    """Report note: the median raw wall time behind a rescaled figure."""
    return f"wall {MX.median([s.seconds for s in samples]):.6g} s"


def _eval_rate(run: Run, plan: Plan) -> tuple[float, float, int]:
    """Scored samples over eval time, summed over the grouping modes; each
    mode's time is the median of its eval calls.  Rescaled and raw wall
    rates, and the number of eval calls."""
    scored = 0
    seconds = wall = 0.0
    for mode, d in plan.out_dirs.items():
        scored += _read_json(d / "eval.json")["samples"]
        calls = run.samples("eval", mode)
        seconds += MX.median(run.seconds(calls))
        wall += MX.median([s.seconds for s in calls])
    return scored / seconds, scored / wall, len(run.samples("eval"))


def _fit_samples(train_report: dict, config: Path) -> int:
    """Samples the trainer fits on: the train split less the validation
    tail, at the ``val_fraction`` gcnn resolves from the workload's config."""
    with contextlib.chdir(config.parent):
        val_fraction = cli.RunConfig.load("train", config.name).train_config().val_fraction
    n = train_report["train_samples"]
    return n - (max(1, int(n * val_fraction)) if val_fraction > 0.0 else 0)


def workload_specific(run: Run, plan: Plan) -> dict[str, tuple[str, str]]:
    """Report text of the figures that exist only on some workloads."""
    out: dict[str, tuple[str, str]] = {}
    for mode, d in plan.out_dirs.items():
        calls = run.samples("train", mode)
        if calls:
            epochs = len(_csv_rows(d / "history.csv"))
            work = _fit_samples(_read_json(d / "train.json"), calls[0].call.config) * epochs
            out[f"train_samples_per_s.{mode}"] = (
                MX.describe([work / t for t in run.seconds(calls)], "1/s"),
                f"wall {work / MX.median([s.seconds for s in calls]):.6g} 1/s")
        out[f"test_srmse.{mode}"] = f"{_read_json(d / 'eval.json')['srmse']:.6g} srmse", ""
    explicit = plan.out_dirs.get("explicit")
    if explicit is not None and (explicit / "history.csv").is_file():
        rows = _csv_rows(explicit / "history.csv")
        hit = next((int(r[0]) for r in rows if float(r[2]) <= TARGET_SRMSE), None)
        if hit is not None:
            calls = run.samples("train", "explicit")
            per_epoch = [t / len(rows) for t in run.seconds(calls)]
            wall = hit * MX.median([s.seconds for s in calls]) / len(rows)
            out["time_to_target_s"] = (MX.describe([hit * t for t in per_epoch], "s"),
                                       f"epoch {hit}; wall {wall:.6g} s")
    return out


def execute(workload: str, seed: int, seconds: float, trace: bool, work: Path,
            import_s: float = 0.0, size=None) -> Result:
    """Set up, run passes for ``seconds`` (at least two), check, measure.

    ``import_s`` is how long the imports before this call took; it is
    counted in ``setup_s``.
    """
    imported = time.perf_counter()
    run = Run(workload, seed, work, size)
    tracer = None
    with run.probe:
        plan = run.setups()
        started = time.perf_counter()
        while len(run.passes) < MIN_PASSES or (not trace and time.perf_counter() - started < seconds):
            if trace and run.passes:
                tracer = tracing.Tracer()
                with tracing.instrument(tracer):
                    run.one_pass(plan, tracer)
            else:
                run.one_pass(plan)
        if not trace:
            run.repeat_calls()

    report = [f"workload {workload} seed {seed}: {len(run.passes)} passes, "
              f"{len(run.repeats)} repeated calls"]
    # digests of the first pass, to compare with other runs of this seed
    report += [f"  sha256 {p.relative_to(work)} {digest}" for p, digest in run.digests.items()]
    if trace:
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.overhead_s"] = run.pipeline_s(1) - run.pipeline_s(0)
        for name, value in metrics.items():
            note = " (computed)" if name in MX.COMPUTED else ""
            report.append(f"  {name:<40} {value:.6g} {MX.PER_LAYER[name]}{note}")
        return _finish(Result(metrics, report, run.checks))

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ingest = run.seconds(run.samples("ingest"))
    cluster = run.seconds(run.samples("cluster"))
    pipelines = [run.pipeline_s(i) for i in range(len(run.passes))]
    wall_setup = MX.median([import_s + wall for _, wall in run.setup_s])
    import_s = run.probe.scaled(imported - import_s, import_s)
    setups = [import_s + run.probe.scaled(start, wall) for start, wall in run.setup_s]
    try:
        eval_rate, eval_wall, eval_calls = _eval_rate(run, plan)
        specific = workload_specific(run, plan)
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        # a failed call left an artifact missing; the checks already say so
        eval_rate, eval_wall, eval_calls, specific = math.nan, math.nan, 0, {}
    metrics = {
        "setup_s": MX.median(setups),
        "ingest_s": MX.median(ingest),
        "cluster_s": MX.median(cluster),
        "pipeline_s": MX.median(pipelines),
        "eval_samples_per_s": eval_rate,
        "peak_rss_mb": rss_mb,
    }
    text = {
        "setup_s": (MX.describe(setups, "s"), f"imports {import_s:.3f} s + set-up; wall {wall_setup:.6g} s"),
        "ingest_s": (MX.describe(ingest, "s"), _wall(run.samples("ingest"))),
        "cluster_s": (MX.describe(cluster, "s"), _wall(run.samples("cluster"))),
        "pipeline_s": (MX.describe(pipelines, "s"),
                       f"wall {MX.describe([sum(s.seconds for s in p) for p in run.passes], 's')}"),
        "eval_samples_per_s": (f"{eval_rate:.6g} 1/s", f"wall {eval_wall:.6g} 1/s from {eval_calls} eval calls"),
        "peak_rss_mb": (f"{rss_mb:.6g} MB", "ru_maxrss of this process"),
        **specific,
    }
    result = Result(metrics, report, run.checks)
    text["error_rate"] = (f"{result.failed / len(run.checks):.6g}",
                          f"{result.failed} of {len(run.checks)} checks failed")
    for name in [*MX.END_TO_END, *MX.WORKLOAD_SPECIFIC]:
        value, note = text.get(name, ("n/a", "does not apply to this workload"))
        report.append(f"  {name:<28} {value}{'  ' + note if note else ''}")
    return _finish(result)


def _finish(result: Result) -> Result:
    result.report += [f"  FAILED CHECK: {label}" for label, ok in result.checks if not ok]
    return result
