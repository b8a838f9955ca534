"""Acceptance gate: one test per shipping criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test is self-contained and seeded; tolerances
are stated inline next to the asserts they protect.
"""

import math
import time

import numpy as np
import yaml

from gcnn import cli, synth
from gcnn import tensor as T
from gcnn.data import (
    DEFAULT_MAX_GAP,
    SplitSpec,
    TimeSeriesDataset,
    make_windows,
    repair_gaps,
    save_csv,
    split,
    standardize,
)
from gcnn.layers import (
    ClusteringCoeffLayer,
    Conv1DLayer,
    DenseLayer,
    GroupedConv1DLayer,
    MaxPool1DLayer,
    RecurrentConvLayer,
)
from gcnn.models import ModelSpec, build_model, count_params, preset
from gcnn.spectral import (
    SimilarityGraph,
    ncut_value,
    similarity_from_series,
    spectral_cluster,
    sym_eig,
)
from gcnn.tensor import Tensor
from gcnn.training import TrainConfig, evaluate, srmse, train
from oracles import Drawing, brute_force_min_ncut, toy_grouped_dense_forward


# -- criterion 1: gradient soundness ----------------------------------------


def projection_loss(out: Tensor, weights: Tensor) -> Tensor:
    """Random fixed projection to a scalar; sums alone can hide sign bugs."""
    return T.sum_all(T.elementwise("mul", out, weights))


def check_layer(rng, build, n_instances=20, tol=1e-5):
    worst = 0.0
    for _ in range(n_instances):
        f, leaves = build(rng)
        worst = max(worst, T.grad_check(f, leaves))
    assert worst < tol, f"finite differences disagree: {worst:.2e}"
    return worst


def conv_instance(rng):
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    width = int(rng.integers(kw, kw + 5))
    rng.integers(2)  # discarded draw; keeps the instances that follow as they were
    layer = Conv1DLayer(cin, cout, kw, activation="tanh", record=Drawing(rng))
    x = Tensor(rng.standard_normal((cin, width)), requires_grad=True)
    w = Tensor(rng.standard_normal(layer.forward(x).shape))
    leaves = [x] + [t for _, t in layer.named_params()]
    return (lambda: projection_loss(layer.forward(x), w)), leaves


def maxpool_instance(rng):
    c = int(rng.integers(1, 4))
    window = int(rng.integers(2, 4))
    stride = int(rng.integers(1, 4))
    width = int(rng.integers(window, window + 6))
    layer = MaxPool1DLayer(window, stride)
    # well-separated values so +-h never flips an argmax
    values = rng.permutation(c * width).astype(np.float64).reshape(c, width) * 0.37
    x = Tensor(values, requires_grad=True)
    w = Tensor(rng.standard_normal(layer.forward(x).shape))
    return (lambda: projection_loss(layer.forward(x), w)), [x]


def dense_instance(rng):
    n_in, n_out = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    layer = DenseLayer(n_in, n_out, activation="tanh", record=Drawing(rng))
    x = Tensor(rng.standard_normal((n_in, 1)), requires_grad=True)
    w = Tensor(rng.standard_normal((n_out, 1)))
    leaves = [x] + [t for _, t in layer.named_params()]
    return (lambda: projection_loss(layer.forward(x), w)), leaves


def rcl_instance(rng, iterations):
    c = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    width = int(rng.integers(3, 7))
    inner = Conv1DLayer(c, c, kw, activation="tanh", record=Drawing(rng))
    layer = RecurrentConvLayer(inner, iterations)
    x = Tensor(rng.standard_normal((c, width)), requires_grad=True)
    w = Tensor(rng.standard_normal((c, width)))
    leaves = [x] + [t for _, t in layer.named_params()]
    return (lambda: projection_loss(layer.forward(x), w)), leaves


def grouped_instance(rng):
    cin = int(rng.integers(3, 7))
    k = int(rng.integers(2, 4))
    order = list(rng.permutation(cin))
    cuts = sorted(rng.choice(range(1, cin), size=k - 1, replace=False))
    labels = np.empty(cin, dtype=int)
    for g, (a, b) in enumerate(zip([0] + cuts, cuts + [cin])):
        labels[order[a:b]] = g
    kw = int(rng.integers(1, 4))
    width = int(rng.integers(kw, kw + 4))
    out_per_group = int(rng.integers(1, 3))
    rng.integers(2)  # discarded draw; keeps the instances that follow as they were
    layer = GroupedConv1DLayer.create(labels, out_per_group, kw, activation="tanh", record=Drawing(rng))
    x = Tensor(rng.standard_normal((cin, width)), requires_grad=True)
    w = Tensor(rng.standard_normal(layer.forward(x).shape))
    leaves = [x] + [t for _, t in layer.named_params()]
    return (lambda: projection_loss(layer.forward(x), w)), leaves


def coeff_instance(rng):
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    kw = int(rng.integers(1, 4))
    width = int(rng.integers(kw, kw + 4))
    layer = ClusteringCoeffLayer(n, k, kw, activation="tanh", record=Drawing(rng))
    x = Tensor(rng.standard_normal((n, width)), requires_grad=True)
    w = Tensor(rng.standard_normal(layer.forward(x).shape))
    leaves = [x] + [t for _, t in layer.named_params()]
    return (lambda: projection_loss(layer.forward(x), w)), leaves


def toy_instance(rng):
    n = int(rng.integers(2, 5))
    k = int(rng.integers(1, 4))
    d = int(rng.integers(2, 5))
    leaves = [
        Tensor(rng.standard_normal((n, d)), requires_grad=True),
        Tensor(rng.uniform(0.0, 1.0, size=(n, k)), requires_grad=True),
        Tensor(rng.standard_normal((k * n, d)), requires_grad=True),
        Tensor(rng.standard_normal(k), requires_grad=True),
        Tensor(rng.standard_normal(k), requires_grad=True),
        Tensor(rng.standard_normal(()), requires_grad=True),
    ]
    return (lambda: toy_grouped_dense_forward(*leaves)), leaves


def test_criterion_1_gradients_sound_for_every_layer_type():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    check_layer(rng, conv_instance)
    check_layer(rng, maxpool_instance)
    check_layer(rng, dense_instance)
    for iterations in (1, 2, 3):
        check_layer(rng, lambda r: rcl_instance(r, iterations))
    check_layer(rng, grouped_instance)
    check_layer(rng, coeff_instance)
    check_layer(rng, toy_instance)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


# -- criterion 2: single-group degeneracy ------------------------------------


def test_criterion_2_single_group_model_matches_ungrouped_bitwise():
    base = dict(input_channels=6, input_width=8, stage_channels=(8, 8),
                pool_window=2, pool_stride=2, pool_before=(2,), dense_units=(4, 1))
    vanilla = build_model(ModelSpec(**base), seed=5)
    solo = build_model(ModelSpec(**base, grouping="explicit", groups=1),
                       assignment=[1] * 6, seed=5)
    pairs = list(zip(vanilla.named_params(), solo.named_params()))
    for (_, tv), (_, ts) in pairs:
        assert tv.shape == ts.shape
        ts.data = tv.data.copy()

    x_values = np.random.default_rng(6).standard_normal((6, 8))
    xv = Tensor(x_values.copy(), requires_grad=True)
    xs = Tensor(x_values.copy(), requires_grad=True)
    yv = vanilla.forward(xv)
    ys = solo.forward(xs)
    assert yv.item() == ys.item()  # bit-for-bit

    gv = T.backward(yv, leaves=[xv] + [t for _, t in vanilla.named_params()])
    gs = T.backward(ys, leaves=[xs] + [t for _, t in solo.named_params()])
    assert np.array_equal(gv[xv], gs[xs])
    for (_, tv), (_, ts) in pairs:
        assert np.array_equal(gv[tv], gs[ts])


# -- criterion 3: parameter reduction ----------------------------------------


def test_criterion_3_parameter_reduction_is_exactly_fivefold():
    # 100 inputs, 100 output channels, 5 equal clusters of 20
    rng = np.random.default_rng(0)
    kw = 3
    vanilla = Conv1DLayer(100, 100, kw, record=Drawing(rng))
    labels = np.repeat(np.arange(5), 20)
    grouped = GroupedConv1DLayer.create(labels, out_per_group=20, kernel_width=kw, record=Drawing(rng))

    vanilla_kernels = vanilla.kernels.size
    grouped_kernels = sum(k.size for k in grouped.kernels)
    assert vanilla_kernels == 5 * grouped_kernels  # exact, not approximate
    # bias handling: one bias per output channel on both sides, so the
    # fivefold claim is about kernels; biases cancel in the comparison
    assert vanilla.bias.size == sum(b.size for b in grouped.biases) == 100

    water_vanilla = count_params(build_model(preset("water-cnn"), seed=0))
    water_grouped = count_params(build_model(
        preset("water-cnn-grouped"), assignment=[i % 5 + 1 for i in range(87)], seed=0))
    assert water_grouped < water_vanilla


# -- criterion 4: spectral pipeline ------------------------------------------


def independent_ncut(w: np.ndarray, labels, k: int) -> float:
    """Second evaluator: same correctly-rounded sums, reversed iteration."""
    n = len(labels)
    degrees = [math.fsum(w[i][j] for j in reversed(range(n))) for i in range(n)]
    ratios = []
    for group in reversed(range(1, k + 1)):
        link = math.fsum(
            w[i][j]
            for j in range(n)
            for i in reversed(range(n))
            if labels[i] == group and labels[j] != group
        )
        vol = math.fsum(degrees[i] for i in reversed(range(n)) if labels[i] == group)
        ratios.append(link / vol)
    return 0.5 * math.fsum(reversed(ratios))


def is_connected(w: np.ndarray) -> bool:
    n = w.shape[0]
    seen = {0}
    stack = [0]
    while stack:
        i = stack.pop()
        for j in range(n):
            if w[i, j] > 0.0 and j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen) == n


def random_connected_graph(rng, n: int) -> SimilarityGraph:
    while True:
        w = np.zeros((n, n))
        iu = np.triu_indices(n, 1)
        values = rng.uniform(0.1, 1.0, size=len(iu[0]))
        values[rng.uniform(size=len(values)) > 0.7] = 0.0
        w[iu] = values
        w = w + w.T
        if is_connected(w):
            return SimilarityGraph(w)


def test_criterion_4_spectral_pipeline_correctness():
    rng = np.random.default_rng(404)

    # (a) eigendecomposition reconstructs 50 random symmetric matrices
    for _ in range(50):
        a = rng.standard_normal((20, 20))
        a = (a + a.T) / 2.0
        eigenvalues, vectors = sym_eig(a)
        rebuilt = vectors @ np.diag(eigenvalues) @ vectors.T
        assert np.max(np.abs(rebuilt - a)) < 1e-9

    # (b) 200 random connected graphs: exact objective agreement with an
    # independent evaluator, and near-optimal cuts on at least 95%
    instances = 0
    within_bound = 0
    for _ in range(200):
        n = int(rng.integers(4, 9))
        graph = random_connected_graph(rng, n)
        for k in (2, 3):
            found = spectral_cluster(graph, k, seed=0)
            value = ncut_value(graph, found)
            assert value == independent_ncut(graph.weights, found.labels, k)
            best = brute_force_min_ncut(graph, k)
            assert best.value == independent_ncut(graph.weights, best.assignment.labels, k)
            instances += 1
            if value <= 1.5 * best.value:
                within_bound += 1
    assert within_bound / instances >= 0.95, f"{within_bound}/{instances} near-optimal"

    # (c) separable components are found with zero cut weight
    blocks = np.zeros((9, 9))
    sizes = [(0, 3), (3, 7), (7, 9)]
    for lo, hi in sizes:
        blocks[lo:hi, lo:hi] = rng.uniform(0.5, 1.0, size=(hi - lo, hi - lo))
    blocks = (blocks + blocks.T) / 2.0
    np.fill_diagonal(blocks, 0.0)
    graph = SimilarityGraph(blocks)
    found = spectral_cluster(graph, 3, seed=0)
    assert ncut_value(graph, found) == 0.0


# -- criterion 5: error metric reference points -------------------------------


def test_criterion_5_srmse_reference_points():
    rng = np.random.default_rng(55)
    targets = rng.standard_normal(17)

    mean_preds = np.full(17, targets.mean())
    assert srmse(mean_preds, targets)[0] == 1.0  # exactly

    assert srmse(targets.copy(), targets)[0] == 0.0

    value, _, _ = srmse(np.array([0.0, 0.0]), np.array([0.0, 2.0]))
    assert abs(value - math.sqrt(2.0)) < 1e-12


# -- criterion 6: memberships stay on the simplex ------------------------------


def test_criterion_6_memberships_stay_on_the_simplex_for_200_epochs():
    ds = synth.generate(synth.SynthSpec(n_groups=3, per_group=2, length=100, seed=3, phi=0.9))
    scaled, _, _ = standardize(ds, 90)
    wset = make_windows(scaled, synth.TARGET_NAME, 8)
    train_set, _ = split(wset, SplitSpec(seed=3))
    spec = ModelSpec(input_channels=6, input_width=8, grouping="coeff", groups=3,
                     stage_channels=(6,), pool_before=(), dense_units=(4, 1))
    model = build_model(spec, seed=3)

    logged = []
    train(model, train_set,
          TrainConfig(epochs=200, batch_size=16, learning_rate=0.01, momentum=0.9, seed=3),
          epoch_hook=lambda epoch, m: logged.append(m.coefficients()))

    assert len(logged) == 200
    for u in logged:
        assert u.shape == (6, 3)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)
        assert np.max(np.abs(u.sum(axis=1) - 1.0)) < 1e-12


# -- criterion 7: synthetic benchmark ordering ---------------------------------


BENCH_LENGTH = 300
BENCH_WINDOW = 32
BENCH_PHI = 0.9


def bench_data(seed: int):
    ds = synth.generate(synth.SynthSpec(
        n_groups=3, per_group=4, length=BENCH_LENGTH, seed=seed, phi=BENCH_PHI))
    scaled, _, _ = standardize(ds, int(BENCH_LENGTH * 0.9))
    wset = make_windows(scaled, synth.TARGET_NAME, BENCH_WINDOW)
    train_set, test_set = split(wset, SplitSpec(seed=seed))
    return scaled, wset, train_set, test_set


def bench_assignment(scaled, seed: int):
    names = [n for n in scaled.names if n != synth.TARGET_NAME]
    rows = [scaled.index_of(n) for n in names]
    graph = similarity_from_series(scaled.values[rows, : int(BENCH_LENGTH * 0.9)], names)
    return names, spectral_cluster(graph, 3, seed=seed)


def bench_model(grouping: str, seed: int, labels=None) -> "ModelSpec":
    groups = 3 if grouping != "none" else 1
    spec = ModelSpec(input_channels=12, input_width=BENCH_WINDOW, grouping=grouping,
                     groups=groups, stage_channels=(12, 12), pool_before=(),
                     dense_units=(16, 1))
    return build_model(spec, labels, seed=seed)


def bench_train(model, train_set, test_set, seed: int, epochs: int, lr: float) -> float:
    config = TrainConfig(epochs=epochs, batch_size=32, learning_rate=lr, momentum=0.9, seed=seed)
    result = train(model, train_set, config)
    return evaluate(result.model, test_set).srmse


def test_criterion_7_synthetic_benchmark_ordering():
    started = time.perf_counter()

    # (a) the planted groups are recovered exactly from the similarity graph
    scaled0, _, train0, test0 = bench_data(seed=0)
    names, assignment = bench_assignment(scaled0, seed=0)
    planted = {}
    for name, label in zip(names, assignment.labels):
        planted.setdefault(name[:2], set()).add(label)
    assert all(len(labels) == 1 for labels in planted.values())
    assert len(set.union(*planted.values())) == 3

    # (b) explicit and soft grouping both track the drivers
    grouped_scores = []
    vanilla_scores = []
    for seed in range(5):
        scaled, _, train_set, test_set = bench_data(seed)
        _, found = bench_assignment(scaled, seed)
        grouped = bench_model("explicit", seed, found.labels)
        grouped_scores.append(bench_train(grouped, train_set, test_set, seed, epochs=40, lr=0.01))
        vanilla = bench_model("none", seed)
        vanilla_scores.append(bench_train(vanilla, train_set, test_set, seed, epochs=40, lr=0.01))

    assert grouped_scores[0] < 0.5, f"explicit grouping srmse {grouped_scores[0]:.3f}"
    coeff = bench_model("coeff", 0)
    coeff_score = bench_train(coeff, train0, test0, seed=0, epochs=60, lr=0.02)
    assert coeff_score < 0.5, f"soft grouping srmse {coeff_score:.3f}"

    # (c) grouping helps on average across seeds
    assert np.mean(grouped_scores) <= np.mean(vanilla_scores), (
        f"grouped {np.mean(grouped_scores):.3f} vs vanilla {np.mean(vanilla_scores):.3f}")

    elapsed = time.perf_counter() - started
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s"


# -- criterion 8: gap repair policy --------------------------------------------


def gap_dataset(values_by_name: dict) -> TimeSeriesDataset:
    length = len(next(iter(values_by_name.values())))
    values = np.array([values_by_name[n] for n in values_by_name], dtype=np.float64)
    mask = ~np.isnan(values)
    return TimeSeriesDataset(list(values_by_name), np.arange(length, dtype=np.float64), values, mask)


def test_criterion_8_gap_repair_policy():
    nan = float("nan")

    # a single missing step lands exactly on the midpoint
    data = gap_dataset({
        "a": [1.0, nan, 3.0, 7.0, nan, 9.0],
        "b": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
    })
    repaired, report = repair_gaps(data, max_gap=4)
    assert repaired.series("a")[1] == 2.0
    assert repaired.series("a")[4] == 8.0
    assert report.dropped == []

    # a run at the cap is filled linearly; one past the cap drops the series
    at_cap = [0.0, nan, nan, nan, nan, 5.0, 5.5, 6.0, 6.5, 7.0]
    past_cap = [0.0, nan, nan, nan, nan, nan, 6.0, 6.5, 7.0, 7.5]
    data = gap_dataset({"ok": at_cap, "gone": past_cap, "ref": list(np.arange(10.0))})
    repaired, report = repair_gaps(data, max_gap=4)
    assert np.array_equal(repaired.series("ok")[:6], [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
    assert [name for name, _ in report.dropped] == ["gone"]
    assert "gap" in report.dropped[0][1]
    assert repaired.names == ["ok", "ref"]

    # repairing a repaired dataset is a no-op
    again, second_report = repair_gaps(repaired, max_gap=4)
    assert np.array_equal(again.values, repaired.values)
    assert second_report.filled == [] and second_report.dropped == []

    # the default cap is two months of daily steps
    assert DEFAULT_MAX_GAP == 61


# -- criterion 9: training is deterministic ------------------------------------


def test_criterion_9_training_cli_is_deterministic(tmp_path):
    data_path = tmp_path / "series.csv"
    save_csv(synth.generate(synth.SynthSpec(n_groups=3, per_group=4, length=120, seed=7)), data_path)
    config = {
        "data": {"path": str(data_path), "target": synth.TARGET_NAME, "window": 8},
        "model": {"stage_channels": [6, 6], "pool_before": [2], "pool_window": 2,
                  "pool_stride": 2, "dense_units": [4, 1]},
        "train": {"epochs": 3, "batch_size": 16, "learning_rate": 0.003},
        "seed": 0,
    }
    config_path = tmp_path / "run.yaml"
    config_path.write_text(yaml.safe_dump(config))

    assert cli.main(["train", str(config_path), "--out", str(tmp_path / "first")]) == 0
    assert cli.main(["train", str(config_path), "--out", str(tmp_path / "second")]) == 0
    for name in ("checkpoint.json", "history.csv"):
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
