"""Property tests: windowing against a per-step reference, chronological
splits against index-based subsets, the symmetric eigensolver's
contract on random matrices with and without repeated eigenvalues,
batched model passes against per-sample ones, memberships on the
simplex, and grouped convolution and recurrent grouped stages against
per-group references."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcnn.data import SplitSpec, TimeSeriesDataset, WindowedRegressionSet, _missing_runs, make_windows, split
from gcnn import tensor as T
from gcnn.errors import DataError
from gcnn.layers import Conv1DLayer, ConvGroup, GroupedConv1DLayer, RecurrentConvLayer
from gcnn.models import ModelSpec, _grouped_recurrent_stage, build_model
from gcnn.spectral import sym_eig
from gcnn.tensor import Tensor, backward, no_grad
from gcnn.training import PREDICT_CHUNK, evaluate, mse_loss

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


def per_group_reference(x, kernels, biases, padding):
    """Slice each group's channel block, convolve it alone, stack the outputs."""
    outs, c0 = [], 0
    for k, b in zip(kernels, biases):
        c = k.shape[1]
        block = T.gather_rows(x, range(c0, c0 + c))
        outs.append(T.conv1d(block, k, b, padding))
        c0 += c
    return T.concat(outs, axis=-2)


@st.composite
def grouped_cases(draw):
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    outs = draw(st.lists(st.integers(1, 3), min_size=len(sizes), max_size=len(sizes)))
    kw = draw(st.integers(1, 4))
    padding = draw(st.sampled_from(["same", "valid"]))
    width = draw(st.integers(kw, kw + 5))
    batch = draw(st.sampled_from([(), (1,), (3,), (2, 2)]))
    return sizes, outs, kw, padding, width, batch, draw(st.integers(0, 2**32 - 1))


@SETTINGS
@given(grouped_cases())
def test_grouped_conv1d_equals_per_group_reference(case):
    sizes, outs, kw, padding, width, batch, seed = case
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((*batch, sum(sizes), width)), requires_grad=True)
    kernels = [Tensor(rng.standard_normal((o, c, kw)), requires_grad=True) for o, c in zip(outs, sizes)]
    biases = [Tensor(rng.standard_normal(o), requires_grad=True) for o in outs]
    weights = rng.standard_normal((*batch, sum(outs), width - (kw - 1 if padding == "valid" else 0)))
    leaves = [x, *kernels, *biases]

    got = T.grouped_conv1d(x, kernels, biases, padding)
    want = per_group_reference(x, kernels, biases, padding)
    assert got.shape == want.shape == weights.shape
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
    g_got = backward(T.sum_all(got * Tensor(weights)), leaves=leaves)
    g_want = backward(T.sum_all(want * Tensor(weights)), leaves=leaves)
    for leaf in leaves:
        np.testing.assert_allclose(g_got[leaf], g_want[leaf], rtol=1e-10, atol=1e-12)


@SETTINGS
@given(st.lists(st.integers(1, 4), min_size=1, max_size=4), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_grouped_layer_is_invariant_to_relabelling_channels(sizes, kw, seed):
    rng = np.random.default_rng(seed)
    c = sum(sizes)
    members = np.split(rng.permutation(c), np.cumsum(sizes)[:-1])
    layer = GroupedConv1DLayer.create(c, members, out_per_group=2, kernel_width=kw, rng=rng)
    pi = rng.permutation(c)  # channel i is called pi[i] in the relabelled layer
    relabelled = GroupedConv1DLayer(
        c, [ConvGroup(tuple(int(pi[ch]) for ch in g.members), g.kernels, g.bias) for g in layer.groups])
    x = rng.standard_normal((3, c, 6))
    x_relabelled = np.empty_like(x)
    x_relabelled[:, pi, :] = x
    with no_grad():
        np.testing.assert_array_equal(
            relabelled.forward(Tensor(x_relabelled)).data, layer.forward(Tensor(x)).data)


@SETTINGS
@given(st.integers(1, 5), st.integers(1, 4), st.sampled_from(["same", "valid"]),
       st.sampled_from([(), (2,), (2, 3)]), st.integers(0, 2**32 - 1))
def test_stacked_channelwise_conv_rows_equal_single_kernel_convs(k, kw, padding, batch, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((*batch, 3, kw + 4)))
    stack = rng.standard_normal((k, kw))
    out = T.channelwise_conv1d(x, Tensor(stack), padding)
    for j in range(k):
        single = T.channelwise_conv1d(x, Tensor(stack[j]), padding)
        np.testing.assert_allclose(out.data[..., j, :, :], single.data, rtol=0, atol=1e-12)


# -- recurrent grouped stages ----------------------------------------------


def per_group_recurrent_reference(x, stage, member_lists, per_group, spec):
    """Gather each group's members, lift them unless already ``per_group``
    wide, recur with a plain conv, and stack; parameters are the stage's."""
    lift, inner = (stage[0], stage[1].inner) if len(stage) == 2 else (None, stage[0].inner)
    outs = []
    for g, members in enumerate(member_lists):
        z = T.gather_rows(x, members)
        if len(members) != per_group:
            conv = Conv1DLayer(len(members), per_group, spec.kernel_width, spec.hidden_activation)
            conv.kernels, conv.bias = lift.groups[g].kernels, lift.groups[g].bias
            z = conv.forward(z)
        cell = Conv1DLayer(per_group, per_group, spec.kernel_width, spec.hidden_activation)
        cell.kernels, cell.bias = inner.groups[g].kernels, inner.groups[g].bias
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
    channels = rng.permutation(c) if shuffle else np.arange(c)
    member_lists = [[int(ch) for ch in m] for m in np.split(channels, np.cumsum(sizes)[:-1])]
    spec = ModelSpec(input_channels=c, input_width=width, kernel_width=kw, iterations=iterations,
                     hidden_activation="tanh")
    stage = _grouped_recurrent_stage(c, member_lists, per_group, spec, rng)
    x = Tensor(rng.standard_normal((*batch, c, width)), requires_grad=True)
    weights = Tensor(rng.standard_normal((*batch, per_group * len(sizes), width)))
    leaves = [x] + [t for layer in stage for _, t in layer.named_params()]

    got = x
    for layer in stage:
        got = layer.forward(got)
    want = per_group_recurrent_reference(x, stage, member_lists, per_group, spec)
    assert got.shape == want.shape == weights.shape
    np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-12)
    g_got = backward(T.sum_all(got * weights), leaves=leaves)
    g_want = backward(T.sum_all(want * weights), leaves=leaves)
    for leaf in leaves:
        np.testing.assert_allclose(g_got[leaf], g_want[leaf], rtol=1e-10, atol=1e-12)
