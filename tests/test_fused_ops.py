"""Each layer is one taped op, with the bits of the ops it replaces.

A convolution, dense or membership layer applies its bias and activation
inside one op, flatten is one op, and so is the loss.  Every such op must
give, byte for byte, the output and leaf gradients of the chain of
smaller ops it replaces (``oracles.composed_ops``), and three training
steps of each model family must leave the same parameter vector either
way.  Both sides run in one process, so the comparison does not depend
on the BLAS build.
"""

import numpy as np
import pytest

from gcnn import tensor as T
from gcnn.data import WindowedRegressionSet
from gcnn.models import ModelSpec, build_model
from gcnn.tensor import Tensor, backward
from gcnn.training import TrainConfig, mse_loss, train

from oracles import composed_ops, row_sliced_fold

ACTIVATIONS = ("relu", "tanh", "linear")
LEAD = {"batched": (3,), "unbatched": ()}


def leaf(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def op_cases(lead):
    """case -> (function name in ``gcnn.tensor``, maker of (operands,
    leaves) from a generator); signals are (..., 5, 7)."""
    x = (*lead, 5, 7)

    def conv(r, outs, ins):
        xt = leaf(r, x)
        ks, bs = [leaf(r, (o, c, 3)) for o, c in zip(outs, ins)], [leaf(r, (o,)) for o in outs]
        return (xt, ks, bs), [xt, *ks, *bs]

    def membership(r):
        xt, kernels, logits, bias = leaf(r, x), leaf(r, (3, 3)), leaf(r, (5, 3)), leaf(r, (3,))
        return (xt, kernels, T.softmax_rows(logits), bias), [xt, kernels, logits, bias]

    def dense(r):
        xt, weight, bias = leaf(r, (35, lead[0] if lead else 1)), leaf(r, (6, 35)), leaf(r, (6,))
        return (xt, weight, bias), [xt, weight, bias]

    def signals(r, count):
        xs = [leaf(r, x) for _ in range(count)]
        return tuple(xs), xs

    return {
        "one-group-conv": ("grouped_conv1d", lambda r: conv(r, [4], [5])),
        "grouped-conv": ("grouped_conv1d", lambda r: conv(r, [2, 3], [2, 3])),
        "membership": ("channelwise_conv1d", membership),
        "dense": ("dense", dense),
        "flatten": ("flatten", lambda r: signals(r, 1)),
        "loss": ("mean_squared_error", lambda r: signals(r, 2)),
    }


ACTIVATED = ("one-group-conv", "grouped-conv", "membership", "dense")
CASES = [(c, a) for c in op_cases(()) for a in (ACTIVATIONS if c in ACTIVATED else (None,))]


def run(fn, made, activation, mapped):
    """Output bytes and every leaf gradient's bytes, from a weighted sum."""
    operands, leaves = made
    out = fn(*operands, activation) if activation else fn(*operands)
    weights = Tensor(np.random.default_rng(7).standard_normal(out.shape))
    into = {t: np.full(t.shape, np.nan) for t in leaves} if mapped else leaves
    grads = backward(T.sum_all(T.elementwise("mul", out, weights)), leaves=into)
    return out.data.tobytes(), [grads[t].tobytes() for t in leaves]


@pytest.mark.parametrize("mapped", [False, True], ids=["unmapped", "mapped"])
@pytest.mark.parametrize("lead", list(LEAD))
@pytest.mark.parametrize("case, activation", CASES)
def test_fused_op_has_the_bits_of_the_composed_ops(case, activation, lead, mapped):
    name, make = op_cases(LEAD[lead])[case]
    got = run(getattr(T, name), make(np.random.default_rng(3)), activation, mapped)
    want = run(composed_ops()[name], make(np.random.default_rng(3)), activation, mapped)
    assert got[0] == want[0]
    assert got[1] == want[1]


@pytest.mark.parametrize("name", ["grouped_conv1d", "dense"])
def test_relu_at_exactly_zero_passes_no_gradient(name):
    # a zero input and bias put every pre-activation at exactly 0, where
    # relu's subgradient is 0, in the fused and in the composed op
    x = Tensor(np.zeros((4, 3)), requires_grad=True)
    w = Tensor(np.ones((2, 4, 1) if name == "grouped_conv1d" else (2, 4)), requires_grad=True)
    b = Tensor(np.zeros(2), requires_grad=True)
    operands = (x, [w], [b]) if name == "grouped_conv1d" else (x, w, b)
    for fn in (getattr(T, name), composed_ops()[name]):
        grads = backward(T.sum_all(fn(*operands, "relu")), leaves=[x, w, b])
        assert not any(g.any() for g in grads.values())


@pytest.mark.parametrize("kw", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("width", [1, 2, 5, 9])
def test_flat_fold_matches_the_row_sliced_fold_bit_for_bit(kw, width):
    rng = np.random.default_rng(kw * 10 + width)
    g = rng.standard_normal((3, kw, 4 * width))
    g[rng.random(g.shape) < 0.2] = -0.0
    want = row_sliced_fold(g, width)
    got = np.empty((3, 4 * width))
    T._fold(g.copy(), got, width)
    assert got.tobytes() == want.tobytes()


# -- whole models ------------------------------------------------------------

DESK = dict(input_channels=12, input_width=32, stage_channels=(12, 12), pool_before=(), dense_units=(16, 1))
SORTED = [g for g in (1, 2, 3) for _ in range(4)]
MODELS = {
    "none": (ModelSpec(**DESK), None),
    "explicit": (ModelSpec(**DESK, grouping="explicit", groups=3), SORTED),
    "coeff": (ModelSpec(**DESK, grouping="coeff", groups=3), None),
    "rcnn": (
        ModelSpec(**{**DESK, "stage_channels": (12, 12, 12), "pool_before": (2,)}, grouping="explicit", groups=3,
                  recurrent=True, pool_window=3, pool_stride=2, hidden_activation="tanh"),
        # group sizes 4, 5, 3: group 1 is one stage share (12 / 3) wide, so
        # the grouped lift passes it through
        [2, 1, 3, 2, 1, 2, 3, 1, 2, 1, 3, 2],
    ),
}


def windows(n=100, seed=11):
    rng = np.random.default_rng(seed)
    return WindowedRegressionSet(
        inputs=rng.standard_normal((n, 12, 32)),
        targets=rng.standard_normal(n),
        times=np.arange(n, dtype=float),
        channel_names=[f"c{i}" for i in range(12)],
        target_name="y",
        window=32,
    )


@pytest.mark.parametrize("family", list(MODELS))
def test_three_training_steps_leave_the_composed_parameters(family, monkeypatch):
    spec, assignment = MODELS[family]
    # 96 fit samples in batches of 32, then a 4-sample validation pass
    config = TrainConfig(epochs=1, batch_size=32, learning_rate=0.05, momentum=0.9, val_fraction=0.04)
    fused = train(build_model(spec, assignment, seed=5), windows(), config)
    with monkeypatch.context() as m:
        for name, fn in composed_ops().items():
            m.setattr(T, name, fn)
        composed = train(build_model(spec, assignment, seed=5), windows(), config)
    assert fused.model.vector.tobytes() == composed.model.vector.tobytes()
    assert fused.history == composed.history


@pytest.mark.parametrize("family, entries", [("none", 6), ("explicit", 6), ("coeff", 8)])
def test_a_desk_training_step_records_one_op_per_layer(family, entries):
    # none: conv, conv, flatten, dense, dense, loss; coeff adds softmax and
    # the membership op in front of the two grouped convolutions
    spec, assignment = MODELS[family]
    data = windows(32)
    model = build_model(spec, assignment, seed=5)
    loss = mse_loss(model.forward(Tensor(data.inputs)), Tensor(data.targets[None, :]))
    assert len(T.GradTape.from_root(loss).entries) == entries
