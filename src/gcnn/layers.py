"""Network layers: plain/grouped/recurrent convolutions, the trainable
clustering-coefficient layer, pooling, flatten, and dense heads.

All layers consume and produce (..., channels, width) batches, channel
axis -2, except :class:`FlattenLayer` (emits (features, batch), one column
per sample) and :class:`DenseLayer` (columns to columns).  A grouped
stage is one op over contiguous channel blocks.  A recurrent grouped
stage is a :class:`RecurrentConvLayer` around a grouped convolution, so
each iteration is one :func:`tensor.grouped_conv1d`; a grouped lift in
front of it widens each group to the stage's width, and a group already
that wide passes through the lift unchanged.  Parameters are created
from a caller supplied ``numpy.random.Generator`` so identical seeds
give identical models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

__all__ = [
    "Layer",
    "Conv1DLayer",
    "GroupedConv1DLayer",
    "ConvGroup",
    "RecurrentConvLayer",
    "ClusteringCoeffLayer",
    "DenseLayer",
    "MaxPool1DLayer",
    "FlattenLayer",
    "init_uniform_fanin",
    "validate_partition",
    "toy_grouped_dense_forward",
]


def init_uniform_fanin(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Weights drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def validate_partition(member_lists: Sequence[Sequence[int]], n_channels: int) -> None:
    """Check that the lists split 0..n_channels-1 without gaps or overlap."""
    seen: set[int] = set()
    total = 0
    for members in member_lists:
        if len(members) == 0:
            raise ShapeError("every group needs at least one member channel")
        for ch in members:
            if ch < 0 or ch >= n_channels:
                raise ShapeError(f"member channel {ch} out of range for {n_channels} input channels")
        group = set(int(ch) for ch in members)
        if len(group) != len(members):
            raise ShapeError("duplicate channel inside a group member list")
        if group & seen:
            raise ShapeError("groups overlap: a channel appears in more than one group")
        seen |= group
        total += len(members)
    if total != n_channels:
        raise ShapeError(f"groups cover {total} channels but the input has {n_channels}")


class Layer:
    """Minimal layer protocol: forward pass plus named parameters."""

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def named_params(self) -> list[tuple[str, Tensor]]:
        return []

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Conv1DLayer(Layer):
    """1-D convolution (stride 1) followed by an activation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_width: int = 3,
        activation: str = "relu",
        padding: str = "same",
        rng: np.random.Generator | None = None,
    ):
        if kernel_width < 1:
            raise ShapeError(f"kernel width must be >= 1, got {kernel_width}")
        if activation not in T.ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {activation!r}")
        if padding not in T.PADDING_MODES:
            raise ValueError(f"unknown padding mode {padding!r}")
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_width = kernel_width
        self.activation = activation
        self.padding = padding
        fan_in = in_channels * kernel_width
        self.kernels = init_uniform_fanin(rng, (out_channels, in_channels, kernel_width), fan_in)
        self.bias = Tensor(np.zeros(out_channels), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.activation(T.conv1d(x, self.kernels, self.bias, padding=self.padding), self.activation)

    def named_params(self):
        return [("kernels", self.kernels), ("bias", self.bias)]


@dataclass
class ConvGroup:
    """One group of a grouped convolution: member channels + parameters.

    A group without kernels and bias passes its members through unchanged.
    """

    members: tuple[int, ...]
    kernels: Tensor | None  # (Gout, len(members), kw)
    bias: Tensor | None  # (Gout,)

    @classmethod
    def create(
        cls, rng: np.random.Generator, members: Sequence[int], out_channels: int, kernel_width: int
    ) -> "ConvGroup":
        """Fan-in uniform kernels and zero biases for ``members``."""
        members = tuple(int(ch) for ch in members)
        fan_in = len(members) * kernel_width
        kernels = init_uniform_fanin(rng, (out_channels, len(members), kernel_width), fan_in)
        return cls(members, kernels, Tensor(np.zeros(out_channels), requires_grad=True))


class GroupedConv1DLayer(Layer):
    """Grouped convolution: each group convolves only its member channels.

    One gather puts the convolved groups' members in group order (none
    when already in order), then one :func:`tensor.grouped_conv1d` runs
    every such group.  When some groups pass through, one ``concat`` of
    the convolution output with the input and one gather lay the outputs
    out group-major.  Members must partition the inputs.
    """

    def __init__(self, in_channels: int, groups: Sequence[ConvGroup], activation: str = "relu", padding: str = "same"):
        validate_partition([g.members for g in groups], in_channels)
        conv = [g for g in groups if g.kernels is not None]
        for g in conv:
            gout, gin, _ = g.kernels.shape
            if gin != len(g.members):
                raise ShapeError(f"group expects {gin} channels but lists {len(g.members)} members")
            if g.bias.shape != (gout,):
                raise ShapeError(f"group bias shape {g.bias.shape} does not match {gout} outputs")
        self.in_channels = in_channels
        self.groups = list(groups)
        self.activation = activation
        self.padding = padding
        self.kernels = [g.kernels for g in conv]
        self.biases = [g.bias for g in conv]
        order = [ch for g in conv for ch in g.members]
        self.order = None if order == list(range(in_channels)) else order
        # group-major output rows, as rows of concat([conv output, input])
        n_conv, row, layout = sum(k.shape[0] for k in self.kernels), 0, []
        for g in groups:
            if g.kernels is None:
                layout += [n_conv + ch for ch in g.members]
            else:
                layout += range(row, row + g.kernels.shape[0])
                row += g.kernels.shape[0]
        self.out_channels = len(layout)
        self.layout = None if len(conv) == len(groups) else layout

    @classmethod
    def create(
        cls,
        in_channels: int,
        member_lists: Sequence[Sequence[int]],
        out_per_group: int,
        kernel_width: int = 3,
        activation: str = "relu",
        padding: str = "same",
        rng: np.random.Generator | None = None,
    ) -> "GroupedConv1DLayer":
        rng = rng or np.random.default_rng()
        groups = [ConvGroup.create(rng, members, out_per_group, kernel_width) for members in member_lists]
        return cls(in_channels, groups, activation=activation, padding=padding)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[-2]}")
        rows = x
        if self.kernels:
            xs = x if self.order is None else T.gather_rows(x, self.order)
            out = T.activation(T.grouped_conv1d(xs, self.kernels, self.biases, self.padding), self.activation)
            if self.layout is None:
                return out
            rows = T.concat([out, x], axis=-2)
        return T.gather_rows(rows, self.layout)

    def named_params(self):
        out = []
        for k, g in enumerate(self.groups):
            if g.kernels is not None:
                out.append((f"g{k:02d}.kernels", g.kernels))
                out.append((f"g{k:02d}.bias", g.bias))
        return out


class RecurrentConvLayer(Layer):
    """Unrolled recurrent convolution with a single shared parameter set.

    z_1 = sigma(W * x + b); z_m = sigma(W * (x + z_{m-1}) + b).  The skip
    sum forces matching channel counts and width-preserving padding, so
    the inner convolution, plain or grouped, must map C -> C with "same"
    padding.
    """

    def __init__(self, inner: Conv1DLayer | GroupedConv1DLayer, iterations: int):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if inner.in_channels != inner.out_channels:
            raise ShapeError(
                f"recurrent conv needs matching channels, got {inner.in_channels} -> {inner.out_channels}"
            )
        if inner.padding != "same":
            raise ShapeError("recurrent conv requires width-preserving (same) padding")
        self.inner = inner
        self.iterations = iterations

    def forward(self, x: Tensor) -> Tensor:
        z = self.inner.forward(x)
        for _ in range(self.iterations - 1):
            z = self.inner.forward(x + z)
        return z

    def named_params(self):
        return [(f"inner.{name}", t) for name, t in self.inner.named_params()]


class ClusteringCoeffLayer(Layer):
    """Soft grouping layer: trainable membership scaling per group.

    Each input variable i belongs to every group k with a coefficient
    u_{i,k}; the coefficients are the row-softmax of free logits, so each
    row is a point on the simplex at every training step.  Group k
    convolves every variable with one shared kernel, scales variable i's
    row by u_{i,k}, adds the group bias and applies the activation.
    Output is group-major: K blocks of N channels.
    """

    def __init__(
        self,
        n_variables: int,
        n_groups: int,
        kernel_width: int = 3,
        activation: str = "relu",
        padding: str = "same",
        rng: np.random.Generator | None = None,
    ):
        if n_groups < 1:
            raise ValueError(f"need at least one group, got {n_groups}")
        rng = rng or np.random.default_rng()
        self.n_variables = n_variables
        self.n_groups = n_groups
        self.kernel_width = kernel_width
        self.activation = activation
        self.padding = padding
        # near-uniform membership with broken symmetry
        self.logits = Tensor(rng.uniform(-0.01, 0.01, size=(n_variables, n_groups)), requires_grad=True)
        self.kernels = init_uniform_fanin(rng, (n_groups, kernel_width), kernel_width)
        self.bias = Tensor(np.zeros(n_groups), requires_grad=True)

    def coefficients(self) -> Tensor:
        """Row-stochastic membership matrix U (N x K)."""
        return T.softmax_rows(self.logits)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.n_variables:
            raise ShapeError(f"expected {self.n_variables} variables, got {x.shape[-2]} channels")
        k, n = self.n_groups, self.n_variables
        conv = T.channelwise_conv1d(x, self.kernels, padding=self.padding)  # (..., K, N, W)
        scaled = conv * T.reshape(T.transpose(self.coefficients()), (k, n, 1))
        pre = scaled + T.reshape(self.bias, (k, 1, 1))
        return T.activation(T.reshape(pre, (*x.shape[:-2], k * n, pre.shape[-1])), self.activation)

    def named_params(self):
        return [("logits", self.logits), ("kernels", self.kernels), ("bias", self.bias)]


class DenseLayer(Layer):
    """Fully-connected map on (features, batch) matrices, one column per sample."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        activation: str = "linear",
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = init_uniform_fanin(rng, (out_features, in_features), in_features)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[0] != self.in_features:
            raise ShapeError(f"dense layer expects ({self.in_features}, batch), got {x.shape}")
        pre = (self.weight @ x) + T.reshape(self.bias, (self.out_features, 1))
        return T.activation(pre, self.activation)

    def named_params(self):
        return [("weight", self.weight), ("bias", self.bias)]


class MaxPool1DLayer(Layer):
    """Per-channel max pooling."""

    def __init__(self, window: int, stride: int):
        self.window = window
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return T.maxpool1d(x, self.window, self.stride)


class FlattenLayer(Layer):
    """(..., channels, width) to one row-major column per sample."""

    def forward(self, x: Tensor) -> Tensor:
        features = x.shape[-2] * x.shape[-1]
        return T.transpose(T.reshape(x, (x.size // features, features)))


def toy_grouped_dense_forward(
    x: Tensor,
    u: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    hidden_activation: str = "tanh",
    output_activation: str = "linear",
) -> Tensor:
    """Two-layer grouped dense network on N variable vectors.

    ``x`` is (N, d): one window per variable.  ``u`` is the (N, K)
    membership matrix, expected row-stochastic (not enforced, so the
    coefficients can be perturbed freely in gradient checks).  ``w1`` is
    (K*N, d) with row j*N + i holding the weight vector of variable i in
    group j; ``b1``/``w2`` are (K,) and ``b2`` is a scalar.

    h_j = act(sum_i u[i,j] * <x_i, w1[j,i]> + b1[j]);
    y   = out_act(sum_j h_j * w2[j] + b2), returned as a one-element tensor.
    """
    n, d = x.shape
    k = u.shape[1]
    if u.shape[0] != n:
        raise ShapeError(f"membership rows {u.shape[0]} do not match {n} variables")
    if w1.shape != (k * n, d):
        raise ShapeError(f"w1 must be ({k * n}, {d}), got {w1.shape}")
    if b1.shape != (k,) or w2.shape != (k,):
        raise ShapeError("b1 and w2 must have one entry per group")
    # w1[j*N + i] * x_i * u[i, j], summed over i and the window by ones
    weighted = T.reshape(w1, (k, n, d)) * x * T.reshape(T.transpose(u), (k, n, 1))
    h_pre = T.reshape(weighted, (k, n * d)) @ Tensor(np.ones((n * d, 1))) + T.reshape(b1, (k, 1))
    h = T.activation(h_pre, hidden_activation)  # (K, 1)
    y_pre = T.reshape(T.transpose(h) @ T.reshape(w2, (k, 1)), (1,)) + b2
    return T.activation(y_pre, output_activation)
