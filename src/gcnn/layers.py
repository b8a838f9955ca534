"""Network layers: plain/grouped/recurrent convolutions, the trainable
clustering-coefficient layer, pooling, flatten, and dense heads.

All layers consume and produce (..., channels, width) batches, channel
axis -2, except :class:`FlattenLayer` (emits (features, batch), one column
per sample) and :class:`DenseLayer` (columns to columns).  A grouped
stage is one op over contiguous channel blocks.  Parameters are created
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
    "Sequential",
    "GroupedBlockLayer",
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
    """One group of a grouped convolution: member channels + parameters."""

    members: tuple[int, ...]
    kernels: Tensor  # (Gout, len(members), kw)
    bias: Tensor  # (Gout,)


class GroupedConv1DLayer(Layer):
    """Grouped convolution: each group convolves only its member channels.

    One gather puts the members in group order (none when already in
    order), then one :func:`tensor.grouped_conv1d` runs every group and
    lays the outputs out group-major.  Members must partition the inputs.
    """

    def __init__(self, in_channels: int, groups: Sequence[ConvGroup], activation: str = "relu", padding: str = "same"):
        validate_partition([g.members for g in groups], in_channels)
        for g in groups:
            gout, gin, _ = g.kernels.shape
            if gin != len(g.members):
                raise ShapeError(f"group expects {gin} channels but lists {len(g.members)} members")
            if g.bias.shape != (gout,):
                raise ShapeError(f"group bias shape {g.bias.shape} does not match {gout} outputs")
        self.in_channels = in_channels
        self.groups = list(groups)
        self.activation = activation
        self.padding = padding
        self.out_channels = sum(g.kernels.shape[0] for g in groups)
        order = [ch for g in groups for ch in g.members]
        self.order = None if order == list(range(in_channels)) else order

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
        groups = []
        for members in member_lists:
            members = tuple(int(ch) for ch in members)
            fan_in = len(members) * kernel_width
            kernels = init_uniform_fanin(rng, (out_per_group, len(members), kernel_width), fan_in)
            bias = Tensor(np.zeros(out_per_group), requires_grad=True)
            groups.append(ConvGroup(members, kernels, bias))
        return cls(in_channels, groups, activation=activation, padding=padding)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[-2]}")
        if self.order is not None:
            x = T.gather_rows(x, self.order)
        out = T.grouped_conv1d(x, [g.kernels for g in self.groups], [g.bias for g in self.groups], self.padding)
        return T.activation(out, self.activation)

    def named_params(self):
        out = []
        for k, g in enumerate(self.groups):
            out.append((f"g{k:02d}.kernels", g.kernels))
            out.append((f"g{k:02d}.bias", g.bias))
        return out


class RecurrentConvLayer(Layer):
    """Unrolled recurrent convolution with a single shared parameter set.

    z_1 = sigma(W * x + b); z_m = sigma(W * (x + z_{m-1}) + b).  The skip
    sum forces matching channel counts and width-preserving padding, so
    the inner convolution must map C -> C with "same" padding.
    """

    def __init__(self, inner: Conv1DLayer, iterations: int):
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


class Sequential(Layer):
    """Compose layers front to back."""

    def __init__(self, layers: Sequence[Layer]):
        self.layers = list(layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def named_params(self):
        out = []
        for i, layer in enumerate(self.layers):
            for name, t in layer.named_params():
                out.append((f"s{i:02d}.{name}", t))
        return out


class GroupedBlockLayer(Layer):
    """Run an independent sub-stack per channel group and concatenate.

    Generalizes grouped convolution to whole per-group pipelines (used
    for recurrent grouped stages).  Member lists must partition the input
    channels; outputs are concatenated in group order.
    """

    def __init__(self, in_channels: int, member_lists: Sequence[Sequence[int]], subnets: Sequence[Layer]):
        validate_partition(member_lists, in_channels)
        if len(member_lists) != len(subnets):
            raise ShapeError("need exactly one subnet per group")
        self.in_channels = in_channels
        self.member_lists = [tuple(int(ch) for ch in m) for m in member_lists]
        self.subnets = list(subnets)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[-2]}")
        outs = []
        for members, net in zip(self.member_lists, self.subnets):
            outs.append(net.forward(T.gather_rows(x, list(members))))
        return T.concat(outs, axis=-2)

    def named_params(self):
        out = []
        for k, net in enumerate(self.subnets):
            for name, t in net.named_params():
                out.append((f"g{k:02d}.{name}", t))
        return out


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
    ones = Tensor(np.ones((d, 1)))
    y_pre = None
    for j in range(k):
        wj = T.gather_rows(w1, range(j * n, (j + 1) * n))  # (N, d)
        inner = (x * wj) @ ones  # (N, 1): per-variable inner products
        scaled = T.rowscale(inner, T.take_column(u, j))
        h_pre = T.sum_all(scaled) + T.gather_rows(b1, [j])
        h = T.activation(h_pre, hidden_activation)
        term = h * T.gather_rows(w2, [j])
        y_pre = term if y_pre is None else y_pre + term
    return T.activation(y_pre + b2, output_activation)
