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
give identical models, or, given :data:`UNFILLED` instead, shape-only,
without a draw, for a model whose values are read in from a checkpoint.
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
    "UNFILLED",
    "init_uniform_fanin",
    "validate_partition",
]


#: Passed where a layer takes ``rng``: build its parameters with shapes
#: but no values (:class:`tensor.Unfilled`), and draw nothing.
UNFILLED = T.Unfilled(())


def _new_param(rng: np.random.Generator | T.Unfilled, shape: tuple[int, ...], bound: float = 0.0) -> T.Parameter:
    """A trainable leaf: drawn uniformly from [-bound, bound], zeros (and
    no draw) for bound 0, or unfilled when ``rng`` is :data:`UNFILLED`.
    Every layer parameter is made here."""
    if rng is UNFILLED:
        values = T.Unfilled(shape)
    elif bound:
        values = rng.uniform(-bound, bound, size=shape)
    else:
        values = np.zeros(shape)
    return T.Parameter(values)


def init_uniform_fanin(rng: np.random.Generator | T.Unfilled, shape: tuple[int, ...], fan_in: int) -> T.Parameter:
    """Weights drawn uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return _new_param(rng, shape, 1.0 / np.sqrt(fan_in))


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


class Conv1DLayer(Layer):
    """Width-preserving 1-D convolution followed by an activation."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_width: int = 3,
        activation: str = "relu",
        *,
        rng: np.random.Generator | T.Unfilled,
    ):
        if kernel_width < 1:
            raise ShapeError(f"kernel width must be >= 1, got {kernel_width}")
        if activation not in T.ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_width = kernel_width
        self.activation = activation
        fan_in = in_channels * kernel_width
        self.kernels = init_uniform_fanin(rng, (out_channels, in_channels, kernel_width), fan_in)
        self.bias = _new_param(rng, (out_channels,))

    def forward(self, x: Tensor) -> Tensor:
        return T.activation(T.conv1d(x, self.kernels, self.bias), self.activation)

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
        cls, rng: np.random.Generator | T.Unfilled, members: Sequence[int], out_channels: int, kernel_width: int
    ) -> "ConvGroup":
        """Fan-in uniform kernels and zero biases for ``members``."""
        members = tuple(int(ch) for ch in members)
        fan_in = len(members) * kernel_width
        kernels = init_uniform_fanin(rng, (out_channels, len(members), kernel_width), fan_in)
        return cls(members, kernels, _new_param(rng, (out_channels,)))


class GroupedConv1DLayer(Layer):
    """Grouped convolution: each group convolves only its member channels.

    One gather puts the convolved groups' members in group order (none
    when already in order), then one :func:`tensor.grouped_conv1d` runs
    every such group.  When some groups pass through, one ``concat`` of
    the convolution output with the input and one gather lay the outputs
    out group-major.  Members must partition the inputs.
    """

    def __init__(self, in_channels: int, groups: Sequence[ConvGroup], activation: str = "relu"):
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
        *,
        rng: np.random.Generator | T.Unfilled,
    ) -> "GroupedConv1DLayer":
        groups = [ConvGroup.create(rng, members, out_per_group, kernel_width) for members in member_lists]
        return cls(in_channels, groups, activation=activation)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[-2]}")
        rows = x
        if self.kernels:
            xs = x if self.order is None else T.gather_rows(x, self.order)
            out = T.activation(T.grouped_conv1d(xs, self.kernels, self.biases), self.activation)
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
    sum needs matching shapes; every convolution keeps its width, so the
    inner convolution, plain or grouped, must only map C -> C channels.
    """

    def __init__(self, inner: Conv1DLayer | GroupedConv1DLayer, iterations: int):
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if inner.in_channels != inner.out_channels:
            raise ShapeError(
                f"recurrent conv needs matching channels, got {inner.in_channels} -> {inner.out_channels}"
            )
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
        *,
        rng: np.random.Generator | T.Unfilled,
    ):
        if n_groups < 1:
            raise ValueError(f"need at least one group, got {n_groups}")
        self.n_variables = n_variables
        self.n_groups = n_groups
        self.kernel_width = kernel_width
        self.activation = activation
        # near-uniform membership with broken symmetry
        self.logits = _new_param(rng, (n_variables, n_groups), 0.01)
        self.kernels = init_uniform_fanin(rng, (n_groups, kernel_width), kernel_width)
        self.bias = _new_param(rng, (n_groups,))

    def coefficients(self) -> Tensor:
        """Row-stochastic membership matrix U (N x K)."""
        return T.softmax_rows(self.logits)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.n_variables:
            raise ShapeError(f"expected {self.n_variables} variables, got {x.shape[-2]} channels")
        k, n = self.n_groups, self.n_variables
        conv = T.channelwise_conv1d(x, self.kernels)  # (..., K, N, W)
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
        *,
        rng: np.random.Generator | T.Unfilled,
    ):
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = init_uniform_fanin(rng, (out_features, in_features), in_features)
        self.bias = _new_param(rng, (out_features,))

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
