"""Network layers: plain/grouped/recurrent convolutions, the trainable
clustering-coefficient layer, pooling, flatten, and dense heads.

All layers consume and produce (..., channels, width) batches, channel
axis -2, except :class:`FlattenLayer` (emits (features, batch), one column
per sample) and :class:`DenseLayer` (columns to columns).  A grouped
convolution takes its partition as one label vector, the 0-based group
of each input channel; a group reads its members in ascending channel
order, and the layer derives its gather order and its pass-through
layout from the labels.  A grouped stage is one op over contiguous
channel blocks.  A recurrent grouped stage is a
:class:`RecurrentConvLayer` around a grouped convolution, so each
iteration is one :func:`tensor.grouped_conv1d`; a grouped lift in front
of it widens each group to the stage's width, and a group already that
wide passes through the lift unchanged.  A layer makes its parameters
unfilled and appends each, with its init bound, to the caller's
``record`` list; once they have storage, :func:`draw` fills them from a
seeded generator in the order they were made.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor

__all__ = [
    "Layer",
    "Conv1DLayer",
    "GroupedConv1DLayer",
    "RecurrentConvLayer",
    "ClusteringCoeffLayer",
    "DenseLayer",
    "MaxPool1DLayer",
    "FlattenLayer",
    "draw",
    "init_uniform_fanin",
    "conv_params",
]


Record = list[tuple[T.Parameter, float]]


def _new_param(record: Record, shape: tuple[int, ...], bound: float = 0.0) -> T.Parameter:
    """An unfilled trainable leaf, appended to ``record`` with its init
    bound.  Every layer parameter is made here."""
    param = T.Parameter(T.Unfilled(shape))
    record.append((param, bound))
    return param


def draw(record: Record, rng: np.random.Generator) -> None:
    """Fill the recorded parameters, in record order, straight into the
    zeroed arrays they hold: one with bound b uniformly from [-b, b], the
    same bits ``rng.uniform(-b, b, shape)`` gives; one with bound 0 stays
    zero and consumes no random numbers."""
    for param, bound in record:
        if bound:
            values = param.data
            rng.random(out=values)
            values *= 2 * bound
            values += -bound


def init_uniform_fanin(record: Record, shape: tuple[int, ...], fan_in: int) -> T.Parameter:
    """Weights to draw uniformly from [-1/sqrt(fan_in), 1/sqrt(fan_in)]."""
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    return _new_param(record, shape, 1.0 / np.sqrt(fan_in))


def conv_params(record: Record, out_channels: int, in_channels: int,
                kernel_width: int) -> tuple[T.Parameter, T.Parameter]:
    """Fan-in uniform (out, in, kw) kernels, then a zero (out,) bias."""
    kernels = init_uniform_fanin(record, (out_channels, in_channels, kernel_width), in_channels * kernel_width)
    return kernels, _new_param(record, (out_channels,))


def _group_sizes(labels: np.ndarray, n_groups: int) -> np.ndarray:
    """Members per group of a 0-based label vector; a label outside
    0..n_groups-1 or a group without members raises ShapeError."""
    if labels.ndim != 1 or not labels.size:
        raise ShapeError(f"group labels must be a non-empty vector, got shape {labels.shape}")
    bad = labels[(labels < 0) | (labels >= n_groups)]
    if bad.size:
        raise ShapeError(f"group label {bad[0]} out of range for {n_groups} groups")
    sizes = np.bincount(labels, minlength=n_groups)
    if not sizes.all():
        raise ShapeError(f"group {np.argmin(sizes)} has no member channels")
    return sizes


class Layer:
    """Minimal layer protocol: forward pass plus named parameters."""

    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def named_params(self) -> list[tuple[str, Tensor]]:
        return []


class Conv1DLayer(Layer):
    """Width-preserving 1-D convolution, bias and activation, as one
    :func:`tensor.conv1d`."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_width: int = 3,
        activation: str = "relu",
        *,
        record: Record,
    ):
        if kernel_width < 1:
            raise ShapeError(f"kernel width must be >= 1, got {kernel_width}")
        if activation not in T.ACTIVATION_KINDS:
            raise ValueError(f"unknown activation kind {activation!r}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_width = kernel_width
        self.activation = activation
        self.kernels, self.bias = conv_params(record, out_channels, in_channels, kernel_width)

    def forward(self, x: Tensor) -> Tensor:
        return T.conv1d(x, self.kernels, self.bias, self.activation)

    def named_params(self):
        return [("kernels", self.kernels), ("bias", self.bias)]


class GroupedConv1DLayer(Layer):
    """Grouped convolution: each group convolves only its member channels.

    ``labels[c]`` is the 0-based group of input channel c.  Group g's
    members, in ascending channel order, meet its (O_g, C_g, kw)
    ``kernels[g]`` and (O_g,) ``biases[g]``; a group whose kernels and
    bias are None passes its members through unchanged.  One gather puts
    the convolved groups' members in group order (none when already in
    order), then one :func:`tensor.grouped_conv1d` runs every such group.
    When some groups pass through, one ``concat`` of the convolution
    output with the input and one gather lay the outputs out group-major.
    """

    def __init__(
        self,
        labels: Sequence[int] | np.ndarray,
        kernels: Sequence[Tensor | None],
        biases: Sequence[Tensor | None],
        activation: str = "relu",
    ):
        labels = np.asarray(labels, dtype=np.intp)
        if len(biases) != len(kernels):
            raise ShapeError(f"need one bias per group, got {len(kernels)} kernels and {len(biases)} biases")
        sizes = _group_sizes(labels, len(kernels))
        out_sizes = sizes.copy()
        for g, (k, b) in enumerate(zip(kernels, biases)):
            if (k is None) != (b is None):
                raise ShapeError(f"group {g} needs both kernels and a bias, or neither")
            if k is None:
                continue
            out_sizes[g], gin, _ = k.shape
            if gin != sizes[g]:
                raise ShapeError(f"group {g} expects {gin} channels but has {sizes[g]} members")
            if b.shape != (k.shape[0],):
                raise ShapeError(f"group {g} bias shape {b.shape} does not match {k.shape[0]} outputs")
        convolved = np.array([k is not None for k in kernels])
        self.in_channels = labels.size
        self.out_channels = int(out_sizes.sum())
        self.activation = activation
        self.convolved = np.flatnonzero(convolved)  # group index of each kernel and bias
        self.kernels = [kernels[g] for g in self.convolved]
        self.biases = [biases[g] for g in self.convolved]
        self.order = self.layout = None
        if convolved.all() and (labels[:-1] <= labels[1:]).all():
            return  # contiguous blocks in group order: nothing to gather or lay out
        members = np.argsort(labels, kind="stable")  # group-major, ascending within a group
        order = members[convolved[labels[members]]]
        if not np.array_equal(order, np.arange(self.in_channels)):
            self.order = order
        if not convolved.all():  # group-major output rows, as rows of concat([conv output, input])
            conv_rows = np.where(convolved, out_sizes, 0)
            start = np.cumsum(conv_rows) - conv_rows  # a convolved group's first conv output row
            self.layout = np.concatenate([
                start[g] + np.arange(out_sizes[g]) if convolved[g] else conv_rows.sum() + m
                for g, m in enumerate(np.split(members, np.cumsum(sizes)[:-1]))
            ])

    @classmethod
    def create(
        cls,
        labels: Sequence[int] | np.ndarray,
        out_per_group: int,
        kernel_width: int = 3,
        activation: str = "relu",
        *,
        record: Record,
    ) -> "GroupedConv1DLayer":
        """Every group convolved; the groups' parameters are made, so
        drawn, in group order."""
        labels = np.asarray(labels, dtype=np.intp)
        sizes = _group_sizes(labels, int(labels.max(initial=-1)) + 1)
        params = [conv_params(record, out_per_group, int(size), kernel_width) for size in sizes]
        return cls(labels, *zip(*params), activation)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.in_channels:
            raise ShapeError(f"expected {self.in_channels} input channels, got {x.shape[-2]}")
        rows = x
        if self.kernels:
            xs = x if self.order is None else T.gather_rows(x, self.order)
            out = T.grouped_conv1d(xs, self.kernels, self.biases, self.activation)
            if self.layout is None:
                return out
            rows = T.concat([out, x], axis=-2)
        return T.gather_rows(rows, self.layout)

    def named_params(self):
        pairs = zip(self.convolved, self.kernels, self.biases)
        return [(f"g{g:02d}.{name}", t) for g, k, b in pairs for name, t in (("kernels", k), ("bias", b))]


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
            z = self.inner.forward(T.elementwise("add", x, z))
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
    Output is group-major: K blocks of N channels.  A forward pass is the
    softmax and one :func:`tensor.channelwise_conv1d`.
    """

    def __init__(
        self,
        n_variables: int,
        n_groups: int,
        kernel_width: int = 3,
        activation: str = "relu",
        *,
        record: Record,
    ):
        if n_groups < 1:
            raise ValueError(f"need at least one group, got {n_groups}")
        self.n_variables = n_variables
        self.n_groups = n_groups
        self.kernel_width = kernel_width
        self.activation = activation
        # near-uniform membership with broken symmetry
        self.logits = _new_param(record, (n_variables, n_groups), 0.01)
        self.kernels = init_uniform_fanin(record, (n_groups, kernel_width), kernel_width)
        self.bias = _new_param(record, (n_groups,))

    def coefficients(self) -> Tensor:
        """Row-stochastic membership matrix U (N x K)."""
        return T.softmax_rows(self.logits)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-2] != self.n_variables:
            raise ShapeError(f"expected {self.n_variables} variables, got {x.shape[-2]} channels")
        return T.channelwise_conv1d(x, self.kernels, self.coefficients(), self.bias, self.activation)

    def named_params(self):
        return [("logits", self.logits), ("kernels", self.kernels), ("bias", self.bias)]


class DenseLayer(Layer):
    """Fully-connected map on (features, batch) matrices, one column per
    sample, as one :func:`tensor.dense`."""

    def __init__(self, in_features: int, out_features: int, activation: str = "linear", *, record: Record):
        self.in_features = in_features
        self.out_features = out_features
        self.activation = activation
        self.weight = init_uniform_fanin(record, (out_features, in_features), in_features)
        self.bias = _new_param(record, (out_features,))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[0] != self.in_features:
            raise ShapeError(f"dense layer expects ({self.in_features}, batch), got {x.shape}")
        return T.dense(x, self.weight, self.bias, self.activation)

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
        return T.flatten(x)
