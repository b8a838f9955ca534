"""Reference implementations the tests check the package against.

``toy_grouped_dense_forward`` is the two-layer grouped dense network of
acceptance criterion 1, ``brute_force_min_ncut`` the exhaustive
minimum-Ncut search of criterion 4, ``reference_grouped_conv1d`` and
``reference_channelwise_conv1d`` the per-sample im2col convolutions the
engine's batch-wide ones are checked against, ``row_sliced_fold`` the
col2im the engine's flat one must match bit for bit, ``composed_ops``
the fused layer ops written as the chains of smaller ops they replace,
``reference_sgd_step`` the per-tensor update the flat SGD step is
checked against, ``reference_read_utf8`` the whole-text rule that
the streamed text reader is held to, however the bytes are cut, and
``load_parsed`` a parsed-table file read as ``data.prepare`` reads it.
Nothing in ``gcnn`` uses them.  ``Drawing`` is the parameter record
that fills a layer a test builds alone.
"""

from __future__ import annotations

import codecs
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from gcnn import data as D
from gcnn import tensor as T
from gcnn.errors import DataError, ShapeError
from gcnn.layers import draw
from gcnn.spectral import GroupAssignment, SimilarityGraph, ncut_value
from gcnn.tensor import Tensor


class Drawing(list):
    """A parameter record for a layer a test builds alone.  Each parameter
    the layer records gets its own zeroed array and is drawn from ``rng``
    by :func:`gcnn.layers.draw` at once, so a layer's draws and the test's
    other draws from one generator interleave in the order they are made,
    and the layer gets the values a model build draws for the same
    parameters."""

    def __init__(self, rng: np.random.Generator):
        super().__init__()
        self.rng = rng

    def append(self, entry):
        param, _ = entry
        param.data = np.zeros(param.shape)
        draw([entry], self.rng)
        super().append(entry)


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


@dataclass
class BruteForceResult:
    assignment: GroupAssignment
    value: float


def _partitions_into_k(n: int, k: int) -> Iterator[list[int]]:
    """Canonical labelings (restricted growth strings) using all k labels."""
    labels = [0] * n

    def rec(i: int, used: int):
        if i == n:
            if used == k:
                yield labels.copy()
            return
        # prune: remaining slots must be able to introduce the missing labels
        if used + (n - i) < k:
            return
        for lab in range(min(used + 1, k)):
            labels[i] = lab
            yield from rec(i + 1, max(used, lab + 1))

    yield from rec(0, 0)


def brute_force_min_ncut(g: SimilarityGraph, k: int) -> BruteForceResult:
    """Exact minimum Ncut by exhaustive enumeration (test oracle, N <= 10)."""
    if g.n > 10:
        raise ShapeError(f"brute force enumeration capped at 10 vertices, got {g.n}")
    if not 1 <= k <= g.n:
        raise ShapeError(f"need 1 <= K <= {g.n}, got {k}")
    best: BruteForceResult | None = None
    for rgs in _partitions_into_k(g.n, k):
        assignment = GroupAssignment([lab + 1 for lab in rgs], k)
        value = ncut_value(g, assignment)
        if best is None or value < best.value:
            best = BruteForceResult(assignment, value)
    assert best is not None
    return best


def _unfold(x, kw):
    """Same-pad the width of a (..., C, W) array, (kw - 1) // 2 zeros on the
    left and the rest on the right, and view its W windows: returns the
    padded array and its (..., C, W, kw) sliding-window view."""
    left = (kw - 1) // 2
    xp = np.pad(x, ((0, 0),) * (x.ndim - 1) + ((left, kw - 1 - left),))
    return xp, sliding_window_view(xp, kw, axis=-1)


def _fold(g, xp, kw):
    """Adjoint of :func:`_unfold` (col2im): add the (..., C, kw, W) window
    gradient ``g`` back onto the padded input and crop the pad."""
    width = g.shape[-1]
    gxp = np.zeros_like(xp)
    for dt in range(kw):
        gxp[..., dt : dt + width] += g[..., dt, :]
    left = (kw - 1) // 2
    return gxp[..., left : left + width]


def reference_grouped_conv1d(x, kernels, biases):
    """Grouped same convolution of a (..., C, W) array by a padded im2col
    and one matmul per sample and group.

    Returns the (..., O, W) output and a backward that maps the output's
    gradient to ``(gx, kernel grads, bias grads)``.
    """
    cin, width = x.shape[-2:]
    kw = kernels[0].shape[2]
    xp, windows = _unfold(x, kw)
    # row i*kw + t of each sample's column matrix is channel i shifted by t
    cols = np.swapaxes(windows, -1, -2).reshape(*x.shape[:-2], cin * kw, width)
    blocks = []
    o0 = c0 = 0
    for k in kernels:
        o, c, _ = k.shape
        blocks.append((slice(o0, o0 + o), slice(c0 * kw, (c0 + c) * kw), k.reshape(o, c * kw)))
        o0, c0 = o0 + o, c0 + c
    out = np.empty((*x.shape[:-2], o0, width))
    for rows, crows, k2 in blocks:
        np.matmul(k2, cols[..., crows, :], out=out[..., rows, :])
    out += np.concatenate(biases)[:, None]

    def grad(g):
        summed = tuple(range(g.ndim - 2)) + (g.ndim - 1,)  # batch and width
        gcols = np.empty(cols.shape)
        gks, gbs = [], []
        for (rows, crows, k2), k in zip(blocks, kernels):
            gg = g[..., rows, :]
            gbs.append(gg.sum(axis=summed))
            gks.append(np.tensordot(gg, cols[..., crows, :], axes=(summed, summed)).reshape(k.shape))
            np.matmul(k2.T, gg, out=gcols[..., crows, :])
        return _fold(gcols.reshape(*x.shape[:-1], kw, width), xp, kw), gks, gbs

    return out, grad


def reference_channelwise_conv1d(x, kernels):
    """Every row of a (..., C, W) array convolved with each of K (K, kw)
    kernels by a padded window view, giving group-major (..., K·C, W).

    Returns the output and a backward that maps its gradient to
    ``(gx, gkernels)``.
    """
    kw = kernels.shape[1]
    xp, windows = _unfold(x, kw)  # windows: (..., C, W, kw)
    out = np.moveaxis(windows @ kernels.T, -1, -3)  # (..., K, C, W)

    def grad(g):
        gs = np.moveaxis(g.reshape(out.shape), -3, -1)  # (..., C, W, K)
        lead = tuple(range(gs.ndim - 1))
        gk = np.tensordot(gs, windows, axes=(lead, lead))
        return _fold(np.swapaxes(gs @ kernels, -1, -2), xp, kw), gk

    return out.reshape(*x.shape[:-2], -1, x.shape[-1]), grad


def row_sliced_fold(g, width):
    """col2im of an (A, kw, R·width) column gradient onto (A, R·width), one
    row-sliced add per tap into the (A, R, width) rows, in tap order from
    zeros; entries a tap read from padding are never added."""
    a, kw = g.shape[:2]
    rows = g.reshape(a, kw, -1, width)
    gx = np.zeros((a, rows.shape[2], width))
    left = (kw - 1) // 2
    for t in range(kw):
        s = t - left  # output column j read input column j + s
        lo, hi = max(0, -s), min(width, width - s)
        if lo < hi:
            gx[..., lo + s : hi + s] += rows[:, t, :, lo:hi]
    return gx.reshape(a, -1)


def composed_ops() -> dict:
    """{name in ``gcnn.tensor``: function} for each op that fuses a layer's
    bias and activation, and the loss, written as the chain of smaller ops
    it replaces: a linear convolution, a broadcast bias add, a scale and
    reshapes, then ``activation``; ``transpose`` of ``reshape``; ``sub``,
    ``mul`` and ``mean_all``.  The fused ops must give these bits, forward
    and backward.  The convolutions called are the fused ones, captured
    now, with no scale, no bias or a linear activation."""
    grouped_conv1d, channelwise_conv1d = T.grouped_conv1d, T.channelwise_conv1d

    def grouped(x, kernels, biases, activation="linear"):
        return T.activation(grouped_conv1d(x, kernels, biases), activation)

    def channelwise(x, kernels, scale=None, bias=None, activation="linear"):
        *lead, c, w = x.shape
        k = kernels.shape[0]
        conv = T.reshape(channelwise_conv1d(x, kernels), (*lead, k, c, w))
        if scale is not None:
            conv = conv * T.reshape(T.transpose(scale), (k, c, 1))
        if bias is not None:
            conv = conv + T.reshape(bias, (k, 1, 1))
        return T.activation(T.reshape(conv, (*lead, k * c, w)), activation)

    def dense(x, weight, bias, activation="linear"):
        return T.activation((weight @ x) + T.reshape(bias, (weight.shape[0], 1)), activation)

    def flatten(x):
        features = x.shape[-2] * x.shape[-1]
        return T.transpose(T.reshape(x, (x.size // features, features)))

    def mean_squared_error(predictions, targets):
        d = predictions - targets
        return T.mean_all(d * d)

    return {
        "grouped_conv1d": grouped,
        "channelwise_conv1d": channelwise,
        "dense": dense,
        "flatten": flatten,
        "mean_squared_error": mean_squared_error,
    }


def reference_sgd_step(params, velocity, grads, learning_rate, momentum, clip_norm):
    """Clipped momentum SGD as a loop over parameter arrays, each with its
    own velocity array, all updated in place; returns the gradient norm.

    The norm adds up one sum of squares per array, in order, and the
    gradient is scaled by ``clip_norm / norm`` when the norm exceeds it.
    """
    gnorm = math.sqrt(sum(float((g * g).sum()) for g in grads))
    scale = clip_norm / gnorm if gnorm > clip_norm else 1.0
    for t, v, g in zip(params, velocity, grads):
        v *= momentum
        v += g * scale
        t -= learning_rate * v
    return gnorm


def reference_read_utf8(path, raw: bytes) -> str:
    """The text of a file holding ``raw``, by the whole-text rule: the
    bytes after a leading byte-order mark decoded at once, then ``\\r\\n``
    and a lone ``\\r`` read as ``\\n``.  For a byte that is not UTF-8,
    DataError names ``path`` and its line, counted in the text before it."""
    raw = raw.removeprefix(codecs.BOM_UTF8)
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw[: e.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
        raise DataError(f"{path}:{line}: not valid UTF-8 (byte 0x{raw[e.start]:02x})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_parsed(path, source_sha256: str | None, source_size: float = math.inf):
    """The table of the parsed-table file at ``path``, read through
    ``gcnn.data.open_parsed``, when its header names ``source_sha256``
    (None: any source); None for a miss."""
    with D.open_parsed(path, source_size) as (source, table):
        return table() if source is not None and source_sha256 in (None, source) else None
