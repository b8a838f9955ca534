"""Dense float64 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array plus, when gradients are enabled, a
record of the primitive application that produced it.  :class:`GradTape`
linearizes that record in topological order so :func:`backward` can push
gradients from a scalar loss back to every trainable leaf.

Conventions:

* everything is float64; construction rejects NaN/Inf so non-finite
  values can only arise from arithmetic (where divergence guards can
  observe them through :meth:`Tensor.is_finite`);
* a leaf built on :class:`Unfilled` has a shape but no values yet: it can
  be counted and given its ``data`` later, and any read before then raises;
* a :class:`Parameter` keeps its values in one array once it has them,
  so it can be a view into a larger buffer such as a model's parameter
  vector;
* :func:`backward` consumes the graph it sweeps, freeing each saved
  activation as it passes; a second sweep through it raises
  :class:`GraphConsumedError`;
* 1-D signals are laid out (..., channels, width): leading axes are
  batch axes, and one (channels, width) sample is the case with none;
* evaluation is single-threaded per graph, and separate graphs may run
  concurrently (the only shared state is the per-context autograd
  switch).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .errors import GraphConsumedError, ShapeError

__all__ = [
    "Tensor",
    "Unfilled",
    "Parameter",
    "GradTape",
    "no_grad",
    "elementwise",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "matmul",
    "dense",
    "conv1d",
    "grouped_conv1d",
    "channelwise_conv1d",
    "maxpool1d",
    "activation",
    "sum_all",
    "mean_all",
    "mean_squared_error",
    "reshape",
    "transpose",
    "flatten",
    "concat",
    "gather_rows",
    "take_column",
    "rowscale",
    "softmax_rows",
    "backward",
    "grad_check",
]

ACTIVATION_KINDS = ("relu", "tanh", "linear")

_grad_enabled: ContextVar[bool] = ContextVar("gcnn_grad_enabled", default=True)

# set by a backward sweep that writes leaf gradients into caller arrays:
# leaf -> the array its first gradient may be computed straight into
_grad_out: ContextVar[Callable[[Tensor], np.ndarray | None] | None] = ContextVar("gcnn_grad_out", default=None)

# rule(grad_of_result) -> per-parent gradients, aligned with the parents
# tuple; None marks a parent that needs no gradient.
BackwardRule = Callable[[np.ndarray], tuple]


@contextmanager
def no_grad():
    """Disable gradient recording inside the block (forward values only)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Unfilled:
    """Stand-in for the values of a leaf that are assigned later, such as
    parameters a checkpoint load reads in: a shape and no storage.

    It answers ``shape``, ``ndim`` and ``size``.  Any other use, a numpy
    conversion, ufunc or function, or an array attribute, raises
    AttributeError, so nothing computes with values that are not there.
    """

    __slots__ = ("shape",)

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    def _refuse(self, *args, **kwargs):
        raise AttributeError(f"the values of this {self.shape} tensor are not filled in yet")

    __array__ = __array_ufunc__ = __array_function__ = _refuse

    def __getattr__(self, name):
        self._refuse()


class Tensor:
    """Dense float64 array, optionally tracked for reverse-mode gradients.

    Leaves are built directly (``Tensor(data, requires_grad=True)``);
    primitives produce tensors that remember their operands and backward
    rule.  ``grad`` is (re)populated by :func:`backward` on trainable
    leaves; it is never accumulated across calls.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_rule")

    def __init__(self, data, requires_grad: bool = False):
        filled = not isinstance(data, Unfilled)
        arr = np.array(data, dtype=np.float64) if filled else data
        if any(d <= 0 for d in arr.shape):
            raise ShapeError(f"tensor dimensions must be positive, got {arr.shape}")
        if filled and not np.isfinite(arr).all():
            raise ValueError("tensor values must be finite (NaN/Inf rejected)")
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._rule: BackwardRule | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def is_finite(self) -> bool:
        """Flag NaN/Inf produced by upstream arithmetic."""
        return bool(np.isfinite(self.data).all())

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Arithmetic sugar; all routing goes through the module primitives.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return add(neg(self), other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


_DATA = Tensor.data  # the slot that holds every tensor's values


class Parameter(Tensor):
    """A trainable leaf whose values stay in one array once it has them.

    Assigning ``data`` writes the new values into the array the parameter
    holds, so a parameter that is a view into a larger buffer stays one.
    Only an unfilled parameter takes the array it is given, which must be
    a float64 array of its shape.
    """

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)

    def _assign(self, value):
        held = getattr(self, "data", None)
        if held is None:  # Tensor.__init__ storing what it checked
            _DATA.__set__(self, value)
        elif isinstance(held, Unfilled):
            if not (isinstance(value, np.ndarray) and value.dtype == np.float64):
                got = getattr(value, "dtype", type(value).__name__)
                raise TypeError(f"an unfilled parameter takes a float64 array, got {got}")
            if value.shape != held.shape:
                raise ShapeError(f"cannot assign {value.shape} values to a {held.shape} parameter")
            _DATA.__set__(self, value)
        elif value is not held:
            value = np.asarray(value, dtype=np.float64)
            if value.shape != held.shape:
                raise ShapeError(f"cannot assign {value.shape} values to a {held.shape} parameter")
            np.copyto(held, value)

    # only a ``data`` assignment runs Python code: a read calls the slot's
    # own getter, and every other attribute is a plain slot
    data = property(_DATA.__get__, _assign)


def _record(data: np.ndarray, parents: tuple[Tensor, ...], rule: BackwardRule) -> Tensor:
    """Wrap an op result; keep the backward rule only when it can matter."""
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    if _grad_enabled.get() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._rule = rule
    else:
        out.requires_grad = False
        out._parents = ()
        out._rule = None
    return out


@dataclass
class TapeEntry:
    """One recorded primitive application: operands, produced value, rule."""

    result: Tensor
    parents: tuple[Tensor, ...]
    rule: BackwardRule


class GradTape:
    """Topologically ordered record of the primitives behind a tensor.

    Every entry's operands precede it, so a single reverse sweep
    propagates gradients correctly.
    """

    def __init__(self, entries: list[TapeEntry]):
        self.entries = entries

    @classmethod
    def from_root(cls, root: Tensor) -> "GradTape":
        entries: list[TapeEntry] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                if node._rule is not None:
                    entries.append(TapeEntry(node, node._parents, node._rule))
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        return cls(entries)

    def backward(
        self, root: Tensor, leaves: Sequence[Tensor] | Mapping[Tensor, np.ndarray] | None = None
    ) -> dict[Tensor, np.ndarray]:
        """Accumulate gradients from ``root`` down to the trainable leaves.

        Returns a map keyed by leaf tensor; requested ``leaves`` that the
        graph never touched get zero gradients.  ``leaves`` may map each
        requested leaf to an array of its shape, which its gradient is
        written into; every other leaf gradient is an array of its own.
        A rule may compute a mapped leaf's first gradient straight into
        that array (:func:`_leaf_grad_out`); later ones are added to it.
        Leaf ``.grad`` fields are overwritten (no accumulation across calls).

        The sweep consumes the tape: once an entry has propagated, its rule
        is dropped and its result keeps no rule and no operands, so every
        saved activation is freed as soon as no entry still to come needs
        it.  An intermediate gradient is copied only when a second
        contribution is added to it.
        """
        into = leaves if isinstance(leaves, Mapping) else {}
        grads: dict[int, np.ndarray] = {}
        owned: set[int] = set()  # keys whose gradient array this sweep may add into
        found: dict[int, Tensor] = {}
        claimed: set[int] = set()  # leaves whose caller array a rule was handed

        def claim(leaf: Tensor) -> np.ndarray | None:
            key = id(leaf)
            dest = into.get(leaf)
            if dest is None or key in grads or key in claimed or not dest.flags.c_contiguous:
                return None
            claimed.add(key)
            return dest

        def give(node: Tensor, g: np.ndarray) -> None:
            key = id(node)
            acc = grads.get(key)
            if acc is None:
                if node._rule is None:  # a leaf: its own array, or the caller's
                    found[key] = node
                    dest = into.get(node)
                    if dest is None:
                        g = np.array(g)
                    elif g is not dest:  # a rule may have computed it in place
                        np.copyto(dest, g)
                        g = dest
                    owned.add(key)
                grads[key] = g  # an intermediate's may be shared: rules hand out views
            elif key in owned:
                acc += g
            else:
                grads[key] = acc + g
                owned.add(key)

        if root.requires_grad:
            give(root, np.ones_like(root.data))
        entries = self.entries
        token = _grad_out.set(claim if into else None)
        try:
            while entries:
                entry = entries.pop()
                node = entry.result
                node._rule, node._parents = _consumed, ()
                g = grads.pop(id(node), None)
                if g is None:
                    continue
                for parent, pg in zip(entry.parents, entry.rule(g)):
                    if pg is not None and parent.requires_grad:
                        give(parent, pg)
        finally:
            _grad_out.reset(token)
        result: dict[Tensor, np.ndarray] = {}
        for key, leaf in found.items():
            leaf.grad = result[leaf] = grads[key]
        if leaves is not None:
            for leaf in leaves:
                if not leaf.requires_grad:
                    raise ValueError("requested leaf is not marked trainable")
                if leaf not in result:
                    dest = into.get(leaf)
                    if dest is None:
                        dest = np.zeros_like(leaf.data)
                    else:
                        dest[...] = 0.0
                    leaf.grad = result[leaf] = dest
        return result


def _leaf_grad_out(leaf: Tensor) -> np.ndarray | None:
    """The C-contiguous array a running backward sweep will keep ``leaf``'s
    gradient in, when no gradient of the leaf has reached it yet and no
    rule has been handed it before; else None.  A rule that gets it must
    compute the leaf's gradient into it and return it as that gradient."""
    claim = _grad_out.get()
    return None if claim is None else claim(leaf)


def _consumed(g):
    """The rule a node keeps once a backward pass has consumed it."""
    raise GraphConsumedError(
        "this graph was already consumed by a backward pass; run the forward pass again to differentiate it again")


def backward(
    loss: Tensor, leaves: Sequence[Tensor] | Mapping[Tensor, np.ndarray] | None = None
) -> dict[Tensor, np.ndarray]:
    """Reverse-mode gradients of a scalar loss over its trainable leaves;
    see :meth:`GradTape.backward`.  The graph behind ``loss`` is consumed."""
    if loss.size != 1:
        raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
    return GradTape.from_root(loss).backward(loss, leaves=leaves)


# ---------------------------------------------------------------------------
# elementwise arithmetic


# op -> (forward, d/da times g, d/db times g)
_ELEMENTWISE_OPS = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / (b * b)),
}


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient of the broadcast result back down to ``shape``."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, d in enumerate(shape) if d == 1)
    return g.sum(axis=axes).reshape(shape)


def elementwise(op: str, a: Tensor, b) -> Tensor:
    """Pointwise ``a op b`` under numpy broadcasting.

    ``b`` is a tensor or a Python/numpy number; shapes that do not
    broadcast raise :class:`ShapeError`.
    """
    if op not in _ELEMENTWISE_OPS:
        raise ValueError(f"unknown elementwise op {op!r}")
    if not isinstance(a, Tensor):
        raise TypeError("first operand must be a Tensor")
    if isinstance(b, Tensor):
        parents, bd = (a, b), b.data
    elif isinstance(b, (int, float, np.integer, np.floating)):
        parents, bd = (a,), np.float64(b)
    else:
        raise TypeError(f"unsupported operand type: {type(b).__name__}")
    try:
        np.broadcast_shapes(a.shape, bd.shape)
    except ValueError:
        raise ShapeError(f"elementwise {op}: shapes {a.shape} and {bd.shape} do not broadcast") from None
    fn, da, db = _ELEMENTWISE_OPS[op]
    ad = a.data

    def rule(g):
        ga = _unbroadcast(da(g, ad, bd), a.shape) if a.requires_grad else None
        gb = _unbroadcast(db(g, ad, bd), bd.shape) if len(parents) == 2 and b.requires_grad else None
        return ga, gb

    return _record(fn(ad, bd), parents, rule)


def add(a: Tensor, b) -> Tensor:
    return elementwise("add", a, b)


def sub(a: Tensor, b) -> Tensor:
    return elementwise("sub", a, b)


def mul(a: Tensor, b) -> Tensor:
    return elementwise("mul", a, b)


def div(a: Tensor, b) -> Tensor:
    return elementwise("div", a, b)


def neg(a: Tensor) -> Tensor:
    return _record(-a.data, (a,), lambda g: (-g,))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dimensions differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data

    def rule(g):
        ga = g @ bd.T if a.requires_grad else None
        gb = ad.T @ g if b.requires_grad else None
        return ga, gb

    return _record(ad @ bd, (a, b), rule)


def dense(x: Tensor, weight: Tensor, bias: Tensor, activation: str = "linear") -> Tensor:
    """``activation(weight @ x + bias)`` on a (features, batch) ``x``, one
    column per sample, as one op: the (O, F) ``weight``'s product, plus
    the (O,) ``bias`` in every column, through the activation in place."""
    _check_activation(activation)
    if x.ndim != 2 or weight.ndim != 2 or weight.shape[1] != x.shape[0]:
        raise ShapeError(f"dense needs (O,F) weights and (F,batch) input, got {weight.shape} and {x.shape}")
    if bias.shape != (weight.shape[0],):
        raise ShapeError(f"dense bias must have shape ({weight.shape[0]},), got {bias.shape}")
    xd, wd = x.data, weight.data
    column = (weight.shape[0], 1)
    data = wd @ xd
    data += bias.data.reshape(column)
    _activate(data, activation)

    def rule(g):
        g = _activation_grad(activation, g, data)
        gx = wd.T @ g if x.requires_grad else None
        gw = g @ xd.T if weight.requires_grad else None
        gb = _unbroadcast(g, column).reshape(bias.shape) if bias.requires_grad else None
        return gx, gw, gb

    return _record(data, (x, weight, bias), rule)


# ---------------------------------------------------------------------------
# convolution and pooling


def _shifts(width: int, kw: int) -> Iterator[tuple[int, slice, slice]]:
    """Yield ``(t, out_cols, src_cols)`` for each kernel tap t of a same
    convolution over ``width`` columns: output columns ``out_cols`` read
    input columns ``src_cols`` at tap t, and the rest of the row reads
    padding.  (kw - 1) // 2 zeros go on the left and the rest on the
    right, so there are exactly ``width`` windows, even when kw > width.
    """
    left = (kw - 1) // 2
    for t in range(kw):
        s = t - left  # output column j reads input column j + s
        lo, hi = max(0, -s), min(width, width - s)
        if lo < hi:
            yield t, slice(lo, hi), slice(lo + s, hi + s)


def _unfold(x: np.ndarray, kw: int) -> np.ndarray:
    """im2col of a (A, ..., W) array: the zero-filled (A, kw, ..., W) whose
    row [a, t] is row a shifted by tap t, made by kw strided copies."""
    cols = np.zeros((x.shape[0], kw, *x.shape[1:]))
    for t, out, src in _shifts(x.shape[-1], kw):
        cols[:, t, ..., out] = x[..., src]
    return cols


def _fold(g: np.ndarray, gx: np.ndarray, width: int) -> None:
    """Adjoint of :func:`_unfold` (col2im) into a C-contiguous (A, L) ``gx``
    whose rows are L / ``width`` signal rows laid end to end: each tap of
    the (A, kw, L) gradient ``g`` is one flat add at its shift, in tap
    order from zeros.  A tap's entries that would cross a row edge (the
    ones it read from padding) are zeroed in ``g`` first, so ``g`` is
    scratch; adding those +0.0s to a sum that started at +0.0 changes no
    bit."""
    gx[...] = 0.0
    size = gx.shape[-1]
    rows = g.reshape(*g.shape[:2], -1, width)
    for t, out, src in _shifts(width, g.shape[1]):
        s = src.start - out.start
        rows[:, t, :, : out.start] = 0.0
        rows[:, t, :, out.stop :] = 0.0
        gx[:, max(s, 0) : size + min(s, 0)] += g[:, t, max(-s, 0) : size - max(s, 0)]


def conv1d(x: Tensor, kernels: Tensor, bias: Tensor, activation: str = "linear") -> Tensor:
    """Sliding inner product over the width of a (..., C, W) signal, plus
    the bias, through the activation, as one op.

    ``kernels`` is (out_channels, in_channels, kernel_width).  Every
    convolution is stride 1 with same padding, so the output keeps the
    input's width.  The orientation is cross-correlation: the kernel is
    applied as stored, without flipping.  This is the one-group case of
    :func:`grouped_conv1d`.
    """
    return grouped_conv1d(x, [kernels], [bias], activation)


def grouped_conv1d(
    x: Tensor, kernels: Sequence[Tensor], biases: Sequence[Tensor], activation: str = "linear"
) -> Tensor:
    """Grouped convolution of a (..., C, W) signal, plus the biases, through
    the activation, as one op.

    Group g has (O_g, C_g, kw) ``kernels[g]`` and (O_g,) ``biases[g]`` and
    reads the next C_g input channels, so the groups cover contiguous
    channel blocks in order.  Group outputs are stacked group-major.
    The batch lies side by side in the columns: each group is one matmul
    of its flattened kernels with its (C_g·kw, N·W) im2col block, which
    is built when needed (again in backward) and never kept.  The
    activation is applied in place, and its gradient is taken from the
    output, so the op keeps no pre-activation array.
    """
    _check_activation(activation)
    if not kernels or len(kernels) != len(biases):
        raise ShapeError(f"grouped_conv1d needs one bias per kernel, got {len(kernels)} and {len(biases)}")
    if x.ndim < 2 or any(k.ndim != 3 for k in kernels):
        raise ShapeError(
            f"conv1d needs (...,C,W) input and (O,C,kw) kernels, got {x.shape}, {[k.shape for k in kernels]}"
        )
    *lead, cin, width = x.shape
    kw = kernels[0].shape[2]
    if any(k.shape[2] != kw for k in kernels):
        raise ShapeError(f"grouped kernels must share one width, got {[k.shape[2] for k in kernels]}")
    kcin = sum(k.shape[1] for k in kernels)
    if kcin != cin:
        raise ShapeError(f"conv1d channel mismatch: input has {cin}, kernels expect {kcin}")
    for k, b in zip(kernels, biases):
        if b.shape != (k.shape[0],):
            raise ShapeError(f"conv1d bias must have shape ({k.shape[0]},), got {b.shape}")

    n = math.prod(lead)
    xc = x.data.reshape(n, cin, width).transpose(1, 0, 2)  # (C, N, W)
    # (output rows, input channels, flattened kernels) per group
    blocks = []
    o0 = c0 = 0
    for k in kernels:
        o, c, _ = k.shape
        blocks.append((slice(o0, o0 + o), slice(c0, c0 + c), k.data.reshape(o, c * kw)))
        o0, c0 = o0 + o, c0 + c

    def block(chans):  # row i*kw + t is channel i shifted by tap t, one column per (sample, step)
        return _unfold(xc[chans], kw).reshape(-1, n * width)

    out = np.empty((o0, n * width))
    for rows, chans, k2 in blocks:
        np.matmul(k2, block(chans), out=out[rows])
    out += np.concatenate([b.data for b in biases])[:, None]
    data = np.ascontiguousarray(out.reshape(o0, n, width).transpose(1, 0, 2)).reshape(*lead, o0, width)
    _activate(data, activation)

    def rule(g):
        g = _activation_grad(activation, g, data)
        gt = g.reshape(n, o0, width).transpose(1, 0, 2).reshape(o0, n * width)  # one copy
        del g  # the masked gradient, once copied
        gks, gbs = [], []
        # the input gradient channel-major, so each group's is one (C_g, N·W) block
        gxt = np.empty((cin, n * width)) if x.requires_grad else None
        for (rows, chans, k2), k, b in zip(blocks, kernels, biases):
            gg = gt[rows]
            gbs.append(gg.sum(1) if b.requires_grad else None)
            cols = block(chans)  # the kernel gradient's operand, then the column gradient's buffer
            gk = None
            if k.requires_grad:
                gk = _leaf_grad_out(k)
                if gk is None:
                    gk = (gg @ cols.T).reshape(k.shape)
                else:
                    np.matmul(gg, cols.T, out=gk.reshape(k2.shape))
            gks.append(gk)
            if gxt is not None:
                np.matmul(k2.T, gg, out=cols)
                _fold(cols.reshape(-1, kw, n * width), gxt[chans], width)
            del cols  # before the next group's block, or gx, is made
        gx = None
        if gxt is not None:
            gx = np.ascontiguousarray(gxt.reshape(cin, n, width).transpose(1, 0, 2)).reshape(x.shape)
        return (gx, *gks, *gbs)

    return _record(data, (x, *kernels, *biases), rule)


def channelwise_conv1d(
    x: Tensor,
    kernels: Tensor,
    scale: Tensor | None = None,
    bias: Tensor | None = None,
    activation: str = "linear",
) -> Tensor:
    """Convolve every channel of a (..., C, W) ``x`` with each of K shared
    kernels, as one op giving group-major (..., K·C, W) rows.

    ``kernels`` is a stack of K (K, kw) kernels, each applied
    independently (and identically) to every row; no cross-channel
    mixing happens.  Row k·C + c is channel c convolved with kernel k,
    times ``scale[c, k]`` when a (C, K) ``scale`` is given, plus
    ``bias[k]`` when a (K,) ``bias`` is given, through the activation.
    The rows of all samples lie side by side, so the K kernels are one
    (K, kw) @ (kw, N·C·W) matmul.  The op keeps the unscaled convolution
    only when the scale needs a gradient, and the activated output.
    """
    _check_activation(activation)
    if x.ndim < 2 or kernels.ndim != 2:
        raise ShapeError(
            f"channelwise_conv1d needs (...,C,W) input and (K,kw) kernels, got {x.shape}, {kernels.shape}"
        )
    *lead, cin, width = x.shape
    n = math.prod(lead)
    nk, kw = kernels.shape
    if scale is not None and scale.shape != (cin, nk):
        raise ShapeError(f"channelwise_conv1d scale must have shape ({cin}, {nk}), got {scale.shape}")
    if bias is not None and bias.shape != (nk,):
        raise ShapeError(f"channelwise_conv1d bias must have shape ({nk},), got {bias.shape}")
    kd = kernels.data
    rows = x.data.reshape(1, n * cin, width)

    def cols():  # (kw, N·C·W): tap t of every row, rows side by side
        return _unfold(rows, kw).reshape(kw, -1)

    blocks = (*lead, nk, cin, width)
    conv = np.ascontiguousarray((kd @ cols()).reshape(nk, n, cin * width).transpose(1, 0, 2)).reshape(blocks)
    parents = [x, kernels]
    y, s, kept = conv, None, None
    if scale is not None:
        parents.append(scale)
        s = scale.data.T.reshape(nk, cin, 1)
        y = conv * s
        kept = conv if scale.requires_grad else None
    if bias is not None:
        parents.append(bias)
        y += bias.data.reshape(nk, 1, 1)
    _activate(y, activation)
    data = y.reshape(*lead, nk * cin, width)

    def rule(g):
        g = _activation_grad(activation, g, data).reshape(blocks)
        grads = [None, None]
        if scale is not None:
            grads.append(_unbroadcast(g * kept, (nk, cin, 1)).reshape(nk, cin).T if scale.requires_grad else None)
        if bias is not None:
            grads.append(_unbroadcast(g, (nk, 1, 1)).reshape(nk) if bias.requires_grad else None)
        if s is not None:
            g = g * s
        gt = g.reshape(n, nk, cin * width).transpose(1, 0, 2).reshape(nk, -1)  # one copy
        del g
        if kernels.requires_grad:
            grads[1] = gt @ cols().T
        if x.requires_grad:
            gx = np.empty(x.shape)
            _fold((kd.T @ gt).reshape(1, kw, -1), gx.reshape(1, -1), width)
            grads[0] = gx
        return tuple(grads)

    return _record(data, tuple(parents), rule)


def maxpool1d(x: Tensor, window: int, stride: int) -> Tensor:
    """Per-channel windowed maximum of a (..., C, W) signal; gradient goes to the first argmax.

    The forward pass is ``window`` strided elementwise maxima, one per
    offset, and computes no argmax; backward finds each window's first
    maximum from the input and the output, so a no_grad pass never does.
    """
    if window <= 0 or stride <= 0:
        raise ValueError(f"window and stride must be positive, got {window}, {stride}")
    if x.ndim < 2:
        raise ShapeError(f"maxpool1d needs a (...,C,W) input, got {x.shape}")
    width = x.shape[-1]
    if window > width:
        raise ShapeError(f"pooling window {window} exceeds input width {width}")

    span = stride * ((width - window) // stride) + 1  # offset t covers x[..., t : t + span : stride]
    data = x.data[..., 0:span:stride].copy()
    for t in range(1, window):
        np.maximum(data, x.data[..., t : t + span : stride], out=data)

    def rule(g):
        gx = np.zeros(x.shape)
        open_ = np.ones(data.shape, dtype=bool)  # windows whose first maximum is not found yet
        hit = np.empty(data.shape, dtype=bool)
        for t in range(window):  # overlapping windows add up across offsets
            np.equal(x.data[..., t : t + span : stride], data, out=hit)
            hit &= open_
            open_ ^= hit
            # for finite g, g * hit is +-0.0 off the hits, which adds nothing:
            # a sum that starts at +0.0 is never -0.0
            gx[..., t : t + span : stride] += g * hit
        return (gx,)

    return _record(data, (x,), rule)


# ---------------------------------------------------------------------------
# activations


def _check_activation(kind: str) -> None:
    if kind not in ACTIVATION_KINDS:
        raise ValueError(f"unknown activation kind {kind!r}")


def _activate(data: np.ndarray, kind: str) -> None:
    """Apply the activation to ``data`` in place."""
    if kind == "relu":
        np.maximum(data, 0.0, out=data)
    elif kind == "tanh":
        np.tanh(data, out=data)


def _activation_grad(kind: str, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The gradient before the activation, from its output ``out``: relu's
    output is positive exactly where its input is (the subgradient at the
    kink is 0), and tanh' = 1 - tanh².  The mask is built here, so a
    no_grad pass never builds it."""
    if kind == "relu":
        return g * (out > 0)
    if kind == "tanh":
        return g * (1.0 - out * out)
    return g


def activation(x: Tensor, kind: str) -> Tensor:
    """Elementwise nonlinearity with a recorded derivative."""
    _check_activation(kind)
    data = x.data.copy()
    _activate(data, kind)
    return _record(data, (x,), lambda g: (_activation_grad(kind, g, data),))


# ---------------------------------------------------------------------------
# reductions and reshaping


def sum_all(x: Tensor) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    data = np.asarray(x.data.sum())
    shape = x.shape
    return _record(data, (x,), lambda g: (np.full(shape, float(g)),))


def mean_all(x: Tensor) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    data = np.asarray(x.data.mean())
    shape, n = x.shape, x.size
    return _record(data, (x,), lambda g: (np.full(shape, float(g) / n),))


def mean_squared_error(predictions: Tensor, targets: Tensor) -> Tensor:
    """Mean of the squared differences of two equal-shaped tensors, as one
    0-d op.  With d the difference, each operand of its square receives
    (g/n)·d, so the predictions' gradient is the sum of the two, the bits
    of the composed ``sub``, ``mul`` and ``mean_all``."""
    if predictions.shape != targets.shape:
        raise ShapeError(f"mean_squared_error needs equal shapes, got {predictions.shape} and {targets.shape}")
    d = predictions.data - targets.data
    n = d.size

    def rule(g):
        half = (float(g) / n) * d
        gp = half + half
        return gp, -gp if targets.requires_grad else None

    return _record(np.asarray((d * d).mean()), (predictions, targets), rule)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    shape = tuple(int(d) for d in shape)
    if any(d <= 0 for d in shape):
        raise ShapeError(f"reshape target must have positive dimensions, got {shape}")
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"cannot reshape {x.shape} (size {x.size}) to {shape}")
    old = x.shape
    return _record(x.data.reshape(shape), (x,), lambda g: (g.reshape(old),))


def transpose(x: Tensor) -> Tensor:
    """Swap the two axes of a 2-D tensor."""
    if x.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {x.shape}")
    return _record(x.data.T, (x,), lambda g: (g.T,))


def flatten(x: Tensor) -> Tensor:
    """A (..., C, W) signal as one row-major column per sample: the
    (C·W, batch) transpose of its (batch, C·W) rows, as one op."""
    if x.ndim < 2:
        raise ShapeError(f"flatten needs a (...,C,W) input, got {x.shape}")
    shape = x.shape
    features = shape[-2] * shape[-1]
    return _record(x.data.reshape(x.size // features, features).T, (x,), lambda g: (g.T.reshape(shape),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate along ``axis``; gradient splits back to each operand."""
    if not tensors:
        raise ValueError("concat needs at least one tensor")
    ndim = tensors[0].ndim
    if any(t.ndim != ndim for t in tensors):
        raise ShapeError("concat operands must share the same rank")
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    return _record(data, tuple(tensors), lambda g: tuple(np.split(g, offsets, axis=axis)))


def gather_rows(x: Tensor, indices: Sequence[int] | np.ndarray) -> Tensor:
    """Select entries (1-D) or rows (axis -2 of n-D) by index, preserving order."""
    idx = np.asarray(indices, dtype=np.intp)
    if not idx.size:
        raise ValueError("gather_rows needs at least one index")
    axis = max(x.ndim - 2, 0)
    n = x.shape[axis]
    if idx.min() < 0 or idx.max() >= n:
        raise IndexError(f"gather index out of range for row dimension {n}")
    where = (slice(None),) * axis + (idx,)
    data = x.data[where]

    def rule(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, where, g)
        return (gx,)

    return _record(data, (x,), rule)


def take_column(x: Tensor, j: int) -> Tensor:
    """Column ``j`` of a 2-D tensor, as a 1-D tensor."""
    if x.ndim != 2:
        raise ShapeError(f"take_column needs a 2-D tensor, got {x.shape}")
    j = int(j)
    if j < 0 or j >= x.shape[1]:
        raise IndexError(f"column {j} out of range for shape {x.shape}")
    data = x.data[:, j].copy()
    shape = x.shape

    def rule(g):
        gx = np.zeros(shape)
        gx[:, j] = g
        return (gx,)

    return _record(data, (x,), rule)


def rowscale(x: Tensor, s: Tensor) -> Tensor:
    """Scale row ``i`` (axis -2) of a (..., C, W) tensor by ``s[i]``."""
    if x.ndim < 2 or s.ndim != 1 or s.shape[0] != x.shape[-2]:
        raise ShapeError(f"rowscale needs (...,C,W) and (C,), got {x.shape} and {s.shape}")
    return mul(x, reshape(s, (s.shape[0], 1)))


def softmax_rows(z: Tensor) -> Tensor:
    """Row-wise softmax of a 2-D tensor; each output row is a probability
    vector (entries in [0,1] summing to 1 up to rounding)."""
    if z.ndim != 2:
        raise ShapeError(f"softmax_rows needs a 2-D tensor, got {z.shape}")
    shifted = z.data - z.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    data = e / e.sum(axis=1, keepdims=True)

    def rule(g):
        inner = (g * data).sum(axis=1, keepdims=True)
        return (data * (g - inner),)

    return _record(data, (z,), rule)


# ---------------------------------------------------------------------------
# gradient checking


def grad_check(f: Callable[[], Tensor], leaves: Sequence[Tensor], h: float = 1e-5) -> float:
    """Worst relative discrepancy between recorded and numerical gradients.

    ``f`` must rebuild its graph from the current leaf values and return a
    scalar tensor.  Each leaf coordinate is perturbed in place by ±h and
    restored; the numerical gradient is the central difference
    (f(x+h) - f(x-h)) / 2h.  Per-coordinate error is |a - n| scaled by
    max(1, |a|, |n|), i.e. absolute for small gradients and relative for
    large ones.  Returns the maximum over all coordinates of all leaves.
    """
    out = f()
    grads = backward(out, leaves=leaves)
    worst = 0.0
    with no_grad():
        for leaf in leaves:
            analytic = grads[leaf].reshape(-1)
            flat = leaf.data.reshape(-1)
            for i in range(flat.size):
                orig = float(flat[i])
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
                flat[i] = orig
                num = (fp - fm) / (2.0 * h)
                a = float(analytic[i])
                err = abs(a - num) / max(1.0, abs(a), abs(num))
                if err > worst:
                    worst = err
    return worst
