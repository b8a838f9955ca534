"""Spans around calls into gcnn's modules, installed from outside ``src/``.

:func:`instrument` replaces the public names that ``cli``, ``training``
and ``layers`` call through (module functions, ``Layer.forward`` of each
class, ``Model.forward``, ``GradTape.from_root``, ``RunConfig.load``)
with wrappers that record one span per call, and restores the originals
on exit.  Backward time is attributed by wrapping the rule of every tape
entry whose result tensor a primitive wrapper produced, keyed on that
tensor's id.  Spans stay in memory until :func:`layer_metrics` reduces
them to the per-layer metric table.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from gcnn import cli
from gcnn import data as D
from gcnn import layers as L
from gcnn import models as M
from gcnn import spectral as S
from gcnn import tensor as T
from gcnn import training as R

import metrics as MX

BWD = ".bwd@"  # rule spans are named "<primitive span>.bwd@<layer class>"


class Tracer:
    """In-memory span store: name, start, end and parent of every span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ix = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.layers: list[str] = []  # classes whose forward is running
        self.counts: dict[str, float] = defaultdict(float)
        self.window_bytes = 0
        self.checkpoints: dict[str, int] = {}

    def open(self, name: str) -> int:
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(math.nan)
        self._open.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        if self._open.pop() != sid:
            raise RuntimeError("spans closed out of order")

    @contextmanager
    def span(self, name: str):
        sid = self.open(name)
        try:
            yield
        finally:
            self.close(sid)

    def __len__(self) -> int:
        return len(self.start)

    def name_of(self, sid: int) -> str:
        return self.names[self.name_ix[sid]]

    def duration(self, sid: int) -> float:
        return self.end[sid] - self.start[sid]


def self_times(start, end, parent) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children may overlap one another (the union is subtracted once) and
    are clipped to their parent's interval.
    """
    kids: dict[int, list[int]] = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            kids[p].append(i)
    out = [end[i] - start[i] for i in range(len(start))]
    for p, children in kids.items():
        intervals = sorted((max(start[c], start[p]), min(end[c], end[p])) for c in children)
        covered = 0.0
        lo, hi = intervals[0]
        for a, b in intervals[1:]:
            if a > hi:
                covered += max(0.0, hi - lo)
                lo, hi = a, b
            else:
                hi = max(hi, b)
        covered += max(0.0, hi - lo)
        out[p] -= covered
    return out


# -- wrappers --------------------------------------------------------------


def _timed(tracer: Tracer, name: str, fn):
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)

    traced.__wrapped__ = fn
    return traced


def _conv_cost(name: str, args, out) -> tuple[int, int]:
    """(flops, bytes read and written) of one forward convolution."""
    x = args[0].shape
    w = args[1].shape
    if name == "conv1d":  # (C,W) * (O,C,kw) + (O,) -> (O,Wout)
        o, c, kw = w
        flops = 2 * o * c * kw * out.shape[1]
        moved = x[0] * x[1] + o * c * kw + o + out.size
    else:  # (C,W) * (kw,) -> (C,Wout)
        flops = 2 * x[0] * w[0] * out.shape[1]
        moved = x[0] * x[1] + w[0] + out.size
    return flops, 8 * moved


def _primitive(tracer: Tracer, name: str, fn, tags: dict):
    span = f"tensor.{name}"
    conv = name in ("conv1d", "channelwise_conv1d")

    def traced(*args, **kwargs):
        sid = tracer.open(span)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if out.requires_grad:
            # only taped results are keyed: they stay alive, so their ids
            # cannot be reused, until the backward pass that clears ``tags``
            tags[id(out)] = f"{span}{BWD}{tracer.layers[-1] if tracer.layers else '-'}"
            if conv:
                flops, moved = _conv_cost(name, args, out)
                tracer.counts["tensor.conv_flops"] += flops
                tracer.counts[f"tensor.{name}.bytes"] += moved
        return out

    traced.__wrapped__ = fn
    return traced


def _layer_forward(tracer: Tracer, cls_name: str, fn):
    span = f"layers.{cls_name}.fwd"

    def forward(self, x):
        sid = tracer.open(span)
        tracer.layers.append(cls_name)
        try:
            return fn(self, x)
        finally:
            tracer.layers.pop()
            tracer.close(sid)

    forward.__wrapped__ = fn
    return forward


def _checkpoint_io(tracer: Tracer, name: str, fn, path_arg: int):
    """Timed checkpoint save/load that also records the file's size."""
    span = f"models.{name}"

    def traced(*args, **kwargs):
        sid = tracer.open(span)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(sid)
            path = os.fspath(args[path_arg])
            if os.path.isfile(path):
                tracer.checkpoints[path] = os.path.getsize(path)

    traced.__wrapped__ = fn
    return traced


def _timed_rule(tracer: Tracer, name: str, rule):
    def timed(g):
        sid = tracer.open(name)
        try:
            return rule(g)
        finally:
            tracer.close(sid)

    return timed


# primitives whose results can land on a tape; add/sub/mul/div go through
# ``elementwise`` and ``relu`` through ``activation``
TAPED_PRIMITIVES = MX.PRIMITIVES + ("neg", "sum_all", "mean_all")


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on gcnn's public names; restore them on exit."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        _install(tracer, patch)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _install(tracer: Tracer, patch) -> None:
    tags: dict[int, str] = {}

    for name in TAPED_PRIMITIVES:
        patch(T, name, _primitive(tracer, name, getattr(T, name), tags))

    orig_from_root = T.GradTape.from_root

    def from_root(cls, root):
        sid = tracer.open("tensor.from_root")
        try:
            tape = orig_from_root(root)
        finally:
            tracer.close(sid)
        tracer.counts["tensor.tape_entries"] += len(tape.entries)
        for entry in tape.entries:
            tag = tags.get(id(entry.result))
            if tag is not None:
                entry.rule = _timed_rule(tracer, tag, entry.rule)
        return tape

    patch(T.GradTape, "from_root", classmethod(from_root))

    orig_backward = T.backward

    def backward(loss, leaves=None):
        sid = tracer.open("tensor.backward")
        try:
            return orig_backward(loss, leaves=leaves)
        finally:
            tracer.close(sid)
            tags.clear()

    patch(T, "backward", backward)

    orig_no_grad = T.no_grad

    @contextmanager
    def no_grad():
        sid = tracer.open("tensor.no_grad")
        try:
            with orig_no_grad():
                yield
        finally:
            tracer.close(sid)

    patch(T, "no_grad", no_grad)

    for cls_name in dir(L):
        cls = getattr(L, cls_name)
        if isinstance(cls, type) and issubclass(cls, L.Layer) and "forward" in cls.__dict__:
            patch(cls, "forward", _layer_forward(tracer, cls_name, cls.__dict__["forward"]))
    patch(M.Model, "forward", _timed(tracer, "models.Model.forward", M.Model.__dict__["forward"]))

    for name in ("load_csv", "repair_gaps", "standardize", "split", "dumps_csv"):
        patch(D, name, _timed(tracer, f"data.{name}", getattr(D, name)))
    orig_windows = D.make_windows

    def make_windows(*args, **kwargs):
        sid = tracer.open("data.make_windows")
        try:
            out = orig_windows(*args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.window_bytes = max(tracer.window_bytes, out.inputs.nbytes)
        return out

    patch(D, "make_windows", make_windows)

    for name in ("similarity_from_series", "sym_eig", "kmeans", "ncut_value"):
        patch(S, name, _timed(tracer, f"spectral.{name}", getattr(S, name)))

    patch(M, "build_model", _timed(tracer, "models.build_model", M.build_model))
    patch(M, "save_checkpoint", _checkpoint_io(tracer, "save_checkpoint", M.save_checkpoint, 1))
    patch(M, "load_checkpoint", _checkpoint_io(tracer, "load_checkpoint", M.load_checkpoint, 0))

    patch(R, "train", _timed(tracer, "training.train", R.train))
    patch(R, "evaluate", _timed(tracer, "training.evaluate", R.evaluate))

    # the bound classmethod already carries the class
    patch(cli.RunConfig, "load", staticmethod(_timed(tracer, "cli.config", cli.RunConfig.load)))


# -- reduction to metrics ----------------------------------------------------


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric in :data:`metrics.PER_LAYER` except the
    tracing overhead, which the caller measures; absent work reads 0."""
    n = len(tracer)
    own = self_times(tracer.start, tracer.end, tracer.parent)
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_total: dict[str, float] = defaultdict(float)
    train_kids: dict[str, float] = defaultdict(float)
    steps = 0
    for sid in range(n):
        name = tracer.name_of(sid)
        d = tracer.duration(sid)
        total[name] += d
        calls[name] += 1
        self_total[name] += own[sid]
        p = tracer.parent[sid]
        if p >= 0 and tracer.name_of(p) == "training.train":
            if name == "tensor.backward":
                steps += 1
                train_kids["backward"] += d
            elif name == "tensor.no_grad":
                train_kids["validate"] += d
            else:
                train_kids["forward"] += d

    bwd_by_prim: dict[str, float] = defaultdict(float)
    bwd_by_layer: dict[str, float] = defaultdict(float)
    for name, d in total.items():
        if BWD in name:
            prim, layer = name.split(BWD)
            bwd_by_prim[prim] += d
            bwd_by_layer[layer] += d

    out: dict[str, float] = {}
    for prim in MX.PRIMITIVES:
        span = f"tensor.{prim}"
        out[f"{span}.fwd_s"] = total[span]
        out[f"{span}.bwd_s"] = bwd_by_prim[span]
        out[f"{span}.calls"] = calls[span]
    per_step = max(steps, 1)
    out["tensor.tape_entries"] = tracer.counts["tensor.tape_entries"] / per_step
    out["tensor.tape_build_s"] = total["tensor.from_root"]
    out["tensor.backward_s"] = total["tensor.backward"]
    out["tensor.conv_flops"] = tracer.counts["tensor.conv_flops"] / per_step
    out["tensor.conv1d.bytes"] = tracer.counts["tensor.conv1d.bytes"] / per_step
    out["tensor.channelwise_conv1d.bytes"] = tracer.counts["tensor.channelwise_conv1d.bytes"] / per_step
    for cls in MX.LAYER_CLASSES:
        out[f"layers.{cls}.fwd_s"] = total[f"layers.{cls}.fwd"]
        out[f"layers.{cls}.bwd_s"] = bwd_by_layer[cls]
    out["models.save_checkpoint_s"] = total["models.save_checkpoint"]
    out["models.load_checkpoint_s"] = total["models.load_checkpoint"]
    out["models.checkpoint_bytes"] = sum(tracer.checkpoints.values())
    out["models.build_model_s"] = total["models.build_model"]
    out["models.forward_s"] = total["models.Model.forward"]
    out["training.forward_s"] = train_kids["forward"]
    out["training.backward_s"] = train_kids["backward"]
    out["training.update_s"] = self_total["training.train"]
    out["training.validate_s"] = train_kids["validate"]
    out["training.steps"] = steps
    out["training.evaluate_s"] = total["training.evaluate"]
    out["spectral.similarity_s"] = total["spectral.similarity_from_series"]
    out["spectral.sym_eig_s"] = total["spectral.sym_eig"]
    out["spectral.kmeans_s"] = total["spectral.kmeans"]
    out["spectral.ncut_s"] = total["spectral.ncut_value"]
    for name in ("load_csv", "repair_gaps", "standardize", "make_windows", "split", "dumps_csv"):
        out[f"data.{name}_s"] = total[f"data.{name}"]
    out["data.window_bytes"] = tracer.window_bytes
    out["cli.config_s"] = total["cli.config"]
    for cmd in MX.CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = self_total[f"cli.{cmd}"]
    return out
