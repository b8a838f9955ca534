"""Model assembly: declarative specs, the builder, parameter counting and
checkpoint serialization.

A :class:`ModelSpec` describes the whole stack (conv stages, pooling
placements, grouping mode, dense head); :func:`build_model` turns it into
a runnable :class:`Model`.  Builds are pure functions of
(spec, assignment, seed): the same inputs give bit-identical parameters.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericalError, ShapeError
from .layers import (
    ClusteringCoeffLayer,
    Conv1DLayer,
    DenseLayer,
    FlattenLayer,
    GroupedConv1DLayer,
    Layer,
    MaxPool1DLayer,
    Record,
    RecurrentConvLayer,
    conv_params,
    draw,
)
from .tensor import Tensor

__all__ = [
    "ModelSpec",
    "Model",
    "assemble",
    "build_model",
    "count_params",
    "preset",
    "PRESETS",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
]

CHECKPOINT_FORMAT = "gcnn.checkpoint/5"

GROUPING_MODES = ("none", "explicit", "coeff")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one network.

    ``stage_channels`` are total output channels per conv stage (split
    evenly across groups in grouped modes).  ``pool_before`` lists
    1-based stage indices preceded by a pooling layer.  In recurrent
    mode every stage except the last is an unrolled recurrent conv;
    stages whose input channel count differs from their output are
    realized as a width-preserving lift convolution followed by the
    recurrent block (the recursion's skip sum needs matching channels).
    In grouped modes the lift and the recurrence are grouped too, and a
    group whose input is already as wide as its output gets no lift.

    The fields and defaults are also the config file's ``model`` section;
    the defaults are desk-scale, so a bare config trains in minutes.  A
    spec is checked when it is made: an invalid one raises ConfigError.
    """

    input_channels: int
    input_width: int
    grouping: str = "none"
    groups: int = 1
    stage_channels: tuple[int, ...] = (32, 32)
    kernel_width: int = 3
    pool_window: int = 4
    pool_stride: int = 4
    pool_before: tuple[int, ...] = ()
    dense_units: tuple[int, ...] = (16, 1)
    recurrent: bool = False
    iterations: int = 2
    hidden_activation: str = "relu"
    output_activation: str = "linear"

    def __post_init__(self):
        # tolerate lists from YAML/JSON round-trips
        object.__setattr__(self, "stage_channels", tuple(int(c) for c in self.stage_channels))
        object.__setattr__(self, "pool_before", tuple(int(s) for s in self.pool_before))
        object.__setattr__(self, "dense_units", tuple(int(u) for u in self.dense_units))
        if self.input_channels < 1:
            raise ConfigError(f"input channels must be >= 1, got {self.input_channels}")
        if self.input_width < 1:
            raise ConfigError(f"input width must be >= 1, got {self.input_width}")
        if self.grouping not in GROUPING_MODES:
            raise ConfigError(f"grouping must be one of {GROUPING_MODES}, got {self.grouping!r}")
        if self.groups < 1:
            raise ConfigError(f"groups must be >= 1, got {self.groups}")
        if self.grouping == "none" and self.groups != 1:
            raise ConfigError("ungrouped spec must declare groups=1")
        if not self.stage_channels:
            raise ConfigError("need at least one conv stage")
        if min(self.stage_channels) < 1:
            raise ConfigError(f"stage channels must be >= 1, got {list(self.stage_channels)}")
        if self.grouping != "none":
            for ch in self.stage_channels:
                if ch % self.groups != 0:
                    raise ConfigError(f"stage channels {ch} not divisible into {self.groups} groups")
            if self.grouping == "explicit" and self.groups > self.input_channels:
                raise ConfigError("more groups than input channels")
        if self.kernel_width < 1:
            raise ConfigError(f"kernel width must be >= 1, got {self.kernel_width}")
        if self.pool_window < 1 or self.pool_stride < 1:
            raise ConfigError(f"pool window and stride must be >= 1, got {self.pool_window} and {self.pool_stride}")
        if any(s < 1 or s > len(self.stage_channels) for s in self.pool_before):
            raise ConfigError(f"pool placements {self.pool_before} outside stage range")
        if len(set(self.pool_before)) != len(self.pool_before):
            raise ConfigError("duplicate pool placement")
        if not self.dense_units:
            raise ConfigError("need at least one dense unit count")
        if min(self.dense_units) < 1:
            raise ConfigError(f"dense units must be >= 1, got {list(self.dense_units)}")
        if self.recurrent and self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.hidden_activation not in T.ACTIVATION_KINDS:
            raise ConfigError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in T.ACTIVATION_KINDS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        self.layer_widths()  # every pool must fit the width it meets

    def layer_widths(self) -> list[int]:
        """Signal width entering each conv stage, after its pool if it has
        one; a pool wider than the signal it meets raises ConfigError."""
        widths = []
        width = self.input_width
        for s in range(1, len(self.stage_channels) + 1):
            if s in self.pool_before:
                if width < self.pool_window:
                    raise ConfigError(f"width {width} too small for pool window {self.pool_window}")
                width = (width - self.pool_window) // self.pool_stride + 1
            widths.append(width)
        return widths

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        if not isinstance(d, dict):
            raise ConfigError(f"model spec must be a mapping, got {type(d).__name__}")
        types = {f.name: f.type for f in fields(cls)}
        extra = set(d) - set(types)
        if extra:
            raise ConfigError(f"unknown model spec keys: {sorted(extra)}")
        missing = [f.name for f in fields(cls) if f.name not in d and f.default is MISSING]
        if missing:
            raise ConfigError(f"model spec lacks required keys: {missing}")
        return cls(**{k: check_setting(f"spec.{k}", v, types[k]) for k, v in d.items()})


_EXPECTED = {"int": "an integer", "float": "a number", "str": "a non-empty string", "bool": "true or false"}


def check_setting(path: str, value, annotation: str):
    """``value`` checked against a dataclass field annotation, or a
    ConfigError naming ``path``.

    ``X | None`` admits None.  ``float`` takes integers, and strings
    YAML 1.1 leaves unparsed (bare exponents like ``1e-3``), and returns
    a float.  ``tuple[int, ...]`` takes a list or tuple of integers and
    returns a list.  bool is never an integer.
    """
    if annotation.endswith(" | None"):
        if value is None:
            return None
        annotation = annotation.removesuffix(" | None")
    if annotation == "tuple[int, ...]":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list of integers, got {type(value).__name__}")
        return [check_setting(f"{path}[{i}]", v, "int") for i, v in enumerate(value)]
    if annotation == "float" and isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            raise ConfigError(f"{path}: expected a number, got {value!r}") from None
    kinds = {"int": int, "float": (int, float), "str": str, "bool": bool}[annotation]
    if isinstance(value, bool) != (annotation == "bool") or not isinstance(value, kinds) or value == "":
        raise ConfigError(f"{path}: expected {_EXPECTED[annotation]}, got {value!r}")
    return float(value) if annotation == "float" else value


class Model:
    """A runnable layer stack plus the spec and seed that produced it.

    ``vector`` is one contiguous float64 array that holds every parameter,
    in :meth:`named_params` order, and each parameter is a view into it.
    A model is made unfilled: its vector is a :class:`tensor.Unfilled`,
    which counts but holds nothing, until :meth:`bind` allocates it.
    """

    def __init__(self, spec: ModelSpec, layers: list[Layer], assignment: list[int] | None, seed: int):
        self.spec = spec
        self.layers = layers
        self.assignment = assignment
        self.seed = seed
        self._spans, start = [], 0  # (start, stop, shape) of each parameter in the vector
        for _, t in self.named_params():
            self._spans.append((start, start + t.size, t.shape))
            start += t.size
        self.vector = T.Unfilled((start,))

    def bind(self) -> None:
        """Allocate the vector, zeroed, and give each parameter, still
        unfilled, its view of it as its values."""
        if isinstance(self.vector, np.ndarray):
            raise ValueError("the model's parameters are already bound")
        self.vector = np.zeros(self.vector.size)
        for (_, t), view in zip(self.named_params(), self.param_views(self.vector)):
            t.data = view

    def forward(self, x: Tensor) -> Tensor:
        """(B, C, W) windows to (1, B) predictions; one (C, W) window gives (1, 1)."""
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def named_params(self) -> list[tuple[str, Tensor]]:
        out = []
        for i, layer in enumerate(self.layers):
            for name, t in layer.named_params():
                out.append((f"L{i:02d}.{name}", t))
        return out

    def param_views(self, flat: np.ndarray) -> list[np.ndarray]:
        """``flat``, laid out like ``vector``, as one view per parameter,
        shaped like it, in :meth:`named_params` order."""
        return [flat[start:stop].reshape(shape) for start, stop, shape in self._spans]

    def coeff_layer(self) -> ClusteringCoeffLayer | None:
        for layer in self.layers:
            if isinstance(layer, ClusteringCoeffLayer):
                return layer
        return None

    def coefficients(self) -> np.ndarray | None:
        """Current membership matrix of the coeff layer, if any."""
        layer = self.coeff_layer()
        if layer is None:
            return None
        with T.no_grad():
            return layer.coefficients().data.copy()


def _recurrent_stage(cin: int, cout: int, spec: ModelSpec, record: Record) -> list[Layer]:
    """Recurrent conv stage; lift channels first when cin != cout."""
    rcl = RecurrentConvLayer(
        Conv1DLayer(cout, cout, spec.kernel_width, spec.hidden_activation, record=record),
        spec.iterations,
    )
    if cin == cout:
        return [rcl]
    return [Conv1DLayer(cin, cout, spec.kernel_width, spec.hidden_activation, record=record), rcl]


def _grouped_recurrent_stage(labels: np.ndarray, per_group: int, spec: ModelSpec, record: Record) -> list[Layer]:
    """Grouped lift (only for groups not already ``per_group`` wide, and
    none when the input is already in place) then the recurrence over
    contiguous ``per_group`` blocks.  Each group makes, so draws, its
    inner kernels, then its lift kernels (the lift layer comes first)."""
    inner, lift = [], []
    for size in np.bincount(labels):
        inner.append(conv_params(record, per_group, per_group, spec.kernel_width))
        lift.append((None, None) if size == per_group else conv_params(record, per_group, int(size), spec.kernel_width))
    blocks = np.repeat(np.arange(len(inner)), per_group)
    act = spec.hidden_activation
    rcl = RecurrentConvLayer(GroupedConv1DLayer(blocks, *zip(*inner), act), spec.iterations)
    if np.array_equal(labels, blocks):
        return [rcl]
    return [GroupedConv1DLayer(labels, *zip(*lift), act), rcl]


def _labels(assignment: Sequence[int] | np.ndarray | None, spec: ModelSpec) -> np.ndarray:
    """The 0-based group of each input channel, from an explicit 1-based
    ``assignment``; ConfigError unless it gives every channel an integer
    label in 1..groups and every group a member."""
    if assignment is None:
        raise ConfigError("explicit grouping requires a group assignment")
    if len(assignment) != spec.input_channels:
        raise ConfigError(f"assignment covers {len(assignment)} channels, model expects {spec.input_channels}")
    labels = np.asarray(assignment)
    dtype = labels.dtype
    if not isinstance(assignment, np.ndarray) and any(isinstance(v, (bool, np.bool_)) for v in assignment):
        dtype = np.dtype(bool)  # a list that mixes bools with ints converts to ints
    if labels.ndim != 1 or dtype.kind not in "iu":
        raise ConfigError(f"assignment labels must be integers, got {dtype} labels of shape {labels.shape}")
    k = spec.groups
    bad = labels[(labels < 1) | (labels > k)]
    if bad.size:
        raise ConfigError(f"assignment label {bad[0]} outside 1..{k}")
    labels = labels.astype(np.intp) - 1
    sizes = np.bincount(labels, minlength=k)
    if not sizes.all():
        raise ConfigError(f"group {np.argmin(sizes) + 1} has no member channels")
    return labels


def build_model(spec: ModelSpec, assignment: Sequence[int] | np.ndarray | None = None, seed: int = 0) -> Model:
    """An initialized model: assembled, bound, then each parameter drawn
    straight into its view, in the order the layers made them.

    ``assignment`` (1-based integer group label per input channel, a list
    or an array) is required for explicit grouping and rejected otherwise.
    """
    record: Record = []
    model = assemble(spec, assignment, seed, record)
    model.bind()
    draw(record, np.random.default_rng(seed))
    return model


def assemble(spec: ModelSpec, assignment: Sequence[int] | np.ndarray | None = None, seed: int = 0,
             record: Record | None = None) -> Model:
    """The one model builder: the layers of ``spec``, their parameters
    shaped but unfilled, so the model counts but holds no vector until
    :meth:`Model.bind`.  Each parameter and its init bound go on
    ``record``, when given, in the order the layers make them."""
    record = [] if record is None else record
    if spec.grouping == "explicit":
        labels = _labels(assignment, spec)
        assignment = (labels + 1).tolist()
    elif assignment is not None:
        raise ConfigError(f"grouping mode {spec.grouping!r} does not take an assignment")

    layers: list[Layer] = []
    n_stages = len(spec.stage_channels)

    if spec.grouping == "none":
        cin = spec.input_channels
        for s, ch in enumerate(spec.stage_channels, start=1):
            if s in spec.pool_before:
                layers.append(MaxPool1DLayer(spec.pool_window, spec.pool_stride))
            if spec.recurrent and s < n_stages:
                layers += _recurrent_stage(cin, ch, spec, record)
            else:
                layers.append(Conv1DLayer(cin, ch, spec.kernel_width, spec.hidden_activation, record=record))
            cin = ch
    else:
        k = spec.groups
        if spec.grouping == "coeff":
            layers.append(
                ClusteringCoeffLayer(spec.input_channels, k, spec.kernel_width, spec.hidden_activation, record=record)
            )
            labels = np.repeat(np.arange(k), spec.input_channels)
        for s, ch in enumerate(spec.stage_channels, start=1):
            per_group = ch // k
            if s in spec.pool_before:
                layers.append(MaxPool1DLayer(spec.pool_window, spec.pool_stride))
            if spec.recurrent and s < n_stages:
                layers += _grouped_recurrent_stage(labels, per_group, spec, record)
            else:
                layers.append(GroupedConv1DLayer.create(labels, per_group, spec.kernel_width, spec.hidden_activation,
                                                        record=record))
            labels = np.repeat(np.arange(k), per_group)

    final_width = spec.layer_widths()[-1]
    layers.append(FlattenLayer())
    features = spec.stage_channels[-1] * final_width
    for i, units in enumerate(spec.dense_units):
        last = i == len(spec.dense_units) - 1
        act = spec.output_activation if last else spec.hidden_activation
        layers.append(DenseLayer(features, units, act, record=record))
        features = units

    return Model(spec, layers, assignment, seed)


def count_params(model: Model) -> int:
    """Exact number of trainable scalars, biases and logits included."""
    return model.vector.size


PRESETS: dict[str, ModelSpec] = {}


def _register_presets() -> None:
    water = dict(input_channels=87, input_width=64, stage_channels=(500,) * 4, pool_before=(2, 3, 4),
                 dense_units=(100, 1))
    drone = dict(input_channels=147, input_width=64, stage_channels=(750,) * 4, pool_before=(2, 3, 4),
                 dense_units=(200, 1))
    for name, base, k in (("water", water, 5), ("drone", drone, 15)):
        for arch, recurrent in (("cnn", False), ("rcnn", True)):
            stem = f"{name}-{arch}"
            PRESETS[stem] = ModelSpec(**base, recurrent=recurrent)
            PRESETS[f"{stem}-grouped"] = ModelSpec(**base, recurrent=recurrent, grouping="explicit", groups=k)
            PRESETS[f"{stem}-coeff"] = ModelSpec(**base, recurrent=recurrent, grouping="coeff", groups=k)


_register_presets()


def preset(name: str) -> ModelSpec:
    """Named architecture."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    return PRESETS[name]


def save_checkpoint(model: Model, path: str | Path, meta: dict | None = None) -> None:
    """Write the model as one file: a JSON header line, then the raw
    parameter bytes.

    The header holds the spec echo, seed, assignment and one
    ``{"name", "shape"}`` entry per parameter.  After its newline come the
    row-major little-endian float64 bytes of every parameter, back to back
    in header order: the model's parameter vector, written at once.  So a
    load restores every bit and save/load/save is byte-stable.  ``meta`` is
    an optional provenance block stored verbatim and ignored on load.
    """
    params = model.named_params()
    header = {
        "format": CHECKPOINT_FORMAT,
        "spec": model.spec.to_dict(),
        "seed": model.seed,
        "assignment": model.assignment,
        "params": [{"name": name, "shape": list(t.shape)} for name, t in params],
    }
    if meta:
        header["meta"] = meta
    with open(path, "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("ascii") + b"\n")
        f.write(np.ascontiguousarray(model.vector, dtype="<f8"))


def _is_count(v) -> bool:
    return type(v) is int and v >= 0


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint written by :func:`save_checkpoint`.

    The header is checked and the body's length is checked against the
    file size before any value is read.  The model is assembled unfilled,
    and each of its parameters is found by name in the header and its
    shape checked, before its parameter vector is allocated.  Then the
    model is bound to its vector, as a build is, and each parameter's
    bytes are read, at the place the shapes before it give, straight into
    its own view of the vector, and checked to be finite.
    """
    with open(path, "rb") as f:
        head = f.readline()
        try:
            doc = json.loads(head)
        except ValueError as e:  # not JSON, or not even text
            raise ConfigError(f"checkpoint header line is not valid JSON ({CHECKPOINT_FORMAT} expected): {e}") from e
        if not isinstance(doc, dict):
            raise ConfigError(f"checkpoint must be a JSON object, got {type(doc).__name__}")
        if doc.get("format") != CHECKPOINT_FORMAT:
            raise ConfigError(f"unsupported checkpoint format {doc.get('format')!r}, expected {CHECKPOINT_FORMAT!r}")
        for key in ("spec", "seed", "assignment", "params"):
            if key not in doc:
                raise ConfigError(f"checkpoint has no {key!r} key")
        seed, assignment, params = doc["seed"], doc["assignment"], doc["params"]
        if not _is_count(seed):
            raise ConfigError(f"checkpoint seed must be a non-negative integer, got {seed!r}")
        if assignment is not None and not (isinstance(assignment, list) and all(map(_is_count, assignment))):
            raise ConfigError("checkpoint assignment must be a list of integer labels")
        if not isinstance(params, list):
            raise ConfigError(f"checkpoint params must be a list, got {type(params).__name__}")
        stored: dict[str, tuple[tuple[int, ...], int]] = {}  # name -> (shape, body offset)
        offset = 0
        for entry in params:
            if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
                raise ConfigError("every checkpoint parameter needs a string 'name'")
            name, shape = entry["name"], entry.get("shape")
            if name in stored:
                raise ConfigError(f"checkpoint parameter {name!r} appears twice")
            if not (isinstance(shape, list) and all(map(_is_count, shape))):
                raise ConfigError(f"checkpoint parameter {name!r} shape must be a list of non-negative integers")
            stored[name] = (tuple(shape), offset)
            offset += 8 * math.prod(shape)
        body = os.fstat(f.fileno()).st_size - len(head)
        if body != offset:
            raise ShapeError(f"checkpoint body holds {body} bytes, its parameter shapes need {offset}")
        model = assemble(ModelSpec.from_dict(doc["spec"]), assignment, seed)
        starts = []
        for name, t in model.named_params():
            if name not in stored:
                raise ConfigError(f"checkpoint is missing parameter {name!r}")
            shape, start = stored.pop(name)
            if shape != t.shape:
                raise ShapeError(f"parameter {name!r} shape {list(shape)} does not match {t.shape}")
            starts.append(start)
        if stored:
            raise ConfigError(f"checkpoint has unknown parameters: {sorted(stored)}")
        # every shape the spec implies is one the body holds, so the vector
        # is no larger than the file
        model.bind()
        swap = not np.dtype("<f8").isnative
        for (name, t), start in zip(model.named_params(), starts):
            values = t.data
            f.seek(len(head) + start)
            if f.readinto(values) != values.nbytes:
                raise ShapeError(f"checkpoint ended inside parameter {name!r}")
            if swap:
                values.byteswap(inplace=True)
            if not np.isfinite(values).all():
                raise NumericalError(f"checkpoint parameter {name!r} holds non-finite values")
    return model
