"""Model assembly: declarative specs, the builder, parameter counting and
checkpoint serialization.

A :class:`ModelSpec` describes the whole stack (conv stages, pooling
placements, grouping mode, dense head); :func:`build_model` turns it into
a runnable :class:`Model`.  Builds are pure functions of
(spec, assignment, seed): the same inputs give bit-identical parameters.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import ConfigError, NumericalError, ShapeError
from .layers import (
    ClusteringCoeffLayer,
    Conv1DLayer,
    ConvGroup,
    DenseLayer,
    FlattenLayer,
    GroupedConv1DLayer,
    Layer,
    MaxPool1DLayer,
    RecurrentConvLayer,
)
from .tensor import Tensor

__all__ = [
    "ModelSpec",
    "Model",
    "build_model",
    "count_params",
    "preset",
    "PRESETS",
    "save_checkpoint",
    "load_checkpoint",
    "CHECKPOINT_FORMAT",
]

CHECKPOINT_FORMAT = "gcnn.checkpoint/3"

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
    """

    input_channels: int
    input_width: int
    grouping: str = "none"
    groups: int = 1
    stage_channels: tuple[int, ...] = (500, 500, 500, 500)
    kernel_width: int = 3
    pool_window: int = 4
    pool_stride: int = 4
    pool_before: tuple[int, ...] = (2, 3, 4)
    dense_units: tuple[int, ...] = (100, 1)
    recurrent: bool = False
    iterations: int = 2
    hidden_activation: str = "relu"
    output_activation: str = "linear"

    def __post_init__(self):
        # tolerate lists from YAML/JSON round-trips
        object.__setattr__(self, "stage_channels", tuple(int(c) for c in self.stage_channels))
        object.__setattr__(self, "pool_before", tuple(int(s) for s in self.pool_before))
        object.__setattr__(self, "dense_units", tuple(int(u) for u in self.dense_units))

    def validate(self) -> None:
        if self.input_channels < 1 or self.input_width < 1:
            raise ConfigError(f"input geometry must be positive, got {self.input_channels}x{self.input_width}")
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
        # geometry must stay wide enough for every pool window
        width = self.input_width
        for s in range(1, len(self.stage_channels) + 1):
            if s in self.pool_before:
                if width < self.pool_window:
                    raise ConfigError(f"width {width} too small for pool window {self.pool_window}")
                width = (width - self.pool_window) // self.pool_stride + 1

    def layer_widths(self) -> list[int]:
        """Signal width entering each conv stage, then after the last."""
        widths = []
        width = self.input_width
        for s in range(1, len(self.stage_channels) + 1):
            if s in self.pool_before:
                width = (width - self.pool_window) // self.pool_stride + 1
            widths.append(width)
        return widths

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown model spec keys: {sorted(extra)}")
        return cls(**d)


class Model:
    """A runnable layer stack plus the spec and seed that produced it."""

    def __init__(self, spec: ModelSpec, layers: list[Layer], assignment: list[int] | None, seed: int):
        self.spec = spec
        self.layers = layers
        self.assignment = assignment
        self.seed = seed

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


def _assignment_member_lists(assignment: list[int], k: int) -> list[list[int]]:
    """1-based group labels per channel -> ordered 0-based member lists."""
    lists: list[list[int]] = [[] for _ in range(k)]
    for ch, label in enumerate(assignment):
        if not 1 <= label <= k:
            raise ConfigError(f"assignment label {label} outside 1..{k}")
        lists[label - 1].append(ch)
    for g, members in enumerate(lists):
        if not members:
            raise ConfigError(f"group {g + 1} has no member channels")
    return lists


def _contiguous_member_lists(n_groups: int, per_group: int) -> list[list[int]]:
    return [list(range(g * per_group, (g + 1) * per_group)) for g in range(n_groups)]


def _recurrent_stage(cin: int, cout: int, spec: ModelSpec, rng: np.random.Generator) -> list[Layer]:
    """Recurrent conv stage; lift channels first when cin != cout."""
    rcl = RecurrentConvLayer(
        Conv1DLayer(cout, cout, spec.kernel_width, spec.hidden_activation, "same", rng),
        spec.iterations,
    )
    if cin == cout:
        return [rcl]
    return [Conv1DLayer(cin, cout, spec.kernel_width, spec.hidden_activation, "same", rng), rcl]


def _grouped_recurrent_stage(
    cin: int, member_lists: list[list[int]], per_group: int, spec: ModelSpec, rng: np.random.Generator
) -> list[Layer]:
    """Grouped lift (only for groups not already ``per_group`` wide, and
    none when the input is already in place) then the recurrence over
    contiguous ``per_group`` blocks.  Each group draws its inner kernels,
    then its lift kernels, before the next group."""
    inner, lift = [], []
    for g, members in enumerate(member_lists):
        block = range(g * per_group, (g + 1) * per_group)
        inner.append(ConvGroup.create(rng, block, per_group, spec.kernel_width))
        if len(members) == per_group:
            lift.append(ConvGroup(tuple(members), None, None))
        else:
            lift.append(ConvGroup.create(rng, members, per_group, spec.kernel_width))
    act = spec.hidden_activation
    rcl = RecurrentConvLayer(GroupedConv1DLayer(len(inner) * per_group, inner, act, "same"), spec.iterations)
    if member_lists == _contiguous_member_lists(len(member_lists), per_group):
        return [rcl]
    return [GroupedConv1DLayer(cin, lift, act, "same"), rcl]


def build_model(spec: ModelSpec, assignment: list[int] | None = None, seed: int = 0) -> Model:
    """Assemble an initialized model from a validated spec.

    ``assignment`` (1-based group label per input channel) is required
    for explicit grouping and rejected otherwise.
    """
    spec.validate()
    if spec.grouping == "explicit":
        if assignment is None:
            raise ConfigError("explicit grouping requires a group assignment")
        if len(assignment) != spec.input_channels:
            raise ConfigError(
                f"assignment covers {len(assignment)} channels, model expects {spec.input_channels}"
            )
    elif assignment is not None:
        raise ConfigError(f"grouping mode {spec.grouping!r} does not take an assignment")

    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    n_stages = len(spec.stage_channels)

    if spec.grouping == "none":
        cin = spec.input_channels
        for s, ch in enumerate(spec.stage_channels, start=1):
            if s in spec.pool_before:
                layers.append(MaxPool1DLayer(spec.pool_window, spec.pool_stride))
            if spec.recurrent and s < n_stages:
                layers += _recurrent_stage(cin, ch, spec, rng)
            else:
                layers.append(Conv1DLayer(cin, ch, spec.kernel_width, spec.hidden_activation, "same", rng))
            cin = ch
    else:
        k = spec.groups
        if spec.grouping == "coeff":
            layers.append(
                ClusteringCoeffLayer(
                    spec.input_channels, k, spec.kernel_width, spec.hidden_activation, "same", rng
                )
            )
            member_lists = _contiguous_member_lists(k, spec.input_channels)
            cin = k * spec.input_channels
        else:
            member_lists = _assignment_member_lists(list(assignment), k)
            cin = spec.input_channels
        for s, ch in enumerate(spec.stage_channels, start=1):
            per_group = ch // k
            if s in spec.pool_before:
                layers.append(MaxPool1DLayer(spec.pool_window, spec.pool_stride))
            if spec.recurrent and s < n_stages:
                layers += _grouped_recurrent_stage(cin, member_lists, per_group, spec, rng)
            else:
                layers.append(
                    GroupedConv1DLayer.create(
                        cin, member_lists, per_group, spec.kernel_width,
                        spec.hidden_activation, "same", rng,
                    )
                )
            member_lists = _contiguous_member_lists(k, per_group)
            cin = ch

    final_width = spec.layer_widths()[-1]
    layers.append(FlattenLayer())
    features = spec.stage_channels[-1] * final_width
    for i, units in enumerate(spec.dense_units):
        last = i == len(spec.dense_units) - 1
        act = spec.output_activation if last else spec.hidden_activation
        layers.append(DenseLayer(features, units, act, rng))
        features = units

    return Model(spec, layers, list(assignment) if assignment is not None else None, seed)


def count_params(model: Model) -> int:
    """Exact number of trainable scalars, biases and logits included."""
    return sum(t.size for _, t in model.named_params())


PRESETS: dict[str, ModelSpec] = {}


def _register_presets() -> None:
    water = dict(input_channels=87, input_width=64, stage_channels=(500,) * 4, dense_units=(100, 1))
    drone = dict(input_channels=147, input_width=64, stage_channels=(750,) * 4, dense_units=(200, 1))
    for name, base, k in (("water", water, 5), ("drone", drone, 15)):
        for arch, recurrent in (("cnn", False), ("rcnn", True)):
            stem = f"{name}-{arch}"
            PRESETS[stem] = ModelSpec(**base, recurrent=recurrent)
            PRESETS[f"{stem}-grouped"] = ModelSpec(**base, recurrent=recurrent, grouping="explicit", groups=k)
            PRESETS[f"{stem}-coeff"] = ModelSpec(**base, recurrent=recurrent, grouping="coeff", groups=k)


_register_presets()


def preset(name: str, **overrides) -> ModelSpec:
    """Named architecture, optionally with field overrides."""
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    spec = PRESETS[name]
    return replace(spec, **overrides) if overrides else spec


def save_checkpoint(model: Model, path: str | Path, meta: dict | None = None) -> None:
    """Write the model (spec echo, seed, all parameters) as JSON.

    Values are serialized row-major through repr, which round-trips
    fp64 exactly, so save/load/save is byte-stable.  ``meta`` is an
    optional provenance block stored verbatim and ignored on load.
    """
    doc = {
        "format": CHECKPOINT_FORMAT,
        "spec": model.spec.to_dict(),
        "seed": model.seed,
        "assignment": model.assignment,
        "params": [
            {"name": name, "shape": list(t.shape), "values": t.data.reshape(-1).tolist()}
            for name, t in model.named_params()
        ],
    }
    if meta:
        doc["meta"] = meta
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild a model from a checkpoint written by :func:`save_checkpoint`."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"checkpoint is not valid JSON: {e}") from e
    if doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {doc.get('format')!r}")
    spec = ModelSpec.from_dict(doc["spec"])
    model = build_model(spec, doc.get("assignment"), seed=doc.get("seed", 0))
    stored = {p["name"]: p for p in doc["params"]}
    for name, t in model.named_params():
        if name not in stored:
            raise ConfigError(f"checkpoint is missing parameter {name!r}")
        entry = stored.pop(name)
        if tuple(entry["shape"]) != t.shape:
            raise ShapeError(f"parameter {name!r} shape {entry['shape']} does not match {t.shape}")
        values = np.array(entry["values"], dtype=np.float64).reshape(t.shape)
        if not np.isfinite(values).all():
            raise NumericalError(f"checkpoint parameter {name!r} holds non-finite values")
        t.data = values
    if stored:
        raise ConfigError(f"checkpoint has unknown parameters: {sorted(stored)}")
    return model
