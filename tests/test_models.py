"""Model assembly: preset geometries, parameter counts, grouping
degeneracies, and checkpoint round-trips."""

import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gcnn import cli
from gcnn import models as M
from gcnn.data import WindowedRegressionSet
from gcnn.errors import ConfigError, NumericalError, ShapeError
from gcnn.layers import (
    ClusteringCoeffLayer,
    Conv1DLayer,
    DenseLayer,
    FlattenLayer,
    MaxPool1DLayer,
    RecurrentConvLayer,
)
from gcnn.models import (
    ModelSpec,
    check_setting,
    build_model,
    count_params,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from gcnn.tensor import Tensor, Unfilled
from gcnn.training import TrainConfig, train

SMALL = ModelSpec(
    input_channels=6,
    input_width=8,
    stage_channels=(8, 8),
    pool_before=(2,),
    pool_window=2,
    pool_stride=2,
    dense_units=(4, 1),
)


def balanced_assignment(n, k):
    """Round-robin 1-based labels: 1,2,...,k,1,2,..."""
    return [(i % k) + 1 for i in range(n)]


# parameter totals of every preset, explicit ones on round-robin groups
PRESET_COUNTS = {
    "water-cnn": 2432701, "water-cnn-grouped": 528301, "water-cnn-coeff": 633156,
    "water-rcnn": 3183201, "water-rcnn-grouped": 678801, "water-rcnn-coeff": 783656,
    "drone-cnn": 5546651, "drone-cnn-grouped": 512951, "drone-cnn-coeff": 823916,
    "drone-rcnn": 7234901, "drone-rcnn-grouped": 626201, "drone-rcnn-coeff": 937166,
}


class TestSpecValidation:
    def test_ungrouped_must_have_one_group(self):
        with pytest.raises(ConfigError):
            ModelSpec(input_channels=4, input_width=8, groups=3)

    def test_channels_must_divide(self):
        with pytest.raises(ConfigError, match="divisible"):
            ModelSpec(input_channels=4, input_width=8, grouping="explicit", groups=3,
                      stage_channels=(10, 10), pool_before=(2,), pool_window=2, pool_stride=2)

    def test_pool_out_of_range(self):
        with pytest.raises(ConfigError):
            ModelSpec(input_channels=4, input_width=8, stage_channels=(8,), pool_before=(3,))

    def test_width_exhaustion(self):
        with pytest.raises(ConfigError, match="too small"):
            ModelSpec(input_channels=4, input_width=4, stage_channels=(8, 8, 8),
                      pool_before=(2, 3), pool_window=4, pool_stride=4)

    @pytest.mark.parametrize("channels, width, message", [
        (0, 8, "input channels must be >= 1, got 0"), (4, 0, "input width must be >= 1, got 0")])
    def test_input_geometry_must_be_positive(self, channels, width, message):
        with pytest.raises(ConfigError, match=message):
            ModelSpec(input_channels=channels, input_width=width)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ModelSpec.from_dict({"input_channels": 4, "input_width": 8, "bogus": 1})

    def test_roundtrip_through_dict(self):
        spec = preset("water-cnn-grouped")
        assert ModelSpec.from_dict(spec.to_dict()) == spec


class TestPresetGeometry:
    def test_water_vanilla_widths_and_channels(self):
        spec = preset("water-cnn")
        assert spec.layer_widths() == [64, 16, 4, 1]
        assert spec.stage_channels == (500, 500, 500, 500)
        assert spec.dense_units == (100, 1)
        assert spec.input_channels == 87 and spec.input_width == 64

    def test_water_grouped_five_groups_of_100(self):
        spec = preset("water-cnn-grouped")
        assert spec.groups == 5
        assert all(ch // spec.groups == 100 for ch in spec.stage_channels)

    def test_drone_grouped_fifteen_groups_of_50(self):
        spec = preset("drone-cnn-grouped")
        assert spec.groups == 15
        assert spec.input_channels == 147
        assert all(ch // spec.groups == 50 for ch in spec.stage_channels)
        assert spec.dense_units == (200, 1)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("water-gan")

    @pytest.mark.parametrize("name, expected", PRESET_COUNTS.items())
    def test_preset_parameter_count(self, name, expected):
        # each preset states its own pooling; round-robin groups
        spec = preset(name)
        labels = balanced_assignment(spec.input_channels, spec.groups) if spec.grouping == "explicit" else None
        assert count_params(build_model(spec, labels, seed=0)) == expected

    def test_water_vanilla_layer_stack(self):
        model = build_model(preset("water-cnn"), seed=0)
        kinds = [type(l).__name__ for l in model.layers]
        assert kinds == [
            "Conv1DLayer", "MaxPool1DLayer", "Conv1DLayer", "MaxPool1DLayer",
            "Conv1DLayer", "MaxPool1DLayer", "Conv1DLayer",
            "FlattenLayer", "DenseLayer", "DenseLayer",
        ]

    def test_coeff_preset_prepends_membership_layer(self):
        model = build_model(preset("water-cnn-coeff"), seed=0)
        assert isinstance(model.layers[0], ClusteringCoeffLayer)
        assert model.layers[0].n_variables == 87
        assert model.layers[0].n_groups == 5

    def test_rcnn_recurrent_stages(self):
        spec = ModelSpec(input_channels=3, input_width=8, stage_channels=(6, 6, 6, 6),
                         pool_before=(2, 3, 4), pool_window=2, pool_stride=2,
                         dense_units=(4, 1), recurrent=True, iterations=2)
        model = build_model(spec, seed=1)
        convs = [l for l in model.layers if not isinstance(l, (MaxPool1DLayer, FlattenLayer, DenseLayer))]
        # stage 1 lifts 3 -> 6 then recurs; stages 2-3 recur in place; stage 4 plain
        assert [type(l) for l in convs] == [
            Conv1DLayer, RecurrentConvLayer, RecurrentConvLayer, RecurrentConvLayer, Conv1DLayer]
        assert convs[0].in_channels == 3 and convs[0].out_channels == 6


class TestForwardGeometry:
    def test_small_vanilla_forward(self):
        model = build_model(SMALL, seed=3)
        out = model.forward(Tensor(np.random.default_rng(0).standard_normal((6, 8))))
        assert out.shape == (1, 1)

    def test_small_grouped_forward(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        model = build_model(spec, assignment=balanced_assignment(6, 2), seed=3)
        out = model.forward(Tensor(np.random.default_rng(1).standard_normal((6, 8))))
        assert out.shape == (1, 1)

    def test_small_coeff_forward(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2})
        model = build_model(spec, seed=3)
        out = model.forward(Tensor(np.random.default_rng(2).standard_normal((6, 8))))
        assert out.shape == (1, 1)

    def test_small_grouped_recurrent_forward(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2,
                            "recurrent": True, "iterations": 2})
        model = build_model(spec, assignment=balanced_assignment(6, 2), seed=3)
        out = model.forward(Tensor(np.random.default_rng(3).standard_normal((6, 8))))
        assert out.shape == (1, 1)

    def test_water_full_size_forward(self):
        model = build_model(preset("water-cnn"), seed=0)
        out = model.forward(Tensor(np.random.default_rng(4).standard_normal((87, 64))))
        assert out.shape == (1, 1)


class TestBuildContracts:
    def test_explicit_requires_assignment(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        with pytest.raises(ConfigError, match="assignment"):
            build_model(spec, seed=0)

    def test_assignment_rejected_when_ungrouped(self):
        with pytest.raises(ConfigError):
            build_model(SMALL, assignment=balanced_assignment(6, 2), seed=0)

    def test_assignment_length_checked(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        with pytest.raises(ConfigError, match="covers"):
            build_model(spec, assignment=[1, 2], seed=0)

    def test_empty_group_rejected(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        with pytest.raises(ConfigError, match="no member"):
            build_model(spec, assignment=[1] * 6, seed=0)

    @pytest.mark.parametrize("assignment, problem", [
        ([1, 2, 1, 2, 1, 3], "assignment label 3 outside 1..2"),
        ([1, 2, 1, 2, 1, 0], "assignment label 0 outside 1..2"),
        ([1, 2, 1, 2, 1, 1.5], "integers"),
        ([1.0, 2.0, 1.0, 2.0, 1.0, 2.0], "integers"),
        (np.array([True, False] * 3), "integers"),
        ([True, 2, 1, 2, 1, 2], "integers, got bool labels"),
        ([np.True_, 2, 1, 2, 1, 2], "integers, got bool labels"),
        (["1", "2"] * 3, "integers"),
    ], ids=["above", "zero", "fraction", "float", "bool", "bool-among-ints", "numpy-bool-among-ints", "str"])
    def test_labels_that_are_not_integers_in_range_are_refused(self, assignment, problem):
        # a float or bool label is refused, never truncated to a group
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        with pytest.raises(ConfigError, match=problem):
            build_model(spec, assignment=assignment, seed=0)

    def test_numpy_labels_are_stored_as_python_ints(self, tmp_path):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        labels = [2, 1, 2, 1, 1, 2]
        model = build_model(spec, assignment=np.array(labels, dtype=np.int32), seed=13)
        assert model.assignment == labels and all(type(v) is int for v in model.assignment)
        save_checkpoint(model, tmp_path / "numpy.ckpt")
        save_checkpoint(build_model(spec, assignment=labels, seed=13), tmp_path / "list.ckpt")
        assert (tmp_path / "numpy.ckpt").read_bytes() == (tmp_path / "list.ckpt").read_bytes()
        assert load_checkpoint(tmp_path / "numpy.ckpt").assignment == labels

    def test_build_is_deterministic(self):
        a = build_model(SMALL, seed=9)
        b = build_model(SMALL, seed=9)
        for (na, ta), (nb, tb) in zip(a.named_params(), b.named_params()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seeds_differ(self):
        a = build_model(SMALL, seed=9)
        b = build_model(SMALL, seed=10)
        assert any(
            not np.array_equal(ta.data, tb.data)
            for (_, ta), (_, tb) in zip(a.named_params(), b.named_params())
        )


class TestParamVector:
    def test_params_are_views_of_one_owned_vector_in_order(self):
        model = build_model(ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2}), seed=3)
        vector = model.vector
        assert vector.flags.owndata and vector.size == count_params(model)
        params = [t for _, t in model.named_params()]
        assert all(t.data.base is vector for t in params)
        assert np.concatenate([t.data.ravel() for t in params]).tobytes() == vector.tobytes()

    def test_assigning_values_writes_them_into_the_vector(self):
        model = build_model(SMALL, seed=3)
        _, bias = model.named_params()[-1]
        view = bias.data
        bias.data = np.full(bias.shape, 2.5)
        assert bias.data is view
        assert model.vector[-bias.size :].tolist() == [2.5] * bias.size
        with pytest.raises(ShapeError, match="cannot assign"):
            bias.data = np.zeros(bias.size + 1)

    def test_a_bound_model_is_not_bound_again(self):
        # a second bind would copy zeros into the views and leave the
        # parameters apart from the new vector
        model = build_model(SMALL, seed=3)
        vector = model.vector
        with pytest.raises(ValueError, match="already bound"):
            model.bind()
        assert model.vector is vector

    def test_an_unfilled_model_holds_no_vector(self):
        model = M.assemble(SMALL)
        assert isinstance(model.vector, Unfilled)
        assert count_params(model) == count_params(build_model(SMALL, seed=0))


class TestParamCounts:
    def test_dense_3_to_2(self):
        spec = ModelSpec(input_channels=1, input_width=1, stage_channels=(3,), pool_before=(),
                         kernel_width=1, dense_units=(2,))
        model = build_model(spec, seed=0)
        dense = model.layers[-1]
        assert isinstance(dense, DenseLayer)
        assert dense.weight.size + dense.bias.size == 8

    def test_water_vanilla_total(self):
        # stage1 500*87*3+500, stages 2-4 500*500*3+500 each,
        # dense 100*500+100 and 1*100+1
        model = build_model(preset("water-cnn"), seed=0)
        expected = (500 * 87 * 3 + 500) + 3 * (500 * 500 * 3 + 500) + (100 * 500 + 100) + (1 * 100 + 1)
        assert count_params(model) == expected == 2_432_701

    def test_water_grouped_total(self):
        # kernels shrink by exactly the group count at every stage
        model = build_model(
            preset("water-cnn-grouped"), assignment=balanced_assignment(87, 5), seed=0
        )
        expected = (100 * 87 * 3 + 500) + 3 * (5 * 100 * 100 * 3 + 500) + (100 * 500 + 100) + (1 * 100 + 1)
        assert count_params(model) == expected == 528_301

    def test_grouped_conv_kernels_exactly_one_fifth(self):
        vanilla = build_model(preset("water-cnn"), seed=0)
        grouped = build_model(
            preset("water-cnn-grouped"), assignment=balanced_assignment(87, 5), seed=0
        )

        def kernel_count(model):
            return sum(t.size for n, t in model.named_params() if n.endswith("kernels"))

        assert kernel_count(vanilla) == 5 * kernel_count(grouped)

    def test_grouped_strictly_smaller(self):
        vanilla = build_model(preset("water-cnn"), seed=0)
        grouped = build_model(
            preset("water-cnn-grouped"), assignment=balanced_assignment(87, 5), seed=0
        )
        assert count_params(grouped) < count_params(vanilla)

    def test_coeff_count_includes_logits(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2})
        model = build_model(spec, seed=0)
        coeff = model.layers[0]
        listed = count_params(model)
        assert coeff.logits.size == 12
        manual = sum(t.size for _, t in model.named_params())
        assert listed == manual


class TestGroupingDegeneracies:
    def test_k1_grouped_equals_vanilla(self):
        # same parameters -> elementwise identical outputs
        spec_g = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        grouped = build_model(spec_g, assignment=balanced_assignment(6, 2), seed=5)
        spec_1 = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 1})
        solo = build_model(spec_1, assignment=[1] * 6, seed=5)
        vanilla = build_model(SMALL, seed=5)
        for (_, tv), (_, ts) in zip(vanilla.named_params(), solo.named_params()):
            ts.data = tv.data.copy()
        x = Tensor(np.random.default_rng(6).standard_normal((6, 8)))
        assert solo.forward(x).item() == vanilla.forward(x).item()
        assert grouped.forward(x).shape == (1, 1)

    def test_group_isolation_before_dense(self):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        assignment = [1, 1, 2, 2, 1, 2]
        model = build_model(spec, assignment=assignment, seed=7)
        base = np.random.default_rng(8).standard_normal((6, 8))
        bumped = base.copy()
        bumped[[0, 1, 4]] += 3.0  # perturb only group 1's channels

        def trunk(values):
            x = Tensor(values)
            for layer in model.layers:
                if isinstance(layer, FlattenLayer):
                    break
                x = layer.forward(x)
            return x.data

        out_a = trunk(base)
        out_b = trunk(bumped)
        per_group = 8 // 2
        np.testing.assert_array_equal(out_a[per_group:], out_b[per_group:])
        assert np.any(out_a[:per_group] != out_b[:per_group])


def first_shape(shape):
    """Header edit that gives the first parameter ``shape`` (None drops it)."""
    def edit(doc):
        entry = {k: v for k, v in doc["params"][0].items() if k != "shape"}
        if shape is not None:
            entry["shape"] = shape
        return {**doc, "params": [entry] + doc["params"][1:]}
    return edit


class TestCheckpoints:
    def test_roundtrip_bit_exact(self, tmp_path):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2})
        model = build_model(spec, seed=11)
        # make parameters non-initial so the load really restores state
        for _, t in model.named_params():
            t.data += 0.125
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        restored = load_checkpoint(path)
        for (na, ta), (nb, tb) in zip(model.named_params(), restored.named_params()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)
        x = Tensor(np.random.default_rng(12).standard_normal((6, 8)))
        assert model.forward(x).item() == restored.forward(x).item()

    def test_assignment_preserved(self, tmp_path):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        assignment = [2, 1, 2, 1, 1, 2]
        model = build_model(spec, assignment=assignment, seed=13)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        assert load_checkpoint(path).assignment == assignment

    def test_save_is_byte_stable(self, tmp_path):
        model = build_model(SMALL, seed=14)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(model, p1)
        save_checkpoint(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigError, match="format"):
            load_checkpoint(path)

    def test_previous_format_rejected(self, tmp_path):
        # formats 1-3 stored values as JSON numbers, 2 named recurrent
        # parameters per group sub-stack, and 4 stored base64 payloads;
        # refuse them whole
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2, "recurrent": True})
        path = tmp_path / "model.json"
        save_checkpoint(build_model(spec, assignment=balanced_assignment(6, 2), seed=16), path)
        doc, body = split_checkpoint(path.read_bytes())
        for old in ("gcnn.checkpoint/1", "gcnn.checkpoint/2", "gcnn.checkpoint/3", "gcnn.checkpoint/4"):
            doc["format"] = old
            path.write_bytes(join_checkpoint(doc, body))
            with pytest.raises(ConfigError, match="format .*, expected 'gcnn.checkpoint/5'"):
                load_checkpoint(path)
        # format 4 files were one indented JSON document, whose first line is "{"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        with pytest.raises(ConfigError, match="gcnn.checkpoint/5 expected"):
            load_checkpoint(path)

    def test_truncated_json_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format": "gcnn.checkpoint/1", "spec": {')
        with pytest.raises(ConfigError, match="JSON"):
            load_checkpoint(path)

    def test_non_integer_assignment_rejected(self, tmp_path):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2})
        path = tmp_path / "model.json"
        save_checkpoint(build_model(spec, assignment=balanced_assignment(6, 2), seed=22), path)
        doc, body = split_checkpoint(path.read_bytes())
        doc["assignment"] = [float(label) for label in doc["assignment"]]
        path.write_bytes(join_checkpoint(doc, body))
        with pytest.raises(ConfigError, match="assignment"):
            load_checkpoint(path)

    def test_missing_param_rejected(self, tmp_path):
        model = build_model(SMALL, seed=15)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        doc, body = split_checkpoint(path.read_bytes())
        first = doc["params"].pop(0)
        path.write_bytes(join_checkpoint(doc, body[8 * math.prod(first["shape"]) :]))
        with pytest.raises(ConfigError, match="missing"):
            load_checkpoint(path)

    def test_save_load_save_is_byte_identical(self, tmp_path):
        """A small coeff model, a water-cnn checkpoint (19.5 MB of raw <f8
        bytes) and a water-rcnn-grouped one on balanced blocks (each group
        draws its recurrence, then its lift), so the in-place draw and the
        per-parameter read path hold on every supported numpy."""
        def coeff():
            model = build_model(ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2}), seed=17)
            for _, t in model.named_params():
                t.data += 0.1
            return model

        rcnn = preset("water-rcnn-grouped")
        builds = {"coeff": coeff, "water-cnn": lambda: build_model(preset("water-cnn"), seed=0),
                  "water-rcnn-grouped": lambda: build_model(rcnn, pinned_assignment(rcnn, "blocks"), seed=0)}
        for name, build in builds.items():
            first, second = tmp_path / f"{name}.a.json", tmp_path / f"{name}.b.json"
            save_checkpoint(build(), first, meta={"config": "abc"})
            save_checkpoint(load_checkpoint(first), second, meta={"config": "abc"})
            assert first.read_bytes() == second.read_bytes(), name

    def test_loaded_params_are_owned_writable_float64(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(build_model(SMALL, seed=18), path)
        model = load_checkpoint(path)
        vector = model.vector
        assert vector.dtype == np.float64 and vector.dtype.isnative
        assert vector.flags.owndata and vector.flags.writeable and vector.flags.c_contiguous
        loaded = [t.data for _, t in model.named_params()]
        before = [data.copy() for data in loaded]
        for data in loaded:  # each parameter is a view of the model's one vector
            assert data.base is vector and data.flags.writeable and data.flags.c_contiguous
        rng = np.random.default_rng(19)
        wset = WindowedRegressionSet(
            inputs=rng.standard_normal((24, 6, 8)), targets=rng.standard_normal(24),
            times=np.arange(24.0), channel_names=[f"c{i}" for i in range(6)], target_name="y", window=8)
        train(model, wset, TrainConfig(epochs=1, batch_size=8, seed=0))
        # the SGD step moved the loaded arrays themselves, still views of the vector
        assert model.vector is vector
        assert all(t.data is data for (_, t), data in zip(model.named_params(), loaded))
        assert all(np.any(data != old) for data, old in zip(loaded, before))

    def test_load_and_twin_count_draw_nothing(self, tmp_path, monkeypatch):
        # a load reads every value from the file, and an ungrouped twin is
        # only counted: neither makes a generator to draw initial values
        real_rng = np.random.default_rng
        saved = {}
        for name in ("water-cnn", "water-cnn-coeff"):
            saved[name] = build_model(preset(name), seed=0)
            save_checkpoint(saved[name], tmp_path / name)

        def no_draw(*args, **kwargs):
            raise AssertionError("drew initial values")

        monkeypatch.setattr(M.np.random, "default_rng", no_draw)
        for name, model in saved.items():
            loaded = load_checkpoint(tmp_path / name).named_params()
            assert [n for n, _ in loaded] == [n for n, _ in model.named_params()]
            for (_, ta), (_, tb) in zip(model.named_params(), loaded):
                np.testing.assert_array_equal(tb.data.view("<u8"), ta.data.view("<u8"))

        made = []
        monkeypatch.setattr(M.np.random, "default_rng", lambda seed: made.append(seed) or real_rng(seed))
        for name in ("water-cnn-grouped", "water-cnn-coeff", "water-rcnn-grouped", "water-rcnn-coeff"):
            spec = preset(name)
            labels = balanced_assignment(87, 5) if spec.grouping == "explicit" else None
            made.clear()
            _, n_params, vanilla = cli._counted_model(spec, labels, 7)
            assert (n_params, vanilla) == (PRESET_COUNTS[name], PRESET_COUNTS[name.rsplit("-", 1)[0]])
            assert made == [7]  # the model's own draw; its twin draws nothing

    def test_params_are_found_by_name_whatever_their_header_order(self, tmp_path):
        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2})
        model = build_model(spec, seed=23)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        doc, body = split_checkpoint(path.read_bytes())
        sizes = [8 * math.prod(p["shape"]) for p in doc["params"]]
        chunks = np.split(np.frombuffer(body, np.uint8), np.cumsum(sizes)[:-1])
        # a header in reverse order, each parameter's bytes moved to match
        doc["params"].reverse()
        path.write_bytes(join_checkpoint(doc, b"".join(c.tobytes() for c in reversed(chunks))))
        for (na, ta), (nb, tb) in zip(model.named_params(), load_checkpoint(path).named_params()):
            assert na == nb
            np.testing.assert_array_equal(tb.data.view("<u8"), ta.data.view("<u8"))

    @pytest.mark.parametrize("doctor", [
        lambda raw: b"not json" + raw[raw.index(b"\n") :],
        lambda raw: b"",
        lambda raw: raw.replace(b"\n", b" ", 1),
    ], ids=["header-not-json", "empty", "no-newline"])
    def test_unreadable_header_rejected(self, tmp_path, doctor):
        with pytest.raises(ConfigError, match="JSON"):
            load_checkpoint(checkpoint_doc(tmp_path, doctor))

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-8], lambda raw: raw + bytes(8)], ids=["short", "long"])
    def test_payload_length_mismatch_rejected(self, tmp_path, edit):
        with pytest.raises(ShapeError, match="bytes"):
            load_checkpoint(checkpoint_doc(tmp_path, first_payload(edit)))

    def test_spec_implying_a_huge_vector_is_refused_before_it_is_allocated(self, tmp_path):
        # 10**13 steps make the model's vector 1.14 PiB while the params
        # list and the body stay as saved; allocating first would raise
        # MemoryError, so the shapes must be compared before the vector is made
        huge = header(lambda doc: {**doc, "spec": {**doc["spec"], "input_width": 10**13}})
        with pytest.raises(ShapeError, match=r"shape \[4, 32\] does not match \(4, 40000000000000\)"):
            load_checkpoint(checkpoint_doc(tmp_path, huge))

    def test_coeff_spec_edited_to_a_million_inputs_is_refused_in_bounded_memory(self, tmp_path):
        # a coeff build makes its group labels as arrays, so a spec edited to
        # 10**6 inputs is refused at its first shape without a per-channel walk
        spec = ModelSpec(input_channels=4, input_width=8, grouping="coeff", groups=2, stage_channels=(4,),
                         dense_units=(1,))
        path = tmp_path / "coeff.ckpt"
        save_checkpoint(build_model(spec, seed=0), path)
        doc, body = split_checkpoint(path.read_bytes())
        doc["spec"]["input_channels"] = 10**6
        path.write_bytes(join_checkpoint(doc, body))
        tracemalloc.start()
        try:
            with pytest.raises(ShapeError, match=r"'L00.logits' shape \[4, 2\] does not match \(1000000, 2\)"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20

    def test_infinite_payload_rejected(self, tmp_path):
        poison = first_payload(lambda raw: np.array([np.inf], "<f8").tobytes() + raw[8:])
        with pytest.raises(NumericalError, match="non-finite"):
            load_checkpoint(checkpoint_doc(tmp_path, poison))

    @pytest.mark.parametrize("doctor, problem", [
        (lambda doc: [doc], "JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "spec"}, "'spec'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "params"}, "'params'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "seed"}, "'seed'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "assignment"}, "'assignment'"),
        (lambda doc: {**doc, "params": {p["name"]: p for p in doc["params"]}}, "params must be a list"),
        (lambda doc: {**doc, "params": [{k: v for k, v in p.items() if k != "name"} for p in doc["params"]]},
         "'name'"),
        (lambda doc: {**doc, "seed": 1.5}, "seed"),
        (lambda doc: {**doc, "seed": -1}, "seed"),
        (lambda doc: {**doc, "params": doc["params"] + doc["params"][:1]}, "twice"),
        (lambda doc: {**doc, "spec": [doc["spec"]]}, "mapping"),
        (lambda doc: {**doc, "spec": {k: v for k, v in doc["spec"].items() if k != "input_width"}}, "input_width"),
        (lambda doc: {**doc, "spec": {**doc["spec"], "input_channels": "6"}}, "input_channels"),
        (lambda doc: {**doc, "spec": {**doc["spec"], "stage_channels": [8, 8.5]}}, "stage_channels"),
        (first_shape(None), "shape must be a list of non-negative integers"),
        (first_shape(6), "shape must be a list"),
        (first_shape([6, 8.0]), "shape must be a list"),
        (first_shape([6, -8]), "shape must be a list"),
        (first_shape([6, True]), "shape must be a list"),
    ], ids=["array", "no-spec", "no-params", "no-seed", "no-assignment", "params-not-list", "nameless-param", "float-seed", "negative-seed",
            "duplicate", "spec-not-mapping", "spec-field-missing", "spec-field-str", "spec-field-float",
            "shape-missing", "shape-int", "shape-float", "shape-negative", "shape-bool"])
    def test_malformed_document_rejected(self, tmp_path, doctor, problem):
        with pytest.raises(ConfigError, match=problem):
            load_checkpoint(checkpoint_doc(tmp_path, header(doctor)))


def checkpoint_doc(tmp_path, doctor):
    """Save a fresh SMALL model, let ``doctor`` rewrite the file's bytes,
    and return the rewritten file's path."""
    path = tmp_path / "doctored.json"
    save_checkpoint(build_model(SMALL, seed=20), path)
    path.write_bytes(doctor(path.read_bytes()))
    return path


def split_checkpoint(raw):
    """A checkpoint file as its header dict and its body bytes."""
    head, _, body = raw.partition(b"\n")
    return json.loads(head), body


def join_checkpoint(doc, body):
    return json.dumps(doc).encode() + b"\n" + body


def header(edit):
    """Doctor that passes the header through ``edit`` and keeps the body."""
    def doctor(raw):
        doc, body = split_checkpoint(raw)
        return join_checkpoint(edit(doc), body)
    return doctor


def first_payload(edit):
    """Doctor that passes the first parameter's raw <f8 bytes through ``edit``."""
    def doctor(raw):
        doc, body = split_checkpoint(raw)
        n = 8 * math.prod(doc["params"][0]["shape"])
        return join_checkpoint(doc, edit(body[:n]) + body[n:])
    return doctor


# sha256 of the checkpoints of two small explicit builds on shuffled
# assignments, which pin the draw order and the parameter names; in the
# rcnn build group 1 is one stage share (2 channels) wide, so its lift
# passes that group through and draws nothing for it
PINNED_EXPLICIT = {
    "cnn": (False, [2, 3, 1, 3, 1, 2, 3], "1fe45d1e757f94751b408fff6cca2f37bf24fc1bdd7f4afc93468c3c8919f817"),
    "rcnn-pass-through": (
        True, [3, 1, 3, 2, 3, 1, 3], "eb21cf08d07c58ffad3543aafd7040aa003a27beecc4c77c643d4a591da56e70"),
}


@pytest.mark.parametrize("recurrent, assignment, digest", PINNED_EXPLICIT.values(), ids=PINNED_EXPLICIT)
def test_explicit_checkpoint_bytes_are_pinned(tmp_path, recurrent, assignment, digest):
    spec = ModelSpec(input_channels=7, input_width=8, grouping="explicit", groups=3, stage_channels=(6, 6),
                     pool_before=(2,), pool_window=2, pool_stride=2, dense_units=(4, 1), recurrent=recurrent)
    model = build_model(spec, assignment, seed=5)
    assert ("L00.g00.kernels" in dict(model.named_params())) != recurrent
    save_checkpoint(model, tmp_path / "model.ckpt")
    assert hashlib.sha256((tmp_path / "model.ckpt").read_bytes()).hexdigest() == digest


def pinned_assignment(spec, kind):
    """1-based labels for an explicit preset: contiguous balanced blocks
    floor(i*K/N) + 1, round-robin groups, or, for "one-share-wide", group 1
    exactly one stage share wide (an rcnn lift passes it through) and the
    other channels in blocks, shuffled."""
    n, k = spec.input_channels, spec.groups
    if kind == "round-robin":
        return balanced_assignment(n, k)
    if kind == "one-share-wide":
        share = spec.stage_channels[0] // k
        labels = [1] * share + [j * (k - 1) // (n - share) + 2 for j in range(n - share)]
        return np.random.default_rng(0).permutation(labels).tolist()
    return [i * k // n + 1 for i in range(n)]


# sha256 of model.vector at seed 0: every preset, explicit ones on blocks;
# each explicit preset on round-robin groups; and the drone explicit
# presets with a group one share wide.  A build draws in the order its
# layers make their parameters, so these pin that order with the values.
PINNED_PRESETS = {
    "water-cnn": "4d9d95e49c332d355a7ea774910c338a796d0946217c90dcade6014a5018f6d2",
    "water-cnn-grouped": "78cb30e27f9c09dae103be90846f2314460cf7a6f6493cb332cb3530414ca56d",
    "water-cnn-coeff": "5cc5a217d057e46a83571a4b0c894cc315bd7d9e7813878028542f1e24cc39cb",
    "water-rcnn": "0c2fdf3e0ca5e76267bc316a203ad9838cb0095dca8edf28cb634607da532944",
    "water-rcnn-grouped": "aefebcbe5d7082198d6d66390656bff02013ef15d6d622a418428b9d79061df3",
    "water-rcnn-coeff": "46b53cee5f2443e5328f18988ec892461d7205d3f3eeced1b2bd211adc2155d4",
    "drone-cnn": "b2fc5054a3de81e71504847fc898d6423a0913d4ee5dc0071b62a37be05150d0",
    "drone-cnn-grouped": "498376fd584057b98abb5e89d38fbf4007d190a237f8a6dd4b70bedb039c3dc9",
    "drone-cnn-coeff": "f4da058a4e000b5ad7242cdafbacb15e6f604edf510a6f2b407ae8dcc56e51e0",
    "drone-rcnn": "9e94675a89661ff5a8d299c934c0785f0439e46d66dc889623696f3684d43ea6",
    "drone-rcnn-grouped": "5aedb94caaf23b417434a61b6d4b1edbfd71cb5cb87c736215348e4197ef9b82",
    "drone-rcnn-coeff": "59b712ae8e20952354e209072e081dd8d5a9983a46ebc3e067e52cfddc657ae5",
    "water-cnn-grouped@round-robin": "2af70ca6e80fc64d8f04af6651e453af86bdb22f72cb8132bced03df9a009f7d",
    "water-rcnn-grouped@round-robin": "e27dec7591ed9388a5b8c08304e8390c78d28d184e66c59fcfac173d4d3054d8",
    "drone-cnn-grouped@round-robin": "15f42d13878abf61ad877dd149693aa43654c8f3d10f580feadab6f4d6f7bc64",
    "drone-rcnn-grouped@round-robin": "e16cc2a1575a9f33b9ad13e61184528988cf724fa4cbffed6b7202744d6246ed",
    "drone-cnn-grouped@one-share-wide": "f0bb6e1045ad8ece5e6af53961d8590b4831432149ff179485e0bc5674bd04ef",
    "drone-rcnn-grouped@one-share-wide": "c75d1f45293f6b7419a1b645e48d953731169abbc1bbe1b206de372afb75946a",
}


@pytest.mark.parametrize("build, digest", PINNED_PRESETS.items(), ids=PINNED_PRESETS)
def test_preset_vectors_are_pinned(build, digest):
    name, _, kind = build.partition("@")
    spec = preset(name)
    labels = pinned_assignment(spec, kind) if spec.grouping == "explicit" else None
    assert hashlib.sha256(build_model(spec, labels, seed=0).vector.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("name", ["water-cnn", "water-rcnn-grouped"])
def test_build_holds_each_parameter_once(name):
    # parameters are drawn straight into their views of the one vector, so
    # a build's peak is that vector, not the vector and a drawn copy
    spec = preset(name)
    labels = pinned_assignment(spec, "blocks") if spec.grouping == "explicit" else None
    tracemalloc.start()
    try:
        model = build_model(spec, labels, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * model.vector.nbytes + 2**20


TINY = ModelSpec(input_channels=2, input_width=4, stage_channels=(2,), pool_before=(), dense_units=(1,))
TINY_SIZE = count_params(build_model(TINY))
EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308]


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, TINY_SIZE, elements=st.floats(allow_nan=False, allow_infinity=False)))
@example(np.resize(np.array(EXTREMES), TINY_SIZE))
def test_checkpoint_roundtrip_is_bit_exact(tmp_path_factory, flat):
    model = build_model(TINY, seed=21)
    offset = 0
    for _, t in model.named_params():
        t.data = flat[offset : offset + t.size].reshape(t.shape)
        offset += t.size
    path = tmp_path_factory.getbasetemp() / "roundtrip.json"
    save_checkpoint(model, path)
    for (_, saved), (_, loaded) in zip(model.named_params(), load_checkpoint(path).named_params()):
        np.testing.assert_array_equal(loaded.data.view("<u8"), saved.data.view("<u8"))


@pytest.mark.parametrize("value, annotation, expected", [
    (3, "int", 3), (None, "int | None", None), (2, "float", 2.0), ("1e-3", "float", 1e-3),
    ("run", "str", "run"), (False, "bool", False), ((1, 2), "tuple[int, ...]", [1, 2]), ([], "tuple[int, ...]", []),
])
def test_check_setting_accepts_and_normalises(value, annotation, expected):
    got = check_setting("x", value, annotation)
    assert got == expected and type(got) is type(expected)


@pytest.mark.parametrize("value, annotation", [
    (True, "int"), (1.0, "int"), (None, "int"), ("1", "int"), (False, "float"), ("fast", "float"),
    ("", "str"), (3, "str"), (1, "bool"), ("1, 2", "tuple[int, ...]"), ([1, 2.5], "tuple[int, ...]"),
    ([True], "tuple[int, ...]"),
])
def test_check_setting_rejects_with_path(value, annotation):
    with pytest.raises(ConfigError, match=r"^sec\.key(\[\d\])?: expected"):
        check_setting("sec.key", value, annotation)


UNFILLED_SPECS = {
    "none": SMALL,
    "explicit": ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2}),
    "coeff": ModelSpec(**{**SMALL.to_dict(), "grouping": "coeff", "groups": 2}),
    "rcnn-explicit": ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2, "recurrent": True}),
}


@pytest.mark.parametrize("spec", UNFILLED_SPECS.values(), ids=UNFILLED_SPECS)
def test_unfilled_model_counts_but_refuses_to_run(tmp_path, spec):
    # built without a draw, a model has its shapes, so it counts the same;
    # anything that reads its values raises, never a NaN or zero prediction
    labels = balanced_assignment(6, 2) if spec.grouping == "explicit" else None
    model = M.assemble(spec, labels)
    assert count_params(model) == count_params(build_model(spec, labels, seed=0))
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal((3, 6, 8)))
    with pytest.raises(AttributeError, match="not filled in"):
        model.forward(x)
    wset = WindowedRegressionSet(
        inputs=rng.standard_normal((24, 6, 8)), targets=rng.standard_normal(24),
        times=np.arange(24.0), channel_names=[f"c{i}" for i in range(6)], target_name="y", window=8)
    with pytest.raises(AttributeError, match="not filled in"):
        train(model, wset, TrainConfig(epochs=1, batch_size=8, seed=0))
    with pytest.raises(AttributeError, match="not filled in"):
        save_checkpoint(model, tmp_path / "unfilled.json")
