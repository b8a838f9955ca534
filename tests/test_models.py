"""Model assembly: preset geometries, parameter counts, grouping
degeneracies, and checkpoint round-trips."""

import numpy as np
import pytest

from gcnn.errors import ConfigError, ShapeError
from gcnn.layers import (
    ClusteringCoeffLayer,
    Conv1DLayer,
    DenseLayer,
    FlattenLayer,
    GroupedConv1DLayer,
    MaxPool1DLayer,
    RecurrentConvLayer,
)
from gcnn.models import (
    ModelSpec,
    build_model,
    count_params,
    load_checkpoint,
    preset,
    save_checkpoint,
)
from gcnn.tensor import Tensor

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


class TestSpecValidation:
    def test_ungrouped_must_have_one_group(self):
        with pytest.raises(ConfigError):
            ModelSpec(input_channels=4, input_width=8, groups=3).validate()

    def test_channels_must_divide(self):
        spec = ModelSpec(input_channels=4, input_width=8, grouping="explicit", groups=3,
                         stage_channels=(10, 10), pool_before=(2,), pool_window=2, pool_stride=2)
        with pytest.raises(ConfigError, match="divisible"):
            spec.validate()

    def test_pool_out_of_range(self):
        spec = ModelSpec(input_channels=4, input_width=8, stage_channels=(8,), pool_before=(3,))
        with pytest.raises(ConfigError):
            spec.validate()

    def test_width_exhaustion(self):
        spec = ModelSpec(input_channels=4, input_width=4, stage_channels=(8, 8, 8),
                         pool_before=(2, 3), pool_window=4, pool_stride=4)
        with pytest.raises(ConfigError, match="too small"):
            spec.validate()

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

    def test_preset_override(self):
        spec = preset("water-cnn", input_width=32)
        assert spec.input_width == 32

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
        # format 2 named recurrent parameters per group sub-stack; refuse it whole
        import json

        spec = ModelSpec(**{**SMALL.to_dict(), "grouping": "explicit", "groups": 2, "recurrent": True})
        path = tmp_path / "model.json"
        save_checkpoint(build_model(spec, assignment=balanced_assignment(6, 2), seed=16), path)
        doc = json.loads(path.read_text())
        doc["format"] = "gcnn.checkpoint/2"
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="format"):
            load_checkpoint(path)

    def test_truncated_json_rejected(self, tmp_path):
        path = tmp_path / "trunc.json"
        path.write_text('{"format": "gcnn.checkpoint/1", "spec": {')
        with pytest.raises(ConfigError, match="JSON"):
            load_checkpoint(path)

    def test_missing_param_rejected(self, tmp_path):
        import json

        model = build_model(SMALL, seed=15)
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        doc["params"] = doc["params"][1:]
        path.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="missing"):
            load_checkpoint(path)
