"""Layer behavior: grouped/recurrent/coefficient forward rules against
hand-derived cases, degeneracies, and finite-difference gradient checks."""

import numpy as np
import pytest

from gcnn import tensor as T
from gcnn.errors import ShapeError
from gcnn.layers import (
    ClusteringCoeffLayer,
    Conv1DLayer,
    DenseLayer,
    FlattenLayer,
    GroupedConv1DLayer,
    MaxPool1DLayer,
    RecurrentConvLayer,
    conv_params,
    init_uniform_fanin,
)
from gcnn.models import ModelSpec, build_model
from gcnn.tensor import Tensor, grad_check
from oracles import Drawing, toy_grouped_dense_forward


def make_grouped(rng, labels, out_per_group, kw=3, activation="relu"):
    return GroupedConv1DLayer.create(labels, out_per_group, kw, activation, record=Drawing(rng))


class TestConv1DLayer:
    def test_output_geometry(self):
        layer = Conv1DLayer(4, 7, 3, record=Drawing(np.random.default_rng(0)))
        out = layer.forward(Tensor(np.random.default_rng(1).standard_normal((4, 10))))
        assert out.shape == (7, 10)

    def test_seeded_init_reproducible(self):
        a = Conv1DLayer(3, 5, 3, record=Drawing(np.random.default_rng(7)))
        b = Conv1DLayer(3, 5, 3, record=Drawing(np.random.default_rng(7)))
        np.testing.assert_array_equal(a.kernels.data, b.kernels.data)

    def test_fan_in_bound(self):
        layer = Conv1DLayer(10, 20, 3, record=Drawing(np.random.default_rng(3)))
        bound = 1.0 / np.sqrt(10 * 3)
        assert np.all(np.abs(layer.kernels.data) <= bound)

    def test_bias_starts_at_zero(self):
        layer = Conv1DLayer(2, 3, 3, record=Drawing(np.random.default_rng(5)))
        np.testing.assert_array_equal(layer.bias.data, np.zeros(3))


@pytest.mark.parametrize("build", [
    lambda: Conv1DLayer(2, 2, 3),
    lambda: GroupedConv1DLayer.create([0, 1], 1),
    lambda: ClusteringCoeffLayer(2, 2),
    lambda: DenseLayer(2, 1),
], ids=["conv", "grouped", "coeff", "dense"])
def test_layers_need_a_record(build):
    # a layer whose parameters are on no record would never be filled
    with pytest.raises(TypeError, match="record"):
        build()


class TestPartitionValidation:
    """A label vector gives each channel exactly one group, so only a
    label out of range and a group without members can be wrong."""

    def test_valid(self):
        layer = make_grouped(np.random.default_rng(0), [0, 1, 0, 1], 2)
        assert layer.in_channels == 4 and layer.out_channels == 4
        np.testing.assert_array_equal(layer.order, [0, 2, 1, 3])

    def test_out_of_range(self):
        kernels, bias = conv_params(Drawing(np.random.default_rng(1)), 1, 1, 3)
        with pytest.raises(ShapeError, match="group label 2 out of range for 2 groups"):
            GroupedConv1DLayer([0, 2], [kernels, kernels], [bias, bias])
        with pytest.raises(ShapeError, match="group label -1 out of range"):
            make_grouped(np.random.default_rng(1), [0, -1], 1)

    def test_empty_group(self):
        kernels, bias = conv_params(Drawing(np.random.default_rng(2)), 1, 2, 3)
        with pytest.raises(ShapeError, match="group 1 has no member channels"):
            GroupedConv1DLayer([0, 0], [kernels, None], [bias, None])
        with pytest.raises(ShapeError, match="group 1 has no member channels"):
            make_grouped(np.random.default_rng(2), [0, 0, 2], 1)


class TestGroupedConv1DLayer:
    def test_single_group_degenerates_to_vanilla(self):
        # K=1 with shared parameter tensors must be elementwise identical
        rng = np.random.default_rng(10)
        vanilla = Conv1DLayer(5, 4, 3, activation="relu", record=Drawing(rng))
        grouped = GroupedConv1DLayer([0] * 5, [vanilla.kernels], [vanilla.bias], activation="relu")
        x = Tensor(np.random.default_rng(11).standard_normal((5, 9)))
        np.testing.assert_array_equal(grouped.forward(x).data, vanilla.forward(x).data)

    def test_group_isolation(self):
        # zeroing the second group's channels leaves the first group's output alone
        rng = np.random.default_rng(12)
        layer = make_grouped(rng, [0, 0, 1, 1], out_per_group=3)
        base = np.random.default_rng(13).standard_normal((4, 8))
        zeroed = base.copy()
        zeroed[2:] = 0.0
        out_a = layer.forward(Tensor(base))
        out_b = layer.forward(Tensor(zeroed))
        np.testing.assert_array_equal(out_a.data[:3], out_b.data[:3])

    def test_output_is_group_major(self):
        rng = np.random.default_rng(14)
        layer = make_grouped(rng, [0, 0, 1, 1], out_per_group=2, activation="linear")
        # kill group 2's kernels: its output block must be exactly zero
        layer.kernels[1].data[:] = 0.0
        out = layer.forward(Tensor(np.random.default_rng(15).standard_normal((4, 6))))
        assert out.shape == (4, 6)
        np.testing.assert_array_equal(out.data[2:], np.zeros((2, 6)))
        assert np.any(out.data[:2] != 0.0)

    def test_kernel_param_ratio_one_fifth(self):
        # 100 channels in 5 equal clusters, 100 total outputs: kernel count
        # drops by exactly the group count
        rng = np.random.default_rng(16)
        grouped = make_grouped(rng, np.repeat(np.arange(5), 20), out_per_group=20, kw=3)
        vanilla = Conv1DLayer(100, 100, 3, record=Drawing(rng))
        grouped_kernels = sum(k.size for k in grouped.kernels)
        assert vanilla.kernels.size == 5 * grouped_kernels

    def test_mismatched_kernel_members(self):
        rng = np.random.default_rng(17)
        kernels = init_uniform_fanin(Drawing(rng), (2, 3, 3), 9)
        bias = Tensor(np.zeros(2), requires_grad=True)
        with pytest.raises(ShapeError):
            GroupedConv1DLayer([0, 0, 1, 1], [kernels, kernels], [bias, bias])
        with pytest.raises(ShapeError, match="both kernels and a bias, or neither"):
            GroupedConv1DLayer([0, 0, 0, 1], [kernels, None], [bias, bias])

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(18)
        layer = make_grouped(rng, [0, 1, 0, 1], out_per_group=2, activation="tanh")
        x = Tensor(np.random.default_rng(19).standard_normal((4, 6)))
        leaves = [t for _, t in layer.named_params()]
        err = grad_check(lambda: T.sum_all(layer.forward(x)), leaves)
        assert err < 1e-5


class TestRecurrentConvLayer:
    def test_single_iteration_equals_plain_conv(self):
        rng = np.random.default_rng(20)
        inner = Conv1DLayer(3, 3, 3, activation="tanh", record=Drawing(rng))
        rcl = RecurrentConvLayer(inner, iterations=1)
        x = Tensor(np.random.default_rng(21).standard_normal((3, 7)))
        np.testing.assert_array_equal(rcl.forward(x).data, inner.forward(x).data)

    def test_two_iterations_scalar_unroll(self):
        # identity kernel, linear activation, zero bias, x=1:
        # z1 = 1, z2 = (1 + 1) = 2
        inner = Conv1DLayer(1, 1, 1, activation="linear", record=Drawing(np.random.default_rng(0)))
        inner.kernels.data[:] = 1.0
        inner.bias.data[:] = 0.0
        rcl = RecurrentConvLayer(inner, iterations=2)
        out = rcl.forward(Tensor([[1.0]]))
        np.testing.assert_array_equal(out.data, [[2.0]])

    def test_three_iterations_scalar_unroll(self):
        # z3 = x + z2 = 1 + 2 = 3 under the same degenerate parameters
        inner = Conv1DLayer(1, 1, 1, activation="linear", record=Drawing(np.random.default_rng(0)))
        inner.kernels.data[:] = 1.0
        inner.bias.data[:] = 0.0
        out = RecurrentConvLayer(inner, iterations=3).forward(Tensor([[1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0]])

    def test_channel_mismatch_rejected(self):
        inner = Conv1DLayer(3, 4, 3, record=Drawing(np.random.default_rng(1)))
        with pytest.raises(ShapeError, match="matching channels"):
            RecurrentConvLayer(inner, iterations=2)

    def test_shared_parameter_gradient(self):
        # one parameter set drives all unrolled applications; the recorded
        # gradient must match finite differences through the whole recursion
        rng = np.random.default_rng(22)
        inner = Conv1DLayer(2, 2, 3, activation="tanh", record=Drawing(rng))
        rcl = RecurrentConvLayer(inner, iterations=2)
        x = Tensor(np.random.default_rng(23).standard_normal((2, 6)))
        err = grad_check(lambda: T.sum_all(rcl.forward(x)), [inner.kernels, inner.bias])
        assert err < 1e-5

    def test_params_listed_once(self):
        inner = Conv1DLayer(2, 2, 3, record=Drawing(np.random.default_rng(3)))
        rcl = RecurrentConvLayer(inner, iterations=4)
        assert len(rcl.named_params()) == 2


class TestClusteringCoeffLayer:
    def test_output_shape_group_major(self):
        layer = ClusteringCoeffLayer(5, 3, record=Drawing(np.random.default_rng(30)))
        out = layer.forward(Tensor(np.random.default_rng(31).standard_normal((5, 8))))
        assert out.shape == (15, 8)

    def test_coefficients_row_stochastic(self):
        layer = ClusteringCoeffLayer(6, 4, record=Drawing(np.random.default_rng(32)))
        u = layer.coefficients().data
        np.testing.assert_allclose(u.sum(axis=1), np.ones(6), atol=1e-12)
        assert np.all(u >= 0.0) and np.all(u <= 1.0)

    def test_single_group_coefficients_all_one(self):
        # softmax over one logit is identically 1
        layer = ClusteringCoeffLayer(4, 1, record=Drawing(np.random.default_rng(33)))
        np.testing.assert_array_equal(layer.coefficients().data, np.ones((4, 1)))

    def test_single_group_is_plain_channelwise_conv(self):
        layer = ClusteringCoeffLayer(4, 1, activation="linear", record=Drawing(np.random.default_rng(34)))
        layer.bias.data[0] = 0.0
        x = Tensor(np.random.default_rng(35).standard_normal((4, 7)))
        expected = T.channelwise_conv1d(x, Tensor(layer.kernels.data))  # (4, 7): one group of 4 rows
        np.testing.assert_array_equal(layer.forward(x).data, expected.data)

    def test_uniform_logits_give_equal_shares(self):
        layer = ClusteringCoeffLayer(3, 4, record=Drawing(np.random.default_rng(36)))
        layer.logits.data[:] = 0.0
        np.testing.assert_array_equal(layer.coefficients().data, np.full((3, 4), 0.25))

    def test_block_k_is_scaled_conv(self):
        # identity kernel + zero bias + linear: block k equals x scaled
        # row-wise by u[:, k]
        layer = ClusteringCoeffLayer(3, 2, kernel_width=3, activation="linear", record=Drawing(np.random.default_rng(37)))
        for k in range(2):
            layer.kernels.data[k] = [0.0, 1.0, 0.0]
            layer.bias.data[k] = 0.0
        x = np.random.default_rng(38).standard_normal((3, 5))
        out = layer.forward(Tensor(x))
        u = layer.coefficients().data
        for k in range(2):
            np.testing.assert_allclose(out.data[3 * k : 3 * (k + 1)], x * u[:, k : k + 1], atol=1e-15)

    def test_variable_count_mismatch(self):
        layer = ClusteringCoeffLayer(3, 2, record=Drawing(np.random.default_rng(39)))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.ones((4, 5))))

    def test_logit_gradients_match_finite_differences(self):
        layer = ClusteringCoeffLayer(3, 2, activation="tanh", record=Drawing(np.random.default_rng(40)))
        x = Tensor(np.random.default_rng(41).standard_normal((3, 5)))
        target = Tensor(np.random.default_rng(42).standard_normal((6, 5)))

        def f():
            d = layer.forward(x) - target
            return T.mean_all(d * d)

        leaves = [t for _, t in layer.named_params()]
        assert grad_check(f, leaves) < 1e-5


class TestTapeSize:
    """A grouped stage records a fixed number of ops, whatever the group count."""

    @staticmethod
    def step_tape_entries(layer, channels):
        x = Tensor(np.random.default_rng(50).standard_normal((4, channels, 9)))
        y = layer.forward(x)
        loss = T.mean_all(y * y)
        return len(T.GradTape.from_root(loss).entries)

    def test_grouped_conv_tape_does_not_grow_with_groups(self):
        counts = []
        for k in (2, 7):
            # every group takes every k-th channel, so the gather is needed
            layer = GroupedConv1DLayer.create(np.arange(14) % k, out_per_group=3, record=Drawing(np.random.default_rng(51)))
            counts.append(self.step_tape_entries(layer, 14))
        assert counts[0] == counts[1]

    def test_coeff_tape_does_not_grow_with_groups(self):
        counts = [
            self.step_tape_entries(ClusteringCoeffLayer(6, k, record=Drawing(np.random.default_rng(52))), 6) for k in (2, 7)
        ]
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("grouping, sizes", [
        ("explicit", {2: [7, 7], 7: [2] * 7}),  # every group is lifted to 4 channels
        ("explicit", {2: [4, 10], 7: [4, 1, 1, 2, 2, 2, 2]}),  # the first group passes through
        ("coeff", {2: None, 7: None}),
    ])
    def test_recurrent_grouped_tape_does_not_grow_with_groups(self, grouping, sizes):
        # recurrent stages at 4 and 8 channels per group, then a plain grouped stage
        counts = []
        for k in (2, 7):
            spec = ModelSpec(input_channels=14, input_width=9, grouping=grouping, groups=k,
                             stage_channels=(4 * k, 8 * k, 4 * k), pool_before=(), dense_units=(1,),
                             recurrent=True, iterations=3)
            assignment = None
            if sizes[k] is not None:
                labels = np.repeat(np.arange(1, k + 1), sizes[k])
                assignment = [int(g) for g in np.random.default_rng(53).permutation(labels)]
            counts.append(self.step_tape_entries(build_model(spec, assignment, seed=54), 14))
        assert counts[0] == counts[1]

    def test_toy_grouped_dense_tape_does_not_grow_with_groups(self):
        counts = []
        for k in (2, 7):
            rng = np.random.default_rng(55)
            x = Tensor(rng.standard_normal((4, 5)))
            params = [Tensor(rng.standard_normal(shape), requires_grad=True)
                      for shape in ((4, k), (4 * k, 5), (k,), (k,), ())]
            y = toy_grouped_dense_forward(x, *params)
            counts.append(len(T.GradTape.from_root(T.mean_all(y * y)).entries))
        assert counts[0] == counts[1]


class TestToyGroupedDense:
    def setup_method(self):
        rng = np.random.default_rng(50)
        self.x = Tensor(rng.standard_normal((4, 5)))
        self.w1 = Tensor(rng.standard_normal((8, 5)), requires_grad=True)
        self.b1 = Tensor(rng.standard_normal(2), requires_grad=True)
        self.w2 = Tensor(rng.standard_normal(2), requires_grad=True)
        self.b2 = Tensor(rng.standard_normal(()), requires_grad=True)

    def test_hard_assignment_uses_only_members(self):
        # one-hot rows: h_j collapses to a sum over j's members
        labels = [0, 1, 1, 0]
        u = np.zeros((4, 2))
        u[np.arange(4), labels] = 1.0
        y = toy_grouped_dense_forward(self.x, Tensor(u), self.w1, self.b1, self.w2, self.b2)
        h = np.zeros(2)
        for j in range(2):
            acc = sum(
                float(self.x.data[i] @ self.w1.data[j * 4 + i]) for i in range(4) if labels[i] == j
            )
            h[j] = np.tanh(acc + self.b1.data[j])
        expected = float(h @ self.w2.data + self.b2.data)
        np.testing.assert_allclose(y.item(), expected, atol=1e-12)

    def test_zero_first_layer_ignores_input_and_membership(self):
        w1 = Tensor(np.zeros((8, 5)))
        u_a = Tensor(np.full((4, 2), 0.5))
        u_b = Tensor(np.eye(4)[:, :2].copy() + 0.0)
        y_a = toy_grouped_dense_forward(self.x, u_a, w1, self.b1, self.w2, self.b2)
        y_b = toy_grouped_dense_forward(self.x, u_b, w1, self.b1, self.w2, self.b2)
        expected = float(np.tanh(self.b1.data) @ self.w2.data + self.b2.data)
        np.testing.assert_allclose(y_a.item(), expected, atol=1e-12)
        assert y_a.item() == y_b.item()

    def test_membership_gradient_matches_finite_differences(self):
        # squared-error loss; perturbs u entries directly
        rng = np.random.default_rng(51)
        u = Tensor(np.abs(rng.standard_normal((4, 2))) + 0.1, requires_grad=True)
        u.data /= u.data.sum(axis=1, keepdims=True)
        target = 0.7

        def f():
            y = toy_grouped_dense_forward(self.x, u, self.w1, self.b1, self.w2, self.b2)
            d = y - target
            return d * d * 0.5

        assert grad_check(f, [u, self.w1, self.b1, self.w2, self.b2]) < 1e-5

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            toy_grouped_dense_forward(self.x, Tensor(np.ones((3, 2))), self.w1, self.b1, self.w2, self.b2)


class TestDenseAndShapes:
    def test_dense_forward(self):
        layer = DenseLayer(3, 2, activation="linear", record=Drawing(np.random.default_rng(60)))
        layer.weight.data[:] = [[1.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
        layer.bias.data[:] = [10.0, 20.0]
        out = layer.forward(Tensor([[1.0], [2.0], [3.0]]))
        np.testing.assert_array_equal(out.data, [[11.0], [25.0]])

    def test_dense_rejects_wrong_shape(self):
        layer = DenseLayer(3, 2, record=Drawing(np.random.default_rng(61)))
        with pytest.raises(ShapeError):
            layer.forward(Tensor(np.ones((4, 1))))

    def test_flatten_row_major(self):
        out = FlattenLayer().forward(Tensor([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0], [2.0], [3.0], [4.0]])

    def test_maxpool_layer(self):
        out = MaxPool1DLayer(4, 4).forward(Tensor(np.arange(16.0).reshape(2, 8)))
        assert out.shape == (2, 2)


class TestGroupedRecurrentStage:
    """A grouped lift with a pass-through group, then a recurrence whose
    every iteration is one grouped convolution."""

    @staticmethod
    def make_stage(rng):
        # group 0 = channels (0, 3), already 2 wide, passes through; group 1 =
        # channel 1 and group 2 = channels (2, 4, 5) are lifted to 2 channels
        (k1, b1), (k2, b2) = conv_params(Drawing(rng), 2, 1, 3), conv_params(Drawing(rng), 2, 3, 3)
        lift = GroupedConv1DLayer([0, 1, 2, 0, 2, 2], [None, k1, k2], [None, b1, b2], activation="tanh")
        inner = make_grouped(rng, [0, 0, 1, 1, 2, 2], out_per_group=2, activation="tanh")
        return lift, RecurrentConvLayer(inner, iterations=3)

    def test_pass_through_group_is_gathered_unchanged(self):
        lift, _ = self.make_stage(np.random.default_rng(70))
        x = np.random.default_rng(71).standard_normal((2, 6, 7))
        out = lift.forward(Tensor(x))
        assert out.shape == (2, 6, 7) and lift.out_channels == 6
        np.testing.assert_array_equal(out.data[:, :2], x[:, [0, 3]])
        assert [n for n, _ in lift.named_params()] == ["g01.kernels", "g01.bias", "g02.kernels", "g02.bias"]

    @pytest.mark.parametrize("group, channels", [(0, [0, 3]), (1, [1]), (2, [2, 4, 5])])
    def test_isolation(self, group, channels):
        # bumping one group's inputs leaves every other group's outputs bit-identical
        lift, rcl = self.make_stage(np.random.default_rng(72))
        base = np.random.default_rng(73).standard_normal((3, 6, 8))
        bumped = base.copy()
        bumped[:, channels] += 1.0
        out_a = rcl.forward(lift.forward(Tensor(base))).data
        out_b = rcl.forward(lift.forward(Tensor(bumped))).data
        others = [ch for ch in range(6) if ch // 2 != group]
        np.testing.assert_array_equal(out_a[:, others], out_b[:, others])
        assert np.any(out_a[:, 2 * group : 2 * group + 2] != out_b[:, 2 * group : 2 * group + 2])
