"""Tensor primitives: forward values against hand-computed cases and
gradients against central finite differences."""

import weakref

import numpy as np
import pytest

from gcnn import tensor as T
from gcnn.errors import GraphConsumedError, ShapeError
from gcnn.tensor import Tensor, backward, grad_check, no_grad


class TestConstruction:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            Tensor([[np.inf]])

    def test_rejects_zero_dim(self):
        with pytest.raises(ShapeError, match="positive"):
            Tensor(np.zeros((2, 0)))

    def test_float64_storage(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_scalar_tensor(self):
        t = Tensor(2.5)
        assert t.shape == ()
        assert t.item() == 2.5


class TestParameter:
    def test_unfilled_takes_the_array_it_is_given(self):
        p, values = T.Parameter(T.Unfilled((2, 3))), np.zeros((2, 3))
        p.data = values
        assert p.data is values

    def test_unfilled_refuses_another_shape(self):
        p = T.Parameter(T.Unfilled((2, 3)))
        with pytest.raises(ShapeError, match=r"cannot assign \(5,\) values to a \(2, 3\) parameter"):
            p.data = np.zeros(5)
        assert isinstance(p.data, T.Unfilled) and p.shape == (2, 3)

    @pytest.mark.parametrize("value", [np.zeros((2, 3), np.float32), np.zeros((2, 3), int), [[0.0] * 3] * 2],
                             ids=["float32", "int", "list"])
    def test_unfilled_refuses_anything_but_float64(self, value):
        p = T.Parameter(T.Unfilled((2, 3)))
        with pytest.raises(TypeError, match="float64 array"):
            p.data = value
        assert isinstance(p.data, T.Unfilled)

    def test_filled_writes_into_its_array(self):
        p = T.Parameter(np.zeros(3))
        held = p.data
        p.data = [1, 2, 3]
        assert p.data is held and held.tolist() == [1.0, 2.0, 3.0]
        with pytest.raises(ShapeError):
            p.data = np.zeros(4)


class TestElementwise:
    def test_add(self):
        a = Tensor([1.0, 2.0])
        b = Tensor([3.0, 4.0])
        np.testing.assert_array_equal(T.elementwise("add", a, b).data, [4.0, 6.0])

    def test_mul(self):
        a = Tensor([2.0, 3.0])
        b = Tensor([4.0, 5.0])
        np.testing.assert_array_equal(T.elementwise("mul", a, b).data, [8.0, 15.0])

    def test_scalar_broadcast(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = T.elementwise("mul", a, 2.0)
        np.testing.assert_array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])
        assert out.shape == a.shape

    def test_single_element_tensor_broadcasts(self):
        a = Tensor([1.0, 2.0, 3.0])
        s = Tensor([10.0])
        out = T.elementwise("add", a, s)
        np.testing.assert_array_equal(out.data, [11.0, 12.0, 13.0])
        assert out.shape == (3,)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.elementwise("add", Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))

    def test_div_backward(self):
        a = Tensor([4.0, 9.0], requires_grad=True)
        b = Tensor([2.0, 3.0], requires_grad=True)
        out = T.sum_all(T.elementwise("div", a, b))
        grads = backward(out, leaves=[a, b])
        np.testing.assert_allclose(grads[a], [0.5, 1 / 3])
        np.testing.assert_allclose(grads[b], [-1.0, -1.0])

    def test_scalar_tensor_receives_gradient(self):
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        s = Tensor([2.0], requires_grad=True)
        out = T.sum_all(T.elementwise("mul", a, s))
        grads = backward(out, leaves=[a, s])
        np.testing.assert_allclose(grads[a], [2.0, 2.0, 2.0])
        np.testing.assert_allclose(grads[s], [6.0])


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        eye = Tensor(np.eye(2))
        np.testing.assert_array_equal(T.matmul(a, eye).data, a.data)

    def test_row_times_column(self):
        a = Tensor([[1.0, 2.0]])
        b = Tensor([[3.0], [4.0]])
        np.testing.assert_array_equal(T.matmul(a, b).data, [[11.0]])

    def test_inner_dim_mismatch(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_requires_2d(self):
        with pytest.raises(ShapeError):
            T.matmul(Tensor([1.0, 2.0]), Tensor(np.ones((2, 2))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
        err = grad_check(lambda: T.sum_all(T.activation(T.matmul(a, b), "tanh")), [a, b])
        assert err < 1e-6


class TestConv1d:
    def test_same_padding_preserves_width(self):
        x = Tensor(np.arange(10.0).reshape(2, 5))
        k = Tensor(np.ones((3, 2, 3)))
        b = Tensor(np.zeros(3))
        out = T.conv1d(x, k, b)
        assert out.shape == (3, 5)

    def test_width_one_kernel_is_channel_mix(self):
        # kw=1 reduces to a pointwise linear map across channels
        rng = np.random.default_rng(7)
        x = rng.standard_normal((4, 6))
        k = rng.standard_normal((3, 4, 1))
        out = T.conv1d(Tensor(x), Tensor(k), Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, k[:, :, 0] @ x, rtol=0, atol=1e-12)

    def test_identity_kernel_exact(self):
        x = np.random.default_rng(3).standard_normal((2, 8))
        k = np.zeros((2, 2, 1))
        k[0, 0, 0] = 1.0
        k[1, 1, 0] = 1.0
        out = T.conv1d(Tensor(x), Tensor(k), Tensor(np.zeros(2)))
        np.testing.assert_array_equal(out.data, x)

    def test_cross_correlation_orientation(self):
        # asymmetric kernel: output[w] = sum_t x[w+t-pl] * k[t], no flip
        x = Tensor([[0.0, 0.0, 1.0, 0.0, 0.0]])
        k = Tensor([[[1.0, 2.0, 3.0]]])
        out = T.conv1d(x, k, Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[0.0, 3.0, 2.0, 1.0, 0.0]])

    def test_bias_added_per_output_channel(self):
        x = Tensor(np.zeros((1, 4)) + 1.0)
        k = Tensor(np.zeros((2, 1, 3)))
        b = Tensor([5.0, -1.0])
        out = T.conv1d(x, k, b)
        np.testing.assert_array_equal(out.data[0], np.full(4, 5.0))
        np.testing.assert_array_equal(out.data[1], np.full(4, -1.0))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv1d(Tensor(np.ones((3, 5))), Tensor(np.ones((2, 4, 3))), Tensor(np.zeros(2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.standard_normal((3, 7)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(2), requires_grad=True)
        err = grad_check(lambda: T.sum_all(T.activation(T.conv1d(x, k, b), "tanh")), [x, k, b])
        assert err < 1e-6

    def test_channelwise_shared_kernel(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 6))
        kern = rng.standard_normal((1, 3))
        out = T.channelwise_conv1d(Tensor(x), Tensor(kern))
        # every row equals a per-row 1-channel convolution with the same kernel
        for c in range(3):
            row = T.conv1d(Tensor(x[c : c + 1]), Tensor(kern.reshape(1, 1, 3)), Tensor([0.0]))
            np.testing.assert_allclose(out.data[c], row.data[0], rtol=0, atol=1e-12)

    def test_channelwise_gradients(self):
        rng = np.random.default_rng(17)
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        kern = Tensor(rng.standard_normal((1, 3)), requires_grad=True)
        err = grad_check(lambda: T.sum_all(T.activation(T.channelwise_conv1d(x, kern), "tanh")), [x, kern])
        assert err < 1e-6


class TestMaxPool:
    def test_basic(self):
        x = Tensor([[1.0, 3.0, 2.0, 5.0]])
        out = T.maxpool1d(x, window=2, stride=2)
        np.testing.assert_array_equal(out.data, [[3.0, 5.0]])

    def test_width_reduction_64_to_16(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 64)))
        assert T.maxpool1d(x, window=4, stride=4).shape == (5, 16)

    def test_gradient_routes_to_max(self):
        x = Tensor([[1.0, 3.0, 2.0, 5.0]], requires_grad=True)
        out = T.sum_all(T.maxpool1d(x, window=2, stride=2))
        grads = backward(out, leaves=[x])
        np.testing.assert_array_equal(grads[x], [[0.0, 1.0, 0.0, 1.0]])

    def test_tie_goes_to_first(self):
        x = Tensor([[2.0, 2.0]], requires_grad=True)
        out = T.sum_all(T.maxpool1d(x, window=2, stride=2))
        grads = backward(out, leaves=[x])
        np.testing.assert_array_equal(grads[x], [[1.0, 0.0]])

    def test_overlapping_windows_accumulate(self):
        x = Tensor([[1.0, 9.0, 2.0]], requires_grad=True)
        out = T.sum_all(T.maxpool1d(x, window=2, stride=1))
        grads = backward(out, leaves=[x])
        # position 1 wins both windows
        np.testing.assert_array_equal(grads[x], [[0.0, 2.0, 0.0]])

    def test_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            T.maxpool1d(Tensor(np.ones((1, 3))), window=4, stride=1)


class TestActivation:
    def test_relu(self):
        x = Tensor([-1.0, 0.0, 2.0])
        np.testing.assert_array_equal(T.activation(x, "relu").data, [0.0, 0.0, 2.0])

    def test_tanh_range(self):
        x = Tensor(np.linspace(-100, 100, 41))
        out = T.activation(x, "tanh")
        assert np.all(np.abs(out.data) <= 1.0)

    def test_linear_is_identity(self):
        x = Tensor([[1.5, -2.5]])
        np.testing.assert_array_equal(T.activation(x, "linear").data, x.data)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            T.activation(Tensor([1.0]), "sigmoid")

    def test_relu_gradient_zero_at_kink(self):
        x = Tensor([0.0], requires_grad=True)
        grads = backward(T.sum_all(T.activation(x, "relu")), leaves=[x])
        np.testing.assert_array_equal(grads[x], [0.0])

    def test_tanh_gradient(self):
        x = Tensor(np.random.default_rng(1).standard_normal(6), requires_grad=True)
        err = grad_check(lambda: T.sum_all(T.activation(x, "tanh")), [x])
        assert err < 1e-6


class TestShapeOps:
    def test_reshape_roundtrip(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        y = T.reshape(x, (3, 2))
        grads = backward(T.sum_all(T.activation(y, "tanh")), leaves=[x])
        assert grads[x].shape == (2, 3)

    def test_reshape_bad_size(self):
        with pytest.raises(ShapeError):
            T.reshape(Tensor(np.ones((2, 3))), (4, 2))

    def test_concat_axis0(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.zeros((1, 3)))
        out = T.concat([a, b], axis=0)
        assert out.shape == (3, 3)

    def test_concat_gradient_splits(self):
        a = Tensor(np.ones(2), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        out = T.concat([a, b])
        weights = Tensor([1.0, 2.0, 3.0, 4.0, 5.0])
        grads = backward(T.sum_all(T.elementwise("mul", out, weights)), leaves=[a, b])
        np.testing.assert_array_equal(grads[a], [1.0, 2.0])
        np.testing.assert_array_equal(grads[b], [3.0, 4.0, 5.0])

    def test_gather_rows_forward(self):
        x = Tensor(np.arange(12.0).reshape(4, 3))
        out = T.gather_rows(x, [2, 0])
        np.testing.assert_array_equal(out.data, [[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]])

    def test_gather_rows_duplicate_index_accumulates(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = T.gather_rows(x, [0, 0, 1])
        grads = backward(T.sum_all(out), leaves=[x])
        np.testing.assert_array_equal(grads[x], [2.0, 1.0])

    def test_gather_out_of_range(self):
        with pytest.raises(IndexError):
            T.gather_rows(Tensor([1.0, 2.0]), [2])

    def test_take_column(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = T.take_column(x, 1)
        np.testing.assert_array_equal(out.data, [1.0, 4.0])
        grads = backward(T.sum_all(out), leaves=[x])
        np.testing.assert_array_equal(grads[x], [[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])

    def test_rowscale(self):
        x = Tensor(np.ones((2, 3)))
        s = Tensor([2.0, -1.0])
        out = T.rowscale(x, s)
        np.testing.assert_array_equal(out.data, [[2.0, 2.0, 2.0], [-1.0, -1.0, -1.0]])

    def test_rowscale_gradients(self):
        rng = np.random.default_rng(9)
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        s = Tensor(rng.standard_normal(3), requires_grad=True)
        err = grad_check(lambda: T.sum_all(T.activation(T.rowscale(x, s), "tanh")), [x, s])
        assert err < 1e-6


class TestSoftmaxRows:
    def test_rows_sum_to_one(self):
        z = Tensor(np.random.default_rng(2).standard_normal((5, 4)))
        u = T.softmax_rows(z)
        np.testing.assert_allclose(u.data.sum(axis=1), np.ones(5), rtol=0, atol=1e-12)
        assert np.all(u.data >= 0.0)

    def test_stable_under_large_logits(self):
        z = Tensor([[1000.0, 1000.0, 999.0]])
        u = T.softmax_rows(z)
        assert u.is_finite()
        np.testing.assert_allclose(u.data.sum(), 1.0, atol=1e-12)

    def test_uniform_at_zero_logits(self):
        u = T.softmax_rows(Tensor(np.zeros((3, 4))))
        np.testing.assert_array_equal(u.data, np.full((3, 4), 0.25))

    def test_gradient(self):
        z = Tensor(np.random.default_rng(4).standard_normal((3, 5)), requires_grad=True)
        w = Tensor(np.random.default_rng(5).standard_normal((3, 5)))
        err = grad_check(lambda: T.sum_all(T.elementwise("mul", T.softmax_rows(z), w)), [z])
        assert err < 1e-6


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        grads = backward(T.sum_all(x), leaves=[x])
        np.testing.assert_array_equal(grads[x], np.ones((2, 3)))

    def test_squared_error_gradient(self):
        # loss = (y - t)^2, dloss/dy = 2(y - t)
        y = Tensor([3.0], requires_grad=True)
        t = Tensor([1.0])
        d = T.elementwise("sub", y, t)
        grads = backward(T.sum_all(T.elementwise("mul", d, d)), leaves=[y])
        np.testing.assert_array_equal(grads[y], [4.0])

    def test_reused_tensor_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        grads = backward(T.sum_all(T.elementwise("mul", x, x)), leaves=[x])
        np.testing.assert_array_equal(grads[x], [4.0])

    def test_untouched_leaf_gets_zeros(self):
        x = Tensor([1.0], requires_grad=True)
        z = Tensor(np.ones((2, 2)), requires_grad=True)
        grads = backward(T.sum_all(T.elementwise("mul", x, 3.0)), leaves=[x, z])
        np.testing.assert_array_equal(grads[z], np.zeros((2, 2)))

    def test_non_scalar_loss_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            backward(T.elementwise("mul", x, 2.0))

    def test_linearity_of_gradients(self):
        # each leaf feeds f and g through disjoint single uses, so the
        # accumulated gradient is one two-term IEEE addition on each side
        rng = np.random.default_rng(8)
        xv = rng.standard_normal(4)
        wf = rng.standard_normal(4)
        wg = rng.standard_normal(4)

        x1 = Tensor(xv.copy(), requires_grad=True)
        gf = backward(T.sum_all(T.elementwise("mul", x1, Tensor(wf))), leaves=[x1])[x1]
        x2 = Tensor(xv.copy(), requires_grad=True)
        gg = backward(T.sum_all(T.elementwise("mul", x2, Tensor(wg))), leaves=[x2])[x2]

        x3 = Tensor(xv.copy(), requires_grad=True)
        both = T.elementwise("add", T.sum_all(T.elementwise("mul", x3, Tensor(wf))),
                             T.sum_all(T.elementwise("mul", x3, Tensor(wg))))
        gsum = backward(both, leaves=[x3])[x3]
        np.testing.assert_array_equal(gsum, gf + gg)

    def test_composite_network_gradients(self):
        rng = np.random.default_rng(12)
        x = Tensor(rng.standard_normal((2, 8)))
        k = Tensor(rng.standard_normal((3, 2, 3)) * 0.5, requires_grad=True)
        b = Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)
        w = Tensor(rng.standard_normal((1, 12)) * 0.3, requires_grad=True)

        def f():
            h = T.activation(T.conv1d(x, k, b), "tanh")
            p = T.maxpool1d(h, window=2, stride=2)
            flat = T.reshape(p, (12, 1))
            return T.sum_all(T.matmul(w, flat))

        assert grad_check(f, [k, b, w]) < 1e-5

    def test_grad_fields_are_set(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        backward(T.sum_all(T.elementwise("mul", x, x)), leaves=[x])
        np.testing.assert_array_equal(x.grad, [2.0, -4.0])

    def test_backward_twice_overwrites(self):
        x = Tensor([3.0], requires_grad=True)
        backward(T.sum_all(T.elementwise("mul", x, 2.0)), leaves=[x])
        backward(T.sum_all(T.elementwise("mul", x, 2.0)), leaves=[x])
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_second_backward_through_a_consumed_graph_raises(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        h = T.activation(T.elementwise("mul", x, 3.0), "tanh")
        loss = T.sum_all(h)
        backward(loss, leaves=[x])
        with pytest.raises(GraphConsumedError, match="already consumed"):
            backward(loss, leaves=[x])
        with pytest.raises(GraphConsumedError, match="already consumed"):
            backward(T.sum_all(T.elementwise("mul", h, h)), leaves=[x])  # a new graph on a consumed node

    def test_backward_frees_the_saved_activations(self):
        rng = np.random.default_rng(13)
        w = Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        h = T.activation(T.matmul(w, Tensor(rng.standard_normal((3, 5)))), "tanh")  # its rule keeps its output
        saved = weakref.ref(h.data)
        loss = T.sum_all(T.elementwise("mul", h, h))
        del h
        assert saved() is not None
        backward(loss, leaves=[w])
        assert saved() is None
        assert loss.item() > 0.0

    def test_leaf_gradients_never_alias(self):
        # the add rule hands one array to both operands
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        grads = backward(T.sum_all(T.elementwise("add", a, b)), leaves=[a, b])
        assert grads[a] is a.grad and grads[b] is b.grad
        assert not np.shares_memory(a.grad, b.grad)
        a.grad[0] = 7.0
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_gradients_land_in_the_buffers_the_caller_maps(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        unused = Tensor([5.0], requires_grad=True)
        flat = np.full(5, np.nan)
        into = {a: flat[:2], b: flat[2:4], unused: flat[4:]}
        grads = backward(T.sum_all(T.elementwise("add", T.elementwise("mul", a, b), a)), leaves=into)
        np.testing.assert_array_equal(flat, [4.0, 5.0, 1.0, 2.0, 0.0])
        assert all(grads[t] is into[t] and t.grad is into[t] for t in into)

    @staticmethod
    def handed_out(monkeypatch) -> list[tuple[Tensor, bool]]:
        """Record each leaf a rule asks to compute its gradient in place,
        and whether the sweep handed it the caller's array."""
        asked = []

        def recorded(leaf):
            out = grad_out(leaf)
            asked.append((leaf, out is not None))
            return out

        grad_out = T._leaf_grad_out
        monkeypatch.setattr(T, "_leaf_grad_out", recorded)
        return asked

    @pytest.mark.parametrize("grouping, groups", [("none", 1), ("explicit", 2)])
    def test_mapped_gradients_match_unmapped_through_shared_kernels(self, monkeypatch, grouping, groups):
        # an rcnn stage runs its kernels three times: the sweep's first
        # contribution is computed straight into the mapped array, the other
        # two are added to it, and the bits are those of unmapped gradients
        from gcnn.models import ModelSpec, build_model

        spec = ModelSpec(input_channels=6, input_width=8, grouping=grouping, groups=groups, stage_channels=(4, 4),
                         dense_units=(3, 1), recurrent=True, iterations=3)
        model = build_model(spec, assignment=[1, 2, 1, 2, 2, 1] if groups > 1 else None, seed=4)
        x = Tensor(np.random.default_rng(5).standard_normal((5, 6, 8)))
        params = [t for _, t in model.named_params()]

        def loss():
            out = model.forward(x)
            return T.sum_all(T.elementwise("mul", out, out))

        plain = {t: g.copy() for t, g in backward(loss(), leaves=params).items()}
        asked = self.handed_out(monkeypatch)
        flat = np.full(model.vector.size, np.nan)
        backward(loss(), leaves=dict(zip(params, model.param_views(flat))))
        for (name, t), g in zip(model.named_params(), model.param_views(flat)):
            assert g.tobytes() == plain[t].tobytes(), name
        kernels = [t for name, t in model.named_params() if name.endswith("kernels")]
        assert [sum(got for leaf, got in asked if leaf is k) for k in kernels] == [1] * len(kernels)
        assert 3 in [sum(leaf is k for leaf, _ in asked) for k in kernels]  # the shared kernels

    @pytest.mark.parametrize("twice, transposed", [(True, False), (False, True)],
                             ids=["kernel-twice-in-one-call", "transposed-array"])
    def test_mapped_kernel_gradient_that_is_not_all_computed_in_place(self, twice, transposed):
        # a rule that returns two contributions for one leaf may compute only
        # one of them in the mapped array; a transposed array cannot take the
        # GEMM's output through a reshape, so the gradient is copied into it
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((2, 6 if twice else 3, 7)))
        k = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)

        def loss():
            out = T.grouped_conv1d(x, [k, k], [b, b]) if twice else T.conv1d(x, k, b)
            return T.sum_all(T.elementwise("mul", out, out))

        plain = backward(loss(), leaves=[k])[k].copy()
        mapped = np.full((4, 3, 3), np.nan)
        if transposed:
            mapped = mapped.transpose(0, 2, 1)
        backward(loss(), leaves={k: mapped})
        assert mapped.tobytes() == plain.tobytes()

    def test_mapped_gradient_after_a_non_convolution_contribution(self, monkeypatch):
        # a kernel that a penalty reaches before the convolution keeps the
        # penalty's gradient and has the convolution's added to it
        rng = np.random.default_rng(6)
        x = Tensor(rng.standard_normal((2, 3, 7)))
        k = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal(4), requires_grad=True)
        asked = self.handed_out(monkeypatch)
        outcomes = set()
        for penalty_first in (True, False):
            def loss():
                conv, penalty = T.sum_all(T.conv1d(x, k, b)), T.sum_all(T.elementwise("mul", k, k))
                return T.elementwise("add", penalty, conv) if penalty_first else T.elementwise("add", conv, penalty)

            plain = backward(loss(), leaves=[k, b])[k].copy()
            asked.clear()
            flat = np.full(k.size + b.size, np.nan)
            backward(loss(), leaves={k: flat[: k.size].reshape(k.shape), b: flat[k.size :]})
            assert flat[: k.size].tobytes() == plain.tobytes()
            (leaf, got), = asked
            outcomes.add(got)
        assert outcomes == {True, False}


# every primitive whose result can land on a tape: operand shapes and a call
TAPED_PRIMITIVES = {
    "conv1d": ([(2, 3, 6), (4, 3, 3), (4,)], T.conv1d),
    "channelwise_conv1d": ([(3, 6), (2, 3)], T.channelwise_conv1d),
    "maxpool1d": ([(3, 7)], lambda x: T.maxpool1d(x, 3, 2)),
    "matmul": ([(3, 4), (4, 2)], T.matmul),
    "activation": ([(3, 4)], lambda x: T.activation(x, "relu")),
    "concat": ([(2, 3), (1, 3)], lambda a, b: T.concat([a, b])),
    "gather_rows": ([(3, 4)], lambda x: T.gather_rows(x, [2, 0, 2])),
    "reshape": ([(3, 4)], lambda x: T.reshape(x, (4, 3))),
    "rowscale": ([(2, 3, 4), (3,)], T.rowscale),
    "take_column": ([(3, 4)], lambda x: T.take_column(x, 1)),
    "softmax_rows": ([(3, 4)], T.softmax_rows),
    "elementwise": ([(3, 4), (4,)], lambda a, b: T.elementwise("mul", a, b)),
    "neg": ([(3, 4)], T.neg),
    "sum_all": ([(3, 4)], T.sum_all),
    "mean_all": ([(3, 4)], T.mean_all),
}


def taped_operands(shapes, requires_grad):
    rng = np.random.default_rng(31)
    return [Tensor(rng.standard_normal(shape), requires_grad=requires_grad) for shape in shapes]


def assert_untaped(t):
    assert t._rule is None and t._parents == () and not t.requires_grad


class TestNoGrad:
    @pytest.mark.parametrize("name", list(TAPED_PRIMITIVES))
    def test_no_grad_forward_records_nothing_and_keeps_the_bits(self, name):
        shapes, op = TAPED_PRIMITIVES[name]
        taped = op(*taped_operands(shapes, True))
        assert taped._rule is not None and taped.requires_grad
        with no_grad():
            out = op(*taped_operands(shapes, True))
        assert_untaped(out)
        assert out.data.shape == taped.data.shape and out.data.tobytes() == taped.data.tobytes()

    @pytest.mark.parametrize("name", list(TAPED_PRIMITIVES))
    def test_no_rule_when_no_parent_needs_a_gradient(self, name):
        shapes, op = TAPED_PRIMITIVES[name]
        assert_untaped(op(*taped_operands(shapes, False)))

    def test_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = T.elementwise("mul", x, 2.0)
        assert y._rule is None and not y.requires_grad

    def test_restores_on_exit(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            pass
        y = T.elementwise("mul", x, 2.0)
        assert y.requires_grad


class TestDeterminism:
    def test_identical_runs_bit_exact(self):
        def run():
            rng = np.random.default_rng(99)
            x = Tensor(rng.standard_normal((3, 10)))
            k = Tensor(rng.standard_normal((4, 3, 3)), requires_grad=True)
            b = Tensor(rng.standard_normal(4), requires_grad=True)
            out = T.sum_all(T.activation(T.conv1d(x, k, b), "tanh"))
            grads = backward(out, leaves=[k, b])
            return out.item(), grads[k].copy(), grads[b].copy()

        v1, gk1, gb1 = run()
        v2, gk2, gb2 = run()
        assert v1 == v2
        np.testing.assert_array_equal(gk1, gk2)
        np.testing.assert_array_equal(gb1, gb2)
