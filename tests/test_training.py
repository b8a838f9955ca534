"""Trainer: loss/SRMSE arithmetic against hand values, optimization
behavior, checkpoint selection, reproducibility, and baselines."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from gcnn import tensor as T
from gcnn.data import SplitSpec, WindowedRegressionSet, make_windows, split
from gcnn.errors import ConfigError, DataError, NumericalError
from gcnn.layers import DenseLayer, FlattenLayer, draw
from gcnn.models import Model, ModelSpec, build_model, preset
from gcnn.synth import SynthSpec, generate
from gcnn.tensor import Tensor, grad_check
from gcnn import training as R
from gcnn.training import (
    TrainConfig,
    evaluate,
    linear_baseline,
    mse_loss,
    sgd_step,
    srmse,
    train,
)

TINY = ModelSpec(
    input_channels=3,
    input_width=8,
    stage_channels=(4,),
    pool_before=(),
    dense_units=(4, 1),
)


def linear_model(channels, window, seed=0):
    """Flatten + single linear dense layer, wrapped as a Model, bound and
    drawn the way build_model binds and draws."""
    spec = ModelSpec(input_channels=channels, input_width=window, stage_channels=(1,),
                     pool_before=(), kernel_width=1, dense_units=(1,))
    record = []
    model = Model(spec, [FlattenLayer(), DenseLayer(channels * window, 1, "linear", record=record)], None, seed)
    model.bind()
    draw(record, np.random.default_rng(seed))
    return model


def linear_task(channels=3, window=4, samples=84, seed=1):
    """Windowed set whose target is an exact linear map of the window."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal((channels, window)) / np.sqrt(channels * window)
    inputs = rng.standard_normal((samples, channels, window))
    targets = np.einsum("scw,cw->s", inputs, coeffs)
    return WindowedRegressionSet(
        inputs=inputs,
        targets=targets,
        times=np.arange(samples, dtype=float),
        channel_names=[f"c{i}" for i in range(channels)],
        target_name="y",
        window=window,
    )


class TestMseLoss:
    def test_zero_at_perfect(self):
        y = Tensor([1.0, 2.0, 3.0])
        assert mse_loss(y, Tensor([1.0, 2.0, 3.0])).item() == 0.0

    def test_hand_value(self):
        assert mse_loss(Tensor([0.0]), Tensor([2.0])).item() == 4.0

    def test_gradient_is_scaled_residual(self):
        y = Tensor([3.0, 1.0], requires_grad=True)
        t = Tensor([1.0, 1.0])
        grads = T.backward(mse_loss(y, t), leaves=[y])
        np.testing.assert_allclose(grads[y], [2.0 * 2.0 / 2, 0.0])
        err = grad_check(lambda: mse_loss(y, t), [y])
        assert err < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(DataError):
            mse_loss(Tensor([1.0, 2.0]), Tensor([1.0, 2.0, 3.0]))


class TestSrmse:
    def test_perfect_zero(self):
        value, rmse, se = srmse(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        assert value == 0.0 and rmse == 0.0

    def test_mean_prediction_is_exactly_one(self):
        targets = np.array([1.0, 3.0, 5.0, 7.0])
        preds = np.full(4, targets.mean())
        value, rmse, se = srmse(preds, targets)
        assert value == 1.0
        assert rmse == se

    def test_hand_case_sqrt2(self):
        value, rmse, se = srmse(np.array([0.0, 0.0]), np.array([0.0, 2.0]))
        assert se == 1.0
        assert rmse == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert value == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_constant_targets_give_nan(self):
        value, rmse, se = srmse(np.array([1.0, 2.0]), np.array([3.0, 3.0]))
        assert math.isnan(value)
        assert se == 0.0
        assert rmse > 0.0


class TestTrainConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1e-3)
        with pytest.raises(ConfigError):
            TrainConfig(momentum=1.0)
        with pytest.raises(ConfigError):
            TrainConfig(val_fraction=1.0)

    def test_zero_learning_rate_allowed(self):
        TrainConfig(learning_rate=0.0)


class TestTrain:
    def test_zero_lr_leaves_params_untouched(self):
        model = build_model(TINY, seed=2)
        before = [t.data.copy() for _, t in model.named_params()]
        wset = linear_task(channels=3, window=8, samples=30)
        train(model, wset, TrainConfig(epochs=3, learning_rate=0.0, seed=0))
        for (name, t), old in zip(model.named_params(), before):
            np.testing.assert_array_equal(t.data, old)

    def test_linear_task_converges(self):
        wset = linear_task()
        model = linear_model(3, 4, seed=3)
        result = train(model, wset, TrainConfig(epochs=200, learning_rate=0.05, batch_size=16, seed=0))
        assert result.history[-1].train_srmse < 0.05

    def test_loss_decreases_on_quadratic(self):
        # one tiny SGD step on a fresh model must reduce the full-batch loss
        wset = linear_task(samples=20)
        for seed in range(3):
            model = linear_model(3, 4, seed=seed)
            report_before = evaluate(model, wset)
            train(model, wset, TrainConfig(epochs=1, learning_rate=1e-4,
                                           batch_size=20, val_fraction=0.0, seed=0))
            report_after = evaluate(model, wset)
            assert report_after.rmse < report_before.rmse

    def test_best_checkpoint_dominates_history(self):
        wset = linear_task(samples=60)
        model = linear_model(3, 4, seed=5)
        result = train(model, wset, TrainConfig(epochs=25, learning_rate=0.05, seed=1))
        best_logged = min(h.val_srmse for h in result.history)
        assert result.best_val_srmse == best_logged
        # restored parameters reproduce the recorded best validation score
        n = wset.n_samples
        n_val = max(1, int(n * 0.1))
        val = wset.subset(range(n - n_val, n))
        assert evaluate(model, val).srmse == result.best_val_srmse

    def test_bit_exact_reproducible(self):
        wset = linear_task(samples=40)
        runs = []
        for _ in range(2):
            model = linear_model(3, 4, seed=7)
            result = train(model, wset, TrainConfig(epochs=5, learning_rate=0.01, seed=11))
            runs.append((result, [t.data.copy() for _, t in model.named_params()]))
        hist_a, hist_b = runs[0][0].history, runs[1][0].history
        assert [(h.train_srmse, h.val_srmse, h.loss) for h in hist_a] == [
            (h.train_srmse, h.val_srmse, h.loss) for h in hist_b
        ]
        for pa, pb in zip(runs[0][1], runs[1][1]):
            np.testing.assert_array_equal(pa, pb)

    def test_divergence_guard_reports_epoch(self):
        wset = linear_task(samples=30)
        model = linear_model(3, 4, seed=9)
        config = TrainConfig(epochs=50, learning_rate=1e30, clip_norm=1e300, seed=0)
        with np.errstate(over="ignore"), pytest.raises(NumericalError, match="epoch"):
            train(model, wset, config)

    def test_momentum_changes_trajectory(self):
        wset = linear_task(samples=40)
        plain = linear_model(3, 4, seed=13)
        train(plain, wset, TrainConfig(epochs=5, learning_rate=0.01, seed=3))
        heavy = linear_model(3, 4, seed=13)
        train(heavy, wset, TrainConfig(epochs=5, learning_rate=0.01, momentum=0.9, seed=3))
        diffs = [
            not np.array_equal(a.data, b.data)
            for (_, a), (_, b) in zip(plain.named_params(), heavy.named_params())
        ]
        assert any(diffs)

    def test_epoch_hook_called_every_epoch(self):
        wset = linear_task(samples=30)
        model = linear_model(3, 4, seed=15)
        seen = []
        train(model, wset, TrainConfig(epochs=4, learning_rate=0.01, seed=0),
              epoch_hook=lambda epoch, m: seen.append(epoch))
        assert seen == [1, 2, 3, 4]

    @pytest.mark.parametrize("momentum, epochs, buffers", [
        (0.0, 2, 2), (0.9, 2, 3), (0.0, 1, 1), (0.9, 1, 2),
    ], ids=["momentum-0", "momentum-0.9", "momentum-0-one-epoch", "momentum-0.9-one-epoch"])
    def test_parameter_sized_buffers_alive_between_epochs(self, momentum, epochs, buffers):
        # the gradient vector, the best-epoch snapshot only when a later
        # epoch follows, and the velocity only with momentum: nothing else
        # parameter-sized outlives a step
        spec = ModelSpec(input_channels=3, input_width=4, stage_channels=(64,), pool_before=(),
                         dense_units=(256, 1))
        model = build_model(spec, seed=1)
        vector = model.vector
        wset = linear_task(channels=3, window=4, samples=20)
        held = []
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(model, wset, TrainConfig(epochs=epochs, batch_size=8, momentum=momentum, seed=0),
                  epoch_hook=lambda epoch, m: held.append(tracemalloc.get_traced_memory()[0] - base))
        finally:
            tracemalloc.stop()
        assert [round(h / vector.nbytes, 1) for h in held] == [buffers] * epochs
        # trained in place: every parameter is still a view of the one vector
        assert model.vector is vector
        assert all(t.data.base is vector for _, t in model.named_params())

    def test_one_epoch_water_cnn_step_peaks_under_40_mb(self):
        # the vector (19.5 MB) is built before tracing starts; a one-epoch
        # run adds one gradient vector and no snapshot, and kernel
        # gradients are computed straight into the gradient vector
        model = build_model(preset("water-cnn"), seed=0)
        rng = np.random.default_rng(0)
        wset = WindowedRegressionSet(inputs=rng.standard_normal((18, 87, 64)), targets=rng.standard_normal(18),
                                     times=np.arange(18.0), channel_names=[f"c{i}" for i in range(87)],
                                     target_name="y", window=64)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            train(model, wset, TrainConfig(epochs=1, val_fraction=0.15))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    @pytest.mark.parametrize("learning_rate, best_epoch", [(0.5, 4), (0.05, 6)], ids=["middle", "last"])
    def test_returned_parameters_are_the_best_epoch_bit_for_bit(self, learning_rate, best_epoch):
        wset = linear_task(samples=40, seed=3)
        model = linear_model(3, 4, seed=5)
        seen = []
        result = train(model, wset, TrainConfig(epochs=6, learning_rate=learning_rate, batch_size=8, seed=1),
                       epoch_hook=lambda epoch, m: seen.append(m.vector.copy()))
        assert result.best_epoch == best_epoch
        assert model.vector.tobytes() == seen[best_epoch - 1].tobytes()

    def test_no_finite_validation_score_raises(self):
        # validation windows of 1e300 overflow every validation SRMSE to inf
        # while training stays finite: no epoch can be returned
        wset = linear_task(samples=20)
        wset.inputs[-2:] = 1e300
        with np.errstate(over="ignore"), \
                pytest.raises(NumericalError, match="no epoch of 3 has a finite validation SRMSE"):
            train(linear_model(3, 4), wset, TrainConfig(epochs=3, val_fraction=0.1))

    def test_no_finite_training_score_raises_without_a_validation_tail(self):
        # with no tail epochs are ranked by training SRMSE, which constant
        # targets leave NaN every epoch
        wset = linear_task(samples=20)
        wset.targets[:] = 0.5
        with pytest.raises(NumericalError, match="no epoch of 3 has a finite training SRMSE"):
            train(linear_model(3, 4), wset, TrainConfig(epochs=3, val_fraction=0.0))

    def test_grouped_synthetic_improves(self):
        data = generate(SynthSpec(n_groups=2, per_group=3, length=160, seed=4))
        wset = make_windows(data, "target", window=8)
        train_set, test_set = split(wset, SplitSpec(0.9))
        spec = ModelSpec(input_channels=6, input_width=8, grouping="explicit", groups=2,
                         stage_channels=(8, 8), pool_before=(2,), pool_window=2, pool_stride=2,
                         dense_units=(8, 1))
        assignment = [1, 1, 1, 2, 2, 2]
        model = build_model(spec, assignment=assignment, seed=0)
        before = evaluate(model, test_set).srmse
        result = train(model, train_set, TrainConfig(epochs=30, learning_rate=0.01, seed=0))
        after = evaluate(model, test_set).srmse
        assert after < before
        assert after < 1.0


# around numpy's unsplit block of 128, its 8-wide unrolling, and the
# block sizes; the largest is a drone-cnn kernel (750 x 750 x 3)
NORM_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1000, 1023, 1024, 1025, 8191, 8192, 8193, 65535, 65536, 65537,
              100_003, 750 * 750 * 3]


@pytest.fixture(scope="module")
def wide_range_values():
    """Values over 17 decades, so a sum taken in another order rounds
    differently."""
    rng = np.random.default_rng(21)
    n = max(NORM_SIZES) + 1024
    return rng.standard_normal(n) * np.exp(rng.uniform(-20.0, 20.0, n))


class TestGradientNorm:
    @pytest.mark.parametrize("block", [1024, 8192, R.NORM_BLOCK])
    def test_sum_of_squares_is_numpys_bit_for_bit(self, wide_range_values, monkeypatch, block):
        monkeypatch.setattr(R, "NORM_BLOCK", block)
        for n in NORM_SIZES:
            for offset in (0, 3):  # an unaligned start too
                g = wide_range_values[offset : offset + n]
                assert R._sum_of_squares(g) == float((g * g).sum()), n
        kernel = wide_range_values[: 750 * 750 * 3].reshape(750, 750, 3)
        assert R._sum_of_squares(kernel) == float((kernel * kernel).sum())

    def test_sgd_step_norm_holds_no_span_sized_temporary(self, wide_range_values):
        shapes = [(750, 750, 3), (750,), (5, 3)]
        sizes = [math.prod(s) for s in shapes]
        grad = wide_range_values[: sum(sizes)].copy()
        spans = [a.reshape(s) for a, s in zip(np.split(grad, np.cumsum(sizes)[:-1]), shapes)]
        want = math.sqrt(sum(float((g * g).sum()) for g in spans))
        params = np.zeros_like(grad)
        tracemalloc.start()
        try:
            got = sgd_step(params, grad, spans, None, TrainConfig(clip_norm=math.inf))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak <= 8 * R.NORM_BLOCK + 2**16  # one block's square, not a 13.5 MB square of the kernel


class TestEvaluate:
    def test_report_fields(self):
        wset = linear_task(samples=12)
        model = linear_model(3, 4, seed=17)
        report = evaluate(model, wset, model_id="tiny")
        assert report.model_id == "tiny"
        assert report.target_name == "y"
        assert len(report.predictions) == 12
        if report.se > 0:
            assert report.srmse == report.rmse / report.se

    def test_empty_set_rejected(self):
        wset = linear_task(samples=5)
        model = linear_model(3, 4, seed=19)
        with pytest.raises(DataError):
            evaluate(model, wset.subset([]))


class TestLinearBaseline:
    def test_interpolates_noiseless_linear_data(self):
        wset = linear_task(samples=80)
        train_set, test_set = split(wset, SplitSpec(0.8))
        report = linear_baseline(train_set, test_set, ridge_lambda=0.0)
        assert report.srmse < 1e-6

    def test_heavy_ridge_shrinks_to_intercept(self):
        wset = linear_task(samples=80)
        train_set, test_set = split(wset, SplitSpec(0.8))
        report = linear_baseline(train_set, test_set, ridge_lambda=1e12)
        # prediction collapses to roughly the train-mean intercept
        assert report.srmse > 0.9

    def test_matches_pseudoinverse_oracle(self):
        rng = np.random.default_rng(21)

        wset = WindowedRegressionSet(
            inputs=rng.standard_normal((5, 1, 2)),
            targets=rng.standard_normal(5),
            times=np.arange(5.0),
            channel_names=["c0"],
            target_name="y",
            window=2,
        )
        report = linear_baseline(wset, wset, ridge_lambda=0.0)
        x = np.hstack([np.ones((5, 1)), wset.inputs.reshape(5, -1)])
        oracle = x @ (np.linalg.pinv(x) @ wset.targets)
        np.testing.assert_allclose(report.predictions, oracle, atol=1e-8)

    def test_singular_system_reported(self):

        rng = np.random.default_rng(22)
        inputs = rng.standard_normal((6, 2, 2))
        inputs[:, 1, :] = 0.0  # dead channel makes the gram singular
        wset = WindowedRegressionSet(
            inputs=inputs,
            targets=rng.standard_normal(6),
            times=np.arange(6.0),
            channel_names=["c0", "c1"],
            target_name="y",
            window=2,
        )
        with pytest.raises(NumericalError, match="ridge"):
            linear_baseline(wset, wset, ridge_lambda=0.0)
        linear_baseline(wset, wset, ridge_lambda=1e-3)  # ridge rescues it

    def test_negative_ridge_rejected(self):
        wset = linear_task(samples=10)
        with pytest.raises(ConfigError):
            linear_baseline(wset, wset, ridge_lambda=-1.0)


class TestSilentFailureGuards:
    def test_one_sample_validation_tail_is_rejected_with_counts(self):
        # 17 samples at val_fraction 0.1 leave a 1-sample tail: SRMSE is
        # NaN every epoch and no epoch could ever be selected
        wset = linear_task(samples=17)
        with pytest.raises(DataError, match="1 of 17"):
            train(linear_model(3, 4), wset, TrainConfig(epochs=2, learning_rate=0.01))

    def test_constant_validation_targets_are_rejected(self):
        wset = linear_task(samples=30)
        wset.targets[-3:] = 0.5
        with pytest.raises(DataError, match="3 of 30"):
            train(linear_model(3, 4), wset, TrainConfig(epochs=2, learning_rate=0.01))

    def test_no_validation_tail_still_trains(self):
        wset = linear_task(samples=17)
        result = train(linear_model(3, 4), wset, TrainConfig(epochs=2, val_fraction=0.0))
        assert result.best_epoch >= 1

    def test_non_finite_gradient_raises_before_any_update(self):
        # inputs and targets near 1e80 keep the loss finite (~1e160) while
        # the squared gradient norm overflows
        wset = linear_task(samples=30)
        big = dataclasses.replace(wset, inputs=wset.inputs * 1e80, targets=wset.targets * 1e80)
        model = linear_model(3, 4, seed=2)
        before = [t.data.copy() for _, t in model.named_params()]
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(NumericalError, match="gradient at epoch 1"):
            train(model, big, TrainConfig(epochs=3, learning_rate=0.01, seed=0))
        for (_, t), b in zip(model.named_params(), before):
            np.testing.assert_array_equal(t.data, b)

