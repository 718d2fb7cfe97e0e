import multiprocessing
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracles import (
    central_difference_check,
    fd_preactivation_gradient,
    random_model_and_batch,
    reference_gradient,
    reference_preactivation_grads,
)
from glassopt import glass, harness, netkit, oracles
from glassopt.alice import Alice, AliceConfig
from glassopt.netkit import Batch, ConfigError, ModelSpec, NumericsError


class TestModelSpec:
    def test_param_count_2_3_1(self):
        assert ModelSpec((2, 3, 1)).param_count == 13

    def test_param_count_matches_slices(self):
        spec = ModelSpec((4, 7, 5, 2))
        w_sl, b_sl, _ = spec.layer_slices()[-1]
        assert b_sl.stop == spec.param_count

    def test_zero_width_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec((4, 0, 1))

    def test_no_hidden_layer_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec((4, 1))

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError):
            ModelSpec((2, 3, 1), "hinge")

    def test_layer_partitions_cover_params(self):
        spec = ModelSpec((3, 4, 4, 2))
        idx = np.concatenate([spec.layer_param_indices(i) for i in range(spec.n_layers)])
        assert np.array_equal(np.sort(idx), np.arange(spec.param_count))


class TestBuildModel:
    def test_deterministic(self):
        spec = ModelSpec((2, 3, 1))
        assert np.array_equal(netkit.build_model(spec, 42), netkit.build_model(spec, 42))

    def test_seed_changes_params(self):
        spec = ModelSpec((2, 3, 1))
        assert not np.array_equal(netkit.build_model(spec, 0), netkit.build_model(spec, 1))

    def test_preactivation_scale_order_one(self):
        spec = ModelSpec((50, 80, 80, 10))
        params = netkit.build_model(spec, 0)
        x = np.random.default_rng(1).standard_normal((200, 50))
        preacts, _ = netkit.forward(spec, params, x)
        for y in preacts[:-1]:
            assert 0.3 < y.std() < 3.0


@pytest.mark.parametrize(
    "entry",
    [
        lambda seed, grad_fn: netkit.build_model(ModelSpec((2, 3, 1)), seed),
        lambda seed, grad_fn: glass.measure_variations(grad_fn, np.zeros(2), 0.1, 4, seed),
        lambda seed, grad_fn: Alice(np.zeros(2), AliceConfig(), seed),
        lambda seed, grad_fn: harness.make_classification_batch(
            harness.DataParams(samples=4), 2, 2, seed),
        lambda seed, grad_fn: harness.make_regression_batch(
            harness.DataParams(samples=4), 2, 2, seed),
    ],
    ids=["build_model", "measure_variations", "Alice", "classification_batch",
         "regression_batch"],
)
def test_seeded_entry_point_rejects_a_negative_seed(entry):
    calls = []

    def grad_fn(theta):
        calls.append(theta)
        return np.zeros_like(theta)

    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):
        entry(-1, grad_fn)
    assert calls == []
    entry(np.int64(2), grad_fn)


class TestLoss:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_loss_raises(self):
        # Finite outputs of 1e200 square past the float range.
        spec = ModelSpec((2, 3, 1))
        batch = Batch(np.ones((4, 2)), np.full((4, 1), 1e200))
        for fn in (netkit.loss, netkit.gradient):
            with pytest.raises(NumericsError, match="^non-finite loss inf$"):
                fn(spec, np.zeros(spec.param_count), batch)

    def test_zero_net_zero_targets(self):
        spec = ModelSpec((2, 3, 1))
        batch = Batch(np.ones((4, 2)), np.zeros((4, 1)))
        assert netkit.loss(spec, np.zeros(spec.param_count), batch) == 0.0

    def test_hand_computed_mse(self):
        # 2-in 2-out net with an identity-like positive hidden layer; the
        # expected value is written out longhand as an independent oracle.
        spec = ModelSpec((2, 2, 2))
        params = np.zeros(spec.param_count)
        w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
        b1 = np.array([2.0, 2.0])  # keeps both hidden units active
        w2 = np.array([[0.5, -1.0], [0.25, 1.5]])
        b2 = np.array([0.1, -0.2])
        params[0:4] = w1.ravel()
        params[4:6] = b1
        params[6:10] = w2.ravel()
        params[10:12] = b2
        x = np.array([[0.3, -0.4], [1.0, 0.7]])
        t = np.array([[0.0, 1.0], [1.0, 0.0]])
        hidden = np.maximum(x @ w1 + b1, 0.0)
        expected = float(np.mean((hidden @ w2 + b2 - t) ** 2))
        assert netkit.loss(spec, params, Batch(x, t)) == pytest.approx(expected, rel=1e-15)

    def test_uniform_logits_cross_entropy(self):
        spec = ModelSpec((3, 4, 5), "xent")
        batch = Batch(np.random.default_rng(0).standard_normal((6, 3)), np.arange(6) % 5)
        value = netkit.loss(spec, np.zeros(spec.param_count), batch)
        assert value == pytest.approx(np.log(5.0), rel=1e-12)

    def test_nonnegative(self):
        for loss_kind in ("mse", "xent"):
            spec, params, batch = random_model_and_batch(3, loss=loss_kind)
            assert netkit.loss(spec, params, batch) >= 0.0

    def test_dimension_mismatch(self):
        spec = ModelSpec((2, 3, 1))
        with pytest.raises(ConfigError):
            netkit.loss(spec, np.zeros(spec.param_count), Batch(np.ones((2, 3)), np.zeros((2, 1))))

    @pytest.mark.parametrize(
        "targets, message",
        [
            ([0, 3, 1], r"class indices must lie in \[0, 3\)"),
            ([-1, 0, 2], r"class indices must lie in \[0, 3\)"),
            ([0.0, 1.0, 2.0], "xent targets must be a length-n vector of class indices"),
        ],
    )
    def test_xent_targets_outside_the_classes_rejected(self, targets, message):
        spec = ModelSpec((2, 3, 3), "xent")
        batch = Batch(np.ones((3, 2)), np.array(targets))
        for fn in (netkit.loss, lambda *a: netkit.gradient(*a)[0]):
            with pytest.raises(ConfigError, match=message):
                fn(spec, np.zeros(spec.param_count), batch)


class TestGradient:
    def test_zero_net_zero_targets(self):
        spec = ModelSpec((2, 3, 1))
        batch = Batch(np.ones((4, 2)), np.zeros((4, 1)))
        _, grad = netkit.gradient(spec, np.zeros(spec.param_count), batch)
        assert np.all(grad == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("loss_kind", ["mse", "xent"])
    def test_matches_central_differences(self, seed, loss_kind):
        rel, passed = central_difference_check(*random_model_and_batch(seed, loss=loss_kind))
        assert passed, rel

    def test_kink_matches_inactive_side_convention(self):
        # One hidden unit sits exactly at zero; the analytic gradient must
        # match the one-sided difference from the side where it stays inactive.
        spec = ModelSpec((1, 1, 1))
        params = np.array([1.0, 0.0, 2.0, 0.5])  # w1=1, b1=0, w2=2, b2=0.5
        batch = Batch(np.array([[0.0]]), np.array([[1.0]]))  # pre-activation exactly 0
        _, grad = netkit.gradient(spec, params, batch)
        h = 1e-7
        db = params.copy()
        db[1] -= h  # pushing b1 down keeps the unit inactive
        loss_minus = netkit.loss(spec, db, batch)
        loss_zero = netkit.loss(spec, params, batch)
        one_sided = (loss_zero - loss_minus) / h
        assert grad[1] == pytest.approx(one_sided, abs=1e-6)
        assert grad[1] == 0.0  # derivative 0 at y = 0

    def test_nonfinite_error_names_layer(self):
        spec = ModelSpec((2, 3, 1))
        params = netkit.build_model(spec, 0)
        params[0] = np.inf
        with pytest.raises(NumericsError, match="layer 0"):
            netkit.gradient(spec, params, Batch(np.ones((1, 2)), np.zeros((1, 1))))


class TestAllFinite:
    """The one-pass finiteness check falls back to an entrywise test when unsure."""

    @pytest.mark.parametrize("shape", [(7,), (4, 5)])
    def test_finite_entries_whose_squares_or_sum_overflow(self, shape):
        x = np.full(shape, 1e308)
        x.flat[::2] = -1e308
        flags = np.empty(x.size, dtype=bool)
        assert netkit.all_finite(x) and netkit.all_finite(x, flags)
        assert netkit.all_finite(np.full(shape, 1e200))
        assert netkit.all_finite(np.zeros((0, 3)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("shape", [(7,), (4, 5)])
    def test_any_inf_or_nan_entry(self, shape, bad):
        for fill in (0.0, 1e308):
            x = np.full(shape, fill)
            x.flat[3] = bad
            assert not netkit.all_finite(x)
            assert not netkit.all_finite(x, np.empty(x.size, dtype=bool))

    def test_gradient_names_layer_of_minus_inf_preactivation(self):
        # The ReLU would turn a -inf pre-activation into 0; the check comes first.
        spec, params, batch = random_model_and_batch(11, (4, 6, 5, 3), "xent", 9)
        bad = params.copy()
        bad[spec.layer_slices()[1][1].start] = -np.inf  # a layer-1 bias
        with np.errstate(invalid="ignore"), pytest.raises(
            NumericsError, match="non-finite pre-activations at layer 1"
        ):
            netkit.gradient(spec, bad, batch)


def assert_matches_reference(spec, params, batch):
    value, grad = netkit.gradient(spec, params, batch)
    ref_value, ref_grad = reference_gradient(spec, params, batch)
    assert value == ref_value
    assert grad.tobytes() == ref_grad.tobytes()


class TestWorkspaceGradient:
    """netkit.gradient reuses per-thread buffers; results must not show it."""

    @pytest.mark.parametrize("n", [1, 128, 2000])
    @pytest.mark.parametrize("loss_kind", ["mse", "xent"])
    def test_bitwise_equal_to_reference(self, loss_kind, n):
        spec, params, batch = random_model_and_batch(n, (6, 17, 11, 4), loss_kind, n)
        assert_matches_reference(spec, params, batch)
        assert_matches_reference(spec, params, batch)  # second call reuses the workspace

    def test_interleaved_specs_and_batch_sizes(self):
        cases = [
            random_model_and_batch(0, (6, 17, 11, 4), "xent", 128),
            random_model_and_batch(1, (6, 17, 11, 4), "xent", 7),
            random_model_and_batch(2, (3, 5, 2), "mse", 128),
            random_model_and_batch(3, (6, 4, 23, 3), "mse", 128),
            random_model_and_batch(4, (3, 5, 2), "xent", 1),
        ]
        for case in cases + cases[::-1] + cases:
            assert_matches_reference(*case)

    def test_valid_call_after_numerics_error(self):
        spec, params, batch = random_model_and_batch(5, (4, 9, 7, 3), "xent", 50)
        bad = params.copy()
        bad[spec.layer_slices()[1][0]] = 1e308
        with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match="non-finite pre-activations at layer 1"
        ):
            netkit.gradient(spec, bad, batch)
        assert_matches_reference(spec, params, batch)

    def test_two_threads_concurrently(self):
        cases = [
            random_model_and_batch(6, (6, 17, 11, 4), "xent", 300),
            random_model_and_batch(7, (6, 17, 11, 4), "mse", 300),
            random_model_and_batch(8, (5, 30, 3), "xent", 64),
        ]
        expected = [reference_gradient(*case) for case in cases]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool:
                results = list(pool.map(lambda case: netkit.gradient(*case), cases * 30))
        finally:
            sys.setswitchinterval(interval)
        for k, (value, grad) in enumerate(results):
            ref_value, ref_grad = expected[k % len(cases)]
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

    def test_returned_gradient_is_fresh(self):
        spec, params, batch = random_model_and_batch(9, (6, 17, 11, 4), "xent", 128)
        _, first = netkit.gradient(spec, params, batch)
        expected = first.copy()
        first[:] = np.nan
        _, second = netkit.gradient(spec, params, batch)
        assert not np.shares_memory(first, second)
        assert second.tobytes() == expected.tobytes()

    def test_steady_state_full_batch_allocates_under_1mb(self):
        cfg = harness.load_config(Path(__file__).parents[1] / "docs/configs/probe_mlp.cfg")
        batch = harness.task_batch(cfg, 0)
        params = netkit.build_model(cfg.model, 0)
        assert (cfg.model.param_count, batch.size) == (9210, 2000)
        netkit.gradient(cfg.model, params, batch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            netkit.gradient(cfg.model, params, batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 1_000_000


    def test_warm_xent_head_allocates_no_batch_by_class_array(self):
        # The softmax head overwrites the output layer's workspace buffer, so a
        # warm call allocates the returned gradient (12.5 kB here), length-n
        # vectors and numpy's fixed-size ufunc buffers, and no (n, classes)
        # array of 160 kB.
        n, classes = 2000, 10
        spec, params, batch = random_model_and_batch(10, (20, 50, classes), "xent", n)
        netkit.gradient(spec, params, batch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            netkit.gradient(spec, params, batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < n * classes * 8


class TestWorkspaceLoss:
    """netkit.loss runs its forward pass through the same per-thread workspace."""

    @pytest.mark.parametrize("n", [1, 128, 2000])
    @pytest.mark.parametrize("loss_kind", ["mse", "xent"])
    def test_bitwise_equal_to_the_allocating_forward(self, loss_kind, n):
        spec, params, batch = random_model_and_batch(n, (6, 17, 11, 4), loss_kind, n)
        _, acts = netkit.forward(spec, params, batch.inputs)
        expected = netkit._loss_and_dout(spec, acts[-1], batch.targets)[0]
        assert netkit.loss(spec, params, batch) == expected
        netkit.gradient(spec, params, batch)  # the workspace is shared with gradient
        assert netkit.loss(spec, params, batch) == expected

    @pytest.mark.parametrize("loss_kind", ["mse", "xent"])
    def test_warm_loss_allocates_no_batch_by_width_array(self, loss_kind):
        # The narrowest hidden layer is 176 kB at n = 2000. A warm call
        # allocates the mse square of the 4-wide output (64 kB) or the xent
        # head's length-n vectors, and no hidden (n, width) array.
        n = 2000
        spec, params, batch = random_model_and_batch(11, (6, 17, 11, 4), loss_kind, n)
        netkit.loss(spec, params, batch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            netkit.loss(spec, params, batch)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < n * min(spec.layer_widths[1:-1]) * 8


class TestReluIntrospect:
    def test_infinite_threshold_returns_all_units(self):
        spec, params, batch = random_model_and_batch(0, widths=(3, 5, 4, 2), n=4)
        records = netkit.relu_introspect(spec, params, batch, np.inf)
        assert len(records) == (5 + 4) * 4

    def test_tiny_threshold_returns_nothing(self):
        spec, params, batch = random_model_and_batch(0)
        assert netkit.relu_introspect(spec, params, batch, 1e-300) == []

    def test_nonpositive_threshold_rejected(self):
        spec, params, batch = random_model_and_batch(0)
        with pytest.raises(ConfigError):
            netkit.relu_introspect(spec, params, batch, 0.0)

    def test_records_sorted_by_unit_id(self):
        spec, params, batch = random_model_and_batch(1, widths=(3, 4, 4, 2), n=5)
        records = netkit.relu_introspect(spec, params, batch, np.inf)
        ids = [r.unit_id for r in records]
        assert ids == sorted(ids)

    def test_monotone_in_threshold(self):
        spec, params, batch = random_model_and_batch(2, widths=(3, 6, 3), n=8)
        small = {r.unit_id for r in netkit.relu_introspect(spec, params, batch, 0.3)}
        large = {r.unit_id for r in netkit.relu_introspect(spec, params, batch, 1.0)}
        assert small <= large

    @pytest.mark.parametrize("seed", range(3))
    def test_grad_y_matches_finite_differences(self, seed):
        spec, params, batch = random_model_and_batch(seed, widths=(3, 4, 4, 2), n=3)
        records = netkit.relu_introspect(spec, params, batch, np.inf)
        for record in records[:: max(len(records) // 6, 1)]:
            fd = fd_preactivation_gradient(
                spec, params, batch, record.layer, record.neuron, record.sample
            )
            rel = np.abs(fd - record.grad_y).max() / max(np.abs(record.grad_y).max(), 1e-12)
            assert rel < 1e-6

    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("loss", ["mse", "xent"])
    def test_grad_y_bitwise_equal_to_per_record_backward(self, loss, depth, n):
        widths = (3, *(4 + i for i in range(depth)), 3)
        spec, params, batch = random_model_and_batch(depth * 10 + n, widths, loss, n)
        preacts, _ = netkit.forward(spec, params, batch.inputs)
        minima = sorted(float(np.abs(y).min()) for y in preacts[:-1])
        # Between the smallest and the largest per-layer minimum, at least one
        # hidden layer has records and at least one has none.
        psis = [np.inf] + ([0.5 * (minima[0] + minima[-1])] if depth > 1 else [])
        for psi in psis:
            records = netkit.relu_introspect(spec, params, batch, psi)
            reference = reference_preactivation_grads(spec, params, batch, psi)
            assert len(records) == len(reference)
            for record, grad in zip(records, reference):
                assert np.array_equal(record.grad_y, grad)
            layers = len({r.layer for r in records})
            assert layers == spec.n_hidden if psi == np.inf else 0 < layers < spec.n_hidden

    def test_dloss_dz_consistent_with_param_gradient(self):
        # Chain rule check: for an active unit, d loss / d b_j equals dloss_dz
        # (post-activation derivative) since dz/dy = 1 and dy/db = 1.
        spec, params, batch = random_model_and_batch(4, widths=(3, 5, 2), n=4)
        _, grad = netkit.gradient(spec, params, batch)
        _, b_sl, _ = spec.layer_slices()[0]
        preacts, _ = netkit.forward(spec, params, batch.inputs)
        records = netkit.relu_introspect(spec, params, batch, np.inf)
        per_neuron = {}
        for r in records:
            if r.layer == 0 and r.y > 0:
                per_neuron.setdefault(r.neuron, 0.0)
                per_neuron[r.neuron] += r.dloss_dz
        for neuron, total in per_neuron.items():
            active_only = all(
                preacts[0][s, neuron] > 0 or abs(preacts[0][s, neuron]) > 0
                for s in range(batch.size)
            )
            if active_only and np.all(preacts[0][:, neuron] > 0):
                assert grad[b_sl][neuron] == pytest.approx(total, rel=1e-10)

    def test_first_order_expansion(self):
        # y(mu + delta) - (y(mu) + delta @ grad_y) shrinks quadratically for a
        # deep unit and is exactly zero for a first-layer unit.
        spec, params, batch = random_model_and_batch(5, widths=(3, 4, 4, 2), n=2)
        records = netkit.relu_introspect(spec, params, batch, np.inf)
        rng = np.random.default_rng(0)
        direction = rng.standard_normal(params.shape[0])
        direction /= np.linalg.norm(direction)

        def residual(record, scale):
            y_new = netkit.forward(spec, params + scale * direction, batch.inputs)[0][
                record.layer
            ][record.sample, record.neuron]
            return abs(y_new - (record.y + scale * direction @ record.grad_y))

        deep = next(r for r in records if r.layer == 1)
        r1, r2 = residual(deep, 1e-3), residual(deep, 5e-4)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)
        shallow = next(r for r in records if r.layer == 0)
        assert residual(shallow, 1e-3) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_forward_pure_and_repeatable(seed):
    spec, params, batch = random_model_and_batch(seed % 7)
    a = netkit.gradient(spec, params, batch)
    b = netkit.gradient(spec, params, batch)
    assert a[0] == b[0]
    assert np.array_equal(a[1], b[1])


class LaneError(NumericsError):
    """The work of one lane failed."""


def lane_hook(blas, failing, leads):
    """A hook for a lane user's work, and the set of (lane, BLAS threads) it saw.

    Past a lane's lead calls (worker's, caller's), its first call waits for
    the other lane's, and every call raises if the lane is in `failing`.
    """
    calling, meet = threading.current_thread(), threading.Barrier(2, timeout=10.0)
    calls, seen = {"worker": -leads[0], "calling": -leads[1]}, set()

    def hook():
        lane = "calling" if threading.current_thread() is calling else "worker"
        calls[lane] += 1
        if calls[lane] > 0:
            seen.add((lane, blas[-1]))
            if calls[lane] == 1:
                meet.wait()
            if lane in failing:
                raise LaneError(f"{lane} lane")

    return hook, seen


def density_build():
    matrix = glass.GlassDensityMatrix(np.eye(6), np.ones((6, 6)), np.zeros(6, dtype=int))
    try:
        matrix.R
    except LaneError:
        assert "R" not in vars(matrix)
        raise


def probe():
    data = harness.make_regression_batch(harness.DataParams(samples=20), 3, 2, seed=0)
    params = harness.ProbeParams(lam=0.002, samples=4, warmup_steps=0)
    harness.powerlaw_experiment(ModelSpec((3, 4, 2)), data, params, 128)


def aggregate_bias():
    tm = oracles.TestMatrix.random_diag_dominant(200, seed=0)
    oracles.mc_aggregate_bias(tm, glass.make_kernel("normal", tm.dominance), 10_000, 1)


def variation():
    oracles.mc_variation(oracles.build_uniform_preactivation_net(seed=0), 5e-5, 100, seed=1)


# Each user of netkit.lane: the calls its lanes' work makes; each lane's calls
# before the two overlap (the oracles draw a chunk before the caller has one,
# and mc_variation takes a gradient before its lane opens); the run; and how
# it names a lane's error (the probe names the scale, lam on this thread).
LANE_USERS = {
    "density_R": ([(np, "matmul")], (0, 0), density_build, {}),
    "probe": ([(harness, "gradient")], (0, 0), probe, {
        "calling": "probe lam = 0.002 sample 0: ", "worker": "probe lam = 0.004 sample 0: "}),
    "bias": ([(oracles, "_draw"), (oracles, "_kernel_estimates")], (1, 0), aggregate_bias, {}),
    "variation": ([(oracles, "_draw"), (netkit, "gradient")], (1, 1), variation, {}),
}


class TestLane:
    @pytest.mark.parametrize("failing", ["none", "worker", "calling", "worker+calling"])
    @pytest.mark.parametrize("user", LANE_USERS)
    def test_user_raises_joins_and_halves_blas(self, monkeypatch, user, failing):
        # Either lane's error is raised in the caller, the caller's first; no
        # thread outlives the call; both lanes run at once on half the BLAS
        # threads, and the count comes back once, also after a raise.
        targets, leads, run, names = LANE_USERS[user]
        blas = [4]  # every BLAS thread count, set through a fake accessor
        monkeypatch.setattr(netkit, "_blas_threads", lambda: (lambda: blas[-1], blas.append))
        hook, seen = lane_hook(blas, failing, leads)
        for owner, name in targets:
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, real=real, **k: (hook(), real(*a, **k))[1])
        before = threading.enumerate()
        if failing == "none":
            run()
        else:
            raised = "calling" if "calling" in failing else "worker"
            with pytest.raises(NumericsError) as exc:
                run()
            assert str(exc.value) == f"{names.get(raised, '')}{raised} lane"
        assert [t for t in threading.enumerate() if t not in before] == []
        assert (seen, blas) == ({("calling", 2), ("worker", 2)}, [4, 2, 4])

    @pytest.mark.parametrize("outer, inner", [(5, 2), (1, 1)])
    def test_nested_lanes_set_blas_once(self, monkeypatch, outer, inner):
        blas = [outer]
        monkeypatch.setattr(netkit, "_blas_threads", lambda: (lambda: blas[-1], blas.append))
        with netkit.lane() as submit:
            with pytest.raises(LaneError), netkit.lane() as nested:
                assert nested(lambda: blas[-1]).result() == inner
                raise LaneError
            assert submit(lambda: blas[-1]).result() == inner
        assert blas == [outer, inner, outer][: 3 if inner < outer else 1]

    @pytest.mark.skipif(netkit._blas_threads() is None, reason="no bundled OpenBLAS")
    def test_real_openblas_runs_on_half_its_threads(self):
        # A process worker is forked after the halving, so it inherits it.
        get, _ = netkit._blas_threads()
        outer = get()
        for process in (False, True):
            with pytest.raises(LaneError), netkit.lane(process) as submit:
                assert get() == submit(blas_thread_count).result() == max(1, outer // 2)
                raise LaneError
            assert get() == outer

    def test_process_lane_forks_one_worker_and_joins_it(self):
        # Its error comes back from result(); the caller's error is raised
        # after the join, and no process outlives the lane.
        with pytest.raises(LaneError), netkit.lane(process=True) as submit:
            assert submit(os.getpid).result() != os.getpid()
            with pytest.raises(ValueError, match="invalid literal"):
                submit(int, "x").result()
            raise LaneError
        assert multiprocessing.active_children() == []

    def test_process_lane_beside_another_thread_runs_in_the_caller(self, another_thread):
        # A fork copies only the forking thread: with a second thread running,
        # submit runs its call at once in the calling thread, behind a future.
        with netkit.lane(process=True) as submit:
            assert submit(os.getpid).result() == os.getpid()
            failed = submit(int, "x")
            assert failed.done()
            with pytest.raises(ValueError, match="invalid literal"):
                failed.result()


def blas_thread_count():
    """The calling process's BLAS thread count; module-level, so a worker can take it by pickle."""
    return netkit._blas_threads()[0]()
