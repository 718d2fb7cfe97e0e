import math
import tracemalloc

import numpy as np
import pytest

from fd_oracles import reference_adam_loop, reference_sgdm_loop
from glassopt import alice, netkit
from glassopt.alice import (
    Alice,
    AliceConfig,
    TopographyState,
    adam_iterates,
    apply_step,
    glass_term,
    modified_hessian,
    naq_coefficients,
    naq_exactness_check,
    qn_scale,
    quick_update,
    reference_adam,
    reference_sgdm,
    sgdm_iterates,
    step_limits,
    topography_update,
)
from glassopt.netkit import Batch, ConfigError, ModelSpec, NumericsError


def small_net(seed=0, widths=(4, 8, 2), n=32, loss="mse"):
    rng = np.random.default_rng(seed)
    spec = ModelSpec(widths, loss)
    params = netkit.build_model(spec, seed + 1)
    targets = (
        rng.standard_normal((n, widths[-1]))
        if loss == "mse"
        else rng.integers(0, widths[-1], size=n)
    )
    batch = Batch(rng.standard_normal((n, widths[0])), targets)
    grad_fn = lambda th: netkit.gradient(spec, th, batch)[1]  # noqa: E731
    return spec, params, batch, grad_fn


class TestConfig:
    def test_naq_overrides_fractions(self):
        cfg = AliceConfig(beta1=0.9, naq=True)
        assert (cfg.phi, cfg.omega) == (pytest.approx(0.1), 1.0)

    def test_invalid_fraction_ordering(self):
        with pytest.raises(ConfigError):
            AliceConfig(phi=0.8, omega=0.5)

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            AliceConfig(lam_min=0.2, lam_max=0.1)

    def test_unknown_terms(self):
        with pytest.raises(ConfigError):
            AliceConfig(terms=("rho", "spectral"))

    def test_unknown_limit_method(self):
        with pytest.raises(ConfigError):
            AliceConfig(limit_method="rmsprop")


class TestNaqCoefficients:
    def test_standard_momentum_setting(self):
        assert naq_coefficients(0.9) == (pytest.approx(0.1), 1.0)

    def test_no_momentum_full_quasi_newton(self):
        assert naq_coefficients(0.0) == (1.0, 1.0)

    def test_half(self):
        assert naq_coefficients(0.5) == (0.5, 1.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            naq_coefficients(1.0)


class TestTopographyUpdate:
    def test_constant_gradient_no_curvature(self):
        cfg = AliceConfig(lam=0.1, beta1=0.5, beta2=0.0)
        state = TopographyState.fresh(np.zeros(4))
        constant = np.array([1.0, -2.0, 0.5, 0.0])
        topography_update(state, lambda _: constant.copy(), cfg, rng=0)
        assert np.array_equal(state.rho, np.zeros(4))
        assert np.array_equal(state.h_abs, np.zeros(4))
        assert np.allclose(state.g, 0.5 * constant, rtol=1e-15)
        assert np.allclose(state.s, constant**2, rtol=1e-15)

    def test_diagonal_quadratic_recovers_diagonal(self):
        diag = np.array([2.0, -1.0, 0.25])
        cfg = AliceConfig(lam=0.05, beta2=0.0)
        state = TopographyState.fresh(np.zeros(3))
        topography_update(state, lambda th: diag * th, cfg, rng=1)
        assert np.allclose(state.h_abs, np.abs(diag), rtol=1e-12)
        assert np.allclose(state.h_rms2, diag * diag, rtol=1e-12)

    def test_one_dimensional_kink_density(self):
        # Piecewise-linear gradient with a jump at the evaluation center:
        # the glass statistic picks up (2/lam) * (jump/2)^2.
        lam, slope, jump = 0.2, 1.3, 0.7
        cfg = AliceConfig(lam=lam, beta2=0.0)
        state = TopographyState.fresh(np.zeros(1))

        def grad_fn(theta):
            t = theta[0]
            return np.array([slope * t + (jump if t > 0 else 0.0)])

        topography_update(state, grad_fn, cfg, rng=0)
        assert state.rho[0] == pytest.approx((2.0 / lam) * (jump / 2.0) ** 2, rel=1e-12)

    def test_probes_anchor_at_evaluation_center(self):
        seen = []
        cfg = AliceConfig(lam=0.5)
        state = TopographyState.fresh(np.array([3.0]))
        state.nu[...] = 7.0

        def grad_fn(theta):
            seen.append(theta[0])
            return np.zeros(1)

        topography_update(state, grad_fn, cfg, rng=2)
        assert sorted(seen) == pytest.approx([6.5, 7.0, 7.5])

    def test_nonfinite_gradient_names_evaluation(self):
        cfg = AliceConfig()
        state = TopographyState.fresh(np.zeros(2))
        calls = [0]

        def grad_fn(_):
            calls[0] += 1
            return np.full(2, np.inf) if calls[0] == 2 else np.zeros(2)

        with pytest.raises(NumericsError, match="minus-probe"):
            topography_update(state, grad_fn, cfg, rng=0)

    def test_allocates_at_most_one_parameter_temporary(self):
        # Allocation-counting harness: gradients come from a preallocated
        # pool, so the update's own footprint must stay within one
        # parameter-length array (plus small bool masks for finiteness checks).
        d = 400_000
        cfg = AliceConfig(lam=0.01)
        state = TopographyState.fresh(np.zeros(d))
        pool = [np.zeros(d) for _ in range(3)]
        calls = [0]

        def grad_fn(_):
            buf = pool[calls[0] % 3]
            calls[0] += 1
            return buf

        rng = np.random.default_rng(0)
        topography_update(state, grad_fn, cfg, rng)  # warm caches
        tracemalloc.start()
        baseline, _ = tracemalloc.get_traced_memory()
        topography_update(state, grad_fn, cfg, rng)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - baseline < 1.5 * 8 * d

    @pytest.mark.parametrize("quick_steps", [0, 1])
    def test_overflowing_second_moment_raises_before_the_step(self, quick_steps):
        # |g| = 1e300 is finite, but g*g overflows s to inf, which would make
        # the Adam-like bound, and so the step, silently zero.
        opt = Alice(np.zeros(3), AliceConfig(lam=1e-3, lam_max=0.01, quick_steps=quick_steps))
        opt.step(lambda _: np.ones(3))
        before = opt.params.copy()
        with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match=r"overflowed at update 2: s$"
        ):
            opt.step(lambda _: np.full(3, 1e300))
        assert np.array_equal(opt.params, before)

    def test_non_finite_running_gradient_is_named(self):
        cfg = AliceConfig(lam=0.1)
        state = TopographyState.fresh(np.zeros(3))
        state.g[1] = np.inf
        with pytest.raises(NumericsError, match=r"overflowed at update 1: g$"):
            quick_update(state, lambda _: np.ones(3), cfg)
        state = TopographyState.fresh(np.zeros(3))
        state.g[1] = np.inf
        with pytest.raises(NumericsError, match=r"overflowed at update 1: g$"):
            topography_update(state, lambda _: np.ones(3), cfg, rng=0)

    def test_overflowing_curvature_statistics_are_named(self):
        # Finite gradients whose squared probe differences overflow: rho in
        # coordinate 0 (probe mean 2e154 away from the center), h_rms2 in
        # coordinate 1 (probe difference 2e153 over 2 lam = 2e-3); g and s stay finite.
        cfg = AliceConfig(lam=1e-3)
        state = TopographyState.fresh(np.zeros(2))
        returns = iter([[1e154, 1e153], [1e154, -1e153], [-1e154, 0.0]])
        grad_fn = lambda _: np.array(next(returns))  # noqa: E731

        with np.errstate(over="ignore"), pytest.raises(
            NumericsError, match=r"overflowed at update 1: rho, h_rms2$"
        ):
            topography_update(state, grad_fn, cfg, rng=0)

    def test_quick_update_freezes_curvature(self):
        cfg = AliceConfig(lam=0.1)
        state = TopographyState.fresh(np.zeros(3))
        rng = np.random.default_rng(0)
        grad_fn = lambda th: np.sin(th) + 1.0  # noqa: E731
        topography_update(state, grad_fn, cfg, rng)
        rho_before = state.rho.copy()
        h_before = state.h_abs.copy()
        quick_update(state, grad_fn, cfg)
        assert np.array_equal(state.rho, rho_before)
        assert np.array_equal(state.h_abs, h_before)
        assert state.step_count == 2


class TestStepPieces:
    def test_glass_term_zero_density(self):
        assert np.array_equal(glass_term(np.zeros(3), np.ones(3), 1e-8), np.zeros(3))

    def test_glass_term_arithmetic(self):
        value = glass_term(np.array([4.0 * math.pi]), np.array([-1.0]), 0.0)
        assert value[0] == pytest.approx(3.0, rel=1e-15)

    def test_glass_term_vanishing_gradient_stability(self):
        rho = np.array([2.0])
        value = glass_term(rho, np.zeros(1), 1e-6)
        assert value[0] == pytest.approx(3.0 * 2.0 / 1e-6, rel=1e-12)

    def test_modified_hessian_pure_quasi_newton(self):
        h = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(modified_hessian(np.zeros(3), h, 1e-8), h + 1e-8)

    def test_modified_hessian_pure_glass(self):
        hg = np.array([0.5, 1.5])
        assert np.array_equal(modified_hessian(hg, np.zeros(2), 1e-8), 2.0 * hg + 1e-8)

    def test_modified_hessian_rejects_negative(self):
        with pytest.raises(ConfigError):
            modified_hessian(np.array([-0.1]), np.zeros(1), 1e-8)
        with pytest.raises(ConfigError):
            modified_hessian(np.zeros(1), np.array([-0.1]), 1e-8)

    def test_qn_scale(self):
        assert np.array_equal(qn_scale(np.zeros(3), np.ones(3)), np.zeros(3))
        eps = 1e-8
        assert qn_scale(np.array([eps]), np.array([eps]))[0] == 1.0

    def test_fixed_limits_pin_step(self):
        cfg = AliceConfig(lam_min=0.3, lam_max=0.3, limit_method="fixed")
        state = TopographyState.fresh(np.zeros(4))
        state.g = np.array([1.0, -2.0, 0.5, 3.0])
        state.step_count = 1
        record = apply_step(state, np.array([10.0, 0.0, 0.2, 0.3]), cfg)
        assert np.array_equal(np.abs(record.delta), np.full(4, 0.3))

    def test_adam_limit_bound_matches_lam_max(self):
        # with beta1 = beta2 = 0 there is no bias correction and |g| = sqrt(s)
        cfg = AliceConfig(
            beta1=0.0, beta2=0.0, eps=1e-15, lam_min=0.0, lam_max=0.07, limit_method="adam"
        )
        g = np.array([2.0, -0.5])
        lo, hi = step_limits("adam", g, g * g, cfg, step_count=1)
        assert np.allclose(hi, 0.07, rtol=1e-12)
        assert np.array_equal(lo, np.zeros(2))

    def test_sgdm_limits_scale_with_gradient(self):
        cfg = AliceConfig(lam_min=0.1, lam_max=0.5, limit_method="sgdm")
        g = np.array([2.0, -4.0])
        lo, hi = step_limits("sgdm", g, np.zeros(2), cfg, step_count=1)
        assert np.allclose(lo, [0.2, 0.4])
        assert np.allclose(hi, [1.0, 2.0])

    def test_apply_step_positions(self):
        cfg = AliceConfig(phi=0.1, omega=1.0, lam_min=1.0, lam_max=1.0, limit_method="fixed")
        state = TopographyState.fresh(np.zeros(2))
        state.g = np.array([-1.0, 0.0])  # descent pushes coordinate 0 up
        state.step_count = 1
        apply_step(state, np.ones(2), cfg)
        assert state.mu == pytest.approx([0.1, 0.0])
        assert state.nu == pytest.approx([1.0, 0.0])

    def test_apply_step_equal_fractions_collapse_positions(self):
        cfg = AliceConfig(phi=0.7, omega=0.7, lam_min=0.0, lam_max=1.0, limit_method="fixed")
        state = TopographyState.fresh(np.random.default_rng(0).standard_normal(5))
        state.g = np.random.default_rng(1).standard_normal(5)
        state.step_count = 1
        apply_step(state, np.full(5, 0.2), cfg)
        assert np.array_equal(state.mu, state.nu)

    def test_descent_sign_invariant(self):
        rng = np.random.default_rng(7)
        cfg = AliceConfig(lam_min=0.01, lam_max=0.5, limit_method="fixed")
        for _ in range(20):
            state = TopographyState.fresh(rng.standard_normal(6))
            state.g = rng.standard_normal(6) * (rng.random(6) > 0.2)
            state.step_count = 1
            record = apply_step(state, rng.random(6), cfg)
            assert np.all(record.delta * state.g <= 0.0)
            nonzero = state.g != 0
            assert np.all(np.sign(record.delta[nonzero]) == -np.sign(state.g[nonzero]))

    def test_clamp_invariant(self):
        rng = np.random.default_rng(8)
        cfg = AliceConfig(lam_min=0.05, lam_max=0.2, limit_method="fixed")
        state = TopographyState.fresh(rng.standard_normal(16))
        state.g = rng.standard_normal(16)
        state.step_count = 1
        record = apply_step(state, rng.random(16) * 10, cfg)
        magnitude = np.abs(record.delta[state.g != 0])
        assert np.all(magnitude >= 0.05 - 1e-15)
        assert np.all(magnitude <= 0.2 + 1e-15)
        assert record.clamped_low_fraction + record.clamped_high_fraction <= 1.0


class TestQuickStepAccounting:
    def test_six_gradients_per_four_steps(self):
        _, params, _, grad_fn = small_net()
        cfg = AliceConfig(quick_steps=3, lam=1e-3)
        opt = Alice(params, cfg, seed=0)
        for _ in range(8):
            opt.step(grad_fn)
        assert opt.n_grad_evals == 12  # 6 gradients per 4 steps

    def test_quick_steps_zero_all_full(self):
        _, params, _, grad_fn = small_net()
        opt = Alice(params, AliceConfig(quick_steps=0, lam=1e-3), seed=0)
        for _ in range(4):
            opt.step(grad_fn)
        assert opt.n_grad_evals == 12  # 3 per step


class TestReplication:
    def test_adam_trajectory_matches_reference(self):
        _, params, _, grad_fn = small_net(seed=3)
        lr = 1e-3
        trajectory = reference_adam(params, grad_fn, lr, 0.9, 0.999, 1e-8, n_steps=60)
        cfg = AliceConfig(
            lam=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, phi=1.0, omega=1.0,
            lam_min=lr, lam_max=lr, limit_method="adam", quick_steps=0,
        )
        opt = Alice(params, cfg, seed=5)
        for t in range(60):
            opt.step(grad_fn)
            assert np.abs(opt.params - trajectory[t + 1]).max() <= 1e-12

    def test_sgdm_trajectory_matches_reference(self):
        _, params, _, grad_fn = small_net(seed=4)
        lr = 2e-3
        trajectory = reference_sgdm(params, grad_fn, lr, 0.9, n_steps=60)
        cfg = AliceConfig(
            lam=1e-3, beta1=0.9, phi=1.0, omega=1.0,
            lam_min=lr, lam_max=lr, limit_method="sgdm", quick_steps=2,
        )
        opt = Alice(params, cfg, seed=6)
        for t in range(60):
            opt.step(grad_fn)
            assert np.abs(opt.params - trajectory[t + 1]).max() <= 1e-12


class TestReferenceOptimizers:
    @pytest.mark.parametrize("n_steps", [0, 1, 60])
    def test_match_the_frozen_loops_bitwise(self, n_steps):
        _, params, _, grad_fn = small_net(seed=7, loss="xent")
        adam_args = (params, grad_fn, 3e-3, 0.8, 0.99, 1e-7, n_steps)
        sgdm_args = (params, grad_fn, 5e-3, 0.7, n_steps)
        for fn, iterates, frozen, args in (
            (reference_adam, adam_iterates, reference_adam_loop, adam_args),
            (reference_sgdm, sgdm_iterates, reference_sgdm_loop, sgdm_args),
        ):
            expected = frozen(*args)
            assert np.array_equal(fn(*args), expected)
            # Each iterate is its own array: later steps leave it as yielded.
            assert np.array_equal(np.stack(list(iterates(*args))), expected)

    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, -2.0])
        for traj in (
            reference_adam(params, lambda _: np.zeros(2), 0.1, n_steps=5),
            reference_sgdm(params, lambda _: np.zeros(2), 0.1, n_steps=5),
        ):
            assert np.array_equal(traj[-1], params)

    def test_adam_first_step_is_signed_learning_rate(self):
        grad = np.array([3.0, -0.25])
        traj = reference_adam(np.zeros(2), lambda _: grad, 0.01, eps=1e-12, n_steps=1)
        assert traj[1] == pytest.approx(-0.01 * np.sign(grad), rel=1e-9)

    def test_adam_descends_quadratic_bowl(self):
        h_diag = np.array([1.0, 4.0, 0.25])
        start = np.array([2.0, -1.0, 3.0])
        traj = reference_adam(start, lambda th: h_diag * th, 0.05, n_steps=200)
        values = 0.5 * np.sum(h_diag * traj**2, axis=1)
        assert values[-1] < 1e-2 * values[0]

    def test_sgdm_descends_quadratic_bowl(self):
        h_diag = np.array([1.0, 4.0])
        traj = reference_sgdm(np.array([2.0, -1.0]), lambda th: h_diag * th, 0.05, n_steps=300)
        values = 0.5 * np.sum(h_diag * traj**2, axis=1)
        assert values[-1] < 1e-3 * values[0]


class TestNaqExactness:
    @staticmethod
    def _random_problem(seed, d=50):
        rng = np.random.default_rng(seed)
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hidden = basis @ np.diag(rng.uniform(0.5, 2.5, d)) @ basis.T
        h_bar = np.abs(np.diag(hidden)) + 1.0
        return hidden, rng.standard_normal(d), 0.1 * rng.standard_normal(d), h_bar

    def test_zero_initial_error_stays_exact(self):
        d = 8
        h_bar = np.linspace(1.0, 2.0, d)
        hidden = np.diag(h_bar)
        g_star0 = np.random.default_rng(0).standard_normal(d)
        report = naq_exactness_check(hidden, g_star0, np.zeros(d), 0.9, h_bar, 30)
        assert not report.diverged
        assert np.all(report.error_abs <= 1e-12 * np.linalg.norm(g_star0))

    @pytest.mark.parametrize("beta1", [0.9, 0.95, 0.99])
    def test_error_contracts_by_beta1(self, beta1):
        hidden, g_star0, gamma0, h_bar = self._random_problem(1)
        report = naq_exactness_check(hidden, g_star0, gamma0, beta1, h_bar, 50)
        assert not report.diverged
        assert report.max_error_rel < 1e-10
        assert np.max(report.prediction_rel) < 1e-10

    def test_wrong_phi_is_detected(self):
        hidden, g_star0, gamma0, h_bar = self._random_problem(2)
        report = naq_exactness_check(hidden, g_star0, gamma0, 0.9, h_bar, 50, phi=0.2)
        assert report.max_error_rel > 1e-3

    def test_divergence_reported_not_raised(self):
        hidden = np.diag(np.full(4, 1e6))
        h_bar = np.full(4, 1e-6)
        report = naq_exactness_check(
            hidden, np.ones(4), 0.1 * np.ones(4), 0.9, h_bar, 200
        )
        assert report.diverged


class TestAliceOnRealNet:
    def test_loss_decreases_with_each_term_set(self):
        # learnable targets: generated by a second network of the same shape
        spec, params, batch, _ = small_net(seed=9, n=64)
        teacher = netkit.build_model(spec, 77)
        _, teacher_acts = netkit.forward(spec, teacher, batch.inputs)
        batch = Batch(batch.inputs, teacher_acts[-1])
        grad_fn = lambda th: netkit.gradient(spec, th, batch)[1]  # noqa: E731
        start = netkit.loss(spec, params, batch)
        for terms in (("rho",), ("h_abs",), ("rho", "h_abs"), ("h_rms",)):
            cfg = AliceConfig(
                lam=1e-3, lam_min=0.0, lam_max=0.05, limit_method="adam",
                terms=terms, naq=True,
            )
            opt = Alice(params, cfg, seed=11)
            for _ in range(150):
                opt.step(grad_fn)
            assert netkit.loss(spec, opt.params, batch) < 0.5 * start

    def test_step_record_diagnostics_populated(self):
        _, params, _, grad_fn = small_net(seed=12)
        opt = Alice(params, AliceConfig(lam=1e-3), seed=0)
        record = opt.step(grad_fn)
        assert record.h_bar is not None and np.all(record.h_bar >= opt.cfg.eps)
        assert record.h_glass is not None and np.all(record.h_glass >= 0.0)
        total = (
            record.clamped_low_fraction
            + record.clamped_high_fraction
            + record.interior_fraction
        )
        assert total == pytest.approx(1.0)
