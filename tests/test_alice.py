import math
import tracemalloc

import numpy as np
import pytest

from fd_oracles import (
    reference_adam_loop,
    reference_rademacher_signs,
    reference_sgdm_loop,
    reference_step,
)
from glassopt import harness, netkit
from glassopt.alice import (
    LIMIT_METHODS,
    Alice,
    AliceConfig,
    TopographyState,
    adam_iterates,
    apply_step,
    naq_coefficients,
    naq_exactness_check,
    quick_update,
    reference_adam,
    sgdm_iterates,
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
        assert AliceConfig(beta1=0.9, naq=True).phi == pytest.approx(0.1)
        assert AliceConfig(beta1=0.9).phi == 1.0

    def test_invalid_fraction_ordering(self):
        # naq is the only acceleration setting: the fractions are not fields.
        for fractions in ({"phi": 0.8, "omega": 0.5}, {"phi": 0.8}, {"omega": 1.0}):
            with pytest.raises(TypeError, match="unexpected keyword"):
                AliceConfig(**fractions)

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
        assert naq_coefficients(0.9) == pytest.approx(0.1)

    def test_no_momentum_full_quasi_newton(self):
        assert naq_coefficients(0.0) == 1.0

    def test_half(self):
        assert naq_coefficients(0.5) == 0.5

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


def filled_state(g, h_abs=0.0, rho=0.0, s=0.0, mu=0.0, step_count=1):
    """A TopographyState whose running statistics hold the given values."""
    g = np.asarray(g, dtype=np.float64)
    state = TopographyState.fresh(np.broadcast_to(mu, g.shape))
    state.g[:], state.h_abs[:], state.rho[:], state.s[:] = g, h_abs, rho, s
    state.step_count = step_count
    return state


# Fixed limits [0, inf]: the step magnitude is |g| / h_bar, unclamped.
UNCLAMPED = {"lam_min": 0.0, "lam_max": math.inf, "limit_method": "fixed"}


class TestStepPieces:
    """Each stage of apply_step, seen through its record and the moved positions."""

    def test_glass_term_zero_density(self):
        record = apply_step(filled_state(np.ones(3)), AliceConfig(eps=1e-8))
        assert np.array_equal(record.h_glass, np.zeros(3))

    def test_glass_term_arithmetic(self):
        # eps = 1e-300 vanishes next to 4 pi |g|.
        state = filled_state([-1.0], rho=4.0 * math.pi)
        record = apply_step(state, AliceConfig(eps=1e-300, **UNCLAMPED))
        assert record.h_glass[0] == pytest.approx(3.0, rel=1e-15)

    def test_glass_term_vanishing_gradient_stability(self):
        record = apply_step(filled_state(np.zeros(1), rho=2.0), AliceConfig(eps=1e-6))
        assert record.h_glass[0] == pytest.approx(3.0 * 2.0 / 1e-6, rel=1e-12)

    def test_modified_hessian_pure_quasi_newton(self):
        h = np.array([1.0, 2.0, 3.0])
        record = apply_step(filled_state(np.ones(3), h_abs=h), AliceConfig(eps=1e-8))
        assert np.array_equal(record.h_bar, h + 1e-8)

    def test_modified_hessian_pure_glass(self):
        state = filled_state(np.ones(2), rho=[0.5, 1.5])
        record = apply_step(state, AliceConfig(eps=1e-8))
        assert np.all(record.h_glass > 0.0)
        assert np.array_equal(record.h_bar, 2.0 * record.h_glass + 1e-8)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_denominator_raises(self):
        # rho / eps at a zero gradient is finite; h_glass squared is not.
        state = filled_state(np.zeros(2), rho=[2.0, 0.0])
        with pytest.raises(NumericsError, match="^step denominator h_bar overflowed at update 1$"):
            apply_step(state, AliceConfig(eps=1e-300))

    def test_modified_hessian_rejects_negative(self):
        with pytest.raises(ConfigError, match="glass density must be nonnegative"):
            apply_step(filled_state(np.ones(1), rho=-0.1), AliceConfig())
        with pytest.raises(ConfigError, match="curvature terms must be nonnegative"):
            apply_step(filled_state(np.ones(1), h_abs=-0.1), AliceConfig())

    def test_qn_scale(self):
        cfg = AliceConfig(eps=1e-8, **UNCLAMPED)
        assert np.array_equal(apply_step(filled_state(np.zeros(3)), cfg).delta, np.zeros(3))
        # rho = h = 0 leaves h_bar = eps, so the scale is eps / eps.
        assert apply_step(filled_state([1e-8]), cfg).delta[0] == -1.0

    def test_fixed_limits_pin_step(self):
        cfg = AliceConfig(lam_min=0.3, lam_max=0.3, limit_method="fixed", terms=("h_abs",))
        # scales |g| / h_bar of about 10, 2e-6, 0.2 and 0.3
        state = filled_state([1.0, -2.0, 0.5, 3.0], h_abs=[0.1, 1e6, 2.5, 10.0])
        record = apply_step(state, cfg)
        assert np.array_equal(np.abs(record.delta), np.full(4, 0.3))

    def test_adam_limit_bound_matches_lam_max(self):
        # with beta1 = beta2 = 0 there is no bias correction and |g| = sqrt(s)
        cfg = AliceConfig(
            beta1=0.0, beta2=0.0, eps=1e-15, lam_min=0.0, lam_max=0.07, limit_method="adam"
        )
        g = np.array([2.0, -0.5, 1.0])
        record = apply_step(filled_state(g, h_abs=[0.0, 0.0, 1e12], s=g * g), cfg)
        assert np.allclose(np.abs(record.delta[:2]), 0.07, rtol=1e-12)
        # the lower bound is 0: a scale of about 1e-12 is left as it is
        assert record.delta[2] == -1.0 / record.h_bar[2]
        assert record.clamped_low_fraction == 0.0
        assert record.clamped_high_fraction == pytest.approx(2.0 / 3.0)

    def test_sgdm_limits_scale_with_gradient(self):
        cfg = AliceConfig(lam_min=0.1, lam_max=0.5, limit_method="sgdm")
        # tiny scales meet the lower bound, huge ones the upper
        state = filled_state([2.0, -4.0, 2.0, -4.0], h_abs=[1e6, 1e6, 1e-6, 1e-6])
        record = apply_step(state, cfg)
        assert np.allclose(np.abs(record.delta), [0.2, 0.4, 1.0, 2.0])

    def test_apply_step_positions(self):
        cfg = AliceConfig(naq=True, lam_min=1.0, lam_max=1.0, limit_method="fixed")
        state = filled_state([-1.0, 0.0])  # descent pushes coordinate 0 up
        apply_step(state, cfg)
        assert state.mu == pytest.approx([0.1, 0.0])
        assert state.nu == pytest.approx([1.0, 0.0])

    def test_apply_step_equal_fractions_collapse_positions(self):
        # Without naq both positions take the whole step.
        cfg = AliceConfig(lam_min=0.0, lam_max=1.0, limit_method="fixed")
        state = filled_state(
            np.random.default_rng(1).standard_normal(5),
            h_abs=5.0,
            mu=np.random.default_rng(0).standard_normal(5),
        )
        apply_step(state, cfg)
        assert np.array_equal(state.mu, state.nu)

    def test_descent_sign_invariant(self):
        rng = np.random.default_rng(7)
        cfg = AliceConfig(lam_min=0.01, lam_max=0.5, limit_method="fixed")
        for _ in range(20):
            mu = rng.standard_normal(6)
            g = rng.standard_normal(6) * (rng.random(6) > 0.2)
            state = filled_state(g, h_abs=rng.random(6), rho=rng.random(6), mu=mu)
            record = apply_step(state, cfg)
            assert np.all(record.delta * state.g <= 0.0)
            nonzero = state.g != 0
            assert np.all(np.sign(record.delta[nonzero]) == -np.sign(state.g[nonzero]))

    def test_clamp_invariant(self):
        rng = np.random.default_rng(8)
        cfg = AliceConfig(lam_min=0.05, lam_max=0.2, limit_method="fixed", terms=("h_abs",))
        mu = rng.standard_normal(16)
        state = filled_state(rng.standard_normal(16), h_abs=rng.random(16) * 10, mu=mu)
        record = apply_step(state, cfg)
        magnitude = np.abs(record.delta[state.g != 0])
        assert np.all(magnitude >= 0.05 - 1e-15)
        assert np.all(magnitude <= 0.2 + 1e-15)
        assert 0.0 < record.clamped_low_fraction + record.clamped_high_fraction <= 1.0


class TestInPlaceUpdates:
    """The in-place updates against the textbook expressions, bitwise."""

    @staticmethod
    def _state_and_grads(seed, d=37):
        rng = np.random.default_rng(seed)
        state = TopographyState.fresh(rng.standard_normal(d))
        for name in ("g", "rho", "h_abs", "h_rms2", "s"):
            value = rng.standard_normal(d)
            setattr(state, name, value * value if name != "g" else value)
        state.nu = state.mu + 0.01 * rng.standard_normal(d)
        state.step_count = 3
        grads = [rng.standard_normal(d) for _ in range(3)]
        for g in grads:
            g[::5] = 0.0
        return state, grads

    def test_quick_update(self):
        cfg = AliceConfig(beta1=0.8, beta2=0.99)
        state, (g0, _, _) = self._state_and_grads(0)
        g_want = cfg.beta1 * state.g + (1.0 - cfg.beta1) * g0
        s_want = cfg.beta2 * state.s + (1.0 - cfg.beta2) * (g0 * g0)
        returned = g0.copy()
        quick_update(state, lambda _: returned, cfg)
        assert state.g.tobytes() == g_want.tobytes()
        assert state.s.tobytes() == s_want.tobytes()
        assert returned.tobytes() == g0.tobytes()

    def test_topography_update_reads_but_never_writes_the_gradients(self):
        cfg = AliceConfig(lam=0.03, beta1=0.8, beta2=0.99)
        state, grads = self._state_and_grads(1)
        before = TopographyState(**{k: np.copy(v) for k, v in vars(state).items()})
        returned = [g.copy() for g in grads]
        points = []

        def grad_fn(point):
            points.append(point.copy())
            return returned[len(points) - 1]

        topography_update(state, grad_fn, cfg, rng=4)
        g_plus, g_minus, g0 = grads
        lam, b1, b2 = cfg.lam, cfg.beta1, cfg.beta2
        signs = reference_rademacher_signs(np.random.default_rng(4), state.dim)
        assert points[0].tobytes() == (before.nu + lam * signs).tobytes()
        assert points[1].tobytes() == (before.nu - (points[0] - before.nu)).tobytes()
        diff = (g_plus - g_minus) / (2.0 * lam)
        centered = (g_plus + g_minus) * 0.5 - g0
        want = {
            "h_abs": b2 * before.h_abs + (1.0 - b2) * np.abs(diff),
            "h_rms2": b2 * before.h_rms2 + (1.0 - b2) * (diff * diff),
            "rho": b2 * before.rho + ((1.0 - b2) * (2.0 / lam)) * (centered * centered),
            "g": b1 * before.g + (1.0 - b1) * g0,
            "s": b2 * before.s + (1.0 - b2) * (g0 * g0),
        }
        for name, value in want.items():
            assert getattr(state, name).tobytes() == value.tobytes(), name
        for got, sent in zip(returned, grads):
            assert got.tobytes() == sent.tobytes()


def _composed_step(state, cfg, rng, full, grad_fn):
    """One Alice step from the public updates and the frozen reference step."""
    if full:
        topography_update(state, grad_fn, cfg, rng)
    else:
        quick_update(state, grad_fn, cfg)
    return reference_step(state, cfg)


TERM_SETS = [(), ("rho",), ("h_abs",), ("h_rms",), ("rho", "h_abs"), ("rho", "h_rms")]


class TestFusedStepMatchesComposition:
    @pytest.mark.parametrize("naq", [False, True])
    @pytest.mark.parametrize("quick_steps", [0, 2])
    @pytest.mark.parametrize("terms", TERM_SETS, ids=lambda t: "+".join(t) or "none")
    @pytest.mark.parametrize("limit_method", LIMIT_METHODS)
    @pytest.mark.parametrize("lam_min", [0.0, 2e-3])
    def test_bitwise(self, limit_method, terms, quick_steps, naq, lam_min):
        d, n_steps = 48, 7
        rng = np.random.default_rng(
            [LIMIT_METHODS.index(limit_method), TERM_SETS.index(terms), quick_steps, naq]
        )
        hess = rng.standard_normal((d, d)) / d
        offset = rng.standard_normal(d)
        zero = np.zeros(d, dtype=bool)
        zero[::6] = True  # coordinates whose gradient is exactly zero

        def grad_fn(theta):
            g = hess @ theta + offset + 0.3 * np.sin(7.0 * theta)
            g[zero] = 0.0
            return g

        cfg = AliceConfig(
            lam=1e-2, beta1=0.8, beta2=0.95, lam_min=lam_min, lam_max=0.05,
            limit_method=limit_method, quick_steps=quick_steps, terms=terms, naq=naq,
        )
        start = rng.standard_normal(d)
        opt = Alice(start, cfg, seed=3)
        ref_state, ref_rng = TopographyState.fresh(start), np.random.default_rng(3)
        kept = None
        for step in range(n_steps):
            record = opt.step(grad_fn)
            want = _composed_step(ref_state, cfg, ref_rng, step % (quick_steps + 1) == 0, grad_fn)
            for name in ("delta", "h_glass", "h_bar"):
                assert getattr(record, name).tobytes() == getattr(want, name).tobytes(), name
                for buf in (*opt._work, opt._temp):
                    assert not np.shares_memory(getattr(record, name), buf)
            for name in ("clamped_low_fraction", "clamped_high_fraction"):
                assert getattr(record, name) == getattr(want, name), name
            for name in ("g", "s", "rho", "h_abs", "h_rms2", "mu", "nu"):
                assert getattr(opt.state, name).tobytes() == getattr(ref_state, name).tobytes()
            assert not np.any(record.delta[zero])
            if step == 1:
                kept = record
                kept_bytes = [a.tobytes() for a in (record.delta, record.h_glass, record.h_bar)]
        # A record kept across later steps is left as it was returned.
        assert [a.tobytes() for a in (kept.delta, kept.h_glass, kept.h_bar)] == kept_bytes

    @pytest.mark.parametrize("terms", TERM_SETS, ids=lambda t: "+".join(t) or "none")
    @pytest.mark.parametrize("limit_method", LIMIT_METHODS)
    def test_bitwise_without_workspace(self, limit_method, terms):
        cfg = AliceConfig(lam_min=2e-3, lam_max=0.05, limit_method=limit_method, terms=terms,
                          naq=True)
        rng = np.random.default_rng([LIMIT_METHODS.index(limit_method), TERM_SETS.index(terms)])
        values = rng.standard_normal((6, 40))
        values[0, ::6] = 0.0
        states = []
        for _ in range(2):
            state = filled_state(values[0], h_abs=values[1] ** 2, rho=values[2] ** 2,
                                 s=values[3] ** 2, mu=values[4], step_count=3)
            state.h_rms2[:] = values[5] ** 2
            states.append(state)
        record, want = apply_step(states[0], cfg), reference_step(states[1], cfg)
        for name in ("delta", "h_glass", "h_bar"):
            assert getattr(record, name).tobytes() == getattr(want, name).tobytes(), name
        for name in ("clamped_low_fraction", "clamped_high_fraction"):
            assert getattr(record, name) == getattr(want, name), name
        for name in ("mu", "nu"):
            assert getattr(states[0], name).tobytes() == getattr(states[1], name).tobytes()

    def test_overflowing_adam_bound_matches_composition(self):
        # With eps = 1e-300 and s = 0 the bound |g_hat| / (sqrt(s_hat) + eps)
        # overflows to inf, so lam_min * base is 0 * inf = NaN and so is the
        # step there; lam_min = 0 must not be taken as a zero lower bound.
        def make_grad_fn():
            calls = [0]

            def grad_fn(_):
                calls[0] += 1
                return np.full(4, 1e10) if calls[0] <= 3 else np.array([0.0, 1.0, 0.0, 1.0])

            return grad_fn

        cfg = AliceConfig(lam=1e-3, beta1=0.9, beta2=0.0, eps=1e-300, lam_min=0.0,
                          lam_max=0.01, limit_method="adam", quick_steps=1)
        opt, opt_grad = Alice(np.zeros(4), cfg, seed=0), make_grad_fn()
        ref_state, ref_grad = TopographyState.fresh(np.zeros(4)), make_grad_fn()
        ref_rng = np.random.default_rng(0)
        with np.errstate(all="ignore"):
            for step in range(2):
                record = opt.step(opt_grad)
                want = _composed_step(ref_state, cfg, ref_rng, step == 0, ref_grad)
        assert np.isnan(record.delta[[0, 2]]).all()
        assert record.delta.tobytes() == want.delta.tobytes()
        assert opt.state.mu.tobytes() == ref_state.mu.tobytes()

    def test_fixed_lower_bound_gives_zero_step_where_gradient_is_zero(self):
        cfg = AliceConfig(lam=1e-2, lam_min=0.01, lam_max=0.05, limit_method="fixed")
        opt = Alice(np.ones(6), cfg, seed=0)
        for _ in range(3):
            record = opt.step(lambda th: np.array([1.0, 0.0, -2.0, 0.0, 0.5, 3.0]) * th)
        zero = np.array([False, True, False, True, False, False])
        assert np.array_equal(record.delta[zero], np.zeros(2))
        assert np.all(np.abs(record.delta[~zero]) >= 0.01)

    @pytest.mark.parametrize("full", [True, False])
    def test_step_allocates_only_its_record(self, full):
        # Gradients come from a preallocated pool, so beyond the record's
        # delta, h_glass and h_bar a step may allocate at most one more
        # parameter-length array (plus small bool or scalar scratch).
        d = 400_000
        pool = [np.full(d, 0.5) for _ in range(3)]
        calls = [0]

        def grad_fn(_):
            calls[0] += 1
            return pool[calls[0] % 3]

        opt = Alice(np.zeros(d), AliceConfig(lam=0.01, quick_steps=1), seed=0)
        for _ in range(2 if full else 3):  # warm caches; the next step is full or quick
            opt.step(grad_fn)
        assert (opt._cycle_pos == 0) == full
        tracemalloc.start()
        try:
            baseline, _ = tracemalloc.get_traced_memory()
            record = opt.step(grad_fn)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert record.delta.shape == (d,)
        assert peak - baseline < (3 + 1.5) * 8 * d


class TestQuickStepAccounting:
    def test_six_gradients_per_four_steps(self):
        (row,) = harness.grad_eval_rows(quick_steps=3, steps=8)
        assert row.passed and row.empirical == 12

    def test_quick_steps_zero_all_full(self):
        (row,) = harness.grad_eval_rows(quick_steps=0, steps=4)
        assert row.passed and row.empirical == 12  # 3 per step


class TestReferenceOptimizers:
    @pytest.mark.parametrize("n_steps", [0, 1, 60])
    def test_match_the_frozen_loops_bitwise(self, n_steps):
        _, params, _, grad_fn = small_net(seed=7, loss="xent")
        adam_args = (params, grad_fn, 3e-3, 0.8, 0.99, 1e-7, n_steps)
        sgdm_args = (params, grad_fn, 5e-3, 0.7, n_steps)
        assert np.array_equal(reference_adam(*adam_args), reference_adam_loop(*adam_args))
        for iterates, frozen, args in (
            (adam_iterates, reference_adam_loop, adam_args),
            (sgdm_iterates, reference_sgdm_loop, sgdm_args),
        ):
            # Each iterate is its own array: later steps leave it as yielded.
            assert np.array_equal(np.stack(list(iterates(*args))), frozen(*args))

    def test_zero_gradient_keeps_parameters(self):
        params = np.array([1.0, -2.0])
        for iterates in (adam_iterates, sgdm_iterates):
            *_, last = iterates(params, lambda _: np.zeros(2), 0.1, n_steps=5)
            assert np.array_equal(last, params)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_adam_overflowing_average_raises_at_its_step(self):
        # A finite 1e200 gradient overflows g*g; left in v it would zero every step.
        grads = iter([np.ones(2), np.array([1e200, 1.0])])
        iterates = adam_iterates(np.zeros(2), lambda _: next(grads), 0.01, n_steps=3)
        assert len([next(iterates), next(iterates)]) == 2
        with pytest.raises(NumericsError, match="^running averages overflowed: v$"):
            next(iterates)

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
        traj = np.stack(list(sgdm_iterates(np.array([2.0, -1.0]), lambda th: h_diag * th, 0.05,
                                           n_steps=300)))
        values = 0.5 * np.sum(h_diag * traj**2, axis=1)
        assert values[-1] < 1e-3 * values[0]


class TestNaqExactness:
    def test_zero_initial_error_stays_exact(self):
        d = 8
        h_bar = np.linspace(1.0, 2.0, d)
        hidden = np.diag(h_bar)
        g_star0 = np.random.default_rng(0).standard_normal(d)
        report = naq_exactness_check(hidden, g_star0, np.zeros(d), 0.9, h_bar, 30)
        assert not report.diverged
        assert np.all(report.error_abs <= 1e-12 * np.linalg.norm(g_star0))

    @staticmethod
    def _rows(beta1):
        """naq_rows for one beta1 on the seed-1 problem, with the seed-2 wrong-phi control."""
        hidden, h_bar, g_star0, gamma0 = harness.hidden_quadratic(np.random.default_rng(1))
        report = naq_exactness_check(hidden, g_star0, gamma0, beta1, h_bar, 50)
        hidden, h_bar, g_star0, gamma0 = harness.hidden_quadratic(np.random.default_rng(2))
        control = naq_exactness_check(hidden, g_star0, gamma0, 0.9, h_bar, 50, phi=0.2)
        return {row.quantity: row for row in harness.naq_rows([report], control, 50)}

    @pytest.mark.parametrize("beta1", [0.9, 0.95, 0.99])
    def test_error_contracts_by_beta1(self, beta1):
        rows = self._rows(beta1)
        assert rows["max_error_contraction_residual"].passed
        assert rows["max_model_prediction_residual"].passed

    def test_wrong_phi_is_detected(self):
        assert self._rows(0.9)["negative_control_residual"].passed

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
        assert np.all(record.h_bar >= opt.cfg.eps)
        assert np.all(record.h_glass >= 0.0)
        assert 0.0 <= record.clamped_low_fraction + record.clamped_high_fraction <= 1.0
