"""The Alice optimizer: glass-aware quasi-Newton steps with Nesterov acceleration.

Alice keeps running averages of the gradient g, the glass density rho, two
nonnegative Hessian-diagonal surrogates (h_abs from central differences,
h_rms from their root mean square), and the raw gradient second moment s.
A full topography update spends three gradient evaluations around the
evaluation center nu:

    g+ = grad(nu + lam*t),  g- = grad(nu - lam*t),  g0 = grad(nu)

with a Rademacher sign vector t, then updates

    g      <- b1*g      + (1-b1) * g0
    h_abs  <- b2*h_abs  + (1-b2) * |g+ - g-| / (2 lam)
    h_rms2 <- b2*h_rms2 + (1-b2) * (g+ - g-)^2 / (4 lam^2)
    rho    <- b2*rho    + (1-b2) * (2/lam) * ((g+ + g-)/2 - g0)^2
    s      <- b2*s      + (1-b2) * g0^2

Quick steps refresh only g and s from a single evaluation, freezing the
curvature statistics. The step itself clamps the modified quasi-Newton scale
|g| / h_bar between bounds that can be fixed lengths, SGD-M-like multiples of
|g|, or Adam-like lam * |g| / (sqrt(s) + eps); with phi = omega = 1 and
lam_min = lam_max the trajectory reproduces SGD-M or Adam exactly. Setting
phi = 1 - b1 and omega = 1 gives the accelerated variant whose running
gradient error contracts by exactly b1 per step on linear gradient fields.

The full update is written in-place and allocates a single parameter-length
temporary beyond the persistent state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .netkit import ConfigError, NumericsError

LIMIT_METHODS = ("fixed", "sgdm", "adam")
CURVATURE_TERMS = ("rho", "h_abs", "h_rms")

_FOUR_PI = 4.0 * math.pi


@dataclass
class AliceConfig:
    """Hyperparameters of the optimizer.

    lam is the probe distance of the topography update; lam_min and lam_max
    bound the step according to limit_method. phi is the fraction of the step
    applied to the actual position, omega the fraction used for the next
    gradient-evaluation center. terms selects which curvature statistics
    enter the step (when both h_abs and h_rms are listed, h_abs is used).
    phi and omega default to 1; naq=True sets phi = 1 - beta1 and omega = 1,
    and rejects an explicit phi or omega with a different value.
    """

    lam: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    phi: float | None = None
    omega: float | None = None
    lam_min: float = 0.0
    lam_max: float = 0.01
    limit_method: str = "adam"
    quick_steps: int = 0
    terms: tuple[str, ...] = ("rho", "h_abs")
    naq: bool = False

    def __post_init__(self):
        if self.naq:
            for name, value in (("phi", 1.0 - self.beta1), ("omega", 1.0)):
                if getattr(self, name) not in (None, value):
                    raise ConfigError(
                        f"alice.{name} = {getattr(self, name)!r} conflicts with alice.naq = true,"
                        f" which sets {name} = {value!r}"
                    )
                setattr(self, name, value)
        else:
            self.phi = 1.0 if self.phi is None else self.phi
            self.omega = 1.0 if self.omega is None else self.omega
        self.terms = tuple(self.terms)
        if not self.lam > 0:
            raise ConfigError(f"alice.lam must be positive, got {self.lam}")
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"alice.{name} must lie in [0, 1), got {getattr(self, name)}")
        if not self.eps > 0:
            raise ConfigError(f"alice.eps must be positive, got {self.eps}")
        if not 0.0 < self.phi <= 1.0:
            raise ConfigError(f"alice.phi must lie in (0, 1], got {self.phi}")
        if not self.phi <= self.omega <= 1.0:
            raise ConfigError(f"alice.omega must lie in [alice.phi, 1], got {self.omega}")
        if not self.lam_min >= 0:
            raise ConfigError(f"alice.lam_min must be >= 0, got {self.lam_min}")
        if not self.lam_max > 0:
            raise ConfigError(f"alice.lam_max must be > 0, got {self.lam_max}")
        if self.lam_min > self.lam_max:
            raise ConfigError(
                f"alice.lam_min must be <= alice.lam_max, got {self.lam_min} > {self.lam_max}"
            )
        if self.limit_method not in LIMIT_METHODS:
            raise ConfigError(
                f"alice.limit_method must be one of {LIMIT_METHODS}, got {self.limit_method!r}"
            )
        if self.quick_steps < 0:
            raise ConfigError(f"alice.quick_steps must be >= 0, got {self.quick_steps}")
        unknown = set(self.terms) - set(CURVATURE_TERMS)
        if unknown:
            raise ConfigError(
                f"alice.terms must be drawn from {CURVATURE_TERMS}, got unknown {sorted(unknown)}"
            )


@dataclass
class TopographyState:
    """Running averages plus the actual (mu) and evaluation (nu) positions."""

    g: np.ndarray
    rho: np.ndarray
    h_abs: np.ndarray
    h_rms2: np.ndarray
    s: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    step_count: int = 0

    @staticmethod
    def fresh(params: np.ndarray) -> "TopographyState":
        params = np.asarray(params, dtype=np.float64)
        d = params.shape[0]
        return TopographyState(
            g=np.zeros(d),
            rho=np.zeros(d),
            h_abs=np.zeros(d),
            h_rms2=np.zeros(d),
            s=np.zeros(d),
            mu=params.copy(),
            nu=params.copy(),
        )

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


@dataclass(frozen=True)
class StepRecord:
    """Diagnostics of one applied step."""

    delta: np.ndarray
    h_glass: np.ndarray | None
    h_bar: np.ndarray | None
    clamped_low_fraction: float
    clamped_high_fraction: float
    interior_fraction: float


def _checked_grad(grad_fn, point, label) -> np.ndarray:
    g = np.asarray(grad_fn(point), dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NumericsError(f"non-finite gradient at the {label} evaluation")
    return g


def _check_statistics(state: TopographyState, names: tuple[str, ...]) -> None:
    """Raise NumericsError naming every running statistic in names that is not finite.

    A finite gradient can still overflow a statistic, most often s when |g|
    exceeds ~1.3e154 and g*g is inf. Left in place, an infinite s makes the
    Adam-like step bound |g_hat| / (sqrt(s_hat) + eps) zero, and Alice would
    take silent zero steps.
    """
    bad = [name for name in names if not np.isfinite(getattr(state, name)).all()]
    if bad:
        raise NumericsError(
            f"running statistics overflowed at update {state.step_count}: {', '.join(bad)}"
        )


def topography_update(
    state: TopographyState,
    grad_fn: Callable[[np.ndarray], np.ndarray],
    cfg: AliceConfig,
    rng,
    temp: np.ndarray | None = None,
) -> TopographyState:
    """Full three-evaluation update of all running statistics, in place.

    Probe points and intermediate quantities are staged through one
    parameter-length temporary (plus the arrays grad_fn returns, which are
    recycled as workspace once consumed). Returns the mutated state.
    """
    rng = np.random.default_rng(rng)
    lam = cfg.lam
    d = state.dim
    if temp is None:
        temp = np.empty(d)
    # temp <- nu + lam * (random signs)
    rng.random(out=temp)
    temp -= 0.5
    np.copysign(lam, temp, out=temp)
    temp += state.nu
    g_plus = _checked_grad(grad_fn, temp, "plus-probe")
    # temp <- nu - (temp - nu), the mirrored probe point
    temp -= state.nu
    np.negative(temp, out=temp)
    temp += state.nu
    g_minus = _checked_grad(grad_fn, temp, "minus-probe")

    np.subtract(g_plus, g_minus, out=temp)
    temp /= 2.0 * lam
    # g_minus <- (g+ + g-)/2; g_plus becomes free workspace
    np.add(g_plus, g_minus, out=g_minus)
    g_minus *= 0.5

    state.h_abs *= cfg.beta2
    np.abs(temp, out=g_plus)
    g_plus *= 1.0 - cfg.beta2
    state.h_abs += g_plus

    state.h_rms2 *= cfg.beta2
    np.multiply(temp, temp, out=temp)
    temp *= 1.0 - cfg.beta2
    state.h_rms2 += temp

    g0 = _checked_grad(grad_fn, state.nu, "center")

    state.rho *= cfg.beta2
    np.subtract(g_minus, g0, out=g_minus)
    np.multiply(g_minus, g_minus, out=g_minus)
    g_minus *= (1.0 - cfg.beta2) * (2.0 / lam)
    state.rho += g_minus

    state.g *= cfg.beta1
    np.multiply(g0, 1.0 - cfg.beta1, out=temp)
    state.g += temp

    state.s *= cfg.beta2
    np.multiply(g0, g0, out=temp)
    temp *= 1.0 - cfg.beta2
    state.s += temp

    state.step_count += 1
    _check_statistics(state, ("g", "s", "rho", "h_abs", "h_rms2"))
    return state


def quick_update(
    state: TopographyState,
    grad_fn: Callable[[np.ndarray], np.ndarray],
    cfg: AliceConfig,
) -> TopographyState:
    """Single-evaluation update of g and s only; curvature statistics stay frozen."""
    g0 = _checked_grad(grad_fn, state.nu, "center")
    state.g = cfg.beta1 * state.g + (1.0 - cfg.beta1) * g0
    state.s = cfg.beta2 * state.s + (1.0 - cfg.beta2) * (g0 * g0)
    state.step_count += 1
    _check_statistics(state, ("g", "s"))
    return state


def glass_term(rho: np.ndarray, g: np.ndarray, eps: float) -> np.ndarray:
    """Per-coordinate glass curvature 3 rho / (4 pi |g| + eps)."""
    rho = np.asarray(rho, dtype=np.float64)
    if np.any(rho < 0):
        raise ConfigError("glass density must be nonnegative")
    return 3.0 * rho / (_FOUR_PI * np.abs(g) + eps)


def modified_hessian(h_glass: np.ndarray, h: np.ndarray, eps: float) -> np.ndarray:
    """Combine glass and Hessian curvatures into the step denominator.

    h_bar = h_glass + h + sqrt(h_glass * (h_glass + 2 h)) + eps, the exact
    per-coordinate minimizer denominator for a gradient plus quadratic plus
    3/2-power glass penalty. Both inputs must be nonnegative; callers must
    rectify h first.
    """
    h_glass = np.asarray(h_glass, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if np.any(h_glass < 0) or np.any(h < 0):
        raise ConfigError("curvature terms must be nonnegative")
    return h_glass + h + np.sqrt(h_glass * (h_glass + 2.0 * h)) + eps


def qn_scale(g: np.ndarray, h_bar: np.ndarray) -> np.ndarray:
    """Quasi-Newton step magnitude |g| / h_bar."""
    return np.abs(g) / h_bar


def step_limits(method: str, g: np.ndarray, s: np.ndarray, cfg: AliceConfig, step_count: int):
    """Lower/upper step-magnitude bounds for the active limit method.

    fixed: the constants lam_min, lam_max. sgdm: lam_min/lam_max * |g|.
    adam: lam_min/lam_max * |g_hat| / (sqrt(s_hat) + eps) with g_hat, s_hat
    bias-corrected by the update count, so that pinning lam_min = lam_max
    reproduces the reference methods step for step.
    """
    if method == "fixed":
        return np.full_like(g, cfg.lam_min), np.full_like(g, cfg.lam_max)
    if method == "sgdm":
        base = np.abs(g)
        return cfg.lam_min * base, cfg.lam_max * base
    if method == "adam":
        if step_count < 1:
            raise ConfigError("adam limits need at least one topography update")
        g_hat = g / (1.0 - cfg.beta1**step_count)
        s_hat = s / (1.0 - cfg.beta2**step_count)
        base = np.abs(g_hat) / (np.sqrt(s_hat) + cfg.eps)
        return cfg.lam_min * base, cfg.lam_max * base
    raise ConfigError(f"limit_method must be one of {LIMIT_METHODS}")


def apply_step(
    state: TopographyState,
    delta_scale: np.ndarray,
    cfg: AliceConfig,
    h_glass: np.ndarray | None = None,
    h_bar: np.ndarray | None = None,
) -> StepRecord:
    """Clamp the step magnitude, orient it downhill, and move mu and nu.

    nu <- mu + omega * delta and mu <- mu + phi * delta, both from the
    pre-step mu. Where g is exactly zero the step is zero.
    """
    delta_scale = np.asarray(delta_scale, dtype=np.float64)
    if np.any(delta_scale < 0):
        raise ConfigError("delta_scale must be nonnegative")
    lo, hi = step_limits(cfg.limit_method, state.g, state.s, cfg, state.step_count)
    clamped = np.clip(delta_scale, lo, hi)
    low_frac = float(np.mean(delta_scale < lo))
    high_frac = float(np.mean(delta_scale > hi))
    delta = -np.sign(state.g) * clamped
    np.add(state.mu, cfg.omega * delta, out=state.nu)
    state.mu += cfg.phi * delta
    return StepRecord(
        delta=delta,
        h_glass=h_glass,
        h_bar=h_bar,
        clamped_low_fraction=low_frac,
        clamped_high_fraction=high_frac,
        interior_fraction=1.0 - low_frac - high_frac,
    )


def naq_coefficients(beta1: float) -> tuple[float, float]:
    """Acceleration fractions (phi, omega) = (1 - beta1, 1) that make the
    running-gradient error contract by exactly beta1 per step."""
    if not 0.0 <= beta1 < 1.0:
        raise ConfigError("beta1 must lie in [0, 1)")
    return 1.0 - beta1, 1.0


def curvature_terms(state: TopographyState, cfg: AliceConfig):
    """Active (rho, h) pair per the configured terms."""
    rho = state.rho if "rho" in cfg.terms else np.zeros(state.dim)
    if "h_abs" in cfg.terms:
        h = state.h_abs
    elif "h_rms" in cfg.terms:
        h = np.sqrt(state.h_rms2)
    else:
        h = np.zeros(state.dim)
    return rho, h


class Alice:
    """Stateful driver: topography updates interleaved with optimization steps.

    One instance owns its state and must be stepped sequentially; distinct
    instances are independent. The gradient callable is invoked only from
    step(). A cycle of (1 full + quick_steps quick) updates runs with the
    full update first; quick_steps=0 makes every step a full update.
    """

    def __init__(self, params: np.ndarray, cfg: AliceConfig, seed: int = 0):
        self.cfg = cfg
        self.state = TopographyState.fresh(params)
        self.rng = np.random.default_rng(seed)
        self.n_grad_evals = 0
        self._cycle_pos = 0
        self._temp = np.empty(self.state.dim)

    @property
    def params(self) -> np.ndarray:
        return self.state.mu

    def step(self, grad_fn: Callable[[np.ndarray], np.ndarray]) -> StepRecord:
        def counted(point):
            self.n_grad_evals += 1
            return grad_fn(point)

        if self._cycle_pos == 0:
            topography_update(self.state, counted, self.cfg, self.rng, self._temp)
        else:
            quick_update(self.state, counted, self.cfg)
        self._cycle_pos = (self._cycle_pos + 1) % (self.cfg.quick_steps + 1)

        rho, h = curvature_terms(self.state, self.cfg)
        h_glass = glass_term(rho, self.state.g, self.cfg.eps)
        h_bar = modified_hessian(h_glass, h, self.cfg.eps)
        return apply_step(self.state, qn_scale(self.state.g, h_bar), self.cfg, h_glass, h_bar)


# ---------------------------------------------------------------------------
# Reference optimizers (replication oracles)


def adam_iterates(params, grad_fn, lr, beta1=0.9, beta2=0.999, eps=1e-8, n_steps=100):
    """Textbook Adam with bias correction. Yields theta_0, ..., theta_n_steps.

    Operation order inside the update mirrors the optimizer's in-place
    running averages so that pinned-limit replication is exact to the ulp.
    Each yielded iterate is a fresh array that later steps do not modify.
    """
    theta = np.array(params, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    yield theta
    for t in range(1, n_steps + 1):
        g = np.asarray(grad_fn(theta), dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps))
        yield theta


def sgdm_iterates(params, grad_fn, lr, beta1=0.9, n_steps=100):
    """SGD with (1-beta1)-scaled momentum: v <- b1 v + (1-b1) g, theta <- theta - lr v.

    Yields theta_0, ..., theta_n_steps, each a fresh array.
    """
    theta = np.array(params, dtype=np.float64)
    v = np.zeros_like(theta)
    yield theta
    for _ in range(n_steps):
        g = np.asarray(grad_fn(theta), dtype=np.float64)
        v = beta1 * v + (1.0 - beta1) * g
        theta = theta - lr * v
        yield theta


def _trajectory(iterates, n_steps):
    """The (n_steps+1, d) array of an optimizer's iterates, filled as they come."""
    theta = next(iterates)
    traj = np.empty((n_steps + 1, theta.shape[0]))
    traj[0] = theta
    for t, theta in enumerate(iterates, start=1):
        traj[t] = theta
    return traj


def reference_adam(params, grad_fn, lr, beta1=0.9, beta2=0.999, eps=1e-8, n_steps=100):
    """adam_iterates as an (n_steps+1, d) trajectory."""
    return _trajectory(adam_iterates(params, grad_fn, lr, beta1, beta2, eps, n_steps), n_steps)


def reference_sgdm(params, grad_fn, lr, beta1=0.9, n_steps=100):
    """sgdm_iterates as an (n_steps+1, d) trajectory."""
    return _trajectory(sgdm_iterates(params, grad_fn, lr, beta1, n_steps), n_steps)


# ---------------------------------------------------------------------------
# Exactness of the accelerated update on linear gradient fields


@dataclass(frozen=True)
class NaqReport:
    """Per-step residuals of the error-contraction identity.

    error_rel[s] compares the running-gradient error against beta1^s times
    the initial error, relative to the latter's norm; prediction_rel[s]
    checks that the model gradient at the new position is beta1 times the
    previous running gradient.
    """

    error_rel: np.ndarray
    error_abs: np.ndarray
    prediction_rel: np.ndarray
    diverged: bool

    @property
    def max_error_rel(self) -> float:
        return float(np.max(self.error_rel)) if self.error_rel.size else 0.0


def naq_exactness_check(
    h_hidden: np.ndarray,
    g_star0: np.ndarray,
    gamma0: np.ndarray,
    beta1: float,
    h_bar: np.ndarray,
    n_steps: int,
    phi: float | None = None,
    omega: float = 1.0,
) -> NaqReport:
    """Simulate accelerated quasi-Newton steps against a hidden linear gradient.

    The true gradient is g*(mu) = g_star0 + H mu; the optimizer only sees its
    running average g (initialized with error gamma0) and steps by
    -g / h_bar. With phi = 1 - beta1 (the default) and omega = 1, the error
    g - g*(mu) equals beta1^s * gamma0 at every step; other phi values serve
    as negative controls. Divergence is reported, not raised.
    """
    h_hidden = np.asarray(h_hidden, dtype=np.float64)
    g_star0 = np.asarray(g_star0, dtype=np.float64)
    gamma0 = np.asarray(gamma0, dtype=np.float64)
    h_bar = np.asarray(h_bar, dtype=np.float64)
    if phi is None:
        phi, omega = naq_coefficients(beta1)
    d = g_star0.shape[0]
    mu = np.zeros(d)
    g_run = g_star0 + gamma0
    gamma_expected = gamma0.copy()
    gamma0_norm = float(np.linalg.norm(gamma0))
    scale = max(float(np.linalg.norm(g_run)), 1.0)
    err_rel = np.full(n_steps, np.nan)
    err_abs = np.full(n_steps, np.nan)
    pred_rel = np.full(n_steps, np.nan)
    diverged = False
    for s in range(n_steps):
        delta = -g_run / h_bar
        model_next = g_run + h_bar * (phi * delta)
        pred_target = beta1 * g_run
        pred_rel[s] = float(
            np.linalg.norm(model_next - pred_target) / max(np.linalg.norm(pred_target), 1e-300)
        )
        nu_next = mu + omega * delta
        mu = mu + phi * delta
        g_run = beta1 * g_run + (1.0 - beta1) * (g_star0 + h_hidden @ nu_next)
        if not np.all(np.isfinite(g_run)) or np.linalg.norm(g_run) > 1e12 * scale:
            diverged = True
            err_rel = err_rel[: s + 1]
            err_abs = err_abs[: s + 1]
            pred_rel = pred_rel[: s + 1]
            break
        gamma_actual = g_run - (g_star0 + h_hidden @ mu)
        gamma_expected *= beta1
        err_abs[s] = float(np.linalg.norm(gamma_actual - gamma_expected))
        if gamma0_norm > 0:
            err_rel[s] = err_abs[s] / float(np.linalg.norm(gamma_expected))
        else:
            err_rel[s] = 0.0 if err_abs[s] == 0.0 else math.inf
    return NaqReport(err_rel, err_abs, pred_rel, diverged)
