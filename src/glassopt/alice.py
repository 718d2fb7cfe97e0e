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
curvature statistics. The step itself, apply_step, clamps the modified
quasi-Newton scale |g| / h_bar between bounds that can be fixed lengths,
SGD-M-like multiples of |g|, or Adam-like lam * |g| / (sqrt(s) + eps); with
lam_min = lam_max the plain step reproduces SGD-M or Adam exactly. The
accelerated variant (naq) moves the actual position by only the fraction
phi = 1 - b1 of each step, while the next evaluation center takes the whole
step; its running gradient error then contracts by exactly b1 per step on
linear gradient fields.

Both updates and the step work in place: standalone, each update allocates
one parameter-length temporary beyond the persistent state (none when handed
one), and neither writes into the arrays the gradient callable returns.
Alice.step hands all three a per-instance workspace and allocates only its
record's three arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .glass import rademacher_signs
from .netkit import ConfigError, NumericsError, all_finite, check_seed

LIMIT_METHODS = ("fixed", "sgdm", "adam")
CURVATURE_TERMS = ("rho", "h_abs", "h_rms")

_FOUR_PI = 4.0 * math.pi


@dataclass
class AliceConfig:
    """Hyperparameters of the optimizer.

    lam is the probe distance of the topography update; lam_min and lam_max
    bound the step according to limit_method. terms selects which curvature
    statistics enter the step: rho, and at most one of the Hessian surrogates
    h_abs and h_rms. naq selects the accelerated step (see phi).
    """

    lam: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lam_min: float = 0.0
    lam_max: float = 0.01
    limit_method: str = "adam"
    quick_steps: int = 0
    terms: tuple[str, ...] = ("rho", "h_abs")
    naq: bool = False

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"alice.{name} must lie in [0, 1), got {getattr(self, name)}")
        self.terms = tuple(self.terms)
        if not self.lam > 0:
            raise ConfigError(f"alice.lam must be positive, got {self.lam}")
        if not self.eps > 0:
            raise ConfigError(f"alice.eps must be positive, got {self.eps}")
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
        if {"h_abs", "h_rms"} <= set(self.terms):
            raise ConfigError("alice.terms must name at most one of h_abs and h_rms, got both")

    @property
    def phi(self) -> float:
        """Fraction of each step applied to the actual position: 1 - beta1 under naq, else 1."""
        return naq_coefficients(self.beta1) if self.naq else 1.0


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
    h_glass: np.ndarray
    h_bar: np.ndarray
    clamped_low_fraction: float
    clamped_high_fraction: float


def _checked_grad(grad_fn, point, label) -> np.ndarray:
    g = np.asarray(grad_fn(point), dtype=np.float64)
    if not all_finite(g):
        raise NumericsError(f"non-finite gradient at the {label} evaluation")
    return g


def _check_statistics(state: TopographyState, names: tuple[str, ...]) -> None:
    """Raise NumericsError naming every running statistic in names that is not finite.

    A finite gradient can still overflow a statistic, most often s when |g|
    exceeds ~1.3e154 and g*g is inf. Left in place, an infinite s makes the
    Adam-like step bound |g_hat| / (sqrt(s_hat) + eps) zero, and Alice would
    take silent zero steps.
    """
    bad = [name for name in names if not all_finite(getattr(state, name))]
    if bad:
        raise NumericsError(
            f"running statistics overflowed at update {state.step_count}: {', '.join(bad)}"
        )


def _average_into(avg: np.ndarray, beta: float, term: np.ndarray) -> None:
    """avg <- beta * avg + term, in place; term holds the already weighted new value."""
    avg *= beta
    avg += term


def topography_update(
    state: TopographyState,
    grad_fn: Callable[[np.ndarray], np.ndarray],
    cfg: AliceConfig,
    rng,
    temp: np.ndarray | None = None,
) -> TopographyState:
    """Full three-evaluation update of all running statistics, in place.

    The probe signs t are one glass.rademacher_signs draw of length d from
    rng, written into temp. Probe points and intermediate quantities are
    staged through that one parameter-length temporary, temp if given; the
    arrays grad_fn returns are only read. Returns the mutated state.
    """
    rng = np.random.default_rng(rng)
    lam = cfg.lam
    d = state.dim
    if temp is None:
        temp = np.empty(d)
    # temp <- nu + lam * (Rademacher signs)
    rademacher_signs(rng, d, out=temp)
    temp *= lam
    temp += state.nu
    g_plus = _checked_grad(grad_fn, temp, "plus-probe")
    # temp <- nu - (temp - nu), the mirrored probe point
    temp -= state.nu
    np.negative(temp, out=temp)
    temp += state.nu
    g_minus = _checked_grad(grad_fn, temp, "minus-probe")

    # The difference quotient (g+ - g-) / (2 lam) feeds both h_abs and h_rms2;
    # with one temporary it is formed twice rather than kept.
    np.subtract(g_plus, g_minus, out=temp)
    temp /= 2.0 * lam
    np.abs(temp, out=temp)
    temp *= 1.0 - cfg.beta2
    _average_into(state.h_abs, cfg.beta2, temp)

    np.subtract(g_plus, g_minus, out=temp)
    temp /= 2.0 * lam
    np.multiply(temp, temp, out=temp)
    temp *= 1.0 - cfg.beta2
    _average_into(state.h_rms2, cfg.beta2, temp)

    # temp <- (g+ + g-)/2, held until the center gradient arrives
    np.add(g_plus, g_minus, out=temp)
    temp *= 0.5
    g0 = _checked_grad(grad_fn, state.nu, "center")

    np.subtract(temp, g0, out=temp)
    np.multiply(temp, temp, out=temp)
    temp *= (1.0 - cfg.beta2) * (2.0 / lam)
    _average_into(state.rho, cfg.beta2, temp)

    _update_g_and_s(state, g0, cfg, temp)
    _check_statistics(state, ("g", "s", "rho", "h_abs", "h_rms2"))
    return state


def _update_g_and_s(state: TopographyState, g0: np.ndarray, cfg: AliceConfig, temp) -> None:
    """g <- b1 g + (1-b1) g0 and s <- b2 s + (1-b2) g0^2 in place; counts the update."""
    np.multiply(g0, 1.0 - cfg.beta1, out=temp)
    _average_into(state.g, cfg.beta1, temp)
    np.multiply(g0, g0, out=temp)
    temp *= 1.0 - cfg.beta2
    _average_into(state.s, cfg.beta2, temp)
    state.step_count += 1


def quick_update(
    state: TopographyState,
    grad_fn: Callable[[np.ndarray], np.ndarray],
    cfg: AliceConfig,
    temp: np.ndarray | None = None,
) -> TopographyState:
    """Single-evaluation update of g and s only; curvature statistics stay frozen.

    g and s are updated in place through one parameter-length temporary,
    temp if given.
    """
    g0 = _checked_grad(grad_fn, state.nu, "center")
    _update_g_and_s(state, g0, cfg, np.empty(state.dim) if temp is None else temp)
    _check_statistics(state, ("g", "s"))
    return state


def _any_negative(x: np.ndarray, mask: np.ndarray) -> bool:
    return np.count_nonzero(np.less(x, 0.0, out=mask)) > 0


def apply_step(
    state: TopographyState,
    cfg: AliceConfig,
    work: tuple[np.ndarray, np.ndarray] | None = None,
) -> StepRecord:
    """Take one step from the running statistics, in place; returns its record.

    Per coordinate, with rho and h the curvature statistics cfg.terms selects
    (zero when absent; h is h_abs, else sqrt(h_rms2)):

        h_glass = 3 rho / (4 pi |g| + eps)
        h_bar   = h_glass + h + sqrt(h_glass * (h_glass + 2 h)) + eps
        delta   = -sign(g) * clip(|g| / h_bar, lo, hi)
        nu     <- mu + delta,   mu <- mu + phi * delta

    h_bar is the exact minimizer denominator for a gradient plus quadratic
    plus 3/2-power glass penalty. The bounds (lo, hi) are lam_min and lam_max
    for fixed limits, those times |g| for sgdm, and those times
    |g_hat| / (sqrt(s_hat) + eps) for adam, with g_hat and s_hat
    bias-corrected by the update count, so that pinning lam_min = lam_max
    reproduces the reference methods step for step. Where g is exactly zero
    the step is zero.

    work is a (5 x d float rows, d bool) workspace, allocated when None; the
    record's delta, h_glass and h_bar are fresh arrays on every call.
    """
    g, eps = state.g, cfg.eps
    if work is None:
        work = (np.empty((5, state.dim)), np.empty(state.dim, dtype=bool))
    (abs_g, tmp, scale, lo, hi), mask = work
    # A validated cfg has eps > 0, so h_glass and |g| / h_bar need no sign
    # check. |g| is formed once; the glass term, the scale and the sgdm and
    # adam bounds each take it (|g / c| == |g| / c exactly for c > 0).
    np.abs(g, out=abs_g)

    if "rho" in cfg.terms:
        if _any_negative(state.rho, mask):
            raise ConfigError("glass density must be nonnegative")
        h_glass = np.multiply(abs_g, _FOUR_PI)
        h_glass += eps
        np.multiply(state.rho, 3.0, out=tmp)
        np.divide(tmp, h_glass, out=h_glass)
    else:
        h_glass = np.zeros(state.dim)

    if "h_abs" in cfg.terms:
        h = state.h_abs
    elif "h_rms" in cfg.terms:
        h = np.sqrt(state.h_rms2, out=lo)
    else:
        h = lo
        h.fill(0.0)
    if _any_negative(h, mask):
        raise ConfigError("curvature terms must be nonnegative")
    h_bar = np.add(h_glass, h)
    np.multiply(h, 2.0, out=tmp)
    tmp += h_glass
    tmp *= h_glass
    np.sqrt(tmp, out=tmp)
    h_bar += tmp
    h_bar += eps
    # An infinite h_bar, like an infinite s, would make its step silently zero.
    if not all_finite(h_bar, mask):
        raise NumericsError(f"step denominator h_bar overflowed at update {state.step_count}")

    np.divide(abs_g, h_bar, out=scale)
    method = cfg.limit_method
    if method == "fixed":
        base = None
    elif method == "sgdm":
        base = abs_g
    else:  # adam
        if state.step_count < 1:
            raise ConfigError("adam limits need at least one topography update")
        base = np.divide(abs_g, 1.0 - cfg.beta1**state.step_count, out=hi)
        np.divide(state.s, 1.0 - cfg.beta2**state.step_count, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        base /= tmp
    # lo is +0 everywhere when lam_min is +0.0 and base is finite (|g| is,
    # after the statistics check). Then no scale lies below lo, and clip
    # is the upper clamp alone, which np.minimum gives bitwise: neither
    # scale nor hi is ever -0, and a NaN in either is passed through.
    lo_is_zero = (
        cfg.lam_min == 0.0
        and math.copysign(1.0, cfg.lam_min) > 0
        and (method != "adam" or all_finite(base))
    )
    if base is None:
        lo, hi = cfg.lam_min, cfg.lam_max
    else:
        if not lo_is_zero:
            np.multiply(base, cfg.lam_min, out=lo)
        np.multiply(base, cfg.lam_max, out=hi)
    d = state.dim or math.nan  # an empty vector's fractions are NaN, as np.mean's are
    high_frac = np.count_nonzero(np.greater(scale, hi, out=mask)) / d
    if lo_is_zero:
        low_frac = 0.0 / d
        np.minimum(scale, hi, out=scale)
    else:
        low_frac = np.count_nonzero(np.less(scale, lo, out=mask)) / d
        np.clip(scale, lo, hi, out=scale)
    delta = np.sign(g)
    np.negative(delta, out=delta)
    delta *= scale
    np.add(state.mu, delta, out=state.nu)
    # Without naq phi is 1.0, and x * 1.0 == x bitwise.
    np.multiply(delta, cfg.phi, out=tmp)
    state.mu += tmp
    return StepRecord(
        delta=delta,
        h_glass=h_glass,
        h_bar=h_bar,
        clamped_low_fraction=low_frac,
        clamped_high_fraction=high_frac,
    )


def naq_coefficients(beta1: float) -> float:
    """The accelerated step's fraction phi = 1 - beta1, which makes the
    running-gradient error contract by exactly beta1 per step."""
    if not 0.0 <= beta1 < 1.0:
        raise ConfigError("beta1 must lie in [0, 1)")
    return 1.0 - beta1


class Alice:
    """Stateful driver: topography updates interleaved with optimization steps.

    One instance owns its state and must be stepped sequentially; distinct
    instances are independent. The gradient callable is invoked only from
    step(). A cycle of (1 full + quick_steps quick) updates runs with the
    full update first; quick_steps=0 makes every step a full update.

    Each step runs apply_step in a per-instance workspace, so only the
    record's delta, h_glass and h_bar are allocated, fresh on every step.
    """

    def __init__(self, params: np.ndarray, cfg: AliceConfig, seed: int = 0):
        seed = check_seed(seed)
        self.cfg = cfg
        self.state = TopographyState.fresh(params)
        self.rng = np.random.default_rng(seed)
        self.n_grad_evals = 0
        self._cycle_pos = 0
        d = self.state.dim
        # apply_step's workspace: |g|, scratch, step scale, and its lower and
        # upper bounds. The updates, which finish before the step, use the scratch.
        self._work = tuple(np.empty((5, d)))
        self._temp = self._work[1]
        self._mask = np.empty(d, dtype=bool)

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
            quick_update(self.state, counted, self.cfg, self._temp)
        self._cycle_pos = (self._cycle_pos + 1) % (self.cfg.quick_steps + 1)
        return apply_step(self.state, self.cfg, (self._work, self._mask))


# ---------------------------------------------------------------------------
# Reference optimizers (replication oracles)


def adam_iterates(params, grad_fn, lr, beta1=0.9, beta2=0.999, eps=1e-8, n_steps=100):
    """Textbook Adam with bias correction. Yields theta_0, ..., theta_n_steps.

    Operation order inside the update mirrors the optimizer's in-place
    running averages so that pinned-limit replication is exact to the ulp.
    Each yielded iterate is a fresh array that later steps do not modify.

    An overflowing running average raises NumericsError, which the caller
    names with its step: an infinite v (g*g of a gradient beyond ~1.3e154)
    would make every later step zero.
    """
    theta = np.array(params, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    yield theta
    for t in range(1, n_steps + 1):
        g = np.asarray(grad_fn(theta), dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        bad = [name for name, avg in (("m", m), ("v", v)) if not all_finite(avg)]
        if bad:
            raise NumericsError(f"running averages overflowed: {', '.join(bad)}")
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


def reference_adam(params, grad_fn, lr, beta1=0.9, beta2=0.999, eps=1e-8, n_steps=100):
    """adam_iterates as an (n_steps+1, d) trajectory, filled as the iterates come."""
    traj = np.empty((n_steps + 1, np.size(params)))
    for t, theta in enumerate(adam_iterates(params, grad_fn, lr, beta1, beta2, eps, n_steps)):
        traj[t] = theta
    return traj


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
) -> NaqReport:
    """Simulate accelerated quasi-Newton steps against a hidden linear gradient.

    The true gradient is g*(mu) = g_star0 + H mu; the optimizer only sees its
    running average g (initialized with error gamma0) and steps by
    -g / h_bar, moving mu by phi of the step and the evaluation center by
    all of it. With phi = naq_coefficients(beta1) (the default), the error
    g - g*(mu) equals beta1^s * gamma0 at every step; other phi values serve
    as negative controls. Divergence is reported, not raised.
    """
    h_hidden = np.asarray(h_hidden, dtype=np.float64)
    g_star0 = np.asarray(g_star0, dtype=np.float64)
    gamma0 = np.asarray(gamma0, dtype=np.float64)
    h_bar = np.asarray(h_bar, dtype=np.float64)
    if phi is None:
        phi = naq_coefficients(beta1)
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
        nu_next = mu + delta
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
