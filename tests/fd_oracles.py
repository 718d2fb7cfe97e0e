"""Finite-difference and closed-form oracles, reference implementations and seeded fixtures.

The oracles of C1 (central differences) and C2 (a quadratic's closed form and
a dense-glass staircase field) live here, since only the tests run them.
"""

import math
from dataclasses import dataclass

import numpy as np

from glassopt import netkit, oracles
from glassopt.alice import StepRecord
from glassopt.glass import (
    density_matrix,
    measure_variations,
    optimal_kernel_weight,
    power_law,
    rademacher_signs,
    variation_bound,
)
from glassopt.netkit import ConfigError


def fd_loss_gradient(spec, params, batch, h=1e-5):
    """Central finite differences of the loss, with per-coordinate smoothness masks.

    A coordinate counts as smooth when no hidden unit changes activation sign
    between the two probe points. Returns (fd_gradient, smooth_mask).
    """
    fd = np.zeros_like(params)
    smooth = np.ones(params.shape[0], dtype=bool)
    for i in range(params.shape[0]):
        shifted = params.copy()
        shifted[i] += h
        loss_plus, masks_plus = _loss_and_masks(spec, shifted, batch)
        shifted[i] = params[i] - h
        loss_minus, masks_minus = _loss_and_masks(spec, shifted, batch)
        fd[i] = (loss_plus - loss_minus) / (2.0 * h)
        smooth[i] = all(
            np.array_equal(a, b) for a, b in zip(masks_plus, masks_minus)
        )
    return fd, smooth


def central_difference_check(spec, params, batch):
    """C1's rule on one net: (relative error, passed).

    The error is the largest |central difference - analytic gradient| over the
    smooth coordinates, relative to the largest analytic entry there. The net
    passes when over half its coordinates are smooth and the error is below 1e-6.
    """
    _, grad = netkit.gradient(spec, params, batch)
    fd, smooth = fd_loss_gradient(spec, params, batch)
    denom = np.abs(grad[smooth]).max() if smooth.any() else 0.0
    if denom == 0.0:
        return math.inf, False
    rel = np.abs(fd[smooth] - grad[smooth]).max() / denom
    return rel, bool(smooth.mean() > 0.5 and rel < 1e-6)


def _loss_and_masks(spec, params, batch):
    preacts, acts = netkit.forward(spec, params, batch.inputs)
    value, _ = _loss_and_dout(spec, acts[-1], batch.targets)
    masks = [y > 0.0 for y in preacts[:-1]]
    return value, masks


def _loss_and_dout(spec, out, targets):
    """Batch-mean loss and its derivative w.r.t. the network output."""
    n = out.shape[0]
    if spec.loss == "mse":
        r = out - targets
        return float(np.mean(r * r)), (2.0 / r.size) * r
    t = np.asarray(targets)
    shifted = out - out.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1))
    value = float(np.mean(lse - shifted[np.arange(n), t]))
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), t] -= 1.0
    return value, p / n


def _layer_views(spec, flat):
    """Per-layer (weight, bias) views into a flat parameter-length vector, sliced here."""
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        weights.append(flat[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(flat[offset : offset + fan_out])
        offset += fan_out
    return weights, biases


def reference_gradient(spec, params, batch):
    """Reverse-mode (loss, gradient) that allocates every temporary afresh.

    Written apart from netkit (it slices the parameters itself and runs its
    own layer loop), but with the same floating-point operations in the same
    order, so netkit.gradient must agree with it bitwise.
    """
    weights, biases = _layer_views(spec, params)
    preacts, acts = [], []
    a = batch.inputs
    for i, (w, b) in enumerate(zip(weights, biases)):
        y = a @ w + b
        preacts.append(y)
        a = np.maximum(y, 0.0) if i < len(weights) - 1 else y
        acts.append(a)
    value, d_y = _loss_and_dout(spec, acts[-1], batch.targets)
    pieces = []
    for i in range(len(weights) - 1, -1, -1):
        a_prev = batch.inputs if i == 0 else acts[i - 1]
        pieces[:0] = [(a_prev.T @ d_y).ravel(), d_y.sum(axis=0)]
        if i > 0:
            d_y = (d_y @ weights[i].T) * (preacts[i - 1] > 0.0)
    return value, np.concatenate(pieces)


def fd_preactivation_gradient(spec, params, batch, layer, neuron, sample, h=1e-5):
    """Central finite differences of one hidden pre-activation w.r.t. params."""
    fd = np.zeros_like(params)
    for i in range(params.shape[0]):
        shifted = params.copy()
        shifted[i] += h
        y_plus = netkit.forward(spec, shifted, batch.inputs)[0][layer][sample, neuron]
        shifted[i] = params[i] - h
        y_minus = netkit.forward(spec, shifted, batch.inputs)[0][layer][sample, neuron]
        fd[i] = (y_plus - y_minus) / (2.0 * h)
    return fd


def reference_preactivation_grads(spec, params, batch, psi):
    """grad_y of every hidden (unit, sample) with |pre-activation| < psi, one backward pass each.

    The per-record backward that relu_introspect ran before it gathered each
    layer's records into one pass, frozen. Returns one gradient per record in
    (layer, neuron, sample) order; relu_introspect's grad_y must agree with
    it bitwise.
    """
    preacts, acts = netkit.forward(spec, params, batch.inputs)
    weights, _ = _layer_views(spec, params)
    layer_inputs = [batch.inputs, *acts[:-1]]
    grads = []
    for layer in range(len(weights) - 1):
        for neuron, sample in np.argwhere(np.abs(preacts[layer]).T < psi):
            grad = np.zeros(spec.param_count)
            g_weights, g_biases = _layer_views(spec, grad)
            g_weights[layer][:, neuron] = layer_inputs[layer][sample]
            g_biases[layer][neuron] = 1.0
            d_a = weights[layer][:, neuron]
            for i in range(layer - 1, -1, -1):
                d_y = d_a * (preacts[i][sample] > 0.0)
                g_weights[i][...] = np.outer(layer_inputs[i][sample], d_y)
                g_biases[i][...] = d_y
                if i > 0:
                    d_a = weights[i] @ d_y
            grads.append(grad)
    return grads


def reference_band_density(matrix):
    """The dense R of a GlassDensityMatrix by the serial band build, frozen.

    The same L-shaped band products as GlassDensityMatrix.R, each one matmul
    into its own block of R, run one after another on the calling thread.
    GlassDensityMatrix.R must agree with it bitwise.
    """
    w, r = matrix.weights, matrix.reach
    d = matrix.dim
    r_mat = np.zeros((d, d))
    nonzero = (w != 0) | (r != 0)
    ends = np.where(nonzero.any(axis=1), d - np.argmax(nonzero[:, ::-1], axis=1), 0)
    cuts = np.flatnonzero(matrix.layers[1:] != matrix.layers[:-1]) + 1
    h_prev = 0
    for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(ends)]):
        h = max(h_prev, int(ends[s:e].max(initial=0)))
        if h > h_prev:
            np.matmul(w[s:, :h].T, r[s:, h_prev:h], out=r_mat[:h, h_prev:h])
            np.matmul(w[s:, h_prev:h].T, r[s:, :h_prev], out=r_mat[h_prev:h, :h_prev])
        h_prev = h
    return r_mat


def fine_grid_kernel_constant(omega2, restrict, intervals=400_000):
    """E[x^2 / (x^2 + omega2) | |x| >= restrict] for a standard normal x, by composite Simpson.

    The numerator and the normalizing mass are both integrated on one uniform
    grid over [restrict, restrict + 12], past which the Gaussian tail is below
    1e-31 of the mass beyond restrict; the grid spacing cancels in the ratio.
    Accurate to ~1e-13 where the integrand varies on scales well above the
    spacing, so restrict > 0 with omega2 not tiny.
    """
    x = np.linspace(restrict, restrict + 12.0, intervals + 1)
    simpson = np.full(intervals + 1, 2.0)
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    mass = np.exp(-0.5 * x * x) * simpson
    return float(np.sum(x * x / (x * x + omega2) * mass) / np.sum(mass))


def random_model_and_batch(seed, widths=(3, 5, 2), loss="mse", n=6):
    """A seeded (spec, params, batch) triple for gradient tests."""
    rng = np.random.default_rng(seed)
    spec = netkit.ModelSpec(widths, loss)
    params = netkit.build_model(spec, seed)
    inputs = rng.standard_normal((n, widths[0]))
    if loss == "mse":
        targets = rng.standard_normal((n, widths[-1]))
    else:
        targets = rng.integers(0, widths[-1], size=n)
    return spec, params, netkit.Batch(inputs, targets)


def reference_rademacher_signs(rng, shape):
    """The Rademacher sign stream by its definition, frozen: one row at a time.

    A shape is a sequence of rows along its last axis. Each row of n signs
    takes rng.bytes(4 * ceil(n / 32)) afresh and reads its first n bits, most
    significant bit of each byte first; bit b gives the sign 2 b - 1. A draw
    of no signs reads nothing. glass.rademacher_signs must agree with it
    bitwise.
    """
    shape = tuple(int(k) for k in np.atleast_1d(shape))
    n = shape[-1]
    k = np.arange(n)
    rows = []
    for _ in range(math.prod(shape[:-1]) if n else 0):
        raw = np.frombuffer(rng.bytes(4 * math.ceil(n / 32)), dtype=np.uint8)
        bits = (raw[k // 8] >> (7 - k % 8)) & 1
        rows.append(2.0 * bits - 1.0)
    return np.array(rows).reshape(shape)


# The Monte-Carlo oracles as they were before they reused buffers, frozen: the
# chunk sizes, draw order and reduction order that glassopt.oracles must keep,
# with every temporary allocated afresh. A chunk of samples of length cols
# fills at most 1 MiB of float64, and never less than one row. The
# buffer-reusing versions must agree with them bitwise, except the Gram-matrix
# path of mc_estimator, which sums the same estimates in another order and
# must agree to round-off.
_CHUNK_BYTES = 1 << 20


def _reference_chunk_rows(total, cols):
    """Samples per chunk: as many length-cols float64 rows as fit in _CHUNK_BYTES."""
    return min(total, max(_CHUNK_BYTES // (8 * cols), 1))


def _reference_draw(rng, density, shape):
    if density == "rademacher":
        return reference_rademacher_signs(rng, shape)
    return rng.standard_normal(shape)


def reference_glass_walk_expectation(sim):
    """The walk kick by kick, its four moments summed per group of 1 MiB of Delta values."""
    rng = np.random.default_rng(sim.seed)
    n = sim.n_kinks
    # n - j as integer-valued floats: the ±1 kicks' dot product with them is an
    # exact integer in any summation order, so the walk is rounded once, by / n.
    steps_left = (n - np.arange(1, n + 1)).astype(np.float64)
    kick_scale = math.sqrt(sim.rho * sim.lam / n)
    walks = []
    done = 0
    while done < sim.trials:
        m = min(_reference_chunk_rows(sim.trials, n), sim.trials - done)
        kicks = _reference_draw(rng, "normal" if sim.kick == "gauss" else "rademacher", (m, n))
        walks.append(sim.lam * kick_scale * ((kicks @ steps_left) / n))
        done += m
    walks = np.concatenate(walks)
    s_abs = s_sq = s_delta = s_quad = 0.0
    group = _reference_chunk_rows(sim.trials, 1)
    for lo in range(0, sim.trials, group):
        delta = walks[lo : lo + group]
        s_abs += float(np.sum(np.abs(delta)))
        s_sq += float(np.sum(delta * delta))
        s_delta += float(np.sum(delta))
        s_quad += float(np.sum(delta**4))
    t = sim.trials
    mean_abs = s_abs / t
    m2 = s_sq / t
    variance = (s_sq - s_delta * s_delta / t) / max(t - 1, 1)
    mean_abs_se = math.sqrt(max(m2 - mean_abs * mean_abs, 0.0) / t)
    m4 = s_quad / t
    variance_se = math.sqrt(max(m4 - m2 * m2, 0.0) / t)
    return oracles.GlassWalkResult(
        mean_abs=mean_abs,
        mean_abs_se=mean_abs_se,
        predicted_mean_abs=math.sqrt(2.0 * sim.rho * sim.lam**3 / (3.0 * math.pi)),
        variance=variance,
        variance_se=variance_se,
        predicted_variance=sim.rho * sim.lam**3 / 3.0,
        trials=t,
    )


def reference_mc_estimator(tm, kspec, n_samples, seed):
    """The per-sample estimator loop: (McEstimatorResult, AggregateBiasResult or None).

    The aggregate bias is reported for unrestricted kernels only.
    """
    d = tm.M.shape[0]
    diag = tm.diagonal
    rng = np.random.default_rng(seed)
    sums = np.zeros(d)
    sums_sq = np.zeros(d)
    n_acc = np.zeros(d, dtype=np.int64)
    agg_sum = 0.0
    agg_sum_sq = 0.0
    mt = np.ascontiguousarray(tm.M.T)
    done = 0
    while done < n_samples:
        m = min(_reference_chunk_rows(n_samples, d), n_samples - done)
        delta = _reference_draw(rng, kspec.density, (m, d))
        y = delta @ mt
        est = optimal_kernel_weight(delta, kspec) * y
        if kspec.restrict > 0:
            mask = np.abs(delta) >= kspec.restrict
            sums += np.sum(est, axis=0, where=mask)
            sums_sq += np.sum(est * est, axis=0, where=mask)
            n_acc += mask.sum(axis=0)
        else:
            sums += est.sum(axis=0)
            sums_sq += np.sum(est * est, axis=0)
            n_acc += m
            row_mean = (est - diag).mean(axis=1)
            agg_sum += float(row_mean.sum())
            agg_sum_sq += float(np.sum(row_mean * row_mean))
        done += m
    safe = np.maximum(n_acc, 1)
    mean = sums / safe
    var = (sums_sq - safe * mean * mean) / np.maximum(safe - 1, 1)
    result = oracles.McEstimatorResult(
        estimate=mean,
        bias=mean - diag,
        variance=var,
        n_accepted=n_acc,
        n_samples=int(n_samples),
    )
    if kspec.restrict > 0:
        return result, None
    agg_bias = agg_sum / n_samples
    agg_var = (agg_sum_sq - n_samples * agg_bias * agg_bias) / (n_samples - 1)
    return result, oracles.AggregateBiasResult(
        agg_bias, math.sqrt(agg_var / n_samples), int(n_samples)
    )


def reference_mc_variation(scenario, delta_scale, n_samples, seed):
    """mc_variation's per-sample loop, one rademacher_signs draw and one gy @ delta per sample.

    Each sample redraws the hidden levels, as mc_variation does, from the second stream.
    """
    spec, params, batch = scenario.spec, scenario.params, scenario.batch
    d = spec.param_count
    records = netkit.relu_introspect(spec, params, batch, scenario.psi)
    bound = variation_bound(density_matrix(records, scenario.psi, d), np.full(d, delta_scale))
    gy = np.stack([r.grad_y for r in records]) if records else np.zeros((0, d))
    rng = np.random.default_rng(seed)
    level_rng = np.random.default_rng([seed, 1])
    acc = np.zeros(d)
    violations = 0
    for _ in range(n_samples):
        delta = delta_scale * rademacher_signs(rng, d)
        leveled = scenario.with_levels(level_rng).params
        _, g0 = netkit.gradient(spec, leveled, batch)
        _, g1 = netkit.gradient(spec, leveled + delta, batch)
        gamma = g1 - g0
        acc += gamma * gamma
        if gy.shape[0]:
            violations += int(np.count_nonzero(np.abs(gy @ delta) >= scenario.psi))
    v = acc / n_samples
    return oracles.VariationCoverage(
        v=v,
        bound=bound,
        fraction_within=float(np.mean(v <= bound)),
        precondition_violation_fraction=violations / max(n_samples * gy.shape[0], 1),
        n_samples=int(n_samples),
    )


# The Adam and SGD-M loops as they were before their arithmetic moved into
# glassopt.alice's iterate generators. Both the generators and the
# trajectories built from them must agree with these bitwise.


def reference_adam_loop(params, grad_fn, lr, beta1=0.9, beta2=0.999, eps=1e-8, n_steps=100):
    theta = np.array(params, dtype=np.float64)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    traj = np.empty((n_steps + 1, theta.shape[0]))
    traj[0] = theta
    for t in range(1, n_steps + 1):
        g = np.asarray(grad_fn(theta), dtype=np.float64)
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        theta = theta - lr * (m_hat / (np.sqrt(v_hat) + eps))
        traj[t] = theta
    return traj


def reference_sgdm_loop(params, grad_fn, lr, beta1=0.9, n_steps=100):
    theta = np.array(params, dtype=np.float64)
    v = np.zeros_like(theta)
    traj = np.empty((n_steps + 1, theta.shape[0]))
    traj[0] = theta
    for t in range(1, n_steps + 1):
        g = np.asarray(grad_fn(theta), dtype=np.float64)
        v = beta1 * v + (1.0 - beta1) * g
        theta = theta - lr * v
        traj[t] = theta
    return traj


def reference_step(state, cfg):
    """Alice's step, one unfused expression per stage: the bitwise reference for apply_step."""
    g, eps = state.g, cfg.eps
    rho = state.rho if "rho" in cfg.terms else np.zeros(state.dim)
    if "h_abs" in cfg.terms:
        h = state.h_abs
    elif "h_rms" in cfg.terms:
        h = np.sqrt(state.h_rms2)
    else:
        h = np.zeros(state.dim)
    h_glass = 3.0 * rho / (4.0 * math.pi * np.abs(g) + eps)
    h_bar = h_glass + h + np.sqrt(h_glass * (h_glass + 2.0 * h)) + eps
    scale = np.abs(g) / h_bar
    if cfg.limit_method == "fixed":
        lo, hi = np.full_like(g, cfg.lam_min), np.full_like(g, cfg.lam_max)
    else:
        base = np.abs(g)
        if cfg.limit_method == "adam":
            g_hat = g / (1.0 - cfg.beta1**state.step_count)
            s_hat = state.s / (1.0 - cfg.beta2**state.step_count)
            base = np.abs(g_hat) / (np.sqrt(s_hat) + eps)
        lo, hi = cfg.lam_min * base, cfg.lam_max * base
    low, high = float(np.mean(scale < lo)), float(np.mean(scale > hi))
    delta = -np.sign(g) * np.clip(scale, lo, hi)
    np.add(state.mu, delta, out=state.nu)
    state.mu += (1.0 - cfg.beta1 if cfg.naq else 1.0) * delta
    return StepRecord(delta, h_glass, h_bar, low, high)


# ---------------------------------------------------------------------------
# Closed-form and synthetic gradient fields for the power-law probe (C2)


def quadratic_powerlaw_oracle(h_matrix: np.ndarray, lam: float) -> np.ndarray:
    """Exact expected gradient variations of g(theta) = H theta under sign probes.

    For Rademacher delta, E[((H (lam delta))_i)^2] = lam^2 sum_j H_ij^2, the
    closed form behind the exponent-2 behavior of purely linear gradients.
    """
    h_matrix = np.asarray(h_matrix, dtype=np.float64)
    if h_matrix.ndim != 2 or h_matrix.shape[0] != h_matrix.shape[1]:
        raise ConfigError("H must be square")
    if not np.allclose(h_matrix, h_matrix.T):
        raise ConfigError("H must be symmetric")
    return lam * lam * (h_matrix * h_matrix).sum(axis=1)


@dataclass(frozen=True)
class StaircaseGradientField:
    """Dense piecewise-constant gradient field: glass with no smooth part.

    Coordinate i's gradient is magnitude * (signed count of thresholds below
    theta_i), a staircase with uniformly scattered jumps, so gradient
    variations grow exactly linearly in the probe distance.
    """

    thresholds: np.ndarray  # (d, n_kinks), sorted per row
    signs: np.ndarray  # (d, n_kinks) of +-1
    magnitude: float

    @staticmethod
    def random(d: int, n_kinks: int, span: float, magnitude: float, seed: int):
        rng = np.random.default_rng(seed)
        thresholds = np.sort(rng.uniform(-span, span, size=(d, n_kinks)), axis=1)
        signs = rademacher_signs(rng, (d, n_kinks))
        return StaircaseGradientField(thresholds, signs, float(magnitude))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=np.float64)
        crossed = self.thresholds < theta[:, None]
        return self.magnitude * np.sum(self.signs, axis=1, where=crossed)

    def expected_variation(self, lam: float) -> np.ndarray:
        """Closed-form E[gamma_i^2] for sign probes of scale lam around 0."""
        density = self.thresholds.shape[1] / (2.0 * np.abs(self.thresholds).max())
        return np.full(len(self.thresholds), self.magnitude**2 * density * lam)


def staircase_exponent_check(d, field_seed, samples, probe_seed):
    """C2's dense-glass rule on one staircase field: (exponent, passed).

    A d x 512-kink field is probed at lam = 0.02 and 0.04 with `samples` sign
    probes; it passes at p = 1 +- 0.15. The exponent's noise comes from the
    frozen thresholds, so it shrinks with coordinates x kinks, not with probes.
    """
    field = StaircaseGradientField.random(d, 512, span=1.0, magnitude=0.1, seed=field_seed)
    m1 = measure_variations(field.grad, np.zeros(d), 0.02, samples, seed=probe_seed)
    m2 = measure_variations(field.grad, np.zeros(d), 0.04, samples, seed=probe_seed)
    p = power_law(m1, m2, {"all": np.arange(d)}).exponent("all")
    return p, abs(p - 1.0) <= 0.15
