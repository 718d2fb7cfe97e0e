"""Independent brute-force and Monte-Carlo oracles.

Every oracle here is built directly from the underlying construction it
validates — reflected random walks (or their exact law, for Gaussian kicks)
for the loss-increase bound, raw sampling for the diagonal estimators, a
literal network probe for the density-matrix bound, an explicit
underdetermined least-squares instance for quasi-Newton overshoot — and
never calls the code path it is checking. All oracles are
deterministic given their seed: trials are accumulated in a fixed order.
"""

from __future__ import annotations

import math
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from . import netkit
from .glass import (
    density_matrix,
    optimal_kernel_weight,
    rademacher_bits,
    rademacher_signs,
    variation_bound,
)
from .netkit import Batch, ConfigError, ModelSpec, check_seed

# Every sample chunk holds at most this many float64 elements (1 MiB), so the
# few chunk-size arrays an oracle works in take a few MiB, whatever its sample
# count and sample length.
_CHUNK_ELEMS = 1 << 17


def _chunk_rows(total: int, cols: int) -> int:
    """Rows of a chunk of samples of length cols: at least one, at most total."""
    return max(1, min(total, _CHUNK_ELEMS // cols))


def _draw(rng: np.random.Generator, density: str, out: np.ndarray) -> np.ndarray:
    """Fill out, an (m, d) block of a chunk buffer, with normal samples or Rademacher signs.

    Rademacher signs come from rademacher_signs, whose rows start on fresh
    words of the stream, so the chunk size never changes the signs.
    """
    if density == "rademacher":
        return rademacher_signs(rng, out.shape, out=out)
    return rng.standard_normal(out=out)


def _sample_chunks(rng: np.random.Generator, density: str, total: int, cols: int):
    """Yield total samples of length cols as (m, cols) chunks of _chunk_rows(total, cols) rows.

    The last chunk may be shorter. The samples are those of one draw of shape
    (total, cols): rng is read by one thread at a time, in chunk order. A
    chunk is only valid until the next one is asked for; callers may
    overwrite it.

    A draw that fits one chunk is drawn inline into one buffer of at most
    _CHUNK_ELEMS elements (one row when cols exceeds it). A draw of more than
    one chunk, of either density, alternates between two such buffers: a
    netkit.lane fills the next chunk while the caller works on this one. The
    lane closes when the generator is exhausted or closed, so a caller that
    may stop early (or raise) closes it, for example with contextlib.closing.
    """
    rows = _chunk_rows(total, cols)
    sizes = [min(rows, total - lo) for lo in range(0, total, rows)]
    buf = np.empty((rows, cols))
    if len(sizes) < 2:
        for m in sizes:
            yield _draw(rng, density, buf[:m])
        return
    spare = np.empty_like(buf)
    with netkit.lane() as submit:
        ahead = submit(_draw, rng, density, buf[: sizes[0]])
        for m_next in sizes[1:] + [0]:
            chunk = ahead.result()
            buf, spare = spare, buf
            if m_next:
                ahead = submit(_draw, rng, density, buf[:m_next])
            yield chunk


# ---------------------------------------------------------------------------
# Reflected 1D glass walk (loss-increase bound)


@dataclass(frozen=True)
class SyntheticGlass1D:
    """A 1D walk of n equally spaced gradient kicks with density rho.

    Kicks are zero-mean with second moment rho*lam/n, either Gaussian (the
    limit distribution, whose walk is sampled from its exact normal law) or
    Rademacher-valued (robustness variant, walked kick by kick; both agree in
    the large-n limit).
    """

    rho: float
    lam: float
    n_kinks: int = 1000
    trials: int = 100_000
    seed: int = 0
    kick: str = "gauss"

    def __post_init__(self):
        if not (math.isfinite(self.rho) and self.rho >= 0):
            raise ConfigError(f"glass density rho must be finite and >= 0, got {self.rho}")
        if not (math.isfinite(self.lam) and self.lam > 0):
            raise ConfigError(f"walk length lam must be finite and > 0, got {self.lam}")
        if self.n_kinks < 1 or self.trials < 1:
            raise ConfigError("need at least one kink and one trial")
        if self.kick not in ("gauss", "rademacher"):
            raise ConfigError(f"unknown kick distribution {self.kick!r}")
        check_seed(self.seed)


@dataclass(frozen=True)
class GlassWalkResult:
    mean_abs: float
    mean_abs_se: float
    predicted_mean_abs: float
    variance: float
    variance_se: float
    predicted_variance: float
    trials: int


def _kick_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks and weights that sum a row of n packed sign bits b_j against 2 (n - j), exactly.

    Sign j is bit i of 32-bit word w of its rademacher_bits row, in stream
    order, where j - 1 = 32 w + i, so n - j = (n - 1 - 32 w) - sum_k 2^k i_k.
    Mask 0 holds the row's n sign bits of each word (not the padding), and
    mask 1 + k those of them whose i has bit k set. Hence
    2 sum_j (n - j) b_j = sum over masks and words of
    popcount(word & mask) * weight, where the weight of mask 0 at word w is
    2 (n - 1 - 32 w) and that of mask 1 + k is -2^(k + 1). Returns the
    (6, words) uint32 masks and the flat float64 weights.
    """
    words = -(-n // 32)
    p = np.arange(32 * words)
    index_bits = ((p % 32) >> np.arange(5)[:, None]) & 1  # row k: bit k of i
    bits = (p < n) * np.vstack([np.ones_like(p), index_bits])
    masks = np.packbits(bits.astype(np.uint8), axis=1).view(np.uint32)
    weights = np.empty((6, words))
    weights[0] = 2 * (n - 1 - 32 * np.arange(words))
    weights[1:] = -(2.0 ** np.arange(1, 6))[:, None]
    return masks, weights.ravel()


def _rademacher_kick_sums(bits: np.ndarray, masks, weights, n: int, out: np.ndarray):
    """sum_j w_j (2 b_j - 1), w_j = (n - j)/n, for each row of rademacher_bits, into out.

    With S = sum_j (n - j) b_j, an integer of at most n^2/2, the sum is
    (2 S - n (n - 1)/2) / n. 2 S is formed from one popcount per word and
    mask of _kick_weights; every product and partial sum is an integer far
    below 2^53, so it is exact in any summation order, and the division by n
    is the only rounding.
    """
    counts = np.bitwise_count(bits.view(np.uint32)[:, None, :] & masks)
    two_s = np.matmul(counts.reshape(bits.shape[0], -1), weights, out=out)
    two_s -= n * (n - 1) // 2
    return np.divide(two_s, n, out=out)


def glass_walk_expectation(sim: SyntheticGlass1D) -> GlassWalkResult:
    """Simulate the loss change of a 1D glass walk against its closed forms.

    Each trial integrates n kicks of scale s = sqrt(rho lam / n) activating at
    equally spaced points along a move of length lam, giving
    Delta = lam * s * sum_j w_j kick_j with w_j = (n-j)/n. The reflected
    trajectory |Delta| models a local loss floor; its mean is predicted to be
    sqrt(2 rho lam^3 / (3 pi)) and the unreflected variance rho lam^3 / 3.

    A sum of Gaussian kicks is exactly N(0, (lam s)^2 sum_j w_j^2), so a
    Gaussian trial is one normal draw, scaled in place. Rademacher trials are
    walked kick by kick, since their sum is not Gaussian: each trial's kicks
    are one row of rademacher_bits, and its sum_j w_j kick_j is computed
    exactly from the packed bits (see _rademacher_kick_sums) and rounded
    once, in row groups whose popcount temporaries (13 bytes per count: the
    masked words, their counts and the matmul's float64 copy) fit in 1 MiB.
    For either kick the four moment sums are accumulated once per 1 MiB
    group of Delta values, 131_072 trials, so only their round-off depends
    on the group size.
    """
    rng = np.random.default_rng(sim.seed)
    n = sim.n_kinks
    scale = sim.lam * math.sqrt(sim.rho * sim.lam / n)
    s_abs = s_sq = s_delta = s_quad = 0.0

    def accumulate(delta):
        nonlocal s_abs, s_sq, s_delta, s_quad
        delta *= scale
        s_abs += float(np.sum(np.abs(delta)))
        s_sq += float(np.sum(delta * delta))
        s_delta += float(np.sum(delta))
        s_quad += float(np.sum(delta**4))

    if sim.kick == "gauss":
        weights = (n - np.arange(1, n + 1)) / n
        scale *= math.sqrt(float(np.dot(weights, weights)))
        with closing(_sample_chunks(rng, "normal", sim.trials, 1)) as chunks:
            for chunk in chunks:
                accumulate(chunk[:, 0])
    else:
        group = _chunk_rows(sim.trials, 1)
        masks, weights = _kick_weights(n)
        rows = _chunk_rows(group, 13 * masks.size // 8)
        delta_buf = np.empty(group)
        for lo in range(0, sim.trials, group):
            delta = delta_buf[: min(group, sim.trials - lo)]
            for r in range(0, delta.shape[0], rows):
                out = delta[r : r + rows]
                _rademacher_kick_sums(rademacher_bits(rng, out.shape[0], n), masks, weights, n, out)
            accumulate(delta)
    t = sim.trials
    mean_abs = s_abs / t
    m2 = s_sq / t  # second moment; the mean is 0 by construction
    variance = (s_sq - s_delta * s_delta / t) / max(t - 1, 1)
    mean_abs_se = math.sqrt(max(m2 - mean_abs * mean_abs, 0.0) / t)
    m4 = s_quad / t
    variance_se = math.sqrt(max(m4 - m2 * m2, 0.0) / t)
    return GlassWalkResult(
        mean_abs=mean_abs,
        mean_abs_se=mean_abs_se,
        predicted_mean_abs=math.sqrt(2.0 * sim.rho * sim.lam**3 / (3.0 * math.pi)),
        variance=variance,
        variance_se=variance_se,
        predicted_variance=sim.rho * sim.lam**3 / 3.0,
        trials=t,
    )


# ---------------------------------------------------------------------------
# Diagonal-estimator test matrices and Monte-Carlo sampling


@dataclass(frozen=True)
class TestMatrix:
    """Dense test matrix with known diagonal and off-diagonal row mass."""

    M: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.M, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
            raise ConfigError("test matrix must be square with d >= 2")
        if not np.all(np.isfinite(m)):
            raise ConfigError("test matrix must be finite")
        object.__setattr__(self, "M", m)

    @property
    def diagonal(self) -> np.ndarray:
        return np.diag(self.M).copy()

    @property
    def dominance(self) -> np.ndarray:
        """Per-row omega2_i = sum_{j != i} M_ij^2 / M_ii^2."""
        off = (self.M * self.M).sum(axis=1) - np.diag(self.M) ** 2
        return off / np.diag(self.M) ** 2

    @staticmethod
    def random_diag_dominant(d: int, seed: int) -> "TestMatrix":
        """Random matrix with |diagonal| in [0.5, 1.5] and omega2_i in [0.2, 1]."""
        rng = np.random.default_rng(check_seed(seed))
        diag = rng.uniform(0.5, 1.5, size=d) * rng.choice([-1.0, 1.0], size=d)
        omega2 = rng.uniform(0.2, 1.0, size=d)
        off = rng.standard_normal((d, d))
        np.fill_diagonal(off, 0.0)
        row_norm = np.linalg.norm(off, axis=1)
        off *= (np.sqrt(omega2) * np.abs(diag) / row_norm)[:, None]
        m = off
        np.fill_diagonal(m, diag)
        return TestMatrix(m)


@dataclass(frozen=True)
class McEstimatorResult:
    """Per-diagonal-index sampling statistics of a kernel estimator."""

    estimate: np.ndarray
    bias: np.ndarray
    variance: np.ndarray
    n_accepted: np.ndarray
    n_samples: int


# Rows per pass of the kernel weight in _kernel_estimates: its buffer is
# a small (rows, d) block, not a chunk-size array.
_WEIGHT_ROWS = 32


def _kernel_estimates(
    delta: np.ndarray, mt: np.ndarray, kspec, est: np.ndarray, weight: np.ndarray
) -> np.ndarray:
    """est = kappa(delta) * (delta M^T) for a chunk of samples (rows), written into est.

    The kernel weight is elementwise, so it is formed and applied
    _WEIGHT_ROWS rows at a time in weight, a (_WEIGHT_ROWS, d) buffer: the
    result is bitwise that of one pass over the chunk.
    """
    m = delta.shape[0]
    est = np.matmul(delta, mt, out=est[:m])
    for lo in range(0, m, _WEIGHT_ROWS):
        block = delta[lo : lo + _WEIGHT_ROWS]
        est[lo : lo + len(block)] *= optimal_kernel_weight(block, kspec, out=weight[: len(block)])
    return est


def _gram_sums(m_mat: np.ndarray, chunks) -> tuple[np.ndarray, np.ndarray]:
    """Per-index sums of est and est^2 over Rademacher chunks U, from G = sum U^T U.

    With the identity kernel est_si = u_si (M u_s)_i, and u_si^2 = 1, so
    sum_s est_si = sum_j M_ij G_ij and sum_s est_si^2 = (M G M^T)_ii. G's
    entries are integers far below 2^53, so G is exact whatever the chunking
    and the BLAS summation order. The loop exhausts chunks, which joins its
    lane, before the two final products are formed.
    """
    d = m_mat.shape[0]
    gram = np.zeros((d, d))
    part = np.empty((d, d))
    for u in chunks:
        gram += np.matmul(u.T, u, out=part)
    return np.sum(m_mat * gram, axis=1), np.sum((m_mat @ gram) * m_mat, axis=1)


def _estimator_draw(tm: TestMatrix, kspec, n_samples: int, seed: int):
    """The n_samples samples of an estimator oracle from kspec.density, chunked and closable.

    _sample_chunks in contextlib.closing: a 1 MiB chunk holds 655 samples at
    d = 200, and the next is drawn on a lane that closes with the with-block.
    """
    if n_samples < 1000:
        raise ConfigError("estimator sampling needs at least 1e3 samples")
    rng = np.random.default_rng(check_seed(seed))
    return closing(_sample_chunks(rng, kspec.density, n_samples, tm.M.shape[0]))


def _estimates(tm: TestMatrix, kspec, chunks, n_samples: int):
    """Yield (delta, est) per chunk, est = kappa(delta) * (delta M^T) (see _kernel_estimates).

    est is valid until the next pair; once it is formed, callers may overwrite delta.
    """
    d = tm.M.shape[0]
    mt = np.ascontiguousarray(tm.M.T)
    rows = _chunk_rows(n_samples, d)
    est_buf = np.empty((rows, d))
    weight_buf = np.empty((min(rows, _WEIGHT_ROWS), d))
    for delta in chunks:
        yield delta, _kernel_estimates(delta, mt, kspec, est_buf, weight_buf)


def mc_estimator(tm: TestMatrix, kspec, n_samples: int, seed: int) -> McEstimatorResult:
    """Sample kappa(delta_i) * (M delta)_i and report bias and variance per index.

    Unrestricted Rademacher runs, whose kernel is the identity, sum only the
    sign Gram matrix G = U^T U of each chunk and read both per-index sums off
    G (see _gram_sums): no M product and no kernel pass per sample. Normal
    and restricted runs form every estimate (see _estimates) and sum them
    chunk by chunk.
    """
    d = tm.M.shape[0]
    restricted = kspec.restrict > 0
    with _estimator_draw(tm, kspec, n_samples, seed) as chunks:
        if kspec.density == "rademacher" and not restricted:
            sums, sums_sq = _gram_sums(tm.M, chunks)
            n_acc = np.full(d, n_samples, dtype=np.int64)
        else:
            sums = np.zeros(d)
            sums_sq = np.zeros(d)
            n_acc = np.zeros(d, dtype=np.int64)
            # One chunk's working set: the draw, est, a block of the kernel
            # weight and the acceptance mask. Once est is formed the draw is
            # dead, and its memory holds |delta| and est^2 in turn.
            mask_buf = np.empty((_chunk_rows(n_samples, d), d), dtype=bool) if restricted else None
            for delta, est in _estimates(tm, kspec, chunks, n_samples):
                if restricted:
                    mask = mask_buf[: delta.shape[0]]
                    np.greater_equal(np.abs(delta, out=delta), kspec.restrict, out=mask)
                    sums += np.sum(est, axis=0, where=mask)
                    sums_sq += np.sum(np.multiply(est, est, out=delta), axis=0, where=mask)
                    n_acc += mask.sum(axis=0)
                else:
                    sums += est.sum(axis=0)
                    sums_sq += np.sum(np.multiply(est, est, out=delta), axis=0)
                    n_acc += delta.shape[0]
    safe = np.maximum(n_acc, 1)
    mean = sums / safe
    var = (sums_sq - safe * mean * mean) / np.maximum(safe - 1, 1)
    bias = mean - tm.diagonal
    return McEstimatorResult(
        estimate=mean,
        bias=bias,
        variance=var,
        n_accepted=n_acc,
        n_samples=int(n_samples),
    )


@dataclass(frozen=True)
class AggregateBiasResult:
    """Sample mean of the per-sample row mean of (estimate - diagonal), with its SE."""

    aggregate_bias: float
    aggregate_bias_se: float
    n_samples: int

    @property
    def aggregate_bias_z(self) -> float:
        return self.aggregate_bias / self.aggregate_bias_se


def mc_aggregate_bias(tm: TestMatrix, kspec, n_samples: int, seed: int) -> AggregateBiasResult:
    """Sample the aggregate bias of an unrestricted kernel estimator directly.

    Each sample contributes the row mean of kappa(delta_i) * (M delta)_i -
    M_ii, which keeps cross-coordinate correlations inside the standard
    error. Its square is quartic in the draws, so no Gram matrix yields it:
    every estimate is formed, from the same draws as mc_estimator at the same
    seed.
    """
    if kspec.restrict > 0:
        raise ConfigError("the aggregate bias needs an unrestricted kernel")
    diag = tm.diagonal
    agg_sum = agg_sum_sq = 0.0
    with _estimator_draw(tm, kspec, n_samples, seed) as chunks:
        for delta, est in _estimates(tm, kspec, chunks, n_samples):
            row_mean = np.subtract(est, diag, out=delta).mean(axis=1)
            agg_sum += float(row_mean.sum())
            agg_sum_sq += float(np.sum(row_mean * row_mean))
    agg_bias = agg_sum / n_samples
    agg_var = (agg_sum_sq - n_samples * agg_bias * agg_bias) / (n_samples - 1)
    return AggregateBiasResult(agg_bias, math.sqrt(agg_var / n_samples), int(n_samples))


# ---------------------------------------------------------------------------
# Density-matrix bound on a constructed uniform-preactivation network


@dataclass(frozen=True)
class GlassScenario:
    """A network whose hidden pre-activations are uniform on [-psi, psi]."""

    spec: ModelSpec
    params: np.ndarray
    batch: Batch
    psi: float

    def with_levels(self, rng: np.random.Generator) -> "GlassScenario":
        """This scenario with its hidden pre-activations moved to a fresh uniform draw.

        The levels are one rng.uniform draw on [-psi, psi], a value per hidden
        unit, reached by shifting the first-layer biases of a copy of params.
        """
        preacts, _ = netkit.forward(self.spec, self.params, self.batch.inputs)
        levels = rng.uniform(-self.psi, self.psi, size=self.spec.layer_widths[1])
        params = self.params.copy()
        _, b_sl, _ = self.spec.layer_slices()[0]
        params[b_sl] += levels - preacts[0][0]
        return GlassScenario(self.spec, params, self.batch, self.psi)


def build_uniform_preactivation_net(
    n_in: int = 120, n_hidden: int = 30, psi: float = 0.05, seed: int = 0
) -> GlassScenario:
    """Construct a 2-layer net with every hidden pre-activation uniform in [-psi, psi].

    A single fixed input is used and the first-layer biases are shifted so
    the pre-activations land on a seeded uniform draw (see
    GlassScenario.with_levels), which makes the uniformity assumption of the
    density-matrix bound hold by construction.
    """
    check_seed(seed)
    spec = ModelSpec((n_in, n_hidden, 1), "mse")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x67A55]))
    x = rng.standard_normal((1, n_in))
    target = rng.standard_normal((1, 1)) + 1.0
    return GlassScenario(spec, netkit.build_model(spec, seed), Batch(x, target), float(psi)
                         ).with_levels(rng)


@dataclass(frozen=True)
class VariationCoverage:
    """Empirical gradient variations versus the density-matrix bound."""

    v: np.ndarray
    bound: np.ndarray
    fraction_within: float
    precondition_violation_fraction: float
    n_samples: int


def mc_variation(
    scenario: GlassScenario,
    delta_scale: float,
    n_samples: int,
    seed: int,
) -> VariationCoverage:
    """Check empirical v(delta) <= R |delta| elementwise by direct sampling.

    R is factored with density_matrix from the scenario's near-threshold
    records, and its bound is taken through variation_bound without building
    the dense matrix. The bound is an expectation over kink positions
    uniform on [-psi, psi], so each sample redraws the hidden levels
    (GlassScenario.with_levels, from a generator of its own) and takes the
    gradient change between mu_L and mu_L + delta there. Perturbations delta
    are Rademacher sign vectors of magnitude delta_scale, the rows of one
    chunked sign draw (see _sample_chunks). Samples whose projection onto a
    unit's pre-activation gradient reaches psi violate the small-step
    precondition; they are counted with one product per chunk, and their
    fraction is reported.
    """
    if not (math.isfinite(delta_scale) and delta_scale >= 0):
        raise ConfigError(f"step size delta_scale must be finite and >= 0, got {delta_scale}")
    if n_samples < 1:
        raise ConfigError(f"need at least one sample, got n_samples = {n_samples}")
    check_seed(seed)
    spec, params, batch = scenario.spec, scenario.params, scenario.batch
    d = spec.param_count
    records = netkit.relu_introspect(spec, params, batch, scenario.psi)
    bound = variation_bound(density_matrix(records, scenario.psi, d), np.full(d, delta_scale))
    gy = np.stack([r.grad_y for r in records]) if records else np.zeros((0, d))
    rng = np.random.default_rng(seed)
    # The sign draw runs ahead on a lane, so the levels take a second stream.
    level_rng = np.random.default_rng([seed, 1])
    acc = np.zeros(d)
    violations = 0
    with closing(_sample_chunks(rng, "rademacher", n_samples, d)) as chunks:
        for deltas in chunks:
            deltas *= delta_scale
            violations += int(np.count_nonzero(np.abs(deltas @ gy.T) >= scenario.psi))
            for delta in deltas:
                leveled = scenario.with_levels(level_rng).params
                _, g0 = netkit.gradient(spec, leveled, batch)
                leveled += delta
                _, g1 = netkit.gradient(spec, leveled, batch)
                gamma = g1 - g0
                acc += gamma * gamma
    v = acc / n_samples
    checks = max(n_samples * gy.shape[0], 1)
    return VariationCoverage(
        v=v,
        bound=bound,
        fraction_within=float(np.mean(v <= bound)),
        precondition_violation_fraction=violations / checks,
        n_samples=int(n_samples),
    )


# ---------------------------------------------------------------------------
# Underdetermined least squares: diagonal QN steps are too greedy


@dataclass(frozen=True)
class LeastSquaresReport:
    loss_initial: float
    loss_full_step: float
    loss_damped_step: float


_LS_ROWS = 10
_LS_COLS = 100
_LS_DAMPING = 0.1


def underdetermined_ls(seed: int) -> LeastSquaresReport:
    """Full vs damped diagonal quasi-Newton step on 0.5 ||A x - b||^2 from x = 0.

    A is 10 x 100 Gaussian, far fewer rows than columns; the diagonal of
    A^T A badly underestimates curvature along A^T b, so the full step
    overshoots while a damped step of 0.1 times it reduces the loss.
    """
    rng = np.random.default_rng(check_seed(seed))
    a = rng.standard_normal((_LS_ROWS, _LS_COLS))
    b = rng.standard_normal(_LS_ROWS)

    def value(x):
        r = a @ x - b
        return 0.5 * float(r @ r)

    g0 = a.T @ (a @ np.zeros(_LS_COLS) - b)
    h = (a * a).sum(axis=0)
    full_step = -g0 / h
    return LeastSquaresReport(
        loss_initial=value(np.zeros(_LS_COLS)),
        loss_full_step=value(full_step),
        loss_damped_step=value(_LS_DAMPING * full_step),
    )


# ---------------------------------------------------------------------------
# Golden-section search for the per-coordinate step objective


def golden_section_min(fn, lo: float, hi: float) -> float:
    """Minimize a unimodal function on [lo, hi] to 1e-12 relative, by golden-section search."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12 * max(1.0, abs(a) + abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def step_objective_argmin(g_i: float, h_i: float, rho_i: float) -> float:
    """Brute-force minimizer magnitude of the per-coordinate step objective.

    Minimizes F(t) = -|g| t + h t^2 / 2 + sqrt(2 rho / (3 pi)) t^(3/2) over
    t >= 0, the descent-direction section of a linear plus quadratic plus
    glass-penalty model. The derivative is monotone, so the minimum is
    bracketed by doubling and then pinned by golden-section search. The
    signed step is -sign(g) times the returned magnitude.
    """
    if h_i < 0 or rho_i < 0:
        raise ConfigError("curvature and glass density must be nonnegative")
    mag = abs(g_i)
    if mag == 0.0:
        return 0.0
    a = math.sqrt(2.0 * rho_i / (3.0 * math.pi))

    def objective(t):
        return -mag * t + 0.5 * h_i * t * t + a * t**1.5

    def slope(t):
        return -mag + h_i * t + 1.5 * a * math.sqrt(t)

    hi = 1.0
    while slope(hi) < 0.0:
        hi *= 2.0
        if hi > 1e18:
            raise ConfigError("step objective has no finite minimizer")
    return golden_section_min(objective, 0.0, hi)
