"""Glass-density estimation and the two-scale power-law probe.

A network with many ReLUs scatters gradient discontinuities through parameter
space: crossing a unit's activation threshold adds a pseudorandom kick to the
gradient. This module turns near-threshold unit records into a density matrix
R of gradient variation per unit parameter distance, bounds the expected loss
increase that the resulting "glass" structure permits, provides the
zero-bias minimum-variance kernels for estimating diagonal dependence from
matrix-vector samples, and measures empirical gradient variations at two
probe scales to fit a power-law exponent per parameter partition.

Conventions:
  * gradient variations v(lam) are elementwise second moments of
    g(mu + lam*delta) - g(mu) under Rademacher sign vectors delta;
  * the exponent p of a partition P is
    log2(sum_P v(2*lam)) - log2(sum_P v(lam)),
    2 for Hessian-dominated and 1 for glass-dominated landscapes.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Mapping

import numpy as np

from . import netkit
from .netkit import ConfigError, NumericsError, ReluUnitRecord, check_seed

DENSITIES = ("rademacher", "normal")

# Integration window for the normal density, [restrict, restrict + 8]: the
# Gaussian mass beyond it is below 1e-14 of the mass beyond restrict.
_QUAD_SPAN = 8.0
# Composite Gauss-Legendre rule for the normal kernel constant: equal panels of
# _GL_ORDER nodes each, and _GL_BLOCK omega2 values per (values x nodes) pass.
_GL_PANELS = 48
_GL_ORDER = 32
_GL_BLOCK = 64
# Elements per pass of rademacher_signs: each pass unpacks its bits into a 0/1
# byte array of up to this size (64 kB), or of one row when rows are longer.
_SIGN_BLOCK = 1 << 16


def _check_density(density: str) -> None:
    if density not in DENSITIES:
        raise ConfigError(f"unknown sample density {density!r}, expected one of {DENSITIES}")


def rademacher_bits(rng: np.random.Generator, rows: int, n: int) -> np.ndarray:
    """The packed bits of rows successive rows of n Rademacher signs, as uint8.

    The result has shape (rows, 4 ceil(n / 32)). Row r is
    rng.bytes(4 * ceil(n / 32)) read afresh after rows 0..r-1, so
    every row starts on a fresh 32-bit word of the stream. Its first n bits,
    most significant bit of each byte first, are the row's sign bits; the
    rest pad the last word. This is the one definition of the sign stream:
    rademacher_signs turns bit b into the sign 2 b - 1.
    """
    row_bytes = 4 * -(-n // 32)
    return np.frombuffer(rng.bytes(rows * row_bytes), dtype=np.uint8).reshape(rows, row_bytes)


def rademacher_signs(
    rng: np.random.Generator, shape, out: np.ndarray | None = None
) -> np.ndarray:
    """Independent +-1.0 signs of the given shape, one random bit per sign.

    The draw is a sequence of rows along the last axis (a 1-D shape is one
    row), each of them a row of rademacher_bits, so an (m, n) draw equals m
    successive draws of n signs, and chunking the rows never changes the
    numbers. The signs are written block by block into out (a C-contiguous
    float64 array of the shape) when it is given, else into a new array; no
    second array of the shape is allocated. A shape with no elements gives an
    empty array and reads nothing from rng.
    """
    shape = tuple(int(k) for k in np.atleast_1d(shape))
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    if out.size == 0:
        return out
    n = out.shape[-1]
    rows = out.reshape(-1, n)
    step = max(1, _SIGN_BLOCK // n)
    for lo in range(0, rows.shape[0], step):
        blk = rows[lo : lo + step]
        bits = np.unpackbits(rademacher_bits(rng, blk.shape[0], n), axis=1, count=n)
        np.multiply(bits, 2.0, out=blk)
        blk -= 1.0
    return out


# ---------------------------------------------------------------------------
# Density matrix from ReLU records


@dataclass(frozen=True)
class GlassDensityMatrix:
    """Nonnegative d x d matrix of gradient variation per unit distance, in factored form.

    R = weights^T reach is stored as its K record factors, one row per
    near-threshold record, in unit-id order:
      * weights[k] = grad_y[k]^2 * dloss_dz[k]^2 / (2 psi), the scale folded in;
      * reach[k] = |grad_y[k]|;
      * layers[k], the hidden layer of record k.
    density_diag and variation_bound read the factors in O(K d). The dense R
    is built on first read of .R and cached.
    """

    weights: np.ndarray
    reach: np.ndarray
    layers: np.ndarray

    @property
    def dim(self) -> int:
        return self.weights.shape[1]

    @cached_property
    def R(self) -> np.ndarray:
        """The dense d x d density, built band by band from the factors.

        Split the records into runs of equal layer label and let h_b be the
        largest column, plus one, that is nonzero in either factor of any
        record in runs 0..b. An entry (i, j) with max(i, j) >= h_{b-1} then
        has contributions from the records of runs >= b only, so each L-shaped
        band h_{b-1} <= max(i, j) < h_b is one product over a suffix of the
        records, written straight into R. Entries beyond every record's reach
        stay zero. Since a pre-activation in layer l depends only on the
        parameters of layers <= l, layer-major records make the bands narrow.

        The products wait in one list, largest first (by rows x columns x
        records), and this thread and a netkit.lane's each take the next one
        until none is left. Each is one whole matmul into its own block of R,
        so R is bitwise the serial build whichever thread runs it.
        """
        w, r = self.weights, self.reach
        d = self.dim
        r_mat = np.zeros((d, d))
        nonzero = (w != 0) | (r != 0)
        ends = np.where(nonzero.any(axis=1), d - np.argmax(nonzero[:, ::-1], axis=1), 0)
        cuts = np.flatnonzero(self.layers[1:] != self.layers[:-1]) + 1
        products = []
        h_prev = 0
        for s, e in zip(np.r_[0, cuts], np.r_[cuts, len(ends)]):
            h = max(h_prev, int(ends[s:e].max(initial=0)))
            if h > h_prev:
                products.append((w[s:, :h].T, r[s:, h_prev:h], r_mat[:h, h_prev:h]))
                products.append((w[s:, h_prev:h].T, r[s:, :h_prev], r_mat[h_prev:h, :h_prev]))
            h_prev = h

        products.sort(key=lambda p: p[2].size * p[0].shape[1], reverse=True)
        queue = deque(products)

        def run():
            while True:
                try:
                    a, b, out = queue.popleft()
                except IndexError:
                    return
                np.matmul(a, b, out=out)

        with netkit.lane() as submit:
            other = submit(run)
            run()
            other.result()
        return r_mat


@dataclass(frozen=True)
class GlassDensityDiag:
    """Diagonal glass density rho, the workhorse approximation of R."""

    rho: np.ndarray


def density_matrix(
    records: Iterable[ReluUnitRecord], psi: float, dim: int | None = None
) -> GlassDensityMatrix:
    """Factor the glass density matrix from near-threshold unit records.

    R[i, j] = 1/(2 psi) * sum_k grad_y[k, i]^2 * dloss_dz[k]^2 * |grad_y[k, j]|.

    The result stores the record factors of R (see GlassDensityMatrix):
    density_diag and variation_bound cost O(K d), and the dense R is built
    only when .R is read. Records are taken in unit-id order, so the result
    is exactly invariant to input ordering. An empty record list yields the
    zero matrix (dim must then be supplied). Mismatched grad_y lengths or a
    dim that disagrees with them raise ConfigError; non-finite or overflowing
    record values raise NumericsError.
    """
    if not psi > 0:
        raise ConfigError("psi must be positive")
    records = sorted(records, key=lambda r: r.unit_id)
    if not records:
        if dim is None:
            raise ConfigError("dim is required to build a density matrix from no records")
        empty = np.zeros((0, dim))
        return GlassDensityMatrix(empty, empty, np.zeros(0, dtype=np.intp))
    width = len(records[0].grad_y)
    if dim is not None and dim != width:
        raise ConfigError(f"dim {dim} differs from the records' grad_y length {width}")
    for r in records:
        if np.shape(r.grad_y) != (width,):
            raise ConfigError(
                f"record {r.unit_id} has grad_y of shape {np.shape(r.grad_y)}, expected ({width},)"
            )
    gy = np.stack([r.grad_y for r in records]).astype(np.float64, copy=False)
    dloss_dz = np.array([r.dloss_dz for r in records], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.multiply(gy, gy)
        weights *= (dloss_dz * dloss_dz / (2.0 * psi))[:, None]
    # A non-finite grad_y or dloss_dz, or an overflow, leaves its record's weights non-finite.
    bad = ~np.isfinite(weights).all(axis=1)
    if bad.any():
        raise NumericsError(
            f"record {records[int(np.argmax(bad))].unit_id} has a non-finite or overflowing "
            "grad_y or dloss_dz"
        )
    layers = np.array([r.layer for r in records], dtype=np.intp)
    return GlassDensityMatrix(weights, np.abs(gy, out=gy), layers)


def density_diag(matrix: GlassDensityMatrix) -> GlassDensityDiag:
    """Diagonal of the density matrix, sum_k weights[k, i] * reach[k, i], in O(K d)."""
    return GlassDensityDiag(np.einsum("ki,ki->i", matrix.weights, matrix.reach))


def variation_bound(matrix: GlassDensityMatrix, delta: np.ndarray) -> np.ndarray:
    """Upper bound R |delta| on gradient variations for a step delta, in O(K d)."""
    delta = np.asarray(delta, dtype=np.float64)
    if delta.shape != (matrix.dim,):
        raise ConfigError(
            f"delta has shape {delta.shape}, density matrix is {(matrix.dim, matrix.dim)}"
        )
    return (matrix.reach @ np.abs(delta)) @ matrix.weights


def loss_increase_bound(rho: np.ndarray, delta: np.ndarray) -> float:
    """Aggregate bound sqrt(2/(3 pi) * sum_i rho_i |delta_i|^3) on expected loss increase.

    This is the scalar form that enters the modified quasi-Newton objective.
    """
    rho = np.asarray(rho, dtype=np.float64)
    if not (np.isfinite(rho).all() and (rho >= 0).all()):
        raise ConfigError("glass density must be finite and elementwise nonnegative")
    delta = np.asarray(delta, dtype=np.float64)
    if rho.shape != delta.shape:
        raise ConfigError(f"shape mismatch: rho {rho.shape} vs delta {delta.shape}")
    return float(np.sqrt((2.0 / (3.0 * math.pi)) * np.sum(rho * np.abs(delta) ** 3)))


# ---------------------------------------------------------------------------
# Optimal diagonal-estimation kernels


@dataclass(frozen=True)
class KernelSpec:
    """Zero-bias minimum-variance kernel for diagonal estimation.

    kappa(delta_i) = delta_i / (c * (delta_i^2 + omega2_i)), where omega2_i
    scales the off-diagonal row mass and c normalizes the estimator to zero
    bias under the sample density. restrict > 0 rejects updates whenever
    |delta_i| falls below that threshold (the density is renormalized
    accordingly, which is how c is computed here).
    """

    density: str
    omega2: float | np.ndarray
    restrict: float
    c: float | np.ndarray


def update_probability(density: str, restrict: float) -> float:
    """Probability that a sample coordinate survives the restriction."""
    _check_density(density)
    if not restrict >= 0:  # NaN fails every comparison
        raise ConfigError("restriction threshold must be >= 0")
    if restrict == 0:
        return 1.0
    if density == "rademacher":
        return 1.0 if restrict <= 1.0 else 0.0
    return math.erfc(restrict / math.sqrt(2.0))


@cache
def _unit_rule() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the composite Gauss-Legendre rule on [0, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    nodes = (np.arange(_GL_PANELS)[:, None] + 0.5 * (x + 1.0)) / _GL_PANELS
    return nodes.ravel(), np.tile(w / (2.0 * _GL_PANELS), _GL_PANELS)


def _normal_kernel_constant(omega2: np.ndarray, lo: float, prob: float) -> np.ndarray:
    """c for the normal density restricted to |x| >= lo, for a 1-d array of omega2 > 0.

    The substitution x = a sinh(u), a = sqrt(omega2), turns x^2/(x^2 + a^2)
    into tanh(u)^2 and a^2/(x^2 + a^2) into 1/cosh(u)^2, so with the Jacobian
    a cosh(u) the integrands are x tanh(u) phi(x) and a phi(x) / cosh(u):
    smooth in u for every omega2, however small. Each is integrated over the
    window [lo, lo + 8] in x by the fixed composite rule. Where c <= 1/2 it is
    taken from the first integral, elsewhere as 1 minus the second, so
    neither form loses digits to cancellation and c <= 1 holds exactly.
    """
    nodes, weights = _unit_rule()
    a = np.sqrt(omega2)[:, None]
    u0 = np.arcsinh(lo / a)
    span = np.arcsinh((lo + _QUAD_SPAN) / a) - u0
    u = u0 + span * nodes
    x = a * np.sinh(u)
    phi = np.exp(-0.5 * x * x) * weights
    scale = span[:, 0] * (2.0 / (math.sqrt(2.0 * math.pi) * prob))
    c = scale * np.sum(x * np.tanh(u) * phi, axis=1)
    complement = scale * np.sum(a / np.cosh(u) * phi, axis=1)
    return np.where(c <= 0.5, c, 1.0 - complement)


def kernel_constant(density: str, omega2, restrict: float = 0.0):
    """Normalization c = E[delta^2 / (delta^2 + omega2)] under the (restricted) density.

    Exact 1/(1 + omega2) for Rademacher. For the normal density, a fixed
    composite Gauss-Legendre rule (48 panels of 32 nodes) after the
    substitution delta = sqrt(omega2) sinh(u), see _normal_kernel_constant:
    within 1e-14 relative of the closed form at restrict = 0 for omega2 <= 3,
    and 0 < c <= 1.
    omega2 may be a scalar or an array of per-coordinate values; an array
    gives the same values as scalar calls, in its own shape. omega2 = 0
    gives exactly 1.
    """
    _check_density(density)
    if not restrict >= 0:  # NaN fails every comparison
        raise ConfigError("restriction threshold must be >= 0")
    omega2_arr = np.asarray(omega2, dtype=np.float64)
    if not (np.isfinite(omega2_arr).all() and (omega2_arr >= 0).all()):
        raise ConfigError("omega2 must be finite and nonnegative")
    if density == "rademacher":
        if restrict > 1.0:
            raise ConfigError("restriction rejects every Rademacher sample")
        c = 1.0 / (1.0 + omega2_arr)
    else:
        prob = update_probability("normal", restrict)
        if prob == 0.0:
            raise ConfigError("restriction rejects every sample")
        flat = omega2_arr.ravel()
        c = np.ones_like(flat)  # the integrand is identically 1 where omega2 = 0
        positive = np.flatnonzero(flat)
        for start in range(0, positive.size, _GL_BLOCK):
            idx = positive[start : start + _GL_BLOCK]
            c[idx] = _normal_kernel_constant(flat[idx], float(restrict), prob)
        c = c.reshape(omega2_arr.shape)
    return float(c) if c.ndim == 0 else c


def make_kernel(density: str, omega2, restrict: float = 0.0) -> KernelSpec:
    """Build a KernelSpec with its normalization constant precomputed."""
    return KernelSpec(
        density=density,
        omega2=np.asarray(omega2, dtype=np.float64) if np.ndim(omega2) else float(omega2),
        restrict=float(restrict),
        c=kernel_constant(density, omega2, restrict),
    )


def optimal_kernel_weight(delta_i, kspec: KernelSpec, out: np.ndarray | None = None):
    """Evaluate the kernel at sample coordinate value(s) delta_i.

    For the two-point Rademacher density the general expression collapses to
    the identity kappa(delta) = delta, which is evaluated directly so the
    collapse is exact. Restricted kernels return 0 below the threshold.
    Given out, a float64 array of the weight's shape, the weight is computed
    in it one operation at a time: an unrestricted kernel then allocates no
    array of that shape and returns out, a restricted one returns a new array.
    """
    delta_i = np.asarray(delta_i, dtype=np.float64)
    if kspec.density == "rademacher":
        weight = np.positive(delta_i, out=out)
    else:
        weight = np.multiply(delta_i, delta_i, out=out)
        weight = np.add(weight, kspec.omega2, out=out)
        weight = np.multiply(weight, kspec.c, out=out)
        weight = np.divide(delta_i, weight, out=out)
    if kspec.restrict > 0:
        weight = np.where(np.abs(delta_i) >= kspec.restrict, weight, 0.0)
    if weight.ndim == 0:
        return float(weight)
    return weight


@dataclass(frozen=True)
class EstimatorVariance:
    """Closed-form variance of the optimal-kernel diagonal estimator.

    per_sample is the variance per accepted sample, m^2 (1/c - 1);
    per_draw divides by the update probability, the cost-honest figure for
    restricted kernels.
    """

    per_sample: float | np.ndarray
    per_draw: float | np.ndarray
    update_probability: float


def estimator_variance(kspec: KernelSpec, m_i) -> EstimatorVariance:
    """Single-sample variance of the optimal-kernel estimator at diagonal value m_i."""
    m_i = np.asarray(m_i, dtype=np.float64)
    per_sample = (m_i * m_i) * (1.0 / np.asarray(kspec.c) - 1.0)
    prob = update_probability(kspec.density, kspec.restrict)
    per_draw = per_sample / prob
    if per_sample.ndim == 0:
        return EstimatorVariance(float(per_sample), float(per_draw), prob)
    return EstimatorVariance(per_sample, per_draw, prob)


# ---------------------------------------------------------------------------
# Gradient-variation measurements and the power law


@dataclass(frozen=True)
class GradientVariationMeasurement:
    """Elementwise second moments of gradient changes at probe distance lam."""

    lam: float
    v: np.ndarray
    n_samples: int


def measure_variations(
    grad_fn: Callable[[np.ndarray], np.ndarray],
    mu: np.ndarray,
    lam: float,
    n_samples: int,
    seed: int,
) -> GradientVariationMeasurement:
    """Average squared gradient change over Rademacher perturbations of scale lam.

    Samples are drawn and accumulated in a fixed order, so the result is
    deterministic given the seed; calling with the same seed at a different
    lam reuses the same sign vectors (shared-seed pairing across scales).
    """
    check_seed(seed)
    if not lam > 0:
        raise ConfigError("probe distance lam must be positive")
    if n_samples < 1:
        raise ConfigError("need at least one sample")
    mu = np.asarray(mu, dtype=np.float64)
    rng = np.random.default_rng(seed)
    g0 = np.asarray(grad_fn(mu), dtype=np.float64)
    acc = np.zeros_like(g0)
    for _ in range(n_samples):
        signs = rademacher_signs(rng, mu.shape[0])
        gamma = np.asarray(grad_fn(mu + lam * signs), dtype=np.float64) - g0
        acc += gamma * gamma
    v = acc / n_samples
    # Finite gradients can still overflow their squared change, or its sum.
    if not math.isfinite(float(v.sum())):
        raise NumericsError(f"gradient variations overflowed at lam = {lam!r}")
    return GradientVariationMeasurement(float(lam), v, int(n_samples))


@dataclass(frozen=True)
class PartitionPowerLaw:
    name: str
    sum_v_lambda: float
    sum_v_2lambda: float
    p: float
    defined: bool


@dataclass(frozen=True)
class PowerLawReport:
    """Per-partition power-law exponents of gradient variations."""

    lam: float
    entries: tuple[PartitionPowerLaw, ...]

    def exponent(self, name: str) -> float:
        for entry in self.entries:
            if entry.name == name:
                return entry.p
        raise KeyError(name)


def _check_partitions(partitions: Mapping[str, np.ndarray], dim: int) -> None:
    if not partitions:
        raise ConfigError("no partitions")
    seen = np.concatenate([np.asarray(idx, dtype=np.intp) for idx in partitions.values()])
    if seen.size != dim or not np.array_equal(np.sort(seen), np.arange(dim)):
        raise ConfigError("partitions must be disjoint and cover every parameter index")


def power_law(
    meas_lam: GradientVariationMeasurement,
    meas_2lam: GradientVariationMeasurement,
    partitions: Mapping[str, np.ndarray],
) -> PowerLawReport:
    """Fit v(lam) ~ lam^p per partition from measurements at lam and 2*lam.

    A partition whose variation sum vanishes at either scale gets an
    undefined exponent (flagged, not fatal).
    """
    if meas_lam.v.shape != meas_2lam.v.shape:
        raise ConfigError("measurements have mismatched dimension")
    if not math.isclose(meas_2lam.lam, 2.0 * meas_lam.lam, rel_tol=1e-12):
        raise ConfigError("second measurement must be taken at exactly twice the probe distance")
    _check_partitions(partitions, meas_lam.v.shape[0])
    entries = []
    for name, idx in partitions.items():
        idx = np.asarray(idx, dtype=np.intp)
        s1 = float(np.sum(meas_lam.v[idx]))
        s2 = float(np.sum(meas_2lam.v[idx]))
        defined = s1 > 0.0 and s2 > 0.0
        p = math.log2(s2) - math.log2(s1) if defined else math.nan
        entries.append(PartitionPowerLaw(name, s1, s2, p, defined))
    return PowerLawReport(meas_lam.lam, tuple(entries))
