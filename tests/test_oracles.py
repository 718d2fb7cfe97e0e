import dataclasses
import math
import re
import threading
import time
import tracemalloc
from contextlib import closing

import numpy as np
import pytest
from fd_oracles import (
    StaircaseGradientField,
    quadratic_powerlaw_oracle,
    reference_glass_walk_expectation,
    reference_mc_estimator,
    reference_mc_variation,
    staircase_exponent_check,
)

from glassopt import glass, harness, netkit, oracles
from glassopt.netkit import ConfigError


def assert_bitwise_equal(a, b):
    for f in dataclasses.fields(a):
        x, y = np.asarray(getattr(a, f.name)), np.asarray(getattr(b, f.name))
        assert x.dtype == y.dtype and x.shape == y.shape, f.name
        assert x.tobytes() == y.tobytes(), f.name


def warm_peak_mb(fn, warm):
    """tracemalloc peak of fn() in MB, after warm() has run the same code once."""
    warm()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestGlassWalk:
    def test_zero_density_gives_zero(self):
        sim = oracles.SyntheticGlass1D(rho=0.0, lam=1.0, n_kinks=10, trials=100, seed=0)
        result = oracles.glass_walk_expectation(sim)
        assert result.mean_abs == 0.0
        assert result.predicted_mean_abs == 0.0

    def test_deterministic(self):
        sim = oracles.SyntheticGlass1D(rho=1.0, lam=1.0, n_kinks=100, trials=2000, seed=5)
        a = oracles.glass_walk_expectation(sim)
        b = oracles.glass_walk_expectation(sim)
        assert a.mean_abs == b.mean_abs and a.variance == b.variance

    def test_gaussian_and_rademacher_kicks_agree(self):
        base = dict(rho=2.0, lam=0.5, n_kinks=500, trials=40_000)
        gauss = oracles.glass_walk_expectation(oracles.SyntheticGlass1D(seed=1, **base))
        rade = oracles.glass_walk_expectation(
            oracles.SyntheticGlass1D(seed=2, kick="rademacher", **base)
        )
        assert gauss.mean_abs == pytest.approx(rade.mean_abs, rel=0.03)
        assert gauss.variance == pytest.approx(rade.variance, rel=0.03)

    def test_standard_error_quarter_trials(self):
        # Standard error follows 1/sqrt(trials): quadrupling halves it.
        small = oracles.glass_walk_expectation(
            oracles.SyntheticGlass1D(rho=1.0, lam=1.0, n_kinks=200, trials=20_000, seed=3)
        )
        big = oracles.glass_walk_expectation(
            oracles.SyntheticGlass1D(rho=1.0, lam=1.0, n_kinks=200, trials=80_000, seed=3)
        )
        ratio = big.mean_abs_se / small.mean_abs_se
        assert 0.5 * 0.8 < ratio < 0.5 * 1.2

    def test_more_kinks_than_a_chunk_holds(self):
        # One trial is one element past the chunk budget, so every chunk is one row.
        n = oracles._CHUNK_ELEMS + 1
        sim = oracles.SyntheticGlass1D(
            rho=1.0, lam=1.0, n_kinks=n, trials=2, seed=0, kick="rademacher"
        )
        result = oracles.glass_walk_expectation(sim)
        assert result.trials == 2 and math.isfinite(result.mean_abs) and result.mean_abs > 0
        assert_bitwise_equal(result, reference_glass_walk_expectation(sim))

    @pytest.mark.parametrize("n", [1, 2, 7, 31, 32, 33, 100, 1000])
    def test_rademacher_kick_sums_are_exact(self, n):
        # Against Python ints: sum_j (n - j)(2 b_j - 1), divided by n with one
        # rounding (int / int is correctly rounded).
        bits = glass.rademacher_bits(np.random.default_rng(n), 9, n)
        masks, weights = oracles._kick_weights(n)
        got = oracles._rademacher_kick_sums(bits, masks, weights, n, np.empty(9))
        for row, delta in zip(bits.tolist(), got.tolist()):
            b = [(row[p // 8] >> (7 - p % 8)) & 1 for p in range(n)]
            total = sum((n - j) * (2 * b[j - 1] - 1) for j in range(1, n + 1))
            assert delta == total / n

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gaussian_law_agrees_with_the_full_walk(self, seed):
        # The exact-law draw against the frozen 1000-kick Gaussian walk.
        sim = oracles.SyntheticGlass1D(rho=1.3, lam=0.7, n_kinks=1000, trials=20_000, seed=seed)
        got, walked = oracles.glass_walk_expectation(sim), reference_glass_walk_expectation(sim)
        for name in ("mean_abs", "variance"):
            se = math.hypot(getattr(got, f"{name}_se"), getattr(walked, f"{name}_se"))
            assert abs(getattr(got, name) - getattr(walked, name)) <= 3.0 * se, name

    def test_invalid_parameters(self):
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="rho must be finite and >= 0"):
                oracles.SyntheticGlass1D(rho=bad, lam=1.0)
        for bad in (0.0, math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match="lam must be finite and > 0"):
                oracles.SyntheticGlass1D(rho=1.0, lam=bad)
        with pytest.raises(ConfigError):
            oracles.SyntheticGlass1D(rho=1.0, lam=1.0, kick="cauchy")


def new_threads(before):
    return [t for t in threading.enumerate() if t not in before]


class FailingDraw:
    """A Generator whose standard_normal, or bytes for signs, raises on its call number fail_at."""

    def __init__(self, seed, fail_at):
        self.rng, self.fail_at, self.calls = np.random.default_rng(seed), fail_at, 0

    def _count(self):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError(f"draw {self.calls} failed")

    def standard_normal(self, out):
        self._count()
        return self.rng.standard_normal(out=out)

    def bytes(self, length):
        self._count()
        return self.rng.bytes(length)


def assert_chunks_are_one_draw(density, total, draw):
    """The chunks of a (total, 1024) draw are bitwise draw(rng, (total, 1024)), in 128-row chunks.

    Each chunk is read only after the next one has had time to be drawn
    ahead, so a lane that drew into the chunk in use would show here. The
    stream must end where the whole draw leaves it.
    """
    rng, whole = np.random.default_rng(6), np.random.default_rng(6)
    chunks = []
    for chunk in oracles._sample_chunks(rng, density, total, 1024):
        time.sleep(0.01)
        chunks.append(chunk.copy())
    assert [c.shape[0] for c in chunks[:-1]] == [128] * (len(chunks) - 1)
    assert np.concatenate(chunks).tobytes() == draw(whole, (total, 1024)).tobytes()
    assert rng.random() == whole.random()


def assert_draw_error_in_caller(density, fail_at, delivered):
    """A (500, 1024) draw whose draw call fail_at fails raises it after `delivered` chunks."""
    before = threading.enumerate()
    got = []
    with pytest.raises(RuntimeError, match=f"^draw {fail_at} failed$"):
        chunks = oracles._sample_chunks(FailingDraw(0, fail_at), density, 500, 1024)
        with closing(chunks):
            got.extend(chunk.shape[0] for chunk in chunks)
    assert got == [128] * delivered
    assert new_threads(before) == []


class TestSampleChunks:
    # A chunk holds _CHUNK_ELEMS // 1024 = 128 rows of 1024 columns. The
    # totals give one chunk (100, 128), whole chunks (512), and a short last
    # chunk (500 is three of 128 and one of 116; 129 is 128 and 1).
    @pytest.mark.parametrize("total", [100, 128, 512, 500, 129])
    def test_normal_chunks_are_one_draw(self, total):
        assert_chunks_are_one_draw("normal", total, np.random.Generator.standard_normal)

    @pytest.mark.parametrize("total", [100, 128, 512, 500, 129])
    def test_sign_chunks_are_one_draw(self, total):
        assert_chunks_are_one_draw("rademacher", total, glass.rademacher_signs)

    @pytest.mark.parametrize("density", ["normal", "rademacher"])
    @pytest.mark.parametrize("total, lane", [(500, True), (129, True), (128, False)])
    def test_a_draw_of_many_chunks_starts_the_lane(self, density, total, lane):
        before = threading.enumerate()
        chunks = oracles._sample_chunks(np.random.default_rng(0), density, total, 1024)
        next(chunks)
        assert len(new_threads(before)) == int(lane)
        chunks.close()
        assert new_threads(before) == []

    @pytest.mark.parametrize("fail_at", [1, 3, 4])
    def test_a_draw_error_is_raised_in_the_caller(self, fail_at):
        # Four chunks: the first draw, one drawn ahead, and the last.
        assert_draw_error_in_caller("normal", fail_at, fail_at - 1)

    @pytest.mark.parametrize("fail_at", [1, 5, 8])
    def test_a_sign_draw_error_is_raised_in_the_caller(self, fail_at):
        # Four chunks of signs, each of two bytes calls (rademacher_signs
        # unpacks 64 rows of 1024 at a time): the error is in chunk 1, 3 or 4.
        assert_draw_error_in_caller("rademacher", fail_at, (fail_at - 1) // 2)


class TestBoundedWorkspaces:
    """The buffer-reusing oracles against the frozen allocate-per-chunk ones."""

    # Only the Rademacher walk is walked kick by kick; the Gaussian one is
    # drawn from its law (test_gaussian_law_agrees_with_the_full_walk).
    @pytest.mark.parametrize("kick", ["rademacher"])
    @pytest.mark.parametrize(
        "n_kinks, trials", [(1000, 15_001), (300, 45_001), (7, 333), (5, 131_073)]
    )
    def test_walk_bitwise_equal_to_reference(self, kick, n_kinks, trials):
        # Popcount groups of 420 trials at 1000 kinks (15_001 are 36 groups,
        # the last of 301) and of 1351 at 300 kinks (45_001 are 34, the last of
        # 418); 333 trials of 7 kinks are one group. Each walk is one group of
        # moment sums but the 131_073-trial one, which is two, the last of one.
        sim = oracles.SyntheticGlass1D(
            rho=1.3, lam=0.7, n_kinks=n_kinks, trials=trials, seed=3, kick=kick
        )
        assert_bitwise_equal(
            oracles.glass_walk_expectation(sim), reference_glass_walk_expectation(sim)
        )

    @pytest.mark.parametrize(
        "density, restrict", [("rademacher", 0.5), ("normal", 0.0), ("normal", 1.0)]
    )
    @pytest.mark.parametrize("n_samples", [45_001, 1000])
    def test_estimator_bitwise_equal_to_reference(self, density, restrict, n_samples):
        # Every path but the unrestricted Rademacher one forms each estimate.
        # At d = 50 a chunk holds 2621 samples: 45_001 are 18 chunks, the last
        # of 444, and 1000 are one.
        tm = oracles.TestMatrix.random_diag_dominant(50, seed=7)
        kspec = glass.make_kernel(density, tm.dominance, restrict=restrict)
        assert_bitwise_equal(
            oracles.mc_estimator(tm, kspec, n_samples, seed=8),
            reference_mc_estimator(tm, kspec, n_samples, seed=8)[0],
        )

    @pytest.mark.parametrize("density", ["rademacher", "normal"])
    @pytest.mark.parametrize("n_samples", [45_001, 1000])
    def test_aggregate_bias_bitwise_equal_to_reference(self, density, n_samples):
        tm = oracles.TestMatrix.random_diag_dominant(50, seed=7)
        kspec = glass.make_kernel(density, tm.dominance)
        assert_bitwise_equal(
            oracles.mc_aggregate_bias(tm, kspec, n_samples, seed=8),
            reference_mc_estimator(tm, kspec, n_samples, seed=8)[1],
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("d, n_samples", [(2, 1000), (7, 3001), (50, 21_001), (200, 20_500)])
    def test_gram_path_matches_the_per_sample_loop(self, d, n_samples, seed):
        # 21_001 samples at d = 50 are 9 chunks of 2621, the last of 33; 20_500
        # at d = 200 are 32 chunks of 655, the last of 195; the rest are one chunk.
        tm = oracles.TestMatrix.random_diag_dominant(d, seed=seed)
        kspec = glass.make_kernel("rademacher", tm.dominance)
        got = oracles.mc_estimator(tm, kspec, n_samples, seed=seed + 10)
        want, _ = reference_mc_estimator(tm, kspec, n_samples, seed=seed + 10)
        for name in ("estimate", "variance"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=1e-12)
        # bias = estimate - diag cancels, so it is held to the estimate's scale.
        np.testing.assert_allclose(
            got.bias, want.bias, rtol=0, atol=1e-12 * np.abs(want.estimate).max()
        )
        assert np.array_equal(got.n_accepted, want.n_accepted)
        assert got.n_samples == want.n_samples

    @pytest.mark.parametrize("density", ["rademacher", "normal"])
    def test_estimator_peak_memory(self, density):
        # A 1 MiB chunk is 655 x 200 samples. Both paths hold two draw buffers
        # (one filled ahead). The Gram path (rademacher) adds the 0.3 MB G and
        # its per-chunk product, forms the final products once the chunks are
        # freed, and peaks at 2.9 MB; a chunk-size y or est would pass 3 MB.
        # The direct path (normal) adds est and a 32-row block of the kernel
        # weight and peaks at 3.6 MB. One more chunk-size array would pass
        # either bound.
        tm = oracles.TestMatrix.random_diag_dominant(200, seed=0)
        kspec = glass.make_kernel(density, tm.dominance)
        peak = warm_peak_mb(
            lambda: oracles.mc_estimator(tm, kspec, 100_000, seed=1),
            lambda: oracles.mc_estimator(tm, kspec, 1000, seed=1),
        )
        assert peak <= {"rademacher": 3.0, "normal": 4.5}[density]

    @pytest.mark.parametrize("density, restrict", [("rademacher", 0.5), ("normal", 1.0)])
    def test_restricted_estimator_peak_memory(self, density, restrict):
        # 3.8 MB (rademacher) and 3.7 MB (normal): two draw buffers, the
        # direct path's arrays and the acceptance mask; the masked kernel
        # weight and its |delta| are 32-row blocks.
        tm = oracles.TestMatrix.random_diag_dominant(200, seed=0)
        kspec = glass.make_kernel(density, tm.dominance, restrict=restrict)
        peak = warm_peak_mb(
            lambda: oracles.mc_estimator(tm, kspec, 10_000, seed=1),
            lambda: oracles.mc_estimator(tm, kspec, 1000, seed=1),
        )
        assert peak <= 5.75

    @pytest.mark.parametrize("density", ["rademacher", "normal"])
    def test_aggregate_bias_peak_memory(self, density):
        # 3.7 MB (rademacher) and 3.6 MB (normal): two draw buffers (one
        # filled ahead), est and a 32-row kernel weight block.
        tm = oracles.TestMatrix.random_diag_dominant(200, seed=0)
        kspec = glass.make_kernel(density, tm.dominance)
        peak = warm_peak_mb(
            lambda: oracles.mc_aggregate_bias(tm, kspec, 10_000, seed=1),
            lambda: oracles.mc_aggregate_bias(tm, kspec, 1000, seed=1),
        )
        assert peak <= 4.5

    @pytest.mark.parametrize("kick", ["gauss", "rademacher"])
    def test_walk_peak_memory(self, kick):
        # Each walk peaks at 1.6 MB: its 100_000 Delta values (0.8 MB), drawn
        # or summed in place, and one temporary of their size; a separate
        # Delta would pass 2 MB. The Rademacher walk's popcounts take 420
        # trials at a time, in at most 1 MiB of temporaries.
        def walk(trials):
            sim = oracles.SyntheticGlass1D(rho=1.0, lam=1.0, trials=trials, seed=0, kick=kick)
            return oracles.glass_walk_expectation(sim)

        assert warm_peak_mb(lambda: walk(100_000), lambda: walk(10)) <= 2.0


class TestTestMatrix:
    def test_dominance_definition(self):
        m = np.array([[2.0, 1.0], [0.5, -1.0]])
        tm = oracles.TestMatrix(m)
        assert tm.dominance == pytest.approx([0.25, 0.25])

    def test_random_diag_dominant_within_bound(self):
        tm = oracles.TestMatrix.random_diag_dominant(50, seed=0)
        assert np.all(tm.dominance <= 1.0 + 1e-12)
        assert np.all(np.abs(tm.diagonal) >= 0.5)

    def test_rejects_non_square(self):
        with pytest.raises(ConfigError):
            oracles.TestMatrix(np.zeros((2, 3)))


class TestMcEstimator:
    def test_diagonal_matrix_rademacher_exact(self):
        tm = oracles.TestMatrix(np.diag([1.0, -2.0, 3.0, 0.5][:4]))
        kspec = glass.make_kernel("rademacher", 0.0)
        result = oracles.mc_estimator(tm, kspec, 1000, seed=0)
        assert np.allclose(result.bias, 0.0, atol=1e-14)
        assert np.allclose(result.variance, 0.0, atol=1e-14)

    def test_restricted_updates_reduce_effective_variance(self):
        tm = oracles.TestMatrix.random_diag_dominant(60, seed=3)
        n = 200_000
        unres = oracles.mc_estimator(tm, glass.make_kernel("normal", tm.dominance), n, seed=4)
        res = oracles.mc_estimator(
            tm, glass.make_kernel("normal", tm.dominance, restrict=1.0), n, seed=4
        )
        effective = float(np.mean(res.variance * n / res.n_accepted))
        assert harness.effective_variance_row(effective, float(np.mean(unres.variance)), n).passed

    def test_restricted_acceptance_rate(self):
        tm = oracles.TestMatrix.random_diag_dominant(40, seed=5)
        kspec = glass.make_kernel("normal", 1.0, restrict=1.0)
        res = oracles.mc_estimator(tm, kspec, 20_000, seed=6)
        rate = float(res.n_accepted.mean() / res.n_samples)
        assert harness.update_probability_row(rate, res.n_samples).passed

    def test_minimum_sample_count(self):
        tm = oracles.TestMatrix.random_diag_dominant(10, seed=0)
        kspec = glass.make_kernel("rademacher", 0.0)
        for oracle in (oracles.mc_estimator, oracles.mc_aggregate_bias):
            with pytest.raises(ConfigError, match="at least 1e3 samples"):
                oracle(tm, kspec, 10, 0)

    def test_aggregate_bias_rejects_a_restricted_kernel(self):
        tm = oracles.TestMatrix.random_diag_dominant(10, seed=0)
        kspec = glass.make_kernel("normal", tm.dominance, restrict=1.0)
        with pytest.raises(ConfigError, match="unrestricted kernel"):
            oracles.mc_aggregate_bias(tm, kspec, 1000, 0)


class TestVariationBoundOracle:
    def test_constructed_net_has_uniform_preactivations(self):
        scenario = oracles.build_uniform_preactivation_net(psi=0.05, seed=0)
        preacts, _ = netkit.forward(scenario.spec, scenario.params, scenario.batch.inputs)
        assert np.all(np.abs(preacts[0]) < scenario.psi)

    def test_zero_delta_trivially_within(self):
        scenario = oracles.build_uniform_preactivation_net(n_in=20, n_hidden=8, seed=1)
        cov = oracles.mc_variation(scenario, 0.0, 50, seed=2)
        assert np.array_equal(cov.v, np.zeros_like(cov.v))
        assert cov.fraction_within == 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("delta_scale, n_samples", [(5e-5, 100), (0.5, 40)])
    def test_bitwise_equal_to_the_per_sample_loop(self, delta_scale, n_samples, seed):
        # 100 sign vectors of the 3661 parameters are three chunks of 35 and
        # one of 30; 40 are one of 35 and one of 5.
        scenario = oracles.build_uniform_preactivation_net(seed=seed)
        assert_bitwise_equal(
            oracles.mc_variation(scenario, delta_scale, n_samples, seed + 1),
            reference_mc_variation(scenario, delta_scale, n_samples, seed + 1),
        )

    @pytest.mark.parametrize(
        "delta_scale, n_samples, message",
        [
            (5e-5, 0, "need at least one sample, got n_samples = 0"),
            (5e-5, -3, "need at least one sample, got n_samples = -3"),
            (math.nan, 10, "step size delta_scale must be finite and >= 0, got nan"),
            (math.inf, 10, "step size delta_scale must be finite and >= 0, got inf"),
            (-1e-3, 10, "step size delta_scale must be finite and >= 0, got -0.001"),
        ],
    )
    def test_rejects_an_empty_draw_or_a_bad_step(self, delta_scale, n_samples, message):
        scenario = oracles.build_uniform_preactivation_net(n_in=20, n_hidden=8, seed=1)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            oracles.mc_variation(scenario, delta_scale, n_samples, seed=2)

    def test_small_step_coverage_and_negative_control(self):
        scenario = oracles.build_uniform_preactivation_net(seed=0)
        small = oracles.mc_variation(scenario, 5e-5, 1500, seed=3)
        assert small.fraction_within >= 0.99
        assert small.precondition_violation_fraction < 0.01
        large = oracles.mc_variation(scenario, 0.5, 150, seed=4)
        assert large.fraction_within < 0.99
        assert large.precondition_violation_fraction > 0.5


class TestStepObjectiveOracle:
    def test_golden_section_on_parabola(self):
        argmin = oracles.golden_section_min(lambda x: (x - 1.3) ** 2, 0.0, 4.0)
        assert argmin == pytest.approx(1.3, abs=1e-9)

    def test_pure_quasi_newton_limit(self):
        # golden section resolves a smooth minimum to ~sqrt(eps) relative
        assert oracles.step_objective_argmin(2.0, 4.0, 0.0) == pytest.approx(0.5, rel=1e-7)

    def test_pure_glass_limit(self):
        g, rho = 1.5, 0.7
        expected = 2.0 * math.pi * g * g / (3.0 * rho)
        assert oracles.step_objective_argmin(g, 0.0, rho) == pytest.approx(expected, rel=1e-7)

    def test_zero_gradient(self):
        assert oracles.step_objective_argmin(0.0, 1.0, 1.0) == 0.0


class TestSyntheticFields:
    def test_quadratic_oracle_identity(self):
        assert np.allclose(quadratic_powerlaw_oracle(np.eye(3), 0.5), 0.25)

    def test_quadratic_oracle_zero(self):
        assert np.array_equal(quadratic_powerlaw_oracle(np.zeros((3, 3)), 1.0), np.zeros(3))

    def test_quadratic_oracle_requires_symmetry(self):
        with pytest.raises(ConfigError):
            quadratic_powerlaw_oracle(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)

    def test_staircase_expected_variation_matches_monte_carlo(self):
        # The mean's noise comes from the frozen field: each coordinate's
        # squared jump sum has relative spread ~1, so over d coordinates the
        # mean's is ~1/sqrt(d). d = 1024 puts the 10% bound at ~3 of its
        # standard deviations (0.03-0.04 over field seeds 0-19); at d = 64 it
        # was under one, and about 40% of field seeds failed.
        d = 1024
        field = StaircaseGradientField.random(d, 2000, span=1.0, magnitude=0.2, seed=7)
        lam = 0.01
        meas = glass.measure_variations(field.grad, np.zeros(d), lam, 200, seed=8)
        expected = field.expected_variation(lam).mean()
        assert meas.v.mean() == pytest.approx(expected, rel=0.1)

    def test_staircase_exponent_near_one(self):
        p, passed = staircase_exponent_check(4096, field_seed=9, samples=32, probe_seed=10)
        assert passed, p


class TestSeedCheck:
    @pytest.mark.parametrize(
        "entry",
        [
            lambda seed: oracles.SyntheticGlass1D(rho=1.0, lam=1.0, seed=seed),
            lambda seed: oracles.TestMatrix.random_diag_dominant(5, seed),
            lambda seed: oracles.mc_estimator(
                oracles.TestMatrix(np.eye(3)), glass.make_kernel("normal", 0.0), 1000, seed),
            lambda seed: oracles.mc_aggregate_bias(
                oracles.TestMatrix(np.eye(3)), glass.make_kernel("normal", 0.0), 1000, seed),
            lambda seed: oracles.build_uniform_preactivation_net(seed=seed),
            lambda seed: oracles.mc_variation(oracles.build_uniform_preactivation_net(), 1e-3,
                                              2, seed),
            lambda seed: oracles.underdetermined_ls(seed),
        ],
    )
    def test_every_seeded_oracle_rejects_a_negative_seed(self, entry):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            entry(-1)
        with pytest.raises(ConfigError, match="seed must be an integer, got 1.5"):
            entry(1.5)
        entry(np.int64(2))

    def test_check_seed_returns_a_python_int(self):
        assert type(oracles.check_seed(np.uint8(7))) is int
        assert oracles.check_seed(0) == 0
