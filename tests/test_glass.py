import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracles import (
    fine_grid_kernel_constant,
    random_model_and_batch,
    reference_band_density,
    reference_rademacher_signs,
)
from glassopt import glass, netkit, oracles
from glassopt.glass import GlassDensityDiag, GlassDensityMatrix
from glassopt.netkit import ConfigError, NumericsError, ReluUnitRecord


def make_record(layer, neuron, sample, y, dldz, grad_y):
    return ReluUnitRecord(layer, neuron, sample, y, dldz, np.asarray(grad_y, dtype=float))


def synthetic_records(d=6, count=10, seed=0):
    rng = np.random.default_rng(seed)
    return [
        make_record(0, k, 0, rng.uniform(-1, 1), rng.standard_normal(), rng.standard_normal(d))
        for k in range(count)
    ]


class TestDensityMatrix:
    def test_empty_records_zero_matrix(self):
        result = glass.density_matrix([], 0.5, dim=4)
        assert np.array_equal(result.R, np.zeros((4, 4)))

    def test_empty_records_need_dim(self):
        with pytest.raises(ConfigError):
            glass.density_matrix([], 0.5)

    def test_single_axis_record(self):
        a, b, psi = 1.7, -0.6, 0.25
        record = make_record(0, 0, 0, 0.1, b, [a, 0.0, 0.0])
        r_mat = glass.density_matrix([record], psi).R
        expected = np.zeros((3, 3))
        expected[0, 0] = a * a * b * b * abs(a) / (2 * psi)
        assert np.allclose(r_mat, expected, rtol=1e-15)

    def test_matches_naive_sum(self):
        records = synthetic_records()
        psi = 0.4
        d = records[0].grad_y.shape[0]
        expected = np.zeros((d, d))
        for rec in records:  # literal re-implementation, arbitrary order
            for i in range(d):
                for j in range(d):
                    expected[i, j] += (
                        rec.grad_y[i] ** 2 * rec.dloss_dz**2 * abs(rec.grad_y[j])
                    ) / (2 * psi)
        assert np.allclose(glass.density_matrix(records, psi).R, expected, rtol=1e-12)

    def test_permutation_invariant_exactly(self):
        records = synthetic_records(count=12, seed=3)
        forward_order = glass.density_matrix(records, 0.3).R
        reversed_order = glass.density_matrix(records[::-1], 0.3).R
        assert np.array_equal(forward_order, reversed_order)

    def test_entries_nonnegative(self):
        assert np.all(glass.density_matrix(synthetic_records(seed=9), 0.2).R >= 0)

    def test_nonpositive_psi_rejected(self):
        with pytest.raises(ConfigError):
            glass.density_matrix(synthetic_records(), 0.0)

    def test_dim_must_match_records(self):
        with pytest.raises(ConfigError, match="dim 5"):
            glass.density_matrix(synthetic_records(d=3), 0.5, dim=5)
        assert glass.density_matrix(synthetic_records(d=3), 0.5, dim=3).R.shape == (3, 3)

    def test_mismatched_lengths_name_the_record(self):
        records = synthetic_records(d=3) + [make_record(1, 7, 2, 0.0, 1.0, np.ones(4))]
        with pytest.raises(ConfigError, match=r"\(1, 7, 2\)"):
            glass.density_matrix(records, 0.5)

    @pytest.mark.parametrize("field", ["grad_y", "dloss_dz"])
    @pytest.mark.parametrize("bad", [math.inf, math.nan, 1e200])
    def test_non_finite_record_rejected(self, field, bad):
        records = synthetic_records(d=3)
        grad_y = np.array([1.0, bad, 0.0]) if field == "grad_y" else np.ones(3)
        dldz = bad if field == "dloss_dz" else 1.0
        records.append(make_record(2, 0, 5, 0.0, dldz, grad_y))
        with pytest.raises(NumericsError, match=r"\(2, 0, 5\)"):
            glass.density_matrix(records, 0.5)


def from_dense(r_mat):
    """The exact factor split R = I^T R: one record per row, all in one layer."""
    d = r_mat.shape[0]
    return GlassDensityMatrix(np.eye(d), r_mat, np.zeros(d, dtype=int))


def reference_density(records, psi):
    """The one-product oracle ((gy^2 c)^T |gy|) / (2 psi)."""
    gy = np.stack([r.grad_y for r in records])
    coeff = np.array([r.dloss_dz for r in records]) ** 2
    return ((gy * gy) * coeff[:, None]).T @ np.abs(gy) / (2.0 * psi)


def assert_matches_reference(records, psi, seed=0):
    matrix = glass.density_matrix(records, psi)
    want = reference_density(records, psi)
    delta = np.random.default_rng(seed).standard_normal(want.shape[0])
    assert np.allclose(glass.density_diag(matrix).rho, np.diag(want), rtol=1e-12, atol=0)
    assert np.allclose(
        glass.variation_bound(matrix, delta), want @ np.abs(delta), rtol=1e-12, atol=0
    )
    assert np.allclose(matrix.R, want, rtol=1e-12, atol=0)
    assert np.array_equal(matrix.R != 0, want != 0)


def layer_zero_records():
    # Breaks the layer-prefix layout: the first band must cover all of R.
    return [
        make_record(0, 0, 0, 0.0, 1.5, [0.0, 0.0, 0.0, 0.0, 2.0]),
        make_record(1, 0, 0, 0.0, -0.5, [1.0, 3.0, 0.0, 0.0, 0.0]),
        make_record(1, 1, 0, 0.0, 0.7, [0.0, 0.0, 4.0, 0.0, 0.0]),
    ]


def three_layer_records():
    spec, params, batch = random_model_and_batch(4, widths=(4, 6, 6, 6, 3), n=10)
    return netkit.relu_introspect(spec, params, batch, 0.8)


class TestDensityFactors:
    def test_layer_zero_record_reaching_last_column(self):
        assert_matches_reference(layer_zero_records(), 0.2)

    def test_zero_weight_record_still_reaches(self):
        # dloss_dz = 0 zeroes the weights but not the reach of a record.
        records = [
            make_record(0, 0, 0, 0.0, 0.0, [1.0, 2.0, 0.0]),
            make_record(1, 0, 0, 0.0, 1.0, [1.0, 0.0, 3.0]),
        ]
        assert_matches_reference(records, 0.5)

    def test_weights_reaching_past_reach(self):
        # In the identity split of a lower-triangular R, each record's weight
        # lies one column past its reach, so the band ends must read both.
        r_mat = np.tril(np.random.default_rng(6).random((5, 5)), -1)
        assert np.array_equal(from_dense(r_mat).R, r_mat)

    def test_real_records_from_three_hidden_layers(self):
        records = three_layer_records()
        assert {r.layer for r in records} == {0, 1, 2}
        assert_matches_reference(records, 0.8)

    def test_diag_and_bound_do_not_build_dense(self):
        matrix = glass.density_matrix(synthetic_records(), 0.3)
        glass.density_diag(matrix)
        glass.variation_bound(matrix, np.ones(matrix.dim))
        assert "R" not in vars(matrix)
        assert matrix.R is matrix.R


# Three hidden layers give six band products, so both lanes of the build get work.
TWO_LANE_CASES = {
    "three_hidden_layers": lambda: glass.density_matrix(three_layer_records(), 0.8),
    "layer_zero_record_reaching_last_column": lambda: glass.density_matrix(
        layer_zero_records(), 0.2
    ),
    "from_dense": lambda: from_dense(np.random.default_rng(7).random((6, 6))),
}


class TestTwoLaneBuild:
    @pytest.mark.parametrize("case", TWO_LANE_CASES)
    def test_equals_the_serial_build_bitwise(self, case):
        matrix = TWO_LANE_CASES[case]()
        threads = threading.active_count()
        built = matrix.R
        assert threading.active_count() == threads
        assert built.tobytes() == reference_band_density(matrix).tobytes()
        assert matrix.R is built

    @pytest.mark.parametrize("failing", ["worker", "calling"])
    def test_a_lane_error_is_raised_and_leaves_no_thread(self, monkeypatch, failing):
        matrix = TWO_LANE_CASES["three_hidden_layers"]()
        matmul, calling = np.matmul, threading.current_thread()

        def failing_matmul(a, b, out=None):
            if (threading.current_thread() is calling) == (failing == "calling"):
                raise FloatingPointError(f"{failing} lane")
            return matmul(a, b, out=out)

        threads = threading.active_count()
        monkeypatch.setattr(np, "matmul", failing_matmul)
        with pytest.raises(FloatingPointError, match=f"{failing} lane"):
            matrix.R
        monkeypatch.undo()
        assert threading.active_count() == threads
        assert "R" not in vars(matrix)
        assert matrix.R.tobytes() == reference_band_density(matrix).tobytes()


@st.composite
def layered_records(draw):
    """Records with random layer labels and supports.

    A record's support is either the parameter prefix its layer reaches in a
    four-layer net, or any column at all, which breaks the prefix layout.
    """
    d = draw(st.integers(1, 12))
    records = []
    for k in range(draw(st.integers(1, 10))):
        layer = draw(st.integers(0, 3))
        end = draw(st.sampled_from([(layer + 1) * d // 4, d]))
        support = np.array(draw(st.lists(st.booleans(), min_size=d, max_size=d)))
        support[end:] = False
        values = draw(st.lists(st.floats(0.1, 10.0), min_size=d, max_size=d))
        signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=d, max_size=d))
        dldz = draw(st.one_of(st.just(0.0), st.floats(0.1, 3.0), st.floats(-3.0, -0.1)))
        grad_y = np.where(support, np.multiply(values, signs), 0.0)
        records.append(make_record(layer, k, 0, 0.0, dldz, grad_y))
    return records


@settings(max_examples=60, deadline=None)
@given(layered_records(), st.floats(0.01, 1.0), st.integers(0, 2**16))
def test_factored_density_matches_one_product(records, psi, seed):
    assert_matches_reference(records, psi, seed)


class TestDensityDiag:
    def test_zero(self):
        assert np.array_equal(
            glass.density_diag(from_dense(np.zeros((3, 3)))).rho, np.zeros(3)
        )

    def test_identity(self):
        assert np.array_equal(glass.density_diag(from_dense(np.eye(4))).rho, np.ones(4))

    def test_random_matches_indexing(self):
        r_mat = np.random.default_rng(0).random((5, 5))
        rho = glass.density_diag(from_dense(r_mat)).rho
        assert all(rho[i] == r_mat[i, i] for i in range(5))


class TestVariationBound:
    def test_zero_delta(self):
        matrix = from_dense(np.random.default_rng(1).random((4, 4)))
        assert np.array_equal(glass.variation_bound(matrix, np.zeros(4)), np.zeros(4))

    def test_homogeneous_degree_one(self):
        matrix = from_dense(np.random.default_rng(2).random((4, 4)))
        delta = np.random.default_rng(3).standard_normal(4)
        assert np.allclose(
            glass.variation_bound(matrix, 3.0 * delta),
            3.0 * glass.variation_bound(matrix, delta),
            rtol=1e-12,
        )

    def test_dimension_mismatch(self):
        matrix = from_dense(np.zeros((4, 4)))
        with pytest.raises(ConfigError):
            glass.variation_bound(matrix, np.zeros(5))


class TestLossIncreaseBound:
    def test_zero_density(self):
        assert glass.loss_increase_bound(np.zeros(4), np.ones(4)) == 0.0

    def test_homogeneous_degree_three_halves(self):
        rng = np.random.default_rng(4)
        rho, delta = rng.random(6), rng.standard_normal(6)
        assert glass.loss_increase_bound(rho, 2.0 * delta) == pytest.approx(
            2.0**1.5 * glass.loss_increase_bound(rho, delta), rel=1e-12
        )

    def test_terms_sum_vs_aggregate_1d(self):
        # In one dimension the per-coordinate and aggregate forms coincide.
        rho, delta = np.array([1.0]), np.array([1.0])
        terms = glass.loss_increase_bound_terms(rho, delta)
        assert terms.sum() == pytest.approx(glass.loss_increase_bound(rho, delta), rel=1e-15)
        assert terms.sum() == pytest.approx(math.sqrt(2 / (3 * math.pi)), rel=1e-15)

    def test_negative_density_rejected(self):
        with pytest.raises(ConfigError):
            glass.loss_increase_bound(np.array([-1.0]), np.ones(1))
        with pytest.raises(ConfigError):
            glass.loss_increase_bound_terms(np.array([-1.0]), np.ones(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_density_rejected(self, bad):
        with pytest.raises(ConfigError):
            glass.loss_increase_bound(np.array([1.0, bad]), np.ones(2))
        with pytest.raises(ConfigError):
            glass.loss_increase_bound_terms(np.array([bad]), np.ones(1))

    def test_accepts_diag_wrapper(self):
        assert glass.loss_increase_bound(GlassDensityDiag(np.zeros(2)), np.ones(2)) == 0.0

    def test_against_walk_oracle_1d(self):
        # Reflected-walk simulation of the 1D bound: ratio within 2%.
        sim = oracles.SyntheticGlass1D(rho=1.0, lam=1.0, n_kinks=1000, trials=40_000, seed=11)
        result = oracles.glass_walk_expectation(sim)
        bound = glass.loss_increase_bound(np.ones(1), np.ones(1))
        assert result.mean_abs / bound == pytest.approx(1.0, abs=0.02)


class TestKernels:
    def test_rademacher_kernel_is_identity_exactly(self):
        for omega2 in (0.0, 0.37, 1.0, 4.0):
            kspec = glass.make_kernel("rademacher", omega2)
            assert glass.optimal_kernel_weight(1.0, kspec) == 1.0
            assert glass.optimal_kernel_weight(-1.0, kspec) == -1.0

    def test_omega_zero_kernel_is_inverse(self):
        kspec = glass.make_kernel("normal", 0.0)
        assert kspec.c == 1.0
        assert glass.optimal_kernel_weight(2.0, kspec) == pytest.approx(0.5, rel=1e-15)

    def test_normal_constant_matches_closed_form(self):
        # Independent oracle: E[x^2/(x^2+1)] = 1 - sqrt(pi/2) e^(1/2) erfc(1/sqrt 2).
        closed = 1.0 - math.sqrt(math.pi / 2) * math.exp(0.5) * math.erfc(1 / math.sqrt(2))
        assert glass.kernel_constant("normal", 1.0) == pytest.approx(closed, rel=1e-8)

    def test_rademacher_constants(self):
        assert glass.kernel_constant("rademacher", 1.0) == 0.5
        assert glass.kernel_constant("rademacher", 0.0) == 1.0

    def test_update_probability(self):
        assert glass.update_probability("normal", 1.0) == pytest.approx(0.3173, abs=2e-4)
        assert glass.update_probability("normal", 0.0) == 1.0
        assert glass.update_probability("rademacher", 0.5) == 1.0
        assert glass.update_probability("rademacher", 2.0) == 0.0

    def test_vector_omega2(self):
        c = glass.kernel_constant("rademacher", np.array([0.0, 1.0, 3.0]))
        assert np.allclose(c, [1.0, 0.5, 0.25], rtol=1e-15)

    @pytest.mark.parametrize("density", ["normal", "rademacher"])
    def test_weight_computed_in_out_is_the_kernel_formula(self, density):
        x = np.random.default_rng(0).standard_normal((7, 5))
        kspec = glass.make_kernel(density, np.linspace(0.2, 1.0, 5))
        want = x.copy() if density == "rademacher" else x / ((x * x + kspec.omega2) * kspec.c)
        out = np.empty_like(x)
        assert glass.optimal_kernel_weight(x, kspec, out=out) is out
        assert out.tobytes() == want.tobytes()
        assert glass.optimal_kernel_weight(x, kspec).tobytes() == want.tobytes()

    def test_restricted_kernel_zero_below_threshold(self):
        kspec = glass.make_kernel("normal", 1.0, restrict=1.0)
        assert glass.optimal_kernel_weight(0.5, kspec) == 0.0
        assert glass.optimal_kernel_weight(1.5, kspec) != 0.0

    def test_unknown_density_rejected(self):
        with pytest.raises(ConfigError):
            glass.kernel_constant("cauchy", 1.0)

    @pytest.mark.parametrize("density", ["rademacher", "normal"])
    def test_non_finite_omega2_rejected(self, density):
        with pytest.raises(ConfigError):
            glass.kernel_constant(density, math.nan)
        with pytest.raises(ConfigError):
            glass.kernel_constant(density, np.array([1.0, math.inf]))

    def test_restriction_rejecting_everything(self):
        with pytest.raises(ConfigError):
            glass.kernel_constant("rademacher", 1.0, restrict=2.0)
        with pytest.raises(ConfigError):
            glass.kernel_constant("rademacher", 0.0, restrict=2.0)
        with pytest.raises(ConfigError):
            glass.kernel_constant("normal", 1.0, restrict=40.0)


class TestNormalKernelConstant:
    """kernel_constant for the normal density, against oracles that share none of its code."""

    @pytest.mark.parametrize("omega2", [1e-12, 1e-8, 1e-4, 0.2, 1.0, 30.0])
    def test_unrestricted_matches_closed_form(self, omega2):
        # E[x^2/(x^2+w)] = 1 - sqrt(pi w/2) e^(w/2) erfc(sqrt(w/2)) for standard normal x.
        half = omega2 / 2.0
        closed = 1.0 - math.sqrt(math.pi * half) * math.exp(half) * math.erfc(math.sqrt(half))
        assert glass.kernel_constant("normal", omega2) == pytest.approx(closed, rel=1e-12, abs=0)

    def test_tiny_omega2_stays_below_one(self):
        # The closed form is 1 - 1.2533e-4 here; an adaptive quadrature of the
        # unsubstituted integrand returned 1.0000000095.
        assert glass.kernel_constant("normal", 1e-8) == pytest.approx(0.99987467858564, rel=1e-13)

    @pytest.mark.parametrize("restrict", [0.25, 1.0, 2.0, 5.0, 9.0])
    @pytest.mark.parametrize("omega2", [1e-4, 0.2, 1.0, 30.0])
    def test_restricted_matches_fine_grid(self, omega2, restrict):
        assert glass.kernel_constant("normal", omega2, restrict) == pytest.approx(
            fine_grid_kernel_constant(omega2, restrict), rel=1e-12, abs=0
        )

    @pytest.mark.parametrize("restrict", [0.0, 1e-9, 0.5, 1.0, 3.0, 8.0, 20.0])
    def test_constant_in_unit_interval(self, restrict):
        omega2 = np.concatenate([[5e-324], np.logspace(-300, 300, 241)])
        c = glass.kernel_constant("normal", omega2, restrict)
        assert np.all(c > 0.0) and np.all(c <= 1.0)
        assert np.all(np.diff(c) <= 0.0)  # c falls as omega2 grows

    @pytest.mark.parametrize("restrict", [0.0, 1.0])
    @pytest.mark.parametrize("density", ["rademacher", "normal"])
    def test_vector_equals_scalar_calls(self, density, restrict):
        # The 171 nonzero values span three blocks of the vectorized rule.
        omega2 = np.random.default_rng(0).lognormal(0.0, 3.0, size=200)
        omega2[::7] = 0.0
        c = glass.kernel_constant(density, omega2, restrict)
        scalars = [glass.kernel_constant(density, float(w), restrict) for w in omega2]
        assert all(isinstance(v, float) for v in scalars)
        assert c.tobytes() == np.array(scalars).tobytes()
        grid = glass.kernel_constant(density, omega2.reshape(10, 20), restrict)
        assert grid.shape == (10, 20) and grid.tobytes() == c.tobytes()


class TestEstimatorVariance:
    def test_rademacher_exact_estimator(self):
        kspec = glass.make_kernel("rademacher", 0.0)
        assert glass.estimator_variance(kspec, 3.0).per_sample == 0.0

    def test_rademacher_omega_one(self):
        kspec = glass.make_kernel("rademacher", 1.0)
        assert glass.estimator_variance(kspec, 2.0).per_sample == pytest.approx(4.0, rel=1e-12)

    def test_normal_matches_monte_carlo(self):
        # Scalar setting: y = m x + m z with z carrying the off-diagonal mass.
        kspec = glass.make_kernel("normal", 1.0)
        rng = np.random.default_rng(8)
        n = 200_000
        x = rng.standard_normal(n)
        noise = rng.standard_normal(n)
        samples = glass.optimal_kernel_weight(x, kspec) * (x + noise)
        assert samples.var() / glass.estimator_variance(kspec, 1.0).per_sample == pytest.approx(
            1.0, abs=0.02
        )

    def test_restricted_reports_per_draw(self):
        kspec = glass.make_kernel("normal", 1.0, restrict=1.0)
        result = glass.estimator_variance(kspec, 1.0)
        assert result.update_probability == pytest.approx(0.31731, abs=1e-4)
        assert result.per_draw == pytest.approx(
            result.per_sample / result.update_probability, rel=1e-12
        )


@pytest.mark.parametrize(
    "shape", [1, 7, (3, 5), (2, glass._SIGN_BLOCK + 3), 33, (1400, 100), (4, 64), 100_003]
)
def test_rademacher_signs_equal_a_fresh_draw_and_cast(shape):
    # Odd row lengths end mid-word. (2, _SIGN_BLOCK + 3) has rows longer than
    # a block, (1400, 100) crosses two row-block boundaries, and a 100_003
    # row is one long row.
    fresh, shared = np.random.default_rng(4), np.random.default_rng(4)
    expected = reference_rademacher_signs(fresh, shape)
    signs = glass.rademacher_signs(shared, shape)
    assert signs.dtype == np.float64 and signs.tobytes() == expected.tobytes()
    assert shared.random() == fresh.random()  # the draw consumed the same stream


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 5)])
def test_rademacher_signs_of_no_elements_read_nothing(shape):
    # The frozen reference too: neither draw may read from its generator.
    rng, ref, untouched = (np.random.default_rng(2) for _ in range(3))
    signs, expected = glass.rademacher_signs(rng, shape), reference_rademacher_signs(ref, shape)
    assert signs.shape == expected.shape == shape and signs.dtype == np.float64
    out = np.empty(shape)
    assert glass.rademacher_signs(rng, shape, out=out) is out
    assert rng.random() == ref.random() == untouched.random()


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_rademacher_signs_rows_equal_row_draws(m, n, seed):
    whole, rows = np.random.default_rng(seed), np.random.default_rng(seed)
    signs = glass.rademacher_signs(whole, (m, n))
    one_by_one = np.stack([glass.rademacher_signs(rows, n) for _ in range(m)])
    assert signs.tobytes() == one_by_one.tobytes()
    assert whole.random() == rows.random()


def test_rademacher_signs_into_out_allocate_no_second_array():
    out = np.empty((2000, 500))  # 8 MB
    rng = np.random.default_rng(0)
    glass.rademacher_signs(rng, out.shape, out=out)  # warm
    tracemalloc.start()
    try:
        returned = glass.rademacher_signs(rng, out.shape, out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert returned is out
    assert peak <= 0.25e6  # one block's bits and packed bytes, about 0.07 MB


@pytest.mark.parametrize(
    "out", [np.empty((3, 4)), np.empty((4, 5), dtype=np.float32), np.empty((4, 10))[:, ::2]]
)
def test_rademacher_signs_reject_an_unfit_out(out):
    with pytest.raises(ValueError, match="C-contiguous float64 array of shape"):
        glass.rademacher_signs(np.random.default_rng(0), (4, 5), out=out)


@pytest.mark.parametrize("shape", [1_000_000, (1000, 1000)])
def test_rademacher_signs_are_balanced_and_uncorrelated(shape):
    # Over 1e6 fair independent signs the mean and the lag-1 product mean each
    # have standard deviation 1e-3. The (1000, 1000) draw puts row ends
    # (mid-word, n = 1000) inside the flattened sequence.
    s = glass.rademacher_signs(np.random.default_rng(11), shape).ravel()
    assert set(np.unique(s)) == {-1.0, 1.0}
    assert abs(s.mean()) < 5.0 / math.sqrt(s.size)
    assert abs(np.mean(s[1:] * s[:-1])) < 5.0 / math.sqrt(s.size - 1)


class TestMeasureVariations:
    def test_constant_gradient_zero(self):
        meas = glass.measure_variations(lambda _: np.ones(4), np.zeros(4), 0.1, 16, 0)
        assert np.array_equal(meas.v, np.zeros(4))

    def test_quadratic_closed_form(self):
        rng = np.random.default_rng(5)
        h_mat = rng.standard_normal((20, 20))
        h_mat = (h_mat + h_mat.T) / 2
        lam, n = 0.05, 400
        meas = glass.measure_variations(lambda th: h_mat @ th, np.zeros(20), lam, n, seed=6)
        expected = oracles.quadratic_powerlaw_oracle(h_mat, lam)
        # within 3 standard errors of the Rademacher closed form, per coordinate
        spread = np.sqrt(2.0 / n) * expected  # variance of gamma^2 ~ 2 E[gamma^2]^2
        assert np.all(np.abs(meas.v - expected) < 3.2 * spread + 1e-12)

    def test_deterministic_given_seed(self):
        grad_fn = lambda th: np.tanh(th)  # noqa: E731
        mu = np.linspace(-1, 1, 5)
        a = glass.measure_variations(grad_fn, mu, 0.1, 8, 7)
        b = glass.measure_variations(grad_fn, mu, 0.1, 8, 7)
        assert np.array_equal(a.v, b.v)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_variations_raise(self):
        # A finite gradient change of 1e200 overflows its square.
        with pytest.raises(NumericsError, match=r"^gradient variations overflowed at lam = 0.5$"):
            glass.measure_variations(lambda th: 1e200 * th, np.zeros(3), 0.5, 2, 0)

    def test_invalid_args(self):
        with pytest.raises(ConfigError):
            glass.measure_variations(lambda t: t, np.zeros(2), 0.0, 4, 0)
        with pytest.raises(ConfigError):
            glass.measure_variations(lambda t: t, np.zeros(2), 0.1, 0, 0)


class TestPowerLaw:
    def _meas(self, v, lam):
        return glass.GradientVariationMeasurement(lam, np.asarray(v, dtype=float), 8)

    def test_quadratic_ratio_gives_two(self):
        v = np.array([0.5, 1.0, 2.0])
        report = glass.power_law(
            self._meas(v, 0.1), self._meas(4 * v, 0.2), {"all": np.arange(3)}
        )
        assert report.exponent("all") == pytest.approx(2.0, abs=1e-12)

    def test_glass_ratio_gives_one(self):
        v = np.array([0.5, 1.0, 2.0])
        report = glass.power_law(
            self._meas(v, 0.1), self._meas(2 * v, 0.2), {"all": np.arange(3)}
        )
        assert report.exponent("all") == pytest.approx(1.0, abs=1e-12)

    def test_zero_sum_flagged_not_fatal(self):
        report = glass.power_law(
            self._meas([0.0, 1.0], 0.1),
            self._meas([0.0, 2.0], 0.2),
            {"dead": np.array([0]), "live": np.array([1])},
        )
        assert report.undefined_partitions == ("dead",)
        assert math.isnan(report.exponent("dead"))
        assert report.exponent("live") == pytest.approx(1.0)

    def test_partitions_must_cover_and_be_disjoint(self):
        with pytest.raises(ConfigError):
            glass.power_law(
                self._meas([1.0, 1.0], 0.1), self._meas([2.0, 2.0], 0.2), {"a": np.array([0])}
            )
        with pytest.raises(ConfigError):
            glass.power_law(
                self._meas([1.0, 1.0], 0.1),
                self._meas([2.0, 2.0], 0.2),
                {"a": np.array([0, 1]), "b": np.array([1])},
            )

    def test_no_partitions_rejected(self):
        with pytest.raises(ConfigError, match="no partitions"):
            glass.power_law(self._meas([1.0], 0.1), self._meas([2.0], 0.2), {})

    def test_scale_pairing_enforced(self):
        with pytest.raises(ConfigError):
            glass.power_law(
                self._meas([1.0], 0.1), self._meas([2.0], 0.3), {"all": np.array([0])}
            )


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.0, 1e3), min_size=1, max_size=8),
    st.floats(1e-3, 1e2),
    st.floats(0.1, 4.0),
)
def test_loss_bound_monotone_and_scaling(rho_list, delta_scale, factor):
    rho = np.array(rho_list)
    delta = np.full(rho.shape, delta_scale)
    base = glass.loss_increase_bound(rho, delta)
    scaled = glass.loss_increase_bound(rho, factor * delta)
    assert scaled == pytest.approx(factor**1.5 * base, rel=1e-9, abs=1e-12)
