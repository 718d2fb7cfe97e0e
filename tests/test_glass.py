import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fd_oracles import random_model_and_batch
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
    return GlassDensityMatrix(np.eye(d), r_mat, np.zeros(d, dtype=int), 1.0)


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


class TestDensityFactors:
    def test_layer_zero_record_reaching_last_column(self):
        # Breaks the layer-prefix layout: the first band must cover all of R.
        records = [
            make_record(0, 0, 0, 0.0, 1.5, [0.0, 0.0, 0.0, 0.0, 2.0]),
            make_record(1, 0, 0, 0.0, -0.5, [1.0, 3.0, 0.0, 0.0, 0.0]),
            make_record(1, 1, 0, 0.0, 0.7, [0.0, 0.0, 4.0, 0.0, 0.0]),
        ]
        assert_matches_reference(records, 0.2)

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
        spec, params, batch = random_model_and_batch(4, widths=(4, 6, 6, 6, 3), n=10)
        records = netkit.relu_introspect(spec, params, batch, 0.8)
        assert {r.layer for r in records} == {0, 1, 2}
        assert_matches_reference(records, 0.8)

    def test_diag_and_bound_do_not_build_dense(self):
        matrix = glass.density_matrix(synthetic_records(), 0.3)
        glass.density_diag(matrix)
        glass.variation_bound(matrix, np.ones(matrix.dim))
        assert "R" not in vars(matrix)
        assert matrix.R is matrix.R


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

    def test_csv_round_trip_columns(self, tmp_path):
        report = glass.power_law(
            self._meas([1.0, 2.0], 0.1),
            self._meas([2.0, 8.0], 0.2),
            {"a": np.array([0]), "b": np.array([1])},
        )
        path = tmp_path / "powerlaw.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "partition,sum_v_lambda,sum_v_2lambda,p"
        assert lines[1].startswith("a,1.0,2.0,")

    def test_measurement_csv(self, tmp_path):
        meas = self._meas([0.25, 0.5], 0.1)
        path = tmp_path / "v.csv"
        meas.to_csv(path)
        assert path.read_text().splitlines() == ["index,v", "0,0.25", "1,0.5"]


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
