"""Acceptance suite: one test per criterion, each printing its measured values.

Run with `pytest tests/test_acceptance.py -v -s` for the full pass/fail table.
Every tolerance is pinned here; Monte-Carlo checks use fixed seeds so the
suite is deterministic end to end.
"""

import math

import numpy as np
import pytest

from fd_oracles import fd_loss_gradient, random_model_and_batch
from glassopt import glass, harness, netkit, oracles
from glassopt.alice import (
    Alice,
    AliceConfig,
    TopographyState,
    apply_step,
    naq_exactness_check,
    reference_adam,
    reference_sgdm,
)
from glassopt.harness import DataParams, ExperimentConfig, make_classification_batch
from glassopt.netkit import Batch, ModelSpec


def report(name, **values):
    rendered = "  ".join(f"{key}={value:.6g}" for key, value in values.items())
    print(f"\n[{name}] {rendered}")


def test_c01_gradient_matches_central_differences():
    """50 random (spec, params, batch) triples, rel err < 1e-6 at smooth points."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(50):
        widths = (
            int(rng.integers(2, 5)),
            int(rng.integers(3, 7)),
            int(rng.integers(3, 7)),
            int(rng.integers(2, 5)),
        )
        loss_kind = "mse" if trial % 2 == 0 else "xent"
        spec, params, batch = random_model_and_batch(
            int(rng.integers(0, 10_000)), widths=widths, loss=loss_kind, n=5
        )
        _, grad = netkit.gradient(spec, params, batch)
        fd, smooth = fd_loss_gradient(spec, params, batch)
        assert smooth.any()
        denom = np.abs(grad[smooth]).max()
        assert denom > 0.0
        rel = np.abs(fd[smooth] - grad[smooth]).max() / denom
        worst = max(worst, rel)
    report("C1 gradient vs central differences", worst_rel_err=worst)
    assert worst < 1e-6


def test_c02_power_law_probe():
    """Quadratic p = 2 +- 0.05; dense glass p = 1 +- 0.15; trained ReLU MLP layers."""
    # pure quadratic synthetic loss
    rng = np.random.default_rng(1)
    h_matrix = rng.standard_normal((64, 64))
    h_matrix = (h_matrix + h_matrix.T) / 2
    grad_quad = lambda th: h_matrix @ th  # noqa: E731
    m1 = glass.measure_variations(grad_quad, np.zeros(64), 0.01, 64, seed=2)
    m2 = glass.measure_variations(grad_quad, np.zeros(64), 0.02, 64, seed=2)
    p_quad = glass.power_law(m1, m2, {"all": np.arange(64)}).exponent("all")
    assert p_quad == pytest.approx(2.0, abs=0.05)

    # dense-glass synthetic: piecewise-constant gradient staircase
    field = oracles.StaircaseGradientField.random(8192, 512, span=1.0, magnitude=0.1, seed=3)
    g1 = glass.measure_variations(field.grad, np.zeros(8192), 0.02, 48, seed=4)
    g2 = glass.measure_variations(field.grad, np.zeros(8192), 0.04, 48, seed=4)
    p_glass = glass.power_law(g1, g2, {"all": np.arange(8192)}).exponent("all")
    assert p_glass == pytest.approx(1.0, abs=0.15)

    # 4-hidden-layer ReLU MLP, d ~ 1e4, probed after 200 warm-up steps
    spec = ModelSpec((20, 50, 50, 50, 50, 10), "xent")
    assert 5_000 < spec.param_count < 20_000
    data = make_classification_batch(DataParams(), 20, 10, seed=0)
    mlp_report = harness.powerlaw_experiment(
        spec, data, lam=0.002, n_samples=128, seed=0, warmup_steps=200
    )
    exponents = {e.name: e.p for e in mlp_report.entries}
    hidden = [exponents[f"layer_{i}"] for i in range(1, 5)]
    final = exponents["layer_5"]
    report(
        "C2 power law", p_quadratic=p_quad, p_dense_glass=p_glass,
        p_hidden_min=min(hidden), p_hidden_max=max(hidden), p_final=final,
    )
    assert all(1.05 <= p <= 1.95 for p in hidden)
    assert final >= 1.9


def test_c03_diagonal_estimator():
    """Bias within 3 SE at 1e4; Rademacher variance <= normal at 1e5; closed form 2% at 1e6."""
    worst_z = 0.0
    for seed in range(20):
        tm = oracles.TestMatrix.random_diag_dominant(200, seed=seed)
        kspec = glass.make_kernel("rademacher", tm.dominance)
        res = oracles.mc_aggregate_bias(tm, "rademacher", kspec, 10_000, seed=1000 + seed)
        worst_z = max(worst_z, abs(res.aggregate_bias_z))
    assert worst_z < 3.0

    worst_margin = -math.inf
    for seed in range(20):
        tm = oracles.TestMatrix.random_diag_dominant(200, seed=seed)
        res_rad = oracles.mc_estimator(
            tm, "rademacher", glass.make_kernel("rademacher", tm.dominance), 100_000,
            seed=2000 + seed,
        )
        res_nrm = oracles.mc_estimator(
            tm, "normal", glass.make_kernel("normal", tm.dominance), 100_000,
            seed=2000 + seed,
        )
        rad, nrm = float(np.mean(res_rad.variance)), float(np.mean(res_nrm.variance))
        worst_margin = max(worst_margin, rad / nrm)
        assert rad <= nrm

    tm = oracles.TestMatrix.random_diag_dominant(200, seed=0)
    kspec = glass.make_kernel("rademacher", tm.dominance)
    res = oracles.mc_estimator(tm, "rademacher", kspec, 1_000_000, seed=77)
    closed = glass.estimator_variance(kspec, tm.diagonal).per_sample
    ratio = float(np.mean(res.variance) / np.mean(closed))
    report(
        "C3 diagonal estimator", worst_bias_z=worst_z,
        worst_rad_over_normal=worst_margin, variance_ratio_1e6=ratio,
    )
    assert ratio == pytest.approx(1.0, abs=0.02)


def test_c04_restricted_updates():
    """Update probability 0.3173 +- 0.002; restricted beats unrestricted; constants reported."""
    prob_closed = glass.update_probability("normal", 1.0)
    rng = np.random.default_rng(5)
    draws = rng.standard_normal(1_000_000)
    prob_mc = float(np.mean(np.abs(draws) >= 1.0))
    assert prob_closed == pytest.approx(0.3173, abs=0.002)
    assert prob_mc == pytest.approx(0.3173, abs=0.002)

    k_unres = glass.make_kernel("normal", 1.0)
    k_res = glass.make_kernel("normal", 1.0, restrict=1.0)
    v_unres = glass.estimator_variance(k_unres, 1.0)
    v_res = glass.estimator_variance(k_res, 1.0)
    assert v_res.per_draw < v_unres.per_draw

    # empirical side of the same comparison (scalar setting, omega^2 = 1)
    x = rng.standard_normal(400_000)
    noise = rng.standard_normal(400_000)
    y = x + noise
    samples_unres = glass.optimal_kernel_weight(x, k_unres) * y
    accepted = np.abs(x) >= 1.0
    samples_res = (glass.optimal_kernel_weight(x, k_res) * y)[accepted]
    empirical_unres = float(samples_unres.var())
    empirical_res_eff = float(samples_res.var() / accepted.mean())
    assert empirical_res_eff < empirical_unres

    # Nominal round-number constants next to the quadrature ground truth.
    # Mismatches are flagged in the output but do not fail the suite; only the
    # update probability is hard-asserted above.
    nominal = {
        "kernel_coeff_unrestricted": (1.0 / k_unres.c, 2.0),
        "variance_unrestricted": (v_unres.per_sample, 3.0),
        "kernel_coeff_restricted": (1.0 / k_res.c, 1.40),
        "effective_variance_restricted": (v_res.per_draw, 2.60),
    }
    for name, (computed, stated) in nominal.items():
        flag = "MATCH" if abs(computed - stated) < 0.05 * abs(stated) else "DISCREPANT"
        print(f"\n[C4 constants] {name}: quadrature={computed:.4f} nominal={stated} [{flag}]")
    report(
        "C4 restricted updates", update_probability=prob_mc,
        restricted_effective=empirical_res_eff, unrestricted=empirical_unres,
    )


def test_c05_reflected_walk_bound():
    """E|dL| and Var within 2% of the closed forms at n=1000, 1e5 trials."""
    sim = oracles.SyntheticGlass1D(rho=1.0, lam=1.0, n_kinks=1000, trials=100_000, seed=6)
    res = oracles.glass_walk_expectation(sim)
    mean_ratio = res.mean_abs / res.predicted_mean_abs
    var_ratio = res.variance / res.predicted_variance
    report("C5 reflected walk", mean_ratio=mean_ratio, var_ratio=var_ratio)
    assert 0.98 <= mean_ratio <= 1.02
    assert 0.98 <= var_ratio <= 1.02


def test_c06_step_optimality():
    """Alice's step matches golden-section argmin within 1e-6 over a 1e3 grid."""
    rng = np.random.default_rng(7)
    eps = 1e-8
    # Fixed limits [0, inf] lift the bounds: |delta| is the closed form |g| / h_bar.
    cfg = AliceConfig(eps=eps, lam_min=0.0, lam_max=math.inf, limit_method="fixed")

    def step(g, h, rho):
        state = TopographyState.fresh(np.zeros(np.size(g)))
        state.g[:], state.h_abs[:], state.rho[:] = g, h, rho
        return apply_step(state, cfg)

    draws = [
        (rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.1, 10.0),
         rng.uniform(0.1, 10.0))
        for _ in range(1000)
    ]
    closed = np.abs(step(*np.array(draws).T).delta)
    worst = 0.0
    for magnitude, (g, h, rho) in zip(closed.tolist(), draws):
        ref = oracles.step_objective_argmin(g, h, rho)
        worst = max(worst, abs(magnitude - ref) / ref)
    # degenerate rows collapse exactly
    h_vals = rng.uniform(0.1, 10.0, size=100)
    assert np.array_equal(step(np.ones(100), h_vals, 0.0).h_bar, h_vals + eps)
    h_zero = step(np.ones(100), 0.0, rng.uniform(0.1, 10.0, size=100))
    assert np.array_equal(h_zero.h_bar, 2.0 * h_zero.h_glass + eps)
    report("C6 step optimality", worst_rel_err=worst)
    assert worst < 1e-6


def test_c07_naq_exactness():
    """Error equals beta1^s gamma0 within 1e-10 relative; wrong phi fails loudly."""
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        d = 50
        basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
        hidden = basis @ np.diag(rng.uniform(0.5, 2.5, d)) @ basis.T
        h_bar = np.abs(np.diag(hidden)) + 1.0
        g_star0 = rng.standard_normal(d)
        gamma0 = 0.1 * rng.standard_normal(d)
        for beta1 in (0.9, 0.95, 0.99):
            rep = naq_exactness_check(hidden, g_star0, gamma0, beta1, h_bar, 50)
            assert not rep.diverged
            worst = max(worst, rep.max_error_rel, float(np.max(rep.prediction_rel)))
    rng = np.random.default_rng(200)
    basis, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    hidden = basis @ np.diag(rng.uniform(0.5, 2.5, 50)) @ basis.T
    h_bar = np.abs(np.diag(hidden)) + 1.0
    control = naq_exactness_check(
        hidden, rng.standard_normal(50), 0.1 * rng.standard_normal(50), 0.9, h_bar, 50,
        phi=0.05,
    )
    report("C7 accelerated exactness", worst_rel=worst, control_residual=control.max_error_rel)
    assert worst < 1e-10
    assert control.max_error_rel > 1e-3


def test_c08_replication():
    """Pinned Alice matches reference Adam and SGD-M within 1e-12 per step, 100 steps."""
    rng = np.random.default_rng(8)
    spec = ModelSpec((6, 16, 4))
    params = netkit.build_model(spec, 13)
    teacher = netkit.build_model(spec, 14)
    inputs = rng.standard_normal((64, 6))
    targets = netkit.forward(spec, teacher, inputs)[1][-1]
    batch = Batch(inputs, targets)
    grad_fn = lambda th: netkit.gradient(spec, th, batch)[1]  # noqa: E731
    lr = 1e-3

    adam_traj = reference_adam(params, grad_fn, lr, 0.9, 0.999, 1e-8, n_steps=100)
    cfg = AliceConfig(
        lam=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, phi=1.0, omega=1.0,
        lam_min=lr, lam_max=lr, limit_method="adam", quick_steps=0,
    )
    opt = Alice(params, cfg, seed=1)
    worst_adam = 0.0
    for t in range(100):
        opt.step(grad_fn)
        worst_adam = max(worst_adam, float(np.abs(opt.params - adam_traj[t + 1]).max()))
    assert worst_adam <= 1e-12

    sgdm_traj = reference_sgdm(params, grad_fn, lr, 0.9, n_steps=100)
    cfg = AliceConfig(
        lam=1e-3, beta1=0.9, phi=1.0, omega=1.0,
        lam_min=lr, lam_max=lr, limit_method="sgdm", quick_steps=0,
    )
    opt = Alice(params, cfg, seed=2)
    worst_sgdm = 0.0
    for t in range(100):
        opt.step(grad_fn)
        worst_sgdm = max(worst_sgdm, float(np.abs(opt.params - sgdm_traj[t + 1]).max()))
    report("C8 replication", max_adam_diff=worst_adam, max_sgdm_diff=worst_sgdm)
    assert worst_sgdm <= 1e-12


def test_c09_underdetermined_least_squares():
    """Full diagonal-QN step overshoots and the 0.1-damped step descends, 20/20 seeds."""
    overshoots = descents = 0
    for seed in range(20):
        rep = oracles.underdetermined_ls(seed)
        overshoots += rep.loss_full_step > rep.loss_initial
        descents += rep.loss_damped_step < rep.loss_initial
    report("C9 underdetermined LS", overshoots=overshoots, descents=descents)
    assert overshoots == 20
    assert descents == 20


def test_c10_density_matrix_bound():
    """Empirical variations within R|delta| for >= 99% of coordinates; large steps break it."""
    scenario = oracles.build_uniform_preactivation_net(n_in=120, n_hidden=30, psi=0.05, seed=0)
    small = oracles.mc_variation(scenario, 5e-5, 10_000, seed=1)
    large = oracles.mc_variation(scenario, 0.5, 200, seed=2)
    report(
        "C10 density bound", coverage=small.fraction_within,
        precondition_violations=small.precondition_violation_fraction,
        negative_control_coverage=large.fraction_within,
    )
    assert small.fraction_within >= 0.99
    assert small.precondition_violation_fraction < 0.01
    assert large.fraction_within < 0.99


def test_c11_quick_step_accounting():
    """quick_steps = 3 spends exactly 6 gradients per 4 steps."""
    spec, params, batch = random_model_and_batch(0, widths=(4, 8, 2), n=16)
    grad_fn = lambda th: netkit.gradient(spec, th, batch)[1]  # noqa: E731
    opt = Alice(params, AliceConfig(lam=1e-3, quick_steps=3), seed=0)
    for _ in range(12):  # three full cycles
        opt.step(grad_fn)
    report("C11 quick steps", grad_evals=opt.n_grad_evals)
    assert opt.n_grad_evals == 18  # 6 per 4 steps, exact integer


def _strip_wall_clock(csv_text: str) -> str:
    lines = csv_text.splitlines()
    return "\n".join(",".join(line.split(",")[:-1]) for line in lines)


def test_c12_determinism(tmp_path):
    """A (config, seed) rerun reproduces every CSV byte (wall-time column aside)."""
    cfg_text = None
    outputs = []
    for run in ("first", "second"):
        cfg = ExperimentConfig(
            name="det",
            task="synthetic-classification",
            seeds=(0, 1),
            steps=6,
            batch_size=16,
            model=ModelSpec((5, 8, 8, 3), "xent"),
            data=DataParams(samples=60, classes=3),
            alice=AliceConfig(lam=1e-3, lam_max=0.01, quick_steps=1),
        )
        if cfg_text is None:
            cfg_text = harness.serialize_config(cfg)
        else:
            assert harness.serialize_config(cfg) == cfg_text
        root = tmp_path / run
        harness.run_experiment(cfg, root)
        base = root / "det"
        outputs.append(
            {
                "summary": (base / "summary.csv").read_bytes(),
                "manifest": (base / "manifest.txt").read_bytes(),
                "log0": _strip_wall_clock((base / "seed_0" / "train_log.csv").read_text()),
                "log1": _strip_wall_clock((base / "seed_1" / "train_log.csv").read_text()),
            }
        )
    assert outputs[0]["summary"] == outputs[1]["summary"]
    assert outputs[0]["manifest"] == outputs[1]["manifest"]
    assert outputs[0]["log0"] == outputs[1]["log0"]
    assert outputs[0]["log1"] == outputs[1]["log1"]

    probe_csvs = []
    for run in ("p1", "p2"):
        cfg = ExperimentConfig(
            name="detprobe",
            task="powerlaw-probe",
            seeds=(3,),
            batch_size=32,
            model=ModelSpec((4, 8, 8, 3), "xent"),
            data=DataParams(samples=80, classes=3),
        )
        cfg.probe.samples = 8
        cfg.probe.warmup_steps = 5
        root = tmp_path / run
        harness.run_experiment(cfg, root)
        probe_csvs.append((root / "detprobe" / "seed_3" / "powerlaw.csv").read_bytes())
    report("C12 determinism", byte_identical=1.0)
    assert probe_csvs[0] == probe_csvs[1]
