"""Acceptance suite: one test per criterion, each printing its measured values.

Run with `pytest tests/test_acceptance.py -v -s` for the full pass/fail table.
The pass rules of C3-C7, C9, C10 and C11 live in harness's rule functions,
which verify runs too: those tests pin only their seeds and counts, and assert
that every row the rules return passed. C1's rule and C2's dense-glass rule
live in fd_oracles; the other criteria pin their tolerances here. Monte-Carlo checks use fixed seeds, so the suite is deterministic end
to end. test_c02, test_c12 and test_train_blobs_seed_0 also hold their output
numbers to tests/pins.json (see pins.py).
"""

from pathlib import Path

import numpy as np
import pytest

import pins
from fd_oracles import central_difference_check, random_model_and_batch, staircase_exponent_check
from glassopt import cli, glass, harness, netkit, oracles
from glassopt.alice import Alice, AliceConfig, adam_iterates, sgdm_iterates
from glassopt.harness import DataParams, ExperimentConfig, ProbeParams, make_classification_batch
from glassopt.netkit import Batch, ModelSpec


def report(name, **values):
    rendered = "  ".join(f"{key}={value:.6g}" for key, value in values.items())
    print(f"\n[{name}] {rendered}")


def check(name, rows):
    """Print a criterion's rows and assert that every one passed."""
    print(f"\n[{name}]")
    cli.print_rows(rows)
    assert [r for r in rows if not r.passed] == []


def test_c01_gradient_matches_central_differences():
    """50 random (spec, params, batch) triples, rel err < 1e-6 at their (over half) smooth points."""
    rng = np.random.default_rng(0)
    checks = []
    for trial in range(50):
        widths = tuple(int(rng.integers(lo, hi)) for lo, hi in ((2, 5), (3, 7), (3, 7), (2, 5)))
        loss_kind = "mse" if trial % 2 == 0 else "xent"
        spec, params, batch = random_model_and_batch(int(rng.integers(0, 10_000)), widths=widths,
                                                     loss=loss_kind, n=5)
        checks.append(central_difference_check(spec, params, batch))
    report("C1 gradient vs central differences", worst_rel_err=max(rel for rel, _ in checks))
    assert all(passed for _, passed in checks)


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
    p_glass, glass_passed = staircase_exponent_check(8192, field_seed=3, samples=48, probe_seed=4)
    assert glass_passed

    # 4-hidden-layer ReLU MLP, d ~ 1e4, probed after 200 warm-up steps
    spec = ModelSpec((20, 50, 50, 50, 50, 10), "xent")
    assert 5_000 < spec.param_count < 20_000
    data = make_classification_batch(DataParams(), 20, 10, seed=0)
    mlp_report = harness.powerlaw_experiment(
        spec, data, ProbeParams(lam=0.002, samples=128, warmup_steps=200), 128, seed=0
    )
    # The rows probe_mlp.cfg's powerlaw.csv holds at seed 0: these are its settings.
    pins.check("probe_mlp_powerlaw_seed_0", [(e.name, e.sum_v_lambda, e.sum_v_2lambda, e.p)
                                             for e in mlp_report.entries])
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
    rows = []
    for seed in range(20):
        tm = oracles.TestMatrix.random_diag_dominant(200, seed=seed)
        k_rad = glass.make_kernel("rademacher", tm.dominance)
        bias = oracles.mc_aggregate_bias(tm, k_rad, 10_000, seed=1000 + seed)
        rows.append(harness.estimator_bias_row("rademacher", bias))
        res_rad = oracles.mc_estimator(tm, k_rad, 100_000, seed=2000 + seed)
        res_nrm = oracles.mc_estimator(
            tm, glass.make_kernel("normal", tm.dominance), 100_000, seed=2000 + seed
        )
        rows.append(harness.estimator_variance_order_row(res_rad, res_nrm))

    tm = oracles.TestMatrix.random_diag_dominant(200, seed=0)
    kspec = glass.make_kernel("rademacher", tm.dominance)
    res = oracles.mc_estimator(tm, kspec, 1_000_000, seed=77)
    rows.append(harness.estimator_closed_form_row(res, kspec, tm.diagonal))
    check("C3 diagonal estimator", rows)


def test_c04_restricted_updates():
    """Update probability 0.3173 +- 0.002; restricted beats unrestricted; constants reported."""
    rng = np.random.default_rng(5)
    n_prob = 1_000_000
    prob_mc = float(np.mean(np.abs(rng.standard_normal(n_prob)) >= 1.0))

    # Empirical side of the effective-variance comparison (scalar setting,
    # omega^2 = 1).
    n = 400_000
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    samples_unres = glass.optimal_kernel_weight(x, glass.make_kernel("normal", 1.0)) * y
    accepted = np.abs(x) >= 1.0
    k_res = glass.make_kernel("normal", 1.0, restrict=1.0)
    samples_res = (glass.optimal_kernel_weight(x, k_res) * y)[accepted]
    rows = harness.restricted_update_rows() + [
        harness.update_probability_row(prob_mc, n_prob),
        harness.effective_variance_row(
            float(samples_res.var() / accepted.mean()), float(samples_unres.var()), n
        ),
    ]
    check("C4 restricted updates", rows)


def test_c05_reflected_walk_bound():
    """E|dL| and Var within 2% of the closed forms at n=1000, 1e5 trials."""
    check("C5 reflected walk", harness.walk_rows("gauss", seed=6, trials=100_000))


def test_c06_step_optimality():
    """Alice's step matches golden-section argmin within 1e-6 over a 1e3 grid."""
    check("C6 step optimality", harness.step_rows(seed=7, n_argmin=1000, n_collapsed=100))


def test_c07_naq_exactness():
    """Alice's error equals beta1^s gamma0 within 1e-10 relative; phi = 1 fails loudly."""
    check("C7 accelerated exactness",
          [row for seed in range(100, 105) for row in harness.naq_rows(seed, n_steps=50)])


def _teacher_regression():
    """A 6-16-4 net, and 64 points labelled by a second net of that shape."""
    rng = np.random.default_rng(8)
    spec = ModelSpec((6, 16, 4))
    params = netkit.build_model(spec, 13)
    teacher = netkit.build_model(spec, 14)
    inputs = rng.standard_normal((64, 6))
    return spec, params, Batch(inputs, netkit.forward(spec, teacher, inputs)[1][-1])


def _noise_regression(seed):
    """A 4-8-2 net, and 32 standard normal points with standard normal targets."""
    rng = np.random.default_rng(seed)
    spec = ModelSpec((4, 8, 2))
    params = netkit.build_model(spec, seed + 1)
    targets = rng.standard_normal((32, 2))
    return spec, params, Batch(rng.standard_normal((32, 4)), targets)


@pytest.mark.parametrize(
    "net, limit_method, lr, quick_steps, alice_seed, n_steps",
    [
        (_teacher_regression, "adam", 1e-3, 0, 1, 100),
        (_teacher_regression, "sgdm", 1e-3, 0, 2, 100),
        (lambda: _noise_regression(3), "adam", 1e-3, 0, 5, 60),
        (lambda: _noise_regression(4), "sgdm", 2e-3, 2, 6, 60),
    ],
    ids=["adam-teacher", "sgdm-teacher", "adam-noise", "sgdm-noise-quick-steps"],
)
def test_c08_replication(net, limit_method, lr, quick_steps, alice_seed, n_steps):
    """Pinned Alice matches reference Adam or SGD-M within 1e-12 at every step."""
    spec, params, batch = net()
    grad_fn = lambda th: netkit.gradient(spec, th, batch)[1]  # noqa: E731
    if limit_method == "adam":
        reference = adam_iterates(params, grad_fn, lr, 0.9, 0.999, 1e-8, n_steps)
    else:
        reference = sgdm_iterates(params, grad_fn, lr, 0.9, n_steps)
    cfg = AliceConfig(
        lam=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
        lam_min=lr, lam_max=lr, limit_method=limit_method, quick_steps=quick_steps,
    )
    opt = Alice(params, cfg, seed=alice_seed)
    next(reference)  # theta_0, the shared start
    worst = 0.0
    for theta in reference:
        opt.step(grad_fn)
        worst = max(worst, float(np.abs(opt.params - theta).max()))
    report("C8 replication", max_diff=worst)
    assert worst <= 1e-12


def test_c09_underdetermined_least_squares():
    """Full diagonal-QN step overshoots and the 0.1-damped step descends, 20/20 seeds."""
    check("C9 underdetermined LS", harness.least_squares_rows(seed=0, n_seeds=20))


def test_c10_density_matrix_bound():
    """Empirical variations within R|delta| for >= 99% of coordinates; large steps break it."""
    check("C10 density bound", harness.glass_rows(seed=0, n_small=10_000, n_large=200))


def test_c11_quick_step_accounting():
    """quick_steps = 3 spends exactly 6 gradients per 4 steps."""
    check("C11 quick steps", harness.grad_eval_rows(quick_steps=3, steps=12))


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
            seeds=(0, 1),
            steps=6,
            batch_size=16,
            model=ModelSpec((5, 8, 8, 3), "xent"),
            data=DataParams(samples=60),
            alice=AliceConfig(lam=1e-3, lam_max=0.01, quick_steps=1),
        )
        if cfg_text is None:
            cfg_text = harness.serialize_config(cfg)
        else:
            assert harness.serialize_config(cfg) == cfg_text
        root = tmp_path / run
        harness.run_experiment(cfg, harness._train_one, root)
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
    pins.check("c12_summary", [line.split(",") for line in
                               outputs[0]["summary"].decode().splitlines()])
    for log in ("log0", "log1"):
        pins.check(f"c12_train_{log}", [line.split(",") for line in outputs[0][log].splitlines()])

    probe_csvs = []
    for run in ("p1", "p2"):
        cfg = ExperimentConfig(
            name="detprobe",
            seeds=(3,),
            batch_size=32,
            model=ModelSpec((4, 8, 8, 3), "xent"),
            data=DataParams(samples=80),
        )
        cfg.probe.samples = 8
        cfg.probe.warmup_steps = 5
        root = tmp_path / run
        harness.run_experiment(cfg, harness._run_powerlaw, root)
        probe_csvs.append((root / "detprobe" / "seed_3" / "powerlaw.csv").read_bytes())
    report("C12 determinism", byte_identical=1.0)
    assert probe_csvs[0] == probe_csvs[1]


def test_train_blobs_seed_0(tmp_path):
    """train_blobs.cfg at seed 0 reproduces its pinned final loss and train log."""
    cfg = harness.load_config(Path(__file__).resolve().parents[1] / "docs/configs/train_blobs.cfg")
    cfg.seeds = (0,)
    summary = harness.run_experiment(cfg, harness._train_one, tmp_path)
    pins.check("train_blobs_seed_0_final_loss", [summary.per_seed[0]])
    log = _strip_wall_clock((summary.base / "seed_0" / "train_log.csv").read_text())
    pins.check("train_blobs_seed_0_train_log", [line.split(",") for line in log.splitlines()])
