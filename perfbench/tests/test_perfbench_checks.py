"""Each correctness check passes on good output and reports corrupted output."""

import csv

import numpy as np
import pytest

import checks
import run
from glassopt import glass, netkit


def write_rows(path, header, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def test_exit_code():
    assert checks.check_exit(0) == []
    assert checks.check_exit(1)


def test_error_file(tmp_path):
    (tmp_path / "seed_0").mkdir()
    assert checks.check_no_error_files(tmp_path) == []
    (tmp_path / "seed_0" / "error.txt").write_text("seed 0: NumericsError\n")
    assert checks.check_no_error_files(tmp_path)


def test_grad_eval_formula_and_count():
    # train_blobs.cfg: 400 steps, quick_steps = 3, three seeds.
    assert checks.expected_alice_grad_evals(400, 3, 3) == 1800
    assert checks.expected_alice_grad_evals(5, 0, 1) == 15
    assert checks.check_grad_evals(1800, 1800) == []
    assert checks.check_grad_evals(1799, 1800)


def test_train_logs(tmp_path):
    header = ("step", "loss", "wall_ms")
    for seed in (0, 1):
        write_rows(tmp_path / f"seed_{seed}" / "train_log.csv", header,
                   [(s, 0.5, 1.0) for s in range(1, 4)])
    assert checks.check_train_logs(tmp_path, steps=3, n_seeds=2) == []
    assert checks.check_train_logs(tmp_path, steps=3, n_seeds=3)
    write_rows(tmp_path / "seed_1" / "train_log.csv", header, [(1, 0.5, 1.0), (2, "nan", 1.0),
                                                               (3, 0.5, 1.0)])
    assert checks.check_train_logs(tmp_path, steps=3, n_seeds=2)
    write_rows(tmp_path / "seed_1" / "train_log.csv", header, [(1, 0.5, 1.0)])
    assert checks.check_train_logs(tmp_path, steps=3, n_seeds=2)


def test_powerlaw(tmp_path):
    assert checks.check_powerlaw(tmp_path, 2)
    path = tmp_path / "probe" / "seed_0" / "powerlaw.csv"
    header = ("partition", "sum_v_lambda", "sum_v_2lambda", "p")
    write_rows(path, header, [("layer_1", 1.0, 3.0, 1.58), ("layer_2", 1.0, 4.0, 2.0)])
    assert checks.check_powerlaw(tmp_path, 2) == []
    assert checks.check_powerlaw(tmp_path, 3)
    write_rows(path, header, [("layer_1", 1.0, 3.0, 1.58), ("layer_2", 0.0, 0.0, "nan")])
    assert checks.check_powerlaw(tmp_path, 2)


def test_verify_rows(tmp_path):
    report = tmp_path / "verify_all.csv"
    write_rows(report, ("quantity", "empirical", "predicted", "std_error", "n"),
               [("a", 1, 1, 0, 1), ("b", 1, 1, 0, 1)])
    good = "[PASS] a  empirical=1\n[PASS] b  empirical=1\nall checks passed\n"
    assert checks.check_verify(good, report) == []
    assert checks.check_verify(good.replace("[PASS] b", "[FAIL] b"), report)
    assert checks.check_verify("[PASS] a  empirical=1\n", report)
    assert checks.check_verify(good, tmp_path / "missing.csv")


@pytest.fixture(scope="module")
def density_case():
    spec = netkit.ModelSpec((6, 12, 12, 3), "xent")
    params = netkit.build_model(spec, 0)
    rng = np.random.default_rng(1)
    batch = netkit.Batch(rng.standard_normal((16, 6)), rng.integers(0, 3, size=16))
    psi = 0.5
    records = netkit.relu_introspect(spec, params, batch, psi)
    assert records
    matrix = glass.density_matrix(records, psi)
    delta = 0.01 * (2.0 * rng.integers(0, 2, size=spec.param_count) - 1.0)
    grad_y = np.stack([r.grad_y for r in records])
    dloss_dz = np.array([r.dloss_dz for r in records])
    return dict(r_mat=matrix.R, diag=glass.density_diag(matrix).rho,
                bound=glass.variation_bound(matrix, delta), delta=delta,
                grad_y=grad_y, dloss_dz=dloss_dz, psi=psi)


def test_records_inside_the_band():
    inside = netkit.ReluUnitRecord(0, 0, 0, 0.01, 1.0, np.zeros(3))
    outside = netkit.ReluUnitRecord(0, 1, 0, -0.06, 1.0, np.zeros(3))
    assert checks.check_records([inside], 0.05) == []
    assert checks.check_records([inside, outside], 0.05)
    assert checks.check_records([], 0.05)


def test_density_passes_on_program_output(density_case):
    assert checks.check_density(**density_case) == []


@pytest.mark.parametrize("field", ["r_mat", "diag", "bound"])
def test_density_reports_a_perturbed_small_entry(density_case, field):
    case = dict(density_case)
    corrupted = case[field].copy()
    values = np.diag(corrupted) if field == "r_mat" else corrupted
    i = int(np.argmin(np.where(values > 0, values, np.inf)))
    if field == "r_mat":
        corrupted[i, i] *= 1 + 1e-6
    else:
        corrupted[i] *= 1 + 1e-6
    case[field] = corrupted
    assert checks.check_density(**case)


def test_density_reports_a_negative_entry(density_case):
    case = dict(density_case)
    case["r_mat"] = case["r_mat"].copy()
    case["r_mat"][0, -1] = -1e-30
    assert checks.check_density(**case)


def test_digest_ignores_wall_time_only(tmp_path):
    path = tmp_path / "seed_0" / "train_log.csv"
    write_rows(path, ("step", "loss", "wall_ms"), [(1, 0.5, 1.25)])
    first = checks.digest_dir(tmp_path)
    write_rows(path, ("step", "loss", "wall_ms"), [(1, 0.5, 9.75)])
    assert checks.digest_dir(tmp_path) == first
    write_rows(path, ("step", "loss", "wall_ms"), [(1, 0.50000001, 1.25)])
    assert checks.digest_dir(tmp_path) != first


def test_determinism_guard_flags_the_odd_run():
    assert run.digest_disagrees(["a", "a", "a"]) == [False, False, False]
    assert run.digest_disagrees(["b", "a", "a"]) == [True, False, False]
    assert run.digest_disagrees(["a", None]) == [False, True]
