"""Correctness checks on a workload's outputs, and the determinism digest.

Each check returns a list of failure messages; an empty list means it passed.
The checks read only what the program wrote (files, return values) and
recompute what they compare against on their own.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

# Columns whose values are wall-clock readings, excluded from digests the
# same way the byte-identical rerun criterion (C12) excludes them.
TIMING_COLUMNS = ("wall_ms",)


def check_exit(code: int) -> list[str]:
    return [] if code == 0 else [f"exit code {code}"]


def check_no_error_files(out_dir) -> list[str]:
    return [f"error file {p}" for p in sorted(Path(out_dir).rglob("error.txt"))]


def expected_alice_grad_evals(steps: int, quick_steps: int, n_seeds: int) -> int:
    """Criterion C11: steps + 2 * ceil(steps / (quick_steps + 1)) per seed."""
    return n_seeds * (steps + 2 * math.ceil(steps / (quick_steps + 1)))


def check_grad_evals(counted: int, expected: int) -> list[str]:
    if counted == expected:
        return []
    return [f"gradient evaluations {counted}, expected {expected}"]


def check_train_logs(out_dir, steps: int, n_seeds: int) -> list[str]:
    """One finite-loss row per step in every seed's train_log.csv."""
    logs = sorted(Path(out_dir).rglob("train_log.csv"))
    if len(logs) != n_seeds:
        return [f"{len(logs)} train logs, expected {n_seeds}"]
    failures = []
    for path in logs:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != steps:
            failures.append(f"{path}: {len(rows)} rows, expected {steps}")
        elif not all(math.isfinite(float(r["loss"])) for r in rows):
            failures.append(f"{path}: non-finite loss")
    return failures


def check_powerlaw(out_dir, n_partitions: int) -> list[str]:
    """Every seed's powerlaw.csv has one finite exponent per partition."""
    reports = sorted(Path(out_dir).rglob("powerlaw.csv"))
    if not reports:
        return ["no powerlaw.csv written"]
    failures = []
    for path in reports:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != n_partitions:
            failures.append(f"{path}: {len(rows)} partitions, expected {n_partitions}")
        bad = [r["partition"] for r in rows if not math.isfinite(float(r["p"]))]
        if bad:
            failures.append(f"{path}: non-finite exponent for {', '.join(bad)}")
    return failures


_ROW = re.compile(r"^\[(PASS|FAIL)\] (\S+)")


def check_verify(stdout_text: str, report_csv) -> list[str]:
    """Every row of the verify report was printed as PASS."""
    status = dict(
        (m.group(2), m.group(1)) for m in map(_ROW.match, stdout_text.splitlines()) if m
    )
    try:
        with open(report_csv, newline="") as fh:
            quantities = [r["quantity"] for r in csv.DictReader(fh)]
    except OSError as exc:
        return [f"cannot read verify report: {exc}"]
    if not quantities:
        return ["verify report has no rows"]
    return [
        f"verify row {q}: {status.get(q, 'not printed')}"
        for q in quantities
        if status.get(q) != "PASS"
    ]


def check_records(records, psi: float) -> list[str]:
    """relu_introspect found records, each strictly inside the threshold band."""
    if not records:
        return ["relu_introspect returned no records"]
    outside = sum(1 for r in records if not abs(r.y) < psi)
    return [f"{outside} records with |y| >= psi"] if outside else []


def density_diag_from_records(grad_y: np.ndarray, dloss_dz: np.ndarray, psi: float):
    """diag(R)_i = sum_k grad_y[k, i]^2 * dloss_dz[k]^2 * |grad_y[k, i]| / (2 psi)."""
    return (dloss_dz * dloss_dz) @ (grad_y * grad_y * np.abs(grad_y)) / (2.0 * psi)


def density_times(grad_y, dloss_dz, psi, vector):
    """R v from the records: (R v)_i = sum_k gy_ki^2 c_k (|gy_k| . v) / (2 psi)."""
    weights = (dloss_dz * dloss_dz) * (np.abs(grad_y) @ vector)
    return weights @ (grad_y * grad_y) / (2.0 * psi)


def _mismatch(label, got, want, rtol) -> list[str]:
    # Every term of these sums is nonnegative, so each entry is accurate to
    # about (number of records) * eps relative to itself.
    err = np.abs(got - want)
    bad = int(np.count_nonzero(~(err <= rtol * np.abs(want))))
    return [f"{label} differs from the record sums in {bad} entries"] if bad else []


def check_density(r_mat, diag, bound, delta, grad_y, dloss_dz, psi, rtol=1e-9) -> list[str]:
    """R is nonnegative; diag(R), density_diag and R|delta| match the records everywhere."""
    d = grad_y.shape[1]
    if r_mat.shape != (d, d):
        return [f"R has shape {r_mat.shape}, expected ({d}, {d})"]
    failures = [] if r_mat.min() >= 0.0 else ["R has negative or NaN entries"]  # no temporaries
    want_diag = density_diag_from_records(grad_y, dloss_dz, psi)
    failures += _mismatch("diag(R)", np.diag(r_mat), want_diag, rtol)
    failures += _mismatch("density_diag", diag, want_diag, rtol)
    failures += _mismatch("variation_bound",
                          bound, density_times(grad_y, dloss_dz, psi, np.abs(delta)), rtol)
    return failures


def _csv_without_timing(path: Path) -> bytes:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return b""
    keep = [i for i, name in enumerate(rows[0]) if name not in TIMING_COLUMNS]
    return "\n".join(",".join(row[i] for i in keep) for row in rows).encode()


def digest_dir(out_dir) -> str:
    """sha256 over every file's relative path and content, timing columns removed."""
    out_dir = Path(out_dir)
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out_dir)).encode() + b"\0")
        h.update(_csv_without_timing(path) if path.suffix == ".csv" else path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()
