"""glassopt benchmark: fresh-process workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload train|probe|verify|density|all
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Each workload runs as a closed loop
of one client: one child process at a time (perfbench/child.py), each a fresh
interpreter with the default allocator, repeated with the same inputs until
the next run would overrun --seconds (at least three runs, four when traced).
BLAS is pinned to one thread. Every run's outputs are checked and digested; runs of one seed
whose digests disagree count as failed.

With --trace 0 the last line reports the end-to-end metrics (medians over
runs). With --trace 1 runs alternate untraced and traced, and the last line
reports per-layer metrics (medians over traced runs), the child's minor page
faults and the tracing overhead. The last line is one JSON object with the
keys correct, attempted, failed and metrics. The lines before it are a
readable summary and the recorded environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-out"

BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 40.0

WORKLOADS = ("train", "probe", "verify", "density")
CONFIGS = {
    "train": "docs/configs/train_blobs.cfg",
    "probe": "docs/configs/probe_mlp.cfg",
    "density": "docs/configs/probe_mlp.cfg",
}
# Program seeds derived from the benchmark seed, written as the config's
# `seeds` line. verify runs `glassopt verify --suite all` as is (seed 0).
PROGRAM_SEEDS = {
    "train": lambda s: f"{3 * s},{3 * s + 1},{3 * s + 2}",
    "probe": lambda s: f"{s}",
    "density": lambda s: f"{s}",
}


def median(values):
    return statistics.median(values) if values else 0.0


def derive_config(workload: str, seed: int, dest: Path) -> Path:
    """Copy the workload's config with its seeds line set from the benchmark seed."""
    lines = (ROOT / CONFIGS[workload]).read_text().splitlines()
    seeds = [i for i, line in enumerate(lines) if line.split("=")[0].strip() == "seeds"]
    if len(seeds) != 1:
        raise SystemExit(f"{CONFIGS[workload]}: expected one 'seeds' line")
    lines[seeds[0]] = f"seeds = {PROGRAM_SEEDS[workload](seed)}"
    dest.write_text("\n".join(lines) + "\n")
    return dest


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: BLAS_THREADS for name in BLAS_ENV})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv, stdout, stderr, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; returns (exit code, rusage, seconds)."""
    tic = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *argv],
                            env=child_env(), stdout=stdout, stderr=stderr, cwd=ROOT)
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        # wait4 reaps this child and returns its own resource usage.
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:  # interrupted: leave no child running, then re-raise
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, time.monotonic() - tic


def record_env(library_env: dict) -> dict:
    """Machine, library and source versions, with the BLAS threads a child saw."""
    return dict(
        library_env,
        machine=f"{platform.system()} {platform.machine()} {platform.processor()}".strip(),
        nproc=len(os.sched_getaffinity(0)),
        blas_threads_pinned=int(BLAS_THREADS),
        git_sha=git_sha(),
    )


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Closed loop of one client: fresh children, one at a time, until `seconds` is used.

    Returns one record per child.
    """
    work = WORK / f"{workload}-s{seed}-t{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = derive_config(workload, seed, work / "config.cfg") if workload in CONFIGS else ""
    min_runs = 4 if trace else 3
    runs = []
    start = time.monotonic()
    while True:
        traced = trace and len(runs) % 2 == 1
        name = f"run{len(runs)}"
        result_path = work / f"{name}.result.json"
        argv = ["--workload", workload, "--seed", str(seed), "--config", str(config),
                "--out", str(work / name), "--result", str(result_path),
                "--trace", str(int(traced))]
        with open(work / f"{name}.log", "w") as log:
            code, usage, took = run_child([*argv, "--spawned-at", repr(time.monotonic())],
                                          log, subprocess.STDOUT)
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError):
            result = {"failures": ["no result written"], "digest": None}
        if code != 0:
            result["failures"].insert(0, f"child exit code {code}")
        result.update(traced=traced, took=took, rss_mb=usage.ru_maxrss * 1024 / 1e6,
                      minor_faults=usage.ru_minflt)
        runs.append(result)
        if "wall_s" not in result and len(runs) == 1:
            sys.stderr.write((work / f"{name}.log").read_text()[-2000:])
            raise SystemExit(f"{workload}: the first run failed before reporting")
        elapsed = time.monotonic() - start
        if len(runs) >= min_runs and elapsed + median([r["took"] for r in runs]) > seconds:
            break
    # Determinism guard: every run of this seed must reproduce the same outputs.
    for r, differs in zip(runs, digest_disagrees([r["digest"] for r in runs])):
        if differs:
            r["failures"].append("outputs differ from the other runs of this seed")
    (work / "runs.json").write_text(json.dumps(runs, indent=1))
    return runs


def digest_disagrees(digests: list) -> list[bool]:
    """Per run of one seed: whether its digest differs from the set's most common one."""
    common = Counter(digests).most_common(1)[0][0] if digests else None
    return [d != common for d in digests]


def _passed(runs):
    return [r for r in runs if not r["failures"]] or runs


def end_to_end(runs):
    ok = _passed(runs)
    return {
        "wall_s": (median([r["wall_s"] for r in ok if "wall_s" in r]), "s"),
        "setup_s": (median([r["setup_s"] for r in ok if "setup_s" in r]), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in ok]), "MB"),
    }


def per_layer(runs):
    ok = _passed(runs)
    traced = [r for r in ok if r["traced"] and r.get("layer")]
    plain = [r for r in ok if not r["traced"] and "wall_s" in r]
    metrics = {name: median([r["layer"][name] for r in traced])
               for name in sorted({name for r in traced for name in r["layer"]})}
    metrics["proc.minor_faults"] = float(median([r["minor_faults"] for r in plain]))
    metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                   - median([r["wall_s"] for r in plain]))
    return {name: (value, layer_unit(name)) for name, value in metrics.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_ms") or ".ms_" in name:
        return "ms"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"


def report(workload, seed, runs, metrics, env) -> dict:
    """Print the readable summary and return the result object."""
    failed = sum(1 for r in runs if r["failures"])
    walls = [r["wall_s"] for r in runs if "wall_s" in r and not r["traced"]]
    print(f"== {workload} seed={seed} runs={len(runs)} failed={failed} "
          f"fail_fraction={failed / len(runs):.3f}")
    for i, r in enumerate(runs):
        for failure in r["failures"]:
            print(f"  run {i} FAILED: {failure}")
    if walls:
        print(f"  wall_s: median {median(walls):.4f} s over n={len(walls)} "
              f"(min {min(walls):.4f}, max {max(walls):.4f})")
    grad_evals = runs[0].get("grad_evals")
    if grad_evals and walls:
        print(f"  grad_evals_per_s = {grad_evals / median(walls):.1f} 1/s "
              f"({grad_evals} per run)")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in ("src/glassopt/cli.py", *sorted(set(CONFIGS.values())))
               if not (ROOT / p).is_file()]
    if missing:
        print(f"not a glassopt checkout: missing {', '.join(missing)} under {ROOT}",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    all_correct = True
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        runs = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        metrics = per_layer(runs) if args.trace else end_to_end(runs)
        summary = report(workload, args.seed, runs, metrics, record_env(runs[0]["env"]))
        all_correct &= summary["correct"]
        print(json.dumps(summary), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
