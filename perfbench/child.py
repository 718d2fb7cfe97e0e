"""One fresh-process run of one workload; started by run.py, never imported.

    python3 perfbench/child.py --workload W --seed N --config CFG
        --out DIR --result FILE --spawned-at T --trace 0|1

Imports glassopt (the end of set-up for the CLI workloads), runs the workload
once under a wall clock, checks its outputs, and writes a JSON result with
the timings, the check failures, the output digest, the per-layer metrics of
a traced run and the library versions this process used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from pathlib import Path

import checks
import spans

# Density workload: the probe_mlp network, one minibatch, psi = 0.05. The
# minibatch yields 305-435 near-threshold records depending on the seed, and
# density_matrix's cost is linear in their number, so a fixed-size random
# subset of them is used to give every seed the same work.
PSI = 0.05
DENSITY_RECORDS = 300


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def library_env() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class _AliceCounter:
    """Counts the gradient evaluations Alice.step makes, in every instance."""

    def __init__(self):
        import glassopt.alice

        self.grad_evals = 0
        step = glassopt.alice.Alice.step

        def counting_step(opt, grad_fn):
            def counted(point):
                self.grad_evals += 1
                return grad_fn(point)

            return step(opt, counted)

        glassopt.alice.Alice.step = counting_step


def _cli_runner(argv):
    import glassopt.cli

    return lambda: glassopt.cli.main(argv)


def prepare_train(args, out: Path):
    from glassopt import harness

    cfg = harness.load_config(args.config)
    counter = _AliceCounter()
    run = _cli_runner(["train", "--config", args.config, "--out", str(out)])

    expected = checks.expected_alice_grad_evals(cfg.steps, cfg.alice.quick_steps, len(cfg.seeds))

    def check(stdout_text, layer):
        failures = checks.check_grad_evals(counter.grad_evals, expected)
        failures += checks.check_no_error_files(out)
        failures += checks.check_train_logs(out, cfg.steps, len(cfg.seeds))
        if layer is not None:
            failures += checks.check_grad_evals(int(layer["netkit.gradient.calls"]), expected)
        return failures, checks.digest_dir(out)

    return run, check, expected


def prepare_probe(args, out: Path):
    from glassopt import harness

    cfg = harness.load_config(args.config)
    run = _cli_runner(["probe", "--config", args.config, "--out", str(out)])
    # Warm-up steps, then the centre and every sample at lam and at 2 lam.
    expected = len(cfg.seeds) * (cfg.probe.warmup_steps + 2 * (cfg.probe.samples + 1))

    def check(stdout_text, layer):
        failures = checks.check_no_error_files(out)
        failures += checks.check_powerlaw(out, cfg.model.n_layers)
        if layer is not None:
            failures += checks.check_grad_evals(int(layer["netkit.gradient.calls"]), expected)
        return failures, checks.digest_dir(out)

    return run, check, expected


def prepare_verify(args, out: Path):
    run = _cli_runner(["verify", "--suite", "all", "--out", str(out)])

    def check(stdout_text, layer):
        failures = checks.check_verify(stdout_text, out / "verify_all.csv")
        return failures, checks.digest_dir(out)

    return run, check, None


def prepare_density(args, out: Path):
    """Warm the probe_mlp network up (set-up), then time the density pipeline."""
    import numpy as np

    from glassopt import alice, glass, harness, netkit

    cfg = harness.load_config(args.config)
    spec = cfg.model
    data = harness.task_batch(cfg, args.seed)
    rng = np.random.default_rng([args.seed, 0xDE45])

    def minibatch():
        idx = rng.integers(0, data.size, size=cfg.batch_size)
        return netkit.Batch(data.inputs[idx], data.targets[idx])

    def warm_grad(theta):
        return netkit.gradient(spec, theta, minibatch())[1]

    params = netkit.build_model(spec, args.seed)
    params = alice.reference_adam(
        params, warm_grad, cfg.probe.warmup_lr, n_steps=cfg.probe.warmup_steps)[-1]
    batch = minibatch()
    delta = cfg.probe.lam * (2.0 * rng.integers(0, 2, size=params.shape[0]) - 1.0)
    result = {}

    def run():
        found = netkit.relu_introspect(spec, params, batch, PSI)
        keep = rng.choice(len(found), size=min(DENSITY_RECORDS, len(found)), replace=False)
        records = [found[i] for i in sorted(keep)]
        matrix = glass.density_matrix(records, PSI)
        result.update(
            found=found,
            records=records,
            R=matrix.R,
            diag=glass.density_diag(matrix).rho,
            bound=glass.variation_bound(matrix, delta),
        )
        return 0

    def check(stdout_text, layer):
        failures = checks.check_records(result["found"], PSI)
        if failures:
            return failures, ""
        records = result["records"]
        grad_y = np.stack([r.grad_y for r in records])
        dloss_dz = np.array([r.dloss_dz for r in records])
        failures = checks.check_density(
            result["R"], result["diag"], result["bound"], delta, grad_y, dloss_dz, PSI)
        ids = np.array([r.unit_id for r in records])
        ys = np.array([r.y for r in records])
        digest = checks.digest_arrays(
            ids, ys, dloss_dz, grad_y, result["diag"], result["bound"], result["R"][::61])
        return failures, digest

    return run, check, None


PREPARE = {
    "train": prepare_train,
    "probe": prepare_probe,
    "verify": prepare_verify,
    "density": prepare_density,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(PREPARE))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--config", default="")
    parser.add_argument("--out", default="")
    parser.add_argument("--result", default="")
    parser.add_argument("--spawned-at", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import glassopt.cli  # noqa: F401 - set-up of the CLI workloads ends here

    tracer = None
    if args.trace:
        tracer = spans.Tracer(run_id=Path(args.out).name)
        spans.install(tracer)
    out = Path(args.out)
    run, check, grad_evals = PREPARE[args.workload](args, out)
    setup_s = time.monotonic() - args.spawned_at

    stdout_path = out.parent / f"{out.name}.stdout"
    with open(stdout_path, "w") as sink, contextlib.redirect_stdout(sink):
        tic = time.perf_counter()
        code = run()
        wall_s = time.perf_counter() - tic

    layer = None
    if tracer is not None:
        layer = spans.layer_metrics(tracer.spans, tracer.counts)
        tracer.write(out.parent / f"{out.name}.spans.json")
    failures, digest = check(stdout_path.read_text(), layer)
    failures = checks.check_exit(code) + failures
    with open(args.result, "w") as fh:
        json.dump({"setup_s": setup_s, "wall_s": wall_s, "failures": failures,
                   "digest": digest, "layer": layer, "grad_evals": grad_evals,
                   "env": library_env()}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
