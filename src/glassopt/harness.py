"""Experiment definitions, synthetic data, and run persistence.

A run is described by a small key = value config file (see parse_config),
executed once per seed, and reduced to (min, median, max) of a per-seed
final metric. Every artifact a run produces is written to its output
directory: a per-step training log or a power-law report, a summary CSV,
and a manifest that echoes the config (the manifest is itself a valid
config file). All randomness is derived from the per-seed value, so a rerun
of a (config, seed) pair reproduces every logged number; wall-time columns
are the only non-reproducible output.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, alice, netkit, oracles
from .alice import (
    Alice,
    AliceConfig,
    TopographyState,
    adam_iterates,
    naq_exactness_check,
    sgdm_iterates,
)
from .glass import (
    PowerLawReport,
    estimator_variance,
    kernel_constant,
    make_kernel,
    measure_variations,
    power_law,
    update_probability,
)
from .netkit import Batch, ConfigError, ModelSpec, build_model, check_seed, gradient, loss

OPTIMIZERS = ("alice", "adam", "sgdm")
OUTPUT_ENV = "GLASSOPT_OUT"

TRAIN_LOG_HEADER = (
    "step",
    "loss",
    "grad_norm",
    "mean_rho",
    "mean_hbar",
    "clamp_lo",
    "clamp_hi",
    "grad_evals",
    "wall_ms",
)
REPORT_HEADER = ("quantity", "empirical", "predicted", "std_error", "n")


@dataclass
class DataParams:
    """Synthetic data settings: Gaussian blobs for xent, a teacher regression for mse.

    The class count is the output width model.widths[-1].
    """

    samples: int = 2000
    noise: float = 2.0
    center_scale: float = 2.0
    label_flip: float = 0.15

    def __post_init__(self):
        if self.samples < 1:
            raise ConfigError(f"data.samples must be >= 1, got {self.samples}")
        if not self.noise >= 0.0:
            raise ConfigError(f"data.noise must be >= 0, got {self.noise}")
        if not 0.0 <= self.label_flip <= 1.0:
            raise ConfigError(f"data.label_flip must lie in [0, 1], got {self.label_flip}")


@dataclass
class ProbeParams:
    """Power-law probe settings."""

    lam: float = 0.002
    samples: int = 96
    warmup_steps: int = 200
    warmup_lr: float = 2e-3

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ConfigError(f"probe.lam must be > 0, got {self.lam}")
        if self.samples < 1:
            raise ConfigError(f"probe.samples must be >= 1, got {self.samples}")
        if self.warmup_steps < 0:
            raise ConfigError(f"probe.warmup_steps must be >= 0, got {self.warmup_steps}")
        if not self.warmup_lr > 0.0:
            raise ConfigError(f"probe.warmup_lr must be > 0, got {self.warmup_lr}")


@dataclass
class ExperimentConfig:
    name: str = "experiment"
    seeds: tuple[int, ...] = (0,)
    steps: int = 100
    batch_size: int = 128
    output_dir: str = ""
    optimizer: str = "alice"
    baseline_lr: float = 2e-3
    model: ModelSpec | None = None
    alice: AliceConfig = field(default_factory=AliceConfig)
    data: DataParams = field(default_factory=DataParams)
    probe: ProbeParams = field(default_factory=ProbeParams)

    def __post_init__(self):
        self.seeds = tuple(int(s) for s in self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct, got {repeated} more than once")
        negative = [s for s in self.seeds if s < 0]
        if negative:
            raise ConfigError(f"seeds must be >= 0, got {negative}")
        # parse_config rejects a non-finite float, so a manifest could not carry
        # one back. AliceConfig alone still takes lam_max = inf, as verify's
        # step suite builds it.
        for key, (section, attr, parser) in _SCHEMA.items():
            if parser is not float:
                continue
            value = getattr(self if section is None else getattr(self, section), attr)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
        # parse_config reads '#' as the start of a comment, strips each value and
        # reads the file line by line, so a manifest could not carry such a
        # value back.
        for key in ("name", "output_dir"):
            value = getattr(self, key)
            if "#" in value:
                raise ConfigError(f"{key} must not contain '#', got {value!r}")
            if value != value.strip():
                raise ConfigError(f"{key} must not start or end with whitespace, got {value!r}")
            if len(value.splitlines()) > 1:
                raise ConfigError(f"{key} must not contain a line break, got {value!r}")
        if self.name in ("", ".", "..") or Path(self.name).name != self.name:
            raise ConfigError(f"name must be a single path component, got {self.name!r}")
        if self.steps < 1:
            raise ConfigError("steps must be >= 1")
        if self.batch_size < 0:
            raise ConfigError(f"batch_size must be >= 0 (0 = full batch), got {self.batch_size}")
        if not self.baseline_lr > 0.0:
            raise ConfigError(f"baseline_lr must be > 0, got {self.baseline_lr}")
        if self.optimizer not in OPTIMIZERS:
            raise ConfigError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.model is None:
            raise ConfigError("model.widths is required")


# ---------------------------------------------------------------------------
# Config file format: one "key = value" per line, # comments, dotted keys.


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt_value(v) for v in value)
    return str(value)


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in raw.split(",") if v.strip())


def _parse_str_tuple(raw: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in raw.split(",") if v.strip())


# key -> (section, attribute, parser)
_SCHEMA = {
    "name": (None, "name", str),
    "seeds": (None, "seeds", _parse_int_tuple),
    "steps": (None, "steps", int),
    "batch_size": (None, "batch_size", int),
    "output_dir": (None, "output_dir", str),
    "optimizer": (None, "optimizer", str),
    "baseline_lr": (None, "baseline_lr", float),
    "model.widths": ("model", "layer_widths", _parse_int_tuple),
    "model.loss": ("model", "loss", str),
    "alice.lam": ("alice", "lam", float),
    "alice.beta1": ("alice", "beta1", float),
    "alice.beta2": ("alice", "beta2", float),
    "alice.eps": ("alice", "eps", float),
    "alice.phi": ("alice", "phi", float),
    "alice.omega": ("alice", "omega", float),
    "alice.lam_min": ("alice", "lam_min", float),
    "alice.lam_max": ("alice", "lam_max", float),
    "alice.limit_method": ("alice", "limit_method", str),
    "alice.quick_steps": ("alice", "quick_steps", int),
    "alice.terms": ("alice", "terms", _parse_str_tuple),
    "alice.naq": ("alice", "naq", _parse_bool),
    "data.samples": ("data", "samples", int),
    "data.noise": ("data", "noise", float),
    "data.center_scale": ("data", "center_scale", float),
    "data.label_flip": ("data", "label_flip", float),
    "probe.lam": ("probe", "lam", float),
    "probe.samples": ("probe", "samples", int),
    "probe.warmup_steps": ("probe", "warmup_steps", int),
    "probe.warmup_lr": ("probe", "warmup_lr", float),
}


def serialize_config(cfg: ExperimentConfig) -> str:
    """Render a config as the key = value text format (parse_config inverts this)."""
    lines = []
    for key, (section, attr, _) in _SCHEMA.items():
        value = getattr(cfg if section is None else getattr(cfg, section), attr)
        if value is None:
            continue
        lines.append(f"{key} = {_fmt_value(value)}")
    return "\n".join(lines) + "\n"


def parse_config(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse the key = value format, reporting the offending line on errors."""
    top: dict[str, object] = {}
    sections: dict[str, dict[str, object]] = {"model": {}, "alice": {}, "data": {}, "probe": {}}
    seen: dict[str, int] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw_line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} repeated (first set on line {seen[key]})"
            )
        seen[key] = lineno
        section, attr, parser = _SCHEMA[key]
        try:
            value = parser(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key!r}: {exc}") from exc
        # Every float key is a finite number: inf and nan pass several range
        # checks (inf > 0) and would run silently.
        if parser is float and not math.isfinite(value):
            raise ConfigError(f"{source}:{lineno}: {key} must be finite, got {raw}")
        if section is None:
            top[key] = value
        else:
            sections[section][attr] = value
    try:
        model = ModelSpec(**sections["model"]) if "layer_widths" in sections["model"] else None
        return ExperimentConfig(
            model=model,
            alice=AliceConfig(**sections["alice"]),
            data=DataParams(**sections["data"]),
            probe=ProbeParams(**sections["probe"]),
            **top,
        )
    except ConfigError as exc:
        # A message that opens with a config key points at the line that set it.
        lineno = seen.get(str(exc).split(" ", 1)[0])
        where = f"{source}:{lineno}" if lineno else source
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


# ---------------------------------------------------------------------------
# Synthetic data


def make_classification_batch(dp: DataParams, input_dim: int, n_classes: int, seed: int) -> Batch:
    """Gaussian blob mixture with optional label noise.

    label_flip > 0 relabels that fraction of points uniformly at random,
    which keeps gradients (and ReLU boundary traffic) alive after the model
    fits the clean structure.
    """
    rng = np.random.default_rng(np.random.SeedSequence([check_seed(seed), 0xDA7A]))
    centers = dp.center_scale * rng.standard_normal((n_classes, input_dim))
    labels = rng.integers(0, n_classes, size=dp.samples)
    points = centers[labels] + dp.noise * rng.standard_normal((dp.samples, input_dim))
    if not netkit.all_finite(points):
        raise netkit.NumericsError("blob inputs overflowed: data.center_scale or data.noise")
    if dp.label_flip > 0:
        flip = rng.random(dp.samples) < dp.label_flip
        labels = np.where(flip, rng.integers(0, n_classes, size=dp.samples), labels)
    return Batch(points, labels)


def make_regression_batch(dp: DataParams, input_dim: int, output_dim: int, seed: int) -> Batch:
    """Inputs from a standard normal, targets from a fixed random teacher net."""
    rng = np.random.default_rng(np.random.SeedSequence([check_seed(seed), 0x7EAC]))
    x = rng.standard_normal((dp.samples, input_dim))
    teacher = ModelSpec((input_dim, 32, output_dim), "mse")
    teacher_params = build_model(teacher, seed + 1)
    _, acts = netkit.forward(teacher, teacher_params, x)
    return Batch(x, acts[-1])


def task_batch(cfg: ExperimentConfig, seed: int) -> Batch:
    """The data of a run: Gaussian blobs for model.loss = xent, else a teacher regression."""
    make = make_classification_batch if cfg.model.loss == "xent" else make_regression_batch
    return make(cfg.data, cfg.model.layer_widths[0], cfg.model.layer_widths[-1], seed)


def _minibatch_stream(batch: Batch, batch_size: int, seed: int):
    """Deterministic minibatch sampler; full batch when batch_size is 0 or >= n."""
    n = batch.size
    if batch_size <= 0 or batch_size >= n:
        while True:
            yield batch
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA7C]))
    while True:
        idx = rng.integers(0, n, size=batch_size)
        yield Batch(batch.inputs[idx], batch.targets[idx])


# ---------------------------------------------------------------------------
# CSV and report helpers


def write_csv(path, header, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


@dataclass(frozen=True)
class CheckRow:
    """One named numeric check: empirical vs predicted, with its pass verdict."""

    quantity: str
    empirical: float
    predicted: float
    std_error: float
    n: int
    passed: bool

    def as_csv_row(self):
        return (self.quantity, self.empirical, self.predicted, self.std_error, self.n)


def write_report(path, rows: list[CheckRow]) -> None:
    write_csv(path, REPORT_HEADER, [r.as_csv_row() for r in rows])


# ---------------------------------------------------------------------------
# Training runs


def _logged_stat(stat, x: np.ndarray) -> float:
    """stat(x), or peak * stat(x / peak) where finite entries overflow it (a sum past 1.8e308)."""
    value = float(stat(x))
    if math.isinf(value):
        peak = float(np.max(np.abs(x)))
        value = peak * float(stat(x / peak))
    return value


def _last(iterates):
    """The final iterate of an optimizer, holding one iterate at a time."""
    for theta in iterates:
        pass
    return theta


def _train_one(cfg: ExperimentConfig, seed: int, run_dir: Path) -> float:
    """Train one seed; each train_log.csv row logs the step's last gradient call.

    A seed that raises still writes the rows of the steps before the error.

    grad_evals is cumulative: Alice's own count (criterion C11), or the step
    number for adam and sgdm, which spend one gradient per step.
    """
    data = task_batch(cfg, seed)
    params = build_model(cfg.model, seed)
    stream = _minibatch_stream(data, cfg.batch_size, seed)
    rows = []
    # The loss and gradient of the most recent gradient call. The optimizers
    # only read the gradient, so its norm can be taken once per step.
    last = {"loss": math.nan, "grad": None}

    def make_grad_fn(batch):
        def grad_fn(theta):
            last["loss"], last["grad"] = gradient(cfg.model, theta, batch)
            return last["grad"]

        return grad_fn

    def at_step(step, fn, *args):
        """fn(*args), naming the optimizer and step in any NumericsError it raises."""
        try:
            return fn(*args)
        except netkit.NumericsError as exc:
            raise netkit.NumericsError(f"{cfg.optimizer} step {step}: {exc}") from exc

    def logged(step, mean_rho, mean_hbar, clamp_lo, clamp_hi, grad_evals, wall_ms):
        grad_norm = _logged_stat(np.linalg.norm, last["grad"])
        return (step, last["loss"], grad_norm, mean_rho, mean_hbar, clamp_lo, clamp_hi,
                grad_evals, wall_ms)

    try:
        if cfg.optimizer == "alice":
            opt = Alice(params, cfg.alice, seed=seed)
            for step in range(1, cfg.steps + 1):
                tic = time.perf_counter()
                record = at_step(step, opt.step, make_grad_fn(next(stream)))
                wall_ms = (time.perf_counter() - tic) * 1e3
                rows.append(
                    logged(
                        step,
                        _logged_stat(np.mean, opt.state.rho),
                        _logged_stat(np.mean, record.h_bar),
                        record.clamped_low_fraction,
                        record.clamped_high_fraction,
                        opt.n_grad_evals,
                        wall_ms,
                    )
                )
            final_params = opt.params
        else:
            iterates = adam_iterates if cfg.optimizer == "adam" else sgdm_iterates
            clock = {"tic": time.perf_counter()}

            def grad_fn(theta):
                step = len(rows) + 1
                g = at_step(step, make_grad_fn(next(stream)), theta)
                wall_ms = (time.perf_counter() - clock["tic"]) * 1e3
                rows.append(logged(step, 0.0, 0.0, 0.0, 0.0, step, wall_ms))
                clock["tic"] = time.perf_counter()
                return g

            final_params = _last(iterates(params, grad_fn, lr=cfg.baseline_lr, n_steps=cfg.steps))
    finally:
        write_csv(run_dir / "train_log.csv", TRAIN_LOG_HEADER, rows)
    try:
        return loss(cfg.model, final_params, data)
    except netkit.NumericsError as exc:
        raise netkit.NumericsError(f"{cfg.optimizer} final loss: {exc}") from exc


# ---------------------------------------------------------------------------
# Power-law probe


def default_partitions(spec: ModelSpec) -> dict[str, np.ndarray]:
    """One partition per layer (weights plus bias); the last is the final layer."""
    return {f"layer_{i + 1}": spec.layer_param_indices(i) for i in range(spec.n_layers)}


def powerlaw_experiment(
    spec: ModelSpec, data: Batch, probe: ProbeParams, batch_size: int, seed: int = 0
) -> PowerLawReport:
    """Train briefly, then fit per-layer variation exponents at lam and 2 lam.

    The warm-up takes minibatches of batch_size (0 = full batch). The two
    probe scales share one Rademacher seed, so their sample pairing
    cancels most of the Monte-Carlo noise in the exponent. Gradients are
    evaluated on the full dataset.

    The 2 lam measurement runs on a second thread while lam runs on this
    one; netkit's gradient keeps a workspace per thread and releases the GIL
    in its matmuls, so the two overlap. Each scale draws from its own
    Generator in its own order, so the report is that of the serial runs.
    An error at lam is raised before one at 2 lam. Each scale counts its own
    gradient calls, so a gradient's NumericsError names its scale and sample,
    as in "probe lam = 0.002 sample 17: ...", where sample 0 is the
    unperturbed gradient.
    """
    params = _warm_up(spec, data, seed, probe.warmup_steps, probe.warmup_lr, batch_size)

    def grad_fn(theta):
        return gradient(spec, theta, data)[1]

    probe_seed = int(np.random.SeedSequence([seed, 0x9B0E]).generate_state(1)[0])

    def measure(scale):
        samples = itertools.count()

        def named_grad(theta):
            sample = next(samples)
            try:
                return grad_fn(theta)
            except netkit.NumericsError as exc:
                raise netkit.NumericsError(f"probe lam = {scale!r} sample {sample}: {exc}") from exc

        return measure_variations(named_grad, params, scale, probe.samples, probe_seed)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=1) as lane:
        at_2lam = lane.submit(measure, 2.0 * probe.lam)
        meas_1 = measure(probe.lam)
        meas_2 = at_2lam.result()
    return power_law(meas_1, meas_2, default_partitions(spec))


def _warm_up(spec, data, seed, steps, lr, batch_size) -> np.ndarray:
    """The model at `seed` after `steps` minibatch Adam steps, keeping no trajectory.

    A NumericsError names the warm-up step: Adam's step t raises only after
    its t-th gradient call.
    """
    stream = _minibatch_stream(data, batch_size, seed)
    calls = 0

    def warm_grad(theta):
        nonlocal calls
        calls += 1
        return gradient(spec, theta, next(stream))[1]

    try:
        return _last(adam_iterates(build_model(spec, seed), warm_grad, lr, n_steps=steps))
    except netkit.NumericsError as exc:
        raise netkit.NumericsError(f"probe warm-up step {calls}: {exc}") from exc


def _run_powerlaw(cfg: ExperimentConfig, seed: int, run_dir: Path) -> float:
    data = task_batch(cfg, seed)
    report = powerlaw_experiment(cfg.model, data, cfg.probe, cfg.batch_size, seed)
    write_csv(run_dir / "powerlaw.csv", ("partition", "sum_v_lambda", "sum_v_2lambda", "p"),
              [(e.name, e.sum_v_lambda, e.sum_v_2lambda, e.p) for e in report.entries])
    defined = [e.p for e in report.entries if e.defined]
    return median(defined) if defined else math.nan


# ---------------------------------------------------------------------------
# Experiment driver


@dataclass(frozen=True)
class RunSummary:
    base: Path
    per_seed: tuple[tuple[int, float], ...]
    minimum: float
    median: float
    maximum: float
    errors: tuple[str, ...] = ()


def median(values) -> float:
    """Median of a nonempty sequence: the middle value, or the mean of the middle
    two for an even count. Any NaN makes it NaN.

    Sorting in Python rather than calling np.median keeps numpy.ma, which
    np.median imports on first use, out of every run.
    """
    ordered = sorted(float(v) for v in values)
    if any(math.isnan(v) for v in ordered):
        return math.nan
    mid = len(ordered) // 2
    # Summed from +0.0 like np.median's mean of the middle, so a -0.0 middle
    # comes out as 0.0 there too.
    if len(ordered) % 2:
        return 0.0 + ordered[mid]
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0


def aggregate(values) -> tuple[float, float, float]:
    """(min, median, max); the median of an even count is the mean of the middle two.

    A NaN value (a failed seed) makes all three NaN, whatever its position.
    """
    values = [float(v) for v in values]
    if not values:
        raise ConfigError("cannot aggregate an empty result list")
    return float(np.min(values)), median(values), float(np.max(values))


def resolve_output_dir(cfg: ExperimentConfig | None, out_root=None) -> Path:
    """Output root: out_root, else cfg.output_dir, else $GLASSOPT_OUT, else ./runs."""
    if out_root:
        return Path(out_root)
    if cfg is not None and cfg.output_dir:
        return Path(cfg.output_dir)
    return Path(os.environ.get(OUTPUT_ENV, "runs"))


def run_experiment(cfg: ExperimentConfig, runner, out_root=None) -> RunSummary:
    """Run runner(cfg, seed, run_dir) for every seed and persist all artifacts.

    Per-seed failures are recorded (metric NaN, error text in the run
    directory) and the remaining seeds still run. Rerunning a (config, seed)
    pair rewrites identical files, wall-clock columns aside.
    """
    base = resolve_output_dir(cfg, out_root) / cfg.name
    base.mkdir(parents=True, exist_ok=True)
    per_seed = []
    errors = []
    for seed in cfg.seeds:
        run_dir = base / f"seed_{seed}"
        run_dir.mkdir(parents=True, exist_ok=True)
        try:
            metric = float(runner(cfg, seed, run_dir))
        except Exception as exc:  # noqa: BLE001 - per-seed isolation is the contract
            metric = math.nan
            message = f"seed {seed}: {type(exc).__name__}: {exc}"
            errors.append(message)
            (run_dir / "error.txt").write_text(message + "\n")
        per_seed.append((seed, metric))
    lo, med, hi = aggregate([m for _, m in per_seed])
    rows = [(str(seed), metric) for seed, metric in per_seed]
    rows += [("min", lo), ("median", med), ("max", hi)]
    write_csv(base / "summary.csv", ("seed", "final_metric"), rows)
    manifest = f"# glassopt version = {__version__}\n" + serialize_config(cfg)
    (base / "manifest.txt").write_text(manifest)
    return RunSummary(base, tuple(per_seed), lo, med, hi, tuple(errors))


# ---------------------------------------------------------------------------
# Verification suites (oracles vs closed forms), used by the CLI


def _suite_kernel(seed: int) -> list[CheckRow]:
    rows = []
    c_rad = kernel_constant("rademacher", 1.0)
    rows.append(CheckRow("kernel_constant_rademacher_w2_1", c_rad, 0.5, 0.0, 1, c_rad == 0.5))
    c_zero = kernel_constant("normal", 0.0)
    rows.append(CheckRow("kernel_constant_any_density_w2_0", c_zero, 1.0, 0.0, 1, c_zero == 1.0))

    tm = oracles.TestMatrix.random_diag_dominant(200, seed)
    for density in ("rademacher", "normal"):
        kspec = make_kernel(density, tm.dominance)
        res = oracles.mc_aggregate_bias(tm, density, kspec, 10_000, seed + 1)
        rows.append(
            CheckRow(f"zero_bias_z_{density}", res.aggregate_bias_z, 0.0, 1.0,
                     res.n_samples, abs(res.aggregate_bias_z) < 3.0)
        )
    k_rad = make_kernel("rademacher", tm.dominance)
    k_nrm = make_kernel("normal", tm.dominance)
    res_rad = oracles.mc_estimator(tm, "rademacher", k_rad, 100_000, seed + 2)
    res_nrm = oracles.mc_estimator(tm, "normal", k_nrm, 100_000, seed + 2)
    mean_rad = float(np.mean(res_rad.variance))
    mean_nrm = float(np.mean(res_nrm.variance))
    rows.append(
        CheckRow("variance_rademacher_le_normal", mean_rad, mean_nrm, math.nan,
                 res_rad.n_samples, mean_rad <= mean_nrm)
    )
    closed = float(np.mean(estimator_variance(k_rad, tm.diagonal).per_sample))
    rows.append(
        CheckRow("variance_closed_form_ratio", mean_rad / closed, 1.0, math.nan,
                 res_rad.n_samples, abs(mean_rad / closed - 1.0) < 0.02)
    )

    # Restricted updates: probability hard-asserted, constants reported.
    prob = update_probability("normal", 1.0)
    rows.append(CheckRow("restricted_update_probability", prob, 0.3173, 0.0002, 1,
                         abs(prob - 0.3173) < 0.002))
    k_unres = make_kernel("normal", 1.0)
    k_res = make_kernel("normal", 1.0, restrict=1.0)
    v_unres = estimator_variance(k_unres, 1.0)
    v_res = estimator_variance(k_res, 1.0)
    rows.append(
        CheckRow("restricted_effective_variance_lt_unrestricted", v_res.per_draw,
                 v_unres.per_draw, math.nan, 1, v_res.per_draw < v_unres.per_draw)
    )
    # Quadrature ground truth next to the nominal round-number constants these
    # kernels are often summarized with; mismatches are reported, not failed.
    rows.append(CheckRow("reported_kernel_coefficient_unrestricted", 1.0 / k_unres.c, 2.0,
                         math.nan, 1, True))
    rows.append(CheckRow("reported_variance_unrestricted", v_unres.per_sample, 3.0,
                         math.nan, 1, True))
    rows.append(CheckRow("reported_kernel_coefficient_restricted", 1.0 / k_res.c, 1.40,
                         math.nan, 1, True))
    rows.append(CheckRow("reported_effective_variance_restricted", v_res.per_draw, 2.60,
                         math.nan, 1, True))
    return rows


def _suite_glass(seed: int) -> list[CheckRow]:
    scenario = oracles.build_uniform_preactivation_net(seed=seed)
    small = oracles.mc_variation(scenario, 5e-5, 2000, seed + 1)
    large = oracles.mc_variation(scenario, 0.5, 200, seed + 2)
    return [
        CheckRow("variation_bound_coverage_small_step", small.fraction_within, 1.0,
                 math.nan, small.n_samples, small.fraction_within >= 0.99),
        CheckRow("precondition_violations_small_step", small.precondition_violation_fraction,
                 0.0, math.nan, small.n_samples, small.precondition_violation_fraction < 0.01),
        CheckRow("variation_bound_violated_large_step", large.fraction_within, 1.0,
                 math.nan, large.n_samples, large.fraction_within < 0.99),
    ]


def _hidden_quadratic(rng: np.random.Generator):
    """A random SPD hidden Hessian, its h_bar, g_star0 and gamma0, drawn in that order."""
    d = 50
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    hidden = basis @ np.diag(rng.uniform(0.5, 2.5, d)) @ basis.T
    h_bar = np.abs(np.diag(hidden)) + 1.0
    return hidden, h_bar, rng.standard_normal(d), 0.1 * rng.standard_normal(d)


def _suite_naq(seed: int) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_pred = 0.0
    # beta1 values chosen so beta1^50 stays well above machine epsilon; the
    # relative comparison is vacuous once the expected error underflows.
    for beta1 in (0.9, 0.95, 0.99):
        hidden, h_bar, g_star0, gamma0 = _hidden_quadratic(rng)
        rep = naq_exactness_check(hidden, g_star0, gamma0, beta1, h_bar, 50)
        worst = max(worst, rep.max_error_rel)
        worst_pred = max(worst_pred, float(np.max(rep.prediction_rel)))
    hidden, h_bar, g_star0, gamma0 = _hidden_quadratic(rng)
    control = naq_exactness_check(hidden, g_star0, gamma0, 0.9, h_bar, 50, phi=0.5)
    return [
        CheckRow("max_error_contraction_residual", worst, 0.0, math.nan, 50, worst < 1e-10),
        CheckRow("max_model_prediction_residual", worst_pred, 0.0, math.nan, 50,
                 worst_pred < 1e-10),
        CheckRow("negative_control_residual", control.max_error_rel, 0.0, math.nan, 50,
                 control.max_error_rel > 1e-3),
    ]


def _suite_step(seed: int) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    eps = 1e-8
    # Fixed limits [0, inf] lift the bounds, so |delta| is |g| / h_bar itself.
    cfg = AliceConfig(eps=eps, lam_min=0.0, lam_max=math.inf, limit_method="fixed")

    def step(g, h, rho):
        state = TopographyState.fresh(np.zeros(np.size(g)))
        state.g[:], state.h_abs[:], state.rho[:] = g, h, rho
        # Looked up at call time, so the suite checks whatever step Alice runs.
        return alice.apply_step(state, cfg)

    draws = [
        (rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.1, 10.0),
         rng.uniform(0.1, 10.0))
        for _ in range(1000)
    ]
    closed = np.abs(step(*np.array(draws).T).delta)
    worst = 0.0
    for magnitude, (g, h, rho) in zip(closed.tolist(), draws):
        reference = oracles.step_objective_argmin(g, h, rho)
        worst = max(worst, abs(magnitude - reference) / reference)
    h_vals = rng.uniform(0.1, 10.0, size=64)
    rho_zero_exact = bool(np.array_equal(step(np.ones(64), h_vals, 0.0).h_bar, h_vals + eps))
    h_zero = step(np.ones(64), 0.0, rng.uniform(0.1, 10.0, size=64))
    h_zero_exact = bool(np.array_equal(h_zero.h_bar, 2.0 * h_zero.h_glass + eps))
    return [
        CheckRow("step_vs_golden_section_max_rel_err", worst, 0.0, math.nan, 1000,
                 worst < 1e-6),
        CheckRow("collapsed_form_rho_zero_exact", float(rho_zero_exact), 1.0, 0.0, 64,
                 rho_zero_exact),
        CheckRow("collapsed_form_h_zero_exact", float(h_zero_exact), 1.0, 0.0, 64,
                 h_zero_exact),
    ]


def _walk_rows(kick: str, seed: int) -> list[CheckRow]:
    """The walk suite's two rows for one kick distribution, from its own seeded walk."""
    sim = oracles.SyntheticGlass1D(rho=1.0, lam=1.0, trials=100_000, seed=seed, kick=kick)
    res = oracles.glass_walk_expectation(sim)
    ratio = res.mean_abs / res.predicted_mean_abs
    var_ratio = res.variance / res.predicted_variance
    return [
        CheckRow(f"mean_abs_ratio_{kick}", ratio, 1.0, res.mean_abs_se, res.trials,
                 0.98 <= ratio <= 1.02),
        CheckRow(f"variance_ratio_{kick}", var_ratio, 1.0, res.variance_se, res.trials,
                 0.98 <= var_ratio <= 1.02),
    ]


def _suite_walk(seed: int) -> list[CheckRow]:
    return _walk_rows("gauss", seed) + _walk_rows("rademacher", seed)


VERIFY_SUITES = {
    "kernel": _suite_kernel,
    "glass": _suite_glass,
    "naq": _suite_naq,
    "step": _suite_step,
    "walk": _suite_walk,
}


def run_verify_suite(suite: str, seed: int = 0) -> list[CheckRow]:
    """Run one named verification suite (or all of them) and return its checks.

    "all" runs every suite in VERIFY_SUITES order, each through a call of
    the module-level run_verify_suite, so a wrapper installed there sees
    every suite.
    """
    check_seed(seed)
    if suite == "all":
        rows = []
        for name in VERIFY_SUITES:
            rows += run_verify_suite(name, seed)
        return rows
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {suite!r}, expected one of {(*VERIFY_SUITES, 'all')}")
    return VERIFY_SUITES[suite](seed)
