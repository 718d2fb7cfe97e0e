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
import functools
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
        self.seeds = tuple(self.seeds)
        if not self.seeds:
            raise ConfigError("seeds must be non-empty")
        repeated = sorted({s for s in self.seeds if self.seeds.count(s) > 1})
        if repeated:
            raise ConfigError(f"seeds must be distinct, got {repeated} more than once")
        negative = [s for s in self.seeds if isinstance(s, (int, np.integer)) and s < 0]
        if negative:
            raise ConfigError(f"seeds must be >= 0, got {negative}")
        checked = []
        for i, seed in enumerate(self.seeds):
            try:
                checked.append(check_seed(seed))
            except ConfigError as exc:
                raise ConfigError(f"seeds entry {i}: {exc}") from None
        self.seeds = tuple(checked)
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


def _parse_list(item):
    """A parser of comma-separated items: an empty value is (), an empty item an error."""

    def parse(raw: str) -> tuple:
        items = [v.strip() for v in raw.split(",")] if raw else []
        if "" in items:
            raise ValueError(f"empty item in {raw!r}")
        return tuple(item(v) for v in items)

    return parse


# key -> (section, attribute, parser)
_SCHEMA = {
    "name": (None, "name", str),
    "seeds": (None, "seeds", _parse_list(int)),
    "steps": (None, "steps", int),
    "batch_size": (None, "batch_size", int),
    "output_dir": (None, "output_dir", str),
    "optimizer": (None, "optimizer", str),
    "baseline_lr": (None, "baseline_lr", float),
    "model.widths": ("model", "layer_widths", _parse_list(int)),
    "model.loss": ("model", "loss", str),
    "alice.lam": ("alice", "lam", float),
    "alice.beta1": ("alice", "beta1", float),
    "alice.beta2": ("alice", "beta2", float),
    "alice.eps": ("alice", "eps", float),
    "alice.lam_min": ("alice", "lam_min", float),
    "alice.lam_max": ("alice", "lam_max", float),
    "alice.limit_method": ("alice", "limit_method", str),
    "alice.quick_steps": ("alice", "quick_steps", int),
    "alice.terms": ("alice", "terms", _parse_list(str)),
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


def _steps(spec, params, data, seed, batch_size, n_steps, optimizer, lr, label, alice_cfg=None):
    """Step params n_steps times, yielding (params, train_log.csv row) after each step.

    Each step draws one minibatch of batch_size (0 = full batch), which every
    gradient call of the step reads, then runs Alice.step or advances
    adam_iterates or sgdm_iterates by one. The row logs the step's last
    gradient call. wall_ms times the step itself: its minibatch, gradient
    calls and update. grad_evals is cumulative: Alice's own count (criterion
    C11), or the step number for adam and sgdm, which spend one gradient per
    step. A NumericsError is raised as "{label} step {t}: ...", and the step
    that raises yields no row. Alice's params are updated in place by later steps.
    """
    stream = _minibatch_stream(data, batch_size, seed)
    last = [math.nan, None]  # the loss and gradient of the latest gradient call

    def grad_fn(theta):
        last[:] = gradient(spec, theta, batch)
        return last[1]

    if optimizer == "alice":
        opt = Alice(params, alice_cfg, seed=seed)
        advance = functools.partial(opt.step, grad_fn)
    else:
        run = adam_iterates if optimizer == "adam" else sgdm_iterates
        iterates = run(params, grad_fn, lr=lr, n_steps=n_steps)
        advance = iterates.__next__
        advance()  # theta_0, which spends no gradient
    for t in range(1, n_steps + 1):
        tic = time.perf_counter()
        batch = next(stream)
        try:
            out = advance()
        except netkit.NumericsError as exc:
            raise netkit.NumericsError(f"{label} step {t}: {exc}") from exc
        wall_ms = (time.perf_counter() - tic) * 1e3
        if optimizer == "alice":
            params = opt.params
            stats = (_logged_stat(np.mean, opt.state.rho), _logged_stat(np.mean, out.h_bar),
                     out.clamped_low_fraction, out.clamped_high_fraction, opt.n_grad_evals)
        else:
            params, stats = out, (0.0, 0.0, 0.0, 0.0, t)
        yield params, (t, last[0], _logged_stat(np.linalg.norm, last[1]), *stats, wall_ms)


def _train_one(cfg: ExperimentConfig, seed: int, run_dir: Path) -> float:
    """Train one seed through _steps; a seed that raises keeps the rows of the steps before it."""
    data = task_batch(cfg, seed)
    rows = []
    try:
        for params, row in _steps(cfg.model, build_model(cfg.model, seed), data, seed,
                                  cfg.batch_size, cfg.steps, cfg.optimizer, cfg.baseline_lr,
                                  cfg.optimizer, cfg.alice):
            rows.append(row)
    finally:
        write_csv(run_dir / "train_log.csv", TRAIN_LOG_HEADER, rows)
    try:
        return loss(cfg.model, params, data)
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

    The 2 lam measurement runs on a netkit.lane while lam runs on this
    thread, so an error at lam is raised first. Each scale draws from its
    own Generator in its own order, so the report is that of the serial
    runs. Each scale counts its own gradient calls, so a gradient's
    NumericsError names its scale and sample, as in "probe lam = 0.002
    sample 17: ...", where sample 0 is the unperturbed gradient.
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

    with netkit.lane() as submit:
        at_2lam = submit(measure, 2.0 * probe.lam)
        meas_1 = measure(probe.lam)
        meas_2 = at_2lam.result()
    return power_law(meas_1, meas_2, default_partitions(spec))


def _warm_up(spec, data, seed, steps, lr, batch_size) -> np.ndarray:
    """The model at `seed` after `steps` minibatch Adam steps: train's adam run at lr, unlogged.

    It holds one iterate at a time, not the trajectory.
    """
    params = build_model(spec, seed)
    for params, _ in _steps(spec, params, data, seed, batch_size, steps, "adam", lr,
                            "probe warm-up"):
        pass
    return params


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
# Acceptance rules, and the verification suites made of them, used by the CLI
#
# Each rule function is the one definition of a criterion's check rows: their
# tolerance, their comparison and any scenario verify and the acceptance tests
# share. VERIFY_SUITES calls them at verify's seeds and counts, the tests at theirs.


def estimator_bias_row(density: str, res: oracles.AggregateBiasResult) -> CheckRow:
    """C3: the estimator's aggregate bias lies within 3 standard errors of zero."""
    z = res.aggregate_bias_z
    return CheckRow(f"zero_bias_z_{density}", z, 0.0, 1.0, res.n_samples, abs(z) < 3.0)


def estimator_variance_order_row(res_rad, res_nrm) -> CheckRow:
    """C3: Rademacher samples estimate the diagonal with no more variance than normal ones.

    res_rad and res_nrm are mc_estimator results on one test matrix.
    """
    mean_rad = float(np.mean(res_rad.variance))
    mean_nrm = float(np.mean(res_nrm.variance))
    return CheckRow("variance_rademacher_le_normal", mean_rad, mean_nrm, math.nan,
                    res_rad.n_samples, mean_rad <= mean_nrm)


def estimator_closed_form_row(res: oracles.McEstimatorResult, kspec, diagonal) -> CheckRow:
    """C3: the sampled estimator variance lies within 2% of its closed form."""
    closed = float(np.mean(estimator_variance(kspec, diagonal).per_sample))
    ratio = float(np.mean(res.variance)) / closed
    return CheckRow("variance_closed_form_ratio", ratio, 1.0, math.nan, res.n_samples,
                    abs(ratio - 1.0) < 0.02)


def update_probability_row(prob: float, n: int) -> CheckRow:
    """C4: the normal kernel restricted to |x| >= 1 updates with probability 0.3173 +- 0.002."""
    return CheckRow("restricted_update_probability", prob, 0.3173, 0.0002, n,
                    abs(prob - 0.3173) < 0.002)


def effective_variance_row(restricted: float, unrestricted: float, n: int) -> CheckRow:
    """C4: restricting the updates lowers the effective variance."""
    return CheckRow("restricted_effective_variance_lt_unrestricted", restricted, unrestricted,
                    math.nan, n, restricted < unrestricted)


def restricted_update_rows() -> list[CheckRow]:
    """C4 in closed form, for the normal kernel restricted to |x| >= 1.

    The quadrature constants follow, next to the nominal round numbers these
    kernels are often summarized with; a mismatch is reported, not failed.
    """
    k_unres = make_kernel("normal", 1.0)
    k_res = make_kernel("normal", 1.0, restrict=1.0)
    v_unres = estimator_variance(k_unres, 1.0)
    v_res = estimator_variance(k_res, 1.0)
    reported = (
        ("kernel_coefficient_unrestricted", 1.0 / k_unres.c, 2.0),
        ("variance_unrestricted", v_unres.per_sample, 3.0),
        ("kernel_coefficient_restricted", 1.0 / k_res.c, 1.40),
        ("effective_variance_restricted", v_res.per_draw, 2.60),
    )
    return [
        update_probability_row(update_probability("normal", 1.0), 1),
        effective_variance_row(v_res.per_draw, v_unres.per_draw, 1),
        *(CheckRow(f"reported_{name}", value, nominal, math.nan, 1, True)
          for name, value, nominal in reported),
    ]


def walk_rows(kick: str, seed: int, trials: int) -> list[CheckRow]:
    """C5: E|dL| and Var(dL) of the 1000-kink glass walk lie within 2% of their closed forms."""
    sim = oracles.SyntheticGlass1D(rho=1.0, lam=1.0, trials=trials, seed=seed, kick=kick)
    res = oracles.glass_walk_expectation(sim)
    ratio = res.mean_abs / res.predicted_mean_abs
    var_ratio = res.variance / res.predicted_variance
    return [
        CheckRow(f"mean_abs_ratio_{kick}", ratio, 1.0, res.mean_abs_se, res.trials,
                 0.98 <= ratio <= 1.02),
        CheckRow(f"variance_ratio_{kick}", var_ratio, 1.0, res.variance_se, res.trials,
                 0.98 <= var_ratio <= 1.02),
    ]


def step_rows(seed: int, n_argmin: int, n_collapsed: int) -> list[CheckRow]:
    """C6: Alice's step is the argmin of the per-coordinate step objective.

    n_argmin random (g, h, rho) rows match golden-section search within 1e-6
    relative, and n_collapsed rows with rho = 0 or h = 0 collapse exactly.
    """
    rng = np.random.default_rng(seed)
    eps = 1e-8
    # Fixed limits [0, inf] lift the bounds, so |delta| is |g| / h_bar itself.
    cfg = AliceConfig(eps=eps, lam_min=0.0, lam_max=math.inf, limit_method="fixed")

    def step(g, h, rho):
        state = TopographyState.fresh(np.zeros(np.size(g)))
        state.g[:], state.h_abs[:], state.rho[:] = g, h, rho
        # Looked up at call time, so the rule checks whatever step Alice runs.
        return alice.apply_step(state, cfg)

    draws = [
        (rng.uniform(0.1, 10.0) * rng.choice([-1.0, 1.0]), rng.uniform(0.1, 10.0),
         rng.uniform(0.1, 10.0))
        for _ in range(n_argmin)
    ]
    closed = np.abs(step(*np.array(draws).T).delta)
    worst = 0.0
    for magnitude, (g, h, rho) in zip(closed.tolist(), draws):
        reference = oracles.step_objective_argmin(g, h, rho)
        worst = max(worst, abs(magnitude - reference) / reference)
    h_vals = rng.uniform(0.1, 10.0, size=n_collapsed)
    ones = np.ones(n_collapsed)
    rho_zero_exact = bool(np.array_equal(step(ones, h_vals, 0.0).h_bar, h_vals + eps))
    h_zero = step(ones, 0.0, rng.uniform(0.1, 10.0, size=n_collapsed))
    h_zero_exact = bool(np.array_equal(h_zero.h_bar, 2.0 * h_zero.h_glass + eps))
    return [
        CheckRow("step_vs_golden_section_max_rel_err", worst, 0.0, math.nan, n_argmin,
                 worst < 1e-6),
        CheckRow("collapsed_form_rho_zero_exact", float(rho_zero_exact), 1.0, 0.0, n_collapsed,
                 rho_zero_exact),
        CheckRow("collapsed_form_h_zero_exact", float(h_zero_exact), 1.0, 0.0, n_collapsed,
                 h_zero_exact),
    ]


def hidden_quadratic(rng: np.random.Generator):
    """A random SPD hidden Hessian, its h_bar, g_star0 and gamma0, drawn in that order."""
    d = 50
    basis, _ = np.linalg.qr(rng.standard_normal((d, d)))
    hidden = basis @ np.diag(rng.uniform(0.5, 2.5, d)) @ basis.T
    h_bar = np.abs(np.diag(hidden)) + 1.0
    return hidden, h_bar, rng.standard_normal(d), 0.1 * rng.standard_normal(d)


def naq_rows(reports, control, n_steps: int) -> list[CheckRow]:
    """C7: accelerated steps are exact, and a wrong phi (the control) fails loudly.

    Over the naq_exactness_check reports, none diverges and both residuals
    stay below 1e-10 relative; the control report's error residual exceeds 1e-3.
    """
    worst = max(r.max_error_rel for r in reports)
    worst_pred = max(float(np.max(r.prediction_rel)) for r in reports)
    exact = worst < 1e-10 and not any(r.diverged for r in reports)
    return [
        CheckRow("max_error_contraction_residual", worst, 0.0, math.nan, n_steps, exact),
        CheckRow("max_model_prediction_residual", worst_pred, 0.0, math.nan, n_steps,
                 worst_pred < 1e-10),
        CheckRow("negative_control_residual", control.max_error_rel, 0.0, math.nan, n_steps,
                 control.max_error_rel > 1e-3),
    ]


def least_squares_rows(seed: int, n_seeds: int) -> list[CheckRow]:
    """C9: the full diagonal quasi-Newton step overshoots and the damped step descends.

    Both hold on underdetermined least squares at each of the n_seeds seeds from seed on.
    """
    reports = [oracles.underdetermined_ls(s) for s in range(seed, seed + n_seeds)]
    overshoots = sum(r.loss_full_step > r.loss_initial for r in reports)
    descents = sum(r.loss_damped_step < r.loss_initial for r in reports)
    return [
        CheckRow("least_squares_full_step_overshoots", float(overshoots), float(n_seeds),
                 math.nan, n_seeds, overshoots == n_seeds),
        CheckRow("least_squares_damped_step_descends", float(descents), float(n_seeds),
                 math.nan, n_seeds, descents == n_seeds),
    ]


def expected_grad_evals(quick_steps: int, steps: int) -> int:
    """C11's count of Alice's gradients: 3 per full step, 1 per quick step, full steps first."""
    return steps + 2 * math.ceil(steps / (quick_steps + 1))


def grad_eval_rows(quick_steps: int, steps: int) -> list[CheckRow]:
    """C11: Alice spends expected_grad_evals(quick_steps, steps) gradients over steps steps.

    Alice trains a small regression net through a gradient that counts its
    own calls; the row passes when that count, Alice's n_grad_evals and the
    formula agree.
    """
    spec = ModelSpec((4, 8, 2))
    batch = make_regression_batch(DataParams(samples=16), 4, 2, 0)
    calls = 0

    def counted(theta):
        nonlocal calls
        calls += 1
        return gradient(spec, theta, batch)[1]

    opt = Alice(build_model(spec, 0), AliceConfig(lam=1e-3, quick_steps=quick_steps), seed=0)
    for _ in range(steps):
        opt.step(counted)
    expected = expected_grad_evals(quick_steps, steps)
    return [CheckRow(f"grad_evals_quick_steps_{quick_steps}", float(calls), float(expected), 0.0,
                     steps, calls == opt.n_grad_evals == expected)]


def glass_rows(seed: int, n_small: int, n_large: int) -> list[CheckRow]:
    """C10: v(delta) <= R |delta| on >= 99% of coordinates for small steps, not for large ones."""
    scenario = oracles.build_uniform_preactivation_net(seed=seed)
    small = oracles.mc_variation(scenario, 5e-5, n_small, seed + 1)
    large = oracles.mc_variation(scenario, 0.5, n_large, seed + 2)
    return [
        CheckRow("variation_bound_coverage_small_step", small.fraction_within, 1.0,
                 math.nan, small.n_samples, small.fraction_within >= 0.99),
        CheckRow("precondition_violations_small_step", small.precondition_violation_fraction,
                 0.0, math.nan, small.n_samples, small.precondition_violation_fraction < 0.01),
        CheckRow("variation_bound_violated_large_step", large.fraction_within, 1.0,
                 math.nan, large.n_samples, large.fraction_within < 0.99),
    ]


def _suite_kernel(seed: int) -> list[CheckRow]:
    rows = []
    c_rad = kernel_constant("rademacher", 1.0)
    rows.append(CheckRow("kernel_constant_rademacher_w2_1", c_rad, 0.5, 0.0, 1, c_rad == 0.5))
    c_zero = kernel_constant("normal", 0.0)
    rows.append(CheckRow("kernel_constant_any_density_w2_0", c_zero, 1.0, 0.0, 1, c_zero == 1.0))

    tm = oracles.TestMatrix.random_diag_dominant(200, seed)
    kernels = {density: make_kernel(density, tm.dominance) for density in ("rademacher", "normal")}
    for density, kspec in kernels.items():
        res = oracles.mc_aggregate_bias(tm, kspec, 10_000, seed + 1)
        rows.append(estimator_bias_row(density, res))
    res_rad = oracles.mc_estimator(tm, kernels["rademacher"], 100_000, seed + 2)
    res_nrm = oracles.mc_estimator(tm, kernels["normal"], 100_000, seed + 2)
    rows.append(estimator_variance_order_row(res_rad, res_nrm))
    rows.append(estimator_closed_form_row(res_rad, kernels["rademacher"], tm.diagonal))
    return rows + restricted_update_rows()


def _suite_naq(seed: int) -> list[CheckRow]:
    rng = np.random.default_rng(seed)

    def check(beta1, phi=None):
        hidden, h_bar, g_star0, gamma0 = hidden_quadratic(rng)
        return naq_exactness_check(hidden, g_star0, gamma0, beta1, h_bar, 50, phi=phi)

    # beta1 values chosen so beta1^50 stays well above machine epsilon; the
    # relative comparison is vacuous once the expected error underflows.
    reports = [check(beta1) for beta1 in (0.9, 0.95, 0.99)]
    return naq_rows(reports, check(0.9, phi=0.5), 50)


# Looked up at call time, so a rule function patched on the module runs in its suite.
VERIFY_SUITES = {
    "kernel": _suite_kernel,
    "glass": lambda seed: glass_rows(seed, 2000, 200),
    "naq": _suite_naq,
    "step": lambda seed: (step_rows(seed, 1000, 100) + least_squares_rows(seed, 20)
                          + grad_eval_rows(3, 12)),
    "walk": lambda seed: walk_rows("gauss", seed, 100_000) + walk_rows("rademacher", seed, 100_000),
}


def run_verify_suite(suite: str, seed: int = 0) -> list[CheckRow]:
    """Run one named verification suite (or all of them) and return its checks.

    "all" runs every suite through a call of the module-level
    run_verify_suite, so a wrapper installed there sees every suite: the
    kernel suite, the longest and first in VERIFY_SUITES, on a netkit.lane
    process worker, and the others in this process meanwhile. Each suite
    draws from its own seeded generators and shares no state with the others,
    so the rows are those of the suites run alone, in VERIFY_SUITES order, and
    an error is raised at its suite's position: the kernel suite's wins over
    any later one. A worker that dies raises a RuntimeError that names the
    kernel suite. No process outlives the call.
    """
    check_seed(seed)
    if suite == "all":
        from concurrent.futures import BrokenExecutor

        with netkit.lane(process=True) as submit:
            kernel = submit(run_verify_suite, "kernel", seed)
            try:
                rest = [row for name in VERIFY_SUITES if name != "kernel"
                        for row in run_verify_suite(name, seed)]
            finally:
                try:
                    rows = kernel.result()
                except BrokenExecutor as exc:
                    raise RuntimeError("verify suite 'kernel': its worker process died") from exc
        return rows + rest
    if suite not in VERIFY_SUITES:
        raise ConfigError(f"unknown suite {suite!r}, expected one of {(*VERIFY_SUITES, 'all')}")
    return VERIFY_SUITES[suite](seed)
