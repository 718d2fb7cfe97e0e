"""Command-line interface.

Subcommands:
  verify    run a named oracle suite and print a pass/fail table
  probe     run the two-scale power-law probe from a config file
  train     run a multi-seed training experiment from a config file

All outputs are plain CSV plus a text manifest; nothing is interactive.
Exit codes: 0 all checks passed, 1 an assertion failed, 2 usage or config
error. Every command is deterministic given --seed. The output directory is
--out, else the config's output_dir, else $GLASSOPT_OUT, else ./runs.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__, harness
from .harness import write_report
from .netkit import ConfigError, check_seed


def print_rows(rows) -> bool:
    """Print one PASS/FAIL line per row, ending in its rule; True if every row passed."""
    width = max(len(r.quantity) for r in rows)
    ok = True
    for r in rows:
        status = "PASS" if r.passed else "FAIL"
        ok &= r.passed
        se = "" if math.isnan(r.std_error) else f"  se={r.std_error:.3g}"
        print(f"[{status}] {r.quantity:<{width}}  empirical={r.empirical:.8g}  "
              f"predicted={r.predicted:.8g}{se}  n={r.n}  rule: {r.rule}")
    return ok


def cmd_verify(args) -> int:
    rows = harness.run_verify_suite(args.suite, args.seed)
    ok = print_rows(rows)
    out = harness.resolve_output_dir(None, args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / f"verify_{args.suite}.csv", rows, args.seed)
    print(f"{'all checks passed' if ok else 'FAILURES detected'}; "
          f"report written to {out / f'verify_{args.suite}.csv'}")
    return 0 if ok else 1


def _run_config(args, runner) -> harness.RunSummary:
    """Run runner on every seed of the --config experiment; a bad config writes nothing."""
    return harness.run_experiment(harness.load_config(args.config), runner, args.out)


def _exit_code(summary: harness.RunSummary) -> int:
    """1 after printing each failed seed's error, else 0."""
    for message in summary.errors:
        print(f"error: {message}", file=sys.stderr)
    return 1 if summary.errors else 0


def cmd_probe(args) -> int:
    summary = _run_config(args, harness._run_powerlaw)
    for seed, metric in summary.per_seed:
        report = summary.base / f"seed_{seed}" / "powerlaw.csv"
        print(f"seed {seed}: median p = {metric:.4g}  ({report})")
    return _exit_code(summary)


def cmd_train(args) -> int:
    summary = _run_config(args, harness._train_one)
    for seed, metric in summary.per_seed:
        print(f"seed {seed}: final metric = {metric:.8g}")
    print(f"aggregate (min, median, max) = ({summary.minimum:.8g}, "
          f"{summary.median:.8g}, {summary.maximum:.8g})")
    print(f"artifacts in {summary.base}")
    return _exit_code(summary)


def seed(raw: str) -> int:
    """A --seed value: a nonnegative int, as numpy's generators and config seeds take."""
    try:
        return check_seed(int(raw))
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glassopt",
        description="Glass-aware curvature probes, optimizers, and their oracle checks.",
    )
    parser.add_argument("--version", action="version", version=f"glassopt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run an oracle verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=[*harness.VERIFY_SUITES, "all"])
    p_verify.add_argument("--seed", type=seed, default=0)
    p_verify.add_argument("--out", default="")
    p_verify.set_defaults(fn=cmd_verify)

    p_probe = sub.add_parser("probe", help="run the power-law probe from a config")
    p_probe.add_argument("--config", required=True)
    p_probe.add_argument("--out", default="")
    p_probe.set_defaults(fn=cmd_probe)

    p_train = sub.add_parser("train", help="run a multi-seed training experiment")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out", default="")
    p_train.set_defaults(fn=cmd_train)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
