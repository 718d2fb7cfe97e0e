import csv
import dataclasses
import importlib.util
import json
import math
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from glassopt import cli, harness
from glassopt.harness import ExperimentConfig, serialize_config
from glassopt.netkit import ConfigError, ModelSpec


def write_config(tmp_path, cfg, name="run.cfg"):
    path = tmp_path / name
    path.write_text(serialize_config(cfg))
    return path


class TestVerifyCommand:
    def test_step_suite_passes(self, tmp_path, capsys):
        code = cli.main(["verify", "--suite", "step", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and "[FAIL]" not in out
        assert (tmp_path / "verify_step.csv").exists()

    def test_report_rows_carry_rule_verdict_and_seed(self, tmp_path, monkeypatch):
        argv = ["verify", "--suite", "step", "--seed", "5", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        with open(tmp_path / "verify_step.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == list(harness.REPORT_HEADER)
        assert [(r["passed"], r["seed"]) for r in rows] == [("True", "5")] * len(rows) != []
        fake = harness.CheckRow("fake", 2.0, 0.0, math.nan, 1, harness.Rule("<", 1.0))
        monkeypatch.setitem(harness.VERIFY_SUITES, "step", lambda seed: [fake])
        assert cli.main(argv) == 1
        # The later run replaces the report.
        assert (tmp_path / "verify_step.csv").read_text().splitlines()[1:] == [
            "fake,2.0,0.0,nan,1,x < 1.0,False,5"]

    def test_perfbench_reads_the_report(self, tmp_path, capsys, monkeypatch):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
        spec = importlib.util.spec_from_file_location("perfbench_checks", path)
        checks = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(checks)

        def verify():
            code = cli.main(["verify", "--suite", "step", "--out", str(tmp_path)])
            return code, checks.check_verify(capsys.readouterr().out, tmp_path / "verify_step.csv")

        assert verify() == (0, [])
        real = harness.grad_eval_rows
        monkeypatch.setattr(harness, "grad_eval_rows", lambda quick_steps, steps: [
            dataclasses.replace(row, rule=harness.Rule("<", 0.0))
            if row.quantity.startswith("alice_") else row for row in real(quick_steps, steps)])
        assert verify() == (1, ["verify row alice_grad_evals_quick_steps_3: FAIL"])

    def test_unknown_suite_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["verify", "--suite", "bogus"])
        assert excinfo.value.code == 2


    @pytest.mark.parametrize("outcome, code", [("pass", 0), ("fail", 1), ("config error", 2)])
    def test_all_leaves_no_process_behind(self, tmp_path, capsys, monkeypatch, outcome, code):
        def walk_rows(kick, seed, trials):
            if kick == "gauss" and outcome == "config error":
                raise ConfigError("no walk")
            return [harness.CheckRow(kick, 0.0, 0.0, 0.0, 1,
                                     harness.Rule("==", 0.0 if outcome == "pass" else 1.0))]

        monkeypatch.setattr(harness, "walk_rows", walk_rows)
        for name in ("kernel", "glass", "naq", "step"):
            monkeypatch.setitem(harness.VERIFY_SUITES, name, lambda seed: [])
        assert cli.main(["verify", "--suite", "all", "--out", str(tmp_path)]) == code
        assert multiprocessing.active_children() == []
        assert ("config error: no walk" in capsys.readouterr().err) == (outcome == "config error")

    def test_all_flushes_before_it_forks(self):
        # Piped stdout is block-buffered, so "started" is still in the buffer
        # when the kernel-suite worker is forked; unflushed, the worker would
        # print it again as it exits. multiprocessing's fork start flushes
        # too, undocumented, so this test cannot tell the two flushes apart.
        script = textwrap.dedent("""
            from glassopt import harness
            for name in harness.VERIFY_SUITES:
                harness.VERIFY_SUITES[name] = lambda seed: [
                    harness.CheckRow("", 0, 0, 0, 1, harness.Rule("reported"))]
            print("started")
            print(len(harness.run_verify_suite("all")))
        """)
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "started\n5\n", "")


@pytest.mark.parametrize("command", [["verify", "--suite", "naq"]])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    out = tmp_path / "DIR"
    with pytest.raises(SystemExit) as excinfo:
        cli.main([*command, "--seed", "-1", "--out", str(out)])
    assert excinfo.value.code == 2
    assert "argument --seed: seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_is_no_command():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["simulate", "glass-walk"])
    assert excinfo.value.code == 2


class TestTrainCommand:
    def test_tiny_training_run(self, tmp_path, capsys):
        cfg = ExperimentConfig(
            name="cli_train",
            seeds=(0, 1),
            steps=3,
            model=ModelSpec((3, 6, 2)),
        )
        path = write_config(tmp_path, cfg)
        code = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert "aggregate (min, median, max)" in capsys.readouterr().out
        assert (tmp_path / "out" / "cli_train" / "summary.csv").exists()

    def test_distinct_term_configs_produce_distinct_logs(self, tmp_path):
        logs = {}
        for label, terms in (("rho", ("rho",)), ("habs", ("h_abs",))):
            cfg = ExperimentConfig(
                name=f"terms_{label}",
                seeds=(0,),
                steps=4,
                batch_size=0,
                model=ModelSpec((3, 6, 2)),
            )
            cfg.alice.terms = terms
            cfg.alice.lam_max = 0.05
            path = write_config(tmp_path, cfg, f"{label}.cfg")
            assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
            log = (tmp_path / "o" / f"terms_{label}" / "seed_0" / "train_log.csv").read_text()
            logs[label] = [",".join(line.split(",")[:-1]) for line in log.splitlines()]
        assert logs["rho"] != logs["habs"]

    def test_loss_without_widths_exits_two(self, tmp_path, capsys):
        path = tmp_path / "loss.cfg"
        path.write_text("model.loss = xent\n")
        assert cli.main(["train", "--config", str(path)]) == 2
        assert f"config error: {path}: model.widths is required\n" == capsys.readouterr().err

    def test_task_key_exits_two(self, tmp_path, capsys):
        path = tmp_path / "task.cfg"
        path.write_text("model.widths = 3,4,2\ntask = powerlaw-probe\n")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"config error: {path}:2: unknown key 'task'\n" == capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = cli.main(["train", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert "config error" in capsys.readouterr().err


class TestProbeCommand:
    def test_probe_writes_powerlaw_csv(self, tmp_path):
        cfg = ExperimentConfig(
            name="cli_probe",
            seeds=(0,),
            batch_size=32,
            model=ModelSpec((4, 8, 8, 3), "xent"),
        )
        cfg.data.samples = 100
        cfg.probe.samples = 8
        cfg.probe.warmup_steps = 5
        path = write_config(tmp_path, cfg)
        reports = []
        for out in ("out", "again"):
            code = cli.main(["probe", "--config", str(path), "--out", str(tmp_path / out)])
            assert code == 0
            reports.append((tmp_path / out / "cli_probe" / "seed_0" / "powerlaw.csv").read_bytes())
        assert reports[0].startswith(b"partition,sum_v_lambda,sum_v_2lambda,p")
        assert reports[0] == reports[1]

    def test_malformed_config_line_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("name = x\nalice.bogus = 3\n")
        code = cli.main(["probe", "--config", str(path)])
        assert code == 2
        err = capsys.readouterr().err
        assert ":2:" in err and "alice.bogus" in err


class TestOutputDir:
    def test_out_then_env_then_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv(harness.OUTPUT_ENV, raising=False)
        assert cli.main(["verify", "--suite", "step"]) == 0
        assert (tmp_path / "runs" / "verify_step.csv").exists()
        monkeypatch.setenv(harness.OUTPUT_ENV, str(tmp_path / "env"))
        assert cli.main(["verify", "--suite", "step"]) == 0
        assert (tmp_path / "env" / "verify_step.csv").exists()
        assert cli.main(["verify", "--suite", "step", "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "verify_step.csv").exists()

    def test_config_output_dir_between_out_and_env(self, tmp_path, monkeypatch, capsys):
        cfg = ExperimentConfig(name="o", steps=1, batch_size=0,
                               output_dir=str(tmp_path / "cfg"), model=ModelSpec((3, 6, 2)))
        cfg.data.samples = 16
        path = write_config(tmp_path, cfg)
        monkeypatch.setenv(harness.OUTPUT_ENV, str(tmp_path / "env"))
        for flag, root in (([], "cfg"), (["--out", str(tmp_path / "flag")], "flag")):
            assert cli.main(["train", "--config", str(path), *flag]) == 0
            assert f"artifacts in {tmp_path / root / 'o'}\n" in capsys.readouterr().out
            assert (tmp_path / root / "o" / "summary.csv").exists()
        assert not (tmp_path / "env").exists()


@pytest.mark.parametrize("command", ["train", "probe"])
def test_config_without_widths_exits_two_before_writing(tmp_path, capsys, command):
    path = tmp_path / "no_widths.cfg"
    path.write_text("name = nw\nsteps = 2\n")
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: model.widths is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["--version"])
    assert excinfo.value.code == 0


# Runs glassopt commands in a fresh interpreter whose imports of scipy fail,
# then reports each exit code, any scipy module that got loaded anyway,
# whether numpy.ma (which np.median imports on first use) was loaded, and,
# after the import of glassopt.cli and after each command, which process-pool
# modules were loaded (only a process lane loads them), whether
# concurrent.futures was loaded and whether BLAS's thread functions were
# looked up: netkit.lane does both when a lane first opens, and nothing else.
_SCIPY_BLOCKED = textwrap.dedent(
    """
    import importlib.abc, json, sys

    class BlockScipy(importlib.abc.MetaPathFinder):
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is blocked")
            return None

    sys.meta_path.insert(0, BlockScipy())
    from glassopt import cli, netkit

    def lanes():
        return ["concurrent.futures" in sys.modules, netkit._blas_threads.cache_info().currsize]

    def process_lane():
        return [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]

    opened, process = [lanes()], [process_lane()]
    codes = []
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
        opened.append(lanes())
        process.append(process_lane())
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    print(json.dumps({"codes": codes, "scipy": loaded, "numpy.ma": "numpy.ma" in sys.modules,
                      "process lane": process, "lanes opened": opened}))
    """
)


class TestImportGuard:
    def test_commands_run_without_scipy(self, tmp_path):
        train = ExperimentConfig(name="t", seeds=(0,), steps=3, batch_size=16,
                                 model=ModelSpec((4, 8, 3), "xent"))
        train.data.samples = 60
        probe = ExperimentConfig(name="p", seeds=(0,), batch_size=16,
                                 model=ModelSpec((4, 8, 8, 3), "xent"))
        probe.data.samples = 60
        probe.probe.samples = 4
        probe.probe.warmup_steps = 2
        out = str(tmp_path / "out")
        argvs = [
            ["train", "--config", str(write_config(tmp_path, train, "train.cfg")), "--out", out],
            ["verify", "--suite", "kernel", "--out", out],
            ["probe", "--config", str(write_config(tmp_path, probe, "probe.cfg")), "--out", out],
            ["verify", "--suite", "all", "--out", out],
        ]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_BLOCKED, json.dumps(argvs)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        # train opens no lane, so it leaves BLAS's thread count alone; the
        # kernel suite's normal-draw lane is the first to open. verify --suite
        # all, run last, is the one command that loads a process lane.
        assert report == {"codes": [0, 0, 0, 0], "scipy": [], "numpy.ma": False,
                          "process lane": [[]] * 4 + [["multiprocessing",
                                                       "concurrent.futures.process"]],
                          "lanes opened": [[False, 0], [False, 0]] + [[True, 1]] * 3}
        assert (tmp_path / "out" / "p" / "seed_0" / "powerlaw.csv").exists()
