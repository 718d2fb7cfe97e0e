import csv
import dataclasses
import itertools
import math
import multiprocessing
import os
import pickle
import re
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pins
from glassopt import alice, glass, harness, netkit
from glassopt.alice import CURVATURE_TERMS, LIMIT_METHODS, Alice, AliceConfig, reference_adam
from glassopt.harness import (
    DataParams,
    ExperimentConfig,
    ProbeParams,
    Rule,
    aggregate,
    default_partitions,
    load_config,
    parse_config,
    powerlaw_experiment,
    run_experiment,
    serialize_config,
)
from glassopt.netkit import Batch, ConfigError, ModelSpec, NumericsError

DOCS_CONFIGS = Path(__file__).resolve().parents[1] / "docs" / "configs"
README = Path(__file__).resolve().parents[1] / "README.md"


def _tiny_regression(name, seeds=(0,)):
    """Two full-batch steps on 16 samples: a run that is cheap and needs no oracle."""
    return ExperimentConfig(
        name=name, seeds=seeds, steps=2, batch_size=0,
        model=ModelSpec((3, 6, 2)), data=DataParams(samples=16),
    )


def _positive():
    return st.floats(0.0, 1e3, exclude_min=True)


@st.composite
def config_fields(draw):
    """ExperimentConfig fields the constructors accept, with or without naq."""
    widths = tuple(draw(st.lists(st.integers(1, 64), min_size=3, max_size=6)))
    losses = ("mse", "xent") if widths[-1] > 1 else ("mse",)
    model = ModelSpec(widths, draw(st.sampled_from(losses)))
    lam_max = draw(_positive())
    alice = AliceConfig(
        lam=draw(_positive()), beta1=draw(st.floats(0.0, 1.0, exclude_max=True)),
        beta2=draw(st.floats(0.0, 1.0, exclude_max=True)),
        eps=draw(_positive()), lam_min=draw(st.floats(0.0, lam_max)),
        lam_max=lam_max, limit_method=draw(st.sampled_from(LIMIT_METHODS)),
        quick_steps=draw(st.integers(0, 10)),
        terms=tuple(draw(st.lists(st.sampled_from(CURVATURE_TERMS), max_size=3).filter(
            lambda terms: not {"h_abs", "h_rms"} <= set(terms)))), naq=draw(st.booleans()),
    )
    data = DataParams(
        samples=draw(st.integers(1, 10**6)),
        noise=draw(st.floats(0.0, 1e3)), center_scale=draw(st.floats(-1e3, 1e3)),
        label_flip=draw(st.floats(0.0, 1.0)),
    )
    probe = harness.ProbeParams(
        lam=draw(_positive()), samples=draw(st.integers(1, 1000)),
        warmup_steps=draw(st.integers(0, 1000)), warmup_lr=draw(_positive()),
    )
    return dict(
        name=draw(st.text("abxyz019_-.", min_size=1, max_size=10).filter(
            lambda n: n not in (".", ".."))),
        seeds=tuple(draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4,
                                  unique=True))),
        steps=draw(st.integers(1, 10**6)), batch_size=draw(st.integers(0, 4096)),
        optimizer=draw(st.sampled_from(harness.OPTIMIZERS)), baseline_lr=draw(_positive()),
        model=model, alice=alice, data=data, probe=probe,
    )


FLOAT_KEYS = [key for key, (_, _, parser) in harness._SCHEMA.items() if parser is float]
NON_FINITE = st.sampled_from((math.inf, -math.inf, math.nan))


def _with_floats(fields, spoilt):
    """ExperimentConfig(**fields) with each (dotted key, value) of spoilt set first."""
    fields = dict(fields)
    for key, value in spoilt:
        section, attr, _ = harness._SCHEMA[key]
        if section is None:
            fields[key] = value
        else:
            fields[section] = dataclasses.replace(fields[section], **{attr: value})
    return ExperimentConfig(**fields)


# The characters str.splitlines breaks a line at, and those str.strip removes.
LINE_BREAKS = [c for c in map(chr, range(0x3000)) if len(f"a{c}b".splitlines()) == 2]
WHITESPACE = [c for c in map(chr, range(0x3001)) if c.isspace()]


@st.composite
def fields_with_unparsable_name(draw):
    """(fields, message): valid config fields with the name spoilt for a manifest.

    The name gets a '#' anywhere, whitespace at one end, or a line break
    inside; message is the start of the ConfigError each must raise.
    """
    fields = draw(config_fields())
    name = fields["name"]
    kind = draw(st.sampled_from(("#", "edge", "break")))
    if kind == "#":
        at = draw(st.integers(0, len(name)))
        fields["name"] = name[:at] + "#" + name[at:]
        return fields, "name must not contain '#'"
    if kind == "edge":
        space = draw(st.sampled_from(WHITESPACE))
        fields["name"] = draw(st.sampled_from((space + name, name + space)))
        return fields, "name must not start or end with whitespace"
    name = f"x{name}x"
    at = draw(st.integers(1, len(name) - 1))
    fields["name"] = name[:at] + draw(st.sampled_from(LINE_BREAKS)) + name[at:]
    return fields, "name must not contain a line break"


class TestAggregate:
    def test_single_value(self):
        assert aggregate([3.0]) == (3.0, 3.0, 3.0)

    def test_even_count_median_is_middle_mean(self):
        assert aggregate([1.0, 2.0, 3.0, 4.0]) == (1.0, 2.5, 4.0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            aggregate([])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=12), st.randoms())
    def test_permutation_invariant(self, values, rng):
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert aggregate(shuffled) == aggregate(values)

    @pytest.mark.parametrize("values", itertools.permutations([1.0, math.nan, 2.0]))
    def test_failed_seed_makes_every_statistic_nan(self, values):
        assert all(math.isnan(v) for v in aggregate(values))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, width=64), min_size=1, max_size=12))
    @example([1e308, 1e308])
    @example([0.1, 0.2])
    @example([-0.0])
    @example([-0.0, -0.0])
    def test_median_matches_numpy_bitwise(self, values):
        with np.errstate(over="ignore"):
            want = float(np.median(values))
        assert repr(harness.median(values)) == repr(want)


class TestConfigFormat:
    def _full_config(self):
        return ExperimentConfig(
            name="demo",
            seeds=(3, 1, 4),
            steps=17,
            batch_size=32,
            optimizer="alice",
            model=ModelSpec((5, 8, 8, 3), "xent"),
            alice=AliceConfig(lam=0.004, beta1=0.85, lam_max=0.02, terms=("rho",), naq=True),
            data=DataParams(samples=300, noise=1.5),
        )

    def test_round_trip(self):
        cfg = self._full_config()
        assert parse_config(serialize_config(cfg)) == cfg

    @settings(max_examples=200, deadline=None)
    @given(config_fields(), st.lists(st.tuples(st.sampled_from(FLOAT_KEYS), NON_FINITE), max_size=2))
    @example({"alice": AliceConfig()}, [("alice.lam_max", math.inf)])
    def test_round_trip_property(self, fields, spoilt):
        # A config built with a non-finite float is refused, because no
        # manifest could carry it back; every other one round-trips.
        try:
            cfg = _with_floats(fields, spoilt)
        except ConfigError:
            assert spoilt
            return
        assert not spoilt
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"alice": AliceConfig(lam_max=math.inf)}, "alice.lam_max must be finite, got inf"),
            ({"baseline_lr": math.inf}, "baseline_lr must be finite, got inf"),
            ({"data": DataParams(center_scale=-math.inf)},
             "data.center_scale must be finite, got -inf"),
            ({"probe": harness.ProbeParams(lam=math.inf)}, "probe.lam must be finite, got inf"),
        ],
        ids=["alice", "top", "data", "probe"],
    )
    def test_non_finite_float_in_code_names_the_key(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}$"):
            ExperimentConfig(**fields)

    def test_seeds_in_code_take_the_seed_rule(self):
        model = ModelSpec((3, 4, 2))
        with pytest.raises(ConfigError, match=r"^seeds entry 1: seed must be an integer, got 2.7$"):
            ExperimentConfig(seeds=(0, 2.7), model=model)
        with pytest.raises(ConfigError, match=r"^seeds entry 0: seed must be an integer, got 'a'$"):
            ExperimentConfig(seeds=("a",), model=model)
        seeds = ExperimentConfig(seeds=(np.int64(2),), model=model).seeds
        assert seeds == (2,) and type(seeds[0]) is int

    @settings(max_examples=100, deadline=None)
    @given(fields_with_unparsable_name())
    @example(({"name": " a"}, "name must not start or end with whitespace"))
    @example(({"name": "a\x0cb"}, "name must not contain a line break"))
    @example(({"name": "o\nseeds = 5"}, "name must not contain a line break"))
    def test_unparsable_name_rejected(self, case):
        # parse_config cuts a '#' off as a comment, strips each value and reads
        # line by line, so a manifest could not carry any of these back.
        fields, message = case
        with pytest.raises(ConfigError, match=f"^{message}"):
            ExperimentConfig(**fields)

    @pytest.mark.parametrize("name", sorted(path.name for path in DOCS_CONFIGS.glob("*.cfg")))
    def test_docs_config_round_trips(self, name):
        cfg = load_config(DOCS_CONFIGS / name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_readme_config_table_lists_the_schema(self):
        # The first column of the table under "| key | meaning |" names the keys.
        lines = README.read_text().splitlines()
        start = lines.index("| key | meaning |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("|"), lines[start:])
        keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
        assert sorted(keys) == sorted(harness._SCHEMA)

    def test_schema_keys_are_the_config_fields(self):
        # Every config field is set by exactly one key, and every key sets one field.
        sections = {"model": ModelSpec, "alice": AliceConfig, "data": DataParams,
                    "probe": ProbeParams}
        fields = [(None, f.name) for f in dataclasses.fields(ExperimentConfig)
                  if f.name not in sections]
        fields += [(section, f.name) for section, cls in sections.items()
                   for f in dataclasses.fields(cls)]
        targets = [(section, attr) for section, attr, _ in harness._SCHEMA.values()]
        assert sorted(map(repr, targets)) == sorted(map(repr, fields))

    def test_unknown_key_reports_line(self):
        text = "name = x\nmodel.widths = 3,4,2\nbogus_key = 1\n"
        with pytest.raises(ConfigError, match=r":3: unknown key 'bogus_key'"):
            parse_config(text)

    def test_bad_value_reports_line_and_field(self):
        with pytest.raises(ConfigError, match=r":2: bad value for 'steps'"):
            parse_config("name = x\nsteps = soon\n")

    @pytest.mark.parametrize(
        "key, raw", [("model.widths", "3,,4,2"), ("seeds", "0,,1"), ("alice.terms", "rho,,")]
    )
    def test_empty_list_item_reports_line_and_field(self, key, raw):
        text = f"name = x\n{key} = {raw}\n"
        if key != "model.widths":
            text += "model.widths = 3,4,2\n"
        with pytest.raises(ConfigError, match=rf"^<config>:2: bad value for '{key}': empty item"):
            parse_config(text)

    def test_empty_terms_value_stays_legal(self):
        # The manifest writes "alice.terms = " for no terms and parses it back.
        assert parse_config("model.widths = 3,4,2\nalice.terms = \n").alice.terms == ()

    def test_missing_equals_reports_line(self):
        with pytest.raises(ConfigError, match=r":1: expected 'key = value'"):
            parse_config("just some words\n")

    def test_repeated_key_reports_both_lines(self):
        with pytest.raises(ConfigError, match=r":3: key 'steps' repeated \(first set on line 1\)"):
            parse_config("steps = 5\nname = x\nsteps = 6\n")

    def test_repeated_seed_rejected(self):
        with pytest.raises(ConfigError, match=r":2: seeds must be distinct, got \[1\]"):
            parse_config("name = x\nseeds = 1,2,1\n")

    def test_negative_seed_names_its_entry(self):
        # check_seed is the one negative-seed rule; the config names the entry it failed.
        with pytest.raises(ConfigError) as excinfo:
            parse_config("name = x\nseeds = 0,-1\nmodel.widths = 3,4,2\n")
        assert str(excinfo.value) == "<config>:2: seeds entry 1: seed must be >= 0, got -1"

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("batch_size", "-5"),
            ("seeds", "-1"),
            ("seeds", "0,-3"),
            ("data.samples", "0"),
            ("probe.samples", "0"),
            ("data.label_flip", "2"),
            ("data.label_flip", "-0.1"),
            ("data.label_flip", "nan"),
            ("name", "../../x"),
            ("name", "a/b"),
            ("name", "/"),
            ("name", "."),
            ("name", ".."),
            ("baseline_lr", "0"),
            ("baseline_lr", "-1"),
            ("data.noise", "-2"),
            ("data.noise", "nan"),
            ("probe.lam", "0"),
            ("probe.lam", "-1"),
            ("probe.warmup_steps", "-3"),
            ("probe.warmup_lr", "0"),
            ("probe.warmup_lr", "-1"),
            ("alice.lam", "0"),
            ("alice.beta1", "1"),
            ("alice.beta2", "-0.5"),
            ("alice.eps", "0"),
            ("alice.lam_min", "-1"),
            ("alice.lam_max", "0"),
            ("alice.lam_min", "0.5"),
            ("alice.limit_method", "newton"),
            ("alice.quick_steps", "-1"),
            ("alice.terms", "rho,spectral"),
            ("alice.terms", "h_abs,h_rms"),
        ],
    )
    def test_out_of_range_value_names_key_and_line(self, key, raw):
        # A seeds entry is checked by check_seed, whose message follows the entry's index.
        with pytest.raises(ConfigError, match=rf":2: {key}( entry \d+: seed)? must"):
            parse_config(f"model.widths = 3,4,2\n{key} = {raw}\nmodel.loss = xent\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("name = x\nmodel.widths = 0,1\n", ":2: model.widths must list input"),
            ("name = x\nmodel.widths = 3,0,2\n", ":2: model.widths must all be >= 1"),
            ("model.widths = 3,4,2\nmodel.loss = foo\n", ":2: model.loss must be one of"),
            ("model.loss = xent\nmodel.widths = 3,4,1\n", ":1: model.loss = xent"),
        ],
    )
    def test_model_error_names_key_and_line(self, text, message):
        with pytest.raises(ConfigError, match=f"^<config>{message}"):
            parse_config(text)

    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize(
        "key",
        [
            "baseline_lr",
            "alice.lam",
            "alice.beta1",
            "alice.beta2",
            "alice.eps",
            "alice.lam_min",
            "alice.lam_max",
            "data.noise",
            "data.center_scale",
            "data.label_flip",
            "probe.lam",
            "probe.warmup_lr",
        ],
    )
    def test_non_finite_float_names_key_and_line(self, key, raw):
        with pytest.raises(ConfigError, match=rf":2: {key} must be finite, got {raw}$"):
            parse_config(f"model.widths = 3,4,2\n{key} = {raw}\nmodel.loss = xent\n")

    def test_infinite_step_bound_stays_legal_in_code(self):
        # verify's step suite builds AliceConfig(lam_max=inf) directly; only
        # config files must be finite.
        assert AliceConfig(lam_min=0.0, lam_max=math.inf).lam_max == math.inf

    @pytest.mark.parametrize(
        "text", ["name = x\n", "model.loss = xent\n", "name = x\nseeds = 1,2\n"]
    )
    def test_config_without_widths_rejected(self, text):
        with pytest.raises(ConfigError, match=r"^<config>: model.widths is required$"):
            parse_config(text)

    def test_classes_follows_output_width(self):
        cfg = parse_config("model.widths = 4,8,3\nmodel.loss = xent\ndata.samples = 200\n")
        assert np.array_equal(np.unique(harness.task_batch(cfg, 0).targets), [0, 1, 2])
        with pytest.raises(ConfigError, match=r"^<config>:3: unknown key 'data.classes'$"):
            parse_config("model.widths = 4,8,3\nmodel.loss = xent\ndata.classes = 3\n")

    @pytest.mark.parametrize("loss, targets", [("xent", (60,)), ("mse", (60, 3))])
    def test_model_loss_picks_the_data(self, loss, targets):
        cfg = parse_config(f"model.widths = 4,8,3\nmodel.loss = {loss}\ndata.samples = 60\n")
        batch = harness.task_batch(cfg, 0)
        make = {"xent": harness.make_classification_batch, "mse": harness.make_regression_batch}
        want = make[loss](cfg.data, 4, 3, 0)
        assert batch.targets.shape == targets
        assert np.array_equal(batch.inputs, want.inputs)
        assert np.array_equal(batch.targets, want.targets)

    @pytest.mark.parametrize("key, raw", [("alice.phi", "0.5"), ("alice.omega", "0.9")])
    def test_naq_rejects_explicit_fraction(self, key, raw):
        # alice.naq is the only acceleration key; the fractions are unknown keys.
        with pytest.raises(ConfigError, match=rf"^<config>:3: unknown key '{key}'$"):
            parse_config(f"alice.beta1 = 0.9\nalice.naq = true\n{key} = {raw}\n")

    def test_naq_names_an_out_of_range_beta1(self):
        with pytest.raises(ConfigError, match=r":2: alice.beta1 must lie in \[0, 1\), got 1.5"):
            parse_config("alice.naq = true\nalice.beta1 = 1.5\n")

    def test_zero_batch_size_still_means_full_batch(self):
        assert parse_config("batch_size = 0\nmodel.widths = 3,4,2\n").batch_size == 0

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nname = ok\nmodel.widths = 3,4,2\n")
        assert cfg.name == "ok"

    def test_invalid_task_rejected(self):
        # The command picks the runner and model.loss the data: task is no key.
        with pytest.raises(ConfigError, match=r"^<config>:2: unknown key 'task'$"):
            parse_config("model.widths = 3,4,2\ntask = minesweeper\n")

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_manifest_is_parseable(self, tmp_path):
        cfg = _tiny_regression("m")
        run_experiment(cfg, harness._train_one, tmp_path)
        manifest = (tmp_path / "m" / "manifest.txt").read_text()
        assert parse_config(manifest) == cfg


class TestTasks:
    def test_classification_batch_shapes(self):
        batch = harness.make_classification_batch(DataParams(samples=50), 7, 4, seed=0)
        assert batch.inputs.shape == (50, 7)
        assert batch.targets.shape == (50,)
        assert batch.targets.min() >= 0 and batch.targets.max() < 4

    def test_regression_batch_deterministic(self):
        a = harness.make_regression_batch(DataParams(samples=20), 5, 2, seed=3)
        b = harness.make_regression_batch(DataParams(samples=20), 5, 2, seed=3)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.targets, b.targets)

    def test_default_partitions_cover(self):
        spec = ModelSpec((4, 6, 6, 2))
        parts = default_partitions(spec)
        assert set(parts) == {"layer_1", "layer_2", "layer_3"}
        joined = np.sort(np.concatenate(list(parts.values())))
        assert np.array_equal(joined, np.arange(spec.param_count))


class TestRunExperiment:
    def test_single_seed_min_equals_max(self, tmp_path):
        cfg = _tiny_regression("one", seeds=(5,))
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        assert summary.minimum == summary.median == summary.maximum

    def test_failures_recorded_not_raised(self, tmp_path):
        def runner(cfg, seed, run_dir):
            if seed == 1:
                raise RuntimeError("seed 1 broke")
            return float(seed)

        summary = run_experiment(_tiny_regression("broken", seeds=(0, 1, 2)), runner, tmp_path)
        assert math.isnan(summary.minimum)
        assert summary.errors == ("seed 1: RuntimeError: seed 1 broke",)
        assert summary.per_seed[::2] == ((0, 0.0), (2, 2.0))
        assert (tmp_path / "broken" / "seed_1" / "error.txt").exists()

    @pytest.mark.parametrize("optimizer, step", [("adam", 2), ("sgdm", 2), ("alice", 1)])
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numerics_error_names_the_optimizer_and_step(self, tmp_path, optimizer, step):
        cfg = ExperimentConfig(
            name="blowup", seeds=(0,), steps=3, batch_size=16,
            optimizer=optimizer, baseline_lr=1e300, model=ModelSpec((3, 4, 3), "xent"),
            alice=AliceConfig(lam=1e300, lam_max=1e300), data=DataParams(samples=16),
        )
        message = f"{optimizer} step {step}: non-finite pre-activations at layer 1"
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        assert summary.errors == (f"seed 0: NumericsError: {message}",)
        error_txt = tmp_path / "blowup" / "seed_0" / "error.txt"
        assert error_txt.read_text() == summary.errors[0] + "\n"
        # The log keeps the rows of the steps before the failing one.
        log = (tmp_path / "blowup" / "seed_0" / "train_log.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in log[1:]] == [str(s) for s in range(1, step)]
        with pytest.raises(NumericsError, match=f"^{message}$") as raised:
            harness._train_one(cfg, 0, tmp_path)
        cause = raised.value.__cause__
        assert isinstance(cause, NumericsError)
        assert str(cause) == "non-finite pre-activations at layer 1"

    @pytest.mark.parametrize(
        "keys, message",
        [
            ("data.noise = 1e300\n",
             "running statistics overflowed at update 1: s, rho, h_rms2"),
            ("alice.eps = 1e-300\ndata.center_scale = 0\ndata.noise = 0\n",
             "step denominator h_bar overflowed at update 1"),
        ],
        ids=["statistics", "denominator"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_alice_own_errors_name_the_step(self, tmp_path, keys, message):
        # Alice's own overflow checks, not a gradient error, raise these.
        cfg = parse_config(
            "name = own\noptimizer = alice\nsteps = 3\nbatch_size = 16\n"
            "model.widths = 3,4,3\nmodel.loss = xent\ndata.samples = 16\n" + keys
        )
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        assert summary.errors == (f"seed 0: NumericsError: alice step 1: {message}",)
        error_txt = tmp_path / "own" / "seed_0" / "error.txt"
        assert error_txt.read_text() == summary.errors[0] + "\n"
        # The failing step writes no row: the log holds the header alone.
        log = (tmp_path / "own" / "seed_0" / "train_log.csv").read_text().splitlines()
        assert log == [",".join(harness.TRAIN_LOG_HEADER)]
        with pytest.raises(NumericsError) as raised:
            harness._train_one(cfg, 0, tmp_path)
        assert str(raised.value.__cause__) == message

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_adam_overflow_is_an_error_not_a_stall(self, tmp_path):
        # g*g overflows at |g| ~ 1e154, so v turns inf and every later Adam
        # step would be zero; the seed fails at the step that overflowed.
        cfg = parse_config(
            "name = stall\noptimizer = adam\nsteps = 3\nbatch_size = 16\n"
            "model.widths = 3,4,3\nmodel.loss = xent\ndata.samples = 16\ndata.noise = 1e300\n"
        )
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        message = "seed 0: NumericsError: adam step 1: running averages overflowed: v"
        assert summary.errors == (message,)
        run_dir = tmp_path / "stall" / "seed_0"
        assert (run_dir / "error.txt").read_text() == message + "\n"
        # Adam's update, not its gradient, failed: the step still writes no row.
        log = list(csv.DictReader((run_dir / "train_log.csv").open()))
        assert log == []

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_log_gives_a_norm_whose_square_overflows(self, tmp_path):
        # sgdm keeps no g*g, so its first step on these inputs succeeds and
        # logs |g| ~ 4.8e299; its second step's pre-activations overflow.
        cfg = parse_config(
            "name = big\noptimizer = sgdm\nsteps = 3\nbatch_size = 16\n"
            "model.widths = 3,4,3\nmodel.loss = xent\ndata.samples = 16\ndata.noise = 1e300\n"
        )
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        assert summary.errors == (
            "seed 0: NumericsError: sgdm step 2: non-finite pre-activations at layer 0",)
        log = list(csv.DictReader((tmp_path / "big" / "seed_0" / "train_log.csv").open()))
        assert [row["step"] for row in log] == ["1"]
        assert 1e299 < float(log[0]["grad_norm"]) < math.inf

    @pytest.mark.parametrize("stat", [np.mean, np.linalg.norm])
    def test_log_statistics_survive_an_overflowing_sum(self, stat):
        x = np.random.default_rng(3).uniform(0.0, 10.0, size=1001)
        assert repr(harness._logged_stat(stat, x)) == repr(float(stat(x)))
        assert repr(harness._logged_stat(np.mean, x)) == repr(float(x.sum()) / x.size)
        with np.errstate(over="ignore"):
            assert math.isinf(stat(1e307 * x))
            assert harness._logged_stat(stat, 1e307 * x) == pytest.approx(
                1e307 * float(stat(x)), rel=1e-12)

    def test_blob_overflow_is_a_numerics_error(self):
        with np.errstate(over="ignore"), pytest.raises(NumericsError, match="^blob inputs"):
            harness.make_classification_batch(DataParams(samples=64, noise=1.7e308), 3, 2, seed=0)

    def test_training_artifacts_written(self, tmp_path):
        cfg = ExperimentConfig(
            name="train",
            seeds=(1, 2),
            steps=4,
            batch_size=0,
            model=ModelSpec((3, 6, 2)),
            alice=AliceConfig(lam=1e-3, lam_max=0.01),
        )
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        base = tmp_path / "train"
        log = (base / "seed_1" / "train_log.csv").read_text().splitlines()
        assert log[0] == ",".join(harness.TRAIN_LOG_HEADER) == (
            "step,loss,grad_norm,mean_rho,mean_hbar,clamp_lo,clamp_hi,grad_evals,wall_ms"
        )
        assert len(log) == 5
        summary_lines = (base / "summary.csv").read_text().splitlines()
        assert summary_lines[0] == "seed,final_metric"
        assert [line.split(",")[0] for line in summary_lines[1:]] == [
            "1", "2", "min", "median", "max",
        ]
        assert len(summary.per_seed) == 2

    @pytest.mark.parametrize(
        "optimizer, quick_steps, steps",
        [("alice", 3, 9), ("alice", 0, 5), ("adam", 0, 4), ("sgdm", 0, 4)],
    )
    def test_grad_evals_column_counts_gradients(self, tmp_path, optimizer, quick_steps, steps):
        # The last row is criterion C11's count for Alice, one gradient per
        # step for the baselines.
        cfg = ExperimentConfig(
            name="evals", seeds=(0,), steps=steps, batch_size=8,
            model=ModelSpec((3, 6, 2)), data=DataParams(samples=16), optimizer=optimizer,
            alice=AliceConfig(lam=1e-3, lam_max=0.01, quick_steps=quick_steps),
        )
        run_experiment(cfg, harness._train_one, tmp_path)
        lines = (tmp_path / "evals" / "seed_0" / "train_log.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-2:] == ["grad_evals", "wall_ms"]
        evals = [int(line.split(",")[header.index("grad_evals")]) for line in lines[1:]]
        if optimizer == "alice":
            assert evals[-1] == harness.expected_grad_evals(quick_steps, steps)
        else:
            assert evals[-1] == steps
        assert evals == sorted(evals) and len(evals) == steps

    def test_three_seed_quadratic_bowl_matches_reference_adam(self, tmp_path):
        # Alice pinned to Adam limits must land exactly on reference Adam runs.
        lr = 2e-3
        cfg = ExperimentConfig(
            name="pinned",
            seeds=(0, 1, 2),
            steps=40,
            batch_size=16,
            model=ModelSpec((3, 6, 2)),
            alice=AliceConfig(
                lam=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                lam_min=lr, lam_max=lr, limit_method="adam", quick_steps=0,
            ),
        )
        summary = run_experiment(cfg, harness._train_one, tmp_path)
        for seed, metric in summary.per_seed:
            data = harness.task_batch(cfg, seed)
            params = netkit.build_model(cfg.model, seed)
            stream = harness._minibatch_stream(data, cfg.batch_size, seed)
            grad_fn = lambda th: netkit.gradient(cfg.model, th, next(stream))[1]  # noqa: E731
            trajectory = reference_adam(params, grad_fn, lr, n_steps=cfg.steps)
            reference_final = netkit.loss(cfg.model, trajectory[-1], data)
            assert abs(metric - reference_final) <= 1e-12

    def test_baseline_optimizers_run(self, tmp_path):
        for name in ("adam", "sgdm"):
            cfg = ExperimentConfig(
                name=f"base_{name}",
                seeds=(0,),
                steps=3,
                optimizer=name,
                model=ModelSpec((3, 6, 2)),
            )
            summary = run_experiment(cfg, harness._train_one, tmp_path)
            assert not summary.errors


class TestPowerlawExperiment:
    def test_probe_on_small_network(self):
        spec = ModelSpec((4, 8, 8, 3), "xent")
        data = harness.make_classification_batch(
            DataParams(samples=120, noise=1.0), 4, 3, seed=0
        )
        report = powerlaw_experiment(
            spec, data, ProbeParams(lam=0.002, samples=8, warmup_steps=10), 128, seed=0
        )
        names = [e.name for e in report.entries]
        assert names == ["layer_1", "layer_2", "layer_3"]
        assert all(e.defined for e in report.entries)

    def test_probe_task_via_run_experiment(self, tmp_path):
        cfg = ExperimentConfig(
            name="probe",
            seeds=(0,),
            batch_size=32,
            model=ModelSpec((4, 8, 8, 3), "xent"),
            data=DataParams(samples=100),
        )
        cfg.probe.samples = 8
        cfg.probe.warmup_steps = 5
        summary = run_experiment(cfg, harness._run_powerlaw, tmp_path)
        assert not summary.errors
        lines = (tmp_path / "probe" / "seed_0" / "powerlaw.csv").read_text().splitlines()
        assert lines[0] == "partition,sum_v_lambda,sum_v_2lambda,p"

    @pytest.mark.parametrize(
        "keys, message",
        [
            # The warm-up's second Adam step diverges.
            ("probe.warmup_lr = 1e300\n",
             "probe warm-up step 2: non-finite pre-activations at layer 1"),
            # Adam's own overflow check, after the warm-up's first gradient.
            ("data.noise = 1e300\n",
             "probe warm-up step 1: running averages overflowed: v"),
            # The first sign vector, not the unperturbed gradient, overflows.
            ("probe.lam = 1e200\n",
             "probe lam = 1e+200 sample 1: non-finite pre-activations at layer 1"),
            # Only the 2 lam scale, on its own thread and call count, overflows.
            ("probe.lam = 1e153\n", "probe lam = 2e+153 sample 1: non-finite loss inf"),
        ],
        ids=["warm-up", "warm-up-adam", "lam", "2lam"],
    )
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_numerics_error_names_the_phase_and_step(self, tmp_path, keys, message):
        cfg = parse_config(
            "name = probe\nsteps = 3\nbatch_size = 16\nmodel.widths = 3,4,3\n"
            "model.loss = xent\ndata.samples = 16\nprobe.samples = 2\n"
            "probe.warmup_steps = 2\n" + keys
        )
        summary = run_experiment(cfg, harness._run_powerlaw, tmp_path)
        assert summary.errors == (f"seed 0: NumericsError: {message}",)
        error_txt = tmp_path / "probe" / "seed_0" / "error.txt"
        assert error_txt.read_text() == summary.errors[0] + "\n"

    def test_powerlaw_csv_rows(self, monkeypatch, tmp_path):
        def meas(v, lam):
            return glass.GradientVariationMeasurement(lam, np.array(v), 8)

        report = glass.power_law(meas([1.0, 0.0], 0.1), meas([2.0, 0.0], 0.2),
                                 {"a": np.array([0]), "b": np.array([1])})
        monkeypatch.setattr(harness, "powerlaw_experiment", lambda *args, **kwargs: report)
        cfg = ExperimentConfig(name="probe", seeds=(0,),
                               model=ModelSpec((2, 3, 1)), data=DataParams(samples=4))
        summary = run_experiment(cfg, harness._run_powerlaw, tmp_path)
        assert (summary.errors, summary.median) == ((), 1.0)
        assert (tmp_path / "probe" / "seed_0" / "powerlaw.csv").read_text().splitlines() == [
            "partition,sum_v_lambda,sum_v_2lambda,p",
            "a,1.0,2.0,1.0",
            "b,0.0,0.0,nan",
        ]

    def test_equals_two_serial_measurements(self):
        spec = ModelSpec((4, 8, 8, 3), "xent")
        data = harness.make_classification_batch(
            DataParams(samples=120, noise=1.0), 4, 3, seed=0
        )
        report = powerlaw_experiment(
            spec, data, ProbeParams(lam=0.002, samples=8, warmup_steps=10), 32, seed=5
        )
        stream = harness._minibatch_stream(data, 32, 5)
        warm = lambda th: netkit.gradient(spec, th, next(stream))[1]  # noqa: E731
        params = reference_adam(netkit.build_model(spec, 5), warm, 2e-3, n_steps=10)[-1]
        grad_fn = lambda th: netkit.gradient(spec, th, data)[1]  # noqa: E731
        probe_seed = int(np.random.SeedSequence([5, 0x9B0E]).generate_state(1)[0])
        serial = glass.power_law(
            glass.measure_variations(grad_fn, params, 0.002, 8, probe_seed),
            glass.measure_variations(grad_fn, params, 0.004, 8, probe_seed),
            default_partitions(spec),
        )
        assert repr(report) == repr(serial)

    def test_error_at_double_scale_is_raised_and_recorded(self, monkeypatch, tmp_path):
        measure = harness.measure_variations

        def flaky(grad_fn, mu, lam, n_samples, seed):
            if lam == 0.004:
                def grad_fn(theta):
                    raise NumericsError(f"non-finite gradient at lam = {lam}")

            return measure(grad_fn, mu, lam, n_samples, seed)

        monkeypatch.setattr(harness, "measure_variations", flaky)
        cfg = ExperimentConfig(
            name="probe", seeds=(0,), batch_size=32,
            model=ModelSpec((4, 8, 8, 3), "xent"), data=DataParams(samples=100),
        )
        cfg.probe.lam, cfg.probe.samples, cfg.probe.warmup_steps = 0.002, 4, 2
        summary = run_experiment(cfg, harness._run_powerlaw, tmp_path)
        expected = "seed 0: NumericsError: non-finite gradient at lam = 0.004"
        assert summary.errors == (expected,)
        assert (tmp_path / "probe" / "seed_0" / "error.txt").read_text() == expected + "\n"

    def test_warm_up_keeps_no_trajectory(self):
        # A 200-step trajectory at d = 9210 is 14.7 MB; the warm-up holds a
        # handful of d-length vectors and netkit's batch-128 workspace instead.
        cfg = load_config(DOCS_CONFIGS / "probe_mlp.cfg")
        data = harness.task_batch(cfg, 0)
        spec, steps, lr = cfg.model, cfg.probe.warmup_steps, cfg.probe.warmup_lr
        assert (spec.param_count, steps, cfg.batch_size) == (9210, 200, 128)
        tracemalloc.start()
        try:
            params = harness._warm_up(spec, data, 0, steps, lr, cfg.batch_size)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000
        stream = harness._minibatch_stream(data, cfg.batch_size, 0)
        warm = lambda th: netkit.gradient(spec, th, next(stream))[1]  # noqa: E731
        expected = reference_adam(netkit.build_model(spec, 0), warm, lr, n_steps=steps)[-1]
        assert np.array_equal(params, expected)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_warm_up_is_trains_adam_run(self, monkeypatch, tmp_path, seed):
        # probe's warm-up ends bit for bit where train's adam run at warmup_lr does.
        probe_cfg = load_config(DOCS_CONFIGS / "probe_mlp.cfg")
        lr = probe_cfg.probe.warmup_lr
        cfg = dataclasses.replace(probe_cfg, steps=20, optimizer="adam", baseline_lr=lr)
        data = harness.task_batch(cfg, seed)
        warmed = harness._warm_up(cfg.model, data, seed, cfg.steps, lr, cfg.batch_size)
        finals = []
        monkeypatch.setattr(harness, "loss", lambda spec, params, data: finals.append(params))
        harness._train_one(cfg, seed, tmp_path)
        assert cfg.batch_size < cfg.data.samples
        assert np.array_equal(finals[0], warmed)

    def test_shared_probe_seed_pairs_scales(self):
        # a purely quadratic synthetic gradient must give exactly p = 2
        spec = ModelSpec((3, 4, 2))
        rng = np.random.default_rng(0)
        h_matrix = rng.standard_normal((spec.param_count, spec.param_count))
        h_matrix = (h_matrix + h_matrix.T) / 2
        from glassopt.glass import measure_variations, power_law

        grad_fn = lambda th: h_matrix @ th  # noqa: E731
        m1 = measure_variations(grad_fn, np.zeros(spec.param_count), 0.01, 16, seed=4)
        m2 = measure_variations(grad_fn, np.zeros(spec.param_count), 0.02, 16, seed=4)
        report = power_law(m1, m2, {"all": np.arange(spec.param_count)})
        assert report.exponent("all") == pytest.approx(2.0, abs=1e-9)


# Each verify row's verdict as its rule function wrote it inline before rows
# took a Rule, by the rows it decides: (their Rule, the inline expression on
# the empirical value x).
_INLINE_VERDICTS = {
    "zero_bias_z": (Rule("within", 0.0, 3.0), lambda x: abs(x) < 3.0),
    "variance_closed_form_ratio": (Rule("within", 1.0, 0.02), lambda x: abs(x - 1.0) < 0.02),
    "restricted_update_probability": (Rule("within", 0.3173, 0.002),
                                      lambda x: abs(x - 0.3173) < 0.002),
    "walk_ratios": (Rule("in", 0.98, 1.02), lambda x: 0.98 <= x <= 1.02),
    "step_vs_golden_section": (Rule("<", 1e-6), lambda x: x < 1e-6),
    "naq_residuals": (Rule("<", 1e-10), lambda x: x < 1e-10),
    "negative_control_residual": (Rule(">", 1e-3), lambda x: x > 1e-3),
    "coverage_small_step": (Rule(">=", 0.99), lambda x: x >= 0.99),
    "precondition_violations": (Rule("<", 0.01), lambda x: x < 0.01),
    "bound_violated_large_step": (Rule("<", 0.99), lambda x: x < 0.99),
    "kernel_constant_rademacher": (Rule("==", 0.5), lambda x: x == 0.5),
    "kernel_constant_any_density": (Rule("==", 1.0), lambda x: x == 1.0),
    "reported": (Rule("reported"), lambda x: True),
}
_SPECIALS = (0.0, -0.0, math.nan, math.inf, -math.inf)


def _edges(*bounds):
    """The bounds, their sums and differences, and the floats either side of each."""
    points = {p for a in bounds for b in bounds for p in (a, a + b, a - b)}
    return [q for p in points
            for q in (math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf))]


class TestRule:
    @pytest.mark.parametrize("rule, inline", _INLINE_VERDICTS.values(), ids=list(_INLINE_VERDICTS))
    @given(x=st.floats())
    def test_holds_as_the_inline_verdict(self, rule, inline, x):
        for value in (x, *_SPECIALS, *_edges(rule.a, rule.b)):
            assert rule.holds(value) is inline(value), value

    @given(x=st.floats(), y=st.floats())
    def test_holds_as_the_inline_comparison_with_a_computed_bound(self, x, y):
        # variance_rademacher_le_normal (x <= y) and the effective variance (x < y).
        for a, b in itertools.product((x, y, *_SPECIALS), repeat=2):
            assert Rule("<=", b).holds(a) is (a <= b)
            assert Rule("<", b).holds(a) is (a < b)

    @given(count=st.integers(0, 40), other=st.integers(0, 40), n=st.integers(0, 40))
    def test_holds_as_the_inline_count_check(self, count, other, n):
        # The least-squares counts (count == n) and the zero-bound residue (count <= n).
        assert Rule("==", n).holds(float(count)) is (count == n)
        assert Rule("<=", n).holds(float(count)) is (count <= n)
        # C11 was one row, calls == n_grad_evals == expected; it is two == rows.
        assert (Rule("==", n).holds(float(count)) and Rule("==", n).holds(float(other))) is (
            count == other == n)
        # The collapsed forms wrote their bool flag as 1.0 or 0.0.
        assert [Rule("==", 1.0).holds(float(flag)) for flag in (True, False)] == [True, False]

    @pytest.mark.parametrize("rule", [rule for rule, _ in _INLINE_VERDICTS.values()],
                             ids=list(_INLINE_VERDICTS))
    def test_row_survives_a_pickle_round_trip(self, rule):
        # The kernel suite's rows cross a process lane by pickle.
        row = harness.CheckRow("q", 0.3173, 0.0, math.nan, 1, rule)
        back = pickle.loads(pickle.dumps(row))
        assert (repr(back), back.passed, str(back.rule)) == (repr(row), row.passed, str(rule))


class TestVerifySuites:
    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            harness.run_verify_suite("bogus")

    @pytest.mark.parametrize("suite", ["step", "naq"])
    def test_fast_suites_pass(self, suite):
        rows = harness.run_verify_suite(suite, seed=0)
        assert rows and all(r.passed for r in rows)

    def test_step_suite_checks_the_step_alice_runs(self, monkeypatch):
        real = alice.apply_step

        def eps_twice(state, cfg, work=None):
            record = real(state, cfg, work)
            record.h_bar[:] += cfg.eps
            return record

        monkeypatch.setattr(alice, "apply_step", eps_twice)
        record = Alice(np.zeros(2), AliceConfig(terms=("h_abs",))).step(lambda _: np.ones(2))
        assert np.array_equal(record.h_bar, np.full(2, 2e-8))
        rows = harness.run_verify_suite("step", seed=0)
        assert [r.quantity for r in rows if not r.passed] == [
            "collapsed_form_rho_zero_exact",
            "collapsed_form_h_zero_exact",
        ]

    def test_naq_suite_checks_the_step_alice_runs(self, monkeypatch):
        real = alice.apply_step

        def whole_step(state, cfg, work=None):
            record = real(state, cfg, work)
            state.mu[:] = state.nu  # mu takes all of delta, as if phi were 1
            return record

        monkeypatch.setattr(alice, "apply_step", whole_step)
        rows = harness.run_verify_suite("naq", seed=0)
        assert [r.quantity for r in rows if not r.passed] == ["max_error_contraction_residual"]

    # C10's small-step coverage read 0.929-0.963 at these seeds while its
    # oracle held the hidden levels fixed; the bound averages over them.
    @pytest.mark.parametrize("seed", [1, 3, 8])
    def test_glass_suite_passes(self, seed):
        rows = harness.run_verify_suite("glass", seed=seed)
        assert [r.quantity for r in rows if not r.passed] == []

    def test_all_equals_the_single_suites_in_order(self):
        # Every oracle chunk holds at most 1 MiB. The kernel suite of "all"
        # runs in a worker process, where this tracemalloc cannot see it, so
        # the bound covers this process's part of "all" (the other four
        # suites) and then, on its own, a kernel suite run in this process.
        tracemalloc.start()
        try:
            together = harness.run_verify_suite("all", seed=0)
            peaks_mb = [tracemalloc.get_traced_memory()[1] / 1e6]
            tracemalloc.reset_peak()
            alone = harness.run_verify_suite("kernel", 0)
            peaks_mb.append(tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            tracemalloc.stop()
        assert max(peaks_mb) <= 16.0
        alone += [row for name in harness.VERIFY_SUITES if name != "kernel"
                  for row in harness.run_verify_suite(name, 0)]
        assert [repr(r) for r in together] == [repr(r) for r in alone]
        pins.check("verify_all_seed_0", [r.as_csv_row() for r in together])
        # A report's rows are read back by quantity name (perfbench's
        # check_verify), so a repeated name could hide a FAIL behind a PASS.
        assert len({r.quantity for r in together}) == len(together)
        assert multiprocessing.active_children() == []

    @staticmethod
    def _fake_suites(monkeypatch, broken):
        """Replace every suite but walk, and walk's two kicks, with one-row fakes.

        The fakes whose names are in broken raise.
        """

        def fake(name):
            def run(seed):
                if name in broken:
                    raise RuntimeError(f"{name} failed")
                return [harness.CheckRow(name, float(seed), 0.0, 0.0, 1, Rule("reported"))]

            return run

        for name in ("kernel", "glass", "naq", "step"):
            monkeypatch.setitem(harness.VERIFY_SUITES, name, fake(name))
        monkeypatch.setattr(harness, "walk_rows", lambda kick, seed, trials: fake(kick)(seed))

    @pytest.mark.parametrize(
        "failing",
        [{"kernel"}, {"gauss"}, {"rademacher"}, {"gauss", "rademacher"}, {"kernel", "gauss"}],
        ids=["kernel", "walk", "rademacher", "both_kicks", "kernel_and_walk"],
    )
    def test_suite_exception_propagates_from_all(self, monkeypatch, failing):
        broken = set(failing)
        self._fake_suites(monkeypatch, broken)
        # The Gaussian kick runs first in a serial walk suite, so its error
        # wins; the kernel suite's, raised in the worker, wins over both.
        first = min(failing, key=["kernel", "gauss", "rademacher"].index)
        with pytest.raises(RuntimeError, match=f"{first} failed"):
            harness.run_verify_suite("all", seed=0)
        assert multiprocessing.active_children() == []
        broken.clear()
        rows = harness.run_verify_suite("all", seed=3)
        assert [r.quantity for r in rows] == ["kernel", "glass", "naq", "step", "gauss",
                                              "rademacher"]
        assert [r.empirical for r in rows] == [3.0] * 6
        assert multiprocessing.active_children() == []

    def test_kernel_suite_runs_beside_the_others_in_a_worker(self, monkeypatch):
        # The kernel suite waits for the glass suite to start, through an
        # Event the forked worker inherits: a serial "all" would block here
        # until the timeout.
        glass_started = multiprocessing.get_context("fork").Event()

        def kernel(seed):
            waited = glass_started.wait(10.0)
            return [harness.CheckRow("kernel", float(os.getpid()), 1.0, 0.0, 1,
                                     Rule("<", math.inf if waited else -math.inf))]

        def glass_suite(seed):
            glass_started.set()
            return [harness.CheckRow("glass", float(os.getpid()), 0.0, 0.0, 1, Rule("reported"))]

        self._fake_suites(monkeypatch, set())
        monkeypatch.setitem(harness.VERIFY_SUITES, "kernel", kernel)
        monkeypatch.setitem(harness.VERIFY_SUITES, "glass", glass_suite)
        rows = harness.run_verify_suite("all", seed=0)
        assert [(r.quantity, r.passed) for r in rows[:2]] == [("kernel", True), ("glass", True)]
        assert rows[1].empirical == os.getpid() != rows[0].empirical
        assert multiprocessing.active_children() == []

    def test_another_thread_keeps_all_in_this_process(self, monkeypatch, request):
        # A fork copies only the forking thread, so beside a second thread
        # "all" forks nothing and runs the kernel suite here, with the same rows.
        self._fake_suites(monkeypatch, set())
        monkeypatch.setitem(harness.VERIFY_SUITES, "kernel", lambda seed: [
            harness.CheckRow("kernel", float(seed), float(os.getpid()), 0.0, 1, Rule("reported"))])
        forked = harness.run_verify_suite("all", seed=2)
        request.getfixturevalue("another_thread")  # a second thread runs from here on
        here = harness.run_verify_suite("all", seed=2)
        assert forked[0].predicted != os.getpid() == here[0].predicted
        assert [repr(r) for r in forked[1:]] == [repr(r) for r in here[1:]]
        assert [(r.quantity, r.empirical) for r in here] == [
            (name, 2.0) for name in ("kernel", "glass", "naq", "step", "gauss", "rademacher")]

    def test_worker_that_dies_names_the_kernel_suite(self):
        # In a fresh interpreter, with a timeout: a worker that dies must not
        # hang the call, and leaves no process behind.
        script = textwrap.dedent("""
            import multiprocessing, os
            from glassopt import harness
            for name in ("glass", "naq", "step", "walk"):
                harness.VERIFY_SUITES[name] = lambda seed: []
            harness.VERIFY_SUITES["kernel"] = lambda seed: os._exit(3)
            try:
                harness.run_verify_suite("all")
            except RuntimeError as exc:
                print(f"{exc} ({type(exc.__cause__).__name__})")
            print(multiprocessing.active_children())
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=120)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == ("verify suite 'kernel': its worker process died "
                               "(BrokenProcessPool)\n[]\n")

    def test_negative_seed_rejected_before_any_work(self, monkeypatch):
        self._fake_suites(monkeypatch, set(harness.VERIFY_SUITES) | {"gauss", "rademacher"})
        for suite in ("all", "naq", "walk"):
            with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
                harness.run_verify_suite(suite, -1)


# Each float key's legal range: (low, high, low excluded, high excluded).
_POSITIVE = (0.0, 1.7e308, True, False)
_UNIT = (0.0, 1.0, False, True)
_FLOAT_RANGES = {
    "baseline_lr": _POSITIVE, "alice.lam": _POSITIVE, "alice.eps": _POSITIVE,
    "alice.lam_max": _POSITIVE, "probe.lam": _POSITIVE, "probe.warmup_lr": _POSITIVE,
    "alice.beta1": _UNIT, "alice.beta2": _UNIT, "alice.lam_min": (0.0, 1.7e308, False, False),
    "data.noise": (0.0, 1.7e308, False, False), "data.center_scale": (-1.7e308, 1.7e308, False,
                                                                      False),
    "data.label_flip": (0.0, 1.0, False, False),
}
_EXTREMES = (0.0, 1e-300, 1e-3, 0.5, 0.9, 1.0, 2.0, 1e150, 1e300, -1e300)


def _toy_value(key, legal):
    """A strategy for the text of one config value: a legal one, or else anything."""
    ints = {
        "steps": (1, 3), "batch_size": (0, 17), "data.samples": (1, 16),
        "probe.samples": (1, 2), "probe.warmup_steps": (0, 3), "alice.quick_steps": (0, 3),
    }
    choices = {
        "name": ("toy",),
        "optimizer": harness.OPTIMIZERS,
        "model.loss": netkit.LOSS_KINDS,
        "alice.limit_method": LIMIT_METHODS,
        "alice.naq": ("true", "false"),
    }
    if key in ints:
        lo, hi = ints[key]
        return st.integers(lo, hi).map(str) if legal else st.integers(lo - 2, hi + 2).map(str)
    if key in choices:
        bad = {"name": ("", ".", "a/b"), "alice.naq": ("maybe",)}.get(key, ("bogus",))
        return st.sampled_from(choices[key] if legal else choices[key] + bad)
    if key in ("seeds", "model.widths", "alice.terms"):
        item, low, high = {
            "seeds": (st.integers(0, 2**32 - 1) | st.integers(0, 3), 1, 2),
            "model.widths": (st.integers(1, 4), 3, 5),
            "alice.terms": (st.sampled_from(CURVATURE_TERMS), 0, 3),
        }[key]
        if not legal:
            item = item | st.sampled_from({"alice.terms": ("spectral",)}.get(key, (-1, 0)))
            low = 0
        unique = key == "seeds" and legal
        return st.lists(item, min_size=low, max_size=high, unique=unique).map(
            lambda v: ",".join(map(str, v)))
    if not legal:
        return (st.sampled_from(_EXTREMES) | st.floats()).map(repr)
    lo, hi, open_lo, open_hi = _FLOAT_RANGES[key]
    extremes = [v for v in _EXTREMES if (lo < v if open_lo else lo <= v)
                and (v < hi if open_hi else v <= hi)]
    floats = st.floats(lo, hi, exclude_min=open_lo, exclude_max=open_hi)
    return (st.sampled_from(extremes) | floats).map(repr)


# Always set, so that no toy run falls back to a full-size default.
_TOY_SIZES = ("steps", "model.widths", "data.samples", "probe.samples", "probe.warmup_steps")


@st.composite
def toy_configs(draw):
    """(command, config text): the _TOY_SIZES keys and any subset of the other _SCHEMA keys.

    Every value is legal on its own, but one drawn key may get any value;
    together the legal values can still conflict (alice.lam_min above alice.lam_max).
    """
    keys = [k for k in harness._SCHEMA if k in _TOY_SIZES or draw(st.booleans())]
    spoilt = draw(st.none() | st.sampled_from(keys))
    lines = [f"{key} = {draw(_toy_value(key, legal=key != spoilt))}" for key in keys]
    return draw(st.sampled_from(("train", "probe"))), "\n".join(lines) + "\n"


def _finite_cells(path, columns):
    rows = list(csv.DictReader(path.open()))
    return [math.isfinite(float(row[c])) for row in rows for c in columns]


class TestToyConfigs:
    @settings(max_examples=150, deadline=None)
    @given(toy_configs())
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_config_that_parses_runs_or_fails_by_name(self, case):
        """A toy config is refused with its line, or each seed ends finite or in NumericsError.

        The probe's exponent p is NaN exactly where a partition's variation
        sum is zero at a scale (an undefined exponent); the seed's metric,
        the median of the defined ones, is NaN only when none is defined.
        """
        command, text = case
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert re.match(r"<config>:\d+: ", str(exc)), str(exc)
            return
        runner = harness._train_one if command == "train" else harness._run_powerlaw
        with tempfile.TemporaryDirectory() as out:
            summary = run_experiment(cfg, runner, out)
            for seed, metric in summary.per_seed:
                run_dir = summary.base / f"seed_{seed}"
                if (run_dir / "error.txt").exists():
                    error = (run_dir / "error.txt").read_text()
                    assert error.startswith(f"seed {seed}: NumericsError: "), error
                    continue
                if command == "train":
                    assert math.isfinite(metric)
                    assert all(_finite_cells(run_dir / "train_log.csv", harness.TRAIN_LOG_HEADER))
                    continue
                report = list(csv.DictReader((run_dir / "powerlaw.csv").open()))
                sums = [(float(r["sum_v_lambda"]), float(r["sum_v_2lambda"])) for r in report]
                assert all(math.isfinite(v) and v >= 0.0 for pair in sums for v in pair)
                defined = [min(pair) > 0.0 for pair in sums]
                assert [math.isfinite(float(r["p"])) for r in report] == defined
                assert math.isfinite(metric) == any(defined)
