"""Span arithmetic and the wrappers installed around glassopt's layers."""

import sys

import numpy as np
import pytest

import spans
from spans import Span, Tracer, layer_metrics, self_times, time_excluding


def nested():
    # step [0, 10] > topography [1, 6] > grad_fn [2, 4], grad_fn [4.5, 5.5]
    #              > apply [7, 9]
    return [
        Span("alice.step", 0.0, 10.0, -1),
        Span("alice.topography_update", 1.0, 6.0, 0),
        Span("alice.grad_fn", 2.0, 4.0, 1),
        Span("alice.grad_fn", 4.5, 5.5, 1),
        Span("alice.apply_step", 7.0, 9.0, 0),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(nested()) == pytest.approx([10 - 5 - 2, 5 - 2 - 1, 2, 1, 2])


def test_self_time_counts_overlapping_children_once():
    overlapping = [Span("a", 0.0, 10.0, -1), Span("b", 1.0, 5.0, 0), Span("c", 3.0, 7.0, 0)]
    assert self_times(overlapping)[0] == pytest.approx(10 - 6)


def test_self_times_sum_to_root_duration():
    assert sum(self_times(nested())) == pytest.approx(10.0)


def test_time_excluding_reaches_through_intermediate_spans():
    assert time_excluding(nested(), "alice.step", "alice.grad_fn") == pytest.approx(10 - 3)


def test_layer_metrics_on_synthetic_spans():
    trace = nested() + [
        Span("netkit.gradient", 20.0, 20.002, -1),
        Span("netkit.forward", 20.0005, 20.001, 5),
        Span("netkit.gradient", 21.0, 21.004, -1),
        Span("alice.step", 30.0, 30.001, -1),
    ]
    m = layer_metrics(trace, {"netkit.relu_introspect.records": 7})
    assert m["netkit.gradient.calls"] == 2
    assert m["netkit.gradient.ms_per_call"] == pytest.approx(3.0)
    assert m["netkit.gradient.self_s"] == pytest.approx(0.0055)
    assert m["netkit.forward.self_s"] == pytest.approx(0.0005)
    assert m["alice.grad_evals"] == 2
    assert m["alice.step.arith_s"] == pytest.approx(7.001)
    assert m["alice.step.ms_p50"] == pytest.approx(0.5 * (10_000 + 1))
    assert m["netkit.relu_introspect.records"] == 7
    assert m["oracles.mc_estimator.self_s"] == 0.0


def test_tracer_records_parent_links():
    tracer = Tracer("run0")
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0)]
    assert all(s.end >= s.start for s in tracer.spans)


def test_tracer_closes_span_on_exception():
    tracer = Tracer("run0")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.spans[0].end > 0 and not tracer._stack


@pytest.fixture
def restore_glassopt():
    """Undo install(): put back every glassopt module attribute and Alice.step."""
    import glassopt.cli  # noqa: F401
    from glassopt.alice import Alice

    saved = {name: dict(vars(mod)) for name, mod in sys.modules.items()
             if name.startswith("glassopt") and mod is not None}
    step = Alice.step
    yield
    for name, attrs in saved.items():
        vars(sys.modules[name]).update(attrs)
    Alice.step = step


def test_install_wraps_aliases_and_alice(restore_glassopt):
    from glassopt import harness, netkit
    from glassopt.alice import Alice, AliceConfig

    tracer = Tracer("run0")
    spans.install(tracer)
    assert harness.gradient is netkit.gradient  # the `from .netkit import` alias too
    spec = netkit.ModelSpec((3, 4, 2), "mse")
    params = netkit.build_model(spec, 0)
    rng = np.random.default_rng(0)
    batch = netkit.Batch(rng.standard_normal((5, 3)), rng.standard_normal((5, 2)))
    opt = Alice(params, AliceConfig(quick_steps=1), seed=0)
    for _ in range(2):
        opt.step(lambda theta: harness.gradient(spec, theta, batch)[1])
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["alice.grad_evals"] == opt.n_grad_evals == 4
    assert m["netkit.gradient.calls"] == 4
    assert m["netkit.forward.self_s"] > 0
    assert m["alice.step.arith_s"] > 0
    harness.run_verify_suite("step", 0)
    assert layer_metrics(tracer.spans, tracer.counts)["harness.run_verify_suite.step_s"] > 0


def test_reported_metrics_match_benchmark_json():
    import json
    from pathlib import Path

    import run

    declared = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    child = {"failures": [], "traced": False, "wall_s": 1.0, "setup_s": 0.5, "rss_mb": 90.0,
             "minor_faults": 10, "layer": layer_metrics([], {})}
    traced = dict(child, traced=True)
    for reported, section in ((run.end_to_end([child]), "end_to_end"),
                              (run.per_layer([child, traced]), "per_layer")):
        assert {m["name"]: m["unit"] for m in declared[section]} == {
            name: unit for name, (_, unit) in reported.items()}
