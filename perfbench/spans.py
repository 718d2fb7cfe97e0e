"""In-memory span tracing around the calls into glassopt's layers.

Wrappers are installed from the benchmark's side: each traced function is
replaced, in every ``glassopt`` module that holds a reference to it (including
``from .x import y`` aliases), by a wrapper that records a span. Spans live in
a list until the run ends and are written out once. Self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

# (layer, module, function) traced as "<layer>.<function>".
TRACED_FUNCTIONS = (
    ("netkit", "glassopt.netkit", "gradient"),
    ("netkit", "glassopt.netkit", "forward"),
    ("netkit", "glassopt.netkit", "relu_introspect"),
    ("alice", "glassopt.alice", "topography_update"),
    ("alice", "glassopt.alice", "quick_update"),
    ("alice", "glassopt.alice", "apply_step"),
    ("alice", "glassopt.alice", "reference_adam"),
    ("glass", "glassopt.glass", "measure_variations"),
    ("glass", "glassopt.glass", "density_matrix"),
    ("glass", "glassopt.glass", "density_diag"),
    ("glass", "glassopt.glass", "variation_bound"),
    ("glass", "glassopt.glass", "kernel_constant"),
    ("glass", "glassopt.glass", "optimal_kernel_weight"),
    ("oracles", "glassopt.oracles", "glass_walk_expectation"),
    ("oracles", "glassopt.oracles", "mc_estimator"),
    ("oracles", "glassopt.oracles", "mc_variation"),
    ("oracles", "glassopt.oracles", "step_objective_argmin"),
    ("harness", "glassopt.harness", "run_experiment"),
    ("harness", "glassopt.harness", "write_csv"),
    ("harness", "glassopt.harness", "run_verify_suite"),
    ("cli", "glassopt.cli", "main"),
)

VERIFY_SUITES = ("kernel", "glass", "naq", "step", "walk")

# Per-layer metrics that are a span's self time, keyed by span name. Verify
# suites are reported by their inclusive time instead.
SELF_TIME_SPANS = tuple(
    f"{layer}.{fn}" for layer, _, fn in TRACED_FUNCTIONS if fn != "run_verify_suite"
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Tracer:
    """Records nested spans of one single-threaded run, plus named counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, name_from_args=None, on_result=None):
        """Return fn wrapped in a span; name_from_args may refine the span name."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name_from_args(name, args, kwargs) if name_from_args else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "run_id": self.run_id,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": [[s.name, s.start, s.end, s.parent] for s in self.spans],
                    "counts": dict(self.counts),
                },
                fh,
            )


def _suite_span_name(name, args, kwargs):
    suite = kwargs.get("suite", args[0] if args else "all")
    return f"{name}.{suite}"


def _count_records(tracer, records):
    tracer.counts["netkit.relu_introspect.records"] += len(records)


def _count_density_bytes(tracer, matrix):
    dense = getattr(matrix, "R", None)  # a density without a dense R counts 0
    tracer.counts["glass.density_matrix.out_bytes"] += int(getattr(dense, "nbytes", 0))


def _rebind(original, replacement) -> None:
    """Point every glassopt module attribute that is `original` at `replacement`."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("glassopt"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced glassopt function, and Alice.step with its gradient calls.

    A function the package no longer has is skipped; its metrics read 0.
    """
    import glassopt.alice
    import glassopt.cli  # noqa: F401 - imports every traced module

    for layer, module_name, fn_name in TRACED_FUNCTIONS:
        original = getattr(sys.modules[module_name], fn_name, None)
        if original is None:
            continue
        name = f"{layer}.{fn_name}"
        wrapped = tracer.wrap(
            name,
            original,
            name_from_args=_suite_span_name if fn_name == "run_verify_suite" else None,
            on_result={
                "relu_introspect": _count_records,
                "density_matrix": _count_density_bytes,
            }.get(fn_name),
        )
        _rebind(original, wrapped)

    step = glassopt.alice.Alice.step

    def traced_step(opt, grad_fn):
        index = tracer.begin("alice.step")
        try:
            return step(opt, tracer.wrap("alice.grad_fn", grad_fn))
        finally:
            tracer.end(index)

    glassopt.alice.Alice.step = traced_step


# ---------------------------------------------------------------------------
# Span arithmetic


def _covered(interval, pieces) -> float:
    """Length of the part of `interval` covered by the union of `pieces`."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in pieces if min(b, hi) > max(a, lo))
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in clipped:
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its direct children."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        (s.end - s.start) - _covered((s.start, s.end), kids)
        for s, kids in zip(spans, children)
    ]


def time_excluding(spans: list[Span], name: str, excluded: str) -> float:
    """Total duration of `name` spans minus the time their `excluded` descendants cover."""
    inside: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.name != excluded:
            continue
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != name:
            ancestor = spans[ancestor].parent
        if ancestor >= 0:
            inside.setdefault(ancestor, []).append((span.start, span.end))
    return sum(
        (s.end - s.start) - _covered((s.start, s.end), inside.get(i, []))
        for i, s in enumerate(spans)
        if s.name == name
    )


def _percentile(values, q: float) -> float:
    """Linear-interpolated percentile, 0 for an empty list."""
    if not values:
        return 0.0
    values = sorted(values)
    pos = (len(values) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def layer_metrics(spans: list[Span], counts) -> dict[str, float]:
    """Per-layer metrics of one traced run; a layer that did not run reads 0."""
    selfs = self_times(spans)
    self_by_name: Counter = Counter()
    total_by_name: Counter = Counter()
    calls: Counter = Counter()
    for span, own in zip(spans, selfs):
        self_by_name[span.name] += own
        total_by_name[span.name] += span.end - span.start
        calls[span.name] += 1
    metrics = {f"{name}.self_s": self_by_name[name] for name in SELF_TIME_SPANS}

    n_grad = calls["netkit.gradient"]
    metrics["netkit.gradient.calls"] = float(n_grad)
    metrics["netkit.gradient.ms_per_call"] = (
        1e3 * total_by_name["netkit.gradient"] / n_grad if n_grad else 0.0
    )
    metrics["netkit.relu_introspect.records"] = float(counts.get("netkit.relu_introspect.records", 0))

    step_ms = [1e3 * (s.end - s.start) for s in spans if s.name == "alice.step"]
    metrics["alice.grad_evals"] = float(calls["alice.grad_fn"])
    metrics["alice.step.arith_s"] = time_excluding(spans, "alice.step", "alice.grad_fn")
    metrics["alice.step.ms_p50"] = _percentile(step_ms, 0.5)
    metrics["alice.step.ms_p90"] = _percentile(step_ms, 0.9)

    metrics["glass.density_matrix.out_mb"] = counts.get("glass.density_matrix.out_bytes", 0) / 1e6
    for suite in VERIFY_SUITES:
        metrics[f"harness.run_verify_suite.{suite}_s"] = total_by_name[
            f"harness.run_verify_suite.{suite}"
        ]
    return metrics
