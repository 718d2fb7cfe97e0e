"""Dense ReLU multilayer perceptrons with reverse-mode gradients.

This is the numerical core underneath the curvature probes: a minimal float64
MLP with mean-squared-error or softmax-cross-entropy loss, exact reverse-mode
gradients, and per-unit introspection of near-threshold ReLU pre-activations.

Parameters live in a single flat vector. Flattening is layer-major; within a
layer the weight matrix (fan_in x fan_out, row-major) comes first, then the
bias vector. This ordering is frozen because per-layer index partitions are
built on top of it.

The ReLU derivative at a pre-activation of exactly zero is 0: a unit sitting
on its threshold counts as inactive. Every function here is pure in
(spec, params, batch) and safe to call from multiple threads.

gradient and loss allocate no (batch x width) temporaries once warm, except
the square behind the mse loss value, and gradient no parameter-length array
but the gradient it returns. Each thread keeps a private workspace, keyed
by (layer widths, batch size) and rebuilt only when that key changes: one
(batch x width) buffer per layer, which holds the layer's pre-activation, then
its ReLU output (in place), then the backward signal that replaces it (for the
output layer, the loss derivative, written in place), plus one bool buffer for
the finiteness checks and ReLU masks. gradient and loss run their forward pass
through forward, handing it the workspace; nothing in the workspace leaves
either, every gradient call returns a fresh gradient array, and concurrent
calls from several threads stay safe. Called without a workspace, forward
allocates every array it returns, so callers may keep them.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

LOSS_KINDS = ("mse", "xent")


class ConfigError(ValueError):
    """Invalid model, optimizer, or experiment configuration."""


def check_seed(seed: int) -> int:
    """seed as an int; ConfigError unless it is an integer >= 0, as numpy's generators need.

    Every glassopt function that takes a seed checks it on entry, before any work.
    """
    if not isinstance(seed, (int, np.integer)):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return int(seed)


class NumericsError(ArithmeticError):
    """A forward or backward pass produced non-finite values."""


@dataclass(frozen=True)
class ModelSpec:
    """Architecture of a fully connected ReLU network.

    layer_widths lists input, hidden..., output widths; hidden layers use
    ReLU, the output layer is linear. loss is "mse" (mean squared error over
    all output entries) or "xent" (softmax cross-entropy against integer
    class targets).
    """

    layer_widths: tuple[int, ...]
    loss: str = "mse"

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        # Each message opens with its config key, so parse_config can add its line.
        if len(self.layer_widths) < 3:
            raise ConfigError(
                f"model.widths must list input, at least one hidden, and output widths, "
                f"got {self.layer_widths}"
            )
        if any(w < 1 for w in self.layer_widths):
            raise ConfigError(f"model.widths must all be >= 1, got {self.layer_widths}")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"model.loss must be one of {LOSS_KINDS}, got {self.loss!r}")
        if self.loss == "xent" and self.layer_widths[-1] < 2:
            raise ConfigError(
                "model.loss = xent (softmax cross-entropy) needs at least 2 output classes, "
                f"got model.widths[-1] = {self.layer_widths[-1]}"
            )
        # The flat layout depends only on layer_widths; build it once here
        # rather than on every forward or gradient call.
        slices, offset = [], 0
        for fi, fo in zip(self.layer_widths[:-1], self.layer_widths[1:]):
            w_end = offset + fi * fo
            slices.append((slice(offset, w_end), slice(w_end, w_end + fo), (fi, fo)))
            offset = w_end + fo
        object.__setattr__(self, "_slices", tuple(slices))
        object.__setattr__(self, "_param_count", offset)

    @property
    def n_layers(self) -> int:
        return len(self.layer_widths) - 1

    @property
    def n_hidden(self) -> int:
        return self.n_layers - 1

    @property
    def param_count(self) -> int:
        return self._param_count

    def layer_slices(self) -> list[tuple[slice, slice, tuple[int, int]]]:
        """(weight_slice, bias_slice, (fan_in, fan_out)) per layer."""
        return list(self._slices)

    def layer_param_indices(self, layer: int) -> np.ndarray:
        """Flat parameter indices (weights then bias) belonging to one layer."""
        w_sl, b_sl, _ = self.layer_slices()[layer]
        return np.arange(w_sl.start, b_sl.stop)


@dataclass(frozen=True)
class Batch:
    """A batch of inputs with targets.

    Targets are an (n, w_out) float matrix for mse, or a length-n integer
    vector of class indices for xent. class_range is the (min, max) of
    integer targets, taken once here, and None for float targets.
    """

    inputs: np.ndarray
    targets: np.ndarray
    class_range: tuple[int, int] | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=np.float64)
        t = np.asarray(self.targets)
        if not np.issubdtype(t.dtype, np.integer):
            t = t.astype(np.float64)
        if x.ndim != 2 or x.shape[0] < 1:
            raise ConfigError(f"inputs must be a non-empty (n, w_in) matrix, got shape {x.shape}")
        if not all_finite(x):
            raise ConfigError("batch inputs contain non-finite entries")
        if t.dtype == np.float64 and not all_finite(t):
            raise ConfigError("batch targets contain non-finite entries")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", t)
        integral = t.dtype != np.float64 and t.size > 0
        object.__setattr__(self, "class_range", (int(t.min()), int(t.max())) if integral else None)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]


@dataclass(frozen=True)
class ReluUnitRecord:
    """One near-threshold ReLU unit for a single sample.

    y is the pre-activation, dloss_dz the derivative of the batch loss with
    respect to this unit's post-activation, and grad_y the gradient of y with
    respect to the full flat parameter vector.
    """

    layer: int
    neuron: int
    sample: int
    y: float
    dloss_dz: float
    grad_y: np.ndarray

    @property
    def unit_id(self) -> tuple[int, int, int]:
        return (self.layer, self.neuron, self.sample)


def _views(spec: ModelSpec, params: np.ndarray):
    """Per-layer (weight, bias) views into a flat parameter vector, or into each row of a stack."""
    weights, biases = [], []
    lead = params.shape[:-1]
    for w_sl, b_sl, (fi, fo) in spec._slices:
        weights.append(params[..., w_sl].reshape(*lead, fi, fo))
        biases.append(params[..., b_sl])
    return weights, biases


def _check_params(spec: ModelSpec, params: np.ndarray) -> np.ndarray:
    params = np.asarray(params, dtype=np.float64)
    if params.shape != (spec._param_count,):
        raise ConfigError(
            f"parameter vector has shape {params.shape}, spec needs ({spec.param_count},)"
        )
    return params


def _check_batch(spec: ModelSpec, batch: Batch) -> None:
    if batch.inputs.shape[1] != spec.layer_widths[0]:
        raise ConfigError(
            f"batch input width {batch.inputs.shape[1]} != model input width {spec.layer_widths[0]}"
        )
    w_out = spec.layer_widths[-1]
    if spec.loss == "mse":
        if batch.targets.ndim != 2 or batch.targets.shape != (batch.size, w_out):
            raise ConfigError(
                f"mse targets must have shape ({batch.size}, {w_out}), got {batch.targets.shape}"
            )
    else:
        classes = batch.class_range
        if batch.targets.ndim != 1 or batch.targets.shape[0] != batch.size or classes is None:
            raise ConfigError("xent targets must be a length-n vector of class indices")
        if classes[0] < 0 or classes[1] >= w_out:
            raise ConfigError(f"class indices must lie in [0, {w_out})")


def build_model(spec: ModelSpec, seed: int) -> np.ndarray:
    """Initialize a flat parameter vector.

    Weights are Gaussian, scaled so pre-activations have order-1 variance for
    unit-variance inputs (1/fan_in on the input layer, 2/fan_in after ReLUs);
    biases start at zero. Deterministic given the seed.
    """
    rng = np.random.default_rng(check_seed(seed))
    params = np.zeros(spec.param_count)
    weights, _ = _views(spec, params)
    for i, w in enumerate(weights):
        fan_in = w.shape[0]
        scale = np.sqrt((2.0 if i > 0 else 1.0) / fan_in)
        w[...] = scale * rng.standard_normal(w.shape)
    return params


def all_finite(x: np.ndarray, flags: np.ndarray | None = None) -> bool:
    """Whether every entry of x is finite, using flags (if given) as bool scratch.

    One pass in the common case: an inf or NaN entry makes its square, and so
    the sum of squares, inf or NaN (the squares are nonnegative, so nothing
    cancels), so a finite sum of squares proves every entry finite. A
    non-finite sum can also come from finite entries beyond ~1e154 whose
    squares overflow; only then is each entry tested, so the answer is exact.
    The sum of squares is one BLAS call: faster than x.sum()'s pairwise
    reduction at the sizes gradient checks, and, unlike it, silent when
    finite entries overflow.
    """
    if math.isfinite(np.vdot(x, x)):
        return True
    out = None if flags is None else flags[: x.size].reshape(x.shape)
    return bool(np.isfinite(x, out=out).all())


def forward(spec: ModelSpec, params: np.ndarray, inputs: np.ndarray, *, workspace=None,
            views=None):
    """Run the network, returning (pre-activations, post-activations) per layer.

    Every returned array is freshly allocated unless workspace, a (per-layer
    (n, width) float buffers, bool scratch) pair, is given. Then layer i is
    computed in buffer i with its ReLU applied in place, so both lists hold
    the buffers and a hidden layer's pre-activation is not kept. gradient
    passes its per-thread workspace here, and the (weights, biases) views of
    params it has already built; other callers leave both out.
    """
    params = _check_params(spec, params)
    weights, biases = views if views is not None else _views(spec, params)
    layers, flags = workspace if workspace is not None else ([None] * spec.n_layers, None)
    a = np.asarray(inputs, dtype=np.float64)
    preacts, acts = [], []
    last = spec.n_layers - 1
    for i, (w, b) in enumerate(zip(weights, biases)):
        y = np.matmul(a, w, out=layers[i])
        y += b
        if not all_finite(y, flags):
            raise NumericsError(f"non-finite pre-activations at layer {i}")
        a = np.maximum(y, 0.0, out=layers[i]) if i < last else y
        preacts.append(y)
        acts.append(a)
    return preacts, acts


def _check_loss(value: float) -> None:
    """A finite output can still overflow the loss, as a squared error beyond ~1.3e154."""
    if not math.isfinite(value):
        raise NumericsError(f"non-finite loss {value}")


def _loss_and_dout(spec: ModelSpec, out: np.ndarray, targets: np.ndarray):
    """Batch-mean loss and its derivative w.r.t. the network output, written over out.

    out is overwritten in place; only length-n vectors are allocated for xent
    (row maxima, target logits, row sums). mse allocates one out-sized square.
    """
    n = out.shape[0]
    if spec.loss == "mse":
        r = np.subtract(out, targets, out=out)
        value = float((r * r).sum()) / r.size  # np.mean's sum and division
        _check_loss(value)
        r *= 2.0 / r.size
        return value, r
    rows, t = np.arange(n), np.asarray(targets)
    shifted = np.subtract(out, out.max(axis=1, keepdims=True), out=out)
    target_logits = shifted[rows, t]
    p = np.exp(shifted, out=out)
    sums = p.sum(axis=1)
    value = float((np.log(sums) - target_logits).sum()) / n
    _check_loss(value)
    p /= sums[:, None]
    p[rows, t] -= 1.0
    p /= n
    return value, p


_workspace = threading.local()


def _workspace_buffers(spec: ModelSpec, n: int):
    """This thread's per-layer (n, width) float buffers, bool scratch and ReLU masks.

    masks[i] is the bool scratch viewed as layer i's (n, width) shape.
    """
    key = (spec.layer_widths, n)
    if getattr(_workspace, "key", None) != key:
        widths = spec.layer_widths[1:]
        flags = np.empty(n * max(widths), dtype=bool)
        _workspace.layers = [np.empty((n, w)) for w in widths]
        _workspace.flags = flags
        _workspace.masks = [flags[: n * w].reshape(n, w) for w in widths]
        _workspace.key = key
    return _workspace.layers, _workspace.flags, _workspace.masks


def loss(spec: ModelSpec, params: np.ndarray, batch: Batch) -> float:
    """Mean loss of the batch, from a forward pass through this thread's workspace."""
    params = _check_params(spec, params)
    _check_batch(spec, batch)
    layers, flags, _ = _workspace_buffers(spec, batch.size)
    _, acts = forward(spec, params, batch.inputs, workspace=(layers, flags))
    return _loss_and_dout(spec, acts[-1], batch.targets)[0]


def gradient(spec: ModelSpec, params: np.ndarray, batch: Batch):
    """Reverse-mode gradient of the batch loss. Returns (loss, flat gradient)."""
    params = _check_params(spec, params)
    _check_batch(spec, batch)
    layers, flags, masks = _workspace_buffers(spec, batch.size)
    views = _views(spec, params)
    _, acts = forward(spec, params, batch.inputs, workspace=(layers, flags), views=views)
    value, d_y = _loss_and_dout(spec, acts[-1], batch.targets)
    weights = views[0]
    # Every entry is written below: the layout tiles the vector with the
    # per-layer weight and bias blocks.
    grad = np.empty_like(params)
    g_weights, g_biases = _views(spec, grad)
    for i in range(spec.n_layers - 1, -1, -1):
        if not all_finite(d_y, flags):
            raise NumericsError(f"non-finite backward signal at layer {i}")
        a_prev = batch.inputs if i == 0 else acts[i - 1]
        np.matmul(a_prev.T, d_y, out=g_weights[i])
        d_y.sum(axis=0, out=g_biases[i])
        if i > 0:
            # A ReLU output is positive exactly where its pre-activation is.
            # The backward signal then overwrites that output, now unused.
            active = np.greater(a_prev, 0.0, out=masks[i - 1])
            d_y = np.matmul(d_y, weights[i].T, out=a_prev)
            d_y *= active
    return value, grad


def relu_introspect(spec: ModelSpec, params: np.ndarray, batch: Batch, psi: float):
    """Collect every hidden (unit, sample) pair with |pre-activation| < psi.

    Each record carries the gradient of its pre-activation w.r.t. the full
    parameter vector, plus the derivative of the batch loss w.r.t. the unit's
    post-activation. Records are ordered by (layer, neuron, sample).

    One backward pass per hidden layer serves all K records of that layer:
    record k's grad_y is row k of a (K x d) block. Each row takes the same
    products, and the same matrix-vector call, as a pass of its own would, so
    grad_y is bitwise that of a separate backward pass per record.
    """
    if not psi > 0:
        raise ConfigError("psi must be positive")
    params = _check_params(spec, params)
    _check_batch(spec, batch)
    preacts, acts = forward(spec, params, batch.inputs)
    _, d_y = _loss_and_dout(spec, acts[-1], batch.targets)
    weights, _ = _views(spec, params)
    layer_inputs = [batch.inputs, *acts[:-1]]

    # dloss/dz per hidden layer: the backward signal before the ReLU mask.
    d_z = [None] * spec.n_hidden
    for i in range(spec.n_layers - 1, 0, -1):
        d_a = d_y @ weights[i].T
        d_z[i - 1] = d_a
        d_y = d_a * (preacts[i - 1] > 0.0)

    records = []
    for layer in range(spec.n_hidden):
        neurons, samples = np.nonzero(np.abs(preacts[layer]).T < psi)
        block = np.zeros((neurons.size, spec.param_count))
        g_weights, g_biases = _views(spec, block)
        rows = np.arange(neurons.size)
        g_weights[layer][rows, :, neurons] = layer_inputs[layer][samples]
        g_biases[layer][rows, neurons] = 1.0
        d_a = weights[layer][:, neurons].T
        for i in range(layer - 1, -1, -1):
            d_y = d_a * (preacts[i][samples] > 0.0)
            np.multiply(layer_inputs[i][samples][:, :, None], d_y[:, None, :], out=g_weights[i])
            g_biases[i][...] = d_y
            if i > 0:
                # One matrix-vector product per record: d_y @ weights[i].T, a
                # single matrix product, rounds differently.
                d_a = np.matmul(weights[i], d_y[:, :, None])[:, :, 0]
        for k, (neuron, sample) in enumerate(zip(neurons.tolist(), samples.tolist())):
            y, dz = float(preacts[layer][sample, neuron]), float(d_z[layer][sample, neuron])
            records.append(ReluUnitRecord(layer, neuron, sample, y, dz, block[k]))
    return records



_lanes_lock = threading.Lock()
_lanes_open = 0
_blas_outer = None  # the BLAS thread count the last lane to close restores


@functools.cache
def _blas_threads():
    """The (get, set) thread-count functions of numpy's bundled OpenBLAS, or None."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for name in os.listdir(libs) if os.path.isdir(libs) else ():
        lib = ctypes.CDLL(os.path.join(libs, name)) if "openblas" in name else None
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    return None


def _run_here(fn, /, *args, **kwargs):
    """A process lane's submit without a fork: run fn now, in the calling thread."""
    from concurrent.futures import Future

    future = Future()
    try:
        future.set_result(fn(*args, **kwargs))
    except Exception as exc:  # noqa: BLE001 - raised by result(), as a worker's error is
        future.set_exception(exc)
    return future


@contextmanager
def lane(process: bool = False):
    """Open a one-worker pool beside the calling thread; yield its submit.

    The worker is a thread, or with process=True a process that the first
    submit forks. The forked worker starts from a copy of this process, its
    modules, patches and BLAS setting included, and takes each call and
    returns its result by pickle. A fork copies only the forking thread, so
    a process lane forks only where the platform has fork and no other thread
    runs; otherwise its submit runs the call at once in the calling thread and
    returns its future all the same. stdout and stderr are flushed first, so
    that the worker holds no copy of buffered output; the caller submits
    before it writes more or starts a thread.

    The worker is joined before the lane closes, so the caller's error comes
    first and a worker's error comes from its future's result(); a worker
    process that dies raises BrokenProcessPool there. While lanes are open,
    BLAS runs on half its threads (at least one): caller and worker both call it.
    """
    global _lanes_open, _blas_outer
    with _lanes_lock:
        _lanes_open += 1
        if _lanes_open == 1 and (blas := _blas_threads()) and blas[0]() > 1:
            _blas_outer = blas[0]()
            blas[1](_blas_outer // 2)
    try:
        if not process:
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=1) as pool:
                yield pool.submit
        elif threading.active_count() > 1 or not hasattr(os, "fork"):
            yield _run_here
        else:
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # multiprocessing's fork start flushes too, but does not document it.
            sys.stdout.flush()
            sys.stderr.flush()
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=1, mp_context=fork) as pool:
                yield pool.submit
    finally:
        with _lanes_lock:
            _lanes_open -= 1
            if _lanes_open == 0 and _blas_outer is not None:
                _blas_threads()[1](_blas_outer)
                _blas_outer = None
