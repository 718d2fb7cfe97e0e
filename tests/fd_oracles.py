"""Finite-difference oracles and seeded fixtures shared by the tests."""

import numpy as np

from glassopt import netkit


def fd_loss_gradient(spec, params, batch, h=1e-5):
    """Central finite differences of the loss, with per-coordinate smoothness masks.

    A coordinate counts as smooth when no hidden unit changes activation sign
    between the two probe points. Returns (fd_gradient, smooth_mask).
    """
    fd = np.zeros_like(params)
    smooth = np.ones(params.shape[0], dtype=bool)
    for i in range(params.shape[0]):
        shifted = params.copy()
        shifted[i] += h
        loss_plus, masks_plus = _loss_and_masks(spec, shifted, batch)
        shifted[i] = params[i] - h
        loss_minus, masks_minus = _loss_and_masks(spec, shifted, batch)
        fd[i] = (loss_plus - loss_minus) / (2.0 * h)
        smooth[i] = all(
            np.array_equal(a, b) for a, b in zip(masks_plus, masks_minus)
        )
    return fd, smooth


def _loss_and_masks(spec, params, batch):
    preacts, acts = netkit.forward(spec, params, batch.inputs)
    value, _ = _loss_and_dout(spec, acts[-1], batch.targets)
    masks = [y > 0.0 for y in preacts[:-1]]
    return value, masks


def _loss_and_dout(spec, out, targets):
    """Batch-mean loss and its derivative w.r.t. the network output."""
    n = out.shape[0]
    if spec.loss == "mse":
        r = out - targets
        return float(np.mean(r * r)), (2.0 / r.size) * r
    t = np.asarray(targets)
    shifted = out - out.max(axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(shifted), axis=1))
    value = float(np.mean(lse - shifted[np.arange(n), t]))
    p = np.exp(shifted)
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(n), t] -= 1.0
    return value, p / n


def reference_gradient(spec, params, batch):
    """Reverse-mode (loss, gradient) that allocates every temporary afresh.

    Written apart from netkit (it slices the parameters itself and runs its
    own layer loop), but with the same floating-point operations in the same
    order, so netkit.gradient must agree with it bitwise.
    """
    weights, biases = [], []
    offset = 0
    for fan_in, fan_out in zip(spec.layer_widths[:-1], spec.layer_widths[1:]):
        weights.append(params[offset : offset + fan_in * fan_out].reshape(fan_in, fan_out))
        offset += fan_in * fan_out
        biases.append(params[offset : offset + fan_out])
        offset += fan_out
    preacts, acts = [], []
    a = batch.inputs
    for i, (w, b) in enumerate(zip(weights, biases)):
        y = a @ w + b
        preacts.append(y)
        a = np.maximum(y, 0.0) if i < len(weights) - 1 else y
        acts.append(a)
    value, d_y = _loss_and_dout(spec, acts[-1], batch.targets)
    pieces = []
    for i in range(len(weights) - 1, -1, -1):
        a_prev = batch.inputs if i == 0 else acts[i - 1]
        pieces[:0] = [(a_prev.T @ d_y).ravel(), d_y.sum(axis=0)]
        if i > 0:
            d_y = (d_y @ weights[i].T) * (preacts[i - 1] > 0.0)
    return value, np.concatenate(pieces)


def fd_preactivation_gradient(spec, params, batch, layer, neuron, sample, h=1e-5):
    """Central finite differences of one hidden pre-activation w.r.t. params."""
    fd = np.zeros_like(params)
    for i in range(params.shape[0]):
        shifted = params.copy()
        shifted[i] += h
        y_plus = netkit.forward(spec, shifted, batch.inputs)[0][layer][sample, neuron]
        shifted[i] = params[i] - h
        y_minus = netkit.forward(spec, shifted, batch.inputs)[0][layer][sample, neuron]
        fd[i] = (y_plus - y_minus) / (2.0 * h)
    return fd


def random_model_and_batch(seed, widths=(3, 5, 2), loss="mse", n=6):
    """A seeded (spec, params, batch) triple for gradient tests."""
    rng = np.random.default_rng(seed)
    spec = netkit.ModelSpec(widths, loss)
    params = netkit.build_model(spec, seed)
    inputs = rng.standard_normal((n, widths[0]))
    if loss == "mse":
        targets = rng.standard_normal((n, widths[-1]))
    else:
        targets = rng.integers(0, widths[-1], size=n)
    return spec, params, netkit.Batch(inputs, targets)
