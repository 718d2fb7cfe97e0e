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
    out = acts[-1]
    if spec.loss == "mse":
        r = out - batch.targets
        value = float(np.mean(r * r))
    else:
        t = np.asarray(batch.targets)
        shifted = out - out.max(axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(shifted), axis=1))
        value = float(np.mean(lse - shifted[np.arange(out.shape[0]), t]))
    masks = [y > 0.0 for y in preacts[:-1]]
    return value, masks


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
