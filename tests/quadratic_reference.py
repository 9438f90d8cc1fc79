"""The per-scenario quadratic gradient the batched pass replaced, kept as the reference.

`gradient_at` is ``split(Q r + z)`` for one scenario, and `mean_gradient`
adds the per-scenario gradients one at a time in batch order and divides by
the count. `objective_estimate` is the batch objective computed on its own.
`QuadraticInstance.gradient_mean` and its ``objective()`` have to match
them bit for bit, which `test_problems.py` checks.
"""

import numpy as np


def gradient_at(inst, x_blocks, y, z):
    """``(g_blocks, h)`` of one scenario: ``Q r + z`` split into blocks."""
    parts = [np.asarray(b, dtype=np.float64) for b in x_blocks]
    parts.append(np.asarray(y, dtype=np.float64))
    r = np.concatenate(parts) - inst.minimizer
    full = inst.q_matrix @ r + z
    blocks, at = [], 0
    for d in inst.block_dims:
        blocks.append(full[at:at + d])
        at += d
    return blocks, full[at:]


def mean_gradient(inst, x_blocks, y, batch):
    """Per-scenario gradients added in batch order, divided by the count."""
    acc_g = acc_h = None
    for z in batch:
        g_blocks, h = gradient_at(inst, x_blocks, y, z)
        if acc_g is None:
            acc_g = [np.array(g, dtype=np.float64) for g in g_blocks]
            acc_h = np.array(h, dtype=np.float64)
        else:
            for a, g in zip(acc_g, g_blocks):
                a += g
            acc_h += h
    count = len(batch)
    return [g / count for g in acc_g], acc_h / count


def objective_estimate(inst, x_blocks, y, batch):
    """``0.5 r' Q r`` plus the batch mean of ``z @ v``, with its own ``Q r``."""
    parts = [np.asarray(b, dtype=np.float64) for b in x_blocks]
    parts.append(np.asarray(y, dtype=np.float64))
    v = np.concatenate(parts)
    r = v - inst.minimizer
    noise = float(np.mean(batch @ v)) if len(batch) else 0.0
    return 0.5 * float(r @ (inst.q_matrix @ r)) + noise
