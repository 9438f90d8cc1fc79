"""The single-sample backprop the batched pass replaced, kept as the reference.

`backprop` is one sample's forward and backward pass with matrix-vector
products, and `mean_gradient` adds the per-sample gradients one at a time in
batch order and divides by the count. `fwsd.sparse_net._backprop` has to
match it bit for bit, which `test_backprop.py` checks. `slope` reads relu's
slope off the pre-activation, where `_backprop` reads it off the activation.
`sigmoid` is the boolean-scatter form that `_activate`'s `np.where` form replaced.
"""

import numpy as np

from fwsd.sparse_net import Activation, LayerParams, Loss, _activate


def sigmoid(z: np.ndarray) -> np.ndarray:
    """The sigmoid as `_activate` computed it with boolean scatters, split by sign."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def slope(activation: Activation, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """The activation's slope at ``z``, where ``a`` is its value; relu's is 0 at the kink."""
    if activation is Activation.SIGMOID:
        return a * (1.0 - a)
    return (z > 0.0).astype(np.float64)


def loss_and_output_grad(loss: Loss, pred: np.ndarray, target: np.ndarray):
    """One sample's loss and its gradient in the network output."""
    if loss is Loss.MSE:
        diff = pred - target
        return float(np.mean(diff ** 2)), (2.0 / pred.size) * diff
    shifted = pred - np.max(pred)
    log_z = np.log(np.sum(np.exp(shifted)))
    softmax = np.exp(shifted - log_z)
    mass = float(np.sum(target))
    value = float((log_z + np.max(pred)) * mass - target @ pred)
    return value, softmax * mass - target


def backprop(spec, params, x, target):
    """Per-layer ``(grad_w, grad_b)`` of one sample's loss."""
    pre = []
    post = [np.asarray(x, dtype=np.float64)]
    a = post[0]
    for l, (w, b) in enumerate(params):
        z = w @ a + b
        pre.append(z)
        a = z if l == spec.n_layers - 1 else _activate(spec.activation, z)
        post.append(a)
    _, delta = loss_and_output_grad(spec.loss, post[-1], np.asarray(target, dtype=np.float64))
    grads = [None] * spec.n_layers
    for l in range(spec.n_layers - 1, -1, -1):
        grads[l] = LayerParams(w=np.outer(delta, post[l]), b=delta.copy())
        if l > 0:
            back = params[l].w.T @ delta
            delta = back * slope(spec.activation, pre[l - 1], post[l])
    return grads


def mean_gradient(spec, params, features, targets, batch):
    """In-order sum of the per-sample gradients of ``batch``, over the count."""
    acc_w = acc_b = None
    count = 0
    for i in batch:
        i = int(i)
        grads = backprop(spec, params, features[i], targets[i])
        if acc_w is None:
            acc_w = [g.w.copy() for g in grads]
            acc_b = [g.b.copy() for g in grads]
        else:
            for aw, ab, g in zip(acc_w, acc_b, grads):
                aw += g.w
                ab += g.b
        count += 1
    if count == 0:
        raise ValueError("empty batch")
    return [LayerParams(w=w / count, b=b / count) for w, b in zip(acc_w, acc_b)]
