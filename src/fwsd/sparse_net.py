"""Small dense networks whose layers can be trained under l1 constraints.

A network is described by an `MLPSpec`; its parameters are plain numpy
arrays, one ``(fan_out, fan_in)`` weight matrix and one bias vector per
layer. A `ParamLayout` maps those arrays onto optimizer coordinates: each
node of a constrained layer contributes its incoming-weight row as one
l1-ball block, everything else (dense layers, biases) is flattened into
the single free block. Backpropagation runs over a batch of samples at
once and sums each layer's gradient over the batch into one vector whose
entries are the coordinates in `ParamLayout.pack` order; a single sample
is a batch of one.

Datasets, epoch sampling over them, the synthetic teacher generator and
every file format live here too: dataset CSV, and the binary dataset and
checkpoint files, which share one layout (`write_binary`, `BinaryReader`).
"""

from __future__ import annotations

import enum
import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import L1Ball, RowError, batch_sum, nnz_rows, regroup
from .problems import GradientEstimate, _shaped_like

_DATASET_MAGIC = b"FWSDDATA"
_DATASET_VERSION = 1
_CKPT_MAGIC = b"FWSDCKPT"
_CKPT_VERSION = 1


class Activation(enum.Enum):
    SIGMOID = "sigmoid"
    RELU = "relu"


class Loss(enum.Enum):
    MSE = "mse"
    SOFTMAX_CE = "softmax-ce"


class LayerParams(NamedTuple):
    """Weights ``(fan_out, fan_in)`` and bias ``(fan_out,)`` of one layer."""

    w: np.ndarray
    b: np.ndarray


class Dataset(NamedTuple):
    """Feature matrix ``(n, d)`` and target matrix ``(n, t)``."""

    features: np.ndarray
    targets: np.ndarray


@dataclass(frozen=True)
class MLPSpec:
    """Architecture plus the split into constrained and free layers.

    ``layer_sizes`` starts with the input dimension; layer ``l`` maps
    ``layer_sizes[l]`` to ``layer_sizes[l + 1]``. ``fw_layers`` lists the
    layer indices whose per-node incoming weights live in l1 balls, with
    one radius per entry in ``deltas``. Hidden layers apply ``activation``;
    the final layer is linear (its output feeds the loss directly).
    """

    layer_sizes: tuple[int, ...]
    activation: Activation = Activation.SIGMOID
    loss: Loss = Loss.MSE
    fw_layers: tuple[int, ...] = ()
    deltas: tuple[float, ...] = ()
    bias: bool = True

    def __post_init__(self) -> None:
        # fields may arrive as JSON values (lists, enum values); a failure names its field
        for name in ("layer_sizes", "fw_layers", "deltas"):
            if isinstance(getattr(self, name), str):  # it would iterate as its characters
                raise ValueError(f"{name}: expected a sequence, not {getattr(self, name)!r}")
        for name, coerce in (("layer_sizes", lambda v: tuple(int(s) for s in v)),
                             ("fw_layers", lambda v: tuple(int(l) for l in v)),
                             ("deltas", lambda v: tuple(float(d) for d in v)),
                             ("activation", Activation), ("loss", Loss)):
            try:
                object.__setattr__(self, name, coerce(getattr(self, name)))
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{name}: {exc}") from None
        if not isinstance(self.bias, bool):
            raise ValueError("bias must be true or false")
        if len(self.layer_sizes) < 2:
            raise ValueError("layer_sizes needs at least an input and an output layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer_sizes must be positive")
        n_layers = len(self.layer_sizes) - 1
        if sorted(set(self.fw_layers)) != list(self.fw_layers):
            raise ValueError("fw_layers must be sorted and unique")
        if any(l < 0 or l >= n_layers for l in self.fw_layers):
            raise ValueError(f"fw_layers must index the {n_layers} weight layers")
        if len(self.deltas) != len(self.fw_layers):
            raise ValueError("deltas needs exactly one radius per constrained layer")
        if not all(0.0 < d < np.inf for d in self.deltas):  # NaN fails too
            raise ValueError("deltas must be positive and finite")

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def fan_in(self, layer: int) -> int:
        return self.layer_sizes[layer]

    def fan_out(self, layer: int) -> int:
        return self.layer_sizes[layer + 1]

    def delta_for(self, layer: int) -> float:
        return self.deltas[self.fw_layers.index(layer)]


class ParamLayout:
    """Bijection between layer parameter arrays and optimizer coordinates.

    Blocks are ordered by (constrained layer, node); the free block
    concatenates the dense layers' weights in layer order followed by all
    bias vectors (when the spec has biases). ``columns[l]`` holds layer
    ``l``'s weight and bias slices of the ``size`` coordinates in that order
    (the bias slice is ``None`` without biases), ``shapes[l]`` its weight shape.
    """

    def __init__(self, spec: MLPSpec):
        self.spec = spec
        self.block_meta: tuple[tuple[int, int], ...] = tuple(
            (l, node) for l in spec.fw_layers for node in range(spec.fan_out(l))
        )
        self.block_dims: tuple[int, ...] = tuple(spec.fan_in(l) for l, _ in self.block_meta)
        self.shapes = tuple((spec.fan_out(l), spec.fan_in(l)) for l in range(spec.n_layers))
        # the constrained layers' heights and widths, as `regroup` takes them
        self._fw_cut = (tuple(spec.fan_out(l) for l in spec.fw_layers),
                        tuple(spec.fan_in(l) for l in spec.fw_layers))
        dense = [l for l in range(spec.n_layers) if l not in spec.fw_layers]
        w_cols, at = {}, 0
        for l in (*spec.fw_layers, *dense):
            w_cols[l] = slice(at, at + math.prod(self.shapes[l]))
            at = w_cols[l].stop
        b_cols = {}
        for l in range(spec.n_layers) if spec.bias else ():
            b_cols[l] = slice(at, at + spec.fan_out(l))
            at = b_cols[l].stop
        self.columns = tuple((w_cols[l], b_cols.get(l)) for l in range(spec.n_layers))
        self.size = at
        self.y_dim = at - sum(self.block_dims)

    def balls(self) -> tuple[L1Ball, ...]:
        """One l1 ball per block, radius taken from the block's layer."""
        return tuple(L1Ball(dim=self.spec.fan_in(l), radius=self.spec.delta_for(l))
                     for l, _ in self.block_meta)

    def blocks_for_layer(self, layer: int) -> list[int]:
        return [i for i, (l, _) in enumerate(self.block_meta) if l == layer]

    def pack(self, params: Sequence[LayerParams]):
        """Split parameter arrays into ``(x_blocks, y)``.

        Works on anything params-shaped, so gradients pack the same way.
        ``x_blocks`` holds each constrained layer's float64 weight matrix,
        not a copy, whose rows are the layer's blocks; ``y`` is a new array.
        """
        x_blocks = [np.asarray(params[l].w, dtype=np.float64) for l in self.spec.fw_layers]
        y = np.empty(self.y_dim)
        for l, (w_cols, b_cols) in enumerate(self.columns):
            if l not in self.spec.fw_layers:
                y[self._in_y(w_cols)] = np.ravel(params[l].w)
            if b_cols is not None:
                y[self._in_y(b_cols)] = params[l].b
        return x_blocks, y

    def _in_y(self, cols: slice) -> slice:  # y holds the columns after the blocks'
        return slice(cols.start - self.size + self.y_dim, cols.stop - self.size + self.y_dim)

    def unpack(self, x_blocks, y) -> list[LayerParams]:
        """Rebuild per-layer arrays from optimizer coordinates, the blocks in any cut.

        A constrained layer's weights are a `regroup` view where they can be.
        """
        try:
            fw = regroup(x_blocks, *self._fw_cut, "x_blocks")
        except RowError as exc:
            if exc.row is None:
                raise
            layer, node = self.block_meta[exc.row]
            raise ValueError(str(exc).replace(
                "x_blocks", f"block {exc.row} (layer {layer}, node {node})", 1)) from exc
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.y_dim,):
            raise ValueError(f"free block has shape {y.shape}, expected ({self.y_dim},)")
        weights = dict(zip(self.spec.fw_layers, fw))
        params = []
        for l, ((w_cols, b_cols), shape) in enumerate(zip(self.columns, self.shapes)):
            w = weights.get(l)
            if w is None:
                w = y[self._in_y(w_cols)].reshape(shape).copy()
            b = np.zeros(shape[0]) if b_cols is None else y[self._in_y(b_cols)].copy()
            params.append(LayerParams(w=w, b=b))
        return params


def forward(spec: MLPSpec, params: Sequence[LayerParams], x: np.ndarray) -> np.ndarray:
    """Network output for a single sample ``(d,)`` or a batch ``(n, d)``.

    Hidden layers apply the spec activation; the last layer is linear and
    yields regression outputs or classification logits as-is.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = x.reshape(1, -1) if single else x
    if a.shape[1] != spec.layer_sizes[0]:
        raise ValueError(f"input has {a.shape[1]} features, spec wants {spec.layer_sizes[0]}")
    for l, (w, b) in enumerate(params):
        z = a @ w.T + b
        a = z if l == spec.n_layers - 1 else _activate(spec.activation, z)
    return a[0] if single else a


def _activate(activation: Activation, z: np.ndarray) -> np.ndarray:
    if activation is Activation.SIGMOID:
        # split by sign for stability on large magnitudes: exp only sees -|z|
        pos = z >= 0
        e = np.exp(np.where(pos, -z, z))
        den = 1.0 + e
        np.copyto(e, 1.0, where=pos)  # e becomes the numerator in place: less peak memory
        return np.divide(e, den, out=e)
    return np.maximum(z, 0.0)


def _activation_slope(activation: Activation, a: np.ndarray) -> np.ndarray:
    if activation is Activation.SIGMOID:
        return a * (1.0 - a)
    return (a > 0.0).astype(np.float64)  # a > 0 exactly where z > 0; subgradient 0 at the kink


def _output_grad(loss: Loss, pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    # per-row gradient of each sample's loss in the network output
    if loss is Loss.MSE:
        return (2.0 / pred.shape[1]) * (pred - target)
    shifted = pred - np.max(pred, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(shifted), axis=1, keepdims=True))
    return np.exp(shifted - log_z) * np.sum(target, axis=1, keepdims=True) - target


def loss_value(spec: MLPSpec, pred: np.ndarray, target: np.ndarray) -> float:
    """Mean loss over a batch of predictions."""
    pred = np.atleast_2d(np.asarray(pred, dtype=np.float64))
    target = np.atleast_2d(np.asarray(target, dtype=np.float64))
    if spec.loss is Loss.MSE:  # np.mean's sum and division, squaring in place
        sq = pred - target
        np.square(sq, out=sq)
        return float(np.add.reduce(sq, axis=None) / sq.size)
    m = np.max(pred, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(pred - m), axis=1)) + m[:, 0]
    per_sample = log_z * np.sum(target, axis=1) - np.sum(target * pred, axis=1)
    return float(np.mean(per_sample))


def _backprop(layout: ParamLayout, params: Sequence[LayerParams], X: np.ndarray,
              T: np.ndarray) -> np.ndarray:
    """Mean over the rows of ``X``/``T`` of each sample's gradient, in `ParamLayout.pack` order.

    Forward and back products are per-row matrix-vector products (stacked
    `np.matmul`). Each layer's weight sum over the batch is one `_weight_sum`
    and its bias sum one `batch_sum`, written into one vector, and one division
    makes the mean, so the result equals, bit for bit, adding the single-sample
    gradients one at a time and dividing by the count.
    """
    spec, n = layout.spec, len(X)
    if n == 0:
        raise ValueError("empty batch")
    last = spec.n_layers - 1
    post = [X]
    for l, (w, b) in enumerate(params):
        z = np.matmul(w[None], post[-1][:, :, None])[:, :, 0] + b
        post.append(z if l == last else _activate(spec.activation, z))
    delta = _output_grad(spec.loss, post[-1], T)
    total = np.empty(layout.size)
    for l in range(last, -1, -1):
        w_cols, b_cols = layout.columns[l]
        _weight_sum(delta, post[l], total[w_cols].reshape(layout.shapes[l]))
        if b_cols is not None:
            total[b_cols] = batch_sum(delta)
        if l > 0:
            back = np.matmul(params[l].w.T[None], delta[:, :, None])[:, :, 0]
            delta = back * _activation_slope(spec.activation, post[l])
    return np.divide(total, n, out=total)


def _weight_sum(delta: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
    """Write ``sum_n outer(delta[n], a[n])`` into ``out``, rounded like the left fold from -0.0.

    einsum folds each entry in sample order but from +0.0, so it gives +0.0 where
    every product is -0.0: an exact-zero sum whose factors' signs multiply to -1
    in every sample, which a product of +-1 sign matrices counts exactly.
    """
    if out.size == 1:  # einsum would sum the lone entry pairwise
        out[...] = batch_sum(delta * a)
    elif not np.einsum("nj,ni->ji", delta, a, out=out).all():
        signs = np.copysign(1.0, delta).T @ np.copysign(1.0, a)
        out[(out == 0.0) & (signs == -len(delta))] = -0.0


@dataclass(frozen=True, eq=False)
class MLPProblem:
    """Empirical-risk training problem over a fixed dataset.

    Scenarios are row indices drawn with replacement, so the expectation
    defining the objective is the plain average over the dataset, and
    ``exact_gradient`` / ``exact_objective`` are full-dataset passes.
    ``layout`` is the spec's `ParamLayout`, built here.
    """

    spec: MLPSpec
    data: Dataset
    layout: ParamLayout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_widths(self.spec, self.data, "data")
        object.__setattr__(self, "layout", ParamLayout(self.spec))

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self.layout.block_dims

    @property
    def y_dim(self) -> int:
        return self.layout.y_dim

    @property
    def n_samples(self) -> int:
        return self.data.features.shape[0]

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(0, self.n_samples, size=n)

    def gradient_mean(self, x_blocks, y, batch):
        """Mean of the batch's per-sample gradients from one pass; the objective uses `forward`.

        The blocks come in any cut; the gradient comes back in the same cut, as
        views of the one vector `_backprop` returns.
        """
        idx = np.asarray(batch, dtype=np.int64)
        params = self.layout.unpack(x_blocks, y)
        X, T = self.data.features.take(idx, axis=0), self.data.targets.take(idx, axis=0)
        g_blocks, h = _shaped_like(x_blocks, _backprop(self.layout, params, X, T))
        return GradientEstimate(tuple(g_blocks), h,
                                lambda: loss_value(self.spec, forward(self.spec, params, X), T))

    def exact_gradient(self, x_blocks, y):
        est = self.gradient_mean(x_blocks, y, np.arange(self.n_samples))
        return list(est.g_blocks), est.h

    def exact_objective(self, x_blocks, y) -> float:
        return evaluate(self.spec, self.layout.unpack(x_blocks, y), self.data)["loss"]


class EpochSampling:
    """Shuffled-pass sampling over a dataset problem.

    Off the i.i.d. model the optimizer assumes: instead of drawing with
    replacement, walk a random permutation and reshuffle when exhausted.
    Each generator walks its own permutation with its own cursor, so
    drawing from one stream never shifts another. Everything except
    ``draw`` delegates to the wrapped problem.
    """

    def __init__(self, problem):
        self._problem = problem
        self._cursors: dict[np.random.Generator, tuple[np.ndarray, int]] = {}

    def __getattr__(self, name):
        return getattr(self._problem, name)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        order, at = self._cursors.get(rng, (np.empty(0, dtype=np.int64), 0))
        out = np.empty(n, dtype=np.int64)
        filled = 0
        while filled < n:
            if at >= order.size:
                order, at = rng.permutation(self._problem.n_samples), 0
            take = min(n - filled, order.size - at)
            out[filled:filled + take] = order[at:at + take]
            at += take
            filled += take
        self._cursors[rng] = (order, at)
        return out


def _check_widths(spec: MLPSpec, data: Dataset, name: str) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``data`` fits the network's end layers."""
    n, d = data.features.shape
    if d != spec.layer_sizes[0] or data.targets.shape != (n, spec.layer_sizes[-1]):
        raise ValueError(f"{name}: features {data.features.shape} and targets "
                         f"{data.targets.shape} do not fit layer sizes {spec.layer_sizes}")


def _nnz_percentages(layout: ParamLayout, counts) -> list[list[float]]:
    """Per constrained layer, the mean over its nodes of ``100 * count / fan_in``, per row.

    ``counts`` holds rows of per-block counts in block order. Each row's shares
    are summed as one 1-D array, `np.mean`'s own order (a sum along axis 1 rounds
    otherwise), then divided by the node count and scaled.
    """
    counts = np.array(counts, dtype=np.float64).reshape(len(counts), len(layout.block_dims))
    out: list[list[float]] = [[] for _ in counts]
    for l in layout.spec.fw_layers:
        shares = counts[:, layout.blocks_for_layer(l)] / layout.spec.fan_in(l)
        for row, part in zip(out, shares):
            row.append(100.0 * float(np.add.reduce(part) / len(part)))
    return out


def nnz_metrics(params, spec: MLPSpec) -> dict[int, float]:
    """Percent of per-node incoming weights of magnitude ``NNZ_THRESHOLD`` or more, by layer.

    The average over the layer's nodes of ``100 * nnz_rows(w) / fan_in``, the
    rule the trace's NNZ columns use.
    """
    counts = [c for l in spec.fw_layers for c in nnz_rows(params[l].w).tolist()]
    (row,) = _nnz_percentages(ParamLayout(spec), [counts])
    return dict(zip(spec.fw_layers, row))


def hard_threshold(params, spec: MLPSpec, theta_percent: float) -> list[LayerParams]:
    """Keep the top ``theta_percent`` of each constrained layer's weights.

    Magnitudes are ranked over the whole layer (all nodes pooled); exactly
    ``ceil(theta / 100 * count)`` entries survive, ties at the cutoff going
    to the lowest flat index. Dense layers and biases pass through.
    """
    if not 0.0 <= theta_percent <= 100.0:
        raise ValueError("theta_percent must be within [0, 100]")
    out = []
    for l, layer in enumerate(params):
        if l not in spec.fw_layers:
            out.append(LayerParams(w=layer.w.copy(), b=layer.b.copy()))
            continue
        flat = np.abs(layer.w).ravel()
        keep = int(np.ceil(theta_percent / 100.0 * flat.size))
        mask = np.zeros(flat.size, dtype=bool)
        mask[np.argsort(-flat, kind="stable")[:keep]] = True
        w = np.where(mask.reshape(layer.w.shape), layer.w, 0.0)
        out.append(LayerParams(w=w, b=layer.b.copy()))
    return out


@dataclass(frozen=True)
class SynthSpec:
    """Teacher network (checked as an `MLPSpec`) and sampling plan for synthetic data."""

    layer_sizes: tuple[int, ...] = (50, 50, 50, 1)
    m: int = 5
    snr: float = 10.0
    activation: Activation = Activation.SIGMOID
    train_size: int = 100_000
    val_size: int = 20_000
    test_size: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        teacher = self.teacher  # MLPSpec's checks, and errors naming the field
        object.__setattr__(self, "layer_sizes", teacher.layer_sizes)
        object.__setattr__(self, "activation", teacher.activation)
        if self.m < 1 or any(self.m > self.layer_sizes[l] for l in range(len(self.layer_sizes) - 2)):
            raise ValueError("per-node in-degree m must fit every sparse layer's fan-in")
        if not self.snr > 0.0:  # NaN fails too
            raise ValueError("snr must be positive")
        if min(self.train_size, self.val_size, self.test_size) < 2:
            raise ValueError("every split needs at least two samples")

    @property
    def teacher(self) -> MLPSpec:
        """The teacher network's architecture: the layer sizes and activation, no biases."""
        return MLPSpec(layer_sizes=self.layer_sizes, activation=self.activation, bias=False)


def generate_synthetic(synth: SynthSpec):
    """Sample a sparse teacher network and Gaussian data from it.

    All layers but the last get exactly ``m`` random incoming edges per
    node with weights of magnitude 1 and random sign; the last layer is
    fully connected with random signs. Targets are the teacher's output
    plus Gaussian noise scaled so the train-split signal variance over
    noise variance matches ``snr``. Returns
    ``(train, val, test, teacher_params)``.
    """
    rng = np.random.default_rng(synth.seed)
    sizes = synth.layer_sizes
    n_layers = len(sizes) - 1
    teacher: list[LayerParams] = []
    for l in range(n_layers):
        fan_out, fan_in = sizes[l + 1], sizes[l]
        w = np.zeros((fan_out, fan_in))
        if l == n_layers - 1:
            w[:] = rng.choice([-1.0, 1.0], size=(fan_out, fan_in))
        else:
            for node in range(fan_out):
                cols = rng.choice(fan_in, size=synth.m, replace=False)
                w[node, cols] = rng.choice([-1.0, 1.0], size=synth.m)
        teacher.append(LayerParams(w=w, b=np.zeros(fan_out)))

    def make_split(n: int, noise_std: float | None = None):
        x = rng.standard_normal((n, sizes[0]))
        signal = forward(synth.teacher, teacher, x)
        if noise_std is None:  # the train split: its signal sets the noise scale
            noise_std = float(np.sqrt(np.var(signal) / synth.snr))
        return Dataset(x, signal + rng.normal(0.0, noise_std, signal.shape)), noise_std

    train, noise_std = make_split(synth.train_size)
    val, _ = make_split(synth.val_size, noise_std)
    test, _ = make_split(synth.test_size, noise_std)
    return train, val, test, teacher


def init_params(spec: MLPSpec, seed) -> list[LayerParams]:
    """Starting point: sparse constrained layers, uniform dense layers.

    Each constrained node starts with a single incoming edge of magnitude
    ``delta / 2`` at a random position with a random sign, keeping every
    block strictly inside its ball. When the following layer is also
    constrained, nodes that ended up with no outgoing edge get one by
    relocating an edge from a column that has several (falling back to
    splitting a row's budget if no such column exists), so signal can flow
    through every unit. Dense layers and biases draw uniformly from
    ``[-1/sqrt(fan_in), 1/sqrt(fan_in)]``.
    """
    rng = np.random.default_rng(seed)
    params: list[LayerParams] = []
    for l in range(spec.n_layers):
        fan_out, fan_in = spec.fan_out(l), spec.fan_in(l)
        bound = 1.0 / np.sqrt(fan_in)
        if l in spec.fw_layers:
            w = np.zeros((fan_out, fan_in))
            half = spec.delta_for(l) / 2.0
            for node in range(fan_out):
                j = int(rng.integers(fan_in))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                w[node, j] = sign * half
        else:
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        b = rng.uniform(-bound, bound, size=fan_out) if spec.bias else np.zeros(fan_out)
        params.append(LayerParams(w=w, b=b))

    # give orphaned hidden units an outgoing edge in the next constrained layer
    for l in spec.fw_layers:
        if l == 0:
            continue
        w = params[l].w
        half = spec.delta_for(l) / 2.0
        nonzero_col = np.argmax(w != 0.0, axis=1)  # each row has exactly one
        for col in range(w.shape[1]):
            if np.any(w[:, col] != 0.0):
                continue
            users = np.bincount(nonzero_col, minlength=w.shape[1])
            donors = np.flatnonzero(users[nonzero_col] >= 2)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            if donors.size:
                r = int(rng.choice(donors))
                w[r, nonzero_col[r]] = 0.0
                w[r, col] = sign * half
                nonzero_col[r] = col
            else:
                r = int(rng.integers(w.shape[0]))
                w[r] *= 0.5
                w[r, col] = sign * half * 0.5
    return params


def save_dataset_csv(path, dataset: Dataset) -> None:
    """Columnar text format: header ``x0..,y0..``, full-precision floats."""
    x, t = dataset.features, dataset.targets
    header = ",".join([f"x{i}" for i in range(x.shape[1])] + [f"y{i}" for i in range(t.shape[1])])
    np.savetxt(path, np.hstack([x, t]), delimiter=",", header=header, comments="", fmt="%.17g")


def load_dataset_csv(path) -> Dataset:
    """Read `save_dataset_csv`'s format; a malformed file fails, naming the file.

    The header must be exactly ``x0..x{d-1},y0..y{t-1}`` with ``d, t >= 1``, and
    at least one row must follow, each of exactly that many finite values.
    """
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
        rows = [(number, line) for number, line in enumerate(fh, 2) if line.strip()]
    d = sum(1 for n in names if n.startswith("x"))
    if not 0 < d < len(names) or names != [f"x{i}" for i in range(d)] + [
            f"y{i}" for i in range(len(names) - d)]:
        raise ValueError(f"{path}: header {','.join(names)!r} is not x0..x<d-1>,y0..y<t-1>")
    if not rows:
        raise ValueError(f"{path}: dataset has no rows")
    for number, line in rows:
        if line.count(",") + 1 != len(names):
            raise ValueError(f"{path}: line {number} has {line.count(',') + 1} values, "
                             f"the header names {len(names)}")
    try:
        raw = np.loadtxt([line for _, line in rows], delimiter=",", ndmin=2)
    except ValueError as exc:  # a value that is not a number
        raise ValueError(f"{path}: {exc}") from None
    return _finite_dataset(path, raw[:, :d], raw[:, d:])


def _finite_dataset(path, features: np.ndarray, targets: np.ndarray) -> Dataset:
    """The dataset read from ``path``, unless a value is NaN or infinite: then a
    ``ValueError`` names the file and the first such row, counting data rows from 1."""
    bad = ~(np.isfinite(features).all(axis=1) & np.isfinite(targets).all(axis=1))
    if bad.any():
        raise ValueError(f"{path}: row {int(np.argmax(bad)) + 1} holds a non-finite value")
    return Dataset(features=features, targets=targets)


def write_binary(path, magic: bytes, version: int, fmt: str, values: Sequence,
                 payloads: Sequence[np.ndarray]) -> None:
    """Write magic, version byte, ``values`` packed by the `struct` format ``fmt``, then
    each payload as row-major little-endian float64: the layout `BinaryReader` reads."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<B", version) + struct.pack(fmt, *values))
        for a in payloads:
            fh.write(np.ascontiguousarray(a, dtype="<f8"))


def save_dataset_bin(path, dataset: Dataset) -> None:
    """Compact binary: magic, version, row/column counts, float64 payload.

    Layout: 8-byte magic ``FWSDDATA``, 1-byte version, three little-endian
    uint64 (rows, feature columns, target columns), then the feature matrix
    and the target matrix as row-major little-endian float64.
    """
    x, t = dataset
    write_binary(path, _DATASET_MAGIC, _DATASET_VERSION, "<QQQ", (*np.shape(x), np.shape(t)[1]),
                 (x, t))


class BinaryReader:
    """Reads `write_binary`'s layout: magic, version byte, fixed fields, float64 payloads.

    Every read is checked against the bytes left: a cut file or an inflated
    count raises a ``ValueError`` naming the file and field, allocating nothing.
    """

    def __init__(self, path, magic: bytes, version: int, what: str) -> None:
        with open(path, "rb") as fh:
            self._data = memoryview(fh.read())
        self._path, self._at = path, 0
        found = bytes(self.read(len(magic), "magic"))
        if found != magic:
            raise ValueError(f"{path}: not a {what} file (bad magic {found!r})")
        (found,) = self.unpack("<B", "version")
        if found != version:
            raise ValueError(f"{path}: unsupported {what} version {found}")

    def read(self, n: int, field: str) -> memoryview:
        left = len(self._data) - self._at
        if n > left:
            raise ValueError(f"{self._path}: truncated at {field} (needs {n} bytes, {left} left)")
        self._at += n
        return self._data[self._at - n:self._at]

    def unpack(self, fmt: str, field: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), field))

    def floats(self, shape, field: str) -> np.ndarray:
        if not all(isinstance(n, int) and n >= 0 for n in shape):
            raise ValueError(f"{self._path}: {field} has invalid shape {shape}")
        data = self.read(8 * math.prod(shape), field)
        return np.frombuffer(data, dtype="<f8").reshape(shape).copy()

    def finish(self) -> None:
        left = len(self._data) - self._at
        if left:
            raise ValueError(f"{self._path}: {left} bytes after the last field")


def load_dataset_bin(path) -> Dataset:
    reader = BinaryReader(path, _DATASET_MAGIC, _DATASET_VERSION, "dataset")
    n, d, t = reader.unpack("<QQQ", "row and column counts")
    if n == 0:
        raise ValueError(f"{path}: dataset has no rows")
    x = reader.floats((n, d), "features")
    y = reader.floats((n, t), "targets")
    reader.finish()
    return _finite_dataset(path, x, y)


def save_checkpoint(path, kind: str, spec_meta: dict, meta: dict,
                    arrays: Sequence[tuple[str, np.ndarray]]) -> None:
    """Binary checkpoint: magic, version byte, JSON header, float64 payload.

    Layout: 8-byte magic ``FWSDCKPT``, 1-byte version, little-endian uint32
    header length, the UTF-8 JSON header (kind, spec, meta, array names and
    shapes), then each array as row-major little-endian float64 in header
    order.
    """
    header = {"kind": kind, "spec": spec_meta, "meta": meta,
              "arrays": [{"name": name, "shape": list(a.shape)} for name, a in arrays]}
    blob = json.dumps(header, sort_keys=True, default=lambda enum: enum.value).encode("utf-8")
    write_binary(path, _CKPT_MAGIC, _CKPT_VERSION, f"<I{len(blob)}s", (len(blob), blob),
                 [a for _, a in arrays])


def load_checkpoint(path):
    """Read a checkpoint; returns ``(header, {name: array})``.

    A network checkpoint must fit its own spec (`_net_from`), which comes
    back as the header's ``spec``, an `MLPSpec`; a stored in-degree ``meta.m``
    (teacher networks) must hold on every layer but the last. So corrupted
    or mislabeled files fail loudly.
    """
    reader = BinaryReader(path, _CKPT_MAGIC, _CKPT_VERSION, "checkpoint")
    (length,) = reader.unpack("<I", "header length")
    try:
        header = json.loads(bytes(reader.read(length, "header")).decode("utf-8"))
        entries = [(e["name"], tuple(e["shape"])) for e in header["arrays"]]
        if not (isinstance(header["kind"], str) and isinstance(header["spec"], dict)
                and isinstance(header["meta"], dict)):
            raise TypeError
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
        raise ValueError(f"{path}: malformed checkpoint header") from None
    arrays = {name: reader.floats(shape, name) for name, shape in entries}
    reader.finish()
    if header["kind"] == "net":
        header["spec"] = _net_from(header["spec"], arrays, path, header["meta"].get("m"))
    return header, arrays


def _net_arrays(params) -> list[tuple[str, np.ndarray]]:
    return [(f"layer{l}_{part}", getattr(layer, part))
            for l, layer in enumerate(params) for part in ("w", "b")]


def _net_from(stored: dict, arrays: dict, name, m=None) -> MLPSpec:
    """`MLPSpec(**stored)`, no field left to its default, once ``arrays`` holds exactly its
    `_net_arrays` names in its shapes, all but the last of in-degree ``m`` if given."""
    missing = [f.name for f in fields(MLPSpec) if f.name not in stored]
    if missing:  # MLPSpec would fill them in with defaults
        raise ValueError(f"{name}: spec lacks {missing[0]!r}")
    try:
        spec = MLPSpec(**stored)
    except (TypeError, ValueError) as exc:  # the TypeError names an unknown field
        raise ValueError(f"{name}: spec {exc}") from None
    shapes = {f"layer{l}_{part}": shape for l in range(spec.n_layers) for part, shape
              in (("w", (spec.fan_out(l), spec.fan_in(l))), ("b", (spec.fan_out(l),)))}
    found = {key: a.shape for key, a in arrays.items()}
    for key in [*shapes, *sorted(set(found) - set(shapes))]:
        if found.get(key) != shapes.get(key):
            raise ValueError(f"{name}: array {key!r} is {found.get(key, 'missing')}, "
                             f"its spec implies {shapes.get(key, 'no such array')}")
    for l in range(spec.n_layers - 1 if m is not None else 0):
        w = arrays[f"layer{l}_w"]
        if np.count_nonzero(w, axis=1).tolist() != [m] * len(w):  # any JSON m
            raise ValueError(f"{name}: layer {l} does not have in-degree {m} per node")
    return spec


def save_net_checkpoint(path, spec: MLPSpec, params, meta: dict) -> None:
    save_checkpoint(path, "net", asdict(spec), meta, _net_arrays(params))


def load_net_checkpoint(path):
    """Read a network checkpoint; returns ``(spec, params, meta)``."""
    header, arrays = load_checkpoint(path)
    if header["kind"] != "net":
        raise ValueError(f"{path}: expected a network checkpoint, found kind {header['kind']!r}")
    spec = header["spec"]  # load_checkpoint checked the arrays against it
    params = [LayerParams(w=arrays[f"layer{l}_w"], b=arrays[f"layer{l}_b"])
              for l in range(spec.n_layers)]
    return spec, params, header["meta"]


def evaluate(spec: MLPSpec, params, dataset: Dataset) -> dict[str, float]:
    """Loss on a dataset, plus argmax accuracy for classification."""
    pred = forward(spec, params, dataset.features)
    out = {"loss": loss_value(spec, pred, dataset.targets)}
    if spec.loss is Loss.SOFTMAX_CE:
        hits = np.argmax(pred, axis=1) == np.argmax(dataset.targets, axis=1)
        out["accuracy"] = float(np.mean(hits))
    return out
