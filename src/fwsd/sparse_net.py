"""Small dense networks whose layers can be trained under l1 constraints.

A network is described by an `MLPSpec`; its parameters are plain numpy
arrays, one ``(fan_out, fan_in)`` weight matrix and one bias vector per
layer. A `ParamLayout` maps those arrays onto optimizer coordinates: each
node of a constrained layer contributes its incoming-weight row as one
l1-ball block, everything else (dense layers, biases) is flattened into
the single free block. Backpropagation runs over a batch of samples at
once; a single sample is a batch of one.

Dataset containers and their on-disk formats (columnar CSV and a compact
binary layout) live here too, next to the synthetic teacher-network
generator used for sparsity experiments.
"""

from __future__ import annotations

import enum
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .geometry import NNZ_THRESHOLD, L1Ball, RowError, batch_sum, nnz_rows, regroup
from .problems import GradientEstimate

_DATASET_MAGIC = b"FWSDDATA"
_DATASET_VERSION = 1
_CHUNK_ROWS = 256  # rows per batched backprop pass; bounds its memory


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
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        object.__setattr__(self, "fw_layers", tuple(int(l) for l in self.fw_layers))
        object.__setattr__(self, "deltas", tuple(float(d) for d in self.deltas))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least an input and an output layer")
        if any(s < 1 for s in self.layer_sizes):
            raise ValueError("layer sizes must be positive")
        n_layers = len(self.layer_sizes) - 1
        if sorted(set(self.fw_layers)) != list(self.fw_layers):
            raise ValueError("fw_layers must be sorted and unique")
        if any(l < 0 or l >= n_layers for l in self.fw_layers):
            raise ValueError(f"fw_layers must index the {n_layers} weight layers")
        if len(self.deltas) != len(self.fw_layers):
            raise ValueError("need exactly one delta per constrained layer")
        if any(d <= 0.0 for d in self.deltas):
            raise ValueError("deltas must be positive")

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
    bias vectors (when the spec has biases).
    """

    def __init__(self, spec: MLPSpec):
        self.spec = spec
        self.block_meta: tuple[tuple[int, int], ...] = tuple(
            (l, node) for l in spec.fw_layers for node in range(spec.fan_out(l))
        )
        self.block_dims: tuple[int, ...] = tuple(spec.fan_in(l) for l, _ in self.block_meta)
        y_dim = sum(
            spec.fan_out(l) * spec.fan_in(l)
            for l in range(spec.n_layers) if l not in spec.fw_layers
        )
        if spec.bias:
            y_dim += sum(spec.fan_out(l) for l in range(spec.n_layers))
        self.y_dim = y_dim

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
        parts = [np.asarray(params[l].w, dtype=np.float64).ravel()
                 for l in range(self.spec.n_layers) if l not in self.spec.fw_layers]
        if self.spec.bias:
            parts.extend(np.asarray(params[l].b, dtype=np.float64)
                         for l in range(self.spec.n_layers))
        y = np.concatenate(parts) if parts else np.zeros(0)
        return x_blocks, y

    def unpack(self, x_blocks, y) -> list[LayerParams]:
        """Rebuild per-layer arrays from optimizer coordinates, the blocks in any cut.

        A constrained layer's weights are a `regroup` view where they can be.
        """
        spec = self.spec
        try:
            fw = iter(regroup(x_blocks, [spec.fan_out(l) for l in spec.fw_layers],
                              [spec.fan_in(l) for l in spec.fw_layers], "x_blocks"))
        except RowError as exc:
            if exc.row is None:
                raise
            layer, node = self.block_meta[exc.row]
            raise ValueError(str(exc).replace(
                "x_blocks", f"block {exc.row} (layer {layer}, node {node})", 1)) from exc
        y = np.asarray(y, dtype=np.float64)
        if y.shape != (self.y_dim,):
            raise ValueError(f"free block has shape {y.shape}, expected ({self.y_dim},)")
        weights = []
        at = 0
        for l in range(spec.n_layers):
            shape = (spec.fan_out(l), spec.fan_in(l))
            if l in spec.fw_layers:
                w = next(fw)
            else:
                size = shape[0] * shape[1]
                w = y[at:at + size].reshape(shape).copy()
                at += size
            weights.append(w)
        params = []
        for l in range(spec.n_layers):
            if spec.bias:
                n = spec.fan_out(l)
                b = y[at:at + n].copy()
                at += n
            else:
                b = np.zeros(spec.fan_out(l))
            params.append(LayerParams(w=weights[l], b=b))
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
        return np.where(pos, 1.0 / (1.0 + e), e / (1.0 + e))
    return np.maximum(z, 0.0)


def _activation_slope(activation: Activation, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if activation is Activation.SIGMOID:
        return a * (1.0 - a)
    return (z > 0.0).astype(np.float64)  # subgradient 0 at the kink


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
    if spec.loss is Loss.MSE:
        return float(np.mean((pred - target) ** 2))
    m = np.max(pred, axis=1, keepdims=True)
    log_z = np.log(np.sum(np.exp(pred - m), axis=1)) + m[:, 0]
    per_sample = log_z * np.sum(target, axis=1) - np.sum(target * pred, axis=1)
    return float(np.mean(per_sample))


def _backprop(spec: MLPSpec, params: Sequence[LayerParams], X: np.ndarray, T: np.ndarray):
    """Mean over the rows of ``X``/``T`` of each sample's per-layer ``(grad_w, grad_b)``.

    Every product is a per-row matrix-vector product and the batch sum is
    `batch_sum`'s left fold in row order, so the result equals, bit for bit,
    adding the single-sample gradients one at a time and dividing by the count.
    Rows go through in chunks of ``_CHUNK_ROWS`` to bound memory; each chunk's
    fold starts from the running sum.
    """
    n = X.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    sums: list[LayerParams] = []
    for start in range(0, n, _CHUNK_ROWS):
        pre: list[np.ndarray] = []
        post = [X[start:start + _CHUNK_ROWS]]
        for l, (w, b) in enumerate(params):
            z = np.matmul(w[None], post[-1][:, :, None])[:, :, 0] + b
            pre.append(z)
            post.append(z if l == spec.n_layers - 1 else _activate(spec.activation, z))
        delta = _output_grad(spec.loss, post[-1], T[start:start + _CHUNK_ROWS])
        grads: list[LayerParams] = []
        for l in range(spec.n_layers - 1, -1, -1):
            grads.insert(0, LayerParams(w=delta[:, :, None] * post[l][:, None, :], b=delta))
            if l > 0:
                back = np.matmul(params[l].w.T[None], delta[:, :, None])[:, :, 0]
                delta = back * _activation_slope(spec.activation, pre[l - 1], post[l])
        for s, g in zip(sums, grads):  # carry the running sum into this chunk's fold
            g.w[0] += s.w
            g.b[0] += s.b
        sums = [LayerParams(w=batch_sum(g.w), b=batch_sum(g.b)) for g in grads]
    return [LayerParams(w=s.w / n, b=s.b / n) for s in sums]


@dataclass(frozen=True, eq=False)
class MLPProblem:
    """Empirical-risk training problem over a fixed dataset.

    Scenarios are row indices drawn with replacement, so the expectation
    defining the objective is the plain average over the dataset, and
    ``exact_gradient`` / ``exact_objective`` are full-dataset passes.
    """

    spec: MLPSpec
    layout: ParamLayout
    data: Dataset

    def __post_init__(self) -> None:
        n, d = self.data.features.shape
        if d != self.spec.layer_sizes[0]:
            raise ValueError("feature width does not match the input layer")
        if self.data.targets.shape != (n, self.spec.layer_sizes[-1]):
            raise ValueError("target width does not match the output layer")

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

        The blocks come in any cut; the gradient comes back as `ParamLayout.pack` cuts it.
        """
        idx = np.asarray(batch, dtype=np.int64)
        params = self.layout.unpack(x_blocks, y)
        X, T = self.data.features[idx], self.data.targets[idx]
        g_blocks, g_y = self.layout.pack(_backprop(self.spec, params, X, T))
        return GradientEstimate(tuple(g_blocks), g_y,
                                lambda: loss_value(self.spec, forward(self.spec, params, X), T))

    def exact_gradient(self, x_blocks, y):
        est = self.gradient_mean(x_blocks, y, np.arange(self.n_samples))
        return list(est.g_blocks), est.h

    def exact_objective(self, x_blocks, y) -> float:
        params = self.layout.unpack(x_blocks, y)
        pred = forward(self.spec, params, self.data.features)
        return loss_value(self.spec, pred, self.data.targets)


def nnz_metrics(params, layout: ParamLayout, threshold: float = NNZ_THRESHOLD) -> dict[int, float]:
    """Percent of per-node incoming weights at or above ``threshold``.

    Computed per constrained layer as the average over its nodes of
    ``100 * count(|w| >= threshold) / fan_in``.
    """
    out: dict[int, float] = {}
    for l in layout.spec.fw_layers:
        w = params[l].w
        counts = nnz_rows(w, threshold)
        out[l] = float(np.mean(counts / w.shape[1])) * 100.0
    return out


def hard_threshold(params, layout: ParamLayout, theta_percent: float) -> list[LayerParams]:
    """Keep the top ``theta_percent`` of each constrained layer's weights.

    Magnitudes are ranked over the whole layer (all nodes pooled); exactly
    ``ceil(theta / 100 * count)`` entries survive, ties at the cutoff going
    to the lowest flat index. Dense layers and biases pass through.
    """
    if not 0.0 <= theta_percent <= 100.0:
        raise ValueError("theta_percent must be within [0, 100]")
    out = []
    for l, layer in enumerate(params):
        if l not in layout.spec.fw_layers:
            out.append(LayerParams(w=layer.w.copy(), b=layer.b.copy()))
            continue
        flat = np.abs(layer.w).ravel()
        keep = int(np.ceil(theta_percent / 100.0 * flat.size))
        mask = np.zeros(flat.size, dtype=bool)
        if keep > 0:
            order = np.argsort(-flat, kind="stable")
            mask[order[:keep]] = True
        w = np.where(mask.reshape(layer.w.shape), layer.w, 0.0)
        out.append(LayerParams(w=w, b=layer.b.copy()))
    return out


@dataclass(frozen=True)
class SynthSpec:
    """Teacher network and sampling plan for synthetic regression data."""

    layer_sizes: tuple[int, ...] = (50, 50, 50, 1)
    m: int = 5
    snr: float = 10.0
    activation: Activation = Activation.SIGMOID
    train_size: int = 100_000
    val_size: int = 20_000
    test_size: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "layer_sizes", tuple(int(s) for s in self.layer_sizes))
        if len(self.layer_sizes) < 2:
            raise ValueError("need at least two layer sizes")
        if self.m < 1 or any(self.m > self.layer_sizes[l] for l in range(len(self.layer_sizes) - 2)):
            raise ValueError("per-node in-degree m must fit every sparse layer's fan-in")
        if self.snr <= 0.0:
            raise ValueError("snr must be positive")
        if min(self.train_size, self.val_size, self.test_size) < 2:
            raise ValueError("every split needs at least two samples")


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

    net_spec = MLPSpec(layer_sizes=sizes, activation=synth.activation, loss=Loss.MSE, bias=False)

    def make_split(n: int, noise_std: float | None):
        x = rng.standard_normal((n, sizes[0]))
        signal = forward(net_spec, teacher, x)
        if noise_std is None:
            return x, signal  # noise added later, once the scale is known
        return Dataset(features=x, targets=signal + rng.normal(0.0, noise_std, signal.shape))

    x_train, signal_train = make_split(synth.train_size, None)
    noise_std = float(np.sqrt(np.var(signal_train) / synth.snr))
    train = Dataset(features=x_train,
                    targets=signal_train + rng.normal(0.0, noise_std, signal_train.shape))
    val = make_split(synth.val_size, noise_std)
    test = make_split(synth.test_size, noise_std)
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
        if l in spec.fw_layers:
            w = np.zeros((fan_out, fan_in))
            half = spec.delta_for(l) / 2.0
            for node in range(fan_out):
                j = int(rng.integers(fan_in))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                w[node, j] = sign * half
        else:
            bound = 1.0 / np.sqrt(fan_in)
            w = rng.uniform(-bound, bound, size=(fan_out, fan_in))
        if spec.bias:
            bound = 1.0 / np.sqrt(fan_in)
            b = rng.uniform(-bound, bound, size=fan_out)
        else:
            b = np.zeros(fan_out)
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
    with open(path, "r", encoding="utf-8") as fh:
        names = fh.readline().strip().split(",")
    n_features = sum(1 for n in names if n.startswith("x"))
    raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return Dataset(features=raw[:, :n_features], targets=raw[:, n_features:])


def save_dataset_bin(path, dataset: Dataset) -> None:
    """Compact binary: magic, version, row/column counts, float64 payload.

    Layout: 8-byte magic ``FWSDDATA``, 1-byte version, three little-endian
    uint64 (rows, feature columns, target columns), then the feature matrix
    and the target matrix as row-major little-endian float64.
    """
    x = np.ascontiguousarray(dataset.features, dtype="<f8")
    t = np.ascontiguousarray(dataset.targets, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_DATASET_MAGIC)
        fh.write(struct.pack("<B", _DATASET_VERSION))
        fh.write(struct.pack("<QQQ", x.shape[0], x.shape[1], t.shape[1]))
        fh.write(x.tobytes())
        fh.write(t.tobytes())


class BinaryReader:
    """Reads a file laid out as magic, version byte, fixed fields, float64 payloads.

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
    x = reader.floats((n, d), "features")
    y = reader.floats((n, t), "targets")
    reader.finish()
    return Dataset(features=x, targets=y)


def evaluate(spec: MLPSpec, params, dataset: Dataset) -> dict[str, float]:
    """Loss on a dataset, plus argmax accuracy for classification."""
    pred = forward(spec, params, dataset.features)
    out = {"loss": loss_value(spec, pred, dataset.targets)}
    if spec.loss is Loss.SOFTMAX_CE:
        hits = np.argmax(pred, axis=1) == np.argmax(dataset.targets, axis=1)
        out["accuracy"] = float(np.mean(hits))
    return out
