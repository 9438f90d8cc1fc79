"""Stochastic Frank-Wolfe / steepest-descent hybrid with in-face steps.

One iteration, starting from ``(x_k, y_k)``:

1. draw a batch, average per-scenario gradients into ``(g_hat, h_hat)``
   and take the batch's mean objective from the same pass;
2. Frank-Wolfe step per constrained block: move toward the oracle vertex
   with step ``alpha_i = min(g_tilde_i / c_bar_i, 1)``,
   one `fw_step` call per group, a run of consecutive blocks sharing a ball;
   `run` holds the iterate as one ``(n_rows, dim)`` matrix per group, whose
   rows in turn are the blocks, and hands problems these matrices themselves;
3. steepest-descent step on the free block with step
   ``||h_hat||_* / (2 l_nabla)``;
4. optionally, on a fresh batch evaluated at the post-step point, take an
   away step inside the minimal face of each block, capped so the step
   never leaves the face, one `alt_step` call per group.

The returned iterate is drawn uniformly from all ``K + 1`` iterates, which
is what the sublinear guarantee on the squared gap applies to. All
randomness flows from a single root seed through three independent
counter-based streams (data batches, fresh away-step batches, the output
index draw), so runs are reproducible bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .gap import GapConstants, _clamp_g_tilde, dual_norm
from .geometry import (
    L1Ball,
    Norm,
    _fail_rows,
    _in_ball_rows,
    away_rows,
    blame_blocks,
    finite_rows,
    frank_wolfe_rows,
    group_layout,
    nnz_rows,
    outside_rows,
    regroup,
)
from .problems import GradientEstimate


@dataclass(frozen=True)
class BatchSchedule:
    """Batch size as a function of the iteration counter.

    ``constant``: the same ``size`` every iteration. ``linear-in-total``:
    every batch as large as the total iteration count, which trades one
    epoch-sized variance for an O(1/K) rate. ``linear-in-iter``: batch
    ``k + 1`` at iteration ``k``, growing as the run proceeds.
    """

    kind: str
    size: int = 1

    KINDS = ("constant", "linear-in-total", "linear-in-iter")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown batch schedule kind {self.kind!r}")
        if self.kind == "constant" and self.size < 1:
            raise ValueError("constant batch size must be at least 1")

    @classmethod
    def constant(cls, size: int) -> "BatchSchedule":
        return cls(kind="constant", size=size)

    def batch_size(self, k: int, total: int) -> int:
        if self.kind == "constant":
            return self.size
        if self.kind == "linear-in-total":
            return max(total, 1)
        return k + 1


@dataclass(frozen=True)
class OptimizerConfig:
    """Everything a run needs besides the problem and the feasible sets.

    ``c_bar_per_block`` must dominate ``2 * l_nabla * diameter^2`` of the matching
    ball, validated when a run starts; the slacks are `fwsd.geometry` constants.
    """

    l_nabla: float
    c_bar_per_block: tuple[float, ...]
    iterations: int
    seed: int
    batch_schedule: BatchSchedule = BatchSchedule.constant(1)
    alternative_directions: bool = False
    norm_y: Norm = Norm.L2

    def __post_init__(self) -> None:
        if not np.isfinite(self.l_nabla) or self.l_nabla <= 0.0:
            raise ValueError("l_nabla must be positive")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if not all(0.0 < c < np.inf for c in self.c_bar_per_block):
            raise ValueError("all c_bar entries must be positive and finite")


@dataclass(frozen=True, eq=False)
class Iterate:
    """Snapshot after ``k`` iterations: ``x`` is `run`'s group matrices (any cut will do)."""

    x: tuple[np.ndarray, ...]
    y: np.ndarray
    k: int

    @property
    def x_blocks(self) -> tuple[np.ndarray, ...]:
        """Row views of ``x``, one 1-D array per block in block order."""
        return tuple(row for m in self.x for row in np.atleast_2d(m))


@dataclass(frozen=True)
class AltStepInfo:
    """What happened to one block inside the away step."""

    taken: bool
    a_value: float
    alpha_stop: float
    beta_bar: float


@dataclass(frozen=True, eq=False)
class AltStepInfos:
    """Per-row arrays of one `alt_step` call; indexing or iterating builds `AltStepInfo`s."""

    taken: np.ndarray
    a_value: np.ndarray
    alpha_stop: np.ndarray
    beta_bar: np.ndarray

    def __len__(self) -> int:
        return len(self.taken)

    def __getitem__(self, r: int) -> AltStepInfo:  # IndexError past the end ends iteration
        return AltStepInfo(bool(self.taken[r]), float(self.a_value[r]),
                           float(self.alpha_stop[r]), float(self.beta_bar[r]))


@dataclass(frozen=True)
class TraceRecord:
    """Per-iteration log row; NNZ counts describe the post-step iterate."""

    k: int
    objective_estimate: float
    gap_hat: float
    alpha_bar_blocks: tuple[float, ...]
    alpha_sd: float
    beta_bar_blocks: tuple[float, ...] | None
    alt_taken_blocks: tuple[bool, ...] | None
    nnz_blocks: tuple[int, ...]


@dataclass(frozen=True)
class RngStreams:
    """Independent generators derived from one root seed."""

    data: np.random.Generator
    alt_batches: np.random.Generator
    output_draw: np.random.Generator


def derive_rng_streams(seed: int) -> RngStreams:
    """Spawn the three per-purpose streams from a root seed.

    Uses counter-based Philox generators behind independently spawned seed
    sequences, so consuming one stream never shifts another.
    """
    children = np.random.SeedSequence(seed).spawn(3)
    gens = [np.random.Generator(np.random.Philox(c)) for c in children]
    return RngStreams(data=gens[0], alt_batches=gens[1], output_draw=gens[2])


@dataclass(frozen=True, eq=False)
class RunResult:
    output_iterate: Iterate
    trace: list[TraceRecord]
    iterates_digest: str
    final_iterate: Iterate
    output_index: int


def iterates_digest(iterates: Iterable[Iterate]) -> str:
    """SHA-256 over the raw little-endian float64 bytes of every iterate."""
    h = hashlib.sha256()
    for it in iterates:
        _digest(h, it.x, it.y)
    return h.hexdigest()


def fw_step(x: np.ndarray, g: np.ndarray, ball: L1Ball, c_bar: np.ndarray):
    """Frank-Wolfe step on the rows of one group of blocks sharing ``ball``.

    ``x`` and ``g`` are ``(n_rows, dim)``; ``c_bar`` holds the rows' constants.
    Returns ``(x_bar, g_tilde, alpha)``: ``x_bar[r] = x[r] + alpha[r] * (v[r] - x[r])``
    for the oracle vertex ``v[r]`` and ``alpha[r] = min(g_tilde[r] / c_bar[r], 1)``, so
    the iterate stays a convex combination even when the gap estimate is large. Row
    checks raise naming the row; `blame_blocks` names the block.
    """
    finite_rows(x, "x")  # for direct callers: run() checks each iterate it makes, by block
    finite_rows(g, "g")
    fw, gap = frank_wolfe_rows(ball, x, g)
    g_tilde = _clamp_g_tilde(gap, g)
    alpha = np.minimum(g_tilde / c_bar, 1.0)
    # x + alpha * (v - x) to the bit: v - x is -(x - v) but for zeros, where x is unchanged
    return x - alpha[:, None] * fw, g_tilde, alpha


def sd_step(y: np.ndarray, h_hat: np.ndarray, h_norm: float, config: OptimizerConfig):
    """Steepest-descent step on the free block.

    The direction maximizes ``h_hat @ u`` over the unit ball of the chosen
    norm (the normalized gradient for L2, a signed coordinate vector for
    L1) and the step size is ``||h_hat||_* / (2 * l_nabla)``. ``h_norm`` is
    ``dual_norm(h_hat, config.norm_y)``, which `run` also adds to the gap estimate.
    """
    y = np.asarray(y, dtype=np.float64)
    h_hat = np.asarray(h_hat, dtype=np.float64)
    if h_norm == 0.0:
        return y.copy(), 0.0
    alpha = h_norm / (2.0 * config.l_nabla)
    if config.norm_y is Norm.L2:
        direction = h_hat / h_norm
        return y - alpha * direction, alpha
    j = int(np.argmax(np.abs(h_hat)))
    y_next = y.copy()
    y_next[j] = y_next[j] - alpha * np.sign(h_hat[j])
    return y_next, alpha


def alt_step(x_bar: np.ndarray, g_check: np.ndarray, ball: L1Ball, c_bar: np.ndarray):
    """Away step inside the minimal face of each row of one group sharing ``ball``.

    One `away_rows` call classifies every row's minimal face at ``FACE_TOL``,
    builds the away direction ``d`` from a fresh gradient and caps it. A row
    whose ``d`` is a strict descent direction (``g_check @ d < -AWAY_TOL``)
    steps ``beta = min(a / c_bar, alpha_stop)`` along it, where ``a = -g_check @
    d`` and ``alpha_stop`` is the in-face cap. When the cap binds, the
    coordinate it binds on is set to exactly zero, so supports shrink exactly
    rather than to rounding dust. Returns ``(x_next, infos)``; rows not taken
    keep their bytes and read zeros in `AltStepInfos`. Row checks name the
    group row, as in `fw_step`.
    """
    finite_rows(x_bar, "x_bar")
    finite_rows(g_check, "g_check")
    d, ok, gd, index, cap, binds = away_rows(ball, x_bar, g_check)
    a = -gd
    quotient = a / c_bar
    step = np.where(cap < quotient, cap, quotient)  # a rejected row's NaN cap loses: finite
    x_next = x_bar + step[:, None] * d
    drop = np.flatnonzero(binds & (step == cap))
    x_next[drop, index[drop]] = 0.0
    if np.count_nonzero(ok) < len(ok):
        x_next = np.where(ok[:, None], x_next, x_bar)
        a, cap, step = (np.where(ok, v, 0.0) for v in (a, cap, step))
    return x_next, AltStepInfos(taken=ok, a_value=a, alpha_stop=cap, beta_bar=step)


def _mean_gradient(problem, x_blocks, y, batch) -> GradientEstimate:
    # a function of its own so that perfbench/tracer.py can time the gradient phase
    return problem.gradient_mean(x_blocks, y, batch)


def _in_block_order(parts: Sequence[np.ndarray]) -> tuple:
    """Per-group row values as one tuple of Python scalars in block order."""
    return tuple([v for p in parts for v in p.tolist()])


def _digest(h, mats: Sequence[np.ndarray], y) -> None:
    # one update per C-contiguous float64 array: the bytes of its rows in turn
    for m in mats:
        h.update(np.ascontiguousarray(m, dtype=np.float64))
    h.update(np.ascontiguousarray(y, dtype=np.float64))


def run(
    problem,
    balls: Sequence[L1Ball],
    y0: np.ndarray,
    x0_blocks: Sequence[np.ndarray],
    config: OptimizerConfig,
) -> RunResult:
    """Run the full hybrid method for ``config.iterations`` iterations.

    Validates feasibility of the start point and the per-block constants,
    then iterates: batch gradient, Frank-Wolfe step per group (a run of
    consecutive blocks sharing a ball), steepest descent on the free block,
    and (when configured) an away step per group on a fresh batch evaluated
    at the freshly stepped point. The problem gets the group matrices; ``x0_blocks``
    and its gradients may come in any cut `regroup` reads. The trace has one record
    per iteration; the output iterate is drawn uniformly from the ``K + 1`` iterates
    via the dedicated stream. A step's ``ValueError`` or ``RuntimeError`` is re-raised
    naming the iteration, as its own type if that is built from a message, else as its base.
    """
    balls = tuple(balls)
    if tuple(problem.block_dims) != tuple(b.dim for b in balls):
        raise ValueError("ball dimensions do not match the problem's blocks")
    y = np.array(y0, dtype=np.float64)
    if y.shape != (problem.y_dim,):
        raise ValueError(f"y0 has shape {y.shape}, expected ({problem.y_dim},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y0 contains non-finite entries")
    # validates one c_bar_i >= 2 * l_nabla * diam^2 per block
    constants = GapConstants.from_blocks(config.l_nabla, config.c_bar_per_block, balls)
    groups, heights, dims = group_layout(balls)
    c_bars = [np.asarray(config.c_bar_per_block, dtype=np.float64)[idx] for _, idx in groups]
    # the iterate: one matrix per group, never written after it is made
    with blame_blocks("the start point", range(len(balls))):
        x = regroup(x0_blocks, heights, dims, "x0")
    for (ball, idx), m in zip(groups, x):
        with blame_blocks("the start point", idx):
            finite_rows(m, "x0")
            _fail_rows(outside_rows(ball, m), "x0 block is infeasible")

    def each_group(step, kernel, mats, blocks, name):
        with blame_blocks(step, range(len(balls))):
            grads = regroup(blocks, heights, dims, name)
        out = []
        for (ball, idx), m, g, cg in zip(groups, mats, grads, c_bars):
            with blame_blocks(step, idx):
                out.append(kernel(m, g, ball, cg))
        return out

    def snapshot(k):
        return Iterate(tuple(m.copy() for m in x), y.copy(), k)

    streams = derive_rng_streams(config.seed)
    k_total = config.iterations
    output_index = int(streams.output_draw.integers(0, k_total + 1))

    digest = hashlib.sha256()
    _digest(digest, x, y)
    output = snapshot(0) if output_index == 0 else None

    trace: list[TraceRecord] = []
    try:
        for k in range(k_total):
            b_k = config.batch_schedule.batch_size(k, k_total)
            batch = problem.draw(streams.data, b_k)
            est = _mean_gradient(problem, x, y, batch)
            objective = float(est.objective())

            steps = each_group("fw_step", fw_step, x, est.g_blocks, "g")
            x_bar = [s[0] for s in steps]
            g_tildes = _in_block_order([s[1] for s in steps])
            if not np.isfinite(est.h).all():  # dual_norm's own check cannot name h or the step
                raise ValueError("h contains non-finite entries (in sd_step)")
            if not np.isfinite(objective):  # after the gradient checks, which name the block
                raise ValueError(f"objective_estimate is {objective} (in the batch objective)")
            h_norm = dual_norm(est.h, config.norm_y)  # one norm for the gap and sd_step
            gap_hat = constants.gap(float(sum(g_tildes)), h_norm)
            y_next, alpha_sd = sd_step(y, est.h, h_norm, config)
            if not np.isfinite(y_next).all():  # an overflowing step fails in its own iteration
                raise ValueError("y contains non-finite entries (in sd_step)")

            if config.alternative_directions and balls:
                fresh = problem.draw(streams.alt_batches, b_k)
                check = _mean_gradient(problem, x_bar, y_next, fresh)
                aways = each_group("alt_step", alt_step, x_bar, check.g_blocks, "g_check")
                x = [s[0] for s in aways]
                betas = _in_block_order([s[1].beta_bar for s in aways])
                taken = _in_block_order([s[1].taken for s in aways])
            else:
                x, betas, taken = x_bar, None, None

            y = y_next
            _digest(digest, x, y)
            for (ball, idx), m in zip(groups, x):  # a bad step fails in its own iteration
                with blame_blocks("fw_step" if betas is None else "alt_step", idx):
                    finite_rows(m, "x")
                    _in_ball_rows(ball, m)
            trace.append(TraceRecord(
                k=k,
                objective_estimate=objective,
                gap_hat=gap_hat,
                alpha_bar_blocks=_in_block_order([s[2] for s in steps]),
                alpha_sd=alpha_sd,
                beta_bar_blocks=betas,
                alt_taken_blocks=taken,
                nnz_blocks=_in_block_order([nnz_rows(m) for m in x]),
            ))
            if k + 1 == output_index:
                output = snapshot(k + 1)
    except (ValueError, RuntimeError) as exc:
        message = f"{exc} at iteration {k}"
        try:  # the same type, unless its constructor takes more than a message
            error = type(exc)(message)
        except TypeError:
            error = (ValueError if isinstance(exc, ValueError) else RuntimeError)(message)
        raise error from exc

    assert output is not None
    return RunResult(
        output_iterate=output,
        trace=trace,
        iterates_digest=digest.hexdigest(),
        final_iterate=snapshot(k_total),
        output_index=output_index,
    )
