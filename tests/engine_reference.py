"""The per-block engine that the group-matrix state replaced, kept as the reference.

`run` holds the iterate as one array per block. Every step regroups the
blocks by ball (every block with an equal ball, wherever it sits, as
`geometry_reference.groups_by_ball` does), stacks the group's rows, takes
each row's vertex, away direction and step cap from the per-block oracles of
`geometry_reference` (none from `fwsd.geometry`), steps the stacked rows and
scatters them back into block order; the digest hashes block by block.
`fwsd.optimizer.run` has to match it bit for bit (digest, trace, output
index, output and final iterates), which `test_engine.py` checks.
"""

import hashlib

import numpy as np

from fwsd.gap import GapConstants, _clamp_g_tilde, dual_norm
from fwsd.geometry import blame_blocks, nnz_rows, row_dot
from fwsd.optimizer import (
    AltStepInfo,
    Iterate,
    RunResult,
    TraceRecord,
    derive_rng_streams,
    sd_step,
)
from geometry_reference import away_direction, groups_by_ball, in_face_step_cap, lmo


def _digest_update(h, x_blocks, y):
    for xb in x_blocks:
        h.update(np.ascontiguousarray(xb, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(y, dtype=np.float64).tobytes())


def _rows(blocks, idx):
    """Blocks ``idx`` as the rows of one float64 matrix."""
    return np.array([blocks[i] for i in idx.tolist()], dtype=np.float64)


def fw_step(x_blocks, g_hat_blocks, balls, config):
    """Frank-Wolfe step on every block; blocks sharing a ball are stepped row-wise."""
    c_bar = np.asarray(config.c_bar_per_block, dtype=np.float64)
    x_bar = [None] * len(balls)
    g_tildes = np.empty(len(balls))
    alphas = np.empty(len(balls))
    for ball, idx in groups_by_ball(balls):
        with blame_blocks("fw_step", idx):
            x = _rows(x_blocks, idx)
            g = _rows(g_hat_blocks, idx)
            v = np.array([lmo(ball, row).value for row in g])
            gap = row_dot(g, x - v)
            g_tilde = _clamp_g_tilde(gap, g)
        alpha = np.minimum(g_tilde / c_bar[idx], 1.0)
        stepped = x + alpha[:, None] * (v - x)
        for i, row in zip(idx.tolist(), stepped):
            x_bar[i] = row
        g_tildes[idx] = g_tilde
        alphas[idx] = alpha
    return tuple(x_bar), tuple(g_tildes.tolist()), tuple(alphas.tolist())


def alt_step(x_bar_blocks, g_check_blocks, balls, config):
    """Away step inside the minimal face of every block."""
    c_bar = np.asarray(config.c_bar_per_block, dtype=np.float64)
    n = len(balls)
    x_next = [None] * n
    taken = np.zeros(n, dtype=bool)
    a_values, alpha_stops, betas = np.zeros(n), np.zeros(n), np.zeros(n)
    for ball, idx in groups_by_ball(balls):
        with blame_blocks("alt_step", idx):
            x = _rows(x_bar_blocks, idx)
            g = _rows(g_check_blocks, idx)
            aways = [away_direction(ball, xr, gr, config.away_tol) for xr, gr in zip(x, g)]
        d = np.array([dr for dr, _ in aways])
        ok = np.array([accepted for _, accepted in aways], dtype=bool)
        stepped = x.copy()
        if ok.any():
            moved = idx[ok]
            # each accepted row's cap and binding coordinates from the per-block scan
            caps = [in_face_step_cap(ball, x[r], d[r]) for r in np.flatnonzero(ok).tolist()]
            alpha_stop = np.array([cap for cap, _ in caps], dtype=np.float64)
            binding = np.zeros((len(caps), ball.dim), dtype=bool)
            for r, (_, bound) in enumerate(caps):
                binding[r, list(bound)] = True
            a_value = -row_dot(g[ok], d[ok])
            quotient = a_value / c_bar[moved]
            beta = np.where(alpha_stop < quotient, alpha_stop, quotient)
            rows = x[ok] + beta[:, None] * d[ok]
            rows[binding & (beta == alpha_stop)[:, None]] = 0.0
            stepped[ok] = rows
            taken[moved] = True
            a_values[moved], alpha_stops[moved], betas[moved] = a_value, alpha_stop, beta
        for i, row in zip(idx.tolist(), stepped):
            x_next[i] = row
    infos = tuple(
        AltStepInfo(taken=t, a_value=a, alpha_stop=s, beta_bar=b)
        for t, a, s, b in zip(taken.tolist(), a_values.tolist(), alpha_stops.tolist(),
                              betas.tolist())
    )
    return tuple(x_next), infos


def run(problem, balls, y0, x0_blocks, config):
    """The hybrid method with one array per block as the iterate."""
    balls = tuple(balls)
    n_blocks = len(balls)
    if len(x0_blocks) != n_blocks or len(config.c_bar_per_block) != n_blocks:
        raise ValueError("balls, x0_blocks and c_bar_per_block must align")
    if tuple(problem.block_dims) != tuple(b.dim for b in balls):
        raise ValueError("ball dimensions do not match the problem's blocks")
    x = [np.array(b, dtype=np.float64) for b in x0_blocks]
    y = np.array(y0, dtype=np.float64)
    if y.shape != (problem.y_dim,):
        raise ValueError(f"y0 has shape {y.shape}, expected ({problem.y_dim},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("y0 contains non-finite entries")
    for xb, ball in zip(x, balls):
        if not ball.contains(xb):
            raise ValueError("x0 block is infeasible")
    constants = GapConstants.from_blocks(config.l_nabla, config.c_bar_per_block, balls)
    groups = groups_by_ball(balls)

    streams = derive_rng_streams(config.seed)
    k_total = config.iterations
    output_index = int(streams.output_draw.integers(0, k_total + 1))

    digest = hashlib.sha256()
    _digest_update(digest, x, y)
    output = None
    if output_index == 0:
        output = Iterate(tuple(np.array(b) for b in x), y.copy(), 0)

    trace = []
    try:
        for k in range(k_total):
            b_k = config.batch_schedule.batch_size(k, k_total)
            batch = problem.draw(streams.data, b_k)
            est = problem.gradient_mean(x, y, batch)
            objective = float(est.objective())

            x_bar, g_tildes, alphas = fw_step(x, est.g_blocks, balls, config)
            gap_hat = float(sum(g_tildes)) * constants.scale + dual_norm(est.h, config.norm_y)
            y_next, alpha_sd = sd_step(y, est.h, config)

            if config.alternative_directions and n_blocks > 0:
                fresh = problem.draw(streams.alt_batches, b_k)
                check = problem.gradient_mean(x_bar, y_next, fresh)
                x_new, infos = alt_step(x_bar, check.g_blocks, balls, config)
                betas = tuple(i.beta_bar for i in infos)
                taken = tuple(i.taken for i in infos)
            else:
                x_new, betas, taken = tuple(x_bar), None, None

            x = [np.asarray(b) for b in x_new]
            y = y_next
            _digest_update(digest, x, y)
            nnz = np.empty(n_blocks, dtype=np.int64)
            for ball, idx in groups:
                nnz[idx] = nnz_rows(_rows(x, idx))
            trace.append(TraceRecord(
                k=k,
                objective_estimate=objective,
                gap_hat=gap_hat,
                alpha_bar_blocks=alphas,
                alpha_sd=alpha_sd,
                beta_bar_blocks=betas,
                alt_taken_blocks=taken,
                nnz_blocks=tuple(nnz.tolist()),
            ))
            if k + 1 == output_index:
                output = Iterate(tuple(np.array(b) for b in x), y.copy(), k + 1)
    except (ValueError, RuntimeError) as exc:
        raise type(exc)(f"{exc} at iteration {k}") from exc

    final = Iterate(tuple(np.array(b) for b in x), y.copy(), k_total)
    return RunResult(
        output_iterate=output,
        trace=trace,
        iterates_digest=digest.hexdigest(),
        final_iterate=final,
        output_index=output_index,
    )
