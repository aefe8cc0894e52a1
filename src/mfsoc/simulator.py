"""Euler-Maruyama simulation of the coupled N-agent closed loop.

The population is always propagated with the true empirical average in the
coupling (never the mean-field approximation), so consistency is measured
rather than assumed.  Noise streams are counter-based per (seed,
replication, agent): agent i's Brownian path is identical across control
strategies and across population sizes, which gives common random numbers
for cost comparisons by construction.  Each stream is the Philox generator
that SeedSequence(entropy=seed, spawn_key=(replication, agent)) seeds, but
a chunk derives all of its streams' keys in one vectorized pass of the
SeedSequence hash (`model.agent_rngs`), bit-identical to it and pinned by
an oracle test, rather than building one SeedSequence per stream.

The simulator runs a batch of (law, N) pairs, and `simulate_population` is
a batch of one.  Replications are stepped in chunks of at most _MAX_WIDTH
agents of the widest pair.  A chunk holds its noise in one buffer, a row
per stream: each stream's n initial normals, then its increments in order.
If the whole horizon fits twice _BLOCK_ELEMS floats, the buffer holds all
of it and `model.agent_normals` fills each row from one re-keyed Philox,
so no stream stays open.  A longer horizon builds the max(N) streams of
each replication once (`model.agent_rngs`), keeps them open and draws one
time block at a time into a reused buffer, so its width does not depend
on the horizon.  A stream drawn in pieces yields the same normals as one
draw, so the two draws are bit-identical.  Each step scales its column of
the buffer, in place of a transposed copy, into one increment vector, and
every pair steps on its first N columns, so a gap curve draws each shared
stream once, in one pass.  Each pair's state is held as (n, replications, agents) and each
step is a few broadcast multiply-adds (`linalg.matvec`, without BLAS) on
its own `synthesis._loop_tables`: the four terms affine in the live
average come from one stacked table.  The Euler arithmetic and every
reduction over agents run in fixed index order, so outputs are
bit-identical for a given configuration; the running cost is a plain sum
over the interior knots plus the trapezoid's endpoint halves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import lift_msq, matvec, spectral_abscissa
from .model import (ProblemSpec, _check_count, _check_natural, _check_population,
                    _check_positive, _is_integer, agent_normals, agent_rngs,
                    initial_chol)
from .synthesis import ControlLaw, _loop_tables

_MAX_WIDTH = 20000      # replications x agents stepped together
# noise floats per time block, the size of a chunk's one buffer when it
# draws from open streams.  A chunk whose whole horizon fits 2 _BLOCK_ELEMS
# floats draws it at once and opens no stream; at _MAX_WIDTH agents the open
# streams (about 780 B each) take about one block buffer, so the factor 2
# keeps the widest chunks' noise memory where it was
_BLOCK_ELEMS = 1 << 21
_DIVERGE = 1e12


class DivergenceError(RuntimeError):
    def __init__(self, time, agent, replication):
        self.time = float(time)
        self.agent = int(agent)
        self.replication = int(replication)
        super().__init__(
            f"state diverged at t={time:.6g} (agent {agent}, replication {replication})"
        )


@dataclass
class SimConfig:
    dt: float = 1e-3
    T_sim: float | None = None   # defaults to the spec horizon when finite
    replications: int = 1
    seed: int = 0
    thinning: int = 10

    def __post_init__(self):
        _check_positive(self.dt, "dt")
        if self.T_sim is not None:
            _check_positive(self.T_sim, "T_sim")
        _check_count(self.replications, "replications")
        _check_natural(self.seed, "seed")
        _check_count(self.thinning, "thinning")

    def horizon_for(self, spec: ProblemSpec) -> float:
        if self.T_sim is not None:
            return float(self.T_sim)
        if spec.infinite_horizon:
            raise ValueError("T_sim required for infinite-horizon simulation")
        return float(spec.horizon)


@dataclass
class SimulationOutput:
    grid: np.ndarray                  # thinned time grid
    individual_costs: np.ndarray      # (N,) replication-averaged
    social_cost: float                # sum of individual_costs
    social_se: float                  # std error of the per-rep social cost
    rep_social: np.ndarray            # (replications,)
    consistency_error: float          # mean of int ||x^(N) - xbar||^2 dt
    consistency_se: float
    rep_consistency: np.ndarray
    state_second_moment: np.ndarray   # (m,) agent/rep-averaged ||x||^2
    control_second_moment: np.ndarray
    tail_bound: float
    trajectories: np.ndarray | None = None   # (agents, m, n), replication 0
    controls: np.ndarray | None = None       # (agents, m, r), replication 0


def _quad(M, V, out, tmp):
    """out = V' M V over V's leading axis; tmp is scratch shaped like out."""
    for i in range(V.shape[0]):
        matvec(M[i:i + 1], V, tmp[None])
        if i == 0:
            np.multiply(tmp, V[0], out=out)
        else:
            tmp *= V[i]
            out += tmp
    return out


def _tail_bound(spec, run, integrand_end):
    """Truncation-error estimate: end integrand over twice the decay rate of
    the closed loop's last knot."""
    absc = spectral_abscissa(lift_msq(run.A[-1] + spec.G, run.C[-1]))
    if absc >= 0:
        return float("inf")
    return float(integrand_end / (-absc))


class _Run:
    """One (law, N) pair of a batch: its closed-loop tables, its accumulators
    over replications and, within a chunk, its own state."""

    def __init__(self, spec, law, N, tgrid, coupling, reps, m_thin, collect_agents):
        self.A, self.C, self.F, self.wcoef, woff = _loop_tables(spec, law, tgrid, coupling)
        self.woff = woff[:, :, None]
        self.N = N
        self.xb = law.xbar_at(tgrid)
        self.live = bool(np.any(self.wcoef))
        self.agent_cost = np.zeros(N)
        self.rep_social = np.empty(reps)
        self.rep_consist = np.empty(reps)
        self.sm_state = np.zeros(m_thin)
        self.sm_ctrl = np.zeros(m_thin)
        self.traj = np.zeros((collect_agents, m_thin, spec.n)) if collect_agents else None
        self.ctrls = np.zeros((collect_agents, m_thin, spec.r)) if collect_agents else None
        self.end_integrand = 0.0

    def begin(self, X0, dw, bufs, r):
        """Enter a chunk: the first N agents of the shared (n, B, max N)
        initial state and of the (B, max N) increments dw, the four w-terms
        (ou, dx, cx, ex) as row blocks of one buffer, and the step scratch
        (U, dev, drift, diff, quad, tmp) as leading slices of the shared
        flat buffers."""
        n, B, _ = X0.shape
        N = self.N
        self.X = X0[:, :, :N].copy()
        self.dw = dw[:, :N]
        self.xavg = self.X[:, :, 0] if N == 1 else np.empty((n, B))
        self.wterms = np.empty((r + 3 * n, B))
        self.ou, self.dx, self.cx, self.ex = np.split(self.wterms[:, :, None],
                                                      [r, r + n, r + 2 * n])
        self.cost = np.zeros((B, N))
        self.consist = np.zeros(B)
        self.l0, self.lrun = np.empty((B, N)), np.empty((B, N))
        self.prev_c = None
        shapes = [(r, B, N)] + [(n, B, N)] * 3 + [(B, N)] * 2
        self.scratch = [buf[:math.prod(s)].reshape(s) for buf, s in zip(bufs, shapes)]


def simulate_population(spec: ProblemSpec, law: ControlLaw, cfg: SimConfig,
                        N: int | None = None, coupling: str = "empirical",
                        collect_agents: int = 0) -> SimulationOutput:
    """Simulate N agents under a feedback law.

    coupling="empirical": the dynamics/cost coupling term uses the live
    average x^(N).  coupling="xbar": the precomputed mean-field trajectory
    replaces it (the single-agent mean-field-type system).
    """
    return _simulate(spec, [(law, spec.N if N is None else N)], cfg, coupling,
                     collect_agents)[0]


def _simulate(spec: ProblemSpec, pairs, cfg: SimConfig, coupling: str = "empirical",
              collect_agents: int = 0) -> list[SimulationOutput]:
    """Simulate every (law, N) pair of pairs on one draw of the shared noise.

    Per chunk of replications each of the max(N) streams of each
    replication is drawn once, whole or a time block at a time; every pair
    steps its own (n, B, N) state on the first N columns of the increments,
    with its own closed-loop tables, so each pair's arithmetic is that of
    its call alone.  Chunks are sized by the widest pair, so a pair's sums over
    replications (its individual costs and second moments) move by rounding
    from its call alone only when that sizing splits its replications
    differently; per-replication results do not move.  coupling and
    collect_agents apply to every pair.  A divergence raises for the pair
    that diverges first in time (first in order at the same step).
    """
    if coupling not in ("empirical", "xbar"):
        raise ValueError("coupling must be 'empirical' or 'xbar'")
    checked = []
    for law, N in pairs:
        if coupling == "xbar" and law.mf_source == "empirical":
            raise ValueError("coupling='xbar' needs a law with a stored mean-field path; "
                             "a centralized law (mf_source 'empirical') has none")
        N = _check_population(N)
        if not (_is_integer(collect_agents) and 0 <= collect_agents <= N):
            raise ValueError(f"collect_agents must be an integer in 0..N = {N}, "
                             f"got {collect_agents!r}")
        checked.append((law, N))
    if not checked:
        return []
    n, r = spec.n, spec.r
    T = cfg.horizon_for(spec)
    dt = cfg.dt
    steps = max(1, int(round(T / dt)))
    tgrid = dt * np.arange(steps + 1)
    tgrid[-1] = T
    finite = not spec.infinite_horizon and abs(T - spec.horizon) <= 1e-9

    reps = cfg.replications
    N_max = max(N for _, N in checked)
    chunk = max(1, min(reps, _MAX_WIDTH // N_max))
    L0 = initial_chol(spec)
    sqdt = np.sqrt(dt)
    w = 0.5 * dt

    thin_idx = np.arange(0, steps + 1, cfg.thinning)
    if thin_idx[-1] != steps:
        thin_idx = np.append(thin_idx, steps)
    thin_mask = np.zeros(steps + 1, dtype=bool)
    thin_mask[thin_idx] = True
    thin_pos = np.cumsum(thin_mask) - 1
    runs = [_Run(spec, law, N, tgrid, coupling, reps, thin_idx.size, collect_agents)
            for law, N in checked]

    def advance(run, k):
        """Knot k of one pair: controls, running cost and records, then the
        Euler step to k + 1 on its columns of the current increments."""
        X, N, xavg = run.X, run.N, run.xavg
        U, dev, drift, diff, quad, tmp = run.scratch
        if N > 1:
            np.add.reduce(X, axis=2, out=xavg)     # X.mean(axis=2), bit for bit
            xavg /= N
        if run.live:
            matvec(run.wcoef[k], xavg, run.wterms)
            run.wterms += run.woff[k]
        else:
            run.wterms[...] = run.woff[k]
        matvec(run.F[k], X, U)
        U += run.ou
        # running cost at the current knot; the trapezoid's endpoint halves
        # are added at the end, and the knots between are a plain sum
        lrun = run.l0 if k == 0 else run.lrun
        np.subtract(X, run.ex, out=dev)
        _quad(spec.Q, dev, lrun, tmp)
        lrun += _quad(spec.R, U, quad, tmp)
        if 0 < k < steps:
            run.cost += lrun
        cerr = np.sum((xavg - run.xb[k][:, None]) ** 2, axis=0)
        if run.prev_c is not None:
            run.consist += w * (run.prev_c + cerr)
        run.prev_c = cerr
        if thin_mask[k]:
            j = thin_pos[k]
            run.sm_state[j] += np.sum(X * X) / N
            run.sm_ctrl[j] += np.sum(U * U) / N
            if collect_agents and done == 0:
                run.traj[:, j] = X[:, 0, :collect_agents].T
                run.ctrls[:, j] = U[:, 0, :collect_agents].T
        if k == steps:
            run.cost *= dt
            np.add(run.l0, lrun, out=tmp)
            tmp *= w
            run.cost += tmp
            run.end_integrand += float(np.mean(np.abs(lrun))) * X.shape[1]
            return
        matvec(run.A[k], X, drift)
        drift += run.dx
        drift *= dt
        matvec(run.C[k], X, diff)
        diff += run.cx
        diff *= run.dw
        X += drift
        X += diff
        if not np.abs(X, out=dev).max() <= _DIVERGE:     # also catches NaN
            b_idx, i_idx = np.argwhere(~(dev <= _DIVERGE).all(axis=0))[0]
            raise DivergenceError(tgrid[k + 1], i_idx, done + b_idx)

    done = 0
    while done < reps:
        B = min(chunk, reps - done)
        W = B * N_max
        # one stream per (replication, agent), row w = b max(N) + i; each
        # stream gives its n initial normals first, then its increments in
        # order, and step k reads column n + k % block in place.  A horizon
        # that fits the bound is drawn whole, one row per stream, and no
        # stream stays open; a longer one is drawn a block at a time from
        # open streams: the first draw fills the whole row, later ones
        # raw[:, n:]
        raw = gens = tails = None           # the last chunk's noise goes first
        if W * (n + steps) <= 2 * _BLOCK_ELEMS:
            raw = agent_normals(cfg.seed, range(done, done + B), range(N_max), n + steps)
            block = steps
        else:
            gens = agent_rngs(cfg.seed, range(done, done + B), range(N_max))
            block = max(1, min(steps, _BLOCK_ELEMS // W))
            raw = np.empty((W, n + block))
            for gen, row in zip(gens, raw):
                gen.standard_normal(out=row)
            tails = [row[n:] for row in raw]
        X0 = (spec.x0_mean[:, None] + matvec(L0, raw[:, :n].T)).reshape(n, B, N_max)
        dw = np.empty(W)
        bufs = [np.empty(k * W) for k in (r, n, n, n, 1, 1)]
        for run in runs:
            run.begin(X0, dw.reshape(B, N_max), bufs, r)
        for k in range(steps + 1):
            if k < steps:
                if k and k % block == 0:
                    if steps - k < block:   # the last block is partial; no second list
                        tails = (row[n:n + steps - k] for row in raw)
                    for gen, tail in zip(gens, tails):
                        gen.standard_normal(out=tail)
                np.multiply(raw[:, n + k % block], sqdt, out=dw)
            for run in runs:
                advance(run, k)
        for run in runs:
            cost = run.cost
            if finite:
                X = run.X
                xT = X.mean(axis=2) if coupling == "empirical" else run.xb[-1][:, None]
                devT = X - (matvec(spec.Gamma0, xT) + spec.eta0[:, None])[:, :, None]
                cost += _quad(spec.H, devT, *run.scratch[4:])
            run.agent_cost += cost.sum(axis=0)
            run.rep_social[done:done + B] = cost.sum(axis=1)
            run.rep_consist[done:done + B] = run.consist
        done += B

    outs = []
    for run in runs:
        run.agent_cost /= reps
        run.sm_state /= reps
        run.sm_ctrl /= reps
        rep_social, rep_consist = run.rep_social, run.rep_consist
        outs.append(SimulationOutput(
            grid=tgrid[thin_idx],
            individual_costs=run.agent_cost,
            social_cost=float(run.agent_cost.sum()),
            social_se=float(rep_social.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
            rep_social=rep_social,
            consistency_error=float(rep_consist.mean()),
            consistency_se=float(rep_consist.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0,
            rep_consistency=rep_consist,
            state_second_moment=run.sm_state,
            control_second_moment=run.sm_ctrl,
            tail_bound=(_tail_bound(spec, run, run.end_integrand / reps)
                        if spec.infinite_horizon else 0.0),
            trajectories=run.traj,
            controls=run.ctrls,
        ))
    return outs


def simulate_meanfield_type(spec: ProblemSpec, law: ControlLaw, cfg: SimConfig) -> SimulationOutput:
    """Single-agent system whose coupling is the analytic mean trajectory.

    The mean of the closed-loop state coincides with the stored mean-field
    path, so the expectation in the dynamics/cost is replaced by it.
    """
    return simulate_population(spec, law, cfg, N=1, coupling="xbar")
