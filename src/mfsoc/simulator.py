"""Euler-Maruyama simulation of the coupled N-agent closed loop.

The population is always propagated with the true empirical average in the
coupling (never the mean-field approximation), so consistency is measured
rather than assumed.  Noise streams are counter-based per (seed,
replication, agent): agent i's Brownian path is identical across control
strategies and across population sizes, which gives common random numbers
for cost comparisons by construction.

Replications are stepped in chunks of at most _MAX_WIDTH agents in all.  A
chunk keeps its streams open and draws their increments one time block at
a time into two reused buffers, so its width does not depend on the
horizon; a stream drawn in pieces yields the same normals as one draw.  The
state is held as (n, replications, agents) and each step is a few
broadcast multiply-adds (`linalg.matvec`, without BLAS), with
`synthesis._closed_loop`'s tables.  All reductions are plain array means in
fixed index order, so outputs are bit-identical for a given configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import lift_msq, matvec, spectral_abscissa
from .model import ProblemSpec, _check_population, agent_rng, initial_chol
from .synthesis import ControlLaw, _closed_loop

_MAX_WIDTH = 20000      # replications x agents stepped together
_BLOCK_ELEMS = 1 << 20  # noise floats drawn per time block
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
        if not 0 < self.dt < np.inf:
            raise ValueError(f"dt must be a positive finite number, got {self.dt!r}")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.thinning < 1:
            raise ValueError("thinning must be >= 1")

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


def _tail_bound(spec, cl, integrand_end):
    """Truncation-error estimate: end integrand over twice the decay rate of
    the closed loop's last knot."""
    absc = spectral_abscissa(lift_msq(cl.A[-1] + spec.G, cl.C[-1]))
    if absc >= 0:
        return float("inf")
    return float(integrand_end / (-absc))


def simulate_population(spec: ProblemSpec, law: ControlLaw, cfg: SimConfig,
                        N: int | None = None, coupling: str = "empirical",
                        collect_agents: int = 0) -> SimulationOutput:
    """Simulate N agents under a feedback law.

    coupling="empirical": the dynamics/cost coupling term uses the live
    average x^(N).  coupling="xbar": the precomputed mean-field trajectory
    replaces it (the single-agent mean-field-type system).
    """
    if coupling not in ("empirical", "xbar"):
        raise ValueError("coupling must be 'empirical' or 'xbar'")
    if coupling == "xbar" and law.mf_source == "empirical":
        raise ValueError("coupling='xbar' needs a law with a stored mean-field path; "
                         "a centralized law (mf_source 'empirical') has none")
    N = _check_population(spec.N if N is None else N)
    n, r = spec.n, spec.r
    T = cfg.horizon_for(spec)
    dt = cfg.dt
    steps = max(1, int(round(T / dt)))
    tgrid = dt * np.arange(steps + 1)
    tgrid[-1] = T

    cl = _closed_loop(spec, law, tgrid, coupling)
    xb = law.xbar_at(tgrid)
    live = any(np.any(M) for M in (cl.Aw, cl.Cw, cl.Fw, cl.Gw))
    finite = not spec.infinite_horizon and abs(T - spec.horizon) <= 1e-9

    reps = cfg.replications
    chunk = max(1, min(reps, _MAX_WIDTH // N))
    L0 = initial_chol(spec)
    sqdt = np.sqrt(dt)
    w = 0.5 * dt

    thin_idx = np.arange(0, steps + 1, cfg.thinning)
    if thin_idx[-1] != steps:
        thin_idx = np.append(thin_idx, steps)
    m_thin = thin_idx.size
    thin_mask = np.zeros(steps + 1, dtype=bool)
    thin_mask[thin_idx] = True
    thin_pos = np.cumsum(thin_mask) - 1

    agent_cost = np.zeros(N)
    rep_social = np.empty(reps)
    rep_consist = np.empty(reps)
    sm_state = np.zeros(m_thin)
    sm_ctrl = np.zeros(m_thin)
    traj = np.zeros((collect_agents, m_thin, n)) if collect_agents else None
    ctrls = np.zeros((collect_agents, m_thin, r)) if collect_agents else None
    end_integrand = 0.0

    done = 0
    while done < reps:
        B = min(chunk, reps - done)
        W = B * N
        # one stream per (replication, agent), row w = b N + i; each stream
        # gives its n initial normals first, then its increments in order
        gens = [agent_rng(cfg.seed, done + b, i) for b in range(B) for i in range(N)]
        z0 = np.empty((W, n))
        for gen, row in zip(gens, z0):
            gen.standard_normal(out=row)
        X = (spec.x0_mean[:, None] + matvec(L0, z0.T)).reshape(n, B, N)
        block = max(1, min(steps, _BLOCK_ELEMS // W))
        raw = np.empty((W, block))
        rows = list(raw)
        dW = np.empty((block, W))

        cost = np.zeros((B, N))
        consist = np.zeros(B)
        U = np.empty((r, B, N))
        dev, drift, diff = (np.empty((n, B, N)) for _ in range(3))
        lrun, prev_l, quad, tmp = (np.empty((B, N)) for _ in range(4))
        prev_c = None
        for k in range(steps + 1):
            xavg = X.mean(axis=2)                       # (n, B)
            if live:
                ou = (matvec(cl.Fw[k], xavg) + cl.u[k][:, None])[:, :, None]
                dx = (matvec(cl.Aw[k], xavg) + cl.b[k][:, None])[:, :, None]
                cx = (matvec(cl.Cw[k], xavg) + cl.c[k][:, None])[:, :, None]
                ex = (matvec(cl.Gw[k], xavg) + cl.e[k][:, None])[:, :, None]
            else:
                ou, dx, cx, ex = (v[k][:, None, None] for v in (cl.u, cl.b, cl.c, cl.e))
            matvec(cl.F[k], X, U)
            U += ou
            # running cost at the current knot
            np.subtract(X, ex, out=dev)
            _quad(spec.Q, dev, lrun, tmp)
            lrun += _quad(spec.R, U, quad, tmp)
            cerr = np.sum((xavg - xb[k][:, None]) ** 2, axis=0)
            if prev_c is not None:
                np.add(prev_l, lrun, out=tmp)
                tmp *= w
                cost += tmp
                consist += w * (prev_c + cerr)
            prev_c = cerr
            if thin_mask[k]:
                j = thin_pos[k]
                sm_state[j] += np.sum(X * X) / N
                sm_ctrl[j] += np.sum(U * U) / N
                if collect_agents and done == 0:
                    traj[:, j] = X[:, 0, :collect_agents].T
                    ctrls[:, j] = U[:, 0, :collect_agents].T
            if k == steps:
                end_integrand += float(np.mean(np.abs(lrun))) * B
                break
            lrun, prev_l = prev_l, lrun
            if k % block == 0:
                size = min(block, steps - k)
                for gen, row in zip(gens, rows):
                    gen.standard_normal(out=row[:size])
                np.multiply(raw[:, :size].T, sqdt, out=dW[:size])
            matvec(cl.A[k], X, drift)
            drift += dx
            drift *= dt
            matvec(cl.C[k], X, diff)
            diff += cx
            diff *= dW[k % block].reshape(B, N)
            X += drift
            X += diff
            if not np.abs(X, out=dev).max() <= _DIVERGE:     # also catches NaN
                b_idx, i_idx = np.argwhere(~(dev <= _DIVERGE).all(axis=0))[0]
                raise DivergenceError(tgrid[k + 1], i_idx, done + b_idx)
        if finite:
            xT = X.mean(axis=2) if coupling == "empirical" else xb[-1][:, None]
            devT = X - (matvec(spec.Gamma0, xT) + spec.eta0[:, None])[:, :, None]
            cost += _quad(spec.H, devT, quad, tmp)
        agent_cost += cost.sum(axis=0)
        rep_social[done:done + B] = cost.sum(axis=1)
        rep_consist[done:done + B] = consist
        done += B

    agent_cost /= reps
    sm_state /= reps
    sm_ctrl /= reps
    social = float(agent_cost.sum())
    social_se = float(rep_social.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    cons = float(rep_consist.mean())
    cons_se = float(rep_consist.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    if spec.infinite_horizon:
        tail = _tail_bound(spec, cl, end_integrand / reps)
    else:
        tail = 0.0
    return SimulationOutput(
        grid=tgrid[thin_idx],
        individual_costs=agent_cost,
        social_cost=social,
        social_se=social_se,
        rep_social=rep_social,
        consistency_error=cons,
        consistency_se=cons_se,
        rep_consistency=rep_consist,
        state_second_moment=sm_state,
        control_second_moment=sm_ctrl,
        tail_bound=tail,
        trajectories=traj,
        controls=ctrls,
    )


def simulate_meanfield_type(spec: ProblemSpec, law: ControlLaw, cfg: SimConfig) -> SimulationOutput:
    """Single-agent system whose coupling is the analytic mean trajectory.

    The mean of the closed-loop state coincides with the stored mean-field
    path, so the expectation in the dynamics/cost is replaced by it.
    """
    return simulate_population(spec, law, cfg, N=1, coupling="xbar")
