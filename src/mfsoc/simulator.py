"""Euler-Maruyama simulation of the coupled N-agent closed loop.

The population is always propagated with the true empirical average in the
coupling (never the mean-field approximation), so consistency is measured
rather than assumed.  Noise streams are counter-based per (seed,
replication, agent): agent i's Brownian path is identical across control
strategies and across population sizes, which gives common random numbers
for cost comparisons by construction.  Replications are processed in
memory-bounded chunks; all reductions are plain array means in fixed index
order, so outputs are bit-identical for a given configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import lift_msq, spectral_abscissa
from .model import ProblemSpec, agent_rng, initial_chol
from .synthesis import ControlLaw

_MAX_ELEMS = int(2e7)   # noise-buffer budget (floats) per replication chunk
_MAX_WIDTH = 20000      # replications x agents processed per vector step
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
        if self.dt <= 0:
            raise ValueError("dt must be positive")
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


def _law_tables(law: ControlLaw, tgrid):
    Fs = law.F_self_at(tgrid)
    Fm = law.F_mf_at(tgrid)
    g = law.g_at(tgrid)
    xb = law.xbar_at(tgrid)
    return Fs, Fm, g, xb


def _tail_bound(spec, law, T, integrand_end):
    """Truncation-error estimate: end integrand over twice the decay rate."""
    Fs = law.F_self_at(T)
    A_cl = spec.A + spec.B @ Fs + spec.G
    C_cl = spec.C + spec.D @ Fs
    absc = spectral_abscissa(lift_msq(A_cl, C_cl))
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
    N = spec.N if N is None else int(N)
    n, r = spec.n, spec.r
    T = cfg.horizon_for(spec)
    dt = cfg.dt
    steps = max(1, int(round(T / dt)))
    tgrid = dt * np.arange(steps + 1)
    tgrid[-1] = T

    A, Bm, C, D, G = spec.A, spec.B, spec.C, spec.D, spec.G
    Q, R, Gam = spec.Q, spec.R, spec.Gamma
    Fs, Fm, g, xb = _law_tables(law, tgrid)
    fG = spec.f(tgrid)
    sigG = spec.sigma(tgrid)
    etaG = spec.eta(tgrid)
    use_emp = law.mf_source == "empirical"
    couple_emp = coupling == "empirical"
    finite = not spec.infinite_horizon and abs(T - spec.horizon) <= 1e-9

    reps = cfg.replications
    chunk = max(1, min(reps, _MAX_ELEMS // max(1, N * steps), _MAX_WIDTH // N))
    L0 = initial_chol(spec)
    sqdt = np.sqrt(dt)

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
        gens = [[agent_rng(cfg.seed, done + b, i) for i in range(N)] for b in range(B)]
        X = np.empty((B, N, n))
        for b in range(B):
            for i in range(N):
                X[b, i] = spec.x0_mean + L0 @ gens[b][i].standard_normal(n)
        dW = np.empty((B, steps, N))
        for b in range(B):
            for i in range(N):
                dW[b, :, i] = gens[b][i].standard_normal(steps)
        dW *= sqdt

        cost = np.zeros((B, N))
        consist = np.zeros(B)
        prev_l = None
        prev_c = None
        for k in range(steps + 1):
            xavg = X.mean(axis=1)                       # (B, n)
            coup = xavg[:, None, :] if couple_emp else np.broadcast_to(xb[k], (B, 1, n))
            U = X @ Fs[k].T
            if use_emp:
                U = U + xavg[:, None, :] @ Fm[k].T + g[k]
            else:
                U = U + (Fm[k] @ xb[k] + g[k])
            # running cost at the current knot
            dev = X - coup @ Gam.T - etaG[k]
            lrun = np.einsum("bin,nm,bim->bi", dev, Q, dev) \
                + np.einsum("bir,rs,bis->bi", U, R, U)
            cerr = np.sum((xavg - xb[k]) ** 2, axis=1)
            if prev_l is not None:
                w = 0.5 * dt
                cost += w * (prev_l + lrun)
                consist += w * (prev_c + cerr)
            prev_l, prev_c = lrun, cerr
            if thin_mask[k]:
                j = thin_pos[k]
                sm_state[j] += np.sum(X * X) / N
                sm_ctrl[j] += np.sum(U * U) / N
                if collect_agents and done == 0:
                    traj[:, j] = X[0, :collect_agents]
                    ctrls[:, j] = U[0, :collect_agents]
            if k == steps:
                end_integrand += float(np.mean(np.abs(lrun))) * B
                break
            drift = X @ A.T + U @ Bm.T + coup @ G.T + fG[k]
            diff = X @ C.T + U @ D.T + sigG[k]
            X = X + dt * drift + diff * dW[:, k, :, None]
            bad = ~np.isfinite(X) | (np.abs(X) > _DIVERGE)
            if bad.any():
                b_idx, i_idx = np.argwhere(bad.any(axis=2))[0]
                raise DivergenceError(tgrid[k + 1], i_idx, done + b_idx)
        if finite:
            xavg = X.mean(axis=1)
            coupT = xavg[:, None, :] if couple_emp else np.broadcast_to(xb[-1], (B, 1, n))
            devT = X - coupT @ spec.Gamma0.T - spec.eta0
            cost += np.einsum("bin,nm,bim->bi", devT, spec.H, devT)
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
        tail = _tail_bound(spec, law, T, end_integrand / reps)
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
