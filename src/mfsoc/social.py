"""Centralized benchmark, optimality-gap curves, and the asymptotic value.

The centralized cost simulates the population under the population-N
feedback (which requires the live empirical average, i.e. centralized
information).  Gap curves pair decentralized and centralized runs under
common random numbers, so the per-replication cost differences are the
variance-reduced estimator of the gap; every run of a curve steps in one
simulator pass on one draw of each agent's stream.  Exact gap curves
instead evaluate every cost from the exchangeable moment closure of the
N-agent closed loop, whose size does not depend on N, on the simulator's
closed-loop tables.  The closure is linear and goes through
`linalg.affine_rk4`; with a batch axis over (law, N) pairs, a whole exact
gap curve is one pass and a single exact cost is a batch of one.  The
asymptotic per-agent optimum is evaluated in closed form from the two
constant Riccati matrices, the offset, and a quadrature term m; the
initial-state expectation reduces to a trace against the initial
covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, affine_rk4, rk4_grid
from .model import ProblemSpec, _check_population, _check_positive
from .riccati import (
    RiccatiInfiniteSolution,
    SolverError,
    _Pair,
    _plant,
    solve_are,
    solve_are_N,
    solve_finite_limit,
    solve_finite_N,
)
from .simulator import SimConfig, SimulationOutput, _simulate, simulate_population
from .synthesis import _closed_loop, _ClosedLoop, build_law


@dataclass
class GapCurve:
    N_values: np.ndarray
    decentralized: np.ndarray   # per-agent social cost
    centralized: np.ndarray
    decentralized_se: np.ndarray
    centralized_se: np.ndarray
    epsilon: np.ndarray         # decentralized - centralized, paired
    epsilon_se: np.ndarray


@dataclass
class AsymptoticValue:
    value: float
    quad_spread: float   # trace(P . initial covariance)
    quad_mean: float     # mean' Pi mean
    lin_offset: float    # 2 s(0)' mean
    m: float
    tail_bound: float
    grid: np.ndarray
    m_integrand: np.ndarray

    @property
    def components_sum(self) -> float:
        return self.quad_spread + self.quad_mean + self.lin_offset + self.m


def _centralized_law(spec: ProblemSpec, N: int, t_sim: float | None,
                     tol: Tolerance = DEFAULT_TOL):
    """The population-N optimal feedback; t_sim is the infinite-horizon
    solve's offset and mean-field horizon and is not read on a finite
    horizon."""
    if spec.infinite_horizon:
        sol = solve_are_N(spec, tol, t_sim=t_sim, N=N)
    else:
        sol = solve_finite_N(spec, tol, N=N)
    return build_law(sol, spec, tol)


def centralized_cost(spec: ProblemSpec, N: int, cfg: SimConfig,
                     tol: Tolerance = DEFAULT_TOL) -> SimulationOutput:
    """Monte Carlo social cost under the population-N optimal feedback."""
    law = _centralized_law(spec, N, cfg.horizon_for(spec), tol)
    return simulate_population(spec, law, cfg, N=N)


def gap_curve(spec: ProblemSpec, N_values, cfg: SimConfig,
              tol: Tolerance = DEFAULT_TOL) -> GapCurve:
    """Per-agent cost gap between decentralized and centralized strategies.

    Both strategies at each N consume identical noise streams, so epsilon
    is estimated from paired per-replication differences.  Every law is
    built first, and then all 2 len(N_values) runs go through one
    `simulator._simulate` pass, which draws each shared stream once.
    """
    Ns = [_check_population(N) for N in N_values]
    t_sim = cfg.horizon_for(spec)
    if spec.infinite_horizon:
        dec_sol = solve_are(spec, tol, t_sim=t_sim)
    else:
        dec_sol = solve_finite_limit(spec, tol)
    dec_law = build_law(dec_sol, spec, tol)
    cen_laws = [_centralized_law(spec, N, t_sim, tol) for N in Ns]
    outs = _simulate(spec, [(dec_law, N) for N in Ns] + list(zip(cen_laws, Ns)), cfg)

    dec, cen, dec_se, cen_se, eps, eps_se = (np.empty(len(Ns)) for _ in range(6))
    for j, (N, out_d, out_c) in enumerate(zip(Ns, outs, outs[len(Ns):])):
        dec[j] = out_d.social_cost / N
        cen[j] = out_c.social_cost / N
        dec_se[j] = out_d.social_se / N
        cen_se[j] = out_c.social_se / N
        diff = (out_d.rep_social - out_c.rep_social) / N
        eps[j] = float(diff.mean())
        reps = diff.size
        eps_se[j] = float(diff.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return GapCurve(np.asarray(Ns), dec, cen, dec_se, cen_se, eps, eps_se)


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _mv(M, v):
    return (M @ v[..., None])[..., 0]


def _moment2(P1, P2, c, m, S, Y):
    """E z z' for z = P1 x_i + P2 x^(N) + c, from the exchangeable moments.

    Every argument may carry leading batch axes; they broadcast."""
    cross = P1 @ Y @ P2.mT
    mc = _outer(_mv(P1 + P2, m), c)
    return P1 @ S @ P1.mT + cross + cross.mT + P2 @ Y @ P2.mT + mc + mc.mT + _outer(c, c)


def _trace_dot(W, M):
    """<W, M> = sum_ij W_ij M_ij over the last two axes of M.

    Written as a stack of (1, k^2) @ (k^2, 1) products, which numpy sums in
    the order of np.vdot whatever the batch shape."""
    return (M.reshape(*M.shape[:-2], 1, -1) @ W.reshape(-1, 1))[..., 0, 0]


def _closure_costs(spec: ProblemSpec, laws, Ns, step: float) -> np.ndarray:
    """Exact per-agent social costs of the pairs (laws[k], Ns[k]), in one pass.

    The agents start i.i.d. and share one symmetric law, so the closed loop
    is exchangeable: its first two moments are m = E x_i, S = E x_i x_i'
    and O = E x_i x_j' (i != j), and Y = S/N + (1 - 1/N) O is both
    E x_i x^(N)' and E x^(N) x^(N)'.  With the law's closed loop (drift
    A x_i + Aw x^(N) + b, diffusion C x_i + Cw x^(N) + c, see
    `synthesis._closed_loop`),
        dm = (A + Aw) m + b,
        dO = A O + O A' + Aw Y + Y Aw' + b m' + m b',
        dS = (the same drift with S for O) + E (C x_i + Cw x^(N) + c)(...)',
    a state of 2n^2 + n entries whatever N is.  Each pair is one row of a
    batch axis: the tables are built law by law and stacked as
    (stages, K, ...), N broadcasts as a (K, 1, 1) array, and the rows
    (m, S, O, cost) of a (K, 2n^2 + n + 1) state go through `affine_rk4`,
    which raises BlowUpError, with its time, if the moments explode.
    """
    if spec.infinite_horizon:
        raise SolverError("moment propagation needs a finite horizon")
    for N in Ns:
        _check_population(N)
    _check_positive(step, "step")
    if not laws:
        return np.zeros(0)
    T = float(spec.horizon)
    ts = rk4_grid(0.0, T, step)   # the stage times affine_rk4 steps through
    cl = _ClosedLoop(*(np.stack(tab, axis=1)
                       for tab in zip(*(_closed_loop(spec, law, ts) for law in laws))))
    N = np.asarray(Ns, dtype=float)[:, None, None]
    K, n = len(Ns), spec.n
    I_n = np.eye(n)

    def split(y):
        m, S, O, cost = np.split(y, [n, n * (n + 1), n * (2 * n + 1)], axis=-1)
        return m, S.reshape(*m.shape[:-1], n, n), O.reshape(*m.shape[:-1], n, n), cost[..., 0]

    def rate(k, y):
        m, S, O, _ = split(y)
        A, Aw, b = cl.A[k], cl.Aw[k], cl.b[k]
        Y = S / N + (1.0 - 1.0 / N) * O
        mY, bm = Aw @ Y, _outer(b, m)
        common = mY + mY.mT + bm + bm.mT
        dm = _mv(A + Aw, m) + b
        dS = A @ S + S @ A.mT + common + _moment2(cl.C[k], cl.Cw[k], cl.c[k], m, S, Y)
        dO = A @ O + O @ A.mT + common
        cost = (_trace_dot(spec.Q, _moment2(I_n, -cl.Gw[k], -cl.e[k], m, S, Y))
                + _trace_dot(spec.R, _moment2(cl.F[k], cl.Fw[k], cl.u[k], m, S, Y)))
        lead = dm.shape[:-1]
        return np.concatenate([dm, dS.reshape(*lead, -1), dO.reshape(*lead, -1),
                               cost[..., None]], axis=-1)

    m = np.tile(spec.x0_mean, (K, 1))
    O = _outer(m, m)
    y0 = np.concatenate([m, (O + spec.x0_cov).reshape(K, -1), O.reshape(K, -1),
                         np.zeros((K, 1))], axis=1)
    m, S, O, cost = split(affine_rk4(rate, 0.0, T, y0, step)[1][-1])
    Y = S / N + (1.0 - 1.0 / N) * O
    return cost + _trace_dot(spec.H, _moment2(I_n, -spec.Gamma0, -spec.eta0, m, S, Y))


def expected_social_cost(spec: ProblemSpec, law, N: int, step: float = 2e-4) -> float:
    """Exact per-agent social cost of the N-population under a law.

    A batch of one of the exchangeable moment closure `_closure_costs`:
    every cost term is the second moment of an affine function of
    (x_i, x^(N)), so the cost has no Monte Carlo error.  Finite horizon
    only; the law may feed back on the live empirical average or on its
    stored mean-field trajectory.  N must be an integer >= 1 and step a
    positive finite number (ValueError otherwise).  Moments that explode
    raise ``BlowUpError`` with the time they left the finite range.
    """
    return float(_closure_costs(spec, [law], [N], step)[0])


def gap_curve_exact(spec: ProblemSpec, N_values, step: float = 2e-4,
                    tol: Tolerance = DEFAULT_TOL) -> GapCurve:
    """Gap curve from moment propagation instead of Monte Carlo.

    Same pairing as gap_curve but every cost is an exact expectation, so
    the standard-error fields are identically zero.  All 2 len(N_values)
    costs come from one batched closure pass.  Finite horizon only.
    Moments that explode raise ``BlowUpError`` with the time they left the
    finite range; a failed Riccati solve raises SolverError.
    """
    Ns = list(N_values)
    dec_law = build_law(solve_finite_limit(spec, tol), spec, tol)
    cen_laws = [_centralized_law(spec, N, None, tol) for N in Ns]
    costs = _closure_costs(spec, [dec_law] * len(Ns) + cen_laws, Ns + Ns, step)
    dec, cen = costs[:len(Ns)], costs[len(Ns):]
    zero = np.zeros(len(Ns))
    return GapCurve(np.asarray(Ns, dtype=int), dec, cen, zero.copy(), zero.copy(),
                    dec - cen, zero.copy())


def asymptotic_value(spec: ProblemSpec, sol: RiccatiInfiniteSolution,
                     tol: Tolerance = DEFAULT_TOL) -> AsymptoticValue:
    """Closed-form limit of the per-agent social cost.

    value = trace(P Sigma0) + mean' Pi mean + 2 s(0)' mean + m, with
        m = integral of [ sigma' P sigma + 2 s' f + ||eta||^2_Q
                          - ||B's + D'P sigma||^2_{Ups^+} ] dt.
    The printed statement of this constant elsewhere carries an extra
    mean-trajectory noise term; the completion-of-squares derivation (and
    the Monte Carlo oracle) select the form above, which is what we
    implement.  sol must be the limit-form infinite-horizon solution
    (``solve_are``), else ValueError.  Refuses when the integrand has not
    decayed by the end of the available grid (signals must be
    square-integrable).
    """
    if not isinstance(sol, RiccatiInfiniteSolution) or sol.population is not None:
        raise ValueError(f"asymptotic_value needs the limit-form infinite-horizon solution "
                         f"(solve_are), got a {type(sol).__name__} at population {sol.population}")
    grid, P, Pi, s = sol.grid, sol.P, sol.Pi, sol.s
    pair = _Pair(_plant(spec), P, Pi, None, tol)   # the limit form, M = P
    sig = spec.sigma(grid)
    f = spec.f(grid)
    eta = spec.eta(grid)
    w = pair.offset_numerator(s, sig)   # rows: B's + D'P sigma
    integrand = (
        np.einsum("tn,nm,tm->t", sig, P, sig)
        + 2.0 * np.einsum("tn,tn->t", s, f)
        + np.einsum("tn,nm,tm->t", eta, spec.Q, eta)
        - np.einsum("tr,rs,ts->t", w, pair.Ui, w)
    )
    peak = float(np.max(np.abs(integrand)))
    tail_win = max(2, grid.size // 20)
    end_level = float(np.max(np.abs(integrand[-tail_win:])))
    if peak > 0 and end_level > 1e-3 * peak:
        raise SolverError(
            f"value integrand has not decayed by t={grid[-1]:.3g} "
            f"(end level {end_level:.3g} vs peak {peak:.3g}); the forcing "
            f"signals are not square-integrable on this horizon"
        )
    m = float(np.trapezoid(integrand, x=grid))
    tail_bound = end_level * max(grid[-1], 1.0)
    quad_spread = float(np.trace(P @ spec.x0_cov))
    quad_mean = float(spec.x0_mean @ Pi @ spec.x0_mean)
    lin_offset = float(2.0 * s[0] @ spec.x0_mean)
    value = quad_spread + quad_mean + lin_offset + m
    return AsymptoticValue(
        value=value, quad_spread=quad_spread, quad_mean=quad_mean,
        lin_offset=lin_offset, m=m, tail_bound=tail_bound,
        grid=grid, m_integrand=integrand,
    )
