"""Centralized benchmark, optimality-gap curves, and the asymptotic value.

The centralized cost simulates the population under the population-N
feedback (which requires the live empirical average, i.e. centralized
information).  Gap curves pair decentralized and centralized runs under
common random numbers, so the per-replication cost differences are the
variance-reduced estimator of the gap.  Exact gap curves instead evaluate
every cost from the exchangeable moment closure of the N-agent closed loop,
whose size does not depend on N.  The closure carries a leading batch axis
over (law, N) pairs, so a whole exact gap curve is one RK4 pass and a
single exact cost is a batch of one.  The asymptotic per-agent optimum
is evaluated in closed form from the two constant Riccati matrices, the
offset, and a quadrature term m; the initial-state expectation reduces to
a trace against the initial covariance.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, pinv, quadrature
from .model import ProblemSpec
from .riccati import (
    RiccatiInfiniteSolution,
    SolverError,
    solve_are,
    solve_are_N,
    solve_finite_limit,
    solve_finite_N,
)
from .simulator import SimConfig, SimulationOutput, simulate_population
from .synthesis import build_law


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


def centralized_cost(spec: ProblemSpec, N: int, cfg: SimConfig,
                     tol: Tolerance = DEFAULT_TOL) -> SimulationOutput:
    """Monte Carlo social cost under the population-N optimal feedback."""
    if spec.infinite_horizon:
        sol = solve_are_N(spec, tol, t_sim=cfg.horizon_for(spec), N=N)
    else:
        sol = solve_finite_N(spec, tol, N=N)
    law = build_law(sol, spec, tol)
    return simulate_population(spec, law, cfg, N=N)


def gap_curve(spec: ProblemSpec, N_values, cfg: SimConfig,
              tol: Tolerance = DEFAULT_TOL) -> GapCurve:
    """Per-agent cost gap between decentralized and centralized strategies.

    Both strategies at each N consume identical noise streams, so epsilon
    is estimated from paired per-replication differences.
    """
    N_values = np.asarray(list(N_values), dtype=int)
    if spec.infinite_horizon:
        dec_sol = solve_are(spec, tol, t_sim=cfg.horizon_for(spec))
    else:
        dec_sol = solve_finite_limit(spec, tol)
    dec_law = build_law(dec_sol, spec, tol)

    dec = np.empty(N_values.size)
    cen = np.empty(N_values.size)
    dec_se = np.empty(N_values.size)
    cen_se = np.empty(N_values.size)
    eps = np.empty(N_values.size)
    eps_se = np.empty(N_values.size)
    for j, N in enumerate(N_values):
        out_d = simulate_population(spec, dec_law, cfg, N=int(N))
        out_c = centralized_cost(spec, int(N), cfg, tol)
        dec[j] = out_d.social_cost / N
        cen[j] = out_c.social_cost / N
        dec_se[j] = out_d.social_se / N
        cen_se[j] = out_c.social_se / N
        diff = (out_d.rep_social - out_c.rep_social) / N
        eps[j] = float(diff.mean())
        reps = diff.size
        eps_se[j] = float(diff.std(ddof=1) / np.sqrt(reps)) if reps > 1 else 0.0
    return GapCurve(N_values, dec, cen, dec_se, cen_se, eps, eps_se)


def _T(M):
    return M.swapaxes(-1, -2)


def _outer(u, v):
    return u[..., :, None] * v[..., None, :]


def _mv(M, v):
    return (M @ v[..., None])[..., 0]


def _moment2(P1, P2, c, m, S, Y):
    """E z z' for z = P1 x_i + P2 x^(N) + c, from the exchangeable moments.

    Every argument may carry leading batch axes; they broadcast."""
    cross = P1 @ Y @ _T(P2)
    mc = _outer(_mv(P1 + P2, m), c)
    return P1 @ S @ _T(P1) + cross + _T(cross) + P2 @ Y @ _T(P2) + mc + _T(mc) + _outer(c, c)


def _trace_dot(W, M):
    """<W, M> = sum_ij W_ij M_ij over the last two axes of M.

    Written as a stack of (1, k^2) @ (k^2, 1) products, which numpy sums in
    the order of np.vdot whatever the batch shape."""
    return (M.reshape(*M.shape[:-2], 1, -1) @ W.reshape(-1, 1))[..., 0, 0]


def _law_tables(spec: ProblemSpec, law, ts):
    """One law's closed-loop tables at the stage times ts.

    Drift A_cl x_i + mix x^(N) + b, diffusion a x_i + d x^(N) + s0 and
    control Fs x_i + Fe x^(N) + u_off.  Built law by law, so a pair's
    tables do not depend on the batch it is stacked into.
    """
    B, D = spec.B, spec.D
    Fs, Fm, g = law.F_self_at(ts), law.F_mf_at(ts), law.g_at(ts)
    if law.mf_source == "empirical":
        Fe, u_off = Fm, g
    else:
        Fe, u_off = np.zeros_like(Fm), g + np.einsum("trn,tn->tr", Fm, law.xbar_at(ts))
    return (spec.A + B @ Fs, B @ Fe + spec.G, spec.C + D @ Fs, D @ Fe,
            u_off @ B.T + spec.f(ts), u_off @ D.T + spec.sigma(ts), Fs, Fe, u_off)


def _closure_costs(spec: ProblemSpec, laws, Ns, step: float) -> np.ndarray:
    """Exact per-agent social costs of the pairs (laws[k], Ns[k]), in one pass.

    The agents start i.i.d. and share one symmetric law, so the closed loop
    is exchangeable: its first two moments are m = E x_i, S = E x_i x_i'
    and O = E x_i x_j' (i != j), and Y = S/N + (1 - 1/N) O is both
    E x_i x^(N)' and E x^(N) x^(N)'.  With drift A_cl x_i + mix x^(N) + b
    and diffusion a x_i + d x^(N) + s0, RK4 propagates
        dm = (A_cl + mix) m + b,
        dO = A_cl O + O A_cl' + mix Y + Y mix' + b m' + m b',
        dS = (the same drift with S for O) + E (a x_i + d x^(N) + s0)(...)',
    a state of 2n^2 + n entries whatever N is.  Each pair is one row of a
    leading batch axis: the law tables are stacked as (stages, K, ...), N
    broadcasts as a (K, 1, 1) array, and one RK4 loop steps every row.
    """
    if spec.infinite_horizon:
        raise SolverError("moment propagation needs a finite horizon")
    for N in Ns:
        if not isinstance(N, numbers.Integral) or N < 1:
            raise ValueError(f"population size must be an integer >= 1, got {N!r}")
    if not (isinstance(step, numbers.Real) and 0.0 < step < np.inf):
        raise ValueError(f"step must be a positive finite number, got {step!r}")
    if not laws:
        return np.zeros(0)
    T = float(spec.horizon)
    steps = max(1, int(round(T / step)))
    h = T / steps
    ts = np.linspace(0.0, T, 2 * steps + 1)   # RK4 stage times
    A_cl, mix, a, d, b, s0, Fs, Fe, u_off = (
        np.stack(tab, axis=1) for tab in zip(*(_law_tables(spec, law, ts) for law in laws)))
    N = np.asarray(Ns, dtype=float)[:, None, None]
    eta = spec.eta(ts)
    I_n = np.eye(spec.n)

    def rates(k, m, S, O):
        Y = S / N + (1.0 - 1.0 / N) * O
        mY, bm = mix[k] @ Y, _outer(b[k], m)
        common = mY + _T(mY) + bm + _T(bm)
        dm = _mv(A_cl[k] + mix[k], m) + b[k]
        dS = A_cl[k] @ S + S @ _T(A_cl[k]) + common + _moment2(a[k], d[k], s0[k], m, S, Y)
        dO = A_cl[k] @ O + O @ _T(A_cl[k]) + common
        cost = (_trace_dot(spec.Q, _moment2(I_n, -spec.Gamma, -eta[k], m, S, Y))
                + _trace_dot(spec.R, _moment2(Fs[k], Fe[k], u_off[k], m, S, Y)))
        return dm, dS, dO, cost

    K = len(Ns)
    m = np.tile(spec.x0_mean, (K, 1))
    O = _outer(m, m)
    S, cost = O + spec.x0_cov, np.zeros(K)
    for j in range(steps):
        k1 = rates(2 * j, m, S, O)
        k2 = rates(2 * j + 1, m + h / 2 * k1[0], S + h / 2 * k1[1], O + h / 2 * k1[2])
        k3 = rates(2 * j + 1, m + h / 2 * k2[0], S + h / 2 * k2[1], O + h / 2 * k2[2])
        k4 = rates(2 * j + 2, m + h * k3[0], S + h * k3[1], O + h * k3[2])
        m, S, O, cost = (x + h / 6 * (r1 + 2 * r2 + 2 * r3 + r4)
                         for x, r1, r2, r3, r4 in zip((m, S, O, cost), k1, k2, k3, k4))
    Y = S / N + (1.0 - 1.0 / N) * O
    return cost + _trace_dot(spec.H, _moment2(I_n, -spec.Gamma0, -spec.eta0, m, S, Y))


def expected_social_cost(spec: ProblemSpec, law, N: int, step: float = 2e-4) -> float:
    """Exact per-agent social cost of the N-population under a law.

    A batch of one of the exchangeable moment closure `_closure_costs`:
    every cost term is the second moment of an affine function of
    (x_i, x^(N)), so the cost has no Monte Carlo error.  Finite horizon
    only; the law may feed back on the live empirical average or on its
    stored mean-field trajectory.  N must be an integer >= 1 and step a
    positive finite number (ValueError otherwise).
    """
    return float(_closure_costs(spec, [law], [N], step)[0])


def gap_curve_exact(spec: ProblemSpec, N_values, step: float = 2e-4,
                    tol: Tolerance = DEFAULT_TOL) -> GapCurve:
    """Gap curve from moment propagation instead of Monte Carlo.

    Same pairing as gap_curve but every cost is an exact expectation, so
    the standard-error fields are identically zero.  All 2 len(N_values)
    costs come from one batched closure pass.  Finite horizon only.
    """
    Ns = list(N_values)
    dec_law = build_law(solve_finite_limit(spec, tol), spec, tol)
    cen_laws = [build_law(solve_finite_N(spec, tol, N=N), spec, tol) for N in Ns]
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
    implement.  Refuses when the integrand has not decayed by the end of
    the available grid (signals must be square-integrable).
    """
    grid = sol.grid
    P, Pi, Ups = sol.P, sol.Pi, sol.Upsilon
    Ui = pinv(Ups, tol)
    sig = spec.sigma(grid)
    f = spec.f(grid)
    eta = spec.eta(grid)
    s = sol.s
    w = s @ spec.B + sig @ (spec.D.T @ P).T   # rows: B's + D'P sigma
    integrand = (
        np.einsum("tn,nm,tm->t", sig, P, sig)
        + 2.0 * np.einsum("tn,tn->t", s, f)
        + np.einsum("tn,nm,tm->t", eta, spec.Q, eta)
        - np.einsum("tr,rs,ts->t", w, Ui, w)
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
    m = quadrature(integrand, grid=grid)
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
