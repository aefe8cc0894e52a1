"""Control-law assembly, and the N-agent closed loop a law induces.

Turns any Riccati solution (finite or infinite horizon, limit form or
population-N form) into the gain/offset representation
u_i(t) = F_self(t) x_i(t) + F_mf(t) w(t) + g(t), with
F_self = -Ups^+ (B'P + D'MC), F_mf = -Ups^+ B'K and
g = -Ups^+ (B's + D'M sigma), where M = P + K/N (M = P in the limit form).
w is the precomputed mean-field trajectory for a limit-form (decentralized)
law and the live empirical average for a population-N (centralized) law.
`_loop_tables` derives the closed loop's tables once, for both the Monte
Carlo simulator (stacked) and the exact moment closure (`_closed_loop`,
the same tables split by term).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance
from .model import ProblemSpec
from .riccati import (
    RiccatiFiniteSolution,
    SolverError,
    _range_report,
    _solution_pair,
    grid_interp,
    meanfield_path,
)


class RangeConditionError(SolverError):
    """A feedback formula was requested without its range precondition."""


@dataclass
class ControlLaw:
    """Piecewise-linear-in-time feedback law on a uniform grid.

    mf_source is "xbar" (decentralized: F_mf multiplies the stored
    mean-field trajectory, folded into the offset) or "empirical"
    (centralized: F_mf multiplies the live population average).
    """

    grid: np.ndarray
    F_self: np.ndarray     # (m, r, n)
    F_mf: np.ndarray       # (m, r, n)
    g: np.ndarray          # (m, r)
    xbar: np.ndarray       # (m, n); zeros when mf_source == "empirical"
    mf_source: str = "xbar"
    horizon: str = "finite"

    def F_self_at(self, t):
        return grid_interp(self.grid, self.F_self, t)

    def F_mf_at(self, t):
        return grid_interp(self.grid, self.F_mf, t)

    def g_at(self, t):
        return grid_interp(self.grid, self.g, t)

    def xbar_at(self, t):
        return grid_interp(self.grid, self.xbar, t)


class _ClosedLoop(NamedTuple):
    """One agent's closed loop under a law, tabulated at stage times.

    With w the live population average x^(N), agent i has drift
    A x_i + Aw w + b, diffusion C x_i + Cw w + c, control F x_i + Fw w + u
    and cost deviation x_i - Gw w - e.  A term that reads the law's stored
    mean-field path (F_mf w for an "xbar" law; G w and Gamma w under
    coupling="xbar") has a zero w-coefficient and is folded into b, c, u or e.
    """

    A: np.ndarray    # (t, n, n)
    Aw: np.ndarray   # (t, n, n)
    b: np.ndarray    # (t, n)
    C: np.ndarray    # (t, n, n)
    Cw: np.ndarray   # (t, n, n)
    c: np.ndarray    # (t, n)
    F: np.ndarray    # (t, r, n)
    Fw: np.ndarray   # (t, r, n)
    u: np.ndarray    # (t, r)
    Gw: np.ndarray   # (t, n, n)
    e: np.ndarray    # (t, n)


def _loop_tables(spec: ProblemSpec, law: ControlLaw, ts, coupling: str = "empirical"):
    """The closed loop of law at the times ts, coupled to x^(N) or to xbar, as
    (A, C, F, W, o): the w-terms of `_ClosedLoop` stacked row-wise into
    W = [Fw; Aw; Cw; Gw] (t, r + 3n, n) and o = [u; b; c; e] (t, r + 3n),
    so one matvec and one add give all four affine terms at a knot."""
    B, D, xb = spec.B, spec.D, law.xbar_at(ts)
    F, Fm, g = law.F_self_at(ts), law.F_mf_at(ts), law.g_at(ts)
    if law.mf_source == "empirical":
        Fw, u = Fm, g
    else:
        Fw, u = 0.0 * Fm, g + np.einsum("trn,tn->tr", Fm, xb)
    cw, xc = (1.0, 0.0 * xb) if coupling == "empirical" else (0.0, xb)
    Gw = np.broadcast_to(cw * spec.Gamma, (len(ts),) + spec.Gamma.shape)
    W = np.concatenate((Fw, B @ Fw + cw * spec.G, D @ Fw, Gw), axis=1)
    o = np.concatenate((u, u @ B.T + xc @ spec.G.T + spec.f(ts), u @ D.T + spec.sigma(ts),
                        xc @ spec.Gamma.T + spec.eta(ts)), axis=1)
    return spec.A + B @ F, spec.C + D @ F, F, W, o


def _closed_loop(spec: ProblemSpec, law: ControlLaw, ts,
                 coupling: str = "empirical") -> _ClosedLoop:
    """The closed loop of law at the times ts, coupled to x^(N) or to xbar;
    its w-terms are views of `_loop_tables`' stacked W and o."""
    A, C, F, W, o = _loop_tables(spec, law, ts, coupling)
    r, n = spec.r, spec.n
    Fw, Aw, Cw, Gw = np.split(W, [r, r + n, r + 2 * n], axis=1)
    u, b, c, e = np.split(o, [r, r + n, r + 2 * n], axis=1)
    return _ClosedLoop(A=A, Aw=Aw, b=b, C=C, Cw=Cw, c=c, F=F, Fw=Fw, u=u, Gw=Gw, e=e)


def build_law(sol, spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL) -> ControlLaw:
    """Feedback law from a finite or infinite, limit-form or population-N solution.

    A limit-form solution (population None) gives the decentralized law on
    the stored mean field; a population-N solution gives the centralized
    benchmark on the live empirical average.  The pair and the three gain
    numerators are formed once: the range check (``check_ranges``'s, at
    every knot) and the gains read them, and a solution whose range
    conditions fail is refused with RangeConditionError.
    """
    pair, numerators = _solution_pair(sol, spec, tol)
    rep = _range_report(pair, numerators, tol)
    if not rep.all_ok:
        raise RangeConditionError("range conditions fail for: " + ", ".join(rep.failing())
                                  + " (pseudoinverse feedback formula not valid)")
    Psi, BK, w = numerators
    finite = isinstance(sol, RiccatiFiniteSolution)
    m, shape = sol.grid.size, (sol.grid.size, spec.r, spec.n)
    if sol.population is not None:
        xbar, mf_source = np.zeros((m, spec.n)), "empirical"
    elif finite:
        xbar, mf_source = meanfield_path(spec, sol, tol)[1], "xbar"
    else:
        xbar, mf_source = sol.xbar.copy(), "xbar"
    return ControlLaw(
        grid=sol.grid.copy(),
        F_self=np.broadcast_to(-pair.Ui @ Psi, shape).copy(),
        F_mf=np.broadcast_to(-pair.Ui @ BK, shape).copy(),
        g=-(pair.Ui @ w[..., None])[..., 0], xbar=xbar, mf_source=mf_source,
        horizon="finite" if finite else "infinite",
    )
