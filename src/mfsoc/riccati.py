"""Riccati-type solvers for one family: the population-N pair (P, K).

Pi = P + K, and the diffusion sees M = P + K/N; the limit form is N = None,
where M = P.  The pair algebra (Upsilon = R + D'MD, the gain numerators,
the P equation and the aggregate equation for Pi, their Riccati LMI blocks,
the closed loops and the offset forcing) is written once, in ``_Pair``, and
every solver and the stability battery read it.

Finite horizon: the coupled backward triple (P, K, s) in either form, plus
the deterministic mean-field trajectory it induces.  Infinite horizon: the
algebraic pair in either form (each stabilizing root is the maximal point
of its Riccati LMI, found by phase I, the barrier path and a Newton polish;
the limit form solves P, then Pi), the L2 offset s(t), and the mean-field
ODE.  One RK4 loop, ``_triple_rk4``, steps the nonlinear triple at every
n: over three Python floats at n = r = 1, over arrays otherwise; the linear
offset and mean fields (``_Pair.mean_path``) go through
``linalg.affine_rk4``.  Every integration's time dependence (the signals,
the interpolated triple, the offset forcing) is tabulated once on
``linalg.rk4_grid``'s stage grid and read by stage index.  All solvers use
the pseudoinverse of Upsilon so exactly singular control weights are
handled.  The pair algebra broadcasts over knots, so a finite solution's
defining-equation residual and the range inclusions the feedback formulas
require (``check_ranges``, at every knot) are each one batched evaluation.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    BlowUpError,
    DEFAULT_TOL,
    Tolerance,
    affine_rk4,
    is_hurwitz,
    kron,
    lift_msq,
    lmi_phase_one,
    lmi_phase_two,
    pinv,
    rk4_grid,
    sym_basis,
    symmetrize,
)
from .model import (ProblemSpec, DerivedWeights, _check_population, _check_positive, derive_weights,
                    require_valid)


class SolverError(RuntimeError):
    """A Riccati solve failed; the message carries diagnostics.

    certificate, when set, is the dual matrix Z that proves a steady solve's
    Riccati LMI infeasible (see ``_pair_root``).
    """

    def __init__(self, message, escape_time=None, certificate=None):
        super().__init__(message)
        self.escape_time = escape_time
        self.certificate = certificate


@contextmanager
def _escapes(what: str, why: str):
    """Turn a BlowUpError inside into SolverError: what blew up at its time (why)."""
    try:
        yield
    except BlowUpError as exc:
        raise SolverError(f"{what} blew up at t={exc.time:.6g} ({why})",
                          escape_time=exc.time) from exc


def grid_interp(grid, values, t):
    """Linear interpolation of a trajectory sampled on an increasing grid.

    values has shape (m, ...); t may be scalar or 1-d.  Times outside the
    grid are clamped to the endpoints.
    """
    grid = np.asarray(grid, dtype=float)
    values = np.asarray(values, dtype=float)
    t = np.asarray(t, dtype=float)
    scalar = t.ndim == 0
    tt = np.clip(np.atleast_1d(t), grid[0], grid[-1])
    idx = np.clip(np.searchsorted(grid, tt, side="right") - 1, 0, grid.size - 2)
    w = (tt - grid[idx]) / (grid[idx + 1] - grid[idx])
    w = w.reshape((-1,) + (1,) * (values.ndim - 1))
    out = (1.0 - w) * values[idx] + w * values[idx + 1]
    return out[0] if scalar else out


@dataclass
class RiccatiFiniteSolution:
    """Backward triple on a uniform grid over [0, T].

    P, K have shape (m, n, n); s has shape (m, n); Upsilon (m, r, r).
    residual is the max defining-equation residual over every interior knot,
    measured with high-order centered differences of the stored grids.
    """

    grid: np.ndarray
    P: np.ndarray
    K: np.ndarray
    s: np.ndarray
    Upsilon: np.ndarray
    residual: float
    min_upsilon_eig: float
    population: int | None = None  # None for the limit form

    @property
    def Pi(self):
        """P + K on every knot, as an infinite solution stores it."""
        return self.P + self.K

    def at(self, t):
        return (
            grid_interp(self.grid, self.P, t),
            grid_interp(self.grid, self.K, t),
            grid_interp(self.grid, self.s, t),
            grid_interp(self.grid, self.Upsilon, t),
        )


@dataclass
class RiccatiInfiniteSolution:
    """Constant P, Pi with the offset and mean-field trajectories on [0, T_sim].

    population is None for the limit form; for the population-N form Pi is
    P + K and xbar is the expected population average.
    """

    P: np.ndarray
    Pi: np.ndarray
    Upsilon: np.ndarray
    grid: np.ndarray
    s: np.ndarray
    xbar: np.ndarray
    residual_P: float
    residual_Pi: float
    closed_loop_abscissa: float
    population: int | None = None

    @property
    def K(self):
        return self.Pi - self.P


@dataclass
class RangeReport:
    """Range-inclusion checks backing the pseudoinverse feedback formulas."""

    inclusions: dict = field(default_factory=dict)  # name -> (ok, residual)

    @property
    def all_ok(self) -> bool:
        return all(ok for ok, _ in self.inclusions.values())

    def failing(self):
        return [name for name, (ok, _) in self.inclusions.items() if not ok]


# ---------------------------------------------------------------------------
# the pair algebra
# ---------------------------------------------------------------------------


class _Plant(NamedTuple):
    """The matrices the pair equations read; AG = A + G and Q_agg = Q - Q_Gamma
    are the drift and state weight of the aggregate equation."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    AG: np.ndarray
    Q_agg: np.ndarray


def _plant(spec: ProblemSpec, dw=None) -> _Plant:
    dw = dw or derive_weights(spec)
    return _Plant(spec.A, spec.B, spec.C, spec.D, spec.Q, spec.R,
                  spec.A + spec.G, spec.Q - dw.Q_Gamma)


class _Pair:
    """The pair at one point (P, Pi), K = Pi - P.

    M = P + K/N is the weight the diffusion sees (M = P in the limit form,
    N None), Ups = R + D'MD the control weight, Psi = B'P + D'MC and
    Theta = B'Pi + D'MC the numerators of the individual and aggregate
    gains.  P and Pi may carry leading knot axes, and every formula but
    ``lmi_blocks`` and ``jacobian`` (the root finder's, at a single point)
    broadcasts over them: one stacked pseudoinverse, the residuals, the
    loops, the offset terms and the mean map.
    """

    def __init__(self, plant: _Plant, P, Pi, N, tol: Tolerance):
        self.plant, self.P, self.Pi, self.N = plant, P, Pi, N
        self.M = P if N is None else P + (Pi - P) / N
        self.DM = plant.D.T @ self.M
        self.Ups = plant.R + self.DM @ plant.D
        self.Ui = pinv(self.Ups, tol)
        self.DMC = self.DM @ plant.C
        self.CMC = plant.C.T @ self.M @ plant.C
        self.Psi = plant.B.T @ P + self.DMC

    # only the aggregate uses need these, so they are computed on access
    @property
    def K(self):
        return self.Pi - self.P

    @property
    def Theta(self):
        return self.plant.B.T @ self.Pi + self.DMC

    def _linear_P(self):
        """A'P + PA + C'MC + Q, the P equation without its quadratic term."""
        p = self.plant
        return p.A.T @ self.P + self.P @ p.A + self.CMC + p.Q

    def _linear_Pi(self):
        """(A+G)'Pi + Pi(A+G) + C'MC + Q - Q_Gamma, likewise for Pi."""
        p = self.plant
        return p.AG.T @ self.Pi + self.Pi @ p.AG + (p.Q_agg + self.CMC)

    def residual_P(self):
        """A'P + PA + C'MC + Q - Psi' Ups^+ Psi."""
        return self._linear_P() - self.Psi.mT @ self.Ui @ self.Psi

    def residual_Pi(self):
        """The aggregate equation (A+G)'Pi + Pi(A+G) + C'MC + Q - Q_Gamma
        - Theta' Ups^+ Theta: the sum of the P and K equations."""
        return self._linear_Pi() - self.Theta.mT @ self.Ui @ self.Theta

    def lmi_blocks(self):
        """The Riccati LMI blocks of Ait Rami and Zhou (IEEE TAC 45(6), 2000)
        at this point, [[A'P + PA + C'MC + Q, Psi'], [Psi, Ups]] for P and
        [[(A+G)'Pi + Pi(A+G) + C'MC + Q - Q_Gamma, Theta'], [Theta, Ups]] for
        Pi; each residual is the Schur complement of its block's Ups."""
        return (np.block([[self._linear_P(), self.Psi.T], [self.Psi, self.Ups]]),
                np.block([[self._linear_Pi(), self.Theta.T], [self.Theta, self.Ups]]))

    def residuals(self, free_P, free_Pi):
        """The free unknowns' symmetrized residuals as one vector, P's first."""
        parts = ([self.residual_P()] if free_P else []) + ([self.residual_Pi()] if free_Pi else [])
        return np.concatenate([symmetrize(X).ravel() for X in parts])

    def jacobian(self, free_P, free_Pi):
        """Derivative of ``residuals`` along symmetric directions, acting on
        the free unknowns' stacked row-major vecs.  The equation of X in
        {P, Pi}, with closed loop (A_X, C_X), moves by A_X'dX + dX A_X +
        C_X'dM C_X with dM = a dP + b dPi: (a, b) = (1, 0) in the limit form,
        (1 - 1/N, 1/N) at population N (Damm and Hinrichsen, "Newton's
        method for a rational matrix equation occurring in stochastic
        control", LAA 2001)."""
        w = (1.0, 0.0) if self.N is None else (1.0 - 1.0 / self.N, 1.0 / self.N)
        free = [k for k, f in enumerate((free_P, free_Pi)) if f]
        rows = []
        for k in free:
            A, C = self.individual_loop() if k == 0 else self.aggregate_loop
            CC = kron(C.T, C.T)
            rows.append([lift_msq(A.T, C.T) + (w[u] - 1.0) * CC if u == k else w[u] * CC
                         for u in free])
        return np.block(rows)

    def individual_loop(self):
        """A - B Ups^+ Psi and C - D Ups^+ Psi, the loop of one agent's own state."""
        p = self.plant
        return p.A - p.B @ self.Ui @ self.Psi, p.C - p.D @ self.Ui @ self.Psi

    @cached_property
    def aggregate_loop(self):
        """A + G - B Ups^+ Theta and C - D Ups^+ Theta, the loop of the mean."""
        p, Theta = self.plant, self.Theta
        return p.AG - p.B @ self.Ui @ Theta, p.C - p.D @ self.Ui @ Theta

    def offset_numerator(self, s, sig):
        """B's + D'M sigma; s and sigma may carry a leading time axis."""
        return (self.plant.B.T @ s[..., None] + self.DM @ sig[..., None])[..., 0]

    def offset_forcing(self, f, sig, eta_bar):
        """g in the offset equation ds/dt = -(Acl's + g): Pi f + Ccl'M sigma
        - eta_bar; the signals may carry a leading time axis."""
        Ccl = self.aggregate_loop[1]
        g = np.einsum("...ij,...j->...i", self.Pi, f)   # accumulated in place: the tables can be long
        g += np.einsum("...ij,...j->...i", Ccl.mT @ self.M, sig)
        g -= eta_bar
        return g

    def triple_rate(self, s, f, sig, eta_bar):
        """d/dt of the backward triple (P, K, s) at this pair and offset s:
        minus the P equation, the P equation minus the aggregate one (the K
        equation), and -(Acl's + g)."""
        rP = self.residual_P()
        ds = np.einsum("...ji,...j->...i", self.aggregate_loop[0], s)
        ds += self.offset_forcing(f, sig, eta_bar)
        return -rP, rP - self.residual_Pi(), -ds

    def mean_path(self, spec, s, ts, step):
        """Knots and xbar of dxbar/dt = Acl xbar + f - B Ups^+ (B's + D'M sigma)
        from x0_mean on the stage grid ts; s and the pair may be tabulated on it."""
        w = self.offset_numerator(s, spec.sigma(ts))
        c = spec.f(ts) - (self.plant.B @ self.Ui @ w[..., None])[..., 0]
        Acl = np.broadcast_to(self.aggregate_loop[0], c.shape + c.shape[-1:])
        return affine_rk4(lambda j, x: np.einsum("...ij,...j->...i", Acl[j], x) + c[j],
                          ts[0], ts[-1], spec.x0_mean, step)


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------


def _scalar_rate(spec: ProblemSpec, dw: DerivedWeights, N: int | None, times):
    """The backward triple's rate at n = r = 1 in Python floats: rate(j, P,
    K, s) = (dP, dK, ds) at times[j].  It writes out the K equation, which
    ``_pair_rate`` forms as the aggregate equation minus the P equation."""
    a, b, c, d, gc, q, rw, qg = (float(X[0, 0]) for X in (
        spec.A, spec.B, spec.C, spec.D, spec.G, spec.Q, spec.R, dw.Q_Gamma))
    ag = a + gc
    fv, sv, ev = (X[:, 0].tolist() for X in (spec.f(times), spec.sigma(times), dw.eta_bar(times)))

    def rate(j, P, K, s):
        M = P + K / N if N is not None else P
        ups = rw + d * d * M
        ui = 1.0 / ups if ups != 0.0 else 0.0   # Ups^+; a float 1/0 raises
        psi = b * P + d * M * c
        theta = psi + b * K
        quadP = psi * psi * ui
        dP = -(2.0 * a * P + c * c * M + q - quadP)
        dK = -(2.0 * ag * K + 2.0 * gc * P - theta * theta * ui + quadP - qg)
        acl = ag - b * ui * theta
        ccl = c - d * ui * theta
        ds = -(acl * s + (P + K) * fv[j] + ccl * M * sv[j] - ev[j])
        return dP, dK, ds

    return rate


def _pair_rate(spec: ProblemSpec, dw: DerivedWeights, N: int | None, times, tol: Tolerance):
    """The backward triple's rate at any n: rate(j, P, K, s) = (dP, dK, ds)
    at times[j] from ``_Pair.triple_rate``, in the limit (N None) or
    population-N form; f, sigma and eta_bar are tabulated once."""
    F, S, E = spec.f(times), spec.sigma(times), dw.eta_bar(times)
    plant = _plant(spec, dw)
    return lambda j, P, K, s: _Pair(plant, P, P + K, N, tol).triple_rate(s, F[j], S[j], E[j])


def _triple_rk4(rate, ts, P, K, s):
    """Classical RK4 of the triple (P, K, s) on the stage grid ts, in
    ``linalg._rk4_step``'s operation order over each part: Python floats
    (``_scalar_rate``) or arrays (``_pair_rate``).  After every step the
    arrays' P and K are symmetrized (a 1x1 matrix already is), and the sum of
    P's and then K's squared entries must stay within 1e24, else BlowUpError.
    Returns the knots' P, K and s, each stacked along a leading axis."""
    matrix = isinstance(P, np.ndarray)
    steps = ts.size // 2
    h = float(ts[-1] - ts[0]) / max(steps, 1)
    h2, h6 = h / 2, h / 6
    ys = [(P, K, s)]
    for j in range(0, 2 * steps, 2):
        p1, k1, s1 = rate(j, P, K, s)
        p2, k2, s2 = rate(j + 1, P + h2 * p1, K + h2 * k1, s + h2 * s1)
        p3, k3, s3 = rate(j + 1, P + h2 * p2, K + h2 * k2, s + h2 * s2)
        p4, k4, s4 = rate(j + 2, P + h * p3, K + h * k3, s + h * s3)
        P = P + h6 * (p1 + 2 * p2 + 2 * p3 + p4)
        K = K + h6 * (k1 + 2 * k2 + 2 * k3 + k4)
        s = s + h6 * (s1 + 2 * s2 + 2 * s3 + s4)
        if matrix:
            P, K = symmetrize(P), symmetrize(K)
            PK = np.concatenate((P, K), axis=None)
            size = PK @ PK
        else:
            size = P * P + K * K
        if not size <= 1e24:  # also true for NaN and inf
            raise BlowUpError(ts[j + 2])
        ys.append((P, K, s))
    return [np.array(X) for X in zip(*ys)]


# relative residual (each of P, K and s over 1 + its largest entry, so a
# large offset does not mask the pair's) above which a finite-horizon triple
# is refused: healthy solves read at most 3e-4 (1e-10 at the default step),
# and a solve that steps across the escape of its solution 100 or more
_FINITE_RESIDUAL_BOUND = 0.1


def _solve_finite(spec: ProblemSpec, tol: Tolerance, N: int | None,
                  require_convex: bool = True) -> RiccatiFiniteSolution:
    """Backward triple; a triple whose relative residual exceeds
    _FINITE_RESIDUAL_BOUND is no solution and raises SolverError.  Only the
    pair (P, K) can escape: s is affine given it, so a non-finite offset is
    an overflow of the forcing and raises SolverError of its own.  With
    require_convex False none of these nor a negative Upsilon eigenvalue
    raises: they are only recorded in residual and min_upsilon_eig, and
    the latter reads the pair alone."""
    require_valid(spec)
    if spec.infinite_horizon:
        raise SolverError("finite-horizon solver called on an infinite-horizon problem")
    dw = derive_weights(spec)
    n = spec.n
    ts = rk4_grid(spec.horizon, 0.0, tol.ode_step)
    # floats, not 1x1 arrays: sec6_finite's 200 steps take about 1.2 ms
    # against 88 ms through the pair algebra (shared 2-core Xeon)
    floats = n == 1 and spec.r == 1
    rate = _scalar_rate(spec, dw, N, ts) if floats else _pair_rate(spec, dw, N, ts, tol)
    y_T = [X.item() if floats else X for X in (spec.H, -dw.H_Gamma0, -dw.eta0_bar)]
    with (_escapes("backward Riccati integration", "solution escapes before reaching t=0; "
                   "the horizon exceeds the solvable interval"),
          np.errstate(over="ignore", invalid="ignore")):   # s is tested below
        Ps, Ks, ss = _triple_rk4(rate, ts, *y_T)
    # the knots run from T down to 0: reverse them to ascending time
    grid = ts[::-2]
    Ps, Ks, ss = Ps[::-1].reshape(-1, n, n), Ks[::-1].reshape(-1, n, n), ss[::-1].reshape(-1, n)
    bad = np.flatnonzero(~np.isfinite(ss).all(axis=1))
    if require_convex and bad.size:
        raise SolverError(f"the offset s overflows at t={grid[bad[-1]]:.6g} while the pair "
                          f"(P, K) stays finite: the forcing f, sigma or eta grows too fast")
    # the max residual of each of P, K and s over the interior knots: 5-point
    # stencils against the rates of the pair formulas (not ``_scalar_rate``),
    # from one pair batched over every knot, which also gives Upsilon
    pair = _Pair(_plant(spec, dw), Ps, Ps + Ks, N, tol)
    rates = pair.triple_rate(ss, spec.f(grid), spec.sigma(grid), dw.eta_bar(grid))
    k, h = np.arange(2, grid.size - 2), grid[1] - grid[0]
    residuals = [float(np.max(np.abs((-X[k + 2] + 8 * X[k + 1] - 8 * X[k - 1] + X[k - 2])
                                     / (12 * h) - rate[k]))) if k.size else 0.0
                 for X, rate in zip((Ps, Ks, ss), rates)]
    residual = float(np.max(residuals))          # NaN if s is not finite
    relative = max(r / (1.0 + float(np.max(np.abs(X)))) for r, X in zip(residuals, (Ps, Ks, ss)))
    if require_convex and relative > _FINITE_RESIDUAL_BOUND:
        raise SolverError(
            f"the backward triple misses its equation by {residual:.3g} "
            f"(relative {relative:.3g} > {_FINITE_RESIDUAL_BOUND:g}) and is no solution; "
            f"the horizon likely exceeds the solvable interval, or the step is too coarse"
        )
    Ups = pair.Ups
    min_eig = float(np.linalg.eigvalsh(Ups).min())
    if require_convex and min_eig < -tol.residual_tol:
        raise SolverError(
            f"Upsilon has a negative eigenvalue ({min_eig:.3g}) somewhere on the "
            f"grid; the convexity sign condition fails"
        )
    return RiccatiFiniteSolution(
        grid=grid, P=Ps, K=Ks, s=ss, Upsilon=Ups,
        residual=residual, min_upsilon_eig=min_eig, population=N,
    )


def solve_finite_limit(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL) -> RiccatiFiniteSolution:
    """Limit-form backward triple (the gains the decentralized law uses)."""
    return _solve_finite(spec, tol, None)


def solve_finite_N(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, N: int | None = None) -> RiccatiFiniteSolution:
    """Population-N backward triple (the centralized benchmark's gains)."""
    return _solve_finite(spec, tol, _check_population(spec.N if N is None else N))


def meanfield_path(spec: ProblemSpec, sol: RiccatiFiniteSolution, tol: Tolerance = DEFAULT_TOL):
    """Deterministic mean-field trajectory induced by a finite-horizon triple.

    Forward ODE for xbar on the solution grid; the triple is interpolated
    once onto the RK4 stage times.  Returns (grid, xbar).  A blow-up of the
    integration raises SolverError with its time.
    """
    ts = rk4_grid(0.0, spec.horizon, tol.ode_step)
    P, K, s, _ = sol.at(ts)
    with _escapes("mean-field integration", "the forcing f, sigma or eta drives the mean "
                  "out of range before the horizon"):
        return _Pair(_plant(spec), P, P + K, sol.population, tol).mean_path(
            spec, s, ts, tol.ode_step)


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------

_MAXIMAL_GAP = 1e-3   # duality gap at which the barrier path hands over to the polish
_POLISH_STEPS = 50


def _riccati_lmi(plant: _Plant, N, tol: Tolerance, P=None, with_Pi=True):
    """The Riccati LMI (Ait Rami and Zhou, IEEE TAC 45(6), 2000) of the steady
    pair's free unknowns, P (unless given) and Pi (if with_Pi): the block
    diagonal of their ``_Pair.lmi_blocks``, affine as M = P + (Pi - P)/N.
    At population N the stacked N-agent LMI at I (x) P + (11'/N) (x) K is
    orthogonally similar to diag(I_(N-1) (x) L_P, L_Pi), so its maximal
    point maximizes tr P + tr Pi too.  In x, the unknowns' svec coordinates
    (``sym_basis``), it is L0 + sum_k x_k G_k.  Returns (L0, G, c,
    pair, basis): c'x is the unknowns' trace, pair(x) the _Pair at x, and
    basis maps x to the stacked vecs ``_Pair.jacobian`` acts on.
    """
    free_P, n = P is None, plant.A.shape[0]
    k = free_P + with_Pi
    E = sym_basis(n)

    def pair(x):
        Y = np.tensordot(x.reshape(k, -1), E, 1)
        P_ = Y[0] if free_P else P
        return _Pair(plant, P_, Y[-1] if with_Pi else P_, N, tol)

    def lmi(x):
        L = [X for X, f in zip(pair(x).lmi_blocks(), (free_P, with_Pi)) if f]
        return L[0] if k == 1 else np.block([[L[0], 0 * L[1]], [0 * L[0], L[1]]])

    units = np.eye(k * len(E))
    L0 = lmi(np.zeros(len(units)))
    G = np.stack([lmi(e) - L0 for e in units])
    basis = np.kron(np.eye(k), E.reshape(len(E), -1).T)
    return L0, G, np.tile(np.trace(E, axis1=1, axis2=2), k), pair, basis


def _lmi_phase_one(plant: _Plant, tol: Tolerance):
    """``linalg.lmi_phase_one`` on the limit-form P block, L(P) = [[A'P + PA
    + C'PC + Q, Psi'], [Psi, Ups]] >= 0: (P, t, Z, margin), P its last point."""
    L0, G, _, pair, _ = _riccati_lmi(plant, None, tol, with_Pi=False)
    x, t, Z, margin = lmi_phase_one(L0, G, 10.0 * tol.residual_tol)
    return pair(x).P, t, Z, margin


def _pair_root(plant: _Plant, N, tol: Tolerance, P=None, with_Pi=True) -> _Pair:
    """Stabilizing root of the steady pair equations in P (unless given) and
    Pi (if with_Pi): the maximal point of their Riccati LMI, polished.

    Phase I verifies a certificate Z that the LMI is infeasible, which
    SolverError carries, or reaches its interior.  A root with Upsilon >= 0
    and its gains in range makes L the residual F in the top-left blocks
    plus a positive semidefinite matrix, so <Z, L> >= -|F| excludes it (a
    gain outside the range of a singular Ups is ``check_ranges``' to refuse).
    Phase II climbs the barrier path to a duality gap of _MAXIMAL_GAP, or
    stops on a ray: the maximal point is unbounded.  An empty interior (Ups
    = 0 when D = R = 0) leaves phase I at t <= 0 without a certificate, and
    its last point is polished.  Newton steps with ``_Pair.jacobian`` are
    taken while |F| falls.  The root is accepted if |F| <= residual_tol,
    Upsilon >= 0, and a free P (Pi) makes the individual loop mean-square
    stable (the aggregate loop Hurwitz).
    """
    free_P = P is None
    subject, point = {(True, False): ("the P equation has", "P"),
                      (False, True): ("the Pi equation has", "Pi"),
                      (True, True): ("the P and Pi equations have", "(P, Pi)")}[free_P, with_Pi]
    L0, G, c, pair, basis = _riccati_lmi(plant, N, tol, P, with_Pi)
    x, t, Z, margin = lmi_phase_one(L0, G, 10.0 * tol.residual_tol)
    if Z is not None:
        raise SolverError(
            f"{subject} no root with Upsilon >= 0 and the gain in its range: the "
            f"Riccati LMI is infeasible, certified by Z >= 0 with tr Z = 1 and "
            f"<Z, L({point.strip('()')})> = {margin:.3g} for every {point}, so "
            f"|residual| >= {-margin:.3g} at every such {point}", certificate=Z)
    if t > 0.0:
        x, ray = lmi_phase_two(L0, G, c, x, _MAXIMAL_GAP)
        if ray is not None:
            raise SolverError(
                f"{subject} no stabilizing root: the maximal point of the Riccati LMI "
                f"is unbounded (the barrier path found a ray along which the LMI "
                f"grows and the trace of {point} rises without bound)")
    p = pair(x)
    F = p.residuals(free_P, with_Pi)
    r = np.linalg.norm(F)
    for _ in range(_POLISH_STEPS):
        xn = x + np.linalg.lstsq(p.jacobian(free_P, with_Pi) @ basis, -F, rcond=None)[0]
        pn = pair(xn)
        Fn = pn.residuals(free_P, with_Pi)
        rn = np.linalg.norm(Fn)
        if not rn < r:
            break
        x, p, F, r = xn, pn, Fn, rn

    why = None
    if r > tol.residual_tol:
        why = f"the Newton polish stops at |residual| = {r:.3g}"
    elif (min_eig := float(np.linalg.eigvalsh(p.Ups).min())) < -tol.residual_tol:
        why = f"Upsilon is indefinite there (min eig {min_eig:.3g})"
    elif free_P and not (hur := is_hurwitz(lift_msq(*p.individual_loop()), tol))[0]:
        why = f"it is a non-stabilizing root (lifted abscissa {hur[1]:.3g})"
    elif with_Pi and not (hur := is_hurwitz(p.aggregate_loop[0], tol))[0]:
        why = f"its aggregate closed loop is not Hurwitz (abscissa {hur[1]:.3g})"
    if why is not None:
        raise SolverError(f"{subject} no stabilizing root: the maximal point of the "
                          f"Riccati LMI is no acceptable root, since {why}")
    return p


def _stochastic_are_root(A, B, C, D, Q, R, tol: Tolerance) -> _Pair:
    """The pair at the stabilizing root of ``solve_stochastic_are``'s equation."""
    A, B, C, D, Q, R = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (A, B, C, D, Q, R))
    # no Pi equation here, so its drift and weight slots are placeholders
    return _pair_root(_Plant(A, B, C, D, Q, R, A, Q), None, tol, with_Pi=False)


def solve_stochastic_are(A, B, C, D, Q, R, tol: Tolerance = DEFAULT_TOL):
    """Stabilizing solution of a state-dependent-noise algebraic Riccati equation

        A'X + XA + C'XC + Q - Psi' Ups^+ Psi = 0,  Psi = B'X + D'XC,
        Ups = R + D'XD,

    with Ups >= 0 and a mean-square stable closed loop: the maximal point of
    its Riccati LMI, polished by Newton (``_pair_root``).  Returns (X,
    |residual|); raises SolverError with the reason when there is none: an
    infeasibility certificate, an unbounded maximal point, or a maximal
    point that is no acceptable root.
    """
    pair = _stochastic_are_root(A, B, C, D, Q, R, tol)
    return pair.P, np.linalg.norm(symmetrize(pair.residual_P()))


def _offset_and_mean(spec, dw, pair: _Pair, tol, t_sim):
    """Backward offset s(t) and forward mean xbar(t) on [0, t_sim]; a blow-up
    of either integration raises SolverError with its time."""
    Hcl = pair.aggregate_loop[0]
    ok, absc = is_hurwitz(Hcl, tol)
    if not ok:
        raise SolverError(
            f"offset equation undefined: the mean-field closed-loop matrix has "
            f"spectral abscissa {absc:.3g} >= 0 (check stabilizability of the "
            f"averaged pair and the Hurwitz condition on the aggregate loop)"
        )

    tail = min(400.0, max(20.0, np.log(1e14) / max(1e-3, -absc)))
    t_far = t_sim + tail
    tb = rk4_grid(t_far, 0.0, tol.ode_step)
    g = pair.offset_forcing(spec.f(tb), spec.sigma(tb), dw.eta_bar(tb))
    del tb
    s_far = -np.linalg.solve(Hcl.T, g[0])
    np.negative(g, out=g)   # ds/dt = -Hcl's - g
    with _escapes("offset/mean-field integration", "the forcing f, sigma or eta grows along "
                  "the tail, so the offset has no bounded solution"):
        ts, ss = affine_rk4(lambda j, y: np.einsum("ji,...j->...i", -Hcl, y) + g[j],
                            t_far, 0.0, s_far, tol.ode_step)
        del g
        ts, ss = ts[::-1], ss[::-1]   # ascending in time
        keep = ts <= t_sim + 1e-12
        grid, s_traj = ts[keep], ss[keep]

        tf = rk4_grid(0.0, t_sim, tol.ode_step)
        tx, xs = pair.mean_path(spec, grid_interp(grid, s_traj, tf), tf, tol.ode_step)
    # resample s on the xbar grid so both live on one uniform grid
    s_on = grid_interp(grid, s_traj, tx)
    return tx, s_on, xs, absc


def _solve_steady(spec: ProblemSpec, tol: Tolerance, t_sim: float, N: int | None,
                  pin_P=None) -> RiccatiInfiniteSolution:
    """Steady pair with its offset and mean field, limit form for N None.

    The limit form's P equation does not involve Pi, so P is solved (or
    pinned) first and Pi second; the population form solves (P, Pi) jointly.
    A pinned P's own residual is still computed and reported.
    """
    require_valid(spec)
    if not spec.infinite_horizon:
        raise SolverError("infinite-horizon solver called on a finite-horizon problem")
    _check_positive(t_sim, "t_sim")
    dw = derive_weights(spec)
    plant = _plant(spec, dw)
    P = None if pin_P is None else np.atleast_2d(np.asarray(pin_P, dtype=float))
    if P is not None:
        finite = np.isfinite(P).all()
        if P.shape != (spec.n, spec.n) or not finite:
            raise ValueError(f"pin_P must be a finite {spec.n} x {spec.n} matrix, got shape "
                             f"{P.shape}" + ("" if finite else " with non-finite entries"))
        P = symmetrize(P)
    if P is None and N is None:
        P = _pair_root(plant, None, tol, with_Pi=False).P
    pair = _pair_root(plant, N, tol, P=P)
    grid, s, xbar, absc = _offset_and_mean(spec, dw, pair, tol, t_sim)
    return RiccatiInfiniteSolution(
        P=pair.P, Pi=pair.Pi, Upsilon=symmetrize(pair.Ups), grid=grid, s=s, xbar=xbar,
        residual_P=np.linalg.norm(symmetrize(pair.residual_P())),
        residual_Pi=np.linalg.norm(symmetrize(pair.residual_Pi())),
        closed_loop_abscissa=absc, population=N,
    )


def solve_are(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0,
              pin_P=None) -> RiccatiInfiniteSolution:
    """Limit-form infinite-horizon pipeline: P, Pi, offset s, mean-field xbar.

    pin_P, when given, bypasses the P equation and uses the supplied matrix
    (its algebraic residual is still computed and reported); the Pi
    equation, offset, and mean field are solved at that P.  A pin that is
    not a finite n x n matrix raises ValueError.
    """
    return _solve_steady(spec, tol, t_sim, None, pin_P)


def solve_are_N(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0,
                N: int | None = None) -> RiccatiInfiniteSolution:
    """Population-N steady pair (the centralized benchmark's gains)."""
    return _solve_steady(spec, tol, t_sim, _check_population(spec.N if N is None else N))


# ---------------------------------------------------------------------------
# range conditions
# ---------------------------------------------------------------------------


def _solution_pair(sol, spec: ProblemSpec, tol: Tolerance):
    """Pair algebra of a solution, with a knot axis for a finite one, and the
    numerators of its three gains: Psi, B'K and, on the solution grid, the
    offset's B's + D'M sigma."""
    pair = _Pair(_plant(spec), sol.P, sol.Pi, sol.population, tol)
    return pair, (pair.Psi, spec.B.T @ pair.K, pair.offset_numerator(sol.s, spec.sigma(sol.grid)))


def _range_report(pair: _Pair, numerators, tol: Tolerance) -> RangeReport:
    """Each numerator's residual |(I - Ups Ups^+) X| at every knot, which
    passes below residual_tol (1 + |X|); an offset without a knot axis in
    the pair is checked over its whole grid as one (r, m) matrix."""
    Psi, BK, w = numerators
    r = pair.Ups.shape[-1]
    offsets = w.reshape(pair.Ups.shape[:-2] + (-1, r)).mT
    proj = np.eye(r) - pair.Ups @ pair.Ui
    report = RangeReport()
    for name, X in (("feedback_gain", Psi), ("meanfield_gain", BK), ("offset", offsets)):
        res = np.linalg.norm(proj @ X, axis=(-2, -1))
        ok = np.all(res <= tol.residual_tol * (1.0 + np.linalg.norm(X, axis=(-2, -1))))
        report.inclusions[name] = (bool(ok), float(np.max(res)))
    return report


def check_ranges(sol, spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL) -> RangeReport:
    """Range-inclusion report for any Riccati solution.

    The feedback gain B'P + D'MC, the mean-field gain B'K and the offset
    B's + D'M sigma must lie in the range of Upsilon.  Infinite horizon:
    the constant gains once and the offset over the whole grid as one
    matrix.  Finite horizon: every knot, reporting the worst residual.
    """
    pair, numerators = _solution_pair(sol, spec, tol)
    return _range_report(pair, numerators, tol)
