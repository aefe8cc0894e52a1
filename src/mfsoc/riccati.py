"""Riccati-type solvers for one family: the population-N pair (P, K).

Pi = P + K, and the diffusion sees M = P + K/N; the limit form is N = None,
where M = P.  The pair algebra (Upsilon = R + D'MD, the gain numerators,
the P equation and the aggregate equation for Pi, the closed loops and the
offset forcing) is written once, in ``_Pair``, and every solver reads it.

Finite horizon: the coupled backward triple (P, K, s) in either form, plus
the deterministic mean-field trajectory it induces.  Infinite horizon: the
algebraic pair in either form (pseudo-transient continuation from
scaled-identity seeds: implicit-Euler steps of the pseudo-time flow with
the analytic Jacobian, the lifted closed-loop operator, that become Newton
steps as the residual falls; the limit form solves P, then Pi), the L2
offset s(t), and the mean-field ODE; these last two are linear with the
constant aggregate loop, so ``linalg.affine_rk4`` steps them by a doubling
scan.  The time dependence of every integration (the signals, the
interpolated triple, the offset forcing) is tabulated once on the RK4
stage grid of ``linalg.rk4_grid``, and the rates read those tables by
stage index.  All solvers use the pseudoinverse of Upsilon so exactly
singular control weights are handled, and every solution carries the
range-inclusion report the feedback formulas require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    BlowUpError,
    DEFAULT_TOL,
    Tolerance,
    affine_rk4,
    integrate_ode,
    is_hurwitz,
    kron,
    lift_msq,
    pinv,
    rk4_grid,
    symmetrize,
)
from .model import ProblemSpec, DerivedWeights, _check_population, derive_weights, require_valid


class SolverError(RuntimeError):
    """A Riccati solve failed; the message carries diagnostics."""

    def __init__(self, message, escape_time=None):
        super().__init__(message)
        self.escape_time = escape_time


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
    residual is the max defining-equation residual over interior knots,
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
    gains.  P and Pi may carry a leading knot axis for the gain formulas,
    the aggregate loop and the mean map; the residuals and the individual
    loop are for a single point.
    """

    def __init__(self, plant: _Plant, P, Pi, N, tol: Tolerance):
        self.plant, self.P, self.Pi, self.N = plant, P, Pi, N
        self.M = P if N is None else P + (Pi - P) / N
        self.DM = plant.D.T @ self.M
        self.Ups = plant.R + self.DM @ plant.D
        self.Ui = (pinv(self.Ups, tol) if self.Ups.ndim == 2
                   else np.stack([pinv(U, tol) for U in self.Ups]))
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

    def residual_P(self):
        """A'P + PA + C'MC + Q - Psi' Ups^+ Psi."""
        p = self.plant
        return (p.A.T @ self.P + self.P @ p.A + self.CMC + p.Q
                - self.Psi.T @ self.Ui @ self.Psi)

    def residual_Pi(self):
        """The aggregate equation (A+G)'Pi + Pi(A+G) + C'MC + Q - Q_Gamma
        - Theta' Ups^+ Theta: the sum of the P and K equations."""
        p = self.plant
        return (p.AG.T @ self.Pi + self.Pi @ p.AG + (p.Q_agg + self.CMC)
                - self.Theta.T @ self.Ui @ self.Theta)

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
        - eta_bar at a single point; the signals may carry a leading time axis."""
        Ccl = self.aggregate_loop[1]
        g = f @ self.Pi.T      # accumulated in place: the tables can be long
        g += sig @ (Ccl.T @ self.M).T
        g -= eta_bar
        return g

    def mean_map(self, s, f, sig):
        """(Acl, c) of the mean equation dxbar/dt = Acl xbar + c, with
        c = f - B Ups^+ (B's + D'M sigma); all may carry a leading time axis."""
        c = f - (self.plant.B @ self.Ui @ self.offset_numerator(s, sig)[..., None])[..., 0]
        return self.aggregate_loop[0], c


# ---------------------------------------------------------------------------
# finite horizon
# ---------------------------------------------------------------------------


def _pack(P, K, s):
    return np.concatenate([P.ravel(), K.ravel(), s.ravel()])


def _unpack(y, n):
    """P, K, s of a packed state; y may carry leading axes."""
    lead = y.shape[:-1]
    P = y[..., : n * n].reshape(lead + (n, n))
    K = y[..., n * n : 2 * n * n].reshape(lead + (n, n))
    s = y[..., 2 * n * n :]
    return P, K, s


def _finite_rhs(spec: ProblemSpec, dw: DerivedWeights, tol: Tolerance, N: int | None,
                times):
    """Backward rate(j, y) = d/dt [P, K, s] at times[j], for the limit
    (N=None) or population-N form; f, sigma and eta_bar are tabulated once."""
    F, S, E = spec.f(times), spec.sigma(times), dw.eta_bar(times)
    n = spec.n

    if n == 1 and spec.r == 1:
        # scalar specialization: plain float arithmetic is ~10x faster; it
        # writes out the K equation, which the matrix branch forms as the
        # aggregate equation minus the P equation
        a, b, c, d = spec.A[0, 0], spec.B[0, 0], spec.C[0, 0], spec.D[0, 0]
        gc, q, rw, qg = spec.G[0, 0], spec.Q[0, 0], spec.R[0, 0], dw.Q_Gamma[0, 0]
        ag = a + gc
        fv, sv, ev = F[:, 0].tolist(), S[:, 0].tolist(), E[:, 0].tolist()

        def rate_scalar(j, y):
            P, K, s = y[0], y[1], y[2]
            M = P + K / N if N is not None else P
            ups = rw + d * d * M
            ui = 1.0 / ups if ups != 0.0 else 0.0
            psi = b * P + d * M * c
            theta = psi + b * K
            quadP = psi * psi * ui
            dP = -(2.0 * a * P + c * c * M + q - quadP)
            dK = -(2.0 * ag * K + 2.0 * gc * P - theta * theta * ui + quadP - qg)
            acl = ag - b * ui * theta
            ccl = c - d * ui * theta
            ds = -(acl * s + (P + K) * fv[j] + ccl * M * sv[j] - ev[j])
            return np.array([dP, dK, ds])

        return rate_scalar

    plant = _plant(spec, dw)

    def rate(j, y):
        P, K, s = _unpack(y, n)
        pair = _Pair(plant, P, P + K, N, tol)
        rP = pair.residual_P()
        Acl = pair.aggregate_loop[0]
        ds = -(Acl.T @ s + pair.offset_forcing(F[j], S[j], E[j]))
        # the K equation is the aggregate equation minus the P equation
        return _pack(-rP, rP - pair.residual_Pi(), ds)

    return rate


def _finite_residual(grid, Ps, Ks, ss, spec, dw, tol, N):
    """Max defining-equation residual at interior knots via 5-point stencils."""
    m = grid.size
    if m < 5:
        return 0.0
    h = grid[1] - grid[0]
    samples = list(range(2, m - 2))[:: max(1, (m - 4) // 200)]  # cap the diagnostic cost
    rate = _finite_rhs(spec, dw, tol, N, grid[samples])
    worst = 0.0
    for i, k in enumerate(samples):
        def d5(arr):
            return (-arr[k + 2] + 8 * arr[k + 1] - 8 * arr[k - 1] + arr[k - 2]) / (12 * h)
        dot = _pack(d5(Ps), d5(Ks), d5(ss))
        model = rate(i, _pack(Ps[k], Ks[k], ss[k]))
        worst = max(worst, float(np.max(np.abs(dot - model))))
    return worst


def _solve_finite(spec: ProblemSpec, tol: Tolerance, N: int | None,
                  require_convex: bool = True) -> RiccatiFiniteSolution:
    """Backward triple; with require_convex False a negative Upsilon
    eigenvalue is only recorded in min_upsilon_eig instead of raising."""
    require_valid(spec)
    if spec.infinite_horizon:
        raise SolverError("finite-horizon solver called on an infinite-horizon problem")
    dw = derive_weights(spec)
    n = spec.n
    T = spec.horizon
    y_T = _pack(spec.H.copy(), -dw.H_Gamma0, -dw.eta0_bar)

    def project(y):
        P, K, s = _unpack(y, n)
        return _pack(symmetrize(P), symmetrize(K), s)

    rate = _finite_rhs(spec, dw, tol, N, rk4_grid(T, 0.0, tol.ode_step))
    try:
        ts, ys = integrate_ode(rate, T, 0.0, y_T, tol.ode_step, project=project)
    except BlowUpError as exc:
        raise SolverError(
            f"backward Riccati integration blew up at t={exc.time:.6g} "
            f"(solution escapes before reaching t=0; the horizon exceeds the "
            f"solvable interval)",
            escape_time=exc.time,
        ) from exc
    # the knots run from T down to 0: reverse them to ascending time
    grid = ts[::-1]
    Ps, Ks, ss = _unpack(ys[::-1], n)
    Ups = _Pair(_plant(spec, dw), Ps, Ps + Ks, N, tol).Ups
    min_eig = float(np.linalg.eigvalsh(Ups).min())
    if require_convex and min_eig < -tol.residual_tol:
        raise SolverError(
            f"Upsilon has a negative eigenvalue ({min_eig:.3g}) somewhere on the "
            f"grid; the convexity sign condition fails"
        )
    residual = _finite_residual(grid, Ps, Ks, ss, spec, dw, tol, N)
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
    once onto the RK4 stage times.  Returns (grid, xbar).
    """
    ts = rk4_grid(0.0, spec.horizon, tol.ode_step)
    P, K, s, _ = sol.at(ts)
    Acl, c = _Pair(_plant(spec), P, P + K, sol.population, tol).mean_map(
        s, spec.f(ts), spec.sigma(ts))
    return integrate_ode(lambda j, x: Acl[j] @ x + c[j], 0.0, spec.horizon,
                         spec.x0_mean, tol.ode_step)


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------

_SEEDS = (0.0, 1.0, 5.0)   # every unknown block starts at c I


def _pair_root(plant: _Plant, N, tol: Tolerance, P=None, with_Pi=True) -> _Pair:
    """Stabilizing root of the steady pair equations.

    The unknowns are P (unless given) and Pi (if with_Pi).  From each seed
    c I, pseudo-transient continuation (Kelley and Keyes, SIAM J. Numer.
    Anal. 1998) takes implicit-Euler steps of the flow dY/dtau = F(Y), F
    the residuals: (I/delta - J) dY = F(Y), with J the analytic
    ``_Pair.jacobian``.  A step is accepted if the new |F| is below twice
    the current one, and delta then grows by the factor |F| fell (from
    0.05, up to 1e15), so the steps turn into Newton steps near a root.  A
    rejected step is retried with delta / 4, and the seed gives up once
    delta < 1e-12.  Delta never shrinks on an accepted step: at large delta
    backward Euler also attracts to non-stabilizing roots.  A seed stops
    once |F| <= residual_tol and a step no longer lowers it, or after 2000
    steps.  An acceptable root has Upsilon >= 0, and a free P (Pi) makes
    the individual loop mean-square stable (the aggregate loop Hurwitz).
    SolverError carries every seed's diagnostic; a seed without a root
    reports the smallest |F| among the points it accepted, its seed
    included, since the last one can lie far above it.
    """
    free_P = P is None
    n = plant.A.shape[0]
    shape = (free_P + with_Pi, n, n)
    eye = np.eye(shape[0] * n * n)

    def pair(y):
        Y = y.reshape(shape)
        P_ = Y[0] if free_P else P
        return _Pair(plant, P_, Y[-1] if with_Pi else P_, N, tol)

    def project(y):
        Y = y.reshape(shape)
        return (0.5 * (Y + Y.transpose(0, 2, 1))).ravel()

    def rejection(p, rnorm, done, best):
        if rnorm > tol.residual_tol:
            return (f"no steady state after {done:g} pseudo-time units "
                    f"(smallest |residual| = {best:.3g})")
        min_eig = float(np.linalg.eigvalsh(p.Ups).min())
        if min_eig < -tol.residual_tol:
            return f"converged but Upsilon indefinite (min eig {min_eig:.3g})"
        if free_P:
            ok, absc = is_hurwitz(lift_msq(*p.individual_loop()), tol)
            if not ok:
                return f"converged to a non-stabilizing root (lifted abscissa {absc:.3g})"
        if with_Pi:
            ok, absc = is_hurwitz(p.aggregate_loop[0], tol)
            if not ok:
                return f"aggregate closed loop not Hurwitz (abscissa {absc:.3g})"
        return None

    failures = []
    for c in _SEEDS:
        y = np.tile(c * np.eye(n), (shape[0], 1, 1)).ravel()
        p = pair(y)
        F = p.residuals(free_P, with_Pi)
        r, delta, done = np.linalg.norm(F), 0.05, 0.0
        best = r
        for _ in range(2000):
            dy = np.linalg.lstsq(eye / delta - p.jacobian(free_P, with_Pi), F, rcond=None)[0]
            yn = project(y + dy)
            pn = pair(yn)
            Fn = pn.residuals(free_P, with_Pi)
            rn = np.linalg.norm(Fn)
            if r <= tol.residual_tol and not rn < r:
                break
            if rn < 2.0 * r:
                done += delta
                delta = min(delta * max(1.0, r / rn), 1e15) if rn > 0 else 1e15
                y, p, F, r = yn, pn, Fn, rn
                best = min(best, r)
            else:
                delta /= 4.0
                if delta < 1e-12:
                    break
        why = rejection(p, r, done, best)
        if why is None:
            return p
        failures.append(f"seed {c}: {why}")
    raise SolverError(
        "algebraic Riccati solve failed for every terminal seed: " + "; ".join(failures)
    )


def solve_stochastic_are(A, B, C, D, Q, R, tol: Tolerance = DEFAULT_TOL):
    """Stabilizing solution of a state-dependent-noise algebraic Riccati equation

        A'X + XA + C'XC + Q - Psi' Ups^+ Psi = 0,  Psi = B'X + D'XC,
        Ups = R + D'XD,

    with Ups >= 0 and a mean-square stable closed loop.  Returns (X, |residual|);
    raises SolverError with the per-seed diagnostics if no seed reaches one.
    """
    A, B, C, D, Q, R = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (A, B, C, D, Q, R))
    # no Pi equation here, so its drift and weight slots are placeholders
    pair = _pair_root(_Plant(A, B, C, D, Q, R, A, Q), None, tol, with_Pi=False)
    return pair.P, np.linalg.norm(symmetrize(pair.residual_P()))


def _offset_and_mean(spec, dw, pair: _Pair, tol, t_sim):
    """Backward offset s(t) and forward mean xbar(t) on [0, t_sim]."""
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
    ts, ss = affine_rk4(-Hcl.T, g, t_far, 0.0, s_far, tol.ode_step)
    del g
    ts, ss = ts[::-1], ss[::-1]   # ascending in time
    keep = ts <= t_sim + 1e-12
    grid, s_traj = ts[keep], ss[keep]

    tf = rk4_grid(0.0, t_sim, tol.ode_step)
    Acl, c = pair.mean_map(grid_interp(grid, s_traj, tf), spec.f(tf), spec.sigma(tf))
    tx, xs = affine_rk4(Acl, c, 0.0, t_sim, spec.x0_mean, tol.ode_step)
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
    dw = derive_weights(spec)
    plant = _plant(spec, dw)
    P = None
    if pin_P is not None:
        P = symmetrize(np.atleast_2d(np.asarray(pin_P, dtype=float)))
    elif N is None:
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
    equation, offset, and mean field are solved at that P.
    """
    return _solve_steady(spec, tol, t_sim, None, pin_P)


def solve_are_N(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0,
                N: int | None = None) -> RiccatiInfiniteSolution:
    """Population-N steady pair (the centralized benchmark's gains)."""
    return _solve_steady(spec, tol, t_sim, _check_population(spec.N if N is None else N))


# ---------------------------------------------------------------------------
# range conditions
# ---------------------------------------------------------------------------


def _solution_pair(sol, spec: ProblemSpec, tol: Tolerance, stride: int = 1) -> _Pair:
    """Pair algebra of a solution: once for an infinite one, at every
    stride-th knot of a finite one."""
    if isinstance(sol, RiccatiInfiniteSolution):
        return _Pair(_plant(spec), sol.P, sol.Pi, sol.population, tol)
    P = sol.P[::stride]
    return _Pair(_plant(spec), P, P + sol.K[::stride], sol.population, tol)


def _inclusion(Ups, Ui, X, tol):
    """Is every column of X in the range of the symmetric matrix Ups?"""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != Ups.shape[0]:
        X = X.reshape(Ups.shape[0], -1)
    proj = (np.eye(Ups.shape[0]) - Ups @ Ui) @ X
    res = float(np.linalg.norm(proj))
    return res <= tol.residual_tol * (1.0 + float(np.linalg.norm(X))), res


def check_ranges(sol, spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL) -> RangeReport:
    """Range-inclusion report for any Riccati solution.

    The feedback gain B'P + D'MC, the mean-field gain B'K and the offset
    B's + D'M sigma must lie in the range of Upsilon.  Infinite horizon:
    the constant gains once and the offset over the whole grid as one
    matrix.  Finite horizon: the worst of about 400 evenly spaced knots.
    """
    B = spec.B
    if isinstance(sol, RiccatiInfiniteSolution):
        pair = _solution_pair(sol, spec, tol)
        offsets = pair.offset_numerator(sol.s, spec.sigma(sol.grid))
        points = [(pair.Ups, pair.Ui, pair.Psi, B.T @ pair.K, offsets.T)]
    else:
        stride = max(1, sol.grid.size // 400)
        pair = _solution_pair(sol, spec, tol, stride)
        offsets = pair.offset_numerator(sol.s[::stride], spec.sigma(sol.grid[::stride]))
        points = zip(pair.Ups, pair.Ui, pair.Psi, B.T @ pair.K, offsets)
    report = RangeReport()
    for Ups, Ui, *numerators in points:
        for name, X in zip(("feedback_gain", "meanfield_gain", "offset"), numerators):
            ok, res = _inclusion(Ups, Ui, X, tol)
            prev_ok, prev_res = report.inclusions.get(name, (True, 0.0))
            report.inclusions[name] = (prev_ok and ok, max(prev_res, res))
    return report
