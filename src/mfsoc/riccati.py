"""Riccati-type solvers.

Finite horizon: the coupled backward triple (P, K, s) in its limit form and
its population-N form, plus the deterministic mean-field trajectory they
induce.  Infinite horizon: the two algebraic equations for P and Pi (solved
by backward integration to steady state plus a damped-Newton polish), the
L2 offset s(t), and the mean-field ODE.  All solvers use the pseudoinverse
of Upsilon = R + D'PD so exactly singular control weights are handled, and
every solution carries the range-inclusion report the feedback formulas
require.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    BlowUpError,
    DEFAULT_TOL,
    Tolerance,
    integrate_ode,
    is_hurwitz,
    lift_msq,
    pinv,
    spectral_abscissa,
    symmetrize,
)
from .model import ProblemSpec, DerivedWeights, derive_weights, require_valid


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
    """Constant P, Pi with the offset and mean-field trajectories on [0, T_sim]."""

    P: np.ndarray
    Pi: np.ndarray
    Upsilon: np.ndarray
    grid: np.ndarray
    s: np.ndarray
    xbar: np.ndarray
    residual_P: float
    residual_Pi: float
    closed_loop_abscissa: float

    def s_at(self, t):
        return grid_interp(self.grid, self.s, t)

    def xbar_at(self, t):
        return grid_interp(self.grid, self.xbar, t)


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
# finite horizon
# ---------------------------------------------------------------------------


def _pack(P, K, s):
    return np.concatenate([P.ravel(), K.ravel(), s.ravel()])


def _unpack(y, n):
    P = y[: n * n].reshape(n, n)
    K = y[n * n : 2 * n * n].reshape(n, n)
    s = y[2 * n * n :]
    return P, K, s


def _scalar_fn(sig):
    """Float-valued view of a 1-d signal; constants are hoisted."""
    if sig.kind == "constant":
        v = float(np.atleast_1d(sig.value)[0])
        return lambda t: v
    return lambda t: float(sig(t)[0])


def _finite_rhs(spec: ProblemSpec, dw: DerivedWeights, tol: Tolerance, N: int | None):
    """Backward RHS d/dt [P, K, s] for the limit (N=None) or population-N form."""
    A, B, C, D = spec.A, spec.B, spec.C, spec.D
    G, Q, R = spec.G, spec.Q, spec.R
    n = spec.n
    f_sig, sig_sig, etab_sig = spec.f, spec.sigma, dw.eta_bar
    AT, BT, CT, DT, GT = A.T, B.T, C.T, D.T, G.T
    AG = A + G
    AGT = AG.T
    QG = dw.Q_Gamma

    if n == 1 and spec.r == 1:
        # scalar specialization: plain float arithmetic is ~10x faster and
        # follows the matrix branch line by line
        a, b, c, d = A[0, 0], B[0, 0], C[0, 0], D[0, 0]
        gc, q, rw, qg = G[0, 0], Q[0, 0], R[0, 0], QG[0, 0]
        ag = a + gc
        fv = _scalar_fn(f_sig)
        sv = _scalar_fn(sig_sig)
        ev = _scalar_fn(etab_sig)

        def rhs_scalar(t, y):
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
            ds = -(acl * s + (P + K) * fv(t) + ccl * M * sv(t) - ev(t))
            return np.array([dP, dK, ds])

        return rhs_scalar

    def rhs(t, y):
        P, K, s = _unpack(y, n)
        M = P + K / N if N is not None else P  # weight seen by the diffusion
        MC = M @ C
        Ups = R + DT @ (M @ D)
        Ui = pinv(Ups, tol)
        Psi = BT @ P + DT @ MC
        Theta = Psi + BT @ K
        UiPsi = Ui @ Psi
        UiTheta = Ui @ Theta
        quadP = Psi.T @ UiPsi
        # the three cross/quadratic terms of the coupling equation telescope:
        # Psi'Ui(B'K) + (B'K)'Ui Psi + (B'K)'Ui(B'K) = Theta'Ui Theta - quadP
        dP = -(AT @ P + P @ A + CT @ MC + Q - quadP)
        dK = -(AGT @ K + K @ AG + GT @ P + P @ G
               - Theta.T @ UiTheta + quadP - QG)
        Acl = AG - B @ UiTheta
        Ccl = C - D @ UiTheta
        ds = -(Acl.T @ s + (P + K) @ f_sig(t) + Ccl.T @ (M @ sig_sig(t)) - etab_sig(t))
        return _pack(dP, dK, ds)

    return rhs


def _finite_residual(grid, Ps, Ks, ss, spec, dw, tol, N):
    """Max defining-equation residual at interior knots via 5-point stencils."""
    m = grid.size
    if m < 5:
        return 0.0
    h = grid[1] - grid[0]
    rhs = _finite_rhs(spec, dw, tol, N)
    worst = 0.0
    idx = range(2, m - 2)
    samples = list(idx)[:: max(1, (m - 4) // 200)]  # cap the diagnostic cost
    for k in samples:
        def d5(arr):
            return (-arr[k + 2] + 8 * arr[k + 1] - 8 * arr[k - 1] + arr[k - 2]) / (12 * h)
        dot = _pack(d5(Ps), d5(Ks), d5(ss))
        model = rhs(grid[k], _pack(Ps[k], Ks[k], ss[k]))
        worst = max(worst, float(np.max(np.abs(dot - model))))
    return worst


def _solve_finite(spec: ProblemSpec, tol: Tolerance, N: int | None,
                  require_convex: bool = True) -> RiccatiFiniteSolution:
    """Backward triple; with require_convex False a negative Upsilon
    eigenvalue is only recorded in min_upsilon_eig instead of raising."""
    require_valid(spec)
    if spec.infinite_horizon:
        raise SolverError("finite-horizon solver called on an infinite-horizon problem")
    if N is not None and N < 1:
        raise SolverError("population size must be >= 1")
    dw = derive_weights(spec)
    n = spec.n
    T = spec.horizon
    y_T = _pack(spec.H.copy(), -dw.H_Gamma0, -dw.eta0_bar)

    def project(y):
        P, K, s = _unpack(y, n)
        return _pack(symmetrize(P), symmetrize(K), s)

    rhs = _finite_rhs(spec, dw, tol, N)
    try:
        ts, ys = integrate_ode(rhs, T, 0.0, y_T, tol.ode_step, project=project)
    except BlowUpError as exc:
        raise SolverError(
            f"backward Riccati integration blew up at t={exc.time:.6g} "
            f"(solution escapes before reaching t=0; the horizon exceeds the "
            f"solvable interval)",
            escape_time=exc.time,
        ) from exc
    # reorder ascending in time
    order = np.argsort(ts)
    grid = ts[order]
    Ps = np.empty((grid.size, n, n))
    Ks = np.empty((grid.size, n, n))
    ss = np.empty((grid.size, n))
    for j, k in enumerate(order):
        P, K, s = _unpack(ys[k], n)
        Ps[j], Ks[j], ss[j] = P, K, s
    D, R = spec.D, spec.R
    Ms = Ps + Ks / N if N is not None else Ps
    Ups = R[None, :, :] + np.einsum("kr,tkl,ls->trs", D, Ms, D)
    min_eig = float(min(np.linalg.eigvalsh(U).min() for U in Ups))
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
    return _solve_finite(spec, tol, spec.N if N is None else int(N))


def meanfield_path(spec: ProblemSpec, sol: RiccatiFiniteSolution, tol: Tolerance = DEFAULT_TOL):
    """Deterministic mean-field trajectory induced by a finite-horizon triple.

    Forward ODE for xbar on the solution grid; returns (grid, xbar).
    """
    dw = derive_weights(spec)
    B, C, D = spec.B, spec.C, spec.D

    def rhs(t, x):
        P, K, s, Ups = sol.at(t)
        M = P + K / sol.population if sol.population is not None else P
        Ui = pinv(Ups, tol)
        Theta = B.T @ (P + K) + D.T @ M @ C
        Acl = spec.A + spec.G - B @ Ui @ Theta
        return Acl @ x - B @ Ui @ (B.T @ s + D.T @ M @ spec.sigma(t)) + spec.f(t)

    ts, xs = integrate_ode(rhs, 0.0, spec.horizon, spec.x0_mean, tol.ode_step)
    return ts, xs


# ---------------------------------------------------------------------------
# infinite horizon
# ---------------------------------------------------------------------------


def _sym_basis(n):
    basis = []
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            basis.append(E)
    return basis


def _newton_polish(residual_fn, X0, tol, max_iter=60):
    """Damped Newton on a symmetric matrix residual, FD Jacobian over the
    symmetric basis, least-squares step, backtracking line search."""
    basis = _sym_basis(X0.shape[0])
    X = symmetrize(X0.copy())
    rnorm = np.linalg.norm(residual_fn(X))
    for _ in range(max_iter):
        if rnorm <= 0.1 * tol.residual_tol:
            break
        r0 = residual_fn(X).ravel()
        eps = 1e-7 * (1.0 + np.linalg.norm(X))
        J = np.column_stack(
            [(residual_fn(X + eps * E).ravel() - r0) / eps for E in basis]
        )
        delta = np.linalg.lstsq(J, -r0, rcond=None)[0]
        step = sum(d * E for d, E in zip(delta, basis))
        lam = 1.0
        improved = False
        for _ in range(30):
            Xn = symmetrize(X + lam * step)
            rn = np.linalg.norm(residual_fn(Xn))
            if rn < rnorm:
                X, rnorm = Xn, rn
                improved = True
                break
            lam *= 0.5
        if not improved:
            break
    return X, rnorm


def solve_stochastic_are(A, B, C, D, Q, R, tol: Tolerance = DEFAULT_TOL,
                         fixed_gain=None, max_horizon=200.0, chunk=10.0,
                         seeds=(0.0, 1.0, 5.0), step=None):
    """Stabilizing solution of a state-dependent-noise algebraic Riccati equation.

    Full mode (fixed_gain None): solves
        A'X + XA + C'XC + Q - Psi' Ups^+ Psi = 0,  Psi = B'X + D'XC,
        Ups = R + D'XD.
    Pinned mode (fixed_gain = (Ups, L)): solves, with Ups and the cross term
    L held constant,
        A'X + XA + Q - (B'X + L)' Ups^+ (B'X + L) = 0.
    (Callers fold any constant C'PC contribution into Q.)

    Strategy: integrate the matching differential equation backward from
    scaled-identity terminal seeds until the derivative norm stalls below
    threshold, then polish with damped Newton.  Raises SolverError with the
    per-seed diagnostics if no seed reaches a converged, sign-feasible root.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    step = step or max(tol.ode_step, 1e-3)

    if fixed_gain is None:
        def residual(X):
            Ups = R + D.T @ X @ D
            Psi = B.T @ X + D.T @ X @ C
            return symmetrize(A.T @ X + X @ A + C.T @ X @ C + Q - Psi.T @ pinv(Ups, tol) @ Psi)

        def upsilon(X):
            return R + D.T @ X @ D

        def stabilizing(X):
            # the admissible branch makes the individual loop mean-square stable
            Ui = pinv(upsilon(X), tol)
            Psi = B.T @ X + D.T @ X @ C
            Acl = A - B @ Ui @ Psi
            Ccl = C - D @ Ui @ Psi
            return is_hurwitz(lift_msq(Acl, Ccl), tol)
    else:
        Ups0, L0 = fixed_gain
        Ups0 = np.atleast_2d(np.asarray(Ups0, dtype=float))
        L0 = np.atleast_2d(np.asarray(L0, dtype=float))
        Ui0 = pinv(Ups0, tol)

        def residual(X):
            Psi = B.T @ X + L0
            return symmetrize(A.T @ X + X @ A + Q - Psi.T @ Ui0 @ Psi)

        def upsilon(X):
            return Ups0

        def stabilizing(X):
            # here the admissible branch makes the mean-trajectory loop Hurwitz
            return is_hurwitz(A - B @ Ui0 @ (B.T @ X + L0), tol)

    def rhs(t, y):
        X = y.reshape(n, n)
        return -residual(X).ravel()

    def project(y):
        return symmetrize(y.reshape(n, n)).ravel()

    failures = []
    for scale in seeds:
        X = scale * np.eye(n)
        t_done = 0.0
        converged = False
        prev_norm = np.inf
        try:
            while t_done < max_horizon:
                span = min(chunk, max_horizon - t_done)
                # backward equation integrated in pseudo-time
                _, ys = integrate_ode(rhs, 0.0, -span, X.ravel(), step, project=project)
                X = ys[-1].reshape(n, n)
                t_done += span
                rnow = np.linalg.norm(residual(X))
                if rnow <= 1e-6:
                    converged = True
                    break
                if rnow > 0.5 * prev_norm:
                    # stalled (or orbiting a singular-Upsilon surface): the
                    # Newton polish decides whether this basin is usable
                    break
                prev_norm = rnow
        except BlowUpError as exc:
            failures.append(f"seed {scale}: blow-up after {t_done + abs(exc.time):.3g} pseudo-time units")
            continue
        if not converged:
            X, rnorm = _newton_polish(residual, X, tol)
            if rnorm > tol.residual_tol:
                failures.append(
                    f"seed {scale}: no steady state after {t_done:g} pseudo-time units "
                    f"(|residual| = {rnorm:.3g})"
                )
                continue
            converged = True
        X, rnorm = _newton_polish(residual, X, tol)
        min_eig = float(np.linalg.eigvalsh(upsilon(X)).min())
        if rnorm > tol.residual_tol:
            failures.append(f"seed {scale}: Newton stalled at residual {rnorm:.3g}")
            continue
        if min_eig < -tol.residual_tol:
            failures.append(f"seed {scale}: converged but Upsilon indefinite (min eig {min_eig:.3g})")
            continue
        ok, absc = stabilizing(X)
        if not ok:
            failures.append(
                f"seed {scale}: converged to a non-stabilizing root "
                f"(closed-loop abscissa {absc:.3g})"
            )
            continue
        return symmetrize(X), rnorm
    raise SolverError(
        "algebraic Riccati solve failed for every terminal seed: " + "; ".join(failures)
    )


def _offset_and_mean(spec, dw, P, Pi, Ups, tol, t_sim):
    """Backward offset s(t) and forward mean-field xbar(t) on [0, t_sim]."""
    A, B, C, D, G = spec.A, spec.B, spec.C, spec.D, spec.G
    Ui = pinv(Ups, tol)
    L = D.T @ P @ C
    Theta = B.T @ Pi + L
    Hcl = A + G - B @ Ui @ Theta
    Ccl = C - D @ Ui @ Theta
    ok, absc = is_hurwitz(Hcl, tol)
    if not ok:
        raise SolverError(
            f"offset equation undefined: the mean-field closed-loop matrix has "
            f"spectral abscissa {absc:.3g} >= 0 (check stabilizability of the "
            f"averaged pair and the Hurwitz condition on the aggregate loop)"
        )

    def g(t):
        return Pi @ spec.f(t) + Ccl.T @ P @ spec.sigma(t) - dw.eta_bar(t)

    tail = min(400.0, max(20.0, np.log(1e14) / max(1e-3, -absc)))
    t_far = t_sim + tail
    s_far = -np.linalg.solve(Hcl.T, g(t_far))

    def s_rhs(t, s):
        return -(Hcl.T @ s + g(t))

    ts, ss = integrate_ode(s_rhs, t_far, 0.0, s_far, tol.ode_step)
    order = np.argsort(ts)
    ts, ss = ts[order], ss[order]
    keep = ts <= t_sim + 1e-12
    grid, s_traj = ts[keep], ss[keep]

    def x_rhs(t, x):
        s_t = grid_interp(grid, s_traj, min(t, grid[-1]))
        return Hcl @ x - B @ Ui @ (B.T @ s_t + D.T @ P @ spec.sigma(t)) + spec.f(t)

    tx, xs = integrate_ode(x_rhs, 0.0, t_sim, spec.x0_mean, tol.ode_step)
    # resample s on the xbar grid so both live on one uniform grid
    s_on = grid_interp(grid, s_traj, tx)
    return tx, s_on, xs, absc


def solve_are(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0,
              pin_P=None) -> RiccatiInfiniteSolution:
    """Full infinite-horizon pipeline: P, Pi, offset s, mean-field xbar.

    pin_P, when given, bypasses the P equation and uses the supplied matrix
    (its algebraic residual is still computed and reported); the Pi
    equation, offset, and mean field are solved at that P.
    """
    require_valid(spec)
    if not spec.infinite_horizon:
        raise SolverError("infinite-horizon solver called on a finite-horizon problem")
    dw = derive_weights(spec)
    A, B, C, D, Q, R, G = spec.A, spec.B, spec.C, spec.D, spec.Q, spec.R, spec.G

    def p_residual(X):
        Ups = R + D.T @ X @ D
        Psi = B.T @ X + D.T @ X @ C
        return symmetrize(A.T @ X + X @ A + C.T @ X @ C + Q - Psi.T @ pinv(Ups, tol) @ Psi)

    if pin_P is not None:
        P = symmetrize(np.atleast_2d(np.asarray(pin_P, dtype=float)))
        residual_P = float(np.linalg.norm(p_residual(P)))
    else:
        P, residual_P = solve_stochastic_are(A, B, C, D, Q, R, tol)

    Ups = symmetrize(R + D.T @ P @ D)
    min_eig = float(np.linalg.eigvalsh(Ups).min())
    if min_eig < -tol.residual_tol:
        raise SolverError(f"Upsilon = R + D'PD indefinite (min eig {min_eig:.3g})")

    L = D.T @ P @ C
    S = symmetrize(Q - dw.Q_Gamma + C.T @ P @ C)
    Pi, residual_Pi = solve_stochastic_are(
        A + G, B, C, D, S, R, tol, fixed_gain=(Ups, L)
    )

    grid, s_traj, xbar, absc = _offset_and_mean(spec, dw, P, Pi, Ups, tol, t_sim)
    return RiccatiInfiniteSolution(
        P=P, Pi=Pi, Upsilon=Ups, grid=grid, s=s_traj, xbar=xbar,
        residual_P=residual_P, residual_Pi=residual_Pi, closed_loop_abscissa=absc,
    )


@dataclass
class SteadyNSolution:
    """Steady-state population-N quantities for the centralized benchmark."""

    P: np.ndarray
    K: np.ndarray
    Upsilon: np.ndarray
    grid: np.ndarray
    s: np.ndarray
    N: int
    residual: float


def solve_are_N(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0,
                N: int | None = None) -> SteadyNSolution:
    """Algebraic steady state of the coupled population-N pair plus offset.

    Solves the two coupled quadratic equations jointly (stacked backward
    integration + Newton on the stacked residual), then the linear offset
    equation backward, mirroring solve_are.
    """
    require_valid(spec)
    N = spec.N if N is None else int(N)
    dw = derive_weights(spec)
    A, B, C, D, Q, R, G = spec.A, spec.B, spec.C, spec.D, spec.Q, spec.R, spec.G
    n = spec.n

    def residual_pair(P, K):
        M = P + K / N
        Ups = R + D.T @ M @ D
        Ui = pinv(Ups, tol)
        Psi = B.T @ P + D.T @ M @ C
        rP = symmetrize(A.T @ P + P @ A + C.T @ M @ C + Q - Psi.T @ Ui @ Psi)
        BK = B.T @ K
        rK = symmetrize(
            (A + G).T @ K + K @ (A + G) + G.T @ P + P @ G
            - Psi.T @ Ui @ BK - BK.T @ Ui @ Psi - BK.T @ Ui @ BK - dw.Q_Gamma
        )
        return rP, rK

    def rhs(t, y):
        P = y[: n * n].reshape(n, n)
        K = y[n * n :].reshape(n, n)
        rP, rK = residual_pair(P, K)
        return -np.concatenate([rP.ravel(), rK.ravel()])

    def project(y):
        P = symmetrize(y[: n * n].reshape(n, n))
        K = symmetrize(y[n * n :].reshape(n, n))
        return np.concatenate([P.ravel(), K.ravel()])

    step = max(tol.ode_step, 1e-3)
    basis = _sym_basis(n)
    dirs = [np.concatenate([E.ravel(), np.zeros(n * n)]) for E in basis]
    dirs += [np.concatenate([np.zeros(n * n), E.ravel()]) for E in basis]

    def vec_res(y):
        P = y[: n * n].reshape(n, n)
        K = y[n * n :].reshape(n, n)
        rP, rK = residual_pair(P, K)
        return np.concatenate([rP.ravel(), rK.ravel()])

    def polish(y):
        rnorm = np.linalg.norm(vec_res(y))
        for _ in range(60):
            if rnorm <= 0.1 * tol.residual_tol:
                break
            r0 = vec_res(y)
            eps = 1e-7 * (1.0 + np.linalg.norm(y))
            J = np.column_stack([(vec_res(y + eps * d) - r0) / eps for d in dirs])
            delta = np.linalg.lstsq(J, -r0, rcond=None)[0]
            step_vec = sum(d * v for d, v in zip(delta, dirs))
            lam, improved = 1.0, False
            for _ in range(30):
                yn = project(y + lam * step_vec)
                rn = np.linalg.norm(vec_res(yn))
                if rn < rnorm:
                    y, rnorm, improved = yn, rn, True
                    break
                lam *= 0.5
            if not improved:
                break
        return y, rnorm

    failures = []
    found = None
    for scale in (0.0, 1.0, 5.0):
        y = np.concatenate([(scale * np.eye(n)).ravel(), np.zeros(n * n)])
        t_done = 0.0
        prev_norm = np.inf
        try:
            while t_done < 200.0:
                _, ys = integrate_ode(rhs, 0.0, -10.0, y, step, project=project)
                y = ys[-1]
                t_done += 10.0
                rnow = np.linalg.norm(rhs(0.0, y))
                if rnow <= 1e-6 or rnow > 0.5 * prev_norm:
                    break
                prev_norm = rnow
        except BlowUpError:
            failures.append(f"seed {scale}: blow-up")
            continue
        y, rnorm = polish(y)
        if rnorm > tol.residual_tol:
            failures.append(f"seed {scale}: Newton stalled at residual {rnorm:.3g}")
            continue
        P = y[: n * n].reshape(n, n)
        K = y[n * n :].reshape(n, n)
        M = P + K / N
        Ups = symmetrize(R + D.T @ M @ D)
        min_eig = float(np.linalg.eigvalsh(Ups).min())
        if min_eig < -tol.residual_tol:
            failures.append(
                f"seed {scale}: Upsilon indefinite at steady state (min eig {min_eig:.3g})"
            )
            continue
        Ui = pinv(Ups, tol)
        Theta = B.T @ (P + K) + D.T @ M @ C
        Hcl = A + G - B @ Ui @ Theta
        Ccl = C - D @ Ui @ Theta
        ok, absc = is_hurwitz(Hcl, tol)
        if not ok:
            failures.append(
                f"seed {scale}: aggregate closed loop not Hurwitz (abscissa {absc:.3g})"
            )
            continue
        ok, lifted = is_hurwitz(lift_msq(A - B @ Ui @ (B.T @ P + D.T @ M @ C),
                                         C - D @ Ui @ (B.T @ P + D.T @ M @ C)), tol)
        if not ok:
            failures.append(
                f"seed {scale}: non-stabilizing root (lifted abscissa {lifted:.3g})"
            )
            continue
        found = (P, K, M, Ups, Ui, Hcl, Ccl, absc, rnorm)
        break
    if found is None:
        raise SolverError(
            "population-N steady state not found: " + "; ".join(failures)
        )
    P, K, M, Ups, Ui, Hcl, Ccl, absc, rnorm = found

    def g(t):
        return (P + K) @ spec.f(t) + Ccl.T @ M @ spec.sigma(t) - dw.eta_bar(t)

    tail = min(400.0, max(20.0, np.log(1e14) / max(1e-3, -absc)))
    t_far = t_sim + tail
    s_far = -np.linalg.solve(Hcl.T, g(t_far))
    ts, ss = integrate_ode(lambda t, s: -(Hcl.T @ s + g(t)), t_far, 0.0, s_far, tol.ode_step)
    order = np.argsort(ts)
    ts, ss = ts[order], ss[order]
    keep = ts <= t_sim + 1e-12
    return SteadyNSolution(
        P=P, K=K, Upsilon=Ups, grid=ts[keep], s=ss[keep], N=N, residual=float(rnorm)
    )


# ---------------------------------------------------------------------------
# range conditions
# ---------------------------------------------------------------------------


def _inclusion(Ups, X, tol):
    """Is every column of X in the range of the symmetric matrix Ups?"""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != Ups.shape[0]:
        X = X.reshape(Ups.shape[0], -1)
    proj = (np.eye(Ups.shape[0]) - Ups @ pinv(Ups, tol)) @ X
    res = float(np.linalg.norm(proj))
    return res <= tol.residual_tol * (1.0 + float(np.linalg.norm(X))), res


def check_ranges(sol, spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL) -> RangeReport:
    """Range-inclusion report for a finite or infinite solution.

    Finite horizon: worst knot over the grid for each inclusion.
    Infinite horizon: one check per inclusion.
    """
    B, C, D = spec.B, spec.C, spec.D
    report = RangeReport()
    if isinstance(sol, RiccatiInfiniteSolution):
        Ups = sol.Upsilon
        checks = {
            "feedback_gain": B.T @ sol.P + D.T @ sol.P @ C,
            "meanfield_gain": B.T @ (sol.Pi - sol.P),
            "offset": (B.T @ sol.s.T + (D.T @ sol.P @ spec.sigma(sol.grid).T)),
        }
        for name, X in checks.items():
            report.inclusions[name] = _inclusion(Ups, X, tol)
        return report
    # finite horizon: scan the grid, record the worst residual
    names = ("feedback_gain", "meanfield_gain", "offset")
    worst = {name: (True, 0.0) for name in names}
    stride = max(1, sol.grid.size // 400)
    for k in range(0, sol.grid.size, stride):
        P, K, s, Ups = sol.P[k], sol.K[k], sol.s[k], sol.Upsilon[k]
        M = P + K / sol.population if sol.population is not None else P
        checks = {
            "feedback_gain": B.T @ P + D.T @ M @ C,
            "meanfield_gain": B.T @ K,
            "offset": B.T @ s + D.T @ M @ spec.sigma(sol.grid[k]),
        }
        for name, X in checks.items():
            ok, res = _inclusion(Ups, X, tol)
            pok, pres = worst[name]
            worst[name] = (pok and ok, max(pres, res))
    report.inclusions.update(worst)
    return report
