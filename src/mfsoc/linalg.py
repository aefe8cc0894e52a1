"""Dense linear-algebra kernel shared by every other module.

Pseudoinverse with an explicit rank cutoff, the second-moment (Kronecker)
lift used for mean-square stability tests, Hurwitz tests, a fixed-step RK4
integrator whose rate reads its time dependence by stage index from tables
on ``rk4_grid``, the same RK4 for a linear ODE with a constant matrix as an
affine step map evaluated by a doubling scan (``affine_rk4``), a
matrix-vector product over a long axis by broadcast multiply-adds
(``matvec``), and trapezoidal quadrature.  All functions are pure and
deterministic; everything operates on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class LinalgError(ValueError):
    """Invalid input to a kernel routine (non-finite entries, bad shapes)."""


class BlowUpError(RuntimeError):
    """Integration produced a non-finite or exploding state.

    Attributes
    ----------
    time : float
        Time at which the state first left the finite range.
    """

    def __init__(self, time: float, message: str | None = None):
        self.time = float(time)
        super().__init__(message or f"state blew up at t={time:.6g}")


@dataclass(frozen=True)
class Tolerance:
    """Numerical knobs used throughout the library.

    rank_cutoff  : relative singular-value threshold for pseudoinverses
    residual_tol : absolute residual bound for equation/range checks
    ode_step     : fixed RK4 step size
    """

    rank_cutoff: float = 1e-10
    residual_tol: float = 1e-8
    ode_step: float = 1e-3

    def __post_init__(self):
        if not (0 < self.rank_cutoff < 1):
            raise LinalgError("rank_cutoff must lie in (0, 1)")
        if not (0 < self.residual_tol < np.inf and 0 < self.ode_step < np.inf):
            raise LinalgError(f"residual_tol and ode_step must be positive finite numbers, "
                              f"got {self.residual_tol!r} and {self.ode_step!r}")


DEFAULT_TOL = Tolerance()


def _as_matrix(M) -> np.ndarray:
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return M


def pinv(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative rank cutoff.

    Singular values below ``rank_cutoff * sigma_max`` are treated as zero,
    so exactly singular (and nearly singular) inputs are handled without
    blow-up.  Raises :class:`LinalgError` on non-finite input.
    """
    M = _as_matrix(M)
    if M.shape == (1, 1):  # scalar fast path (hot in the Riccati loops)
        m = M[0, 0]
        if not np.isfinite(m):
            raise LinalgError("pinv: input contains NaN or Inf")
        return np.array([[1.0 / m]]) if m != 0.0 else np.zeros((1, 1))
    if not np.all(np.isfinite(M)):
        raise LinalgError("pinv: input contains NaN or Inf")
    if M.size == 0:
        return M.T.copy()
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    if sv.size == 0 or sv[0] == 0.0:
        return np.zeros_like(M.T)
    inv = np.where(sv > tol.rank_cutoff * sv[0], 1.0 / np.where(sv > 0, sv, 1.0), 0.0)
    return (Vt.T * inv) @ U.T


def kron(a, b) -> np.ndarray:
    """``np.kron`` of two matrices (the same products), without its
    any-rank overhead, which dominates the small Jacobians of the root
    finder."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def lift_msq(A, C) -> np.ndarray:
    """Second-moment generator A (+) A + C (x) C.

    Returns the n^2 x n^2 matrix ``kron(A, I) + kron(I, A) + kron(C, C)``,
    which propagates vec(M) for the moment flow dM/dt = AM + MA^T + CMC^T
    under column stacking.  The state moments of dx = Ax dt + Cx dW decay
    iff this matrix is Hurwitz.
    """
    A = _as_matrix(A)
    C = _as_matrix(C)
    n = A.shape[0]
    if A.shape != (n, n) or C.shape != (n, n):
        raise LinalgError("lift_msq: A and C must be square with equal dimension")
    eye = np.eye(n)
    return kron(A, eye) + kron(eye, A) + kron(C, C)


def spectral_abscissa(M) -> float:
    """Largest real part over the spectrum of a square matrix."""
    M = _as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise LinalgError("spectral_abscissa: matrix must be square")
    try:
        ev = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise LinalgError(f"eigenvalue solver failed: {exc}; cond={np.linalg.cond(M):.3g}")
    return float(np.max(ev.real))


def is_hurwitz(M, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float]:
    """Strict Hurwitz test.

    Returns ``(verdict, abscissa)``; the verdict is true iff the spectral
    abscissa is below ``-residual_tol``, so marginal spectra fail.
    """
    a = spectral_abscissa(M)
    return a < -tol.residual_tol, a


def rk4_grid(t0: float, t1: float, step: float) -> np.ndarray:
    """Stage times of fixed-step RK4 from t0 to t1: 2*steps + 1 of them.

    Even indices are the knots (the first is t0, the last exactly t1), odd
    indices the midpoints, so the step from knot k reads stages 2k, 2k + 1
    and 2k + 2.  The step count is round(|t1 - t0| / step), at least one
    unless t0 == t1.
    """
    if step <= 0:
        raise LinalgError("rk4_grid: step must be positive")
    steps = max(1, int(round(abs(t1 - t0) / step))) if t1 != t0 else 0
    h = (t1 - t0) / max(steps, 1)
    ts = np.empty(2 * steps + 1)
    ts[0::2] = t0 + h * np.arange(steps + 1)
    ts[1::2] = ts[:-1:2] + h / 2
    ts[-1] = t1
    return ts


def integrate_ode(rate, t0: float, t1: float, y0, step: float, project=None):
    """Classical fixed-step RK4 on a uniform grid including both endpoints.

    ``rate(j, y)`` maps a flat state vector to its derivative at the stage
    time ``rk4_grid(t0, t1, step)[j]``, so a time-dependent rate reads
    tables tabulated once on that grid.  Reversed integration (``t1 < t0``)
    is supported for backward equations; the returned knots always run from
    t0 to t1 in step order.  ``project``, if given, is applied to the state
    after every accepted step (used by the Riccati solvers to
    re-symmetrize).

    Raises :class:`BlowUpError` as soon as the state becomes non-finite or
    its norm exceeds 1e12, reporting the time of failure.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    ts = rk4_grid(t0, t1, step)
    steps = ts.size // 2
    ys = np.empty((steps + 1, y0.size))
    ys[0] = y0
    if steps == 0:
        return ts, ys
    h = (t1 - t0) / steps
    y = y0.copy()
    for k in range(steps):
        j = 2 * k
        k1 = rate(j, y)
        k2 = rate(j + 1, y + (h / 2) * k1)
        k3 = rate(j + 1, y + (h / 2) * k2)
        k4 = rate(j + 2, y + h * k3)
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if project is not None:
            y = project(y)
        if not (y @ y <= 1e24):  # also true for NaN and inf
            raise BlowUpError(ts[j + 2])
        ys[k + 1] = y
    return ts[::2].copy(), ys


def matvec(M, V, out=None):
    """M @ V over V's leading axis, as broadcast multiply-adds (no BLAS)."""
    shape = (-1,) + (1,) * (V.ndim - 1)
    out = np.multiply(M[:, 0].reshape(shape), V[0], out=out)
    for j in range(1, V.shape[0]):
        out += M[:, j].reshape(shape) * V[j]
    return out


def affine_rk4(L, q, t0: float, t1: float, y0, step: float):
    """Classical RK4 on y' = L y + q(t) for a constant matrix L.

    Returns the same knots as ``integrate_ode`` with the rate
    ``L @ y + q[j]``: ``q`` holds the forcing on ``rk4_grid(t0, t1, step)``,
    shape (stages, d).  One RK4 step of a linear ODE is affine,
    y_{k+1} = R y_k + c_k, with R = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24
    and c_k the step taken from the zero state.  All c_k are formed at once,
    and the recurrence is evaluated by a doubling scan (Hillis & Steele):
    z[s:] += R^s z[:-s] for s = 1, 2, 4, ..., so log2(steps) vectorized
    rounds replace the step loop.  Products over the step axis are
    broadcast multiply-adds, so no call hands a long stack to BLAS.

    Raises :class:`BlowUpError` with the time of the first knot whose state
    is non-finite or has norm above 1e12, as ``integrate_ode`` does.
    """
    L = _as_matrix(L)
    y0 = np.asarray(y0, dtype=float).ravel()
    ts = rk4_grid(t0, t1, step)
    steps = ts.size // 2
    z = np.empty((y0.size, steps + 1))   # by component: matvec runs along the knots
    z[:, 0] = y0
    if steps > 0:
        h = (t1 - t0) / steps
        qT = np.asarray(q, dtype=float).reshape(ts.size, -1).T
        q0, q1, q2 = qT[:, :-1:2], qT[:, 1::2], qT[:, 2::2]
        # c_k: the four stages from the zero state, all steps at once
        c = z[:, 1:]
        c[...] = q0
        k = matvec(h / 2 * L, q0)
        k += q1
        c += 2 * k
        k = matvec(h / 2 * L, k)
        k += q1
        c += 2 * k
        k = matvec(h * L, k)
        k += q2
        c += k
        c *= h / 6
        hL = h * L
        eye = np.eye(y0.size)
        R = eye + hL @ (eye + hL @ (eye + hL @ (eye + hL / 4) / 3) / 2)
        with np.errstate(over="ignore", invalid="ignore"):   # a blow-up is reported below
            s = 1
            while s <= steps:
                z[:, s:] += matvec(R, z[:, :-s])
                R = R @ R
                s *= 2
        bad = ~(np.einsum("ik,ik->k", z[:, 1:], z[:, 1:]) <= 1e24)  # also NaN and inf
        if bad.any():
            raise BlowUpError(ts[2 * (int(np.argmax(bad)) + 1)])
    return ts[::2].copy(), np.ascontiguousarray(z.T)


def quadrature(values, grid=None, dx: float | None = None) -> float:
    """Composite trapezoid on a uniform grid (exact for linear integrands)."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] < 2:
        raise LinalgError("quadrature: need at least 2 samples")
    if grid is not None:
        return float(np.trapezoid(values, x=np.asarray(grid, dtype=float), axis=0))
    if dx is None:
        raise LinalgError("quadrature: provide grid or dx")
    return float(np.trapezoid(values, dx=dx, axis=0))


def symmetrize(M) -> np.ndarray:
    return 0.5 * (M + M.T)


def sym_sqrt_psd(M, clip: float = 0.0) -> np.ndarray:
    """Symmetric PSD square root; small negative eigenvalues are clipped."""
    w, V = np.linalg.eigh(symmetrize(_as_matrix(M)))
    w = np.clip(w, clip, None)
    return (V * np.sqrt(w)) @ V.T
