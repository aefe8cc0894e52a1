"""Dense linear-algebra kernel shared by every other module.

Pseudoinverse with an explicit rank cutoff, the second-moment (Kronecker)
lift used for mean-square stability tests, Hurwitz tests, a fixed-step RK4
integrator whose rate reads its time dependence by stage index from tables
on ``rk4_grid``, and trapezoidal quadrature.  All functions are pure and
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
        if self.residual_tol <= 0 or self.ode_step <= 0:
            raise LinalgError("residual_tol and ode_step must be positive")


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
