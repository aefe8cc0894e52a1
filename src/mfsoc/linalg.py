"""Dense linear-algebra kernel shared by every other module.

Pseudoinverse with an explicit rank cutoff, the second-moment (Kronecker)
lift used for mean-square stability tests, Hurwitz tests, the log-barrier
method for linear matrix inequalities (``central_path``) with its phase I
and dual certificate of infeasibility (``lmi_phase_one``) and phase II
(``lmi_phase_two``), one RK4 step (``_rk4_step``, whose rate reads tables
on ``rk4_grid`` by stage index) run by a plain step loop (``integrate_ode``,
the reference the tests hold the library's integrators to) and, for linear
ODEs, as per-step affine maps applied by a doubling scan (``affine_rk4``),
broadcast matrix-vector products (``matvec``), and the symmetric unit basis
that defines svec coordinates (``sym_basis``).
All functions are pure and deterministic; everything operates on plain
numpy arrays.
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
    return np.atleast_2d(np.asarray(M, dtype=float))


def pinv(M, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with a relative rank cutoff.

    M may be a stack (..., p, q): one SVD runs over the stack, and each
    matrix gets its own cutoff.  Singular values below
    ``rank_cutoff * sigma_max`` are treated as zero, so exactly singular
    (and nearly singular) inputs are handled without blow-up, and a zero
    matrix gives zeros.  Raises :class:`LinalgError` on non-finite input.
    """
    M = _as_matrix(M)
    if not np.all(np.isfinite(M)):
        raise LinalgError("pinv: input contains NaN or Inf")
    if M.shape[-2:] == (1, 1):  # scalars (or a stack of them) need no SVD
        return np.divide(1.0, M, out=np.zeros_like(M), where=M != 0.0)
    U, sv, Vt = np.linalg.svd(M, full_matrices=False)
    inv = np.where(sv > tol.rank_cutoff * sv[..., :1], 1.0 / np.where(sv > 0, sv, 1.0), 0.0)
    return (Vt.mT * inv[..., None, :]) @ U.mT


def kron(a, b) -> np.ndarray:
    """``np.kron`` of two matrices (the same products), without its
    any-rank overhead, which dominates the small Jacobians of the root
    finder."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def sym_basis(n: int) -> np.ndarray:
    """Symmetric unit matrices E_k (ones at (i, j) and (j, i)) over
    ``triu_indices(n)``: X = sum_k X[i_k, j_k] E_k, the svec coordinates."""
    i, j = np.triu_indices(n)
    E = np.zeros((i.size, n, n))
    E[np.arange(i.size), i, j] = E[np.arange(i.size), j, i] = 1.0
    return E


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


_BARRIER_STEPS = 200   # Newton steps of one barrier run, all centerings together


def central_path(L0, G, c, y, s):
    """The barrier method (Boyd and Vandenberghe, *Convex Optimization*,
    section 11.3) for max c'y subject to S(y) = L0 + sum_j y_j G_j > 0,
    from a strictly feasible y and barrier weight s.

    Each Newton step with backtracking on -s c'y - log det S(y) yields
    (y, Z, gap).  At a center Z = S^-1 / s is the dual point, with
    <Z, G_j> = -c_j, and gap = dim S / s bounds the distance of c'y to the
    optimum; s then grows tenfold.  Between centers Z and gap are None.
    The path ends after _BARRIER_STEPS Newton steps.
    """
    S = L0 + np.tensordot(y, G, 1)
    w, V = np.linalg.eigh(S)
    for _ in range(_BARRIER_STEPS):
        W = (V / w) @ V.T
        WG = W @ G
        g = -s * c - np.einsum("jaa->j", WG)
        dy = -np.linalg.lstsq(np.einsum("jab,kba->jk", WG, WG), g, rcond=None)[0]
        dec = -(g @ dy)   # the Newton decrement, squared
        f = -s * (c @ y) - np.log(w).sum()
        dS = np.tensordot(dy, G, 1)
        # centered once the predicted decrease is far below f's rounding
        for step in 0.5 ** np.arange(40) if dec > 1e-10 * max(1.0, abs(f)) else ():
            wn, Vn = np.linalg.eigh(S + step * dS)
            if wn[0] > 0 and -s * (c @ (y + step * dy)) - np.log(wn).sum() <= f - 0.25 * step * dec:
                y, S, w, V = y + step * dy, S + step * dS, wn, Vn
                yield y, None, None
                break
        else:   # centered, or no step that lowers the barrier in floating point
            yield y, W / s, len(S) / s
            s *= 10.0


def lmi_phase_one(L0, L, margin: float):
    """Phase I of the LMI L0 + sum_k x_k L_k >= 0 over x, the L_k
    symmetric: maximize t subject to L0 + sum_k x_k L_k >= tI by
    ``central_path``, from x = 0.

    Returns (x, t, Z, value) with L0 + sum_k x_k L_k >= tI.  Phase I stops
    at the first iterate with t > 0.  Otherwise it stops at a center whose
    duality gap is within a tenth of |t| (or below margin) and keeps the
    dual point Z when it verifies: projected onto the kernel of
    Z -> (<Z, L_k>)_k and scaled to tr Z = 1, Z >= 0 and
    value = <Z, L0> < -margin.  Then <Z, L0 + sum_k x_k L_k> = value < 0
    for every x, so the LMI has no solution.  Z and value are None when
    phase I decides nothing: the LMI is feasible, feasible only on its
    boundary, or the dual point does not verify.
    """
    L = np.asarray(L)
    t0 = np.linalg.eigvalsh(L0)[0]
    if t0 > 0.0:
        return np.zeros(len(L)), t0, None, None
    G = np.concatenate([-np.eye(len(L0))[None], L])   # y = (t, x)
    y = np.zeros(len(G))
    y[0] = t0 - 1.0
    # the first duality gap is |t| at the start
    for y, Z, gap in central_path(L0, G, np.eye(len(G))[0], y, len(L0) / (1.0 - t0)):
        if y[0] > 0.0 or gap is not None and (gap <= 0.1 * abs(y[0]) or gap < margin):
            break
    if y[0] <= 0.0 and gap is not None:
        basis = L.reshape(len(L), -1).T
        z = Z.ravel() - basis @ np.linalg.lstsq(basis, Z.ravel(), rcond=None)[0]
        Z = symmetrize(z.reshape(Z.shape))
        Z /= np.trace(Z)
        value = float(np.sum(Z * L0))
        if np.linalg.eigvalsh(Z)[0] >= 0.0 and value < -margin:
            return y[1:], y[0], Z, value
    return y[1:], y[0], None, None


def lmi_phase_two(L0, G, c, x, gap: float):
    """Phase II: max c'x subject to L0 + sum_k x_k G_k >= 0 by
    ``central_path`` from a strictly feasible x, at barrier weight 1e-3, so
    the first center lies near the analytic one and the path does not crawl
    along the boundary.  Returns (x, None) at the first center with a
    duality gap of at most gap, or after the path's last Newton step, and
    (x, d) on a step d with c'd > 0 and sum_k d_k G_k >= 0: the ray x + t d
    is then feasible for every t >= 0, so c'x is unbounded.
    """
    prev = x
    for x, _, g in central_path(L0, G, c, x, 1e-3):
        d = x - prev
        if c @ d > 0.0 and np.linalg.eigvalsh(np.tensordot(d, G, 1))[0] >= 0.0:
            return x, d
        if g is not None and g <= gap:
            break
        prev = x
    return x, None


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


def _rk4_step(rate, j, y, h):
    """One classical RK4 step of length h from the knot at stage index j."""
    k1 = rate(j, y)
    k2 = rate(j + 1, y + (h / 2) * k1)
    k3 = rate(j + 1, y + (h / 2) * k2)
    k4 = rate(j + 2, y + h * k3)
    return y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate_ode(rate, t0: float, t1: float, y0, step: float, project=None, bounded=None):
    """Classical fixed-step RK4 on a uniform grid including both endpoints.

    ``rate(j, y)`` maps a flat state vector to its derivative at the stage
    time ``rk4_grid(t0, t1, step)[j]``, so a time-dependent rate reads
    tables tabulated once on that grid.  Reversed integration (``t1 < t0``)
    is supported for backward equations; the returned knots always run from
    t0 to t1 in step order.  ``project``, if given, is applied to the state
    after every accepted step (to re-symmetrize a matrix state, say).

    Raises :class:`BlowUpError` as soon as the state's first ``bounded``
    entries (all by default) become non-finite or their norm exceeds 1e12,
    reporting the time of failure; the other entries are not tested.
    """
    y0 = np.asarray(y0, dtype=float).ravel()
    ts = rk4_grid(t0, t1, step)
    steps = ts.size // 2
    ys = np.empty((steps + 1, y0.size))
    ys[0] = y0
    h = (t1 - t0) / max(steps, 1)
    for k in range(steps):
        y = _rk4_step(rate, 2 * k, ys[k], h)
        if project is not None:
            y = project(y)
        yb = y[:bounded]
        if not (yb @ yb <= 1e24):  # also true for NaN and inf
            raise BlowUpError(ts[2 * k + 2])
        ys[k + 1] = y
    return ts[::2].copy(), ys


def matvec(M, V, out=None):
    """M @ V over V's leading axis, as broadcast multiply-adds (no BLAS); axes
    of M past its second broadcast against V's trailing ones (one M per step)."""
    ix = (None,) * (V.ndim - M.ndim + 1)
    out = np.multiply(M[(slice(None), 0) + ix], V[0], out=out)
    for j in range(1, V.shape[0]):
        out += M[(slice(None), j) + ix] * V[j]
    return out


_SCAN_ELEMS = 1 << 14   # probe-state entries in one block of steps, d(d + 1) per step and row


def affine_rk4(rate, t0: float, t1: float, y0, step: float):
    """Classical RK4 on a linear ODE y' = L(t) y + q(t), as an affine step map.

    Returns the knots and states of ``integrate_ode`` with the same rate.
    ``y0`` may carry leading batch axes before its state axis of length d.
    The rate must be affine in y and act on each batch row alone; it gets a
    (steps,) array of stage indices and states of shape
    (d + 1, steps, *y0.shape), so tables indexed by the stages broadcast.
    One RK4 step is y_{k+1} = R_k y_k + c_k: for a block of steps at once,
    ``_rk4_step`` from the zero state gives every c_k, and from the d unit
    states every column of R_k.  The block's recurrence is evaluated by a
    doubling scan (Hillis & Steele): z[s:] += R[s:] z[:-s] and
    R[s:] = R[s:] R[:-s] for s = 1, 2, 4, ..., and its last knot starts the
    next block.  Products over the step axis are broadcast multiply-adds
    (``matvec``), never BLAS calls.

    Raises :class:`BlowUpError` with the time of the first knot whose state
    is non-finite or has norm above 1e12, as ``integrate_ode`` does.
    """
    y0 = np.asarray(y0, dtype=float)
    d = y0.shape[-1]
    ts = rk4_grid(t0, t1, step)
    steps = ts.size // 2
    h = (t1 - t0) / max(steps, 1)
    ys = np.empty((steps + 1,) + y0.shape)
    ys[0] = y0
    probes = np.eye(d + 1, d, -1).reshape((d + 1,) + (1,) * y0.ndim + (d,))
    block = max(1, _SCAN_ELEMS // (d * (d + 1)))
    for k0 in range(0, steps, block):
        S = min(block, steps - k0)
        with np.errstate(over="ignore", invalid="ignore"):   # a blow-up is reported below
            F = _rk4_step(rate, 2 * np.arange(k0, k0 + S),
                          np.broadcast_to(probes, (d + 1, S) + y0.shape), h)
            z = np.moveaxis(F[0], -1, 0).copy()                   # c: (d, S, ...)
            R = np.moveaxis(F[1:] - F[0], -1, 0).copy()           # (d, d, S, ...)
            z[:, 0] += matvec(R[:, :, 0], np.moveaxis(ys[k0], -1, 0))
            s = 1
            while s < S:
                z[:, s:] += matvec(R[:, :, s:], z[:, :-s])
                if 2 * s < S:
                    R[:, :, s:] = matvec(R[:, :, s:], R[:, :, :-s])
                s *= 2
            bad = ~((z * z).reshape(d, S, -1).sum(axis=(0, 2)) <= 1e24)   # also NaN and inf
        if bad.any():
            raise BlowUpError(ts[2 * (k0 + int(np.argmax(bad)) + 1)])
        ys[k0 + 1:k0 + S + 1] = np.moveaxis(z, 0, -1)
    return ts[::2].copy(), ys


def symmetrize(M) -> np.ndarray:
    return 0.5 * (M + M.mT)


def sym_sqrt_psd(M) -> np.ndarray:
    """Symmetric PSD square root; small negative eigenvalues are clipped."""
    w, V = np.linalg.eigh(symmetrize(_as_matrix(M)))
    return (V * np.sqrt(np.clip(w, 0.0, None))) @ V.T
