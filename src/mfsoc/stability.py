"""Stability, stabilizability, detectability, and convexity checks.

Mean-square stability is decided on the lifted second-moment operator.
Stabilizability is decided constructively through a definite-weight
algebraic Riccati solve whose gain is re-verified on the lift.  Exact
detectability of a state-dependent-noise pair is decided by a spectral
surrogate on the forward second-moment operator (eigenvectors with
non-negative real part must be visible through the output map); for zero
diffusion it reduces to the deterministic PBH test.  Uniform convexity of
the social cost is certified at any population size from the
population-N Riccati pair, whose control weight is the block of the
stacked N*n-dimensional equation's symmetric solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, is_hurwitz, lift_msq, sym_sqrt_psd, symmetrize
from .model import ProblemSpec, _check_population, derive_weights
from .riccati import (SolverError, _solution_pair, _solve_finite, check_ranges, solve_are,
                      solve_stochastic_are)


def check_ms_stable(A, C, tol: Tolerance = DEFAULT_TOL):
    """Mean-square stability of dx = Ax dt + Cx dW: lifted Hurwitz test."""
    return is_hurwitz(lift_msq(A, C), tol)


def check_stabilizable(A, B, C, D, tol: Tolerance = DEFAULT_TOL):
    """Mean-square stabilizability, decided constructively.

    Solves the definite-weight (Q = R = I) Riccati equation; on success the
    induced gain is re-verified on the lifted closed loop.  Returns
    (verdict, gain_or_None, diagnostic).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    n, r = B.shape
    try:
        P, _ = solve_stochastic_are(A, B, C, D, np.eye(n), np.eye(r), tol)
    except SolverError as exc:
        return False, None, f"definite-weight Riccati solve failed: {exc}"
    Ups = np.eye(r) + D.T @ P @ D
    K = -np.linalg.solve(Ups, B.T @ P + D.T @ P @ C)
    ok, absc = check_ms_stable(A + B @ K, C + D @ K, tol)
    if not ok:
        return False, None, f"candidate gain not stabilizing (lifted abscissa {absc:.3g})"
    return True, K, f"lifted closed-loop abscissa {absc:.3g}"


def pbh_observable(A, F, tol: Tolerance = DEFAULT_TOL, detect_only=False):
    """Deterministic PBH rank test for (A, F) observability (or detectability)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if detect_only and lam.real < -tol.residual_tol:
            continue
        M = np.vstack([lam * np.eye(n) - A, F.astype(complex)])
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] <= tol.rank_cutoff * max(sv[0], 1.0):
            return False, complex(lam)
    return True, None


def pbh_stabilizable(A, B, tol: Tolerance = DEFAULT_TOL):
    """PBH stabilizability of the deterministic pair (A, B): detectability
    of the dual pair (A', B')."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    return pbh_observable(A.T, B.T, tol, detect_only=True)


def exact_detectable(A, C, F, tol: Tolerance = DEFAULT_TOL):
    """Spectral surrogate for exact detectability of the noisy pair with output F.

    Works on the forward second-moment operator X -> AX + XA' + CXC' acting
    on symmetric matrices, as in the stochastic PBH test (Zhang and Chen,
    Automatica 2004): the pair is declared detectable iff every
    eigenvector X (symmetrized, unit norm) whose eigenvalue has real part
    >= -residual_tol satisfies ||F X|| > residual_tol.  A mode with Ax = ax,
    Cx = cx, Fx = 0 and 2a + c^2 >= 0 gives such an X = xx'.  With C = 0
    this coincides with the deterministic PBH verdict.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n = A.shape[0]
    L = lift_msq(A, C)
    evals, evecs = np.linalg.eig(L)
    for k in range(evals.size):
        if evals[k].real < -tol.residual_tol:
            continue
        X = evecs[:, k].reshape(n, n)
        X = 0.5 * (X + X.T)
        norm = np.linalg.norm(X)
        if norm <= tol.rank_cutoff:
            continue  # anti-symmetric eigenvector; irrelevant to moments
        X = X / norm
        if np.linalg.norm(F @ X) <= tol.residual_tol:
            return False, complex(evals[k])
    return True, None


@dataclass
class StabilityReport:
    """Verdicts with numeric witnesses; serialized by the check subcommand."""

    ms_stable: tuple = None          # (bool, lifted abscissa) for [A, C]
    stabilizable: tuple = None       # (bool, diagnostic) for [A, B; C, D]
    pair_AG_B_stabilizable: tuple = None
    A6_holds: tuple = None           # (bool, abscissa of closed loop + G) or (False, reason)
    A5prime: dict = field(default_factory=dict)
    S_membership: dict = field(default_factory=dict)
    convexity: tuple = None          # (verdict string, witness)
    theorem_ii: tuple = None         # (bool, detail)
    theorem_iii: tuple = None

    def to_json(self):
        def enc(v):
            if isinstance(v, (np.floating, float)):
                return float(v)
            if isinstance(v, (np.bool_, bool)):
                return bool(v)
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            if isinstance(v, np.ndarray):
                return v.tolist()
            if isinstance(v, tuple):
                return [enc(x) for x in v]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            return v
        return {k: enc(v) for k, v in self.__dict__.items() if v is not None}


def check_detectability_suite(spec: ProblemSpec, P_candidate=None, Pi_candidate=None,
                              tol: Tolerance = DEFAULT_TOL):
    """Observability/detectability battery: PBH tests, stochastic surrogate,
    and set-membership of the supplied candidates.

    Returns (a5prime: dict, membership: dict).
    """
    A, B, C, D, G = spec.A, spec.B, spec.C, spec.D, spec.G
    Q, R, Gam = spec.Q, spec.R, spec.Gamma
    n = spec.n
    a5p = {}
    q_min = float(np.linalg.eigvalsh(symmetrize(Q)).min())
    r_min = float(np.linalg.eigvalsh(symmetrize(R)).min())
    a5p["Q_psd"] = (q_min >= -tol.residual_tol, q_min)
    a5p["R_pd"] = (r_min > tol.residual_tol, r_min)
    sqQ = sym_sqrt_psd(Q)
    det_ok, wit = exact_detectable(A, C, sqQ, tol)
    a5p["A_C_sqrtQ_exactly_observable"] = (det_ok, wit)
    obs_ok, wit2 = pbh_observable(A + G, sqQ @ (np.eye(n) - Gam), tol)
    a5p["AG_sqrtQ_IminusGamma_observable"] = (obs_ok, wit2)

    membership = {}
    if P_candidate is not None:
        Pb = symmetrize(np.atleast_2d(np.asarray(P_candidate, dtype=float)))
        Q_P = symmetrize(A.T @ Pb + Pb @ A + C.T @ Pb @ C + Q)
        R_P = symmetrize(R + D.T @ Pb @ D)
        Hmat = np.block([[Q_P, Pb @ B + C.T @ Pb @ D], [B.T @ Pb + D.T @ Pb @ C, R_P]])
        h_min = float(np.linalg.eigvalsh(symmetrize(Hmat)).min())
        # kernel inclusion ker(R_P) within ker(B) and ker(D)
        w, V = np.linalg.eigh(R_P)
        kerR = V[:, np.abs(w) <= tol.rank_cutoff * (1.0 + np.abs(w).max())]
        ker_res = float(np.linalg.norm(B @ kerR) + np.linalg.norm(D @ kerR)) if kerR.size else 0.0
        det_P, witP = exact_detectable(A, C, sym_sqrt_psd(Q_P), tol)
        membership["S1"] = {
            "H_psd": (h_min >= -tol.residual_tol, h_min),
            "kernel_inclusion": (ker_res <= tol.residual_tol, ker_res),
            "exactly_detectable": (det_P, witP),
        }
    if Pi_candidate is not None and P_candidate is not None:
        Pib = symmetrize(np.atleast_2d(np.asarray(Pi_candidate, dtype=float)))
        Pb = symmetrize(np.atleast_2d(np.asarray(P_candidate, dtype=float)))
        dw = derive_weights(spec)
        Q_Pi = symmetrize((A + G).T @ Pib + Pib @ (A + G) + C.T @ Pb @ C + Q - dw.Q_Gamma)
        R_P = symmetrize(R + D.T @ Pb @ D)
        Mmat = np.block([[Q_Pi, Pib @ B + C.T @ Pb @ D], [B.T @ Pib + D.T @ Pb @ C, R_P]])
        m_min = float(np.linalg.eigvalsh(symmetrize(Mmat)).min())
        det_Pi, witPi = pbh_observable(A + G, sym_sqrt_psd(Q_Pi), tol, detect_only=True)
        membership["S2"] = {
            "M_psd": (m_min >= -tol.residual_tol, m_min),
            "detectable": (det_Pi, witPi),
        }
    return a5p, membership


def check_uniform_convexity(spec: ProblemSpec, N_small: int = 2,
                            tol: Tolerance = DEFAULT_TOL):
    """Convexity verdict of the N_small-agent social cost.

    The stacked N_small*n-dimensional Riccati equation of the population
    has the symmetric solution I (x) P + (11'/N) (x) K, with (P, K) the
    population-N pair, so its control weight is block-diagonal with blocks
    Upsilon = R + D'(P + K/N)D.  The verdict therefore reads the pair from
    the population-N solve, at any N.  Returns (verdict, witness) with
    verdict in {"uniformly_convex", "convex", "indeterminate"}; witness is
    the min Upsilon eigenvalue over the grid, or the escape time on blow-up.
    """
    if spec.infinite_horizon:
        raise SolverError("uniform-convexity check requires a finite horizon")
    try:
        sol = _solve_finite(spec, tol, _check_population(N_small), require_convex=False)
    except SolverError as exc:
        if exc.escape_time is None:
            raise
        return "indeterminate", exc.escape_time
    min_ups = sol.min_upsilon_eig
    if min_ups > tol.residual_tol:
        return "uniformly_convex", min_ups
    if min_ups >= -tol.residual_tol:
        return "convex", min_ups
    return "indeterminate", min_ups


def _aggregate_hurwitz(spec: ProblemSpec, sol, tol: Tolerance):
    """Hurwitz test of the individual closed-loop matrix plus the coupling G."""
    return is_hurwitz(_solution_pair(sol, spec, tol).individual_loop()[0] + spec.G, tol)


def _try_solve_are(spec: ProblemSpec, tol: Tolerance, t_sim: float):
    """(solution, None) or (None, the SolverError)."""
    try:
        return solve_are(spec, tol, t_sim), None
    except SolverError as exc:
        return None, exc


def _theorem_verdicts(spec: ProblemSpec, sol, err, stab, pair, tol: Tolerance):
    """Verdicts from an ARE outcome, a check_stabilizable result and a
    pbh_stabilizable result computed once by the caller."""
    if sol is None:
        verdict_ii = (False, f"solver: {err}")
    else:
        rep = check_ranges(sol, spec, tol)
        hur, absc = _aggregate_hurwitz(spec, sol, tol)
        if not rep.all_ok:
            verdict_ii = (False, f"range inclusions fail: {rep.failing()}")
        elif not hur:
            verdict_ii = (False, f"aggregate matrix abscissa {absc:.3g}")
        else:
            verdict_ii = (True, f"residuals ({sol.residual_P:.2g}, {sol.residual_Pi:.2g}), abscissa {absc:.3g}")

    stab_ok, _, diag = stab
    pair_ok, wit = pair
    if not stab_ok:
        verdict_iii = (False, f"noisy pair not stabilizable: {diag}")
    elif not pair_ok:
        verdict_iii = (False, f"averaged pair not stabilizable (witness {wit})")
    elif sol is None:
        verdict_iii = (False, "Hurwitz condition unevaluable: no Riccati solution")
    else:
        verdict_iii = (hur, f"abscissa {absc:.3g}")
    return verdict_ii, verdict_iii


def theorem_verdicts(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0):
    """Equivalence-theorem verdicts for the infinite-horizon problem.

    (ii): the two algebraic equations and the offset admit solutions with
    Upsilon >= 0, the range inclusions hold, and the individual closed-loop
    matrix plus the coupling matrix is Hurwitz.
    (iii): both stabilizability conditions hold AND that same Hurwitz
    condition holds.  The theorem asserts (ii) <=> (iii); disagreement is a
    library bug or an assumption violation worth surfacing.
    Returns ((ok_ii, detail_ii), (ok_iii, detail_iii)).
    """
    sol, err = _try_solve_are(spec, tol, t_sim)
    stab = check_stabilizable(spec.A, spec.B, spec.C, spec.D, tol)
    pair = pbh_stabilizable(spec.A + spec.G, spec.B, tol)
    return _theorem_verdicts(spec, sol, err, stab, pair, tol)


def stability_report(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL,
                     t_sim: float = 20.0) -> StabilityReport:
    """Full battery behind the check subcommand."""
    are = _try_solve_are(spec, tol, t_sim) if spec.infinite_horizon else None
    return _stability_report(spec, tol, are)


def _stability_report(spec: ProblemSpec, tol: Tolerance, are) -> StabilityReport:
    """The battery with the infinite-horizon outcome of _try_solve_are
    supplied by a caller that has already run it (None on a finite horizon)."""
    rep = StabilityReport()
    rep.ms_stable = check_ms_stable(spec.A, spec.C, tol)
    stab = check_stabilizable(spec.A, spec.B, spec.C, spec.D, tol)
    rep.stabilizable = (stab[0], stab[2])
    pair = pbh_stabilizable(spec.A + spec.G, spec.B, tol)
    rep.pair_AG_B_stabilizable = pair

    P_cand = Pi_cand = None
    if spec.infinite_horizon:
        sol, err = are
        if sol is None:
            rep.A6_holds = (False, f"unevaluable: {err}")
        else:
            P_cand, Pi_cand = sol.P, sol.Pi
            rep.A6_holds = _aggregate_hurwitz(spec, sol, tol)
        rep.theorem_ii, rep.theorem_iii = _theorem_verdicts(spec, sol, err, stab, pair, tol)
    else:
        try:
            rep.convexity = check_uniform_convexity(spec, 2, tol)
        except SolverError as exc:
            rep.convexity = ("indeterminate", str(exc))

    a5p, membership = check_detectability_suite(spec, P_cand, Pi_cand, tol)
    rep.A5prime = a5p
    rep.S_membership = membership
    return rep
