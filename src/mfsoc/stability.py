"""Stability, stabilizability, detectability, and convexity checks.

Mean-square stability is decided on the lifted second-moment operator.
Stabilizability is decided constructively through a definite-weight
algebraic Riccati solve, which accepts only a gain verified on the lift.
Exact observability and detectability of a noisy pair (A, C | F) are the
PBH rank tests of its symmetric lift, X -> AX + XA' + CXC' observed
through X -> FX; for zero diffusion they are the deterministic PBH tests.
Uniform convexity of the social cost is certified at any population size
from the population-N Riccati pair, whose control weight is the block of
the stacked N*n-dimensional equation's symmetric solution.

``stability_report`` is the one battery: it runs each of these checks
once, plus, on an infinite horizon, one unpinned algebraic solve, which it
keeps for its caller, and the equivalence-theorem verdicts, which
``theorem_verdicts`` reads from it.  The set-membership blocks are the
pair algebra's Riccati LMI blocks (``riccati._Pair.lmi_blocks``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (DEFAULT_TOL, Tolerance, is_hurwitz, lift_msq, pinv, spectral_abscissa,
                     sym_basis, sym_sqrt_psd, symmetrize)
from .model import ProblemSpec, _check_population
from .riccati import (RiccatiInfiniteSolution, SolverError, _Pair, _plant, _range_report,
                      _solution_pair, _solve_finite, _stochastic_are_root, solve_are)


def check_ms_stable(A, C, tol: Tolerance = DEFAULT_TOL):
    """Mean-square stability of dx = Ax dt + Cx dW: lifted Hurwitz test."""
    return is_hurwitz(lift_msq(A, C), tol)


def check_stabilizable(A, B, C, D, tol: Tolerance = DEFAULT_TOL):
    """Mean-square stabilizability, decided constructively.

    Solves the definite-weight (Q = R = I) Riccati equation, whose root
    routine accepts only a gain -Ups^+ Psi whose closed loop is mean-square
    stable on the lift; the gain and the lifted abscissa are read from the
    root's pair.  Returns (verdict, gain_or_None, diagnostic).
    """
    B, D = (np.atleast_2d(np.asarray(X, dtype=float)) for X in (B, D))
    try:
        pair = _stochastic_are_root(A, B, C, D, np.eye(B.shape[0]), np.eye(B.shape[1]), tol)
    except SolverError as exc:
        return False, None, f"definite-weight Riccati solve failed: {exc}"
    absc = spectral_abscissa(lift_msq(*pair.individual_loop()))
    return True, -pair.Ui @ pair.Psi, f"lifted closed-loop abscissa {absc:.3g}"


def pbh_observable(A, F, tol: Tolerance = DEFAULT_TOL, detect_only=False):
    """PBH rank test for (A, F) observability (or detectability): the witness
    is an eigenvalue lam of A where [lam I - A; F] loses rank.  A and F may
    be a noisy pair's lifted operators (``_lifted_pair``)."""
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


def _lifted_pair(A, C, F):
    """(L_s, F_s): ``lift_msq(A, C)`` restricted to symmetric matrices in
    svec coordinates (``sym_basis``), and X -> FX on them."""
    A, C, F = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, C, F))
    E = sym_basis(A.shape[0])
    vec = E.reshape(len(E), -1).T   # svec coordinates -> vec
    return pinv(vec) @ lift_msq(A, C) @ vec, (F @ E).reshape(len(E), -1).T


def exact_detectable(A, C, F, tol: Tolerance = DEFAULT_TOL):
    """Exact detectability of the noisy pair (A, C | F) by the stochastic PBH
    test (Zhang and Chen, Automatica 40(1), 2004; Zhang, Zhang and Chen, IEEE
    TAC 53(7), 2008): no symmetric X != 0 with L_s X = lam X, Re lam >= 0 and
    FX = 0, i.e. PBH detectability of ``_lifted_pair``.  The rank test reads
    whole eigenspaces, so a mode xx' (Ax = ax, Cx = cx, Fx = 0, 2a + c^2 >= 0)
    mixed into a repeated one is caught.  The witness is lam."""
    return pbh_observable(*_lifted_pair(A, C, F), tol, detect_only=True)


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
    # the unpinned infinite-horizon solve, None without a root; not serialized
    solution: RiccatiInfiniteSolution | None = None

    def to_json(self):
        """The verdicts that were evaluated; numpy values are left to the
        JSON encoder."""
        return {k: v for k, v in self.__dict__.items()
                if v is not None and k != "solution"}


def check_detectability_suite(spec: ProblemSpec, P_candidate=None, Pi_candidate=None,
                              tol: Tolerance = DEFAULT_TOL):
    """Observability/detectability battery: deterministic and stochastic
    (lifted) PBH tests, and set-membership of the supplied candidates.

    The S1 and S2 blocks are the Riccati LMI blocks of the limit-form pair
    at (P, Pi).  Returns (a5prime: dict, membership: dict).
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
    a5p["A_C_sqrtQ_exactly_observable"] = pbh_observable(*_lifted_pair(A, C, sqQ), tol)
    obs_ok, wit2 = pbh_observable(A + G, sqQ @ (np.eye(n) - Gam), tol)
    a5p["AG_sqrtQ_IminusGamma_observable"] = (obs_ok, wit2)

    membership = {}
    if P_candidate is None:
        return a5p, membership
    P, Pi = (X if X is None else symmetrize(np.atleast_2d(np.asarray(X, dtype=float)))
             for X in (P_candidate, Pi_candidate))
    pair = _Pair(_plant(spec), P, P if Pi is None else Pi, None, tol)
    Hmat, Mmat = (symmetrize(X) for X in pair.lmi_blocks())
    Q_P, R_P = Hmat[:n, :n], Hmat[n:, n:]
    h_min = float(np.linalg.eigvalsh(Hmat).min())
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
    if Pi_candidate is not None:
        m_min = float(np.linalg.eigvalsh(Mmat).min())
        det_Pi, witPi = pbh_observable(A + G, sym_sqrt_psd(Mmat[:n, :n]), tol, detect_only=True)
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


def stability_report(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL,
                     t_sim: float = 20.0) -> StabilityReport:
    """The battery behind the check subcommand and ``theorem_verdicts``.

    Every horizon: mean-square stability of [A, C], both stabilizability
    conditions, and the observability suite.  A finite horizon adds the
    uniform-convexity verdict.  An infinite horizon adds the unpinned
    algebraic solve, kept in ``solution`` (None when there is no root); the
    Hurwitz test of the individual closed-loop matrix plus the coupling G
    (A6); the set membership of (P, Pi); and the equivalence-theorem
    verdicts.  (ii): the two algebraic equations and the offset admit
    solutions with Upsilon >= 0, the range inclusions hold, and that
    matrix is Hurwitz.  (iii): both stabilizability conditions hold AND
    that same Hurwitz condition holds.  The theorem asserts (ii) <=> (iii);
    disagreement is a library bug or an assumption violation worth
    surfacing.
    """
    rep = StabilityReport(ms_stable=check_ms_stable(spec.A, spec.C, tol))
    stab_ok, _, diag = check_stabilizable(spec.A, spec.B, spec.C, spec.D, tol)
    rep.stabilizable = (stab_ok, diag)
    pair_ok, wit = rep.pair_AG_B_stabilizable = pbh_stabilizable(spec.A + spec.G, spec.B, tol)
    sol = None
    if spec.infinite_horizon:
        try:
            sol = rep.solution = solve_are(spec, tol, t_sim)
        except SolverError as exc:
            rep.A6_holds = (False, f"unevaluable: {exc}")
            rep.theorem_ii = (False, f"solver: {exc}")
        else:
            pair, numerators = _solution_pair(sol, spec, tol)
            hur, absc = rep.A6_holds = is_hurwitz(pair.individual_loop()[0] + spec.G, tol)
            ranges = _range_report(pair, numerators, tol)
            if not ranges.all_ok:
                rep.theorem_ii = (False, f"range inclusions fail: {ranges.failing()}")
            elif not hur:
                rep.theorem_ii = (False, f"aggregate matrix abscissa {absc:.3g}")
            else:
                rep.theorem_ii = (True, f"residuals ({sol.residual_P:.2g}, "
                                        f"{sol.residual_Pi:.2g}), abscissa {absc:.3g}")
        if not stab_ok:
            rep.theorem_iii = (False, f"noisy pair not stabilizable: {diag}")
        elif not pair_ok:
            rep.theorem_iii = (False, f"averaged pair not stabilizable (witness {wit})")
        elif sol is None:
            rep.theorem_iii = (False, "Hurwitz condition unevaluable: no Riccati solution")
        else:
            rep.theorem_iii = (hur, f"abscissa {absc:.3g}")
    else:
        try:
            rep.convexity = check_uniform_convexity(spec, 2, tol)
        except SolverError as exc:
            rep.convexity = ("indeterminate", str(exc))

    rep.A5prime, rep.S_membership = check_detectability_suite(
        spec, *(() if sol is None else (sol.P, sol.Pi)), tol=tol)
    return rep


def theorem_verdicts(spec: ProblemSpec, tol: Tolerance = DEFAULT_TOL, t_sim: float = 20.0):
    """The equivalence-theorem verdicts of ``stability_report`` for an
    infinite-horizon problem: ((ok_ii, detail_ii), (ok_iii, detail_iii)).
    A finite-horizon problem raises SolverError, as ``solve_are`` does."""
    if not spec.infinite_horizon:
        raise SolverError("equivalence-theorem verdicts called on a finite-horizon problem")
    rep = stability_report(spec, tol, t_sim)
    return rep.theorem_ii, rep.theorem_iii
