from dataclasses import replace

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from mfsoc.linalg import Tolerance, is_hurwitz, lift_msq
from mfsoc.model import ProblemSpec, constant_signal, zero_signal
from mfsoc.riccati import SolverError, solve_finite_N
from mfsoc.stability import (
    check_detectability_suite,
    check_ms_stable,
    check_stabilizable,
    check_uniform_convexity,
    exact_detectable,
    pbh_observable,
    pbh_stabilizable,
    stability_report,
    theorem_verdicts,
)

FAST = Tolerance(ode_step=5e-3)


def test_ms_stable_scalar():
    # dx = a x dt + c x dW is mean-square stable iff 2a + c^2 < 0
    ok, absc = check_ms_stable([[-1.0]], [[1.0]])
    assert ok and absc == pytest.approx(-1.0)
    ok, _ = check_ms_stable([[-0.4]], [[1.0]])
    assert not ok  # 2a + c^2 = 0.2 > 0: noise destabilizes the moments


def test_ms_stable_reduces_to_hurwitz_without_noise():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = rng.integers(1, 4)
        A = rng.standard_normal((n, n))
        want, _ = is_hurwitz(A)
        got, _ = check_ms_stable(A, np.zeros((n, n)))
        assert got == want


def test_stabilizable_with_state_noise():
    # unstable drift, strong state noise, noise-free control channel:
    # stabilizable because the gain can cancel the drift aggressively
    ok, K, diag = check_stabilizable([[0.0]], [[1.0]], [[2.0]], [[0.0]])
    assert ok
    okc, _ = check_ms_stable(np.array([[0.0]]) + K, np.array([[2.0]]), )
    assert okc


def test_not_stabilizable_without_control():
    ok, K, diag = check_stabilizable([[1.0]], [[0.0]], [[0.0]], [[0.0]])
    assert not ok and K is None


def test_pbh_tests():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    ok, _ = pbh_observable(A, np.array([[1.0, 0.0]]))
    assert ok  # position output observes the double integrator
    ok, wit = pbh_observable(A, np.array([[0.0, 1.0]]))
    assert not ok  # velocity output misses the position mode
    ok, _ = pbh_stabilizable(A, np.array([[0.0], [1.0]]))
    assert ok
    ok, _ = pbh_stabilizable(np.diag([1.0, -1.0]), np.array([[0.0], [1.0]]))
    assert not ok  # the unstable mode is unreachable


def test_exact_detectable_matches_pbh_without_noise():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = rng.integers(1, 4)
        A = rng.standard_normal((n, n))
        F = rng.standard_normal((1, n))
        want, _ = pbh_observable(A, F, detect_only=True)
        got, _ = exact_detectable(A, np.zeros((n, n)), F)
        assert got == want


def test_exact_detectable_counterexample():
    # the lambda = 1 mode x = (2, 1) is invisible to F: the adjoint lift
    # V -> A'V + VA declared this pair detectable
    A = np.array([[1.0, 0.0], [1.0, -1.0]])
    F = np.array([[1.0, -2.0]])
    assert pbh_observable(A, F, detect_only=True) == (False, 1)
    ok, wit = exact_detectable(A, np.zeros((2, 2)), F)
    assert not ok and wit == pytest.approx(2.0)


@pytest.mark.parametrize("noisy", [False, True])
def test_exact_detectable_planted_mode(noisy):
    # A x = a x, C x = c x and F x = 0 with 2a + c^2 >= 0: X = xx' is an
    # eigenvector of X -> AX + XA' + CXC' with eigenvalue 2a + c^2, unseen by F
    rng = np.random.default_rng(31 + noisy)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        x = rng.standard_normal(n)
        Px = np.outer(x, x) / (x @ x)
        c = rng.uniform(-1.5, 1.5) if noisy else 0.0
        a = -c * c / 2 + rng.uniform(0.05, 1.0)
        A0 = rng.standard_normal((n, n))
        A = A0 + np.outer(a * x - A0 @ x, x) / (x @ x)
        C0 = rng.standard_normal((n, n)) if noisy else np.zeros((n, n))
        C = C0 + np.outer(c * x - C0 @ x, x) / (x @ x)
        F = rng.standard_normal((1, n)) @ (np.eye(n) - Px)
        ok, wit = exact_detectable(A, C, F)
        assert not ok
        assert wit.real >= -1e-8
        if not noisy:
            assert not pbh_observable(A, F, detect_only=True)[0]


def test_exact_detectable_blind_output():
    # zero output map cannot detect anything unstable
    ok, wit = exact_detectable([[1.0]], [[0.0]], [[0.0]])
    assert not ok


def test_exact_detectable_repeated_eigenspace_counterexamples():
    # A = 0.1 I and C = 0.3 I: every X is an eigenvector of the lift with
    # eigenvalue 2a + c^2 = 0.29, and X = (1, 1)(1, 1)' is unseen by F
    F = np.array([[1.0, -1.0]])
    ok, wit = exact_detectable(0.1 * np.eye(2), 0.3 * np.eye(2), F)
    assert not ok and wit == pytest.approx(0.29)
    # A = C = 0: the noise-free verdict, which is the deterministic one
    assert exact_detectable(np.zeros((2, 2)), np.zeros((2, 2)), F) == (False, 0)
    assert pbh_observable(np.zeros((2, 2)), F, detect_only=True) == (False, 0)


@pytest.mark.parametrize("noisy", [False, True])
def test_exact_detectable_planted_mode_in_repeated_eigenspace(noisy):
    # A = aI + u w' with w orthogonal to x and z, so a is a double
    # eigenvalue of A and 2a + c^2 a triple one of the lift with C = cI;
    # F x = 0 plants the mode xx' somewhere inside that eigenspace
    rng = np.random.default_rng(41 + noisy)
    for _ in range(20):
        n = int(rng.integers(3, 5))
        x, z, w = np.linalg.qr(rng.standard_normal((n, n)))[0].T[:3]
        c = rng.uniform(-1.5, 1.5) if noisy else 0.0
        a = -c * c / 2 + rng.uniform(0.05, 1.0)
        A = a * np.eye(n) + np.outer(rng.standard_normal(n), w)
        F = rng.standard_normal((1, n)) @ (np.eye(n) - np.outer(x, x))
        ok, wit = exact_detectable(A, c * np.eye(n), F)
        assert not ok and wit == pytest.approx(2 * a + c * c, abs=1e-6)


_LAM_MU = [(0.5, -1.0), (-0.5, 1.0), (0.5, 0.7), (-0.5, -1.0)]


@pytest.mark.parametrize("jordan", [False, True])
@pytest.mark.parametrize("lam, mu", _LAM_MU)
def test_exact_detectable_without_noise_is_pbh_on_repeated_eigenvalues(lam, mu, jordan):
    # diag(lam, lam, mu) and a 2x2 Jordan block at lam beside mu
    A = np.array([[lam, float(jordan), 0.0], [0.0, lam, 0.0], [0.0, 0.0, mu]])
    rng = np.random.default_rng(53)
    outputs = list(np.eye(3)[:, None, :]) + [rng.standard_normal((1, 3)),
                                            rng.standard_normal((2, 3)), np.eye(3)[1:]]
    for F in outputs:
        want, _ = pbh_observable(A, F, detect_only=True)
        got, _ = exact_detectable(A, np.zeros((3, 3)), F)
        assert got == want, F


def test_exact_detectable_invariant_under_state_similarity():
    # x -> Tx maps (A, C | F) to (TAT^-1, TCT^-1 | FT^-1) and the lift to a
    # similar operator, so the verdict must not move
    rng = np.random.default_rng(61)
    verdicts = []
    for k in range(60):
        n = int(rng.integers(1, 4))
        A, C = rng.standard_normal((n, n)), rng.standard_normal((n, n)) * (k % 2)
        F = rng.standard_normal((1, n))
        if k % 3 and n > 1:   # plant an undetectable mode
            x = rng.standard_normal(n)
            x /= np.linalg.norm(x)
            c = rng.uniform(-1.0, 1.0) * (k % 2)
            a = -c * c / 2 + rng.uniform(0.05, 1.0)
            A += np.outer(a * x - A @ x, x)
            C += np.outer(c * x - C @ x, x)
            F -= np.outer(F @ x, x)
        U, _, Vt = np.linalg.svd(rng.standard_normal((n, n)))
        T = U @ np.diag(rng.uniform(0.5, 2.0, n)) @ Vt
        Ti = np.linalg.inv(T)
        ok, _ = exact_detectable(A, C, F)
        assert exact_detectable(T @ A @ Ti, T @ C @ Ti, F @ Ti)[0] == ok
        verdicts.append(ok)
    assert any(verdicts) and not all(verdicts)


def test_detectability_suite_blind_weight(spec_wellposed):
    # Q = 0: nothing is observable through Q^1/2, even the stable lifted mode
    a5p, _ = check_detectability_suite(replace(spec_wellposed, Q=np.zeros((1, 1))))
    ok, wit = a5p["A_C_sqrtQ_exactly_observable"]
    assert not ok and wit.real < 0.0


def test_detectability_suite(spec_wellposed, sol_wellposed):
    a5p, member = check_detectability_suite(
        spec_wellposed, sol_wellposed.P, sol_wellposed.Pi
    )
    assert a5p["Q_psd"][0]
    assert not a5p["R_pd"][0]  # the control weight is negative by design
    assert a5p["A_C_sqrtQ_exactly_observable"][0]
    assert member["S1"]["H_psd"][0]
    assert member["S1"]["exactly_detectable"][0]
    assert member["S2"]["M_psd"][0]


def test_uniform_convexity_definite_case():
    spec = ProblemSpec(
        n=1, r=1, A=0.0, B=1.0, C=0.5, D=0.0, G=0.1, Q=1.0, R=1.0,
        Gamma=0.2, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[0.0], x0_cov=[[1.0]], N=4, horizon=1.0, H=[[1.0]],
    )
    verdict, witness = check_uniform_convexity(spec, N_small=2)
    assert verdict == "uniformly_convex"
    assert witness > 0.0


def test_uniform_convexity_indefinite_benchmark(spec_sec6_finite):
    verdict, _ = check_uniform_convexity(spec_sec6_finite, N_small=2)
    # indefinite R with a short horizon: still convex thanks to the noise
    assert verdict in ("uniformly_convex", "convex")


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_uniform_convexity_witness_is_population_upsilon(spec_sec6_finite, N):
    # the stacked equation's control weight is block-diagonal in Upsilon_N
    _, witness = check_uniform_convexity(spec_sec6_finite, N_small=N)
    assert witness == solve_finite_N(spec_sec6_finite, N=N).min_upsilon_eig


def test_uniform_convexity_any_population(spec_sec6_finite):
    verdict, witness = check_uniform_convexity(spec_sec6_finite, N_small=10)
    assert verdict == "uniformly_convex" and witness > 0.0


def test_uniform_convexity_negative_weight():
    # Upsilon = R + D'HD = -1 at the horizon: no convexity certificate
    spec = ProblemSpec(
        n=1, r=1, A=0.1, B=1.0, C=1.0, D=1.0, G=-0.1, Q=1.0, R=-2.0,
        Gamma=-0.2, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[0.0], x0_cov=[[1.0]], N=4, horizon=0.5, H=[[1.0]],
    )
    verdict, witness = check_uniform_convexity(spec, N_small=2)
    assert verdict == "indeterminate"
    assert isinstance(witness, float) and witness <= -1.0


def test_theorem_verdicts_agree_wellposed(spec_wellposed):
    (ok_ii, d2), (ok_iii, d3) = theorem_verdicts(spec_wellposed, FAST, t_sim=10.0)
    assert ok_ii, d2
    assert ok_iii, d3


def test_theorem_verdicts_agree_unsolvable(spec_sec6):
    # no algebraic solution exists; both sides of the equivalence must fail
    (ok_ii, _), (ok_iii, _) = theorem_verdicts(spec_sec6, FAST, t_sim=10.0)
    assert ok_ii == ok_iii == False


@settings(derandomize=True, max_examples=150, deadline=None)
@given(n=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_theorem_verdicts_agree_on_indefinite_specs(n, seed):
    # (ii) <=> (iii) with Q and R of either sign, A not shifted stable and
    # multiplicative noise in both the state and the control channel
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return rng.standard_normal((rows, cols))

    S = mat(n, n)
    spec = ProblemSpec(
        n=n, r=1, A=mat(n, n), B=mat(n, 1), C=0.5 * mat(n, n), D=0.5 * mat(n, 1),
        G=0.3 * mat(n, n), Q=S + S.T, R=mat(1, 1), Gamma=0.3 * mat(n, n),
        f=zero_signal(n), sigma=zero_signal(n), eta=zero_signal(n),
        x0_mean=np.zeros(n), x0_cov=np.eye(n), N=10, horizon=None,
    )
    (ok_ii, d2), (ok_iii, d3) = theorem_verdicts(spec, FAST, t_sim=8.0)
    event(f"(ii) = (iii) = {ok_ii}" if ok_ii == ok_iii else "disagree")
    assert ok_ii == ok_iii, (d2, d3)


def test_theorem_verdicts_refuse_a_finite_horizon(spec_sec6_finite):
    with pytest.raises(SolverError, match="finite-horizon"):
        theorem_verdicts(spec_sec6_finite, FAST)


def test_stability_report_shapes(spec_wellposed):
    rep = stability_report(spec_wellposed, FAST, t_sim=10.0)
    payload = rep.to_json()
    assert payload["ms_stable"][0] in (True, False)
    assert "A5prime" in payload and "theorem_ii" in payload
    assert rep.A6_holds[0]


def test_stability_report_finite(spec_sec6_finite):
    rep = stability_report(spec_sec6_finite, FAST)
    assert rep.convexity is not None
    assert rep.theorem_ii is None  # infinite-horizon only
