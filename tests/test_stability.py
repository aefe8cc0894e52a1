import numpy as np
import pytest

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
