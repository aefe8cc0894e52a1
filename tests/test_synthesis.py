import numpy as np
import pytest

from mfsoc.linalg import Tolerance, pinv, rk4_grid
from mfsoc.model import ProblemSpec, zero_signal, constant_signal
from mfsoc.riccati import (RiccatiFiniteSolution, check_ranges, solve_are, solve_are_N,
                           solve_finite_limit, solve_finite_N)
from mfsoc.synthesis import RangeConditionError, _closed_loop, build_law


def test_infinite_law_gains(spec_wellposed, sol_wellposed):
    law = build_law(sol_wellposed, spec_wellposed)
    P, Pi, Ups = sol_wellposed.P, sol_wellposed.Pi, sol_wellposed.Upsilon
    B, C, D = spec_wellposed.B, spec_wellposed.C, spec_wellposed.D
    Ui = pinv(Ups)
    np.testing.assert_allclose(law.F_self[0], -Ui @ (B.T @ P + D.T @ P @ C))
    np.testing.assert_allclose(law.F_mf[0], -Ui @ B.T @ (Pi - P))
    # gains are constant in time
    np.testing.assert_allclose(law.F_self[-1], law.F_self[0])
    assert law.mf_source == "xbar"
    assert law.horizon == "infinite"


def test_infinite_law_offset_formula(spec_wellposed, sol_wellposed):
    law = build_law(sol_wellposed, spec_wellposed)
    k = law.grid.size // 3
    t = law.grid[k]
    Ui = pinv(sol_wellposed.Upsilon)
    want = -Ui @ (spec_wellposed.B.T @ sol_wellposed.s[k]
                  + spec_wellposed.D.T @ sol_wellposed.P @ spec_wellposed.sigma(t))
    np.testing.assert_allclose(law.g[k], want, atol=1e-12)


def test_finite_law_terminal_gain(spec_sec6_finite, sol_sec6_finite):
    law = build_law(sol_sec6_finite, spec_sec6_finite)
    k = -1  # terminal knot: P(T) = H = 1
    s = spec_sec6_finite
    Ui = pinv(sol_sec6_finite.Upsilon[k])
    want = -Ui @ (s.B.T @ s.H + s.D.T @ s.H @ s.C)
    np.testing.assert_allclose(law.F_self[k], want, atol=1e-12)
    assert law.horizon == "finite"


def test_centralized_law_uses_empirical_average(spec_sec6_finite):
    solN = solve_finite_N(spec_sec6_finite, N=8)
    law = build_law(solN, spec_sec6_finite)
    assert law.mf_source == "empirical"


def test_centralized_steady_law(spec_wellposed):
    solN = solve_are_N(spec_wellposed, t_sim=5.0, N=20)
    law = build_law(solN, spec_wellposed)
    assert law.mf_source == "empirical"
    M = solN.P + solN.K / 20
    Ui = pinv(solN.Upsilon)
    want = -Ui @ (spec_wellposed.B.T @ solN.P + spec_wellposed.D.T @ M @ spec_wellposed.C)
    np.testing.assert_allclose(law.F_self[0], want)
    k = law.grid.size // 3
    want_g = -Ui @ (spec_wellposed.B.T @ solN.s[k]
                    + spec_wellposed.D.T @ M @ spec_wellposed.sigma(law.grid[k]))
    np.testing.assert_allclose(law.g[k], want_g, atol=1e-12)


def test_build_law_picks_mf_source(spec_sec6_finite, sol_sec6_finite, spec_wellposed,
                                   sol_wellposed):
    # the population field alone decides what F_mf multiplies
    cases = [
        (sol_sec6_finite, spec_sec6_finite, "xbar", "finite"),
        (solve_finite_N(spec_sec6_finite, N=4), spec_sec6_finite, "empirical", "finite"),
        (sol_wellposed, spec_wellposed, "xbar", "infinite"),
        (solve_are_N(spec_wellposed, t_sim=2.0, N=4), spec_wellposed, "empirical", "infinite"),
    ]
    for sol, spec, source, horizon in cases:
        law = build_law(sol, spec)
        assert (law.mf_source, law.horizon) == (source, horizon)
        if source == "xbar":
            assert law.xbar[0, 0] == pytest.approx(spec.x0_mean[0])
        else:
            np.testing.assert_allclose(law.xbar, 0.0)


def test_range_condition_refusal():
    # D = 0 and R = 0 make the control weight exactly singular while the
    # feedback numerator stays nonzero: the formula must be refused
    spec = ProblemSpec(
        n=1, r=1, A=-1.0, B=1.0, C=0.0, D=0.0, G=0.0, Q=1.0, R=0.0,
        Gamma=0.0, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.0]], N=2,
    )
    sol = solve_are(spec, t_sim=2.0)
    assert sol.P[0, 0] == pytest.approx(0.5)  # -2P + 1 = 0 with a dead channel
    with pytest.raises(RangeConditionError):
        build_law(sol, spec)


def test_range_condition_refusal_population_form():
    # the same dead channel at population N: Upsilon = 0 must refuse the
    # centralized law too
    spec = ProblemSpec(
        n=1, r=1, A=-1.0, B=1.0, C=0.0, D=0.0, G=0.0, Q=1.0, R=0.0,
        Gamma=0.0, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.0]], N=2,
    )
    sol = solve_are_N(spec, t_sim=2.0, N=2)
    assert sol.P[0, 0] == pytest.approx(0.5)
    assert not check_ranges(sol, spec).inclusions["feedback_gain"][0]
    with pytest.raises(RangeConditionError):
        build_law(sol, spec)


def test_range_condition_refusal_finite_horizon_every_knot():
    # Upsilon = R + P = 0 at knot 1 only, with Psi = P = 1 there: one knot
    # out of 1,001 must refuse the law (a check of every second knot passes)
    spec = ProblemSpec(
        n=1, r=1, A=-1.0, B=1.0, C=0.0, D=1.0, G=0.0, Q=1.0, R=-1.0,
        Gamma=0.0, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.0]], N=2, horizon=1.0, H=[[0.5]],
    )
    m = 1001
    P = np.full((m, 1, 1), 0.5)
    P[1] = 1.0
    sol = RiccatiFiniteSolution(
        grid=np.linspace(0.0, 1.0, m), P=P, K=np.zeros((m, 1, 1)), s=np.zeros((m, 1)),
        Upsilon=spec.R + P, residual=0.0, min_upsilon_eig=-0.5)
    rep = check_ranges(sol, spec)
    assert rep.inclusions["feedback_gain"] == (False, 1.0)
    assert rep.inclusions["meanfield_gain"] == (True, 0.0)
    assert rep.inclusions["offset"] == (True, 0.0)
    with pytest.raises(RangeConditionError, match="feedback_gain"):
        build_law(sol, spec)


def simulator_tables(spec, law, tgrid, coupling):
    """Oracle: the simulator's own closed-loop block, as it stood before the
    loop was derived once in `_closed_loop`.  Per knot, with xa the live
    average, u = Fs x + Ku xa + u0, drift Acl x + Kd xa + d0, diffusion
    Ccl x + Kc xa + c0 and cost deviation x - Ke xa - e0."""
    Bm, D, G, Gam = spec.B, spec.D, spec.G, spec.Gamma
    Fs, Fm, g, xb = (law.F_self_at(tgrid), law.F_mf_at(tgrid), law.g_at(tgrid),
                     law.xbar_at(tgrid))
    use_emp = law.mf_source == "empirical"
    couple_emp = coupling == "empirical"
    Ku, u0 = (Fm, g) if use_emp else (0.0 * Fm, g + np.einsum("krn,kn->kr", Fm, xb))
    cpl, cpl_xb = (1.0, 0.0 * xb) if couple_emp else (0.0, xb)
    Acl, Kd = spec.A + Bm @ Fs, Bm @ Ku + cpl * G
    d0 = u0 @ Bm.T + cpl_xb @ G.T + spec.f(tgrid)
    Ccl, Kc = spec.C + D @ Fs, D @ Ku
    c0 = u0 @ D.T + spec.sigma(tgrid)
    Ke, e0 = cpl * Gam, cpl_xb @ Gam.T + spec.eta(tgrid)
    return dict(A=Acl, Aw=Kd, b=d0, C=Ccl, Cw=Kc, c=c0, F=Fs, Fw=Ku, u=u0,
                Gw=np.broadcast_to(Ke, Acl.shape), e=e0)


@pytest.mark.parametrize("coupling", ["empirical", "xbar"])
@pytest.mark.parametrize("population", [None, 3])
def test_closed_loop_matches_simulator_formulas(population, coupling):
    rng = np.random.default_rng(12)

    def mat(rows, cols):
        return 0.5 * rng.standard_normal((rows, cols))

    def pd(k):
        M = mat(k, k)
        return M @ M.T + 0.1 * np.eye(k)

    n, r, T = 2, 2, 0.3
    spec = ProblemSpec(
        n=n, r=r, A=mat(n, n), B=mat(n, r), C=mat(n, n), D=mat(n, r),
        G=mat(n, n), Q=pd(n), R=pd(r), Gamma=mat(n, n),
        f=constant_signal(mat(n, 1)[:, 0]), sigma=constant_signal(mat(n, 1)[:, 0]),
        eta=constant_signal(mat(n, 1)[:, 0]), x0_mean=mat(n, 1)[:, 0],
        x0_cov=pd(n), N=3, horizon=T, H=pd(n), Gamma0=mat(n, n),
        eta0=mat(n, 1)[:, 0],
    )
    tol = Tolerance(ode_step=T / 40)
    sol = (solve_finite_limit(spec, tol) if population is None
           else solve_finite_N(spec, tol, N=population))
    law = build_law(sol, spec, tol)
    assert law.mf_source == ("xbar" if population is None else "empirical")
    assert np.all(law.F_mf != 0.0)
    ts = rk4_grid(0.0, T, T / 17)
    got = _closed_loop(spec, law, ts, coupling)._asdict()
    want = simulator_tables(spec, law, ts, coupling)
    assert got.keys() == want.keys()
    for name in want:
        assert got[name].shape == want[name].shape, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)
