import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mfsoc.linalg import BlowUpError, Tolerance
from mfsoc.model import ProblemSpec, agent_normals, agent_rngs, constant_signal, zero_signal
from mfsoc.riccati import SolverError, solve_are, solve_are_N, solve_finite_limit, solve_finite_N
from mfsoc.simulator import SimConfig, simulate_meanfield_type, simulate_population
from mfsoc.social import (
    _closure_costs,
    asymptotic_value,
    centralized_cost,
    expected_social_cost,
    gap_curve,
    gap_curve_exact,
)
from mfsoc.synthesis import ControlLaw, build_law


def kronecker_cost(spec, law, N, step):
    """Oracle: per-agent cost from the moments of the stacked nN-dim loop.

    Propagates the full mean mu and second moment S of (x_1, ..., x_N) with
    the same RK4 stages as expected_social_cost, so the two agree to
    rounding; its cost grows like (nN)^3 per step.
    """
    n, T = spec.n, float(spec.horizon)
    A, B, C, D, G = spec.A, spec.B, spec.C, spec.D, spec.G
    emp = law.mf_source == "empirical"
    I_N, E_N, ones = np.eye(N), np.full((N, N), 1.0 / N), np.ones(N)
    steps = max(1, int(round(T / step)))
    h = T / steps

    def rates(t, mu, S):
        Fs, Fm, g = law.F_self_at(t), law.F_mf_at(t), law.g_at(t)
        if emp:
            u_off, mix, d = g, B @ Fm + G, D @ Fm
        else:
            u_off, mix, d = Fm @ law.xbar_at(t) + g, G, np.zeros((n, n))
        a = C + D @ Fs
        s0 = D @ u_off + spec.sigma(float(t))
        Acl = np.kron(I_N, A + B @ Fs) + np.kron(E_N, mix)
        b = np.kron(ones, B @ u_off + spec.f(float(t)))
        dS = Acl @ S + S @ Acl.T + np.outer(b, mu) + np.outer(mu, b)
        # agent i's noise a x_i + d x^(N) + s0 loads only its diagonal block
        Ld = np.kron(I_N, a) + np.kron(E_N, d)
        mu_d = Ld @ mu
        for i in range(N):
            blk = slice(i * n, (i + 1) * n)
            Li = Ld[blk]
            mi = mu_d[blk]
            dS[blk, blk] += (Li @ S @ Li.T + np.outer(mi, s0) + np.outer(s0, mi)
                             + np.outer(s0, s0))
        Md = np.kron(I_N, np.eye(n)) - np.kron(E_N, spec.Gamma)
        Ku = np.kron(I_N, Fs) + (np.kron(E_N, Fm) if emp else 0.0)
        return Acl @ mu + b, dS, (
            _stacked_quad(Md, spec.Q, spec.eta(float(t)), mu, S, N)
            + _stacked_quad(Ku, spec.R, -u_off, mu, S, N)) / N

    mu = np.kron(ones, spec.x0_mean)
    S = np.outer(mu, mu) + np.kron(I_N, spec.x0_cov)
    cost, t = 0.0, 0.0
    for _ in range(steps):
        k1 = rates(t, mu, S)
        k2 = rates(t + h / 2, mu + h / 2 * k1[0], S + h / 2 * k1[1])
        k3 = rates(t + h / 2, mu + h / 2 * k2[0], S + h / 2 * k2[1])
        k4 = rates(t + h, mu + h * k3[0], S + h * k3[1])
        mu = mu + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        S = S + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        cost += h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        t += h
    M0 = np.kron(I_N, np.eye(n)) - np.kron(E_N, spec.Gamma0)
    return cost + _stacked_quad(M0, spec.H, spec.eta0, mu, S, N) / N


def _stacked_quad(M, W, ref, mu, S, N):
    """sum_i E (z_i - ref)' W (z_i - ref) for the stacked z = M x."""
    k = W.shape[0]
    Sz = (M @ S @ M.T).reshape(N, k, N, k)[np.arange(N), :, np.arange(N)]
    mz = (M @ mu).reshape(N, k)
    return float(np.einsum("ipq,pq->", Sz, W) - 2.0 * mz.sum(axis=0) @ W @ ref
                 + N * (ref @ W @ ref))


def _laws(spec, N, tol=Tolerance()):
    dec = build_law(solve_finite_limit(spec, tol), spec, tol)
    cen = build_law(solve_finite_N(spec, tol, N=N), spec, tol)
    return dec, cen


def test_value_components(spec_wellposed, sol_wellposed):
    val = asymptotic_value(spec_wellposed, sol_wellposed)
    assert val.value == pytest.approx(val.components_sum)
    assert val.quad_spread == pytest.approx(
        float(np.trace(sol_wellposed.P @ spec_wellposed.x0_cov)))
    assert val.quad_mean == pytest.approx(
        float(spec_wellposed.x0_mean @ sol_wellposed.Pi @ spec_wellposed.x0_mean))
    assert val.tail_bound < 1e-3
    assert np.all(np.isfinite(val.m_integrand))


def test_value_agrees_with_monte_carlo(spec_wellposed, sol_wellposed):
    # the closed-form limit must match the simulated single-agent cost
    law = build_law(sol_wellposed, spec_wellposed)
    cfg = SimConfig(dt=2e-3, T_sim=15.0, replications=800, seed=21)
    out = simulate_meanfield_type(spec_wellposed, law, cfg)
    val = asymptotic_value(spec_wellposed, sol_wellposed)
    assert abs(out.social_cost - val.value) < 3.0 * out.social_se + 1e-3


def test_value_refuses_non_decaying_signals(spec_sec6):
    sol = solve_are(spec_sec6, t_sim=10.0, pin_P=[[0.6808]])
    with pytest.raises(SolverError):
        asymptotic_value(spec_sec6, sol)  # constant diffusion offset: no L2 limit


def test_value_refuses_other_solutions(spec_wellposed, spec_sec6_finite, sol_sec6_finite):
    # the closed form reads the limit-form pair (M = P): a population-N or a
    # finite-horizon solution is refused, not evaluated as if it were one
    for spec, sol, kind in ((spec_wellposed, solve_are_N(spec_wellposed, t_sim=15.0, N=2),
                             "a RiccatiInfiniteSolution at population 2"),
                            (spec_sec6_finite, sol_sec6_finite,
                             "a RiccatiFiniteSolution at population None")):
        with pytest.raises(ValueError, match=re.escape(
                f"needs the limit-form infinite-horizon solution (solve_are), got {kind}")):
            asymptotic_value(spec, sol)


def test_centralized_cost_runs(spec_sec6_finite):
    cfg = SimConfig(dt=2e-3, replications=10, seed=2)
    out = centralized_cost(spec_sec6_finite, N=5, cfg=cfg)
    assert out.individual_costs.shape == (5,)
    assert out.social_se > 0.0


def test_gap_curve_pairing(spec_sec6_finite):
    cfg = SimConfig(dt=2e-3, replications=60, seed=17)
    curve = gap_curve(spec_sec6_finite, [2, 8], cfg)
    assert curve.N_values.tolist() == [2, 8]
    # common random numbers: the paired standard error must beat the
    # two-sample one by a wide margin
    for j in range(2):
        unpaired = np.hypot(curve.decentralized_se[j], curve.centralized_se[j])
        assert curve.epsilon_se[j] < 0.5 * unpaired
    # the decentralized strategy can only lose against the optimum
    # (up to Monte Carlo resolution)
    assert np.all(curve.epsilon > -3.0 * curve.epsilon_se - 1e-12)


@pytest.mark.parametrize("reps", [1, 30])
def test_gap_curve_matches_per_call_oracle(spec_sec6_finite, reps):
    # the oracle is gap_curve's definition from one simulate_population call
    # for the decentralized law and one centralized_cost call per N
    Ns, cfg = [1, 3, 8], SimConfig(dt=2e-3, replications=reps, seed=19)
    curve = gap_curve(spec_sec6_finite, Ns, cfg)
    dec = build_law(solve_finite_limit(spec_sec6_finite), spec_sec6_finite)
    for j, N in enumerate(Ns):
        out_d = simulate_population(spec_sec6_finite, dec, cfg, N=N)
        out_c = centralized_cost(spec_sec6_finite, N, cfg)
        diff = (out_d.rep_social - out_c.rep_social) / N
        se = diff.std(ddof=1) / np.sqrt(reps) if reps > 1 else 0.0
        assert curve.epsilon[j] == diff.mean() and curve.epsilon_se[j] == se, N
        assert curve.decentralized[j] == out_d.social_cost / N, N
        assert curve.centralized[j] == out_c.social_cost / N, N


def test_gap_curve_builds_each_stream_once(monkeypatch, spec_sec6_finite):
    # each (seed, replication, agent) stream is drawn once per gap curve,
    # whether the chunk fills its whole horizon from re-keyed streams or,
    # with _BLOCK_ELEMS shrunk below the horizon, draws from open streams
    import mfsoc.simulator as sim
    built, entries = [], set()

    def counting(entry):
        def wrapped(seed, replications, agents, *rest):
            entries.add(entry.__name__)
            built.extend((seed, b, i) for b in replications for i in agents)
            return entry(seed, replications, agents, *rest)
        return wrapped

    monkeypatch.setattr(sim, "agent_rngs", counting(agent_rngs))
    monkeypatch.setattr(sim, "agent_normals", counting(agent_normals))
    reps = 7
    for block_elems, entry in ((sim._BLOCK_ELEMS, "agent_normals"), (5 * reps * 5, "agent_rngs")):
        monkeypatch.setattr(sim, "_BLOCK_ELEMS", block_elems)
        built.clear()
        entries.clear()
        gap_curve(spec_sec6_finite, [2, 5, 3], SimConfig(dt=1e-2, replications=reps, seed=4))
        assert entries == {entry}
        assert sorted(built) == [(4, b, i) for b in range(reps) for i in range(5)]


def test_expected_cost_matches_monte_carlo(spec_sec6_finite):
    # the moment-ODE evaluation is the exact expectation of the simulated
    # cost, so a moderate Monte Carlo run must straddle it
    law = build_law(solve_finite_limit(spec_sec6_finite), spec_sec6_finite)
    for N in (3, 200):
        exact = expected_social_cost(spec_sec6_finite, law, N=N, step=5e-4)
        out = simulate_population(spec_sec6_finite, law,
                                  SimConfig(dt=5e-4, replications=600, seed=7), N=N)
        assert abs(out.social_cost / N - exact) < 3.0 * out.social_se / N + 1e-4, N


def test_expected_cost_guards(spec_sec6_finite, spec_sec6, sol_sec6_finite):
    law = build_law(sol_sec6_finite, spec_sec6_finite)
    with pytest.raises(Exception):
        expected_social_cost(spec_sec6, law, N=3)        # infinite horizon
    # no population cap: the exact gap at N = 10^6 sits on eps ~ 3.9e-3 / N
    N = 10 ** 6
    _, cen = _laws(spec_sec6_finite, N)
    eps = (expected_social_cost(spec_sec6_finite, law, N)
           - expected_social_cost(spec_sec6_finite, cen, N))
    assert np.isfinite(eps)
    assert eps * N == pytest.approx(3.9e-3, rel=2e-3)


@pytest.mark.parametrize("problem", ["sec6_finite", "example1"])
def test_closure_matches_kronecker_oracle(request, problem):
    spec = request.getfixturevalue(f"spec_{problem}")
    for N in (1, 2, 3, 10):
        for law in _laws(spec, N):
            want = kronecker_cost(spec, law, N, step=2e-3)
            got = expected_social_cost(spec, law, N, step=2e-3)
            assert abs(got - want) <= 1e-12 * abs(want), (N, law.mf_source)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), r=st.integers(1, 2), N=st.integers(1, 6),
       T=st.floats(0.05, 0.3), seed=st.integers(0, 2 ** 32 - 1))
def test_closure_matches_oracle_on_random_definite_specs(n, r, N, T, seed):
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        return 0.5 * rng.standard_normal((rows, cols))

    def pd(k):
        M = mat(k, k)
        return M @ M.T + 0.1 * np.eye(k)

    spec = ProblemSpec(
        n=n, r=r, A=mat(n, n), B=mat(n, r), C=mat(n, n), D=mat(n, r),
        G=mat(n, n), Q=pd(n), R=pd(r), Gamma=mat(n, n),
        f=constant_signal(mat(n, 1)[:, 0]), sigma=constant_signal(mat(n, 1)[:, 0]),
        eta=constant_signal(mat(n, 1)[:, 0]), x0_mean=mat(n, 1)[:, 0],
        x0_cov=pd(n), N=N, horizon=T, H=pd(n), Gamma0=mat(n, n),
        eta0=mat(n, 1)[:, 0],
    )
    for law in _laws(spec, N, Tolerance(ode_step=T / 40)):
        want = kronecker_cost(spec, law, N, step=T / 20)
        got = expected_social_cost(spec, law, N, step=T / 20)
        assert abs(got - want) <= 1e-12 * abs(want), law.mf_source


def _random_spec(rng, n, r, N, T):
    """Random definite spec with multiplicative noise (C, D != 0)."""
    def mat(rows, cols):
        return 0.5 * rng.standard_normal((rows, cols))

    def pd(k):
        M = mat(k, k)
        return M @ M.T + 0.1 * np.eye(k)

    def vec():
        return mat(n, 1)[:, 0]

    return ProblemSpec(
        n=n, r=r, A=mat(n, n), B=mat(n, r), C=mat(n, n), D=mat(n, r),
        G=mat(n, n), Q=pd(n), R=pd(r), Gamma=mat(n, n), f=constant_signal(vec()),
        sigma=constant_signal(vec()), eta=constant_signal(vec()), x0_mean=vec(),
        x0_cov=pd(n), N=N, horizon=T, H=pd(n), Gamma0=mat(n, n), eta0=vec(),
    )


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 3), r=st.integers(1, 2),
       Ns=st.lists(st.integers(1, 12), min_size=2, max_size=4, unique=True),
       T=st.floats(0.05, 0.3), seed=st.integers(0, 2 ** 32 - 1))
def test_batched_closure_equals_batches_of_one(n, r, Ns, T, seed):
    # the decentralized and the centralized law at each N in turn, so neither
    # the laws nor the N read the same reversed, and a row that picks up
    # another row's N or law changes its cost
    spec = _random_spec(np.random.default_rng(seed), n, r, max(Ns), T)
    tol = Tolerance(ode_step=T / 40)
    dec = build_law(solve_finite_limit(spec, tol), spec, tol)
    laws = [law for N in Ns
            for law in (dec, build_law(solve_finite_N(spec, tol, N=N), spec, tol))]
    pairs = [N for N in Ns for _ in range(2)]
    got = _closure_costs(spec, laws, pairs, T / 20)
    want = np.array([expected_social_cost(spec, law, N, T / 20)
                     for law, N in zip(laws, pairs)])
    assert got.shape == want.shape
    if n == 1:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)


def test_gap_curve_exact_matches_per_call_costs(spec_sec6_finite):
    Ns = [5, 10, 20, 50]
    curve = gap_curve_exact(spec_sec6_finite, Ns, step=1e-3)
    dec = build_law(solve_finite_limit(spec_sec6_finite), spec_sec6_finite)
    cen = [build_law(solve_finite_N(spec_sec6_finite, N=N), spec_sec6_finite) for N in Ns]
    np.testing.assert_array_equal(
        curve.decentralized, [expected_social_cost(spec_sec6_finite, dec, N, 1e-3) for N in Ns])
    np.testing.assert_array_equal(
        curve.centralized,
        [expected_social_cost(spec_sec6_finite, law, N, 1e-3) for law, N in zip(cen, Ns)])
    np.testing.assert_array_equal(curve.epsilon, curve.decentralized - curve.centralized)
    assert curve.N_values.tolist() == Ns


@pytest.mark.parametrize("N, step, match", [
    (-3, 2e-4, "population size"),
    (0, 2e-4, "population size"),
    (2.5, 2e-4, "population size"),
    (5, -1e-3, "step"),
    (5, 0.0, "step"),
    (5, float("nan"), "step"),
    (5, float("inf"), "step"),
])
def test_closure_rejects_bad_population_or_step(spec_sec6_finite, sol_sec6_finite,
                                                N, step, match):
    law = build_law(sol_sec6_finite, spec_sec6_finite)
    with pytest.raises(ValueError, match=match):
        expected_social_cost(spec_sec6_finite, law, N, step)


@pytest.mark.parametrize("N", [2.5, 0, -2])
@pytest.mark.parametrize("entry", ["solve_finite_N", "solve_are_N", "simulate_population",
                                   "gap_curve"])
def test_entry_points_refuse_bad_population(spec_sec6_finite, sol_sec6_finite, spec_wellposed,
                                            entry, N):
    calls = {
        "solve_finite_N": lambda: solve_finite_N(spec_sec6_finite, N=N),
        "solve_are_N": lambda: solve_are_N(spec_wellposed, t_sim=1.0, N=N),
        "simulate_population": lambda: simulate_population(
            spec_sec6_finite, build_law(sol_sec6_finite, spec_sec6_finite),
            SimConfig(dt=1e-2), N=N),
        "gap_curve": lambda: gap_curve(spec_sec6_finite, [N], SimConfig(dt=1e-2)),
    }
    with pytest.raises(ValueError, match="population size"):
        calls[entry]()


@pytest.mark.parametrize("entry, value, match", [
    ("solve_are", -1.0, "t_sim"), ("solve_are", 0.0, "t_sim"),
    ("solve_are", float("nan"), "t_sim"), ("solve_are", float("inf"), "t_sim"),
    ("solve_are_N", 0, "t_sim"), ("solve_are_N", float("inf"), "t_sim"),
    ("SimConfig.T_sim", -1.0, "T_sim"), ("SimConfig.T_sim", 0.0, "T_sim"),
    ("SimConfig.T_sim", float("nan"), "T_sim"),
    ("SimConfig.replications", 2.5, "replications"), ("SimConfig.replications", 0, "replications"),
    ("SimConfig.thinning", 2.5, "thinning"), ("SimConfig.thinning", -1, "thinning"),
    ("collect_agents", 6, "collect_agents"), ("collect_agents", -1, "collect_agents"),
    ("collect_agents", 1.5, "collect_agents"),
    ("SimConfig.seed", -1, "seed"), ("SimConfig.seed", 1.5, "seed"),
])
def test_entry_points_refuse_bad_horizons_and_counts(spec_sec6_finite, sol_sec6_finite,
                                                     spec_wellposed, entry, value, match):
    calls = {
        "solve_are": lambda: solve_are(spec_wellposed, t_sim=value),
        "solve_are_N": lambda: solve_are_N(spec_wellposed, t_sim=value, N=5),
        "SimConfig.T_sim": lambda: SimConfig(T_sim=value),
        "SimConfig.replications": lambda: SimConfig(replications=value),
        "SimConfig.thinning": lambda: SimConfig(thinning=value),
        "SimConfig.seed": lambda: SimConfig(seed=value),
        "collect_agents": lambda: simulate_population(
            spec_sec6_finite, build_law(sol_sec6_finite, spec_sec6_finite),
            SimConfig(dt=1e-2), N=5, collect_agents=value),
    }
    with pytest.raises(ValueError, match=match):
        calls[entry]()


def test_closure_blow_up_raises_with_its_time():
    # the own second moment grows like exp((2 A + C^2) t) = exp(89 t)
    spec = ProblemSpec(
        n=1, r=1, A=40.0, B=1.0, C=3.0, D=0.0, G=0.0, Q=1.0, R=1.0, Gamma=0.0,
        f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.1]], N=2, horizon=1.0,
    )
    grid = np.linspace(0.0, 1.0, 3)
    law = ControlLaw(grid=grid, F_self=np.zeros((3, 1, 1)), F_mf=np.zeros((3, 1, 1)),
                     g=np.zeros((3, 1)), xbar=np.zeros((3, 1)))
    with pytest.raises(BlowUpError) as info:
        expected_social_cost(spec, law, N=2, step=1e-3)
    assert 0.0 < info.value.time < 1.0


def test_gap_curve_exact_rejects_fractional_population(spec_sec6_finite):
    with pytest.raises(ValueError, match="population size"):
        gap_curve_exact(spec_sec6_finite, [5, 2.5], step=1e-3)


def test_gap_curve_exact_is_noiseless_and_decreasing(spec_sec6_finite):
    curve = gap_curve_exact(spec_sec6_finite, [2, 5], step=1e-3)
    assert np.all(curve.epsilon_se == 0.0)
    assert curve.epsilon[0] > curve.epsilon[1] > 0.0


def test_gap_shrinks_with_population(spec_sec6_finite):
    cfg = SimConfig(dt=2e-3, replications=200, seed=29)
    curve = gap_curve(spec_sec6_finite, [2, 32], cfg)
    assert curve.epsilon[1] < curve.epsilon[0] + 2.0 * np.hypot(*curve.epsilon_se)
