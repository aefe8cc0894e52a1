import numpy as np
import pytest

from mfsoc.model import ProblemSpec, agent_rng, constant_signal, initial_chol, zero_signal
from mfsoc.riccati import solve_finite_limit, solve_finite_N
from mfsoc.simulator import (
    DivergenceError,
    SimConfig,
    SimulationOutput,
    simulate_meanfield_type,
    simulate_population,
)
from mfsoc.synthesis import ControlLaw, build_law


def zero_law(T, n=1, r=1, m=11):
    grid = np.linspace(0.0, T, m)
    return ControlLaw(
        grid=grid,
        F_self=np.zeros((m, r, n)),
        F_mf=np.zeros((m, r, n)),
        g=np.zeros((m, r)),
        xbar=np.zeros((m, n)),
        mf_source="xbar",
        horizon="finite",
    )


def noise_free_spec(T=1.0):
    return ProblemSpec(
        n=1, r=1, A=-0.5, B=1.0, C=0.0, D=0.0, G=0.0, Q=1.0, R=1.0,
        Gamma=0.0, f=constant_signal([0.2]), sigma=zero_signal(1),
        eta=zero_signal(1), x0_mean=[1.0], x0_cov=[[0.0]], N=3, horizon=T,
    )


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(dt=0.0)
    with pytest.raises(ValueError):
        SimConfig(replications=0)
    cfg = SimConfig()
    spec = noise_free_spec()
    assert cfg.horizon_for(spec) == 1.0
    with pytest.raises(ValueError):
        cfg.horizon_for(ProblemSpec.from_json({**spec.to_json(), "horizon": "infinite"}))


def test_noise_free_reduces_to_ode():
    # without diffusion or initial spread the simulation is a deterministic
    # Euler scheme; compare to the exact linear response
    spec = noise_free_spec()
    law = zero_law(1.0)
    out = simulate_population(spec, law, SimConfig(dt=1e-4, replications=1), N=3)
    t = out.grid
    want = np.exp(-0.5 * t) * 1.0 + 0.4 * (1.0 - np.exp(-0.5 * t))  # x' = -x/2 + 0.2
    got = np.sqrt(out.state_second_moment)
    np.testing.assert_allclose(got, want, atol=2e-4)


def test_sim_determinism():
    spec = ProblemSpec.from_json({**noise_free_spec().to_json()})
    spec.C = np.array([[0.3]])
    spec.sigma = constant_signal([0.1])
    spec.x0_cov = np.array([[0.1]])
    law = zero_law(1.0)
    cfg = SimConfig(dt=1e-3, replications=4, seed=42, thinning=5)
    a = simulate_population(spec, law, cfg, N=5, collect_agents=2)
    b = simulate_population(spec, law, cfg, N=5, collect_agents=2)
    np.testing.assert_array_equal(a.trajectories, b.trajectories)
    np.testing.assert_array_equal(a.rep_social, b.rep_social)
    c = simulate_population(spec, law, SimConfig(dt=1e-3, replications=4, seed=43), N=5)
    assert not np.allclose(a.rep_social, c.rep_social)


def test_common_random_numbers_across_population_sizes():
    # decoupled agents (G = 0, Gamma = 0, law ignores the average): agent 0
    # must follow the identical path whether simulated among 2 or 7 agents
    spec = ProblemSpec.from_json({**noise_free_spec().to_json()})
    spec.C = np.array([[0.4]])
    spec.x0_cov = np.array([[0.1]])
    law = zero_law(1.0)
    cfg = SimConfig(dt=1e-3, replications=1, seed=5, thinning=1)
    small = simulate_population(spec, law, cfg, N=2, collect_agents=1)
    large = simulate_population(spec, law, cfg, N=7, collect_agents=1)
    np.testing.assert_array_equal(small.trajectories[0], large.trajectories[0])


def test_chunked_replications_match_single_chunk(monkeypatch):
    import mfsoc.simulator as sim
    spec = ProblemSpec.from_json({**noise_free_spec().to_json()})
    spec.C = np.array([[0.3]])
    spec.x0_cov = np.array([[0.1]])
    law = zero_law(1.0)
    cfg = SimConfig(dt=5e-3, replications=6, seed=9)
    whole = simulate_population(spec, law, cfg, N=3)
    monkeypatch.setattr(sim, "_MAX_WIDTH", 6)  # forces 2-replication chunks
    parts = simulate_population(spec, law, cfg, N=3)
    np.testing.assert_allclose(parts.rep_social, whole.rep_social, rtol=1e-12)
    np.testing.assert_allclose(parts.state_second_moment, whole.state_second_moment,
                               rtol=1e-12)


def test_time_blocks_keep_each_agent_stream(monkeypatch):
    # decoupled agents with additive noise: agent i of replication 0 follows
    # the Euler path driven by its own stream, n initial normals first and
    # then one increment per step, however many time blocks draw them
    import mfsoc.simulator as sim
    spec = ProblemSpec.from_json({**noise_free_spec().to_json()})
    spec.sigma = constant_signal([0.3])
    spec.x0_cov = np.array([[0.1]])
    law = zero_law(1.0)
    cfg = SimConfig(dt=5e-3, replications=2, seed=7, thinning=1)
    N, steps = 3, 200
    one = simulate_population(spec, law, cfg, N=N, collect_agents=N)
    monkeypatch.setattr(sim, "_BLOCK_ELEMS", 7 * 2 * N)  # 7-step blocks, the last partial
    blocks = simulate_population(spec, law, cfg, N=N, collect_agents=N)
    a, f, s = -0.5, 0.2, 0.3
    sqdt = np.sqrt(cfg.dt)
    L0 = initial_chol(spec)[0, 0]
    for i in range(N):
        z = agent_rng(cfg.seed, 0, i).standard_normal(1 + steps)
        x = np.empty(steps + 1)
        x[0] = spec.x0_mean[0] + L0 * z[0]
        for k in range(steps):
            x[k + 1] = x[k] + (a * x[k] + f) * cfg.dt + s * (z[1 + k] * sqdt)
        np.testing.assert_array_equal(blocks.trajectories[i, :, 0], x)
    np.testing.assert_array_equal(blocks.rep_social, one.rep_social)
    np.testing.assert_array_equal(blocks.state_second_moment, one.state_second_moment)


def test_divergence_located_across_chunks(monkeypatch):
    # multiplicative noise decides which agent blows up first; with 2-replication
    # chunks the first divergence lies in the second chunk, at (replication 3,
    # agent 0) and t = 2.45, values pinned from the stacked (replication, agent,
    # n) kernel
    import mfsoc.simulator as sim
    spec = ProblemSpec(
        n=1, r=1, A=12.0, B=1.0, C=3.0, D=0.0, G=0.0, Q=1.0, R=1.0, Gamma=0.0,
        f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.0]], N=3, horizon=3.0,
    )
    monkeypatch.setattr(sim, "_MAX_WIDTH", 6)
    with pytest.raises(DivergenceError) as exc:
        simulate_population(spec, zero_law(3.0), SimConfig(dt=1e-2, replications=4, seed=11), N=3)
    assert (exc.value.replication, exc.value.agent) == (3, 0)
    assert exc.value.time == pytest.approx(2.45, abs=1e-12)


def test_meanfield_type_uses_stored_trajectory(spec_sec6_finite, sol_sec6_finite):
    law = build_law(sol_sec6_finite, spec_sec6_finite)
    cfg = SimConfig(dt=1e-3, replications=3, seed=1)
    out = simulate_meanfield_type(spec_sec6_finite, law, cfg)
    assert out.individual_costs.shape == (1,)
    # the consistency statistic is against the same stored path the coupling
    # used, so it measures only the single agent's own fluctuation
    assert out.consistency_error > 0.0


def test_xbar_coupling_refuses_centralized_law(spec_sec6_finite):
    # a centralized law stores no mean-field path (its xbar is all zero), so
    # coupling to it would silently simulate against a zero mean field
    law = build_law(solve_finite_N(spec_sec6_finite, N=10), spec_sec6_finite)
    assert law.mf_source == "empirical"
    cfg = SimConfig(dt=1e-2, replications=2, seed=1)
    with pytest.raises(ValueError, match="mean-field path"):
        simulate_population(spec_sec6_finite, law, cfg, N=10, coupling="xbar")
    with pytest.raises(ValueError, match="mean-field path"):
        simulate_meanfield_type(spec_sec6_finite, law, cfg)


def evaluate_cost(grid, X, U, ref, spec: ProblemSpec):
    """Per-agent costs from sampled trajectories, the simulator's oracle.

    grid: (m,) uniform times; X: (m, N, n) states; U: (m, N, r) controls;
    ref: (m, n) trajectory standing in for the population average.
    Includes the terminal term when the grid ends at the finite horizon.
    """
    eta = spec.eta(grid)
    dev = X - ref[:, None, :] @ spec.Gamma.T - eta[:, None, :]
    lrun = np.einsum("tin,nm,tim->ti", dev, spec.Q, dev) \
        + np.einsum("tir,rs,tis->ti", U, spec.R, U)
    costs = np.trapezoid(lrun, x=grid, axis=0)
    if not spec.infinite_horizon and abs(grid[-1] - spec.horizon) <= 1e-9:
        devT = X[-1] - ref[-1] @ spec.Gamma0.T - spec.eta0
        costs = costs + np.einsum("in,nm,im->i", devT, spec.H, devT)
    return costs


def test_costs_match_standalone_evaluator(spec_sec6_finite):
    # deterministic run: the simulator's accumulated cost equals the
    # standalone trapezoid evaluation of the recorded trajectories
    spec = ProblemSpec.from_json(spec_sec6_finite.to_json())
    spec.C = np.zeros((1, 1))
    spec.D = np.zeros((1, 1))
    spec.R = np.ones((1, 1))  # keep the control weight positive without D
    spec.sigma = zero_signal(1)
    spec.x0_cov = np.zeros((1, 1))
    sol = solve_finite_limit(spec)
    law = build_law(sol, spec)
    cfg = SimConfig(dt=1e-3, replications=1, thinning=1)
    out = simulate_population(spec, law, cfg, N=4, collect_agents=4)
    ref = out.trajectories.mean(axis=0)  # empirical average on the grid
    costs = evaluate_cost(out.grid, np.swapaxes(out.trajectories, 0, 1),
                          np.swapaxes(out.controls, 0, 1), ref, spec)
    np.testing.assert_allclose(np.sort(costs), np.sort(out.individual_costs),
                               rtol=1e-6)


def test_initial_draw_moments():
    # agents start i.i.d. N(x0_mean, x0_cov), so at t = 0 the agent- and
    # replication-averaged ||x||^2 estimates ||x0_mean||^2 + tr(x0_cov)
    mean, cov = np.array([1.0, -0.5]), np.array([[0.3, 0.1], [0.1, 0.2]])
    spec = ProblemSpec(
        n=2, r=1, A=-np.eye(2), B=[[1.0], [0.0]], C=np.zeros((2, 2)),
        D=np.zeros((2, 1)), G=np.zeros((2, 2)), Q=np.eye(2), R=1.0,
        Gamma=np.zeros((2, 2)), f=zero_signal(2), sigma=zero_signal(2),
        eta=zero_signal(2), x0_mean=mean, x0_cov=cov, N=200, horizon=0.01,
    )
    cfg = SimConfig(dt=1e-2, replications=20, seed=5)
    out = simulate_population(spec, zero_law(0.01, n=2), cfg)
    want = mean @ mean + np.trace(cov)
    # Var ||x||^2 = 2 tr(cov^2) + 4 mean' cov mean, over 4000 draws
    se = np.sqrt((2.0 * np.trace(cov @ cov) + 4.0 * mean @ cov @ mean) / 4000)
    assert abs(out.state_second_moment[0] - want) < 4.0 * se


def test_divergence_detected():
    spec = ProblemSpec.from_json({**noise_free_spec(T=1.0).to_json()})
    spec.A = np.array([[40.0]])  # e^40 >> divergence threshold
    law = zero_law(1.0)
    with pytest.raises(DivergenceError) as exc:
        simulate_population(spec, law, SimConfig(dt=1e-3, replications=1), N=2)
    assert 0.0 < exc.value.time <= 1.0


def test_zero_problem_zero_cost():
    spec = ProblemSpec(
        n=1, r=1, A=0.0, B=0.0, C=0.0, D=0.0, G=0.0, Q=0.0, R=0.0,
        Gamma=0.0, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[0.0], x0_cov=[[0.0]], N=2, horizon=1.0,
    )
    out = simulate_population(spec, zero_law(1.0), SimConfig(dt=1e-2, replications=2), N=2)
    assert out.social_cost == 0.0
    assert out.consistency_error == 0.0
