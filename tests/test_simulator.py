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
    for flag in ("replications", "seed", "thinning"):
        with pytest.raises(ValueError, match=flag):
            SimConfig(**{flag: True})
    cfg = SimConfig()
    spec = noise_free_spec()
    assert cfg.horizon_for(spec) == 1.0
    with pytest.raises(ValueError):
        cfg.horizon_for(ProblemSpec.from_json({**spec.to_json(), "horizon": "infinite"}))
    # dt must divide the horizon into whole steps: a 0.3 step would stop at
    # 0.9 or 1.2, and a step longer than the horizon would take one step of dt
    assert SimConfig(dt=0.1).horizon_for(spec) == 1.0
    assert SimConfig(dt=0.5, T_sim=1.5).horizon_for(spec) == 1.5
    for dt, T_sim in ((0.3, None), (2.0, None), (0.5, 1.2)):
        cfg = SimConfig(dt=dt, T_sim=T_sim)
        with pytest.raises(ValueError, match=f"dt = {dt:g} does not divide the horizon"):
            cfg.horizon_for(spec)
        with pytest.raises(ValueError, match="whole steps"):
            simulate_population(spec, zero_law(1.0), cfg, N=2)


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


def diverging_spec():
    return ProblemSpec(
        n=1, r=1, A=12.0, B=1.0, C=3.0, D=0.0, G=0.0, Q=1.0, R=1.0, Gamma=0.0,
        f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.0]], N=3, horizon=3.0,
    )


def test_divergence_located_across_chunks(monkeypatch):
    # multiplicative noise decides which agent blows up first; with 2-replication
    # chunks the first divergence lies in the second chunk, at (replication 3,
    # agent 0) and t = 2.45, values pinned from the stacked (replication, agent,
    # n) kernel.  The same holds whether every knot is a slab (one agent-state
    # budget) or the whole run is one (the default); the states stepped past
    # the divergence within a slab warn of nothing
    import warnings

    import mfsoc.simulator as sim
    monkeypatch.setattr(sim, "_MAX_WIDTH", 6)
    for slab_states, slab in ((1, 1), (sim._SLAB_STATES, 301)):
        monkeypatch.setattr(sim, "_SLAB_STATES", slab_states)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulate_population(noise_free_spec(T=3.0), zero_law(3.0), SimConfig(
                dt=1e-2, replications=4), N=3).diagnostics["slab_knots"] == slab
            with pytest.raises(DivergenceError) as exc:
                simulate_population(diverging_spec(), zero_law(3.0),
                                    SimConfig(dt=1e-2, replications=4, seed=11), N=3)
        assert (exc.value.replication, exc.value.agent) == (3, 0)
        assert exc.value.time == pytest.approx(2.45, abs=1e-12)


@pytest.mark.parametrize("slab_states", [None, 80], ids=["default", "one-knot-slabs"])
def test_batch_divergence_is_the_earliest_of_every_slab(monkeypatch, slab_states):
    # the first pair (F = -3, 20 agents) diverges at t = 2.59 and the second
    # (the zero law, 1 agent) at t = 2.45.  At 80 agent-states the first
    # pair's slabs are one knot long, so its failing slab is evaluated while
    # the second pair's slab holding t = 2.45 is still open; that slab is
    # tested before the raise, which reports the second pair.  By default both
    # pairs' last slabs close at the last knot, the first pair's first
    import warnings

    import mfsoc.simulator as sim
    if slab_states is not None:
        monkeypatch.setattr(sim, "_SLAB_STATES", slab_states)
    slow = zero_law(3.0)
    slow.F_self[:] = -3.0
    cfg = SimConfig(dt=1e-2, replications=4, seed=11)
    pairs = [(slow, 20), (zero_law(3.0), 1)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = []
        for pair in pairs:
            with pytest.raises(DivergenceError) as exc:
                sim._simulate(diverging_spec(), [pair], cfg)
            alone.append((exc.value.time, exc.value.agent, exc.value.replication))
        with pytest.raises(DivergenceError) as batch:
            sim._simulate(diverging_spec(), pairs, cfg)
    assert alone[0][0] == pytest.approx(2.59, abs=1e-12)
    assert alone[1][0] == pytest.approx(2.45, abs=1e-12)
    assert (batch.value.time, batch.value.agent, batch.value.replication) == alone[1]


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


@pytest.mark.parametrize("form", ["decentralized", "centralized"])
def test_noisy_coupled_costs_match_standalone_evaluator(spec_sec6_finite, form):
    # sec6_finite has C, D, sigma, G and Gamma nonzero, so the noise is
    # multiplicative and every w-term of the step is live (the centralized
    # law adds Fw and Cw).  With every knot recorded, the simulator's running
    # cost (a plain sum plus the trapezoid's endpoint halves) and terminal
    # cost equal the trapezoid evaluation of its own paths up to rounding
    spec, N = spec_sec6_finite, 6
    sol = solve_finite_limit(spec) if form == "decentralized" else solve_finite_N(spec, N=N)
    cfg = SimConfig(dt=1e-3, replications=1, thinning=1, seed=3)
    out = simulate_population(spec, build_law(sol, spec), cfg, N=N, collect_agents=N)
    X, U = np.swapaxes(out.trajectories, 0, 1), np.swapaxes(out.controls, 0, 1)
    costs = evaluate_cost(out.grid, X, U, X.mean(axis=1), spec)
    np.testing.assert_allclose(out.individual_costs, costs, rtol=1e-12, atol=0.0)


def random_case(n, r, finite, mf_source, seed):
    """A noisy spec with indefinite Q, R and H, and a random law on it."""
    rng = np.random.default_rng(seed)
    T = 0.1

    def sym(k):
        # eigenvalues of both signs, so the weight is indefinite
        V = np.linalg.qr(rng.standard_normal((k, k)))[0]
        return V @ np.diag(np.linspace(-1.0, 1.5, k)) @ V.T

    mat = lambda *shape: 0.3 * rng.standard_normal(shape)
    vec = lambda k: {"kind": "constant", "value": list(rng.standard_normal(k))}
    spec = ProblemSpec(
        n=n, r=r, A=mat(n, n) - 0.5 * np.eye(n), B=mat(n, r), C=mat(n, n), D=mat(n, r),
        G=mat(n, n), Q=sym(n), R=sym(r), Gamma=mat(n, n), f=vec(n), sigma=vec(n), eta=vec(n),
        x0_mean=rng.standard_normal(n), x0_cov=0.1 * np.eye(n), N=4,
        horizon=T if finite else None, H=sym(n), Gamma0=mat(n, n), eta0=rng.standard_normal(n))
    m = 11
    law = ControlLaw(grid=np.linspace(0.0, T, m), F_self=mat(m, r, n), F_mf=mat(m, r, n),
                     g=mat(m, r), xbar=mat(m, n) if mf_source == "xbar" else np.zeros((m, n)),
                     mf_source=mf_source, horizon="finite" if finite else "infinite")
    return spec, law


@pytest.mark.parametrize("slab_states", [1, 12, None], ids=["one-knot", "3-knot", "whole"])
@pytest.mark.parametrize("finite", [True, False], ids=["finite", "infinite"])
@pytest.mark.parametrize("n, r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_random_costs_match_standalone_evaluator(monkeypatch, n, r, finite, slab_states):
    # the centred running cost (and the terminal cost) against the trapezoid
    # evaluation of the recorded paths and controls, on random specs with
    # indefinite weights: decentralized and centralized laws on the live
    # average, and the decentralized one on its stored mean field; slabs of
    # one knot, of 3 knots (the last partial) and of the whole horizon
    import mfsoc.simulator as sim
    if slab_states is not None:
        monkeypatch.setattr(sim, "_SLAB_STATES", slab_states)
    cfg = SimConfig(dt=1e-3, T_sim=None if finite else 0.1, replications=1, thinning=1,
                    seed=n + 10 * r)
    for seed, (mf_source, coupling) in enumerate([("xbar", "empirical"), ("empirical", "empirical"),
                                                  ("xbar", "xbar")]):
        spec, law = random_case(n, r, finite, mf_source, 100 * n + 10 * r + seed)
        out = simulate_population(spec, law, cfg, N=4, coupling=coupling, collect_agents=4)
        assert out.diagnostics["slab_knots"] == (101 if slab_states is None else
                                                 max(1, slab_states // 4))
        X, U = np.swapaxes(out.trajectories, 0, 1), np.swapaxes(out.controls, 0, 1)
        ref = X.mean(axis=1) if coupling == "empirical" else law.xbar_at(out.grid)
        costs = evaluate_cost(out.grid, X, U, ref, spec)
        np.testing.assert_allclose(out.individual_costs, costs, rtol=1e-12, atol=0.0,
                                   err_msg=f"{mf_source} law, {coupling} coupling")


COST_FIELDS = ("individual_costs", "social_cost", "social_se", "rep_social", "tail_bound")


@pytest.mark.parametrize("problem", ["sec6_finite", "wellposed"])
def test_cost_scale_scales_every_cost(problem):
    # (Q, R, H) -> c (Q, R, H) leaves the law and the paths alone and scales
    # every cost by c: exactly for c = 2, whose products round as the
    # unscaled ones do, and for c = 3 to 1e-14 of the cost scale, the sum of
    # the agents' |cost| (a cost, and so the social sum, may be near zero
    # under indefinite weights)
    import pathlib

    from mfsoc.riccati import solve_are
    spec = ProblemSpec.load(pathlib.Path(__file__).resolve().parent.parent
                            / "problems" / f"{problem}.json")
    sol = solve_finite_limit(spec) if problem == "sec6_finite" else solve_are(spec, t_sim=2.0)
    law = build_law(sol, spec)
    cfg = SimConfig(dt=1e-3, T_sim=None if problem == "sec6_finite" else 2.0, replications=6,
                    seed=8, thinning=7)
    base = simulate_population(spec, law, cfg, N=5, collect_agents=5)
    for c in (2.0, 3.0):
        scale = c * np.abs(base.individual_costs).sum()
        scaled = ProblemSpec.from_json({**spec.to_json(), **{
            k: (c * getattr(spec, k)).tolist() for k in ("Q", "R", "H")}})
        out = simulate_population(scaled, law, cfg, N=5, collect_agents=5)
        for field in ("trajectories", "controls", "state_second_moment",
                      "control_second_moment", "rep_consistency"):
            np.testing.assert_array_equal(getattr(out, field), getattr(base, field))
        for field in COST_FIELDS:
            got, want = getattr(out, field), c * np.asarray(getattr(base, field))
            if c == 2.0:
                np.testing.assert_array_equal(got, want, err_msg=field)
            else:
                np.testing.assert_allclose(got, want, rtol=0.0, err_msg=field,
                                           atol=1e-14 * max(scale, np.max(np.abs(want))))
    assert (base.tail_bound > 0.0) == (problem == "wellposed")


def _traced_peak(spec, pairs, cfg):
    """tracemalloc peak of one `_simulate` batch, and its outputs."""
    import tracemalloc

    import mfsoc.simulator as sim
    agent_rng(0, 0, 0)   # numpy.random's import stays out of the traced peak
    tracemalloc.start()
    try:
        outs = sim._simulate(spec, pairs, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(np.isfinite(out.social_cost) for out in outs)
    return peak, outs


def _traced_noise_peak(T, N):
    """tracemalloc peak of one replication of N agents over horizon T (dt 1e-3)
    on a noisy, decoupled scalar plant."""
    spec = ProblemSpec.from_json({**noise_free_spec(T=T).to_json()})
    spec.C = np.array([[0.3]])
    spec.sigma = constant_signal([0.1])
    spec.x0_cov = np.array([[0.1]])
    return _traced_peak(spec, [(zero_law(T), N)], SimConfig(dt=1e-3, replications=1, seed=1))[0]


def test_noise_memory_is_one_block_buffer():
    # a chunk holds its noise in one buffer that each step reads in place.
    # 1000 agents: over 2200 steps the whole horizon fits twice _BLOCK_ELEMS
    # and is drawn at once (17.6 MB); over 5000 steps it does not, and the
    # chunk draws 2097-step blocks (16 MB) from 1000 open streams, about
    # 780 B each.  Either way the traced peak stays under one block buffer
    # (8 _BLOCK_ELEMS bytes) plus 4 kB per agent (its stream, its state and
    # its step scratch); a second block-sized copy of the increments (a
    # transposed one, say) adds 16 MB and fails it
    import mfsoc.simulator as sim
    N = 1000
    for T in (2.2, 5.0):
        peak = _traced_noise_peak(T, N)
        assert N * round(T / 1e-3) > sim._BLOCK_ELEMS          # more than one block
        assert peak < 8 * sim._BLOCK_ELEMS + 4096 * N
    assert N * (1 + 5000) > 2 * sim._BLOCK_ELEMS                # T = 5: block by block


def test_whole_horizon_noise_holds_no_open_stream():
    # 20,000 agents over 208 steps: the horizon needs two blocks but fits
    # twice _BLOCK_ELEMS, so one (agents, 1 + steps) buffer is filled by
    # re-keying a single Philox and no stream stays open.  The traced peak
    # stays under 2 _BLOCK_ELEMS floats plus 256 B per agent (about 120 B
    # is its state and step scratch); 20,000 open streams add about 15 MB
    # and fail it
    import mfsoc.simulator as sim
    N, steps = 20000, 208
    assert sim._BLOCK_ELEMS < N * (1 + steps) <= 2 * sim._BLOCK_ELEMS
    peak = _traced_noise_peak(steps * 1e-3, N)
    assert peak < 16 * sim._BLOCK_ELEMS + 256 * N


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


FIELDS = ("rep_social", "rep_consistency", "individual_costs", "state_second_moment",
          "control_second_moment", "trajectories", "controls")
PER_REPLICATION = ("rep_social", "rep_consistency", "trajectories", "controls")


def mixed_pairs(spec, sol):
    # decentralized and centralized laws at N = 1, 3 and 7, interleaved so that
    # neither the laws nor the N come in order
    dec = build_law(sol, spec)
    cen = {N: build_law(solve_finite_N(spec, N=N), spec) for N in (1, 3, 7)}
    return [(dec, 3), (cen[7], 7), (dec, 1), (cen[1], 1), (dec, 7), (cen[3], 3)]


def assert_batch_matches_calls_alone(spec, pairs, cfg, coupling, exact):
    import mfsoc.simulator as sim
    batch = sim._simulate(spec, pairs, cfg, coupling, collect_agents=1)
    assert len(batch) == len(pairs)
    for (law, N), got in zip(pairs, batch):
        want = simulate_population(spec, law, cfg, N=N, coupling=coupling, collect_agents=1)
        for field in FIELDS:
            if field in exact:
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field),
                                              err_msg=f"{field}, N={N}")
            else:
                np.testing.assert_allclose(getattr(got, field), getattr(want, field),
                                           rtol=1e-12, atol=0.0, err_msg=f"{field}, N={N}")


@pytest.mark.parametrize("widths, exact", [
    (None, FIELDS), ((1, 3 * 7), FIELDS), ((14, 3 * 14), PER_REPLICATION),
], ids=["one-chunk", "equal-chunks", "wider-chunks-alone"])
def test_batch_equals_batches_of_one(monkeypatch, spec_sec6_finite, sol_sec6_finite,
                                     widths, exact):
    # one-chunk: the defaults.  equal-chunks: _MAX_WIDTH 1 gives every call
    # one-replication chunks, and 3-step time blocks leave the last of 20
    # partial.  wider-chunks-alone: the batch steps 2 replications at a time
    # (14 // 7), a pair alone up to 14 // N, so only sums over replications
    # may move, by rounding
    import mfsoc.simulator as sim
    if widths is not None:
        monkeypatch.setattr(sim, "_MAX_WIDTH", widths[0])
        monkeypatch.setattr(sim, "_BLOCK_ELEMS", widths[1])
    cfg = SimConfig(dt=1e-2, replications=5, seed=3, thinning=3)
    pairs = mixed_pairs(spec_sec6_finite, sol_sec6_finite)
    assert_batch_matches_calls_alone(spec_sec6_finite, pairs, cfg, "empirical", exact)
    # xbar coupling needs a stored mean field: the decentralized pairs only
    dec_pairs = [(law, N) for law, N in pairs if law.mf_source == "xbar"]
    assert_batch_matches_calls_alone(spec_sec6_finite, dec_pairs, cfg, "xbar", exact)


@pytest.mark.parametrize("block_elems, draw", [(None, "whole"), (7 * 35, "open streams")],
                         ids=["whole", "open-streams"])
@pytest.mark.parametrize("slab", [1, 2, 3])
def test_slab_length_leaves_outputs_unchanged(monkeypatch, spec_sec6_finite, sol_sec6_finite,
                                              slab, block_elems, draw):
    # the widest pair (N = 7, 5 replications) steps 35 agent-states a knot, so
    # a budget of 35 slab agent-states gives it slabs of that many knots, and
    # the narrower pairs longer ones; 20 steps leave the last slab partial, and
    # 7-step blocks of open streams cut slabs at their ends too.  The live
    # (empirical) and constant (xbar) w-terms both go through the evaluation
    import mfsoc.simulator as sim
    cfg = SimConfig(dt=1e-2, replications=5, seed=3, thinning=3)
    pairs = mixed_pairs(spec_sec6_finite, sol_sec6_finite)
    dec_pairs = [(law, N) for law, N in pairs if law.mf_source == "xbar"]
    runs = [(pairs, "empirical"), (dec_pairs, "xbar")]
    want = [sim._simulate(spec_sec6_finite, p, cfg, c, collect_agents=1) for p, c in runs]
    if block_elems is not None:
        monkeypatch.setattr(sim, "_BLOCK_ELEMS", block_elems)
    monkeypatch.setattr(sim, "_SLAB_STATES", slab * 35)
    for (p, c), outs in zip(runs, want):
        got = sim._simulate(spec_sec6_finite, p, cfg, c, collect_agents=1)
        for (law, N), g, w in zip(p, got, outs):
            assert g.diagnostics["draw"] == draw
            assert g.diagnostics["slab_knots"] == min(21, slab * 7 // N), N
            assert w.diagnostics["slab_knots"] == 21, N
            for field in FIELDS:
                np.testing.assert_array_equal(getattr(g, field), getattr(w, field),
                                              err_msg=f"{field}, N={N}, {c}")


@pytest.mark.parametrize("draw", ["whole", "open streams"])
@pytest.mark.parametrize("cut", ["pieces", "rows"])
def test_noise_tiles_leave_outputs_unchanged(monkeypatch, spec_sec6_finite, sol_sec6_finite,
                                             cut, draw):
    # a chunk's noise table is filled through the step scratch, 2 E floats
    # here with E the widest slab's agent-states, a tile of whole stream rows
    # at a time.  pieces: one-replication chunks (7 agents) and one-knot
    # slabs make the tile 14 floats, shorter than a stream's 51 normals (or
    # its blocks of 21 and 20), so rows are drawn in pieces.  rows: a budget
    # of 90 slab agent-states makes the tile 180 floats, 3 rows of 51 (25 of
    # 7, 30 of 6), so tiles cut across a replication's 7 agents and the last
    # is partial.  Open streams draw blocks of 20 (6) knots of the 50, the
    # last partial
    import mfsoc.model as model
    import mfsoc.simulator as sim
    cfg = SimConfig(dt=4e-3, replications=5, seed=3, thinning=3)
    pairs = mixed_pairs(spec_sec6_finite, sol_sec6_finite)
    width, slab_states, block = {"pieces": (7, 1, 20), "rows": (35, 90, 6)}[cut]
    monkeypatch.setattr(sim, "_MAX_WIDTH", width)   # the default run's chunks too
    want = sim._simulate(spec_sec6_finite, pairs, cfg, collect_agents=1)
    monkeypatch.setattr(sim, "_SLAB_STATES", slab_states)
    if draw == "open streams":
        monkeypatch.setattr(sim, "_BLOCK_ELEMS", block * width)
    fills, draw_rows = [], model._draw_rows

    def spy(gens, out, tile):
        fills.append((len(out), out.shape[1], tile.size))
        return draw_rows(gens, out, tile)

    monkeypatch.setattr(model, "_draw_rows", spy)
    monkeypatch.setattr(sim, "_draw_rows", spy)
    got = sim._simulate(spec_sec6_finite, pairs, cfg, collect_agents=1)
    for (law, N), g, w in zip(pairs, got, want):
        assert g.diagnostics["draw"] == draw
        for field in FIELDS:
            np.testing.assert_array_equal(getattr(g, field), getattr(w, field),
                                          err_msg=f"{field}, N={N}")
    if cut == "pieces":
        assert any(tile < count for _, count, tile in fills)
    else:
        assert all(tile >= count for _, count, tile in fills)
        assert all((tile // count) % 7 and streams % (tile // count)
                   for streams, count, tile in fills)
    if draw == "open streams":
        assert fills[-1][1] == 50 % block
    else:
        assert {count for _, count, _ in fills} == {51}


def test_diagnostics_record_the_stepping(spec_sec6_finite, sol_sec6_finite):
    # one chunk of 5 replications stepped 35 agents wide, drawn whole; every
    # pair of a batch shares the batch's timings, and its slab is its own
    import mfsoc.simulator as sim
    cfg = SimConfig(dt=1e-2, replications=5, seed=3)
    outs = sim._simulate(spec_sec6_finite, mixed_pairs(spec_sec6_finite, sol_sec6_finite), cfg)
    d = outs[0].diagnostics
    assert set(d) == {"chunk_width", "chunks", "slab_knots", "draw", "noise_s",
                      "recursion_s", "evaluation_s"}
    assert (d["chunk_width"], d["chunks"], d["draw"]) == (5, 1, "whole")
    assert all(d[k] >= 0.0 for k in ("noise_s", "recursion_s", "evaluation_s"))
    for out in outs:
        assert {k: v for k, v in out.diagnostics.items() if k != "slab_knots"} == \
            {k: v for k, v in d.items() if k != "slab_knots"}


def test_slab_memory_is_one_budget(spec_sec6_finite, sol_sec6_finite):
    # the traced peak stays under the noise buffer, plus the closed-loop
    # tables (160 B a knot and pair), plus the slab budget: 4 floats for each
    # state of each pair's slab (the slab, its costs and records) and 12 for
    # each state of the widest slab (the step and evaluation scratch, shared by
    # the pairs).  A narrow long run (1 replication x 50 agents x 5000 steps)
    # steps many knots a slab; a wide 12-pair batch (400 replications, N up
    # to 50) steps one knot a slab for its widest pairs.  Scratch of its own
    # for each pair adds megabytes to the wide batch and fails it
    import mfsoc.simulator as sim

    def bound(B, steps, Ns):
        slabs = [max(sim._SLAB_STATES, B * N) for N in Ns]
        return (8 * B * max(Ns) * (1 + steps) + 160 * (steps + 1) * len(Ns)
                + 8 * (4 * sum(slabs) + 12 * max(slabs)))

    assert _traced_noise_peak(5.0, 50) < bound(1, 5000, [50])
    dec = build_law(sol_sec6_finite, spec_sec6_finite)
    Ns = (1, 2, 5, 10, 20, 50)
    wide = [(dec, N) for N in Ns] + [
        (build_law(solve_finite_N(spec_sec6_finite, N=N), spec_sec6_finite), N) for N in Ns]
    peak, outs = _traced_peak(spec_sec6_finite, wide,
                              SimConfig(dt=1e-3, T_sim=0.05, replications=400, seed=1))
    assert outs[0].diagnostics["draw"] == "whole"
    assert peak < bound(400, 50, 2 * Ns)
    assert [out.diagnostics["slab_knots"] for out in outs[:6]] == [
        max(1, sim._SLAB_STATES // (400 * N)) for N in Ns]


def test_batch_checks_every_pair(spec_sec6_finite, sol_sec6_finite):
    import mfsoc.simulator as sim
    pairs = mixed_pairs(spec_sec6_finite, sol_sec6_finite)
    cfg = SimConfig(dt=1e-2)
    with pytest.raises(ValueError, match="mean-field path"):
        sim._simulate(spec_sec6_finite, pairs, cfg, coupling="xbar")
    with pytest.raises(ValueError, match="population size"):
        sim._simulate(spec_sec6_finite, pairs + [(pairs[0][0], 0)], cfg)
    with pytest.raises(ValueError, match="collect_agents"):
        sim._simulate(spec_sec6_finite, pairs, cfg, collect_agents=2)   # N = 1 is there
    assert sim._simulate(spec_sec6_finite, [], cfg) == []


@pytest.mark.parametrize("max_width", [None, 1])
def test_batch_divergence_is_the_pairs_own(monkeypatch, max_width):
    # a law that leaves A = 12, C = 3 unchecked diverges; one with F = -20
    # keeps the state decaying.  The batch reports the diverging pair's own
    # (time, agent, replication), as its call alone does
    import mfsoc.simulator as sim
    if max_width is not None:
        monkeypatch.setattr(sim, "_MAX_WIDTH", max_width)
    spec = ProblemSpec(
        n=1, r=1, A=12.0, B=1.0, C=3.0, D=0.0, G=0.0, Q=1.0, R=1.0, Gamma=0.0,
        f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.0]], N=3, horizon=3.0,
    )
    stable = zero_law(3.0)
    stable.F_self[:] = -20.0
    cfg = SimConfig(dt=1e-2, replications=4, seed=11)
    with pytest.raises(DivergenceError) as alone:
        simulate_population(spec, zero_law(3.0), cfg, N=3)
    with pytest.raises(DivergenceError) as batch:
        sim._simulate(spec, [(stable, 7), (zero_law(3.0), 3)], cfg)
    assert ((batch.value.time, batch.value.agent, batch.value.replication)
            == (alone.value.time, alone.value.agent, alone.value.replication))
    out = simulate_population(spec, stable, cfg, N=7)
    assert np.isfinite(out.social_cost)
