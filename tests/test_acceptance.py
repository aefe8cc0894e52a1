"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single "criterion N: PASS/FAIL" line directly to the
terminal (bypassing capture) before asserting, so a red criterion still
reports its measured numbers.
"""

import pathlib
import time

import numpy as np
import pytest

from mfsoc.cli import main as cli_main
from mfsoc.linalg import Tolerance, is_hurwitz
from mfsoc.model import ProblemSpec, zero_signal
from mfsoc.riccati import solve_are, solve_finite_limit
from mfsoc.simulator import SimConfig, simulate_meanfield_type, simulate_population
from mfsoc.social import asymptotic_value, gap_curve, gap_curve_exact
from mfsoc.stability import check_ms_stable, theorem_verdicts
from mfsoc.synthesis import build_law

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"
REFERENCE_P = 0.6808
REFERENCE_PI = 0.3290


def report(capsys, num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}")
    assert ok, line


def scalar_closed_form(grid, T, r, h):
    return np.sqrt(np.exp(-2.0 * (T - grid)) * (h * h + r * r) - r * r) - r


def test_criterion_1_closed_form_benchmarks(capsys, spec_example1):
    t0 = time.perf_counter()
    sol = solve_finite_limit(spec_example1, Tolerance(ode_step=1e-4))
    elapsed = time.perf_counter() - t0
    want = scalar_closed_form(sol.grid, spec_example1.horizon, -0.5, 1.0)
    rel1 = float(np.max(np.abs(sol.P[:, 0, 0] - want) / np.abs(want)))

    rr = np.array([-0.5, -0.4])
    T = spec_example1.horizon
    spec2 = ProblemSpec(
        n=2, r=2, A=np.zeros((2, 2)), B=np.eye(2), C=np.zeros((2, 2)),
        D=np.eye(2), G=np.zeros((2, 2)), Q=np.diag(-2.0 * rr), R=np.diag(rr),
        Gamma=np.zeros((2, 2)), f=zero_signal(2), sigma=zero_signal(2),
        eta=zero_signal(2), x0_mean=[0.0, 0.0], x0_cov=np.zeros((2, 2)),
        N=5, horizon=T, H=np.diag(1.0 - rr),
    )
    sol2 = solve_finite_limit(spec2, Tolerance(ode_step=1e-4))
    rel2 = max(
        float(np.max(np.abs(sol2.P[:, j, j] - scalar_closed_form(sol2.grid, T, r, 1.0))
                     / np.abs(scalar_closed_form(sol2.grid, T, r, 1.0))))
        for j, r in enumerate(rr)
    )
    ok = rel1 <= 1e-6 and elapsed < 1.0 and rel2 <= 1e-6
    report(capsys, 1, ok,
           f"scalar rel err {rel1:.2e} in {elapsed:.2f}s; matrix rel err {rel2:.2e}")


def test_criterion_2_benchmark_cross_check(capsys, spec_sec6, sol_wellposed):
    sol_pin = solve_are(spec_sec6, t_sim=10.0, pin_P=[[REFERENCE_P]])
    pi = float(sol_pin.Pi[0, 0])
    own_res = max(sol_wellposed.residual_P, sol_wellposed.residual_Pi)
    reported = np.isfinite(sol_pin.residual_P)
    ok = abs(pi - REFERENCE_PI) <= 1e-3 and own_res <= 1e-8 and reported
    report(capsys, 2, ok,
           f"pinned P={REFERENCE_P} gives Pi={pi:.4f} "
           f"(target {REFERENCE_PI}+-1e-3, residual_P={sol_pin.residual_P:.3g} "
           f"reported); own-root residuals {own_res:.2e}")


def test_criterion_3_consistency_rate(capsys, spec_sec6):
    t0 = time.perf_counter()
    sol = solve_are(spec_sec6, t_sim=20.0, pin_P=[[REFERENCE_P]])
    law = build_law(sol, spec_sec6)
    cfg = SimConfig(dt=1e-3, T_sim=20.0, replications=20, seed=1)
    means = []
    for N in (10, 20, 40, 80):
        out = simulate_population(spec_sec6, law, cfg, N=N)
        means.append(out.consistency_error)
    elapsed = time.perf_counter() - t0
    ratios = [means[k + 1] / means[k] for k in range(3)]
    ok = all(0.3 <= q <= 0.8 for q in ratios) and elapsed < 300.0
    report(capsys, 3, ok,
           "consistency ratios " + ", ".join(f"{q:.3f}" for q in ratios)
           + f" (target [0.3, 0.8]) in {elapsed:.1f}s")


def test_criterion_4_gap_curve(capsys, spec_sec6_finite):
    Ns = [1, 2, 5, 10, 20, 50]
    cfg = SimConfig(dt=1e-3, replications=400, seed=13)
    curve = gap_curve(spec_sec6_finite, Ns, cfg)
    noninc = all(
        curve.epsilon[k + 1] <= curve.epsilon[k]
        + 2.0 * float(np.hypot(curve.epsilon_se[k], curve.epsilon_se[k + 1]))
        for k in range(len(Ns) - 1)
    )
    exact = gap_curve_exact(spec_sec6_finite, [5, 10, 20, 50])
    slope = float(np.polyfit(np.log(exact.N_values), np.log(exact.epsilon), 1)[0])
    ok = noninc and -1.1 <= slope <= -0.4
    report(capsys, 4, ok,
           f"nonincreasing within 2 SE: {noninc}; log-log slope over N=5..50 "
           f"is {slope:.3f} (target [-1.1, -0.4]; exact eps "
           + ", ".join(f"{e:.3e}" for e in exact.epsilon) + ")")


@pytest.mark.slow
def test_criterion_5_value_vs_monte_carlo(capsys, spec_wellposed, sol_wellposed):
    val = asymptotic_value(spec_wellposed, sol_wellposed)
    law = build_law(sol_wellposed, spec_wellposed)
    out_a = simulate_meanfield_type(
        spec_wellposed, law, SimConfig(dt=2e-3, T_sim=15.0, replications=10000, seed=5))
    z_a = (out_a.social_cost - val.value) / out_a.social_se
    out_b = simulate_population(
        spec_wellposed, law, SimConfig(dt=2e-3, T_sim=15.0, replications=1000, seed=6),
        N=200)
    z_b = (out_b.social_cost / 200 - val.value) / (out_b.social_se / 200)
    tail_ok = val.tail_bound < 0.01 * abs(val.value)
    ok = abs(z_a) <= 3.0 and abs(z_b) <= 3.0 and tail_ok
    report(capsys, 5, ok,
           f"value {val.value:.6f}; single-agent MC z={z_a:+.2f}, "
           f"population N=200 z={z_b:+.2f} (|z|<=3); "
           f"tail bound {val.tail_bound:.1e} vs 1% = {0.01 * abs(val.value):.1e}")


def test_criterion_6_stationarity_identity(capsys, spec_sec6_finite, sol_sec6_finite):
    s = spec_sec6_finite
    law = build_law(sol_sec6_finite, s)
    cfg = SimConfig(dt=1e-3, replications=1, seed=4, thinning=10)
    out = simulate_population(s, law, cfg, N=10, collect_agents=10)
    worst = 0.0
    for j, t in enumerate(out.grid):
        P, K, sv, _ = sol_sec6_finite.at(float(t))
        xb = law.xbar_at(float(t))
        sig = s.sigma(float(t))
        for a in range(10):
            x = out.trajectories[a, j]
            u = out.controls[a, j]
            p_hat = P @ x + K @ xb + sv
            beta_hat = P @ (s.C @ x + s.D @ u + sig)
            res = s.R @ u + s.B.T @ p_hat + s.D.T @ beta_hat
            worst = max(worst, float(np.linalg.norm(res)))
    ok = worst <= 1e-5
    report(capsys, 6, ok,
           f"max stationarity residual over 10 paths = {worst:.2e} (target <= 1e-5)")


def test_criterion_7_stability_suite_coherence(capsys, spec_sec6):
    fast = Tolerance(ode_step=5e-3)
    (ok2, _), (ok3, _) = theorem_verdicts(spec_sec6, fast, t_sim=10.0)
    agreements = [ok2 == ok3]
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 4))
        A = rng.standard_normal((n, n))
        A -= (1.0 + max(0.0, np.linalg.eigvals(A).real.max())) * np.eye(n)
        spec = ProblemSpec(
            n=n, r=1, A=A, B=rng.standard_normal((n, 1)),
            C=0.3 * rng.standard_normal((n, n)), D=0.3 * rng.standard_normal((n, 1)),
            G=0.2 * rng.standard_normal((n, n)), Q=np.eye(n), R=np.eye(1),
            Gamma=0.2 * rng.standard_normal((n, n)),
            f=zero_signal(n), sigma=zero_signal(n), eta=zero_signal(n),
            x0_mean=np.zeros(n), x0_cov=np.eye(n), N=10, horizon=None,
        )
        (a, _), (b, _) = theorem_verdicts(spec, fast, t_sim=8.0)
        agreements.append(a == b)
    hurwitz_match = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        A = rng.standard_normal((n, n)) - rng.uniform(0.0, 2.0) * np.eye(n)
        ms, _ = check_ms_stable(A, np.zeros((n, n)))
        hz, _ = is_hurwitz(A)
        hurwitz_match &= ms == hz
    ok = all(agreements) and hurwitz_match
    report(capsys, 7, ok,
           f"verdict agreement {sum(agreements)}/{len(agreements)} specs; "
           f"noise-free mean-square test == Hurwitz on 100 matrices: {hurwitz_match}")


def test_criterion_8_trivial_zero_suite(capsys):
    spec = ProblemSpec(
        n=1, r=1, A=0.3, B=1.0, C=0.2, D=0.5, G=0.1, Q=0.0, R=1.0,
        Gamma=0.4, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[0.0], x0_cov=[[0.0]], N=3, horizon=1.0, H=[[0.0]],
    )
    sol = solve_finite_limit(spec)
    sol_peak = max(float(np.max(np.abs(v))) for v in (sol.P, sol.K, sol.s))
    law = build_law(sol, spec)
    gain_peak = max(float(np.max(np.abs(v))) for v in (law.F_self, law.F_mf, law.g))
    out = simulate_population(spec, law, SimConfig(dt=1e-2, replications=2), N=3)
    ok = sol_peak <= 1e-12 and gain_peak <= 1e-12 and abs(out.social_cost) <= 1e-12
    report(capsys, 8, ok,
           f"max |Riccati| {sol_peak:.1e}, max |gain| {gain_peak:.1e}, "
           f"simulated cost {out.social_cost:.1e} (all <= 1e-12)")


def test_criterion_9_reproduce_determinism(capsys, tmp_path):
    out = tmp_path / "repro"
    args = ["reproduce-paper", str(PROBLEMS / "sec6.json"), "--outdir", str(out),
            "--N-list", "1,2,5", "--reps", "5", "--dt", "0.005", "--T", "6",
            "--seed", "3"]
    rc1 = cli_main(args)
    first = {f.name: f.read_bytes() for f in out.iterdir()}
    rc2 = cli_main(args)
    second = {f.name: f.read_bytes() for f in out.iterdir()}
    same = [name for name in sorted(first) if first[name] == second.get(name)]
    ok = rc1 == 0 and rc2 == 0 and first == second and len(first) == 7
    report(capsys, 9, ok,
           f"two runs, {len(same)}/{len(first)} files byte-identical "
           f"({', '.join(sorted(first))})")
