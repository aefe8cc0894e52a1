"""Full study on the scalar benchmark problem (problems/sec6.json).

1. The infinite-horizon algebraic equation for this data set has no real
   root, so we pin the individual matrix to the published reference value
   0.6808 and solve the mean-trajectory equation given it.
2. Mean-field consistency: the averaged squared distance between the
   empirical average and the precomputed mean trajectory halves (roughly)
   each time the population doubles.
3. Optimality gap on the finite-horizon variant: decentralized versus
   centralized cost under common random numbers, with the exact
   moment-propagated values alongside the Monte Carlo estimates.
4. The exact gap up to N = 10^5, at two step sizes.  It follows
   eps ~ 3.9e-3 / N plus a positive 1/N^2 term, so the local log-log slope
   falls from -1.31 at N = 5..10 to -1.00 beyond N = 1000, and a straight
   fit over N = 5..50 gives about -1.19.
"""

import pathlib

import numpy as np

from mfsoc.linalg import Tolerance
from mfsoc.model import ProblemSpec
from mfsoc.riccati import SolverError, solve_are
from mfsoc.simulator import SimConfig, simulate_population
from mfsoc.social import gap_curve, gap_curve_exact
from mfsoc.synthesis import build_law

PROBLEMS = pathlib.Path(__file__).resolve().parent.parent / "problems"


def main():
    spec = ProblemSpec.load(PROBLEMS / "sec6.json")
    try:
        solve_are(spec, t_sim=20.0)
    except SolverError as exc:
        print(f"own root search fails (as expected for this data set):\n  {exc}\n")
    sol = solve_are(spec, t_sim=20.0, pin_P=[[0.6808]])
    print(f"pinned P = 0.6808  ->  Pi = {sol.Pi[0, 0]:.6f} "
          f"(residual_Pi = {sol.residual_Pi:.2e}); the pinned P itself has "
          f"residual {sol.residual_P:.3f} and is reported, not hidden")

    law = build_law(sol, spec)
    print("\nconsistency integral, 20 replications each:")
    cfg = SimConfig(dt=1e-3, T_sim=20.0, replications=20, seed=1)
    prev = None
    for N in (10, 20, 40, 80):
        out = simulate_population(spec, law, cfg, N=N)
        ratio = "" if prev is None else f"  ratio {out.consistency_error / prev:.3f}"
        print(f"  N={N:3d}  E int ||x^(N) - xbar||^2 dt = "
              f"{out.consistency_error:.5f}{ratio}")
        prev = out.consistency_error

    fin = ProblemSpec.load(PROBLEMS / "sec6_finite.json")
    Ns = [1, 2, 5, 10, 20, 50]
    print(f"\noptimality gap on the finite-horizon variant (T = {fin.horizon}):")
    mc = gap_curve(fin, Ns, SimConfig(dt=1e-3, replications=400, seed=13))
    exact = gap_curve_exact(fin, Ns)
    print(f"  {'N':>3}  {'eps (MC)':>12}  {'+-':>10}  {'eps (exact)':>12}")
    for j, N in enumerate(Ns):
        print(f"  {N:3d}  {mc.epsilon[j]:12.3e}  {mc.epsilon_se[j]:10.1e}"
              f"  {exact.epsilon[j]:12.3e}")
    big = slice(2, None)
    slope = np.polyfit(np.log(exact.N_values[big]), np.log(exact.epsilon[big]), 1)[0]
    print(f"  exact log-log slope over N = 5..50: {slope:.3f}")

    Ns = [5, 10, 20, 50, 100, 10**3, 10**4, 10**5]
    print("\nexact gap at large N (closure cost does not depend on N):")
    coarse = gap_curve_exact(fin, Ns)
    fine = gap_curve_exact(fin, Ns, step=1e-4, tol=Tolerance(ode_step=5e-4))
    slopes = np.diff(np.log(fine.epsilon)) / np.diff(np.log(Ns))
    print(f"  {'N':>6}  {'eps, 2e-4':>11}  {'eps, 1e-4':>11}  {'N eps':>9}  {'slope':>6}")
    for j, N in enumerate(Ns):
        slope_j = f"{slopes[j - 1]:6.2f}" if j else ""
        print(f"  {N:6d}  {coarse.epsilon[j]:11.4e}  {fine.epsilon[j]:11.4e}"
              f"  {N * fine.epsilon[j]:9.3e}  {slope_j}")


if __name__ == "__main__":
    main()
