import pathlib
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from mfsoc.linalg import (BlowUpError, Tolerance, central_path, integrate_ode, is_hurwitz, lift_msq,
                          symmetrize)
from mfsoc.model import ProblemSpec, constant_signal, derive_weights, zero_signal
from mfsoc.riccati import (
    RiccatiInfiniteSolution,
    SolverError,
    _Pair,
    _Plant,
    _lmi_phase_one,
    _pair_rate,
    _pair_root,
    _plant,
    _scalar_rate,
    check_ranges,
    grid_interp,
    meanfield_path,
    solve_are,
    solve_are_N,
    solve_finite_N,
    solve_finite_limit,
    solve_stochastic_are,
)

T_MAX_SCALAR = 0.5 * np.log(5.0)  # escape time of the scalar benchmark


def scalar_closed_form(grid, T, r, h):
    return np.sqrt(np.exp(-2.0 * (T - grid)) * (h * h + r * r) - r * r) - r


def make_scalar_benchmark(T, r=-0.5):
    # A=C=G=Gamma=0, B=D=1, Q=-2r: the backward equation integrates in closed form
    return ProblemSpec(
        n=1, r=1, A=0.0, B=1.0, C=0.0, D=1.0, G=0.0, Q=-2.0 * r, R=r,
        Gamma=0.0, f=zero_signal(1), sigma=zero_signal(1), eta=zero_signal(1),
        x0_mean=[1.0], x0_cov=[[0.1]], N=10, horizon=T, H=[[1.0 - r]],
    )


def test_grid_interp():
    grid = np.array([0.0, 1.0, 2.0])
    vals = np.array([0.0, 2.0, 6.0])
    assert grid_interp(grid, vals, 0.5) == pytest.approx(1.0)
    assert grid_interp(grid, vals, 1.5) == pytest.approx(4.0)
    assert grid_interp(grid, vals, -3.0) == pytest.approx(0.0)  # clamped
    out = grid_interp(grid, vals, np.array([0.0, 2.0]))
    np.testing.assert_allclose(out, [0.0, 6.0])


def test_scalar_closed_form(spec_example1):
    sol = solve_finite_limit(spec_example1, Tolerance(ode_step=1e-4))
    want = scalar_closed_form(sol.grid, spec_example1.horizon, -0.5, 1.0)
    rel = np.max(np.abs(sol.P[:, 0, 0] - want) / np.abs(want))
    assert rel < 1e-6
    assert sol.residual < 1e-8
    # the mean-field gain and offset stay identically zero here
    np.testing.assert_allclose(sol.K, 0.0, atol=1e-10)
    np.testing.assert_allclose(sol.s, 0.0, atol=1e-10)


def test_matrix_closed_form():
    # two decoupled scalar channels: the diagonal matrix problem must match
    # the channelwise closed form
    rr = np.array([-0.5, -0.4])
    T = 0.8 * T_MAX_SCALAR
    spec = ProblemSpec(
        n=2, r=2, A=np.zeros((2, 2)), B=np.eye(2), C=np.zeros((2, 2)),
        D=np.eye(2), G=np.zeros((2, 2)), Q=np.diag(-2.0 * rr), R=np.diag(rr),
        Gamma=np.zeros((2, 2)), f=zero_signal(2), sigma=zero_signal(2),
        eta=zero_signal(2), x0_mean=[0.0, 0.0], x0_cov=np.zeros((2, 2)),
        N=5, horizon=T, H=np.diag(1.0 - rr),
    )
    sol = solve_finite_limit(spec, Tolerance(ode_step=1e-4))
    for j, r in enumerate(rr):
        want = scalar_closed_form(sol.grid, T, r, 1.0)
        rel = np.max(np.abs(sol.P[:, j, j] - want) / np.abs(want))
        assert rel < 1e-6
    np.testing.assert_allclose(sol.P[:, 0, 1], 0.0, atol=1e-10)


def test_horizon_beyond_escape_fails():
    spec = make_scalar_benchmark(1.2 * T_MAX_SCALAR, r=-0.5)
    with pytest.raises(SolverError):
        solve_finite_limit(spec)


@pytest.mark.parametrize("step", [1e-3, 5e-4, 2e-4, 1e-4, 5e-5])
def test_past_escape_is_refused_at_every_step(step):
    # example1_long's solution escapes at T - t = ln(5) / 2, inside its
    # horizon.  At step 1e-4 the integrator steps across the escape with
    # Upsilon >= 0 on every knot, so only the residual refuses it; healthy
    # solves read a relative residual near 1e-10
    spec = ProblemSpec.load(pathlib.Path(__file__).resolve().parent.parent
                            / "problems" / "example1_long.json")
    assert spec.horizon > T_MAX_SCALAR
    tol = Tolerance(ode_step=step)
    for solve in (solve_finite_limit, lambda spec, tol: solve_finite_N(spec, tol, N=1),
                  lambda spec, tol: solve_finite_N(spec, tol, N=50)):
        with pytest.raises(SolverError):
            solve(spec, tol)


def offset_spec(T, f):
    """wellposed with terminal weight 0.4, forcing f and finite horizon T."""
    base = ProblemSpec.load(pathlib.Path(__file__).resolve().parent.parent
                            / "problems" / "wellposed.json").to_json()
    return ProblemSpec.from_json({**base, "H": [[0.4]], "f": f, "horizon": {"finite": T}})


def test_large_offset_is_no_escape():
    # f = e^t drives |s| to 9e9 at horizon 25 and 3e16 at 40, while the pair
    # (P, K) is autonomous and stays in [0.4, 0.44]: both horizons solve, the
    # longer one's pair is the shorter one's shifted by 15 on the shared
    # knots, and both are uniformly convex
    from mfsoc.stability import check_uniform_convexity
    grow, tol = {"kind": "exponential", "a": [1.0], "b": 1.0}, Tolerance(ode_step=5e-3)
    short, long = (solve_finite_limit(offset_spec(T, grow), tol) for T in (25.0, 40.0))
    m = short.grid.size
    np.testing.assert_allclose(long.grid[-m:] - 15.0, short.grid, rtol=0, atol=1e-9)
    np.testing.assert_allclose(long.P[-m:], short.P, rtol=1e-13, atol=0)
    np.testing.assert_allclose(long.K[-m:], short.K, rtol=1e-13, atol=1e-15)
    assert np.abs(long.s).max() > 1e16 and np.abs(short.s).max() > 1e9
    for T in (25.0, 40.0):
        assert check_uniform_convexity(offset_spec(T, grow), tol=tol)[0] == "uniformly_convex"


def test_overflowing_offset_is_its_own_failure():
    # a forcing of 1e308 overflows s within a step; the pair does not see it,
    # so the solve names the offset and the forcing, reports no escape, and the
    # convexity verdict still reads the pair
    from mfsoc.stability import check_uniform_convexity
    spec, tol = offset_spec(10.0, {"kind": "constant", "value": [1e308]}), Tolerance(ode_step=5e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SolverError, match="offset s .* forcing") as exc:
            solve_finite_limit(spec, tol)
        assert exc.value.escape_time is None
        assert check_uniform_convexity(spec, tol=tol)[0] == "uniformly_convex"


def test_scalar_branch_matches_matrix_branch(spec_sec6_finite, sol_sec6_finite):
    # embed the scalar benchmark in a 2x2 block-diagonal problem; block (0,0)
    # must reproduce the n=1 solve (guards the scalar fast path)
    s = spec_sec6_finite
    pad = lambda M: np.block([[M, np.zeros((1, 1))], [np.zeros((1, 1)), np.array([[0.0]])]])
    spec2 = ProblemSpec(
        n=2, r=2, A=pad(s.A) + np.diag([0.0, -1.0]), B=pad(s.B) + np.diag([0.0, 1.0]),
        C=pad(s.C), D=pad(s.D) + np.diag([0.0, 1.0]), G=pad(s.G),
        Q=pad(s.Q) + np.diag([0.0, 1.0]), R=pad(s.R) + np.diag([0.0, 1.0]),
        Gamma=pad(s.Gamma), f=zero_signal(2), sigma=zero_signal(2),
        eta=zero_signal(2), x0_mean=[1.0, 0.0], x0_cov=np.diag([0.1, 0.0]),
        N=s.N, horizon=s.horizon, H=pad(s.H), Gamma0=pad(s.Gamma0),
        eta0=[0.0, 0.0],
    )
    sol2 = solve_finite_limit(spec2)
    scalar = ProblemSpec.from_json(s.to_json())
    scalar.f = zero_signal(1)
    scalar.sigma = zero_signal(1)
    scalar.eta = zero_signal(1)
    scalar.eta0 = np.zeros(1)
    sol1 = solve_finite_limit(scalar)
    np.testing.assert_allclose(sol2.P[:, 0, 0], sol1.P[:, 0, 0], atol=1e-9)
    np.testing.assert_allclose(sol2.K[:, 0, 0], sol1.K[:, 0, 0], atol=1e-9)


def test_finite_triple_against_backward_euler(spec_sec6_finite, sol_sec6_finite):
    # independent oracle: first-order backward Euler on the same equations,
    # written out term by term
    s = spec_sec6_finite
    dw = derive_weights(s)
    a, b, c, d = s.A[0, 0], s.B[0, 0], s.C[0, 0], s.D[0, 0]
    g, q, r, qg = s.G[0, 0], s.Q[0, 0], s.R[0, 0], dw.Q_Gamma[0, 0]
    dt = 1e-5
    steps = int(round(s.horizon / dt))
    P = s.H[0, 0]
    K = -dw.H_Gamma0[0, 0]
    sv = -dw.eta0_bar[0]
    for k in range(steps):
        t = s.horizon - k * dt
        ups = r + d * d * P
        psi = b * P + d * P * c
        bk = b * K
        dP = 2 * a * P + c * c * P + q - psi * psi / ups
        dK = 2 * (a + g) * K + 2 * g * P - (2 * psi * bk + bk * bk) / ups - qg
        theta = b * (P + K) + d * P * c
        acl = a + g - b * theta / ups
        ccl = c - d * theta / ups
        dsv = acl * sv + (P + K) * s.f(t - dt)[0] + ccl * P * s.sigma(t - dt)[0] \
            - dw.eta_bar(t - dt)[0]
        P, K, sv = P + dt * dP, K + dt * dK, sv + dt * dsv
    assert sol_sec6_finite.P[0, 0, 0] == pytest.approx(P, abs=5e-5)
    assert sol_sec6_finite.K[0, 0, 0] == pytest.approx(K, abs=5e-5)
    assert sol_sec6_finite.s[0, 0] == pytest.approx(sv, abs=5e-5)


def test_population_form_collapses_at_N1(spec_sec6_finite):
    # for N=1 the sum P+K solves an ordinary one-agent Riccati equation with
    # shifted data (A+G, Q - Q_Gamma, terminal H - H_Gamma0)
    s = spec_sec6_finite
    dw = derive_weights(s)
    solN = solve_finite_N(s, N=1)
    Z = solN.P + solN.K

    a = (s.A + s.G)[0, 0]
    b, c, d = s.B[0, 0], s.C[0, 0], s.D[0, 0]
    q = (s.Q - dw.Q_Gamma)[0, 0]
    r = s.R[0, 0]
    dt = 1e-5
    z = (s.H - dw.H_Gamma0)[0, 0]
    for k in range(int(round(s.horizon / dt))):
        ups = r + d * d * z
        psi = b * z + d * z * c
        z = z + dt * (2 * a * z + c * c * z + q - psi * psi / ups)
    assert Z[0, 0, 0] == pytest.approx(z, abs=5e-5)


def test_population_form_approaches_limit(spec_sec6_finite, sol_sec6_finite):
    sol_big = solve_finite_N(spec_sec6_finite, N=10 ** 6)
    assert np.max(np.abs(sol_big.P - sol_sec6_finite.P)) < 1e-4
    assert np.max(np.abs(sol_big.K - sol_sec6_finite.K)) < 1e-4
    # and the deviation shrinks with N
    gaps = []
    for N in (10, 100, 1000):
        solN = solve_finite_N(spec_sec6_finite, N=N)
        gaps.append(np.max(np.abs(solN.P - sol_sec6_finite.P)))
    assert gaps[0] > gaps[1] > gaps[2]


def test_finite_solution_symmetric_and_checked(sol_sec6_finite):
    assert sol_sec6_finite.residual < 1e-7
    skew = np.max(np.abs(sol_sec6_finite.P - np.swapaxes(sol_sec6_finite.P, 1, 2)))
    assert skew < 1e-9
    assert sol_sec6_finite.min_upsilon_eig > 0.0


def test_meanfield_path_initial_condition(spec_sec6_finite, sol_sec6_finite):
    ts, xs = meanfield_path(spec_sec6_finite, sol_sec6_finite)
    assert ts[0] == 0.0 and ts[-1] == pytest.approx(spec_sec6_finite.horizon)
    assert xs[0, 0] == pytest.approx(spec_sec6_finite.x0_mean[0])


def test_are_definite_case_matches_scipy():
    # C = D = 0 reduces to the standard CARE; scipy is the oracle
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = 2
        A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        B = rng.standard_normal((n, 1))
        Q = np.eye(n)
        R = np.eye(1)
        X, res = solve_stochastic_are(A, B, np.zeros((n, n)), np.zeros((n, 1)), Q, R)
        want = scipy.linalg.solve_continuous_are(A, B, Q, R)
        np.testing.assert_allclose(X, want, atol=1e-6)
        assert res < 1e-8


def test_every_steady_form_matches_scipy_without_noise():
    # with C = D = 0 the weight M drops out of both equations, so in every
    # form P solves the standard CARE and Pi = P + K solves it on the
    # averaged pair with state weight (I - Gamma)'Q(I - Gamma) = Q - Q_Gamma
    rng = np.random.default_rng(11)
    n = 2
    for _ in range(3):
        A = rng.standard_normal((n, n)) - 2.0 * np.eye(n)
        B = rng.standard_normal((n, 1))
        G = 0.3 * rng.standard_normal((n, n))
        Gam = 0.3 * rng.standard_normal((n, n))
        spec = ProblemSpec(
            n=n, r=1, A=A, B=B, C=np.zeros((n, n)), D=np.zeros((n, 1)), G=G,
            Q=np.eye(n), R=np.eye(1), Gamma=Gam, f=zero_signal(n),
            sigma=zero_signal(n), eta=zero_signal(n), x0_mean=np.ones(n),
            x0_cov=0.1 * np.eye(n), N=10,
        )
        IG = np.eye(n) - Gam
        want_P = scipy.linalg.solve_continuous_are(A, B, np.eye(n), np.eye(1))
        want_Pi = scipy.linalg.solve_continuous_are(A + G, B, IG.T @ IG, np.eye(1))
        tol = Tolerance(ode_step=1e-2)
        sols = [solve_are(spec, tol, t_sim=1.0)]
        sols += [solve_are_N(spec, tol, t_sim=1.0, N=N) for N in (2, 50)]
        for sol in sols:
            np.testing.assert_allclose(sol.P, want_P, atol=1e-8)
            np.testing.assert_allclose(sol.Pi, want_Pi, atol=1e-8)
            assert max(sol.residual_P, sol.residual_Pi) < 1e-8


# -- the finite-difference Jacobian over the symmetric basis, which the root
# -- finder's Newton polish used before the analytic one, kept as its oracle
# -- (here as a central difference)

def fd_jacobian(residual, Y, eps=1e-6):
    """Columns d residual / d c_(b,i,j) at Y, a stack of symmetric blocks,
    along the symmetric unit directions E_ij = E_ji of block b."""
    dirs = []
    for b in range(Y.shape[0]):
        for i in range(Y.shape[1]):
            for j in range(i, Y.shape[1]):
                E = np.zeros(Y.shape)
                E[b, i, j] = E[b, j, i] = 1.0
                dirs.append(E)
    cols = [(residual(Y + eps * E) - residual(Y - eps * E)) / (2 * eps) for E in dirs]
    return np.column_stack(cols), dirs


def _random_noisy_plant(rng, n, r):
    """C, D != 0 and an R of either sign; about half of these have a
    stabilizing root, half of those with an indefinite R."""
    A = 0.7 * rng.standard_normal((n, n)) - np.eye(n)
    W = rng.standard_normal((n, n))
    return _Plant(A, rng.standard_normal((n, r)), 0.5 * rng.standard_normal((n, n)),
                  rng.standard_normal((n, r)), W @ W.T + 0.1 * np.eye(n),
                  0.5 * symmetrize(rng.standard_normal((r, r))),
                  A + 0.3 * rng.standard_normal((n, n)), np.eye(n))


@pytest.mark.parametrize("case", ["limit_P", "pinned_Pi", "joint_N1", "joint_N7"])
def test_analytic_jacobian_matches_finite_differences(case):
    free_P, free_Pi = case != "pinned_Pi", case != "limit_P"
    N = {"joint_N1": 1, "joint_N7": 7}.get(case)
    rng = np.random.default_rng(23)
    tol = Tolerance()
    for n, r in ((1, 1), (2, 1), (3, 2)):
        plant = _random_noisy_plant(rng, n, r)
        # points where Upsilon = R + D'MD is safely invertible
        P = symmetrize(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        Pi = symmetrize(rng.standard_normal((n, n))) + 4.0 * np.eye(n)
        Y = np.stack(([P] if free_P else []) + ([Pi] if free_Pi else []))

        def residual(Y_):
            P_ = Y_[0] if free_P else P
            return _Pair(plant, P_, Y_[-1] if free_Pi else P_, N, tol).residuals(free_P, free_Pi)

        J = _Pair(plant, P, Pi if free_Pi else P, N, tol).jacobian(free_P, free_Pi)
        J_fd, dirs = fd_jacobian(residual, Y)
        for _ in range(5):
            d = np.stack([symmetrize(rng.standard_normal((n, n))) for _ in Y])
            coords = np.array([np.sum(E * d) / np.sum(E * E) for E in dirs])
            want = J_fd @ coords
            assert np.linalg.norm(J @ d.ravel() - want) <= 1e-6 * np.linalg.norm(want)


# -- the Newton-plus-flow root finder that continuation replaced, kept as its
# -- oracle: backtracking Newton from each seed, and after every 10-unit chunk
# -- of the RK4 pseudo-time flow dY/dtau = F(Y)

def flow_root(plant, N, tol, P=None, with_Pi=True, flow=True):
    """The stabilizing root as a _Pair, or SolverError; flow False leaves
    Newton from the seeds alone."""
    free_P = P is None
    n = plant.A.shape[0]
    shape = (free_P + with_Pi, n, n)
    step = max(tol.ode_step, 1e-3)

    def pair(y):
        Y = y.reshape(shape)
        P_ = Y[0] if free_P else P
        return _Pair(plant, P_, Y[-1] if with_Pi else P_, N, tol)

    def project(y):
        Y = y.reshape(shape)
        return (0.5 * (Y + Y.transpose(0, 2, 1))).ravel()

    def newton(y):
        p = pair(y)
        r = p.residuals(free_P, with_Pi)
        for _ in range(60):
            dy = np.linalg.lstsq(p.jacobian(free_P, with_Pi), -r, rcond=None)[0]
            for lam in 0.5 ** np.arange(30):
                yn = project(y + lam * dy)
                pn = pair(yn)
                rn = pn.residuals(free_P, with_Pi)
                if np.linalg.norm(rn) < np.linalg.norm(r):
                    y, p, r = yn, pn, rn
                    break
            else:
                break
        return p, np.linalg.norm(r)

    def acceptable(p, rnorm):
        if rnorm > tol.residual_tol:
            return False
        if np.linalg.eigvalsh(p.Ups).min() < -tol.residual_tol:
            return False
        if free_P and not is_hurwitz(lift_msq(*p.individual_loop()), tol)[0]:
            return False
        return not with_Pi or is_hurwitz(p.aggregate_loop[0], tol)[0]

    for c in (0.0, 1.0, 5.0):
        y = np.tile(c * np.eye(n), (shape[0], 1, 1)).ravel()
        done, prev, rnow = 0.0, np.inf, np.inf
        try:
            while True:
                p, rnorm = newton(y)
                if acceptable(p, rnorm):
                    return p
                if not flow or done >= 200.0 or rnow <= 1e-6 or rnow > 0.5 * prev:
                    break
                prev = rnow
                _, ys = integrate_ode(lambda j, v: -pair(v).residuals(free_P, with_Pi),
                                      0.0, -10.0, y, step, project=project)
                y = ys[-1]
                done += 10.0
                rnow = np.linalg.norm(pair(y).residuals(free_P, with_Pi))
        except BlowUpError:
            pass
    raise SolverError("no seed reached a stabilizing root")


def _solve_or_none(root_finder, *args, **kwargs):
    try:
        return root_finder(*args, **kwargs)
    except SolverError:
        return None


def _flow_oracle_counts(plant, tol):
    """Solve the limit P, the Pi at a pinned P (the oracle's root, or I)
    and the joint pair at N = 3 with both finders, asserting the same
    outcomes and roots; returns (roots found, of those the ones Newton from
    the seeds alone misses)."""
    n = plant.A.shape[0]
    found = newton_alone_fails = 0
    pin = None
    for N, pinned, with_Pi in ((None, False, False), (None, True, True), (3, False, True)):
        P = pin if pinned else None
        want = _solve_or_none(flow_root, plant, N, tol, P=P, with_Pi=with_Pi)
        got = _solve_or_none(_pair_root, plant, N, tol, P=P, with_Pi=with_Pi)
        assert (got is None) == (want is None), (N, pinned)
        if not with_Pi:
            pin = np.eye(n) if want is None else want.P
        if want is None:
            continue
        found += 1
        for X, Y in ((got.P, want.P), (got.Pi, want.Pi)):
            assert np.max(np.abs(X - Y)) <= 1e-9 * np.max(np.abs(Y))
        newton_alone_fails += _solve_or_none(
            flow_root, plant, N, tol, P=P, with_Pi=with_Pi, flow=False) is None
    return found, newton_alone_fails


@pytest.mark.slow
def test_continuation_matches_flow_oracle():
    # noisy plants with R of either sign, half of them with A shifted toward
    # instability; unshifted plant 56 and shifted plants 4 and 17 lose roots
    # if delta may shrink on an accepted step
    tol = Tolerance(ode_step=1e-2)
    found = newton_alone_fails = 0
    for shifted, seeds in ((False, [*range(11), 56]), (True, [*range(11), 17])):
        for seed in seeds:
            rng = np.random.default_rng(1000 * shifted + seed)
            n, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            plant = _random_noisy_plant(rng, n, r)
            if shifted:
                shift = rng.uniform(0.0, 1.5) * np.eye(n)
                plant = plant._replace(A=plant.A + shift, AG=plant.AG + shift)
            counts = _flow_oracle_counts(plant, tol)
            found += counts[0]
            newton_alone_fails += counts[1]
    # some solves have no root, and some need more than Newton from the seeds
    assert 0 < found < 72
    assert newton_alone_fails > 0


# -- the limit-form Riccati LMI, written out term by term as the oracle of
# -- phase I: L(P) = [[A'P + PA + C'PC + Q, Psi'], [Psi, R + D'PD]]

def lmi_block(plant, P):
    A, B, C, D, Q, R = plant[:6]
    Psi = B.T @ P + D.T @ P @ C
    return np.block([[A.T @ P + P @ A + C.T @ P @ C + Q, Psi.T], [Psi, R + D.T @ P @ D]])


def symmetric_units(n):
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0
            yield E


def certificate_margin(plant, Z, tol):
    """<Z, L(0)> of a certificate, after checking what makes it one: Z >= 0,
    tr Z = 1, <Z, L(P)> independent of P, and a margin beyond residual_tol."""
    n = plant.A.shape[0]
    L0 = lmi_block(plant, np.zeros((n, n)))
    assert np.linalg.eigvalsh(Z)[0] >= 0.0
    assert np.trace(Z) == pytest.approx(1.0, abs=1e-14)
    margin = np.sum(Z * L0)
    for E in symmetric_units(n):
        L1 = lmi_block(plant, E) - L0
        assert abs(np.sum(Z * L1)) <= 1e-12 * (1.0 + np.abs(L1).max())
    assert margin < -tol.residual_tol
    return margin


def maximal_point(plant, P):
    """max tr P subject to L(P) >= 0 by the barrier method, from a strictly
    feasible P, to a duality gap below 1e-9."""
    n = plant.A.shape[0]
    L0 = lmi_block(plant, np.zeros((n, n)))
    units = list(symmetric_units(n))
    G = np.stack([lmi_block(plant, E) - L0 for E in units])
    trace = np.array([np.trace(E) for E in units])
    for y, _, gap in central_path(L0, G, trace, P[np.triu_indices(n)], 1e-3):
        if gap is not None and gap < 1e-9:
            return sum(c * E for c, E in zip(y, units))
    raise AssertionError("the barrier method spent its Newton steps")


def _random_plant(shifted, seed):
    rng = np.random.default_rng(1000 * shifted + seed)
    n, r = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    plant = _random_noisy_plant(rng, n, r)
    if shifted:
        shift = rng.uniform(0.0, 1.5) * np.eye(n)
        plant = plant._replace(A=plant.A + shift, AG=plant.AG + shift)
    return plant


def test_lmi_phase_one_against_the_continuation():
    # noisy plants with R of either sign, half of them with A shifted toward
    # instability.  Wherever phase I certifies the LMI infeasible, the
    # continuation finds no root; everywhere else phase I reached a strictly
    # feasible point, and where the continuation finds a root it is the
    # maximal point of the LMI (Ait Rami and Zhou)
    tol = Tolerance(ode_step=1e-2)
    outcomes = {"certified": 0, "refused_root": 0, "feasible_root": 0, "feasible_no_root": 0}
    for shifted in (False, True):
        for seed in range(30):
            plant = _random_plant(shifted, seed)
            P, t, Z, margin = _lmi_phase_one(plant, tol)
            root = _solve_or_none(_pair_root, plant, None, tol, with_Pi=False)
            if Z is not None:
                assert certificate_margin(plant, Z, tol) == pytest.approx(margin, rel=1e-12)
                assert t <= margin
                outcomes["certified"] += 1
                outcomes["refused_root"] += root is not None
                continue
            assert t > 0.0
            assert np.linalg.eigvalsh(lmi_block(plant, P))[0] > 0.0
            if root is None:
                outcomes["feasible_no_root"] += 1
                continue
            outcomes["feasible_root"] += 1
            P = maximal_point(plant, P)
            assert np.max(np.abs(P - root.P)) <= 1e-7 * np.max(np.abs(root.P))
    assert outcomes["refused_root"] == 0, outcomes
    assert outcomes["certified"] > 10 and outcomes["feasible_root"] > 10, outcomes


def test_lmi_phase_one_on_the_scalar_files(spec_sec6, spec_wellposed):
    tol = Tolerance()
    # sec6: det L(P) = -2.8 P^2 + 0.76 P - 0.2, negative for every P
    plant = _plant(spec_sec6)
    Ps = np.linspace(-5.0, 5.0, 2001)
    dets = [np.linalg.det(lmi_block(plant, np.array([[P]]))) for P in Ps]
    np.testing.assert_allclose(dets, -2.8 * Ps ** 2 + 0.76 * Ps - 0.2, atol=1e-12)
    assert 0.76 ** 2 - 4.0 * 2.8 * 0.2 < 0.0
    margin = certificate_margin(plant, _lmi_phase_one(plant, tol)[2], tol)
    # weak duality: no P has a smallest eigenvalue of L(P) above the margin
    best = max(np.linalg.eigvalsh(lmi_block(plant, np.array([[P]])))[0] for P in Ps)
    assert best <= margin <= 0.9 * best
    # wellposed: L(P) = [[1 - 2P, P], [P, 4P - 0.2]] >= 0 exactly on [0.0507, 0.4382]
    plant = _plant(spec_wellposed)
    lo, hi = sorted(np.roots([-9.0, 4.4, -0.2]))
    P, t, Z, _ = _lmi_phase_one(plant, tol)
    assert Z is None and t > 0.0
    assert lo < P[0, 0] < hi


def test_lmi_maximal_point_is_the_stabilizing_root(spec_wellposed, sol_wellposed):
    # max tr P over L(P) >= 0 is the top of [0.0507, 0.4382], the root
    # solve_are returns
    plant = _plant(spec_wellposed)
    P = maximal_point(plant, _lmi_phase_one(plant, Tolerance())[0])
    assert abs(P[0, 0] - sol_wellposed.P[0, 0]) <= 1e-7


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 3), r=st.integers(1, 2), seed=st.integers(0, 2 ** 32 - 1))
def test_stochastic_are_roots_are_stabilizing(n, r, seed):
    # whenever a root is returned it is a root, with Upsilon >= 0 and a
    # mean-square stable closed loop, whatever the sign of R
    rng = np.random.default_rng(seed)
    p = _random_noisy_plant(rng, n, r)
    tol = Tolerance(ode_step=1e-2)
    try:
        X, res = solve_stochastic_are(p.A, p.B, p.C, p.D, p.Q, p.R, tol)
    except SolverError:
        return
    assert res <= tol.residual_tol
    pair = _Pair(p, X, X, None, tol)
    assert np.linalg.eigvalsh(symmetrize(pair.Ups)).min() >= -tol.residual_tol
    assert is_hurwitz(lift_msq(*pair.individual_loop()), tol)[0]


def test_are_picks_stabilizing_root(spec_wellposed, sol_wellposed):
    # the equation 9 P^2 - 4.4 P + 0.2 = 0 has two roots with positive
    # control weight; only the larger one stabilizes the closed loop
    roots = np.roots([9.0, -4.4, 0.2])
    assert sol_wellposed.P[0, 0] == pytest.approx(max(roots), abs=1e-8)
    assert sol_wellposed.residual_P < 1e-8
    assert sol_wellposed.residual_Pi < 1e-8


def test_mean_equation_quadratic_root(spec_wellposed, sol_wellposed):
    # with C = 0 the second equation is an explicit scalar quadratic
    P = sol_wellposed.P[0, 0]
    ups = spec_wellposed.R[0, 0] + 4.0 * P
    dw = derive_weights(spec_wellposed)
    ag = (spec_wellposed.A + spec_wellposed.G)[0, 0]
    qq = (spec_wellposed.Q - dw.Q_Gamma)[0, 0]
    # Pi^2/ups - 2 ag Pi - qq = 0  (sign convention: residual = 0)
    pi_roots = np.roots([1.0 / ups, -2.0 * ag, -qq])
    want = max(p for p in pi_roots if np.isreal(p)).real
    assert sol_wellposed.Pi[0, 0] == pytest.approx(want, abs=1e-8)


def test_pinned_solve_reports_residual(spec_sec6):
    sol = solve_are(spec_sec6, t_sim=10.0, pin_P=[[0.6808]])
    assert sol.P[0, 0] == pytest.approx(0.6808)
    assert sol.residual_P > 1.0  # the pinned value is not a root; reported honestly
    assert sol.residual_Pi < 1e-8


def test_pin_of_the_wrong_shape_is_refused(spec_sec6, spec_wellposed):
    two = two_channel_spec(None)   # infinite horizon
    for spec, pin, got in ((two, [[0.5]], "shape (1, 1)"), (two, np.ones(2), "shape (1, 2)"),
                           (spec_sec6, np.eye(2), "shape (2, 2)"),
                           (spec_wellposed, [[np.inf]], "shape (1, 1) with non-finite entries")):
        want = f"pin_P must be a finite {spec.n} x {spec.n} matrix, got {got}"
        with pytest.raises(ValueError, match=re.escape(want)):
            solve_are(spec, t_sim=1.0, pin_P=pin)


def test_unsolvable_equation_raises(spec_sec6):
    # the root routine refuses sec6's P equation with the LMI certificate,
    # and solve_are reports the same refusal
    plant, tol = _plant(spec_sec6), Tolerance()
    with pytest.raises(SolverError) as exc:
        _pair_root(plant, None, tol, with_Pi=False)
    margin = certificate_margin(plant, exc.value.certificate, tol)
    assert f"<Z, L(P)> = {margin:.3g}" in str(exc.value)
    with pytest.raises(SolverError) as again:
        solve_are(spec_sec6, t_sim=10.0)
    assert str(again.value) == str(exc.value)
    np.testing.assert_array_equal(again.value.certificate, exc.value.certificate)


# the three ways a steady solve is refused, as its message names them
REFUSALS = {"certified": "the Riccati LMI is infeasible, certified by",
            "unbounded": "the maximal point of the Riccati LMI is unbounded",
            "not_acceptable": "the maximal point of the Riccati LMI is no acceptable root"}


def refusal(exc):
    (reason,) = [k for k, text in REFUSALS.items() if text in str(exc)]
    return reason


def test_no_root_reports_the_refusal_reason(spec_sec6):
    tol = Tolerance(ode_step=1e-2)
    # a certificate: sec6's P equation (see test_lmi_phase_one_on_the_scalar_files)
    with pytest.raises(SolverError) as exc:
        _pair_root(_plant(spec_sec6), None, tol, with_Pi=False)
    assert refusal(exc.value) == "certified" and exc.value.certificate is not None
    # an unbounded maximal point: dx = 0.5x dt + u dW cannot be stabilized, and
    # L(P) = diag(P + 1, 1 + P) >= 0 for every P >= -1
    with pytest.raises(SolverError) as exc:
        solve_stochastic_are(0.5, 0.0, 0.0, 1.0, 1.0, 1.0, tol)
    assert refusal(exc.value) == "unbounded" and exc.value.certificate is None
    assert "trace of P rises without bound" in str(exc.value)
    # a maximal point that is a root, but not a stabilizing one
    with pytest.raises(SolverError) as exc:
        _pair_root(_random_plant(False, 15), 1, tol)
    assert refusal(exc.value) == "not_acceptable" and exc.value.certificate is None
    absc = float(re.search(r"non-stabilizing root \(lifted abscissa ([^)]+)\)", str(exc.value))[1])
    assert absc >= 0.0


def test_refused_steady_solves_warn_nothing():
    # every branch of the random sweep (limit P, Pi at a pinned P, the joint
    # pair at N = 3 and N = 1) with warnings as errors: no refusal, of any
    # of the three kinds, lets a RuntimeWarning escape
    tol = Tolerance(ode_step=1e-2)
    outcomes = dict.fromkeys(["root", *REFUSALS], 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for shifted in (False, True):
            for seed in range(30):
                plant = _random_plant(shifted, seed)
                pin = np.eye(plant.A.shape[0])
                for N, pinned, with_Pi in ((None, False, False), (None, True, True),
                                           (3, False, True), (1, False, True)):
                    try:
                        root = _pair_root(plant, N, tol, P=pin if pinned else None,
                                          with_Pi=with_Pi)
                    except SolverError as exc:
                        outcomes[refusal(exc)] += 1
                        continue
                    outcomes["root"] += 1
                    if not with_Pi:
                        pin = root.P
    assert all(outcomes.values()), outcomes


def pair_lmi(plant, P, Pi, N):
    """The population-N Riccati LMI of (P, Pi), written out term by term:
    diag(L_P, L_Pi) with M = P + (Pi - P)/N in the diffusion."""
    A, B, C, D, Q, R, AG, Q_agg = plant
    M = P + (Pi - P) / N
    CMC, DMC, Ups = C.T @ M @ C, D.T @ M @ C, R + D.T @ M @ D
    L_P = np.block([[A.T @ P + P @ A + CMC + Q, (B.T @ P + DMC).T], [B.T @ P + DMC, Ups]])
    L_Pi = np.block([[AG.T @ Pi + Pi @ AG + CMC + Q_agg, (B.T @ Pi + DMC).T],
                     [B.T @ Pi + DMC, Ups]])
    zero = np.zeros(L_P.shape)
    return np.block([[L_P, zero], [zero, L_Pi]])


def test_population_refusal_carries_a_certificate(spec_sec6):
    # sec6 at N = 50 has no steady pair: the joint LMI of (P, Pi) is certified
    # infeasible, with <Z, L(P, Pi)> the same negative margin everywhere
    tol = Tolerance()
    with pytest.raises(SolverError) as exc:
        solve_are_N(spec_sec6, tol, t_sim=10.0, N=50)
    Z = exc.value.certificate
    plant, zero, one = _plant(spec_sec6), np.zeros((1, 1)), np.ones((1, 1))
    L0 = pair_lmi(plant, zero, zero, 50)
    assert np.linalg.eigvalsh(Z)[0] >= 0.0
    assert np.trace(Z) == pytest.approx(1.0, abs=1e-14)
    for P, Pi in ((one, zero), (zero, one)):
        dL = pair_lmi(plant, P, Pi, 50) - L0
        assert abs(np.sum(Z * dL)) <= 1e-12 * (1.0 + np.abs(dL).max())
    margin = np.sum(Z * L0)
    assert margin < -tol.residual_tol
    assert f"<Z, L(P, Pi)> = {margin:.3g} for every (P, Pi)" in str(exc.value)


def stacked_lmi(plant, P, K, N):
    """The N-agent Riccati LMI at I (x) P + (11'/N) (x) K, written out in
    N n dimensions: drift I (x) A + (11'/N) (x) G, social state weight
    I (x) Q - (11'/N) (x) Q_Gamma, and agent i's own noise, which loads its
    state and control through e_i e_i' (x) C and e_i e_i' (x) D."""
    A, B, C, D, Q, R, AG, Q_agg = plant
    I, J = np.eye(N), np.ones((N, N)) / N
    X = np.kron(I, P) + np.kron(J, K)
    As = np.kron(I, A) + np.kron(J, AG - A)
    noise = [(np.kron(np.outer(e, e), C), np.kron(np.outer(e, e), D)) for e in I]
    top = As.T @ X + X @ As + sum(Cs.T @ X @ Cs for Cs, _ in noise) \
        + np.kron(I, Q) - np.kron(J, Q - Q_agg)
    Psi = np.kron(I, B).T @ X + sum(Ds.T @ X @ Cs for Cs, Ds in noise)
    Ups = np.kron(I, R) + sum(Ds.T @ X @ Ds for _, Ds in noise)
    return np.block([[top, Psi.T], [Psi, Ups]])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_stacked_lmi_splits_into_the_pair_blocks(N):
    # the stacked LMI is orthogonally similar to diag(I_(N-1) (x) L_P, L_Pi),
    # with L_P and L_Pi the blocks of _Pair.lmi_blocks: only L_Pi at N = 1
    rng = np.random.default_rng(40 + N)
    tol = Tolerance()
    for n, r in ((1, 1), (2, 1), (3, 2)):
        plant = _random_noisy_plant(rng, n, r)
        P, Pi = (symmetrize(rng.standard_normal((n, n))) for _ in range(2))
        L_P, L_Pi = (symmetrize(L) for L in _Pair(plant, P, Pi, N, tol).lmi_blocks())
        want = np.sort(np.concatenate([np.tile(np.linalg.eigvalsh(L_P), N - 1),
                                       np.linalg.eigvalsh(L_Pi)]))
        got = np.linalg.eigvalsh(stacked_lmi(plant, P, Pi - P, N))
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.abs(want).max())


def test_offset_decays(spec_wellposed, sol_wellposed):
    # exponentially decaying forcing => the offset vanishes at the far end
    assert abs(sol_wellposed.s[-1, 0]) < 1e-3
    assert abs(sol_wellposed.s[0, 0]) > 1e-3
    assert sol_wellposed.xbar[0, 0] == pytest.approx(spec_wellposed.x0_mean[0])


def test_steady_population_pair(spec_wellposed, sol_wellposed):
    solN = solve_are_N(spec_wellposed, t_sim=10.0, N=10000)
    assert solN.population == 10000
    assert solN.residual_P < 1e-8 and solN.residual_Pi < 1e-8
    # at huge N the individual matrix matches the limit equation
    assert solN.P[0, 0] == pytest.approx(sol_wellposed.P[0, 0], abs=1e-3)
    # and P + K approaches the mean-trajectory matrix
    assert (solN.P + solN.K)[0, 0] == pytest.approx(sol_wellposed.Pi[0, 0], abs=1e-3)


def test_range_report(spec_wellposed, sol_wellposed, spec_sec6_finite, sol_sec6_finite):
    rep = check_ranges(sol_wellposed, spec_wellposed)
    assert rep.all_ok and rep.failing() == []
    rep_f = check_ranges(sol_sec6_finite, spec_sec6_finite)
    assert rep_f.all_ok
    assert set(rep_f.inclusions) == {"feedback_gain", "meanfield_gain", "offset"}


# -- the knot-by-knot range check and residual, kept as the oracles of the
# -- batched ones

def _inclusion(Ups, Ui, X, tol):
    """Is every column of X in the range of the symmetric matrix Ups?"""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != Ups.shape[0]:
        X = X.reshape(Ups.shape[0], -1)
    proj = (np.eye(Ups.shape[0]) - Ups @ Ui) @ X
    res = float(np.linalg.norm(proj))
    return res <= tol.residual_tol * (1.0 + float(np.linalg.norm(X))), res


def ranges_by_knot(sol, spec, tol=Tolerance()):
    """The range report from one single-point pair per finite knot, merged
    knot by knot; an infinite solution's offset is one matrix over the grid."""
    plant, B, S = _plant(spec), spec.B, spec.sigma(sol.grid)
    if isinstance(sol, RiccatiInfiniteSolution):
        pair = _Pair(plant, sol.P, sol.Pi, sol.population, tol)
        points = [(pair, pair.offset_numerator(sol.s, S).T)]
    else:
        points = []
        for k in range(sol.grid.size):
            pair = _Pair(plant, sol.P[k], sol.P[k] + sol.K[k], sol.population, tol)
            points.append((pair, pair.offset_numerator(sol.s[k], S[k])))
    report = {}
    for pair, offset in points:
        for name, X in zip(("feedback_gain", "meanfield_gain", "offset"),
                           (pair.Psi, B.T @ pair.K, offset)):
            ok, res = _inclusion(pair.Ups, pair.Ui, X, tol)
            prev_ok, prev_res = report.get(name, (True, 0.0))
            report[name] = (prev_ok and ok, max(prev_res, res))
    return report


def two_channel_spec(T):
    """Criterion 1's n = 2 benchmark: two decoupled copies of the scalar one."""
    rr = np.array([-0.5, -0.4])
    return ProblemSpec(
        n=2, r=2, A=np.zeros((2, 2)), B=np.eye(2), C=np.zeros((2, 2)),
        D=np.eye(2), G=np.zeros((2, 2)), Q=np.diag(-2.0 * rr), R=np.diag(rr),
        Gamma=np.zeros((2, 2)), f=zero_signal(2), sigma=zero_signal(2),
        eta=zero_signal(2), x0_mean=[0.0, 0.0], x0_cov=np.zeros((2, 2)),
        N=5, horizon=T, H=np.diag(1.0 - rr),
    )


def test_range_report_matches_knot_by_knot(spec_sec6_finite, sol_sec6_finite, spec_example1,
                                           spec_wellposed, sol_wellposed):
    spec2 = two_channel_spec(spec_example1.horizon)
    cases = [
        (spec_sec6_finite, sol_sec6_finite),
        (spec_sec6_finite, solve_finite_N(spec_sec6_finite, N=5)),
        (spec_sec6_finite, solve_finite_limit(spec_sec6_finite, Tolerance(ode_step=1e-4))),
        (spec2, solve_finite_limit(spec2)),
        (spec_wellposed, sol_wellposed),
        (spec_wellposed, solve_are_N(spec_wellposed, t_sim=5.0, N=7)),
    ]
    for spec, sol in cases:
        got, want = check_ranges(sol, spec).inclusions, ranges_by_knot(sol, spec)
        assert set(got) == set(want)
        for name, (ok, res) in want.items():
            assert got[name][0] == ok
            assert got[name][1] == pytest.approx(res, rel=1e-12, abs=0.0)


def _random_pair_stack(seed, n, r, N, m=9):
    rng = np.random.default_rng(seed)
    plant = _random_noisy_plant(rng, n, r)
    P = symmetrize(rng.standard_normal((m, n, n))) + 2.0 * np.eye(n)
    Pi = symmetrize(rng.standard_normal((m, n, n))) + 2.0 * np.eye(n)
    signals = rng.standard_normal((4, m, n))
    return plant, P, Pi, signals


@pytest.mark.parametrize("n, r, N", [(1, 1, None), (2, 1, 3), (2, 2, None), (3, 2, 7)])
def test_pair_formulas_broadcast_over_knots(n, r, N):
    # every broadcasting formula on a stack equals its single-point value
    # at each knot
    tol = Tolerance()
    plant, P, Pi, (s, f, sig, eta) = _random_pair_stack(10 * n + r, n, r, N)
    batch = _Pair(plant, P, Pi, N, tol)
    rates = batch.triple_rate(s, f, sig, eta)
    for k in range(P.shape[0]):
        one = _Pair(plant, P[k], Pi[k], N, tol)
        for got, want in [
            (batch.Ui[k], one.Ui),
            (batch.residual_P()[k], one.residual_P()),
            (batch.residual_Pi()[k], one.residual_Pi()),
            *zip((X[k] for X in batch.individual_loop()), one.individual_loop()),
            *zip((X[k] for X in batch.aggregate_loop), one.aggregate_loop),
            (batch.offset_forcing(f, sig, eta)[k], one.offset_forcing(f[k], sig[k], eta[k])),
            *zip((X[k] for X in rates), one.triple_rate(s[k], f[k], sig[k], eta[k])),
        ]:
            np.testing.assert_array_equal(got, want)


def residual_by_sample(sol, spec, tol):
    """The defining-equation residual at every interior knot, one knot at a
    time through the integrator's own rate (the float one at n = r = 1)."""
    grid, Ps, Ks, ss = sol.grid, sol.P, sol.K, sol.s
    m, h = grid.size, grid[1] - grid[0]
    samples = list(range(2, m - 2))
    dw = derive_weights(spec)
    scalar = spec.n == 1 and spec.r == 1
    rate = (_scalar_rate(spec, dw, sol.population, grid[samples]) if scalar
            else _pair_rate(spec, dw, sol.population, grid[samples], tol))
    worst = 0.0
    for i, k in enumerate(samples):
        def d5(arr):
            return (-arr[k + 2] + 8 * arr[k + 1] - 8 * arr[k - 1] + arr[k - 2]) / (12 * h)
        dot = np.concatenate([d5(Ps).ravel(), d5(Ks).ravel(), d5(ss)])
        state = [X[k] for X in (Ps, Ks, ss)]
        if scalar:
            state = [X.item() for X in state]
        model = np.concatenate([np.ravel(X) for X in rate(i, *state)])
        worst = max(worst, float(np.max(np.abs(dot - model))))
    return worst


def test_finite_residual_matches_sample_by_sample(spec_sec6_finite, sol_sec6_finite,
                                                  spec_example1):
    fine = Tolerance(ode_step=1e-4)
    spec2 = two_channel_spec(spec_example1.horizon)
    cases = [(spec_sec6_finite, sol_sec6_finite, Tolerance())]
    cases += [(spec_sec6_finite, solve_finite_N(spec_sec6_finite, N=N), Tolerance())
              for N in (1, 3, 50)]
    cases += [(spec_example1, solve_finite_limit(spec_example1, fine), fine),
              (spec2, solve_finite_limit(spec2), Tolerance())]
    for spec, sol, tol in cases:
        assert sol.residual == pytest.approx(residual_by_sample(sol, spec, tol), rel=0.0, abs=1e-14)


def random_scalar_spec(seed):
    """A scalar finite problem with noise, forcing, an indefinite (negative)
    R and a horizon in [0.1, 1]; some of these escape inside it."""
    rng = np.random.default_rng(seed)
    a, b, c, g, gam, gam0, eta0 = rng.standard_normal(7)

    def one(x):
        return [[float(x)]]

    def exponential():
        return {"kind": "exponential", "a": [float(rng.normal())], "b": float(rng.normal())}

    return ProblemSpec.from_json({
        "n": 1, "r": 1, "A": one(a), "B": one(0.5 * b), "C": one(0.5 * c),
        "D": one(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)), "G": one(0.5 * g),
        "Q": one(rng.uniform(0.0, 2.0)), "R": one(-rng.uniform(0.05, 0.5)),
        "Gamma": one(0.5 * gam), "Gamma0": one(0.5 * gam0), "H": one(rng.uniform(0.5, 2.0)),
        "f": exponential(), "sigma": {"kind": "constant", "value": [0.3 * float(rng.normal())]},
        "eta": exponential(), "eta0": [float(eta0)], "x0_mean": [1.0], "x0_cov": [[0.1]],
        "N": 10, "horizon": {"finite": float(rng.uniform(0.1, 1.0))}})


def random_matrix_spec(seed, n, r, indefinite):
    """A finite problem with n states and r controls, noise, forcing, an R
    that is negative definite if indefinite, and a horizon in [0.1, 1.5];
    some of these escape inside it."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols, scale):
        return (scale * rng.standard_normal((rows, cols))).tolist()

    def exponential():
        return {"kind": "exponential", "a": rng.normal(size=n).tolist(), "b": float(rng.normal())}

    W = rng.standard_normal((n, n))
    D = rng.standard_normal((n, r))
    R = -np.diag(rng.uniform(0.05, 0.5, r)) if indefinite else np.diag(rng.uniform(0.1, 1.0, r))
    return ProblemSpec.from_json({
        "n": n, "r": r, "A": mat(n, n, 0.7), "B": mat(n, r, 0.5), "C": mat(n, n, 0.4),
        "D": D.tolist(), "G": mat(n, n, 0.3), "Q": (W @ W.T + 0.1 * np.eye(n)).tolist(),
        "R": R.tolist(), "Gamma": mat(n, n, 0.4), "Gamma0": mat(n, n, 0.4),
        "H": (0.2 * W @ W.T + 2.0 * np.eye(n)).tolist(), "f": exponential(),
        "sigma": {"kind": "constant", "value": (0.3 * rng.normal(size=n)).tolist()},
        "eta": exponential(), "eta0": rng.normal(size=n).tolist(), "x0_mean": [1.0] * n,
        "x0_cov": (0.1 * np.eye(n)).tolist(), "N": 10,
        "horizon": {"finite": float(rng.uniform(0.1, 1.5))}})


def _finite_outcome(spec, tol, N):
    """A finite solve's arrays, or its refusal's message and escape time."""
    try:
        sol = solve_finite_limit(spec, tol) if N is None else solve_finite_N(spec, tol, N=N)
    except SolverError as exc:
        return str(exc), exc.escape_time
    return sol.grid, sol.P, sol.K, sol.s, sol.residual, sol.min_upsilon_eig


# -- the triple as integrate_ode's one flat state [P, K, s], kept as the
# -- oracle of the solver's RK4 loop over the parts

def _pack(P, K, s):
    return np.concatenate([np.ravel(P), np.ravel(K), np.ravel(s)])


def _unpack(y, n):
    """P, K, s of a packed state; y may carry leading axes."""
    lead = y.shape[:-1]
    P = y[..., : n * n].reshape(lead + (n, n))
    K = y[..., n * n : 2 * n * n].reshape(lead + (n, n))
    return P, K, y[..., 2 * n * n :]


def _packed_rate(spec, dw, tol, N, times):
    """Backward rate(j, y) = d/dt [P, K, s] at times[j] on the packed state:
    ``_scalar_rate`` at n = r = 1, the pair algebra otherwise."""
    if spec.n == 1 and spec.r == 1:
        scalar = _scalar_rate(spec, dw, N, times)
        return lambda j, y: np.array(scalar(j, *y.tolist()))

    F, S, E = spec.f(times), spec.sigma(times), dw.eta_bar(times)
    n, plant = spec.n, _plant(spec, dw)

    def rate(j, y):
        P, K, s = _unpack(y, n)
        return _pack(*_Pair(plant, P, P + K, N, tol).triple_rate(s, F[j], S[j], E[j]))

    return rate


@pytest.mark.slow
def test_scalar_loop_matches_integrate_ode_oracle(monkeypatch, spec_sec6_finite, spec_example1):
    # the triple's RK4 loop, over floats at n = r = 1 and over arrays at
    # n = 2, 3, against integrate_ode driven by the packed rate with P and K
    # symmetrized after every step: every solve is array-equal, and every
    # refusal has the same message and escape time
    import mfsoc.riccati as riccati

    long = ProblemSpec.load(pathlib.Path(__file__).resolve().parent.parent
                            / "problems" / "example1_long.json")
    scalar = [spec_sec6_finite, spec_example1, long] + [random_scalar_spec(s) for s in range(12)]
    matrix = [random_matrix_spec(seed, n, r, indefinite) for seed, n, r, indefinite in
              ((101, 3, 1, False), (102, 2, 2, True), (103, 3, 2, True), (114, 2, 2, True))]
    refusals = {"scalar": 0, "matrix": 0}
    for kind, specs, steps in (("scalar", scalar, (1e-3, 1e-4)), ("matrix", matrix, (1e-2,))):
        for spec in specs:
            dw, n = derive_weights(spec), spec.n
            for step in steps:
                tol = Tolerance(ode_step=step)
                for N in (None, 1, 3, 50):
                    got = _finite_outcome(spec, tol, N)

                    def oracle(rate, ts, P, K, s):
                        def project(y):
                            P, K, s = _unpack(y, n)
                            return _pack(symmetrize(P), symmetrize(K), s)

                        with np.errstate(over="ignore", invalid="ignore"):
                            return _unpack(integrate_ode(
                                _packed_rate(spec, dw, tol, N, ts), ts[0], ts[-1],
                                _pack(P, K, s), step, project=project, bounded=2 * n * n)[1], n)

                    with monkeypatch.context() as m:
                        m.setattr(riccati, "_triple_rk4", oracle)
                        want = _finite_outcome(spec, tol, N)
                    assert len(got) == len(want)
                    for g, w in zip(got, want):
                        np.testing.assert_array_equal(g, w)
                    refusals[kind] += len(got) == 2
    assert 0 < refusals["scalar"] < 60
    assert refusals["matrix"] > 0


# -- the closure-driven offset and mean integrations, kept as the oracle of
# -- the tabulated ones: every stage re-evaluates the signals and re-interpolates

def _rk4_closure(rhs, t0, t1, y0, step):
    """Fixed-step RK4 whose right-hand side rhs(t, y) is called with the time."""
    nsteps = max(1, int(round(abs(t1 - t0) / step)))
    h = (t1 - t0) / nsteps
    ts = t0 + h * np.arange(nsteps + 1)
    ts[-1] = t1
    ys = np.empty((nsteps + 1, np.size(y0)))
    ys[0] = y = np.asarray(y0, dtype=float)
    for k in range(nsteps):
        t = ts[k]
        k1 = rhs(t, y)
        k2 = rhs(t + h / 2, y + (h / 2) * k1)
        k3 = rhs(t + h / 2, y + (h / 2) * k2)
        k4 = rhs(t + h, y + h * k3)
        ys[k + 1] = y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return ts, ys


def _closure_mean_rate(pair, x, s, f, sig):
    Acl = pair.aggregate_loop[0]
    return Acl @ x - pair.plant.B @ pair.Ui @ pair.offset_numerator(s, sig) + f


def closure_meanfield_path(spec, sol, tol):
    plant = _plant(spec)

    def rhs(t, x):
        P, K, s, _ = sol.at(t)
        pair = _Pair(plant, P, P + K, sol.population, tol)
        return _closure_mean_rate(pair, x, s, spec.f(t), spec.sigma(t))

    return _rk4_closure(rhs, 0.0, spec.horizon, spec.x0_mean, tol.ode_step)


def closure_offset_and_mean(spec, sol, tol, t_sim):
    dw = derive_weights(spec)
    pair = _Pair(_plant(spec, dw), sol.P, sol.Pi, sol.population, tol)
    Hcl = pair.aggregate_loop[0]
    absc = float(np.max(np.linalg.eigvals(Hcl).real))

    def g(t):
        return pair.offset_forcing(spec.f(t), spec.sigma(t), dw.eta_bar(t))

    t_far = t_sim + min(400.0, max(20.0, np.log(1e14) / max(1e-3, -absc)))
    s_far = -np.linalg.solve(Hcl.T, g(t_far))
    ts, ss = _rk4_closure(lambda t, s: -(Hcl.T @ s + g(t)), t_far, 0.0, s_far, tol.ode_step)
    keep = ts[::-1] <= t_sim + 1e-12
    grid, s_traj = ts[::-1][keep], ss[::-1][keep]

    def x_rhs(t, x):
        s_t = grid_interp(grid, s_traj, min(t, grid[-1]))
        return _closure_mean_rate(pair, x, s_t, spec.f(t), spec.sigma(t))

    tx, xs = _rk4_closure(x_rhs, 0.0, t_sim, spec.x0_mean, tol.ode_step)
    return tx, grid_interp(grid, s_traj, tx), xs


def _rel(new, old):
    return np.max(np.abs(new - old)) / np.max(np.abs(old))


def test_meanfield_path_matches_closure_oracle(spec_sec6_finite, sol_sec6_finite):
    tol = Tolerance()
    for sol in (sol_sec6_finite, solve_finite_N(spec_sec6_finite, N=5)):
        ts, xs = meanfield_path(spec_sec6_finite, sol, tol)
        want_ts, want_xs = closure_meanfield_path(spec_sec6_finite, sol, tol)
        np.testing.assert_array_equal(ts, want_ts)
        assert _rel(xs, want_xs) <= 1e-13


@pytest.mark.parametrize("case", ["wellposed", "wellposed_N20", "sec6_pinned"])
def test_offset_and_mean_match_closure_oracle(case, spec_wellposed, spec_sec6):
    tol, t_sim = Tolerance(ode_step=5e-3), 3.0
    if case == "wellposed":
        spec, sol = spec_wellposed, solve_are(spec_wellposed, tol, t_sim=t_sim)
    elif case == "wellposed_N20":
        spec, sol = spec_wellposed, solve_are_N(spec_wellposed, tol, t_sim=t_sim, N=20)
    else:
        spec, sol = spec_sec6, solve_are(spec_sec6, tol, t_sim=t_sim, pin_P=[[0.6808]])
    grid, s, xbar = closure_offset_and_mean(spec, sol, tol, t_sim)
    np.testing.assert_array_equal(sol.grid, grid)
    assert _rel(sol.s, s) <= 1e-13
    assert _rel(sol.xbar, xbar) <= 1e-13
