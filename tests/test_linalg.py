import numpy as np
import pytest

from mfsoc import linalg
from mfsoc.linalg import (
    BlowUpError,
    LinalgError,
    Tolerance,
    affine_rk4,
    integrate_ode,
    is_hurwitz,
    kron,
    lift_msq,
    lmi_phase_one,
    pinv,
    rk4_grid,
    spectral_abscissa,
    sym_basis,
    sym_sqrt_psd,
    symmetrize,
)


def test_pinv_penrose_conditions():
    rng = np.random.default_rng(0)
    for shape in [(1, 1), (3, 3), (4, 2), (2, 5), (6, 6)]:
        M = rng.standard_normal(shape)
        Mi = pinv(M)
        np.testing.assert_allclose(M @ Mi @ M, M, atol=1e-10)
        np.testing.assert_allclose(Mi @ M @ Mi, Mi, atol=1e-10)
        np.testing.assert_allclose((M @ Mi).T, M @ Mi, atol=1e-10)
        np.testing.assert_allclose((Mi @ M).T, Mi @ M, atol=1e-10)


def test_pinv_singular_matrix():
    # rank-1 matrix: pseudoinverse still satisfies the Penrose identities
    M = np.outer([1.0, 2.0], [3.0, -1.0])
    Mi = pinv(M)
    np.testing.assert_allclose(M @ Mi @ M, M, atol=1e-12)
    # exactly zero matrix maps to zero
    np.testing.assert_array_equal(pinv(np.zeros((3, 3))), np.zeros((3, 3)))
    np.testing.assert_array_equal(pinv(np.zeros((1, 1))), np.zeros((1, 1)))


def test_pinv_scalar_matches_svd_path():
    assert pinv(np.array([[4.0]]))[0, 0] == pytest.approx(0.25)
    with pytest.raises(LinalgError):
        pinv(np.array([[np.nan]]))


def test_pinv_rank_cutoff():
    # singular values below the relative cutoff are zeroed, not inverted
    M = np.diag([1.0, 1e-14])
    Mi = pinv(M, Tolerance(rank_cutoff=1e-10))
    assert Mi[1, 1] == 0.0


def test_lift_msq_spectrum_no_noise():
    # with C = 0 the lifted spectrum is all pairwise sums of eig(A)
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3))
    ev = np.linalg.eigvals(A)

    def csort(v):  # order by rounded (re, im) so ties sort identically
        return v[np.lexsort((np.round(v.imag, 8), np.round(v.real, 8)))]

    want = csort((ev[:, None] + ev[None, :]).ravel())
    got = csort(np.linalg.eigvals(lift_msq(A, np.zeros((3, 3)))))
    np.testing.assert_allclose(got, want, atol=1e-8)


def test_kron_equals_numpy():
    rng = np.random.default_rng(2)
    for sa, sb in [((1, 1), (1, 1)), ((3, 3), (3, 3)), ((2, 3), (4, 1)), ((3, 1), (2, 2))]:
        a, b = rng.standard_normal(sa), rng.standard_normal(sb)
        np.testing.assert_array_equal(kron(a, b), np.kron(a, b))


def test_lift_msq_scalar():
    # d(x^2)/dt generator for dx = a x dt + c x dW is 2a + c^2
    assert lift_msq([[-2.0]], [[1.5]])[0, 0] == pytest.approx(-4.0 + 2.25)


def test_is_hurwitz():
    ok, a = is_hurwitz([[-1.0]])
    assert ok and a == pytest.approx(-1.0)
    ok, _ = is_hurwitz([[0.0]])
    assert not ok  # marginal spectra fail the strict test
    ok, _ = is_hurwitz(np.diag([-1.0, 2.0]))
    assert not ok


def test_spectral_abscissa_requires_square():
    with pytest.raises(LinalgError):
        spectral_abscissa(np.ones((2, 3)))


def test_lmi_phase_one_decides_both_ways():
    # [[1, x], [x, -1]] >= 0 has no solution: the certificate is diagonal
    # (orthogonal to the off-diagonal direction), puts its weight on the
    # negative corner, and its value lies within a tenth of max_x lambda_min = -1
    L0, L1 = np.diag([1.0, -1.0]), np.array([[0.0, 1.0], [1.0, 0.0]])
    x, t, Z, value = lmi_phase_one(L0, [L1], 1e-7)
    assert np.linalg.eigvalsh(Z)[0] >= 0.0 and np.trace(Z) == pytest.approx(1.0)
    assert abs(np.sum(Z * L1)) <= 1e-12
    assert value == np.sum(Z * L0) and t <= -1.0 <= value <= -0.9
    # [[1, x], [x, x]] >= 0 exactly for x in [0, 1]: phase I stops inside
    x, t, Z, value = lmi_phase_one(np.diag([1.0, 0.0]), [np.array([[0.0, 1.0], [1.0, 1.0]])], 1e-7)
    assert Z is None and value is None and t > 0.0 and 0.0 < x[0] < 1.0


def test_rk4_order():
    # halving the step should shrink the error by ~16 (4th order)
    def rate(j, y):
        return -y

    errs = []
    for step in (1e-2, 5e-3):
        _, ys = integrate_ode(rate, 0.0, 1.0, np.array([1.0]), step)
        errs.append(abs(ys[-1, 0] - np.exp(-1.0)))
    assert errs[0] / errs[1] > 12.0


def test_rk4_backward_integration():
    def rate(j, y):
        return y  # backward from y(1)=e should hit y(0)=1

    ts, ys = integrate_ode(rate, 1.0, 0.0, np.array([np.e]), 1e-3)
    assert ts[0] == 1.0 and ts[-1] == 0.0
    assert ys[-1, 0] == pytest.approx(1.0, abs=1e-10)


def test_rk4_project_hook():
    calls = []

    def project(y):
        calls.append(1)
        return np.clip(y, 0.0, None)

    integrate_ode(lambda j, y: -y, 0.0, 0.1, np.array([1.0]), 1e-2, project=project)
    assert len(calls) == 10


def test_rk4_tabulated_rate():
    # dy/dt = cos t read from a table on the stage grid: the knots are the
    # even indices, the midpoints the odd ones
    ts = rk4_grid(0.0, 1.0, 1e-2)
    assert ts.size == 201 and ts[0] == 0.0 and ts[-1] == 1.0
    np.testing.assert_allclose(ts[1::2], 0.5 * (ts[:-1:2] + ts[2::2]), rtol=1e-15)
    table = np.cos(ts)[:, None]
    knots, ys = integrate_ode(lambda j, y: table[j], 0.0, 1.0, np.array([0.0]), 1e-2)
    np.testing.assert_array_equal(knots, ts[::2])
    # RK4 on a pure quadrature is Simpson's rule: error <= h^4/2880
    assert abs(ys[-1, 0] - np.sin(1.0)) < 1e-11
    # a reversed grid runs t0 -> t1; an empty span has one stage
    np.testing.assert_allclose(rk4_grid(1.0, 0.0, 0.25), np.linspace(1.0, 0.0, 9))
    np.testing.assert_array_equal(rk4_grid(2.0, 2.0, 0.1), [2.0])


def test_rk4_blowup():
    with pytest.raises(BlowUpError) as exc:
        integrate_ode(lambda j, y: y * y, 0.0, 2.0, np.array([1.0]), 1e-3)
    assert 0.0 < exc.value.time <= 2.0
    # a rate that turns NaN at stage 10 (t = 0.5) is caught at the end of
    # the step that read it
    nan_from_half = lambda j, y: y * np.nan if j >= 10 else -y
    with pytest.raises(BlowUpError) as exc:
        integrate_ode(nan_from_half, 0.0, 1.0, np.array([1.0, 2.0]), 0.1)
    assert exc.value.time == pytest.approx(0.5)


def _random_affine_problem(seed, d, steps, hurwitz):
    """Constant L with spectral abscissa -0.5 (Hurwitz) or +0.5, forcing on
    the stage grid of [0, 1] and a start state."""
    rng = np.random.default_rng(seed)
    L = rng.standard_normal((d, d))
    L -= (spectral_abscissa(L) + (0.5 if hurwitz else -0.5)) * np.eye(d)
    q = rng.standard_normal((2 * steps + 1, d))
    return L, q, rng.standard_normal(d)


def _constant_rate(L, q):
    """affine_rk4's rate for y' = L y + q, q tabulated on the stage grid."""
    return lambda j, y: np.einsum("ij,...j->...i", L, y) + q[j]


def _tabulated_rate(L, q):
    """affine_rk4's rate for y' = L(t) y + q(t), both tabulated on the stage
    grid; a batch row b reads L[:, b] and q[:, b]."""
    return lambda j, y: np.einsum("...ij,...j->...i", L[j], y) + q[j]


def _random_tabulated_problem(seed, d, steps, batch=()):
    """A smooth time-varying L (and forcing) on the stage grid of one unit
    of time, whose matrices do not commute from stage to stage."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, 2 * steps + 1).reshape((-1,) + (1,) * (len(batch) + 2))
    L0, L1, L2 = (rng.standard_normal(batch + (d, d)) for _ in range(3))
    L = L0 - np.eye(d) + L1 * np.sin(3.0 * t) + L2 * np.cos(5.0 * t)
    q = rng.standard_normal(batch + (d,)) * np.exp(-t[..., 0])
    return L, q, rng.standard_normal(batch + (d,))


def _oracle(L, q, t0, t1, y0, step):
    """integrate_ode's knots and states, batch row by batch row."""
    rows = [integrate_ode(lambda j, y: L[(j,) + b] @ y + q[(j,) + b], t0, t1, y0[b], step)
            for b in np.ndindex(y0.shape[:-1])]
    ys = np.stack([ys for _, ys in rows], axis=1)
    return rows[0][0], ys.reshape(ys.shape[:1] + y0.shape)


@pytest.mark.parametrize("steps", [1, 2, 3, 1000, 1023, 1025])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("backward", [False, True])
def test_affine_rk4_matches_integrate_ode(steps, d, backward):
    t0, t1 = (1.0, 0.0) if backward else (0.0, 1.0)
    for hurwitz in (True, False):
        L, q, y0 = _random_affine_problem(steps * 10 + d, d, steps, hurwitz)
        knots, ys = affine_rk4(_constant_rate(L, q), t0, t1, y0, 1.0 / steps)
        want_knots, want = integrate_ode(lambda j, y: L @ y + q[j], t0, t1, y0, 1.0 / steps)
        np.testing.assert_array_equal(knots, want_knots)
        assert ys.shape == want.shape == (steps + 1, d)
        assert np.max(np.abs(ys - want)) <= 1e-12 * np.max(np.abs(want))


def test_affine_rk4_blowup_reports_first_failing_knot():
    # exponential growth e^{40 t} crosses the 1e12 norm bound near t = 0.69
    L, q = 40.0 * np.eye(2), np.zeros((2001, 2))
    y0 = np.array([1.0, -1.0])
    with pytest.raises(BlowUpError) as want:
        integrate_ode(lambda j, y: L @ y + q[j], 0.0, 1.0, y0, 1e-3)
    with pytest.raises(BlowUpError) as got:
        affine_rk4(_constant_rate(L, q), 0.0, 1.0, y0, 1e-3)
    assert got.value.time == want.value.time < 0.7
    # forcing that turns NaN from stage 10 (t = 0.5) fails at the end of the
    # step that read it, not at the last knot
    L = -np.eye(2)
    q = np.zeros((21, 2))
    q[10:] = np.nan
    with pytest.raises(BlowUpError) as want:
        integrate_ode(lambda j, y: L @ y + q[j], 0.0, 1.0, y0, 0.1)
    with pytest.raises(BlowUpError) as got:
        affine_rk4(_constant_rate(L, q), 0.0, 1.0, y0, 0.1)
    assert got.value.time == want.value.time == pytest.approx(0.5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_affine_rk4_tabulated_matches_integrate_ode(d, backward, batch):
    t0, t1 = (1.0, 0.0) if backward else (0.0, 1.0)
    L, q, y0 = _random_tabulated_problem(d + 7 * len(batch), d, 200, batch)
    knots, ys = affine_rk4(_tabulated_rate(L, q), t0, t1, y0, 5e-3)
    want_knots, want = _oracle(L, q, t0, t1, y0, 5e-3)
    np.testing.assert_array_equal(knots, want_knots)
    assert ys.shape == want.shape == (201,) + batch + (d,)
    assert np.max(np.abs(ys - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("steps", [15, 16, 17, 31, 32, 33])
def test_affine_rk4_carries_across_blocks(monkeypatch, steps):
    # blocks of 8 steps: the counts sit just below, at and above a boundary
    d = 3
    monkeypatch.setattr(linalg, "_SCAN_ELEMS", 8 * d * (d + 1))
    L, q, y0 = _random_tabulated_problem(steps, d, steps, (2,))
    for t0, t1 in ((0.0, 1.0), (1.0, 0.0)):
        knots, ys = affine_rk4(_tabulated_rate(L, q), t0, t1, y0, 1.0 / steps)
        want_knots, want = _oracle(L, q, t0, t1, y0, 1.0 / steps)
        np.testing.assert_array_equal(knots, want_knots)
        assert np.max(np.abs(ys - want)) <= 1e-12 * np.max(np.abs(want))


def test_affine_rk4_matches_scipy_on_smooth_time_varying_system():
    solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

    def L(t):
        return np.array([[-1.0 + 0.5 * np.sin(t), 0.25 * t, 0.0],
                         [-0.3 * np.cos(2.0 * t), -0.5, 1.0],
                         [0.2, -np.sin(t), -0.8]])

    def q(t):
        return np.array([np.sin(t), np.exp(-t), 1.0])

    y0, T = np.array([1.0, -0.5, 2.0]), 2.0
    ref = solve_ivp(lambda t, y: L(t) @ y + q(t), (0.0, T), y0, method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True).sol
    errs = []
    for step in (0.02, 0.01):
        ts = rk4_grid(0.0, T, step)
        Ls, qs = np.stack([L(t) for t in ts]), np.stack([q(t) for t in ts])
        knots, ys = affine_rk4(_tabulated_rate(Ls, qs), 0.0, T, y0, step)
        errs.append(np.max(np.abs(ys - ref(knots).T)) / np.max(np.abs(ys)))
    # RK4's global error is O(h^4): halving the step divides it by about 16
    assert errs[0] < 1e-7 and errs[0] / errs[1] > 12.0


def test_affine_rk4_blowup_in_a_later_block(monkeypatch):
    # blocks of 64 steps; e^{40 t} crosses the 1e12 norm bound near knot
    # 690, in block 10, which must report that knot and not the block's last
    monkeypatch.setattr(linalg, "_SCAN_ELEMS", 64 * 2 * 3)
    L = 40.0 * np.eye(2) + np.array([[0.0, 1.0], [-1.0, 0.0]]) * np.sin(
        np.linspace(0.0, 3.0, 2001))[:, None, None]
    q, y0 = np.zeros((2001, 2)), np.array([1.0, -1.0])
    with pytest.raises(BlowUpError) as want:
        integrate_ode(lambda j, y: L[j] @ y + q[j], 0.0, 1.0, y0, 1e-3)
    with pytest.raises(BlowUpError) as got:
        affine_rk4(_tabulated_rate(L, q), 0.0, 1.0, y0, 1e-3)
    assert got.value.time == want.value.time < 0.7
    assert round(want.value.time * 1000) % 64 != 0


def test_affine_rk4_batch_rows_equal_batches_of_one(monkeypatch):
    monkeypatch.setattr(linalg, "_SCAN_ELEMS", 16 * 3 * 4)   # several blocks
    L, q, y0 = _random_tabulated_problem(11, 3, 50, (4,))
    _, ys = affine_rk4(_tabulated_rate(L, q), 0.0, 1.0, y0, 0.02)
    for b in range(4):
        _, row = affine_rk4(_tabulated_rate(L[:, b], q[:, b]), 0.0, 1.0, y0[b], 0.02)
        np.testing.assert_array_equal(ys[:, b], row)


def test_sym_basis_svec_coordinates():
    # the unit matrices span the symmetric ones, and X = sum_k X[i_k, j_k] E_k
    rng = np.random.default_rng(2)
    for n in (1, 2, 3):
        E = sym_basis(n)
        assert E.shape == (n * (n + 1) // 2, n, n)
        np.testing.assert_array_equal(E, E.mT)
        X = symmetrize(rng.standard_normal((n, n)))
        i, j = np.triu_indices(n)
        np.testing.assert_array_equal(np.tensordot(X[i, j], E, 1), X)


def test_symmetrize_and_sqrt():
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    S = symmetrize(M)
    np.testing.assert_allclose(S, S.T)
    A = np.array([[4.0, 0.0], [0.0, 9.0]])
    np.testing.assert_allclose(sym_sqrt_psd(A) @ sym_sqrt_psd(A), A, atol=1e-12)
    # tiny negative eigenvalues are clipped rather than propagated as NaN
    out = sym_sqrt_psd(np.array([[-1e-14]]))
    assert out[0, 0] == 0.0


def test_tolerance_validation():
    with pytest.raises(LinalgError):
        Tolerance(rank_cutoff=2.0)
    with pytest.raises(LinalgError):
        Tolerance(ode_step=0.0)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_pinv_stack_equals_each_matrix(r):
    # one SVD over the stack, each member with its own cutoff: the same
    # arrays as inverting member by member, singular and zero ones included
    rng = np.random.default_rng(r)
    M = rng.standard_normal((40, r, r))
    M = M + M.mT
    M[3] = 0.0
    M[7] *= 1e-300
    M[11] = np.outer(M[11, 0], M[11, 0])   # rank one
    M[13] = np.diag(np.r_[1.0, np.full(r - 1, 1e-14)])   # singular below the cutoff
    stack = pinv(M)
    assert stack.shape == M.shape
    np.testing.assert_array_equal(stack, np.stack([pinv(X) for X in M]))
    np.testing.assert_array_equal(stack[3], np.zeros((r, r)))
    np.testing.assert_array_equal(pinv(M.reshape(5, 8, r, r)), stack.reshape(5, 8, r, r))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("r", [1, 2])
def test_pinv_stack_refuses_non_finite(bad, r):
    M = np.ones((6, r, r))
    M[4, -1, 0] = bad
    with pytest.raises(LinalgError):
        pinv(M)
