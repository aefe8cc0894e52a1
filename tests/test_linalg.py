import numpy as np
import pytest

from mfsoc.linalg import (
    BlowUpError,
    LinalgError,
    Tolerance,
    integrate_ode,
    is_hurwitz,
    kron,
    lift_msq,
    pinv,
    quadrature,
    rk4_grid,
    spectral_abscissa,
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


def test_quadrature_linear_exact():
    grid = np.linspace(0.0, 2.0, 41)
    assert quadrature(3.0 * grid + 1.0, grid=grid) == pytest.approx(8.0)
    assert quadrature(np.ones(11), dx=0.1) == pytest.approx(1.0)
    with pytest.raises(LinalgError):
        quadrature(np.array([1.0]), dx=0.1)


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
