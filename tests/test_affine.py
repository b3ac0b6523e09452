"""Affinely self-similar family: closed-form sigma rate, stepping, PDE residual."""

import numpy as np
import pytest

from fastdiff_lab import affine
from fastdiff_lab import closedform as cf

from helpers import barenblatt_u


@pytest.fixture(scope="module")
def params_n2():
    return cf.derive_params(2, 2.0 / 3.0)  # p = 4


def _fd_laplacian(f, y, h):
    """Fourth-order (Richardson of central second differences) Laplacian."""
    def lap(hh):
        total = -2.0 * len(y) * f(y)
        for d in range(len(y)):
            e = np.zeros_like(y)
            e[d] = hh
            total += f(y + e) + f(y - e)
        return total / hh**2
    return (4.0 * lap(h / 2.0) - lap(h)) / 3.0


def _fd_rate(params):
    """d sigma/d tau recovered from the flow at a diagonal anisotropic Sigma,
    sigma = 1, with the traceless Sigma_0 it takes.

    With rho = det(Sigma)^{-1/2} (1 + y' Sigma^{-1} y)^{-a}, d_tau rho equals
    (d sigma/d tau) * drho/dsigma for the analytic

        drho/dsigma = rho [ -tr(Sigma^{-1})/2 + a (y'Sigma^{-2}y)/(1 + y'Sigma^{-1}y) ],

    so each sample point gives d sigma/d tau = (Lap rho^m / m) / (drho/dsigma);
    the points must agree.
    """
    n, m, a = params.n, params.m, params.a
    d = 0.3 * np.linspace(-1.0, 1.0, n)
    sigma0 = d - d.mean()
    axes = 1.0 + sigma0

    def rho(y):
        return float(np.prod(axes)) ** -0.5 * (
            1.0 + float((y * y / axes).sum())) ** (-a)

    def drho_dsigma(y):
        quad1 = float((y * y / axes).sum())
        quad2 = float((y * y / axes**2).sum())
        return rho(y) * (-0.5 * (1.0 / axes).sum() + a * quad2 / (1.0 + quad1))

    points = [0.3 * np.ones(n), 0.7 * np.linspace(1.0, 2.0, n),
              1.2 * np.linspace(0.5, 1.0, n)[::-1].copy()]
    h = 0.02
    rates = np.array([(_fd_laplacian(lambda z: rho(z) ** m, y, h) / m)
                      / drho_dsigma(y) for y in points])
    assert np.ptp(rates) / abs(rates.mean()) <= 1e-4
    return rates.mean(), np.diag(sigma0)


@pytest.mark.parametrize("n, m, B", [(2, 2.0 / 3.0, 1.0), (1, 0.5, 1.0),
                                     (3, 0.8, 1.0), (4, 0.7, 1.0),
                                     (6, 0.9, 1.0)])
def test_calibration_matches_independent_derivation(n, m, B):
    # substituting the affine ansatz into the flow gives, by hand,
    # d sigma/d tau = (4/(1-m)) det(Sigma)^((1-m)/2), i.e. cB = (2(p+n))^(p+n);
    # cB = rate^(p+n) / det Sigma, so the rates' ratio to the (p+n) is cB's
    params = cf.derive_params(n, m, B)
    rate, sigma0 = _fd_rate(params)
    state = affine.make_affine_state(sigma0, 1.0, params)
    ratio = affine._sigma_rate(state, 1.0, params) / rate
    assert ratio ** (params.p + params.n) == pytest.approx(1.0, rel=1e-4)


def test_sigma_rate_is_a_float_where_cb_overflows():
    # (2(p+n))^(p+n) is a float only for p+n < 128; the closed-form rate
    # 2(p+n) det(Sigma)^(1/(p+n)) is one at every p+n
    params = cf.derive_params(3, 0.99)  # p+n = 200
    q = params.p + params.n
    state = affine.make_affine_state(np.diag([0.1, -0.1, 0.0]), 1.0, params)
    rate = affine._sigma_rate(state, 1.0, params)
    assert rate == pytest.approx(2.0 * q * (1.1 * 0.9) ** (1.0 / q), rel=1e-14)
    iso = affine.make_affine_state(np.zeros((3, 3)), 1.0, params)
    assert affine._sigma_rate(iso, 1.0, params) == 2.0 * q


def test_state_validation(params_n2):
    with pytest.raises(ValueError, match="traceless"):
        affine.AffineState(np.diag([0.5, 0.1]), 1.0)
    with pytest.raises(ValueError, match="symmetric"):
        affine.AffineState(np.array([[0.0, 1.0], [0.5, 0.0]]), 1.0)
    with pytest.raises(ValueError, match="positive definiteness"):
        affine.make_affine_state(np.diag([0.5, -0.5]), 0.3, params_n2)


def test_rk4_fourth_order(params_n2):
    st = affine.make_affine_state(np.diag([0.25, -0.25]), 1.0, params_n2)

    def sigma_after(nsteps):
        s = st.sigma
        for _ in range(nsteps):
            s = affine._rk4(st, s, 0.1 / nsteps, params_n2)
        return s

    ref = sigma_after(2048)
    errs = [abs(sigma_after(nsteps) - ref) for nsteps in (1, 2, 4)]
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def test_advance_is_repeated_affine_step(params_n2):
    # _advance subdivides into steps of 0.01 through the same RK4 body
    st = affine.make_affine_state(np.diag([0.25, -0.25]), 1.0, params_n2)
    s = st.sigma
    for _ in range(10):
        s = affine._rk4(st, s, 0.01, params_n2)
    assert affine._advance(st, 0.1, params_n2) == s


def test_affine_density_isotropic_reduces_to_barenblatt(params_n2):
    st = affine.make_affine_state(np.zeros((2, 2)), 1.0, params_n2)
    y = np.array([[0.0, 0.0], [0.5, 0.2], [1.0, -1.0]])
    rho = affine.affine_density(st, 0.0, y, params_n2)
    # sigma = 1: Sigma = I, so the density is exactly u_B
    r = np.linalg.norm(y, axis=-1)
    assert rho == pytest.approx(barenblatt_u(r, params_n2))


def test_affine_density_batch_shapes(params_n2):
    st = affine.make_affine_state(np.diag([0.25, -0.25]), 1.0, params_n2)
    single = affine.affine_density(st, 0.1, np.array([0.3, 0.4]), params_n2)
    batch = affine.affine_density(st, 0.1, np.array([[0.3, 0.4]] * 5), params_n2)
    assert batch.shape == (5,)
    assert batch == pytest.approx(np.full(5, float(single)))


def test_pde_residual_small_and_second_order(params_n2):
    st = affine.make_affine_state(np.diag([0.25, -0.25]), 1.0, params_n2)
    r1 = affine.affine_pde_residual(st, params_n2, h=0.003125,
                                    dtau_fd=0.0015625)
    r2 = affine.affine_pde_residual(st, params_n2, h=0.0015625,
                                    dtau_fd=0.00078125)
    assert r1 <= 1e-4
    assert r1 / r2 == pytest.approx(4.0, abs=1.5)


def test_pde_residual_isotropic(params_n2):
    st = affine.make_affine_state(np.zeros((2, 2)), 1.0, params_n2)
    r = affine.affine_pde_residual(st, params_n2, h=0.003125,
                                   dtau_fd=0.0015625)
    assert r <= 1e-4  # reduces to the rescaling of u_B: residual ~ FD error


def test_positivity_abort_during_step(params_n2):
    st = affine.make_affine_state(np.diag([0.25, -0.25]), 0.26, params_n2)
    with pytest.raises(ValueError, match="positive definiteness"):
        # integrating backwards shrinks sigma below the smallest axis
        affine._advance(st, -0.5, params_n2)
