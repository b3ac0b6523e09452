"""Closed-form layer: parameters, spectrum, eigenfunctions, rate tables."""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiff_lab import closedform as cf
from fastdiff_lab.closedform import ModeIndex, P_STAR

from helpers import barenblatt_u, delayed_barenblatt_time_derivative


# ---------------------------------------------------------------------------
# derive_params / landmarks
# ---------------------------------------------------------------------------

def test_derive_params_examples(params33):
    assert params33.p == pytest.approx(3.0)
    assert params33.beta == pytest.approx(1.0)
    assert params33.eta_cr == pytest.approx(0.5)
    assert params33.lambda_01 == cf.eigenvalue(ModeIndex(0, 1), params33)

    p2 = cf.derive_params(3, 3.0 / 5.0, 1.0)  # the m_2 boundary
    assert p2.p == pytest.approx(2.0)
    assert p2.eta_cr == pytest.approx(0.0)

    p1 = cf.derive_params(1, 0.5, 1.0)
    assert p1.p == pytest.approx(3.0)


def test_derive_params_rejections():
    with pytest.raises(ValueError, match="mass-preserving"):
        cf.derive_params(3, 1.2)
    with pytest.raises(ValueError, match="mass-preserving"):
        cf.derive_params(3, 1.0 / 3.0)  # m_0 itself is excluded
    # B is a scaling symmetry, fixed at 1
    for B in (-1.0, 0.0, 2.0, 0.5, math.nan):
        with pytest.raises(ValueError, match="parameter B"):
            cf.derive_params(3, 0.5, B)
    with pytest.raises(ValueError):
        cf.derive_params(0, 0.5)


def test_landmarks(params33):
    lm = cf.landmarks(params33)
    assert lm["m_0"] == pytest.approx(1.0 / 3.0)
    assert lm["m_2"] == pytest.approx(0.6)
    assert lm["m_n"] == pytest.approx(2.0 / 3.0)
    assert lm["m_n+4"] == pytest.approx(0.8)
    # middle interval degenerates for n = 2
    lm2 = cf.landmarks(cf.derive_params(2, 0.5))
    assert lm2["m_6"] == lm2["m_n+4"]
    # n = 1 carries the p* boundary
    lm1 = cf.landmarks(cf.derive_params(1, 0.5))
    assert lm1["m_p*"] == pytest.approx(1.0 - 2.0 / (1.0 + P_STAR))


def test_landmark_identity_mq_at_p():
    # m_q with q = p recovers m exactly
    for (n, m) in [(3, 2.0 / 3.0), (3, 0.77), (2, 0.5), (1, 0.9)]:
        params = cf.derive_params(n, m)
        assert 1.0 - 2.0 / (n + params.p) == pytest.approx(m, rel=1e-13)


@given(st.integers(1, 6), st.floats(0.01, 0.99))
def test_params_invariants(n, frac):
    m0 = (n - 2.0) / n
    m = m0 + frac * (1.0 - m0)
    if not (m0 < m < 1.0):
        return
    params = cf.derive_params(n, m)
    assert params.p > 0
    assert params.beta == pytest.approx(0.5 * (1 + n / params.p))
    assert params.eta_cr == pytest.approx(params.p / 2 - 1)
    # m_2 ordering: eta_cr sign flips at m_2
    m2 = 1.0 - 2.0 / (n + 2)
    if m > m2:
        assert params.eta_cr > 0
    elif m < m2:
        assert params.eta_cr < 0


# ---------------------------------------------------------------------------
# Barenblatt profile
# ---------------------------------------------------------------------------

def test_barenblatt_u(params33):
    assert barenblatt_u(0.0, params33) == pytest.approx(1.0)
    p_half = cf.derive_params(3, 0.5, 1.0)
    assert barenblatt_u(1.0, p_half) == pytest.approx(0.25)
    # far-field log-log slope is -(n+p)
    r = np.array([1e3, 2e3])
    u = barenblatt_u(r, params33)
    slope = np.log(u[1] / u[0]) / np.log(2.0)
    assert slope == pytest.approx(-(params33.n + params33.p), abs=1e-5)


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def test_eigenvalues_paper_table(params33):
    n, p = 3, 3.0
    assert cf.eigenvalue(ModeIndex(0, 0), params33) == 0.0
    assert cf.eigenvalue(ModeIndex(1, 0), params33) == pytest.approx(-(n + p))
    assert cf.eigenvalue(ModeIndex(0, 1), params33) == pytest.approx(-2 * p)
    assert cf.eigenvalue(ModeIndex(0, 2), params33) == pytest.approx(-4 * p + 8)
    assert cf.eigenvalue(ModeIndex(1, 1), params33) == pytest.approx(-3 * p - n + 4)
    assert cf.eigenvalue(ModeIndex(2, 0), params33) == pytest.approx(-2 * p - 2 * n)


def test_eigenvalue_crossings():
    # lambda_10 = lambda_01 iff p = n (m = m_n)
    pn = cf.derive_params(3, 2.0 / 3.0)
    assert cf.eigenvalue(ModeIndex(1, 0), pn) == pytest.approx(
        cf.eigenvalue(ModeIndex(0, 1), pn))
    # triple crossing at p = n + 4
    pq = cf.derive_params(3, 0.8)
    lams = [cf.eigenvalue(ModeIndex(l, k), pq) for (l, k) in [(2, 0), (1, 1), (0, 2)]]
    assert lams[0] == pytest.approx(lams[1])
    assert lams[1] == pytest.approx(lams[2])
    assert lams[0] == pytest.approx(-4 * 3 - 8)


def test_essential_threshold(params33):
    assert cf.essential_threshold(0, params33.eta_cr, params33) == pytest.approx(-6.25)
    # at eta = 0, p > 2: threshold hits lambda_01
    assert cf.essential_threshold(0, 0.0, params33) == pytest.approx(-6.0)
    assert cf.essential_threshold(2, params33.eta_cr, params33) == pytest.approx(-12.25)


def test_admissible_modes(params33):
    modes = cf.admissible_modes(params33.eta_cr, params33)
    as_dict = {(md.ell, md.k): lam for md, lam in modes}
    assert as_dict == pytest.approx(
        {(0, 0): 0.0, (1, 0): -6.0, (0, 1): -6.0, (2, 0): -12.0})
    lams = [lam for _, lam in modes]
    assert lams == sorted(lams, reverse=True)
    # n = 1 keeps only the even/odd sectors
    p1 = cf.derive_params(1, 0.5)
    assert all(md.ell <= 1 for md, _ in cf.admissible_modes(p1.eta_cr, p1))


def test_admissibility_matches_threshold_inequality():
    # among the eta_cr eigenvalues, admissibility at eta is exactly "the
    # eigenvalue lies above the essential threshold at eta" (modes beyond
    # the eta_cr range are antibound: the formula value can sit above the
    # threshold without being an eigenvalue)
    for (n, m) in [(3, 2.0 / 3.0), (3, 0.8), (2, 0.75), (1, 0.5)]:
        params = cf.derive_params(n, m)
        for eta in (0.0, params.eta_cr, params.eta_cr + 0.7, params.eta_cr - 0.7):
            for md, lam in cf.admissible_modes(params.eta_cr, params):
                thr = cf.essential_threshold(md.ell, eta, params)
                if abs(lam - thr) > 1e-9:
                    assert cf.is_admissible(md, eta, params) == (lam > thr)


def test_lambda_monotone_in_k_where_admissible():
    for (n, m) in [(3, 2.0 / 3.0), (3, 0.8), (3, 0.9), (1, 0.5)]:
        params = cf.derive_params(n, m)
        for md, lam in cf.admissible_modes(params.eta_cr, params):
            if cf.is_admissible(ModeIndex(md.ell, md.k + 1), params.eta_cr, params):
                nxt = cf.eigenvalue(ModeIndex(md.ell, md.k + 1), params)
                assert nxt < lam
            assert lam > cf.essential_threshold(md.ell, params.eta_cr, params)


def test_remark_eight_subset():
    # at eta = 0, p in ]2, n+4[, with mass and center modded out ((0,0) and
    # (1,0) removed): modes with eigenvalue in ]2*lambda_01, 0[ come from
    # the stated eight-element set
    allowed = {(0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)}
    for (n, m) in [(3, 0.65), (3, 0.7), (3, 0.75), (2, 0.7), (4, 0.75)]:
        params = cf.derive_params(n, m)
        if not (2.0 < params.p < n + 4):
            continue
        lam01 = -2 * params.p
        for md, lam in cf.admissible_modes(0.0, params):
            if (md.ell, md.k) in ((0, 0), (1, 0)):
                continue
            if 2 * lam01 < lam < 0:
                assert (md.ell, md.k) in allowed, (n, m, md)


# ---------------------------------------------------------------------------
# Eigenfunctions
# ---------------------------------------------------------------------------

def test_psi_trivial_cases(params33):
    r = np.linspace(0, 4, 9)
    assert cf.eigenfunction_psi(ModeIndex(0, 0), r, params33) == pytest.approx(
        np.ones_like(r))
    assert cf.eigenfunction_psi(ModeIndex(2, 0), r, params33) == pytest.approx(r**2)
    assert cf.eigenfunction_psi(ModeIndex(0, 1), r, params33) == pytest.approx(
        1.0 - r**2)


def test_psi_general_k0_and_b_scaling():
    params = cf.derive_params(3, 0.8)
    r = np.linspace(0, 3, 7)
    assert cf.eigenfunction_psi(ModeIndex(1, 0), r, params) == pytest.approx(r)
    # leading series term at B = 1: 1 - (p/n) r^2
    psi = cf.eigenfunction_psi(ModeIndex(0, 1), r, params)
    assert psi == pytest.approx(1.0 - (params.p / params.n) * r**2)


def test_psi_inadmissible_rejected(params33):
    with pytest.raises(ValueError, match="not admissible"):
        cf.eigenfunction_psi(ModeIndex(0, 2), np.array([1.0]), params33)


def test_eigenfunction_v(params33):
    s = np.linspace(0, 3, 13)
    v00 = cf.eigenfunction_v(ModeIndex(0, 0), s, params33)
    assert v00 == pytest.approx(1.0 / np.cosh(s) ** 2)
    v01 = cf.eigenfunction_v(ModeIndex(0, 1), s, params33)
    assert v01 == pytest.approx(2.0 / np.cosh(s) ** 2 - 1.0)
    # far-field growth rate e^{(l+2k-2)s}
    for (l, k) in [(0, 1), (2, 0)]:
        md = ModeIndex(l, k)
        big = np.array([8.0, 9.0])
        v = cf.eigenfunction_v(md, big, params33)
        rate = np.log(np.abs(v[1] / v[0]))
        assert rate == pytest.approx(l + 2 * k - 2, abs=1e-3)


def test_eigenfunction_orthogonality_quad(params33):
    # integral psi_0k psi_0k' u_B^(2-m) r^(n-1) dr = 0 for k != k'
    def pair(k1, k2):
        def integrand(r):
            w = (1.0 + r**2) ** (-(params33.n + params33.p + 2) / 2)
            return (cf.eigenfunction_psi(ModeIndex(0, k1), r, params33)
                    * cf.eigenfunction_psi(ModeIndex(0, k2), r, params33)
                    * w * r ** (params33.n - 1))
        val, _ = scipy.integrate.quad(integrand, 0, np.inf)
        return val
    diag = pair(1, 1)
    assert abs(pair(0, 1)) <= 1e-8 * abs(diag)


# ---------------------------------------------------------------------------
# Potential profile, target rates, second-order table
# ---------------------------------------------------------------------------

def test_potential_profile(params33):
    prof = cf.potential_profile(params33.eta_cr, params33)
    assert prof["c_inf"] == pytest.approx(-(params33.p / 2 + 1) ** 2)
    assert prof["b_inf"] == pytest.approx(0.0)
    assert prof["depth"] == pytest.approx(
        (params33.p / 2 + 1 + params33.n) * (params33.p / 2 + 1))
    prof0 = cf.potential_profile(0.0, params33)
    assert prof0["c_inf"] == pytest.approx(-2 * params33.p)


def test_eta_for_target_rate(params33):
    lam0 = params33.lambda_cont
    assert cf.eta_for_target_rate(lam0, params33) == pytest.approx(params33.eta_cr)
    # Lambda = lambda_01 for p > 2 gives the unweighted space
    assert cf.eta_for_target_rate(-2 * params33.p, params33) == pytest.approx(0.0)
    lam = lam0 + 0.1
    eta = cf.eta_for_target_rate(lam, params33)
    assert cf.essential_threshold(0, eta, params33) == pytest.approx(lam, abs=1e-12)
    for bad in (lam0 - 0.1, 0.0, 1.0):
        with pytest.raises(ValueError):
            cf.eta_for_target_rate(bad, params33)


@given(st.floats(-0.99, -1e-6))
@settings(max_examples=30)
def test_eta_target_right_inverse(frac):
    params = cf.derive_params(3, 0.7)
    Lambda = -frac * params.lambda_cont * -1.0  # in ]lambda_cont, 0[
    Lambda = params.lambda_cont * (-frac)
    eta = cf.eta_for_target_rate(Lambda, params)
    assert eta <= params.eta_cr
    assert cf.essential_threshold(0, eta, params) == pytest.approx(Lambda, abs=1e-10)


def test_second_order_rates_branches():
    r = cf.second_order_rates(cf.derive_params(3, 0.7))
    assert r.gamma == pytest.approx(289.0 / 264.0)
    assert r.delta == pytest.approx(1.0 / 8.0)
    assert r.branch == cf.RateBranch.CONTINUUM

    r = cf.second_order_rates(cf.derive_params(3, 0.8))  # m_{n+4} boundary
    assert r.gamma == pytest.approx(10.0 / 7.0)
    assert r.delta == pytest.approx(0.2)
    assert r.delta == pytest.approx(1.0 - 0.8)

    r = cf.second_order_rates(cf.derive_params(3, 0.55))
    assert r.gamma == pytest.approx(961.0 / 936.0)
    assert r.delta == pytest.approx(-1.0 / 16.0)
    assert r.branch == cf.RateBranch.TIGHT

    r = cf.second_order_rates(cf.derive_params(3, 0.9))
    assert r.gamma == pytest.approx(20.0 / 17.0)
    assert r.branch == cf.RateBranch.LAMBDA20

    # middle branch: n=3, p between 6 and 7 -> m between 7/9 and 0.8
    r = cf.second_order_rates(cf.derive_params(3, 0.79))
    assert r.branch == cf.RateBranch.LAMBDA02
    p = cf.derive_params(3, 0.79).p
    assert r.gamma == pytest.approx(2 * (p - 2) / p)
    assert r.delta == pytest.approx(1.0 - 0.79)


def test_second_order_rates_n1_split():
    # n = 1: first branch below p*, quadrupole-formula branch above
    lm = cf.landmarks(cf.derive_params(1, 0.5))
    m_star = lm["m_p*"]
    below = cf.derive_params(1, m_star - 0.02)
    above = cf.derive_params(1, m_star + 0.02)
    rb = cf.second_order_rates(below)
    ra = cf.second_order_rates(above)
    assert rb.branch == cf.RateBranch.CONTINUUM
    assert rb.gamma == pytest.approx((below.p + 2) ** 2 / (8 * below.p))
    assert ra.branch == cf.RateBranch.LAMBDA20
    assert ra.gamma == pytest.approx((above.p + 1) / above.p)


def test_second_order_rates_m2_rejected():
    # the one-sided limits coincide, and the message states them
    with pytest.raises(cf.BranchBoundaryError,
                       match=r"\(gamma, delta\) = \(1\.0, 0\.0\) on both sides"):
        cf.second_order_rates(cf.derive_params(3, 0.6))


def test_second_order_cross_check_delta_formulas():
    # first branch: delta = (2m - n(1-m))/4; subcritical: m/2 - n(1-m)/4
    p7 = cf.derive_params(3, 0.7)
    assert cf.second_order_rates(p7).delta == pytest.approx(
        (2 * 0.7 - 3 * 0.3) / 4.0)
    p55 = cf.derive_params(3, 0.55)
    assert cf.second_order_rates(p55).delta == pytest.approx(
        0.55 / 2 - 3 * 0.45 / 4)


# ---------------------------------------------------------------------------
# Delayed Barenblatt
# ---------------------------------------------------------------------------

def test_delayed_barenblatt_fixed_point(params33):
    s = np.linspace(0, 10, 21)
    for t in (0.0, 0.7, 3.0):
        v = cf.delayed_barenblatt_v(t, s, 0.0, 1.0, params33)
        assert v == pytest.approx(np.ones_like(s))


def test_delayed_barenblatt_limits(params33):
    s = np.linspace(0, 12, 601)
    tau0, bplus = 0.4, 0.7
    # t -> infinity: v -> u_{B+}/u_B at rate e^{-2pt} in sup norm
    target = ((1.0 + np.sinh(s) ** 2)
              / (bplus + np.sinh(s) ** 2)) ** params33.a
    errs = []
    for t in (1.0, 1.5):
        v = cf.delayed_barenblatt_v(t, s, tau0, bplus, params33)
        errs.append(np.max(np.abs(v - target)))
    rate = np.log(errs[0] / errs[1]) / 0.5
    assert rate == pytest.approx(2 * params33.p, rel=0.05)
    # s -> infinity at fixed t: v -> theta^(-p)
    E = math.exp(2 * params33.p * 0.3)
    theta = (E / (E + 2 * params33.p * tau0)) ** params33.beta
    v_far = cf.delayed_barenblatt_v(0.3, 14.0, tau0, bplus, params33)
    assert v_far == pytest.approx(theta ** (-params33.p), rel=1e-6)


def test_delayed_barenblatt_domain_guard(params33):
    with pytest.raises(ValueError, match="domain"):
        cf.delayed_barenblatt_v(0.0, 1.0, -1.0, 1.0, params33)
    with pytest.raises(ValueError, match="positive"):
        cf.delayed_barenblatt_v(0.0, 1.0, 0.1, -1.0, params33)


def test_delayed_barenblatt_time_derivative(params33):
    s = np.linspace(0, 8, 33)
    tau0, bplus = 0.25, 1.3
    t, dt = 0.4, 1e-5
    fd = (cf.delayed_barenblatt_v(t + dt, s, tau0, bplus, params33)
          - cf.delayed_barenblatt_v(t - dt, s, tau0, bplus, params33)) / (2 * dt)
    an = delayed_barenblatt_time_derivative(t, s, tau0, bplus, params33)
    assert an == pytest.approx(fd, rel=1e-6, abs=1e-10)


def _delayed_barenblatt_pointwise(t, s, tau0, bplus, params):
    """The delayed Barenblatt at one time, as the formula reads (oracle)."""
    E = math.exp(2.0 * params.p * t)
    theta = (E / (E + 2.0 * params.p * tau0)) ** params.beta
    sh2 = np.sinh(s) ** 2
    ratio = (1.0 + sh2) / (bplus + theta * theta * sh2)
    return theta ** params.n * ratio ** params.a


@pytest.mark.parametrize("count", [1, 2, 17])
def test_delayed_barenblatt_of_times_is_one_row_per_time(params33, count):
    s = np.linspace(0.0, 12.0, 601)
    times = list(np.linspace(0.0, 2.5, count))
    for tau0, bplus in ((0.15, 1.0), (-0.05, 0.7)):
        rows = cf.delayed_barenblatt_v(times, s, tau0, bplus, params33)
        assert rows.shape == (count, s.size)
        for t, row in zip(times, rows):
            want = _delayed_barenblatt_pointwise(t, s, tau0, bplus, params33)
            assert np.array_equal(row, want)
            assert np.array_equal(
                cf.delayed_barenblatt_v(t, s, tau0, bplus, params33), want)
