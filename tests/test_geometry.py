"""Grids, cigar quadrature, weighted sup norms."""

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiff_lab import closedform as cf
from fastdiff_lab import geometry as geo
from fastdiff_lab.closedform import ModeIndex

from conftest import gaussian_profile
from helpers import inner_product_uBm, volume_weight


def test_make_grid():
    grid = geo.make_grid(12.0, 1200)
    assert grid.h == pytest.approx(0.01)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == 12.0
    fine = geo.refine(grid)
    assert fine.count == 2400 and fine.s_max == 12.0
    with pytest.raises(ValueError):
        geo.make_grid(12.0, 8)
    with pytest.raises(ValueError):
        geo.make_grid(-1.0, 100)


def test_grid_function_invariants(grid12):
    with pytest.raises(ValueError, match="vanish at the origin"):
        geo.GridFunction(grid12, 1, np.ones(grid12.count + 1))
    with pytest.raises(ValueError, match="non-finite"):
        vals = np.zeros(grid12.count + 1)
        vals[3] = np.inf
        geo.GridFunction(grid12, 0, vals)
    with pytest.raises(ValueError, match="shape"):
        geo.GridFunction(grid12, 0, np.zeros(7))


def test_volume_weight():
    s = np.linspace(0, 20, 41)
    assert volume_weight(s, 1) == pytest.approx(np.ones_like(s))
    assert volume_weight(np.array([18.0]), 3)[0] == pytest.approx(1.0, abs=1e-10)
    assert volume_weight(np.array([1.0]), 3)[0] == pytest.approx(
        np.tanh(1.0) ** 2)


def test_integrate_cigar_quadrature_order():
    # Richardson ratio ~4 on a smooth decaying integrand; n = 2 keeps the
    # Euler-Maclaurin endpoint term alive (higher n superconverges).  At
    # m = 1/2, eta_cr = 0, so pairing against 1 in L^2_{u_B^m} is the plain
    # cigar integral of f tanh(s) ds
    params = cf.derive_params(2, 0.5)
    assert params.eta_cr == 0.0
    exact, _ = scipy.integrate.quad(
        lambda s: np.exp(-((s - 0.8) ** 2)) * np.tanh(s), 0, 14,
        epsabs=1e-14)
    errs = []
    for count in (280, 560, 1120):
        grid = geo.make_grid(14.0, count)
        f = geo.GridFunction(grid, 0, np.exp(-((grid.nodes - 0.8) ** 2)))
        one = geo.GridFunction(grid, 0, np.ones(count + 1))
        errs.append(abs(inner_product_uBm(f, one, params) - exact))
    for j in range(2):
        ratio = errs[j] / errs[j + 1]
        assert abs(ratio - 4.0) <= 0.8


def test_inner_product_isometry(grid12, params33):
    # L2_{u_B^m} pairing equals the cigar L2 pairing of the conjugated profile
    s = grid12.nodes
    f = geo.GridFunction(grid12, 0, np.exp(-((s - 1.0) ** 2)))
    lhs = inner_product_uBm(f, f, params33)
    g = (np.cosh(s) ** (-params33.eta_cr)) * f.values
    rhs = float(np.trapezoid(g * g * volume_weight(s, 3), s))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_inner_product_against_reference_quadrature(grid12, params33):
    v00 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 0), grid12.nodes, params33))
    val = inner_product_uBm(v00, v00, params33)
    ref, _ = scipy.integrate.quad(
        lambda s: (1 / np.cosh(s) ** 4) * np.tanh(s) ** 2 * np.cosh(s) ** (-1.0),
        0, 12.0, epsabs=1e-14)
    assert val == pytest.approx(ref, rel=1e-6)


def test_inner_product_orthogonality(grid12, params33):
    v00 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 0), grid12.nodes, params33))
    v01 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 1), grid12.nodes, params33))
    off = inner_product_uBm(v00, v01, params33)
    diag = inner_product_uBm(v01, v01, params33)
    assert abs(off) <= 1e-8 * abs(diag)


def test_weighted_sup(grid12, params33):
    s = grid12.nodes
    for eta in (-1.0, 0.7, 2.0):
        f = geo.GridFunction(grid12, 0, np.cosh(s) ** eta)
        assert geo.weighted_sup(f, eta) == pytest.approx(1.0)
    v01 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 1), s, params33))
    assert geo.weighted_sup(v01, 0.0) == pytest.approx(1.0)
    # strongly negative weight puts the sup at s_max for growing profiles
    grow = geo.GridFunction(grid12, 0, np.cosh(s))
    weighted = np.cosh(s) ** 3 * grow.values
    assert geo.weighted_sup(grow, -3.0) == pytest.approx(weighted[-1])


@given(st.floats(-5, 5), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_norm_homogeneity_and_triangle(c, seed):
    grid = geo.make_grid(6.0, 60)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(grid.count + 1)
    b = rng.standard_normal(grid.count + 1)
    fa = geo.GridFunction(grid, 0, a)
    fb = geo.GridFunction(grid, 0, b)
    fab = geo.GridFunction(grid, 0, a + b)
    fca = geo.GridFunction(grid, 0, c * a)
    # absolute homogeneity (exact up to rounding)
    assert geo.weighted_sup(fca, 0.3) == pytest.approx(
        abs(c) * geo.weighted_sup(fa, 0.3), rel=1e-12, abs=1e-12)
    # triangle inequality
    assert geo.weighted_sup(fab, 0.3) <= (
        geo.weighted_sup(fa, 0.3) + geo.weighted_sup(fb, 0.3)) * (1 + 1e-12)


def test_cell_masses_total(grid12, params33):
    # cells tile [0, s_max - h/2]; total mass matches quadrature of u_B r^2 dr
    masses = geo.cell_masses(grid12, params33)
    ref, _ = scipy.integrate.quad(
        lambda s: np.sinh(s) ** 2 * np.cosh(s) ** (-5.0), 0,
        grid12.s_max - grid12.h / 2, epsabs=1e-14)
    assert masses.sum() == pytest.approx(ref, rel=1e-10)


def test_tail_estimate():
    assert geo.tail_estimate(1e-6, 2.0) == pytest.approx(5e-7)
    assert geo.tail_estimate(1.0, 0.0) == np.inf


def test_shared_cached_arrays_are_read_only(grid12, params33):
    masses = geo.cell_masses(grid12, params33)
    with pytest.raises(ValueError):
        masses[0] = 1.0
    with pytest.raises(ValueError):
        grid12.nodes[0] = 1.0
    assert geo.cell_masses(grid12, params33)[0] != 1.0
    assert grid12.nodes[0] == 0.0


def test_node_power_arrays_are_shared_and_read_only(grid12, params33):
    for fn, exponent in (("cosh", -0.5), ("sinh", 4), ("tanh", 2),
                         ("cosh", 1.0 - 3 - params33.p)):
        arr = geo._node_power(grid12, fn, exponent)
        assert np.array_equal(arr, getattr(np, fn)(grid12.nodes) ** exponent)
        assert geo._node_power(grid12, fn, exponent) is arr
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_weighted_sup_is_the_pointwise_formula(grid12):
    f = gaussian_profile(grid12)
    for eta in (0.0, 0.5, 1, 2.25):
        want = float(np.max(np.abs(np.cosh(grid12.nodes) ** (-eta) * f.values)))
        assert geo.weighted_sup(f, eta) == want


def test_step_count():
    assert geo.step_count(0.0, 3.0, 1e-3) == 3000
    assert geo.step_count(0.0, 3.2, 5e-4) == 6400
    assert geo.step_count(0.5, 0.5, 1e-2) == 0
    with pytest.raises(ValueError, match="nearest reachable time is 0.009"):
        geo.step_count(0.0, 0.01, 3e-3)
    with pytest.raises(ValueError, match="dt must be positive"):
        geo.step_count(0.0, 1.0, 0.0)
