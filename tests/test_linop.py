"""Operator assembly, spectra, residuals, the linear semigroup."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from fastdiff_lab import closedform as cf
from fastdiff_lab import geometry as geo
from fastdiff_lab import linop
from fastdiff_lab.asymptotics import WindowPolicy, fit_rate
from fastdiff_lab.closedform import ModeIndex

from conftest import gaussian_profile
from helpers import orthogonalize, propagate, volume_weight


# ---------------------------------------------------------------------------
# assemble
# ---------------------------------------------------------------------------

def test_assemble_boundary_descriptors(grid12, params33):
    op0 = linop.assemble(0, 0.0, grid12, params33)
    assert op0.first_node == 0  # Neumann ghost at the origin
    assert op0.n_unknowns == grid12.count
    op1 = linop.assemble(1, 0.0, grid12, params33)
    assert op1.first_node == 1  # Dirichlet at the origin
    assert op1.n_unknowns == grid12.count - 1
    with pytest.raises(ValueError, match="n = 1"):
        linop.assemble(2, 0.0, grid12, cf.derive_params(1, 0.5))


def test_far_field_row_sum_hits_cinf(grid12, params33):
    # applied to the constant 1, rows near s_max produce c_inf(eta)
    for eta in (0.0, params33.eta_cr):
        op = linop.assemble(0, eta, grid12, params33)
        i = grid12.count - 2
        row_sum = op.sub[i] + op.diag[i] + op.sup[i]
        cinf = cf.potential_profile(eta, params33)["c_inf"]
        assert row_sum == pytest.approx(cinf, abs=1e-6)


def test_mass_mode_is_stationary(grid12, params33):
    # L applied to v_00 at eta = 0 vanishes to O(h^2)
    v00 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 0), grid12.nodes, params33))
    op = linop.assemble(0, 0.0, grid12, params33)
    out = linop.apply(op, v00)
    assert np.max(np.abs(out.values[:grid12.count - 1])) <= 1e-4


def test_apply_linearity_and_mismatch(grid12, grid_coarse, params33):
    op = linop.assemble(0, 0.3, grid12, params33)
    f = gaussian_profile(grid12, 1.0)
    g = gaussian_profile(grid12, 2.0, 0.7)
    a, b = 1.7, -0.4
    lhs = linop.apply(op, f.with_values(a * f.values + b * g.values)).values
    rhs = a * linop.apply(op, f).values + b * linop.apply(op, g).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-13 * scale
    zero = linop.apply(op, f.with_values(np.zeros_like(f.values)))
    assert np.all(zero.values == 0.0)
    with pytest.raises(ValueError, match="grid"):
        linop.apply(op, gaussian_profile(grid_coarse, 1.0))
    with pytest.raises(ValueError, match="harmonic"):
        linop.apply(op, gaussian_profile(grid12, 1.0, ell=1))


def test_discrete_symmetrizability(grid12, params33):
    # exact diagonal symmetrizer: relative defect at rounding level
    for eta in (params33.eta_cr, 0.0):
        op = linop.assemble(0, eta, grid12, params33)
        logw = op.symmetrizer_log_weights()
        w = np.exp(logw - logw.max())
        defect = np.abs(op.sup[:-1] * w[:-1] - op.sub[1:] * w[1:])
        scale = np.max(np.abs(op.sup[:-1] * w[:-1]))
        assert np.max(defect) <= 1e-10 * scale


def test_symmetry_at_etacr_in_cigar_pairing(grid12, params33):
    # <Lf, g> = <f, Lg> with respect to the scheme's own discrete weights,
    # which at eta_cr coincide with the cigar volume element up to O(h^2)
    op = linop.assemble(0, params33.eta_cr, grid12, params33)
    logw = op.symmetrizer_log_weights()
    w = np.exp(logw - logw.max())
    f = gaussian_profile(grid12, 1.2).values[:grid12.count]
    g = gaussian_profile(grid12, 2.4, 0.6).values[:grid12.count]
    Lf = linop._matvec(op, f)
    Lg = linop._matvec(op, g)
    lhs = np.dot(w * Lf, g)
    rhs = np.dot(w * f, Lg)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
    # and the discrete weights track tanh^{n-1} s in the interior
    s = grid12.nodes[:grid12.count]
    ratio = w[200:1100] / volume_weight(s[200:1100], params33.n)
    ratio /= ratio[len(ratio) // 2]
    assert np.max(np.abs(ratio - 1.0)) <= 1e-3


def test_top_eigenvalues_matching(grid12, params33):
    op = linop.assemble(0, params33.eta_cr, grid12, params33)
    rep = linop.top_eigenvalues(op, 4)
    assert rep.threshold == pytest.approx(-6.25)
    vals = [e.value for e in rep.entries]
    assert vals == sorted(vals, reverse=True)
    assert (rep.entries[0].mode.ell, rep.entries[0].mode.k) == (0, 0)
    assert abs(rep.entries[0].value) <= 1e-2
    assert (rep.entries[1].mode.ell, rep.entries[1].mode.k) == (0, 1)
    assert rep.entries[1].value == pytest.approx(-6.0, abs=1e-2)
    for e in rep.entries[2:]:
        assert e.mode is None and e.continuum_artifact
        assert e.value <= rep.threshold


def test_eigenvalue_count_matches_admissible():
    # discrete eigenvalues above essential_threshold(l, eta) == admissible count
    grid = geo.make_grid(12.0, 600)
    margin = 0.05
    for (n, m) in [(3, 2.0 / 3.0), (3, 0.8), (1, 0.5)]:
        params = cf.derive_params(n, m)
        for eta in (0.0, params33_eta(params), params33_eta(params) + 0.6):
            for ell in (0, 1, 2):
                if n == 1 and ell > 1:
                    continue
                admissible = [md for md, _ in cf.admissible_modes(eta, params)
                              if md.ell == ell]
                op = linop.assemble(ell, eta, grid, params)
                rep = linop.top_eigenvalues(op, max(len(admissible) + 3, 4))
                above = [e for e in rep.entries if e.value > rep.threshold + margin]
                assert len(above) == len(admissible), (n, m, eta, ell)


def params33_eta(params):
    return params.eta_cr


def test_eigenvalue_richardson_three_grids():
    params = cf.derive_params(3, 0.8)
    md = ModeIndex(0, 1)
    lam = cf.eigenvalue(md, params)
    errs = []
    for count in (300, 600, 1200):
        grid = geo.make_grid(12.0, count)
        op = linop.assemble(0, params.eta_cr, grid, params)
        rep = linop.top_eigenvalues(op, 2, match_tol=0.5)
        val = [e.value for e in rep.entries if e.mode == md][0]
        errs.append(val - lam)
    d = np.diff(errs)
    assert d[0] / d[1] == pytest.approx(4.0, abs=0.8)


def test_eigen_residual_examples(grid12, params33):
    # (0,0) at several eta; (1,0) at eta_cr against lambda = -6
    for eta in (0.0, 0.3, params33.eta_cr):
        assert linop.eigen_residual(ModeIndex(0, 0), eta, grid12, params33) <= 1e-3
    r = linop.eigen_residual(ModeIndex(1, 0), params33.eta_cr, grid12, params33)
    assert r <= 1e-3
    with pytest.raises(ValueError, match="not admissible"):
        linop.eigen_residual(ModeIndex(0, 2), params33.eta_cr, grid12, params33)


def test_eigen_residual_richardson(params33):
    md = ModeIndex(0, 1)
    grids = [geo.make_grid(12.0, c) for c in (600, 1200)]
    r = [linop.eigen_residual(md, params33.eta_cr, g, params33) for g in grids]
    assert r[0] / r[1] == pytest.approx(4.0, abs=0.8)


# ---------------------------------------------------------------------------
# the u_B^m orthogonalization oracle of tests/helpers.py
# ---------------------------------------------------------------------------

def test_project_reproducing(grid12, params33):
    v01 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 1), grid12.nodes, params33))
    p = orthogonalize(v01, [ModeIndex(0, 1)], params33)
    assert geo.weighted_sup(p, 0.0) <= 1e-8
    assert v01.values - p.values == pytest.approx(v01.values, abs=1e-8)


def test_project_idempotent(grid12, params33):
    f = gaussian_profile(grid12, 1.5)
    modes = [ModeIndex(0, 0), ModeIndex(0, 1)]
    p1 = orthogonalize(f, modes, params33)
    p2 = orthogonalize(p1, modes, params33)
    q2 = p1.with_values(p1.values - p2.values)
    assert geo.weighted_sup(q2, 0.0) <= 1e-12 * geo.weighted_sup(f, 0.0)


def test_project_orthogonal_split(grid12, params33):
    s = grid12.nodes
    v00 = cf.eigenfunction_v(ModeIndex(0, 0), s, params33)
    v01 = cf.eigenfunction_v(ModeIndex(0, 1), s, params33)
    f = geo.GridFunction(grid12, 0, v00 + v01)
    p = orthogonalize(f, [ModeIndex(0, 1)], params33)
    assert np.max(np.abs(f.values - p.values - v01)) <= 1e-6


def test_project_commutes_with_step(grid12, params33):
    # a step of the exact linear semigroup commutes with the u_B^m
    # orthogonalization against v00 to O(h^2)
    op = linop.assemble(0, 0.0, grid12, params33)
    modes = [ModeIndex(0, 0)]
    f = gaussian_profile(grid12, 1.5)
    dt = 5e-3
    N = grid12.count

    def step(g):
        out = g.values.copy()
        out[:N] = propagate(op, g.values[:N], [dt])[0]
        return g.with_values(out)

    a = step(orthogonalize(f, modes, params33))
    b = orthogonalize(step(f), modes, params33)
    scale = geo.weighted_sup(f, 0.0)
    assert np.max(np.abs(a.values - b.values)) <= 1e-4 * scale


# ---------------------------------------------------------------------------
# semigroup_decay: the exact semigroup from the top eigenpairs
# ---------------------------------------------------------------------------

def decay_samples(monkeypatch, *args, **kwargs):
    """semigroup_decay's fit, the (times, samples) it fitted last and the
    pair counts of its eigensolves."""
    from fastdiff_lab import asymptotics
    fitted, counts = [], []
    fit_rate, top_eigh = asymptotics.fit_rate, linop._top_eigh
    monkeypatch.setattr(asymptotics, "fit_rate", lambda t, v, policy=None:
                        fitted.append((t, v)) or fit_rate(t, v, policy))
    monkeypatch.setattr(linop, "_top_eigh", lambda op, count, **kw:
                        counts.append(count) or top_eigh(op, count, **kw))
    try:
        fit = linop.semigroup_decay(*args, **kwargs)
    finally:
        monkeypatch.undo()
    return fit, fitted[-1], counts


def _criterion_4_run(grid, params, eta_frac, kind):
    """Criterion 4's shapes at eta = eta_frac * eta_cr: the bump with the
    modes above the continuum removed (to t = 5, window 1e-9..1e-4) or the
    slowest decaying eigenfunction (to t = 2, window 1e-5..0.5)."""
    s = grid.nodes
    eta = eta_frac * params.eta_cr
    op = linop.assemble(0, eta, grid, params)
    thr = cf.essential_threshold(0, eta, params)
    modes = [md for md, lam in cf.admissible_modes(eta, params)
             if md.ell == 0 and lam > thr]
    if kind == "bump":
        f0 = geo.GridFunction(grid, 0,
                              np.cosh(s) ** (-eta) * np.exp(-(s - 1.5) ** 2))
        return op, f0, modes, 5.0, WindowPolicy(1e-9, 1e-4)
    mode = [md for md in modes if cf.eigenvalue(md, params) < 0][-1]
    wv = np.cosh(s) ** (-eta) * cf.eigenfunction_v(mode, s, params)
    f0 = geo.GridFunction(grid, 0, wv / np.max(np.abs(wv)))
    return op, f0, [], 2.0, WindowPolicy(1e-5, 0.5)


RUNS = [(0.0, "bump"), (0.5, "bump"), (1.0, "bump"), (0.5, "eigen"),
        (1.0, "eigen")]


@pytest.mark.parametrize("eta_frac, kind", RUNS)
def test_propagator_samples_match_the_full_eigendecomposition(
        monkeypatch, grid_coarse, params33, eta_frac, kind):
    # samples inside the fit window against every eigenpair: the bump runs
    # agree to about 1e-12 relative and the eigenfunction runs to about
    # 1e-10, the conditioning eps |L| / gap of the slow eigenvectors at
    # |L| ~ 4/h^2, not the truncation, which the doubling keeps below
    # 1e-6 * value_lo
    op, f0, modes, t_final, policy = _criterion_4_run(grid_coarse, params33,
                                                      eta_frac, kind)
    fit, (times, sups), _ = decay_samples(monkeypatch, op, f0, modes, t_final,
                                          8e-3, params33, policy=policy)
    x = f0.values[:grid_coarse.count]
    scale = np.abs(propagate(op, x, [0.0], modes)).max()
    want = np.abs(propagate(op, x, times[1:], modes)).max(axis=1) / scale
    assert sups[0] == 1.0
    inside = (times[1:] >= fit.window[0]) & (times[1:] <= fit.window[1])
    rtol = 1e-11 if kind == "bump" else 1e-9
    np.testing.assert_allclose(sups[1:][inside], want[inside], rtol=rtol,
                               atol=0.0)
    exact = fit_rate(times[1:], want, policy)
    assert fit.window == exact.window
    assert fit.slope == pytest.approx(exact.slope, rel=rtol / 10.0)


@pytest.mark.parametrize("eta_frac", [0.5, 1.0])
def test_propagator_samples_match_expm(monkeypatch, grid_coarse, params33,
                                       eta_frac):
    # the eigenfunction runs (nothing removed) against the dense matrix
    # exponential of op itself, at five times across the fit window
    op, f0, modes, t_final, policy = _criterion_4_run(grid_coarse, params33,
                                                      eta_frac, "eigen")
    fit, (times, sups), _ = decay_samples(monkeypatch, op, f0, modes, t_final,
                                          8e-3, params33, policy=policy)
    x = f0.values[:grid_coarse.count]
    L = np.diag(op.diag) + np.diag(op.sup[:-1], 1) + np.diag(op.sub[1:], -1)
    window = np.flatnonzero((times >= fit.window[0]) & (times <= fit.window[1]))
    for j in window[::len(window) // 4]:
        want = np.abs(scipy.linalg.expm(times[j] * L) @ x).max() / np.abs(x).max()
        assert sups[j] == pytest.approx(want, rel=1e-9)


def test_propagator_doubles_its_pairs_until_the_dropped_modes_are_negligible(
        monkeypatch, grid_coarse, params33):
    # the bump's window opens near t = 1.3, where the 32 top pairs suffice;
    # the eigenfunction's opens at t = 0.12 and needs 64
    for kind, want in (("bump", [32]), ("eigen", [32, 64])):
        op, f0, modes, t_final, policy = _criterion_4_run(
            grid_coarse, params33, 0.5, kind)
        _, _, counts = decay_samples(monkeypatch, op, f0, modes, t_final,
                                     8e-3, params33, policy=policy)
        assert counts == want


def test_semigroup_keeps_the_mass_mode(monkeypatch, grid12, params33):
    # v00 is an eigenfunction with eigenvalue 0 at eta = 0; the sampled
    # analytic v00 differs from the discrete eigenvector by O(h^2).  The
    # window opens at t = 0.1: one opening at t = dt would take every pair
    op = linop.assemble(0, 0.0, grid12, params33)
    v00 = geo.GridFunction(
        grid12, 0, cf.eigenfunction_v(ModeIndex(0, 0), grid12.nodes, params33))
    fit, (times, sups), _ = decay_samples(
        monkeypatch, op, v00, [], 1.0, 5e-3, params33,
        policy=WindowPolicy(0.5, 2.0, t_lo=0.1))
    assert np.max(np.abs(sups[times >= 0.1] - 1.0)) <= 5e-5
    assert abs(fit.slope) <= 5e-5


def test_semigroup_decays_v01_at_minus_2p(grid12, params33):
    op = linop.assemble(0, 0.0, grid12, params33)
    v01 = cf.eigenfunction_v(ModeIndex(0, 1), grid12.nodes, params33)
    w = geo.GridFunction(grid12, 0, v01 / np.max(np.abs(v01)))
    fit = linop.semigroup_decay(
        op, w, [], 1.0, 2e-3, params33,
        policy=WindowPolicy(value_lo=1e-3, value_hi=1.0, t_lo=0.1, t_hi=1.0))
    assert fit.slope == pytest.approx(-2 * params33.p, rel=0.02)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_semigroup_decay_names_a_non_finite_profile(grid12, params33, bad):
    op = linop.assemble(0, 0.0, grid12, params33)
    f0 = gaussian_profile(grid12)
    f0.values[5] = bad
    with pytest.raises(ValueError, match="grid function contains non-finite"):
        linop.semigroup_decay(op, f0, [], 1.0, 1e-2, params33)


def test_semigroup_complement_bound(grid12, params33):
    # on the complement of the two top discrete modes the semigroup
    # contracts the symmetrizer-weighted norm by e^{(c_inf+tol) t}
    eta = params33.eta_cr
    op = linop.assemble(0, eta, grid12, params33)
    cinf = cf.potential_profile(eta, params33)["c_inf"]
    logw = op.symmetrizer_log_weights()
    w = np.exp(0.5 * (logw - logw.max()))
    rng = np.random.default_rng(5)
    times = np.array([0.0, 0.01, 0.1, 1.0])
    for _ in range(5):
        x = rng.standard_normal(grid12.count) * np.exp(
            -0.1 * grid12.nodes[:grid12.count])
        rows = propagate(op, x, times, [ModeIndex(0, 0), ModeIndex(0, 1)])
        norms = np.linalg.norm(w * rows, axis=1)
        assert (norms[1:] / norms[0] <= np.exp((cinf + 0.5) * times[1:])).all()


def test_semigroup_decay_threshold(grid12, params33):
    op = linop.assemble(0, params33.eta_cr, grid12, params33)
    modes = [ModeIndex(0, 0), ModeIndex(0, 1)]
    f0 = gaussian_profile(grid12, 1.5)
    fit = linop.semigroup_decay(op, f0, modes, 4.0, 2e-3, params33,
                                policy=WindowPolicy(1e-9, 1e-4))
    cinf = -6.25
    assert fit.slope <= cinf + 0.05 * abs(cinf)
    assert fit.slope >= cinf - 0.10 * abs(cinf)


def test_semigroup_decay_eigenmode_dominates(grid12, params33):
    # an unremoved eigen component saturates its own eigenvalue
    op = linop.assemble(0, params33.eta_cr, grid12, params33)
    s = grid12.nodes
    wv = np.cosh(s) ** (-params33.eta_cr) * cf.eigenfunction_v(
        ModeIndex(0, 1), s, params33)
    f0 = geo.GridFunction(grid12, 0, wv)
    fit = linop.semigroup_decay(op, f0, [], 1.5, 2e-3, params33,
                                policy=WindowPolicy(1e-5, 0.5))
    assert fit.slope == pytest.approx(-6.0, rel=0.03)


def test_semigroup_removes_only_the_named_modes(params33):
    # at eta_cr the mass mode (0,0) has eigenvalue 0: a bump with (0,1)
    # alone removed keeps it and does not decay (deflating the top pair,
    # (0,0) among them, gave -7.25 here)
    grid = geo.make_grid(12.0, 600)
    eta = params33.eta_cr
    op = linop.assemble(0, eta, grid, params33)
    s = grid.nodes
    f0 = geo.GridFunction(grid, 0,
                          np.cosh(s) ** (-eta) * np.exp(-(s - 1.5) ** 2))
    fit = linop.semigroup_decay(op, f0, [ModeIndex(0, 1)], 5.0, 4e-3, params33,
                                policy=WindowPolicy(1e-3, 2.0, t_lo=0.5))
    assert abs(fit.slope) <= 5e-3


def test_semigroup_decay_refuses_a_mode_it_cannot_remove(grid12, params33):
    # (0,2) at eta_cr + 2 with p = 7 is not admissible; neither is a mode
    # of another l, nor one with k beyond the unknowns
    params = cf.derive_params(3, 0.8)
    op = linop.assemble(0, params.eta_cr + 2.0, grid12, params)
    f0 = gaussian_profile(grid12, 1.5)
    with pytest.raises(ValueError, match=r"cannot remove mode \(0,2\) .*"
                       r"not one of its admissible discrete modes"):
        linop.semigroup_decay(op, f0, [ModeIndex(0, 2)], 1.0, 1e-2, params)
    op1 = linop.assemble(1, 0.0, grid12, params33)
    with pytest.raises(ValueError, match=r"cannot remove mode \(0,0\)"):
        linop.semigroup_decay(op1, gaussian_profile(grid12, 1.5, ell=1),
                              [ModeIndex(0, 0)], 1.0, 1e-2, params33)
    coarse = geo.make_grid(12.0, 16)
    big = cf.derive_params(3, 0.99)  # p = 197: (0,20) is admissible at eta_cr
    assert cf.is_admissible(ModeIndex(0, 20), big.eta_cr, big)
    with pytest.raises(ValueError, match=r"on 16 unknowns"):
        linop.semigroup_decay(linop.assemble(0, big.eta_cr, coarse, big),
                              gaussian_profile(coarse, 1.5), [ModeIndex(0, 20)],
                              1.0, 1e-2, big)


def test_semigroup_decay_refuses_a_partial_last_step(grid12, params33):
    op = linop.assemble(0, 0.0, grid12, params33)
    f0 = gaussian_profile(grid12)
    with pytest.raises(ValueError, match="nearest reachable time is 0.99"):
        linop.semigroup_decay(op, f0, [], 1.0, 3e-2, params33)


def test_deflation_on_a_coarse_grid_at_large_p_is_finite(monkeypatch):
    # p ~ 150: h = 0.02 is too coarse for the central g-frame drift, so
    # those rows carry the drift inside the flux and keep their sign;
    # D^{-1/2} reaches 1e106 there, so the pairs double to the whole
    # spectrum, and every sample stays finite without a warning
    params = cf.derive_params(3, 0.9867)
    grid = geo.make_grid(4.0, 200)
    op = linop.assemble(0, 0.0, grid, params)
    f0 = gaussian_profile(grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit, (_, sups), counts = decay_samples(
            monkeypatch, op, f0, [ModeIndex(0, 0)], 0.02, 1e-4, params,
            policy=WindowPolicy(0.0, np.inf, min_samples=2))
    assert counts == [32, 64, 128, 200]
    assert np.isfinite(sups).all() and np.isfinite(fit.slope)


def test_assemble_at_large_p_matches_every_radial_mode():
    # p = 197: cosh(s)^-(eta_cr+2) underflows beyond s = 7.8, its neighbour
    # ratios do not; all 50 l = 0 modes lie above the threshold on s_max 8
    params = cf.derive_params(3, 0.99)
    grid = geo.make_grid(8.0, 1600)
    radial = {md for md, _ in cf.admissible_modes(params.eta_cr, params)
              if md.ell == 0}
    assert len(radial) == 50
    op = linop.assemble(0, params.eta_cr, grid, params)
    rep = linop.top_eigenvalues(op, len(radial), match_tol=np.inf)
    assert {e.mode for e in rep.entries} == radial
    for e in rep.entries:
        assert abs(e.error) <= 1e-2 * max(abs(e.closed_form), 1.0), e
    op1 = linop.assemble(1, params.eta_cr, grid, params)
    assert np.isfinite(op1.diag).all()
    assert (op1.sup[:-1] * op1.sub[1:] > 0).all()


def test_ghost_closure_keeps_sign_on_a_coarse_grid():
    # p = 1e4, h = 0.02: |2l-p-2| h^2 = 4, so the O(h^4) closure
    # g_0 = (4 g_1 - g_2)/3 would turn the first l = 1 row's sup negative
    params = cf.derive_params(1, 1.0 - 2.0 / 10001.0)
    grid = geo.make_grid(12.0, 600)
    for eta in (0.0, params.eta_cr):
        op = linop.assemble(1, eta, grid, params)
        assert np.isfinite(op.diag).all()
        assert (op.sup[:-1] * op.sub[1:] > 0).all()


def test_assemble_on_a_grid_past_cosh_overflow(params33):
    # cosh(s) overflows beyond s = 710 and cosh(s)^2 beyond 355; the bands
    # use log cosh and the limit 0 of sech^2 s and 1/sinh 2s
    grid = geo.make_grid(800.0, 8000)
    for ell in (0, 1):
        for eta in (0.0, params33.eta_cr):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                op = linop.assemble(ell, eta, grid, params33)
            for band in (op.sub, op.diag, op.sup):
                assert np.isfinite(band).all()
            assert (op.sup[:-1] * op.sub[1:] > 0).all()
    top = linop.top_eigenvalues(op, 1).entries[0]
    assert top.mode == ModeIndex(1, 0) and abs(top.error) <= 1e-2


def test_unrepresentable_bands_are_the_one_named_refusal():
    params = cf.derive_params(1, 0.99999)  # p = 2e5, h |2l-p-2| = 4000
    grid = geo.make_grid(12.0, 600)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(linop.EigensolveError,
                           match=r"p=199999\), l=0, eta=99998.5 at h=0.02: "
                                 r"h\*max\(\|2l-p-2\|, \|eta\+2\|\) = 4000"):
            linop.assemble(0, params.eta_cr, grid, params)
