"""Rate fitting, coefficient extraction, time-shift modding, residuals."""

import dataclasses
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiff_lab import asymptotics as asy
from fastdiff_lab import cli
from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo
from fastdiff_lab.closedform import ModeIndex
from fastdiff_lab.config import config_from_dict, load_config

from helpers import orthogonalize


def _first(trace, count):
    """The trace with its first ``count`` snapshots (all if None)."""
    return dataclasses.replace(trace, snapshots=trace.snapshots[:count],
                               snapshot_times=trace.snapshot_times[:count])


# ---------------------------------------------------------------------------
# fit_rate
# ---------------------------------------------------------------------------

def test_fit_rate_exact_exponential():
    t = np.linspace(0, 4, 400)
    fit = asy.fit_rate(t, np.exp(-6 * t))
    assert fit.slope == pytest.approx(-6.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_perturbed_exponential():
    t = np.linspace(0, 4, 2000)
    vals = np.exp(-6 * t) * (1 + 0.1 * np.exp(-t))
    fit = asy.fit_rate(t, vals)
    assert abs(fit.slope + 6.0) <= 0.02


def test_fit_rate_constant():
    t = np.linspace(0, 4, 50)
    fit = asy.fit_rate(t, np.full_like(t, 1e-3))
    assert fit.slope == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0  # zero-variance window counts as exact


@given(st.floats(0.1, 100.0))
@settings(max_examples=20)
def test_fit_rate_affine_invariance(c):
    t = np.linspace(0, 4, 300)
    vals = np.exp(-3.2 * t)
    base = asy.fit_rate(t, vals, asy.WindowPolicy(1e-12, 1.0))
    scaled = asy.fit_rate(t, c * vals, asy.WindowPolicy(1e-12 * c, 1.0 * c))
    assert scaled.slope == pytest.approx(base.slope, abs=1e-12)
    assert scaled.intercept == pytest.approx(base.intercept + math.log(c),
                                             abs=1e-10)


def test_fit_rate_window_errors():
    t = np.linspace(0, 1, 50)
    with pytest.raises(asy.EmptyWindowError):
        asy.fit_rate(t, np.full_like(t, 10.0))  # all above value_hi
    with pytest.raises(ValueError, match="1-d"):
        asy.fit_rate(t, np.ones((2, 2)))


def test_fit_rate_or_widen():
    t = np.linspace(0, 1, 5)
    vals = np.exp(-2.0 * t)  # all above the default value_hi = 1e-2
    policy = asy.WindowPolicy()
    fit = asy.fit_rate_or_widen(t, vals, policy)
    assert fit.slope == pytest.approx(-2.0, abs=1e-12)
    assert fit.n_samples == 5 and fit.widened
    assert fit.policy.min_samples == 2
    assert fit.policy.value_lo == pytest.approx(vals[-1] / 2.0)
    # a window that holds enough samples is fitted as given
    wide = asy.WindowPolicy(value_lo=1e-3, value_hi=1.0, min_samples=2)
    assert asy.fit_rate_or_widen(t, vals, wide) == asy.fit_rate(t, vals, wide)
    assert not asy.fit_rate(t, vals, wide).widened
    # the series is normalized to max 1 before the window applies
    scaled = asy.fit_rate_or_widen(t, 1e6 * vals, wide)
    assert scaled.slope == pytest.approx(-2.0, abs=1e-12)
    assert scaled.n_samples == 5
    # a stationary (all-zero) series fits to slope 0 over the full span
    flat = asy.fit_rate_or_widen(t, np.zeros_like(t), policy)
    assert (flat.slope, flat.r_squared, flat.window) == (0.0, 1.0, (0.0, 1.0))
    assert not flat.widened


# ---------------------------------------------------------------------------
# extract_coefficient
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def eigen_trace():
    params = cf.derive_params(3, 2.0 / 3.0)
    grid = geo.make_grid(12.0, 600)
    state0 = evolve.eigenmode_data(grid, ModeIndex(0, 1), 0.01, params)
    trace = evolve.run(state0, 1e-3, 0.5,
                       evolve.RecordOptions(record_every=5, snapshot_every=5))
    return params, trace


def test_extract_coefficient_recovers_amplitude(eigen_trace):
    params, trace = eigen_trace
    rec = asy.extract_coefficient(trace, ModeIndex(0, 1), params)
    assert rec.limit == pytest.approx(0.01, rel=0.05)
    assert rec.converged
    assert not rec.flagged


def test_extract_coefficient_linear_in_amplitude(eigen_trace):
    params, trace = eigen_trace
    grid = trace.grid
    limits = []
    for eps in (0.005, 0.01):
        st = evolve.eigenmode_data(grid, ModeIndex(0, 1), eps, params)
        tr = evolve.run(st, 1e-3, 0.3,
                        evolve.RecordOptions(record_every=5, snapshot_every=5))
        limits.append(asy.extract_coefficient(tr, ModeIndex(0, 1), params).limit)
    assert limits[1] / limits[0] == pytest.approx(2.0, rel=0.02)


def test_extract_coefficient_orthogonal_data(eigen_trace):
    params, trace = eigen_trace
    grid = trace.grid
    # bump orthogonalized against psi_01 in the u_B^m pairing
    s = grid.nodes
    raw = 0.01 * np.exp(-((s - 1.2) ** 2))
    f = geo.GridFunction(grid, 0, raw)
    p_part = orthogonalize(f, [ModeIndex(0, 1)], params)
    st = evolve.EvolutionState(0.0, p_part, params)
    tr = evolve.run(st, 1e-3, 0.1,
                    evolve.RecordOptions(record_every=5, snapshot_every=5))
    rec = asy.extract_coefficient(tr, ModeIndex(0, 1), params)
    assert abs(rec.limit) <= 1e-3 * 0.01


def test_extract_coefficient_rejects_nonintegrable():
    params = cf.derive_params(3, 0.55)  # p < 2: degree-2 pairing diverges
    grid = geo.make_grid(12.0, 600)
    st = evolve.bump_data(grid, 0.01, seed=1, params=params)
    tr = evolve.run(st, 1e-3, 0.05,
                    evolve.RecordOptions(record_every=5, snapshot_every=5))
    with pytest.raises(ValueError, match="integrable"):
        asy.extract_coefficient(tr, ModeIndex(0, 1), params)


def test_extract_coefficient_needs_snapshots(params33, grid12):
    st = evolve.bump_data(grid12, 0.01, seed=1, params=params33)
    tr = evolve.run(st, 1e-2, 0.05, evolve.RecordOptions(record_every=1))
    with pytest.raises(ValueError, match="snapshots"):
        asy.extract_coefficient(tr, ModeIndex(0, 1), params33)


def test_k0_series_flat(params33):
    grid = geo.make_grid(12.0, 600)
    st = evolve.bump_data(grid, 0.05, seed=3, params=params33, project_mass=False)
    tr = evolve.run(st, 1e-3, 0.5,
                    evolve.RecordOptions(record_every=10, snapshot_every=10))
    rec = asy.extract_coefficient(tr, ModeIndex(0, 0), params33)
    c = rec.estimates[:, 1]
    assert (c.max() - c.min()) / abs(c.mean()) <= 1e-6


# ---------------------------------------------------------------------------
# mod_time_shift
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def delayed_trace():
    params = cf.derive_params(3, 0.7)
    grid = geo.make_grid(12.0, 600)
    tau_star = 0.1
    state0 = evolve.delayed_barenblatt_data(grid, tau_star, 1.0, params)

    def boundary(t):
        E = np.exp(2 * params.p * t)
        th = (E / (E + 2 * params.p * tau_star)) ** params.beta
        return th ** (-params.p) - 1.0

    trace = evolve.run(state0, 2.5e-4, 2.0,
                       evolve.RecordOptions(record_every=16, snapshot_every=16),
                       boundary=boundary)
    return params, tau_star, trace


def test_mod_time_shift_recovers_exact_shift(delayed_trace):
    params, tau_star, trace = delayed_trace
    res = asy.mod_time_shift(trace, params)
    assert res.tau0 == pytest.approx(tau_star, rel=0.02)


def test_mod_time_shift_idempotent(delayed_trace):
    params, tau_star, trace = delayed_trace
    res = asy.mod_time_shift(trace, params)
    shifted = dataclasses.replace(
        trace, snapshots=asy._shifted(trace, res.tau0, params))
    res2 = asy.mod_time_shift(shifted, params)
    assert abs(res2.tau0) <= 0.02 * abs(res.tau0)


def test_mod_time_shift_uses_branch_lambda(delayed_trace):
    params, _, trace = delayed_trace
    res = asy.mod_time_shift(trace, params)
    so = cf.second_order_rates(params)
    assert res.Lambda == pytest.approx(so.Lambda)
    assert res.eta == pytest.approx(so.eta)
    assert res.gamma == res.shifted_rate.slope / (-2.0 * params.p)
    assert res.near_degenerate == asy._near_degenerate(res.Lambda, params)


def test_near_degenerate_flags_the_sweeps_branch_points():
    # at m = 0.62 and 0.78 a competitor lies 0.017 and 0.002 from Lambda
    cfg = load_config(str(pathlib.Path(__file__).parents[1] / "configs"
                          / "sweep_gamma_delta.json"))
    flagged = []
    for m in cfg.analysis.sweep_m:
        params = cf.derive_params(cfg.model.n, m)
        Lambda, _ = cf.lambda_second_order(params)
        if asy._near_degenerate(Lambda, params):
            flagged.append(m)
    assert flagged == [0.62, 0.78]


@pytest.mark.parametrize("count", [None, 1, 2, 5, 9])
def test_shifted_c01_equals_extract_coefficient_limit_bitwise(bump_trace_07,
                                                              count):
    # the secant's tail-only coefficient against extract_coefficient on the
    # fully shifted trace, down to a single snapshot
    params, trace = bump_trace_07
    trace = _first(trace, count)
    c_of = asy._shifted_c01(trace, params)
    for tau0 in (0.0, 1e-3, -0.02, 0.3):
        view = dataclasses.replace(
            trace, snapshots=asy._shifted(trace, tau0, params))
        want = asy.extract_coefficient(view, ModeIndex(0, 1), params).limit
        assert c_of(tau0) == want


# ---------------------------------------------------------------------------
# expansion residual
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bump_trace_07():
    params = cf.derive_params(3, 0.7)
    grid = geo.make_grid(12.0, 600)
    state0 = evolve.bump_data(grid, 0.05, seed=11, params=params)
    trace = evolve.run(state0, 1e-3, 2.0,
                       evolve.RecordOptions(record_every=4, snapshot_every=4))
    return params, trace


def test_expansion_residual_steepens_after_subtraction(bump_trace_07):
    params, trace = bump_trace_07
    Lambda = cf.second_order_rates(params).Lambda
    rec = asy.extract_coefficient(trace, ModeIndex(0, 1), params)
    with_sub = asy.expansion_residual(trace, Lambda, [rec], params)
    without = asy.expansion_residual(trace, Lambda, [], params)
    assert with_sub.slope <= Lambda + 0.10 * abs(Lambda)
    # subtracting a correct mode can only steepen the decay
    assert with_sub.slope <= without.slope + 1e-6
    # boundary case Lambda = lambda_01 reduces to the leading-rate check
    lam01 = -2.0 * params.p
    base = asy.expansion_residual(trace, lam01, [], params)
    assert base.slope <= lam01 + 0.10 * abs(lam01)


def test_expansion_residual_wrong_coefficient_degrades(bump_trace_07):
    params, trace = bump_trace_07
    Lambda = cf.second_order_rates(params).Lambda
    rec = asy.extract_coefficient(trace, ModeIndex(0, 1), params)
    good = asy.expansion_residual(trace, Lambda, [rec], params)
    import dataclasses
    bad_rec = dataclasses.replace(rec, limit=1.5 * rec.limit)
    bad = asy.expansion_residual(trace, Lambda, [bad_rec], params)
    lam01 = -2.0 * params.p
    assert bad.slope > good.slope  # drifts back toward lambda_01
    assert abs(bad.slope - lam01) < abs(good.slope - lam01)


def test_expansion_residual_window_validation(bump_trace_07):
    params, trace = bump_trace_07
    lam01 = -2.0 * params.p
    for Lambda in (lam01 + 1.0, 2 * lam01, 2 * lam01 - 1.0):
        with pytest.raises(asy.AnalysisError,
                           match=r"outside \]2 lambda_01, lambda_01\]"):
            asy.expansion_residual(trace, Lambda, [], params)


# ---------------------------------------------------------------------------
# weighted rates: the rate table of evolve
# ---------------------------------------------------------------------------

def test_weighted_rate_report(params33):
    # the per-eta rate table of `evolve`, which fits every recorded norm
    # through the same asymptotics window
    etas = (0.1, 0.3, params33.eta_cr)
    cfg = config_from_dict({
        "model": {"n": 3, "m": 2.0 / 3.0},
        "grid": {"s_max": 12.0, "count": 600},
        "time": {"dt": 2e-3, "t_final": 3.0, "record_every": 5},
        "initial_data": {"kind": "bump", "amplitude": 0.05, "seed": 7},
        "analysis": {"etas": etas},
    }).validate()
    rows = cli.cmd_evolve(cfg).table("rates").rows
    assert [r[1] for r in rows] == [0.0, *etas]
    slopes = [r[2] for r in rows]
    assert slopes[0] == pytest.approx(-2 * params33.p, rel=0.05)
    # thresholds deepen monotonically as eta increases toward eta_cr (the
    # threshold is quadratic in eta - eta_cr), and the measured slopes track
    preds = [cf.essential_threshold(0, r[1], params33) for r in rows]
    assert preds[0] == pytest.approx(-2 * params33.p)
    assert preds == sorted(preds, reverse=True)
    for a, b in zip(slopes, slopes[1:]):
        assert b <= a + 0.15 * abs(a)


# ---------------------------------------------------------------------------
# Row-block passes against the pointwise formulas
# ---------------------------------------------------------------------------

ROWS = geo._ROWS


def _pointwise_shifted(trace, tau0, params):
    s = trace.grid.nodes
    return [(t, (1.0 + w) / cf.delayed_barenblatt_v(t, s, tau0, 1.0,
                                                    params) - 1.0)
            for t, w in zip(trace.snapshot_times, trace.snapshots)]


def _pointwise_norms(grid, snapshots, eta):
    return (np.array([t for t, _ in snapshots]),
            np.array([geo.weighted_sup(geo.GridFunction(grid, 0, w), eta)
                      for _, w in snapshots]))


@pytest.mark.parametrize("count", [1, ROWS - 1, ROWS, ROWS + 1, None])
def test_shifted_snapshots_are_the_pointwise_formula(bump_trace_07, count):
    params, trace = bump_trace_07
    trace = _first(trace, count)
    for tau0 in (0.0, 0.05, -0.02):
        got = asy._shifted(trace, tau0, params)
        want = _pointwise_shifted(trace, tau0, params)
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, (_, b) in zip(got, want))


@pytest.mark.parametrize("count", [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
def test_mod_time_shift_passes_are_the_pointwise_formulas(bump_trace_07, count):
    # the trailing states are scaled far below the alive threshold, so the
    # alive scan drops them from the secant but not from the final norms
    params, trace = bump_trace_07
    trace = _first(trace, count)
    snaps = trace.snapshots.copy()
    dead = ROWS // 2
    snaps[-dead:] *= 1e-9
    trace = dataclasses.replace(trace, snapshots=snaps)
    res = asy.mod_time_shift(trace, params)

    sups = np.array([np.abs(w).max() for w in snaps])
    alive = sups >= 1e-6 * sups.max()
    assert np.count_nonzero(~alive) == dead
    base = trace if np.count_nonzero(alive) < 8 else dataclasses.replace(
        trace, snapshots=snaps[alive],
        snapshot_times=trace.snapshot_times[alive])
    c_of = asy._shifted_c01(base, params)
    assert res.c0 == c_of(0.0)
    times, norms = _pointwise_norms(
        trace.grid, _pointwise_shifted(trace, res.tau0, params), res.eta)
    assert res.shifted_rate == asy.fit_rate_or_widen(times, norms)


@pytest.mark.parametrize("count", [2, ROWS, ROWS + 1, None])
def test_expansion_residual_is_the_pointwise_formula(bump_trace_07, count):
    params, trace = bump_trace_07
    trace = _first(trace, count)
    recs = [asy.extract_coefficient(trace, md, params)
            for md in (ModeIndex(0, 0), ModeIndex(0, 1))]
    Lambda = cf.second_order_rates(params).Lambda
    eta = cf.eta_for_target_rate(Lambda, params)
    s = trace.grid.nodes
    resid = []
    for t, w in zip(trace.snapshot_times, trace.snapshots):
        r = w.copy()
        for rec in recs:
            r -= rec.limit * math.exp(cf.eigenvalue(rec.mode, params) * t) \
                * cf.eigenfunction_v(rec.mode, s, params)
        resid.append((t, r))
    want = asy.fit_rate_or_widen(*_pointwise_norms(trace.grid, resid, eta))
    assert asy.expansion_residual(trace, Lambda, recs, params) == want
