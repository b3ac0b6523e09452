"""Nonlinear radial evolution: stationarity, consistency, conservation."""

import collections
import sys

import numpy as np
import pytest

from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo
from fastdiff_lab import linop
from fastdiff_lab.closedform import ModeIndex  # noqa: F401

from helpers import (delayed_barenblatt_time_derivative, mass_defect,
                     nonlinear_rhs, volume_weight)


def zero_state(grid, params):
    return evolve.EvolutionState(
        0.0, geo.GridFunction(grid, 0, np.zeros(grid.count + 1)), params)


def test_rhs_zero_at_fixed_point(grid12, params33):
    w = geo.GridFunction(grid12, 0, np.zeros(grid12.count + 1))
    out = nonlinear_rhs(w, params33)
    assert np.all(out.values == 0.0)


def test_rhs_positivity_abort(grid12, params33):
    vals = np.zeros(grid12.count + 1)
    vals[37] = -1.5
    w = geo.GridFunction(grid12, 0, vals)
    with pytest.raises(evolve.PositivityError) as exc:
        nonlinear_rhs(w, params33)
    assert exc.value.node == 37
    assert exc.value.value == pytest.approx(-0.5)


def test_rhs_linearization_consistency(grid12, params33):
    # rhs(eps v01) = eps lambda_01 v01 + O(eps^2)
    v01 = cf.eigenfunction_v(ModeIndex(0, 1), grid12.nodes, params33)
    lam = cf.eigenvalue(ModeIndex(0, 1), params33)
    devs = []
    for eps in (1e-2, 5e-3):
        w = geo.GridFunction(grid12, 0, eps * v01)
        rhs = nonlinear_rhs(w, params33)
        dev = rhs.values[:grid12.count - 1] - eps * lam * v01[:grid12.count - 1]
        devs.append(np.max(np.abs(dev)) / eps)
    # quadratic in amplitude until the O(h^2) floor
    assert devs[1] <= 0.6 * devs[0] + 1e-4


def test_rhs_matches_manufactured_time_derivative(params33):
    tau0, bplus = 0.2, 1.4
    errs = []
    for count in (300, 600):
        grid = geo.make_grid(12.0, count)
        w = geo.GridFunction(
            grid, 0,
            cf.delayed_barenblatt_v(0.3, grid.nodes, tau0, bplus, params33) - 1.0)
        rhs = nonlinear_rhs(w, params33)
        exact = delayed_barenblatt_time_derivative(0.3, grid.nodes, tau0,
                                                   bplus, params33)
        errs.append(np.max(np.abs(rhs.values - exact)[:count - 1]))
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.0)


def test_step_fixed_point_exact(grid12, params33):
    st = zero_state(grid12, params33)
    st2 = evolve.step_nonlinear(st, 1e-2)
    assert np.max(np.abs(st2.w.values)) <= 1e-12


def test_step_rejects_bad_dt(grid12, params33):
    with pytest.raises(ValueError, match="dt"):
        evolve.step_nonlinear(zero_state(grid12, params33), -0.1)


def test_state_positivity_guard(grid12, params33):
    vals = np.zeros(grid12.count + 1)
    vals[5] = -1.01
    with pytest.raises(evolve.PositivityError):
        evolve.EvolutionState(0.0, geo.GridFunction(grid12, 0, vals), params33)


def test_run_trivial_trace(grid_coarse, params33):
    tr = evolve.run(zero_state(grid_coarse, params33), 1e-2, 0.1)
    assert np.all(tr.sup == 0.0)
    assert np.all(tr.mass_defect == 0.0)
    assert np.all(tr.energy == 0.0)
    assert np.all(tr.min_v == 1.0) and np.all(tr.max_v == 1.0)


def test_run_conservation_and_envelope(grid12, params33):
    st = evolve.bump_data(grid12, 0.05, seed=2, params=params33)
    tr = evolve.run(st, 2e-3, 1.0, evolve.RecordOptions(record_every=10))
    drift = np.max(np.abs(tr.mass_defect - tr.mass_defect[0]))
    assert drift <= 1e-6
    env = evolve.comparison_envelope(st, params33)
    assert env.lower < 1.0 < env.upper
    assert tr.min_v.min() >= env.lower - 1e-12
    assert tr.max_v.max() <= env.upper + 1e-12


def test_run_delayed_barenblatt_extrema_limits(grid12, params33):
    # extrema approach the (B/B+)-type limits predicted by the quotient
    bplus = 1.3
    st = evolve.delayed_barenblatt_data(grid12, 0.2, bplus, params33)
    def boundary(t):
        E = np.exp(2 * params33.p * t)
        th = (E / (E + 2 * params33.p * 0.2)) ** params33.beta
        return th ** (-params33.p) * (params33.B / bplus) ** 0.0 - 1.0
    tr = evolve.run(st, 2e-3, 2.5, evolve.RecordOptions(record_every=25),
                    boundary=boundary)
    # v(t) -> u_{B+}/u_B whose range is [(B/B+)^a, 1] for B+ > B
    lo_lim = (params33.B / bplus) ** params33.a
    assert tr.min_v[-1] == pytest.approx(lo_lim, rel=1e-3)
    assert tr.max_v[-1] == pytest.approx(1.0, rel=1e-3)
    # monotone approach of the minimum toward its limit
    mins = tr.min_v
    assert np.all(np.diff(mins) >= -1e-12)


def test_mass_defect(grid12, params33):
    zero = geo.GridFunction(grid12, 0, np.zeros(grid12.count + 1))
    assert mass_defect(zero, params33) == 0.0

    s = grid12.nodes
    eps = 1e-3
    w00 = geo.GridFunction(
        grid12, 0, eps * cf.eigenfunction_v(ModeIndex(0, 0), s, params33))
    assert abs(mass_defect(w00, params33)) > 1e-3 * eps

    # the dilation mode is mass-neutral (quadrature level)
    w01 = eps * cf.eigenfunction_v(ModeIndex(0, 1), s, params33)
    w01 = geo.GridFunction(grid12, 0, w01)
    assert abs(mass_defect(w01, params33)) <= 1e-8


def test_energy(grid12, params33):
    zero = geo.GridFunction(grid12, 0, np.zeros(grid12.count + 1))
    assert evolve._energy(grid12, 1.0 + zero.values, zero.values,
                          params33) == 0.0
    # H(1) at m = 1/2 equals (2^1.5 - 2.5)/0.75; check through a constant w=1
    # on a short grid against the independent quadrature of H
    p_half = cf.derive_params(3, 0.5)
    grid = geo.make_grid(2.0, 100)
    one = geo.GridFunction(grid, 0, np.ones(grid.count + 1))
    e_val = evolve._energy(grid, 1.0 + one.values, one.values, p_half)
    h1 = (2.0 ** 1.5 - 2.5) / 0.75
    ref = geo.sphere_area(3) * h1 * float(
        np.trapezoid(np.tanh(grid.nodes) ** 2, grid.nodes))
    assert e_val == pytest.approx(ref, rel=1e-12)
    assert h1 == pytest.approx(0.43790283, abs=1e-7)


@pytest.mark.parametrize("m", [0.5, 2.0 / 3.0, 0.9])
def test_energy_density_is_accurate_at_small_amplitude(m):
    # H(w) = [(1+w)^(m+1) - 1 - (m+1)w]/(m(m+1)) against 50-digit mpmath:
    # the closed form would cancel to round-off here, and could go negative
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    params = cf.derive_params(3, m)
    grid = geo.make_grid(2.0, 100)
    weight = geo.sphere_area(3) * float(
        np.trapezoid(volume_weight(grid.nodes, 3), grid.nodes))
    mm = mpmath.mpf(m)
    for w in (1e-3, 1e-6, 1e-9, 1e-12, -1e-3, -1e-6, -1e-9, -1e-12):
        x = mpmath.mpf(w)
        want = float(((1 + x) ** (mm + 1) - 1 - (mm + 1) * x) / (mm * (mm + 1)))
        values = np.full(grid.count + 1, w)
        H = evolve._energy(grid, 1.0 + values, values, params) / weight
        assert H == pytest.approx(want, rel=1e-13, abs=0.0)


def test_energy_quadratic_proxy(grid12, params33):
    # E / (0.5 int w^2 dmu) -> 1 as amplitude -> 0
    s = grid12.nodes
    shape = np.exp(-((s - 1.0) ** 2))
    ratios = []
    for eps in (1e-2, 1e-3):
        w = geo.GridFunction(grid12, 0, eps * shape)
        ref = 0.5 * geo.sphere_area(3) * float(np.trapezoid(
            (eps * shape) ** 2 * volume_weight(s, 3), s))
        ratios.append(evolve._energy(grid12, 1.0 + w.values, w.values,
                                     params33) / ref)
    assert abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[1] == pytest.approx(1.0, abs=2e-3)


def test_envelope_continuity(grid12, params33):
    # c -> 1 implies C -> 1
    prev = None
    for eps in (0.2, 0.1, 0.05, 0.01):
        st = evolve.EvolutionState(
            0.0, geo.GridFunction(
                grid12, 0, eps * np.exp(-(grid12.nodes - 1) ** 2)), params33)
        env = evolve.comparison_envelope(st, params33)
        width = env.upper - env.lower
        if prev is not None:
            assert width < prev
        prev = width
    assert env.upper == pytest.approx(1.0, abs=0.05)


def final_values(state0, dt, t_final, boundary=None):
    """w at t_final from evolve.run (BDF2), recording only the two ends."""
    steps = int(round((t_final - state0.t) / dt))
    trace = evolve.run(state0, dt, t_final,
                       evolve.RecordOptions(record_every=steps,
                                            snapshot_every=steps),
                       boundary=boundary)
    return trace.snapshots[-1][1]


def test_run_bdf2_second_order(grid_coarse, params33):
    st0 = evolve.eigenmode_data(grid_coarse, ModeIndex(0, 1), 0.05, params33)
    # reference with tiny BDF2 steps
    ref = final_values(st0, 0.2 / 512, 0.2)
    errs = [np.max(np.abs(final_values(st0, 0.2 / nsteps, 0.2) - ref))
            for nsteps in (2, 4)]
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=1.3)


def test_run_starts_with_one_backward_euler_step(grid_coarse, params33):
    st0 = evolve.eigenmode_data(grid_coarse, ModeIndex(0, 1), 0.05, params33)
    tr = evolve.run(st0, 1e-2, 0.2)
    assert tr.backward_euler_steps == 1
    # the BE start matches step_nonlinear bit for bit
    assert np.array_equal(final_values(st0, 1e-2, 1e-2),
                          evolve.step_nonlinear(st0, 1e-2).w.values)


def test_run_redoes_a_failed_bdf2_step_by_backward_euler(
        grid_coarse, params33, monkeypatch):
    st0 = evolve.eigenmode_data(grid_coarse, ModeIndex(0, 1), 0.05, params33)
    want = final_values(st0, 1e-2, 0.2)
    step, calls = evolve._Newton.step, []

    def fail_third(kernel, w_n, dt, w_boundary, w_prev=None,
                   extremes=evolve._UNREAD):
        if w_prev is not None:  # a BDF2 step
            calls.append(dt)
            # a nan Dirichlet value makes the third one's system non-finite
            if len(calls) == 3:
                w_boundary = np.nan
        return step(kernel, w_n, dt, w_boundary, w_prev, extremes)

    monkeypatch.setattr(evolve._Newton, "step", fail_third)
    tr = evolve.run(st0, 1e-2, 0.2, evolve.RecordOptions(snapshot_every=1))
    assert (tr.backward_euler_steps, tr.linear_steps) == (2, 18)
    # every step after the start tries BDF2 (19 of 20), including the one
    # right after the redone step: the history stays dt apart
    assert len(calls) == 19
    assert np.allclose(np.diff(tr.times), 1e-2)
    # one first-order step moves the end state by O(dt^2) only
    assert np.max(np.abs(tr.snapshots[-1][1] - want)) <= 1e-4
    assert tr.dt_halvings == 0


def test_run_redoes_a_step_whose_predictor_loses_the_margin(
        grid_coarse, params33, monkeypatch):
    # a tall bump collapses in one long step, so P = 2 w_1 - w_0 overshoots
    # below v = 0 where it stood; BE takes that step, BDF2 the next
    st0 = evolve.bump_data(grid_coarse, 2.0, seed=1, params=params33,
                           project_mass=False)
    dt = 0.5
    step, errors = evolve._Newton.step, []

    def spy(kernel, w_n, dt, w_boundary, w_prev=None,
            extremes=evolve._UNREAD):
        try:
            return step(kernel, w_n, dt, w_boundary, w_prev, extremes)
        except evolve.EvolveError as exc:
            if w_prev is not None:  # a BDF2 step
                errors.append(exc)
            raise

    monkeypatch.setattr(evolve._Newton, "step", spy)
    tr = evolve.run(st0, dt, 3 * dt, evolve.RecordOptions(snapshot_every=1))
    assert (tr.backward_euler_steps, tr.linear_steps) == (2, 1)
    [error] = errors
    w0, w1 = (w for _, w in tr.snapshots[:2])
    P = 2.0 * w1 - w0
    assert isinstance(error, evolve.PositivityError)
    assert error.value == 1.0 + P[:-1].min() <= evolve.MARGIN_FLOOR
    # the redone step is the backward-Euler step from w_1
    kernel = evolve._Newton(evolve._workspace(grid_coarse, params33))
    kernel.backward_euler(w1, dt, dt, None)
    assert np.array_equal(tr.snapshots[2][1], kernel.W)
    assert tr.min_v.min() > evolve.MARGIN_FLOOR


def test_a_linear_step_makes_one_power_and_one_solve(grid_coarse, params33,
                                                    monkeypatch):
    # the work of each linearly implicit step of run: every numpy call, the
    # functions and ufuncs through evolve's own namespace and the array
    # methods (argmin, argmax) through the profiler, besides the solve's
    # dgtsv and finiteness check; one power over the grid (v^m, which the
    # Jacobian reuses) and one tridiagonal solve each
    counts = collections.Counter()

    class Counted:
        def __init__(self, name, fn):
            self.name, self.fn = name, fn

        def __call__(self, *args, **kwargs):
            counts[self.name] += 1
            return self.fn(*args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.fn, name)

    class CountingNumpy:
        def __getattr__(self, name):
            attr = getattr(np, name)
            if callable(attr) and not isinstance(attr, type):
                return Counted(name, attr)
            return attr

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None),
                                            np.ndarray):
            counts[arg.__name__] += 1

    solve, per_step = evolve._solve_packed, []
    step, backward_euler = evolve._Newton.step, evolve._Newton.backward_euler

    def counting_solve(system):
        counts["solve"] += 1
        return solve(system)

    def counted(kind, fn, kernel, *args):
        before, bound = counts.copy(), kernel.dt
        sys.setprofile(profile)
        try:
            return fn(kernel, *args)
        finally:
            sys.setprofile(None)
            work = counts - before
            # (kind, powers, solves, other calls, whether the step bound the
            # band scale to a new dt: once per dt, not once per step)
            per_step.append((kind, work["power"], work["solve"],
                             sum(work.values()) - work["solve"],
                             kernel.dt != bound))

    def spy_step(kernel, w_n, dt, w_boundary, w_prev=None,
                 extremes=evolve._UNREAD):
        args = (w_n, dt, w_boundary, w_prev, extremes)
        if w_prev is None:  # inside a BE step, counted whole below
            return step(kernel, *args)
        return counted("BDF2", step, kernel, *args)

    def spy_backward_euler(kernel, *args):
        return counted("BE", backward_euler, kernel, *args)

    monkeypatch.setattr(evolve, "np", CountingNumpy())
    monkeypatch.setattr(evolve, "_solve_packed", counting_solve)
    monkeypatch.setattr(evolve._Newton, "step", spy_step)
    monkeypatch.setattr(evolve._Newton, "backward_euler", spy_backward_euler)
    st0 = evolve.bump_data(grid_coarse, 0.3, seed=7, params=params33)
    trace = evolve.run(st0, 4e-3, 20 * 4e-3)
    assert trace.linear_steps == 19
    be, *bdf2 = per_step
    assert [row[:3] for row in per_step] == \
        [("BE", 1, 1)] + [("BDF2", 1, 1)] * 19
    # at most 20 calls per BDF2 step; the BE start makes fewer besides the
    # one product that binds the band scale to dt
    assert all(calls <= 20 and not bound for *_, calls, bound in bdf2)
    assert be[4] and be[3] - 1 < 20


def test_the_steps_ignore_state_is_entered_once_and_spares_the_caller(
        grid_coarse, params33, monkeypatch):
    # a run enters the ignore state its steps leave overflow to the checks
    # in once, not once per step; its records, diagnostics included, and
    # its boundary run in the caller's error state, as they did when each
    # step entered the ignore state on its own
    entered, seen = [], []
    add, flush = evolve._Records.add, evolve._Records.flush

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def errstate(**kwargs):
            if kwargs == evolve._STEP_ERRORS:
                entered.append(kwargs)
            return np.errstate(**kwargs)

    def spy_add(records, t, w):
        seen.append(("add", np.geterr()))
        return add(records, t, w)

    def spy_flush(records):
        seen.append(("flush", np.geterr()))
        return flush(records)

    def boundary(t):
        seen.append(("boundary", np.geterr()))
        return 0.0

    monkeypatch.setattr(evolve, "np", CountingNumpy())
    monkeypatch.setattr(evolve._Records, "add", spy_add)
    monkeypatch.setattr(evolve._Records, "flush", spy_flush)
    st0 = evolve.bump_data(grid_coarse, 0.3, seed=7, params=params33)
    with np.errstate(over="raise", divide="raise", invalid="raise",
                     under="ignore"):
        caller = np.geterr()
        trace = evolve.run(st0, 4e-3, 20 * 4e-3, boundary=boundary)
        assert len(entered) == 1
        evolve.step_nonlinear(st0, 4e-3, boundary)
        assert len(entered) == 2
    assert trace.linear_steps == 19
    names = [name for name, _ in seen]
    assert names.count("add") == 21 and "flush" in names
    assert names.count("boundary") == 21
    assert all(state == caller for _, state in seen)
    assert caller != {**caller, **evolve._STEP_ERRORS}


def test_a_halved_step_counts_its_halvings(grid_coarse, params33,
                                           monkeypatch):
    # the linear step keeps its margin at any dt here, so a step longer
    # than 10 is made to fail: a nan Dirichlet value makes its system
    # non-finite
    step = evolve._Newton.step

    def fail_long(kernel, w_n, dt, w_boundary, w_prev=None,
                  extremes=evolve._UNREAD):
        return step(kernel, w_n, dt, np.nan if dt > 10.0 else w_boundary,
                    w_prev, extremes)

    monkeypatch.setattr(evolve._Newton, "step", fail_long)
    st0 = evolve.bump_data(grid_coarse, 0.5, seed=1, params=params33,
                           project_mass=False)
    assert evolve.step_nonlinear(st0, 10.0).dt_halvings == 0
    # the step fails at dt = 20 and succeeds on both halves
    st = evolve.step_nonlinear(st0, 20.0)
    assert st.dt_halvings == 1
    half = evolve.step_nonlinear(st0, 10.0)
    full = evolve.step_nonlinear(half, 10.0)
    assert np.array_equal(st.w.values, full.w.values)
    # a halved half-step adds its own halvings
    assert evolve.step_nonlinear(st0, 50.0).dt_halvings > 1
    tr = evolve.run(st0, 20.0, 20.0)
    assert (tr.backward_euler_steps, tr.dt_halvings) == (1, 1)


def test_a_non_finite_newton_system_is_a_named_error(grid_coarse, params33,
                                                    monkeypatch):
    st0 = evolve.bump_data(grid_coarse, 0.5, seed=1, params=params33,
                           project_mass=False)
    kernel = evolve._Newton(evolve._workspace(grid_coarse, params33))
    # the step leaves overflow to its checks, in the error state of run
    # and step_nonlinear
    with np.errstate(**evolve._STEP_ERRORS), \
            pytest.raises(evolve.NewtonError, match="Newton system at dt=1e"
                          r"\+306: array must not contain infs or NaNs"):
        kernel.step(st0.w.values, 1e306, 0.0)
    steps, step = [], evolve._Newton.step

    def spy(kernel, w_n, dt, *args):
        steps.append(dt)
        return step(kernel, w_n, dt, *args)

    monkeypatch.setattr(evolve._Newton, "step", spy)
    with pytest.raises(evolve.NewtonError):
        evolve.step_nonlinear(st0, 1e306)
    # the first half of each halved step fails, down to the last halving
    assert steps == [1e306 / 2 ** k
                     for k in range(evolve.MAX_DT_HALVINGS + 1)]


def test_a_singular_newton_system_is_a_named_error(grid_coarse, params33,
                                                   monkeypatch):
    def singular(system):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(evolve, "_solve_packed", singular)
    st0 = evolve.bump_data(grid_coarse, 0.05, seed=1, params=params33)
    kernel = evolve._Newton(evolve._workspace(grid_coarse, params33))
    with pytest.raises(evolve.NewtonError, match="singular matrix"):
        kernel.step(st0.w.values, 1e-2, 0.0)


def test_trace_records_the_smallest_margin(grid_coarse, params33):
    # a negated bump: v starts at 0.1
    st0 = evolve.bump_data(grid_coarse, 0.9, seed=1, params=params33,
                           project_mass=False)
    st0 = evolve.EvolutionState(0.0, st0.w.with_values(-st0.w.values), params33)
    tr = evolve.run(st0, 1.0, 3.0)
    assert evolve.MARGIN_FLOOR < tr.min_margin <= tr.min_v[1:].min()
    calm = evolve.run(zero_state(grid_coarse, params33), 1e-2, 0.1)
    assert calm.min_margin == 1.0


def test_nonlinear_slope_converges_to_linear(params33):
    # as amplitude -> 0, the nonlinear decay slope approaches the linear
    # semigroup slope of the same initial shape, difference O(eps); the
    # second-order stepper keeps the time-integrator bias out of the gap
    from fastdiff_lab.asymptotics import WindowPolicy, fit_rate
    grid = geo.make_grid(12.0, 600)
    op = linop.assemble(0, 0.0, grid, params33)
    shape = evolve.bump_data(grid, 1.0, seed=4, params=params33).w.values
    lin = linop.semigroup_decay(
        op, geo.GridFunction(grid, 0, shape), [ModeIndex(0, 0)],
        1.2, 1e-3, params33, policy=WindowPolicy(1e-4, 0.5))
    slopes = []
    for eps in (0.1, 0.05, 0.025):
        st = evolve.EvolutionState(
            0.0, geo.GridFunction(grid, 0, eps * shape), params33)
        tr = evolve.run(st, 1e-3, 1.2)
        fit = fit_rate(tr.times, tr.sup / tr.sup.max(), WindowPolicy(1e-4, 0.5))
        slopes.append(fit.slope)
    # the amplitude-dependent part halves with eps ...
    d1 = abs(slopes[0] - slopes[1])
    d2 = abs(slopes[1] - slopes[2])
    assert d2 <= 0.7 * d1
    # ... and the limit agrees with the linear slope up to the O(h^2)
    # discrepancy between the two spatial discretizations
    assert abs(slopes[-1] - lin.slope) <= 0.02


def test_builders(grid12, params33):
    st = evolve.eigenmode_data(grid12, ModeIndex(0, 1), 0.03, params33)
    assert st.w.values[0] == pytest.approx(0.03 * 1.0)  # v01(0) = 1 at p=3
    with pytest.raises(ValueError, match="radial"):
        evolve.eigenmode_data(grid12, ModeIndex(1, 0), 0.03, params33)
    stb = evolve.bump_data(grid12, 0.05, seed=9, params=params33)
    assert abs(mass_defect(stb.w, params33)) <= 1e-14
    stb2 = evolve.bump_data(grid12, 0.05, seed=9, params=params33)
    assert np.array_equal(stb.w.values, stb2.w.values)  # seeded determinism
    std = evolve.delayed_barenblatt_data(grid12, 0.1, 1.0, params33)
    assert std.w.values[0] != 0.0


def test_workspace_cache_is_bounded(params33):
    for count in range(16, 16 + 80):
        evolve._workspace(geo.make_grid(12.0, count), params33)
    assert evolve._workspace.cache_info().currsize <= 64


def test_step_nonlinear_reuses_a_bounded_kernel_and_hands_out_copies(
        grid_coarse, params33):
    st0 = evolve.bump_data(grid_coarse, 0.3, seed=7, params=params33)
    first = evolve.step_nonlinear(st0, 1e-2)
    second = evolve.step_nonlinear(first, 1e-2)
    kernel = evolve._kernel(evolve._workspace(grid_coarse, params33))
    assert evolve._kernel.cache_info().maxsize == 64
    # one kernel serves both steps; neither state shares its scratch
    assert evolve._kernel.cache_info().hits >= 1
    buffers = (kernel.W, kernel.v)
    for state in (first, second):
        assert not any(np.shares_memory(state.w.values, b) for b in buffers)
    assert not np.shares_memory(first.w.values, second.w.values)
    again = evolve.step_nonlinear(st0, 1e-2)
    assert np.array_equal(again.w.values, first.w.values)


def test_workspace_arrays_are_read_only(grid12, params33):
    ws = evolve._workspace(grid12, params33)
    for arr in (ws.U, ws.dU, ws.C, ws.masses, ws.minv):
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_run_refuses_a_partial_last_step(grid_coarse, params33):
    st = zero_state(grid_coarse, params33)
    with pytest.raises(ValueError, match="nearest reachable time is 0.09"):
        evolve.run(st, 3e-2, 0.1)
    assert evolve.run(st, 2.5e-2, 0.1).times[-1] == pytest.approx(0.1)


def _energy_density(w, m):
    """H(w) node by node as ``evolve._energy`` forms it (oracle): the closed
    form, and below |w| = 1e-2 its binomial series by ``np.polyval``."""
    closed = ((1.0 + w) ** (m + 1.0) - 1.0 - (m + 1.0) * w) / (m * (m + 1.0))
    coeffs = [0.5]
    for k in range(2, 10):
        coeffs.insert(0, coeffs[0] * (m + 1.0 - k) / (k + 1.0))
    return np.where(np.abs(w) < 1e-2, np.polyval(coeffs, w) * w * w, closed)


def test_observation_weights_are_the_pointwise_formulas(grid12, params33):
    # energy reads cached weights; the bits are those of the expressions
    # they replaced
    state = evolve.bump_data(grid12, 0.05, seed=5, params=params33)
    w, s = state.w, grid12.nodes
    for params in (params33, cf.derive_params(1, 0.5)):
        H = _energy_density(w.values, params.m)
        want = geo.sphere_area(params.n) * float(
            np.trapezoid(H * volume_weight(s, params.n), s))
        assert evolve._energy(grid12, 1.0 + w.values, w.values,
                              params) == want


def test_tiny_m_is_a_named_solver_failure(grid_coarse):
    # m h underflows, so the flux prefactor r^(n-1)/(m h cosh s) is infinite
    params = cf.derive_params(1, 5e-324)
    w = geo.GridFunction(grid_coarse, 0, np.zeros(grid_coarse.count + 1))
    with pytest.raises(evolve.EvolveError, match="flux prefactor"):
        nonlinear_rhs(w, params)


# ---------------------------------------------------------------------------
# Block-recorded diagnostics against the pointwise formulas
# ---------------------------------------------------------------------------

ROWS = geo._ROWS
BLOCK_ETAS = (0.25, 0.5, 1.0)


def _block_boundary(t):
    return 1e-3 * t


@pytest.fixture(scope="module")
def every_step_run(params33):
    """States at every step of the run the block tests record sparsely."""
    grid = geo.make_grid(12.0, 300)
    st0 = evolve.bump_data(grid, 0.05, seed=7, params=params33)
    steps = 3 * 150 + 1
    trace = evolve.run(st0, 1e-2, steps * 1e-2,
                       evolve.RecordOptions(snapshot_every=1),
                       boundary=_block_boundary)
    return st0, trace.snapshots


def _pointwise(grid, t, w, params):
    """One record by the pointwise formulas."""
    f = geo.GridFunction(grid, 0, w)
    s, v = grid.nodes, 1.0 + w
    H = _energy_density(w, params.m)
    energy = geo.sphere_area(params.n) * float(
        np.trapezoid(H * volume_weight(s, params.n), s))
    return ([t, geo.weighted_sup(f, 0.0)]
            + [geo.weighted_sup(f, eta) for eta in BLOCK_ETAS]
            + [mass_defect(f, params), energy,
               float(v.min()), float(v.max())])


DIAGNOSTICS = ("sup", "weighted", "energy", "min_v", "max_v")
SOLVER_STATISTICS = ("backward_euler_steps", "linear_steps", "dt_halvings",
                     "min_margin")


def _record_cases():
    """(every, snapshot_every, off_grid, diagnostics), ids without
    diagnostics marked as such."""
    return [pytest.param(*case, diagnostics, id="-".join(map(str, case))
                         + ("" if diagnostics else "-no_diagnostics"))
            for diagnostics in (True, False)
            for case in [(2, 3, False), (3, 2, True), (1, None, False)]]


@pytest.mark.parametrize("records", [1, ROWS - 1, ROWS, ROWS + 1, 151])
@pytest.mark.parametrize("every, snapshot_every, off_grid, diagnostics",
                         _record_cases())
def test_block_records_are_the_pointwise_formulas(
        every_step_run, params33, records, every, snapshot_every, off_grid,
        diagnostics):
    # record counts at the block edges; an off-grid run's last step is
    # recorded although it is no multiple of record_every
    st0, states = every_step_run
    grid = st0.w.grid
    steps = every * (records - 1)
    if off_grid and records > 1:
        steps -= every - 1

    def run(diagnostics):
        return evolve.run(
            st0, 1e-2, steps * 1e-2,
            evolve.RecordOptions(etas=BLOCK_ETAS if diagnostics else (),
                                 record_every=every,
                                 snapshot_every=snapshot_every,
                                 diagnostics=diagnostics),
            boundary=_block_boundary)

    tr = run(diagnostics)
    recorded = [j for j in range(steps + 1) if j % every == 0 or j == steps]
    assert len(recorded) == records == tr.times.size
    want = np.array([_pointwise(grid, *states[j], params33) for j in recorded])
    if diagnostics:
        got = np.column_stack([tr.times, tr.sup,
                               *(tr.weighted[eta] for eta in BLOCK_ETAS),
                               tr.mass_defect, tr.energy, tr.min_v, tr.max_v])
        assert np.array_equal(got, want)
    else:
        # times, mass defects and solver statistics are the diagnosed run's
        assert np.array_equal(np.column_stack([tr.times, tr.mass_defect]),
                              want[:, [0, -4]])
        diagnosed = run(True)
        for name in ("times", "mass_defect"):
            assert np.array_equal(getattr(tr, name), getattr(diagnosed, name))
        for name in SOLVER_STATISTICS:
            assert getattr(tr, name) == getattr(diagnosed, name), name
        for name in DIAGNOSTICS:
            assert getattr(tr, name) is None, name
    snaps = [] if snapshot_every is None else [
        j for j in recorded if j % snapshot_every == 0]
    assert [t for t, _ in tr.snapshots] == [states[j][0] for j in snaps]
    for (_, w), j in zip(tr.snapshots, snaps):
        assert np.array_equal(w, states[j][1])


@pytest.mark.parametrize("options, field", [
    ({"record_every": 0}, "record_every"),
    ({"record_every": -1}, "record_every"),
    ({"record_every": 2.5}, "record_every"),
    ({"record_every": True}, "record_every"),
    ({"snapshot_every": 0}, "snapshot_every"),
    ({"snapshot_every": 2.5}, "snapshot_every"),
    ({"snapshot_every": True}, "snapshot_every"),
    ({"etas": (0.5,), "diagnostics": False}, "etas"),
])
def test_record_options_name_a_bad_field(options, field):
    # record_every=0 and snapshot_every=0 divided by zero inside run
    with pytest.raises(ValueError, match=f"^{field}: "):
        evolve.RecordOptions(**options)


def test_record_options_take_numpy_integers():
    opts = evolve.RecordOptions(record_every=np.int64(3),
                                snapshot_every=np.int32(2))
    assert (opts.record_every, opts.snapshot_every) == (3, 2)


def test_block_energy_is_the_one_state_energy(grid12, params33):
    # rows of a block, down to a single row, against _energy of each state
    rng = np.random.default_rng(3)
    block = 0.05 * rng.standard_normal((ROWS + 1, grid12.count + 1))
    for params in (params33, cf.derive_params(1, 0.5)):
        for k in (1, ROWS, ROWS + 1):
            got = evolve._energy(grid12, 1.0 + block[:k], block[:k], params)
            assert np.array_equal(got, [
                evolve._energy(grid12, 1.0 + w, w, params) for w in block[:k]])


def test_run_peak_memory_does_not_grow_with_steps(params33):
    # the same 31 records from 300 and from 3000 steps: nothing per step
    # is kept
    import tracemalloc

    grid = geo.make_grid(12.0, 600)
    st0 = evolve.bump_data(grid, 0.05, seed=7, params=params33)

    def peak(steps):
        tracemalloc.start()
        try:
            evolve.run(st0, 1e-3, steps * 1e-3,
                       evolve.RecordOptions(record_every=steps // 30))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(30)  # fills the per-grid caches
    short, long = peak(300), peak(3000)
    assert long <= short + 1024, (short, long)


def test_node_spacing_is_shared_read_only_and_bounded(grid12):
    d = evolve._node_spacing(grid12)
    assert d is evolve._node_spacing(grid12)
    assert np.array_equal(d, np.diff(grid12.nodes))
    with pytest.raises(ValueError, match="read-only"):
        d[0] = 1.0
    assert evolve._node_spacing.cache_info().maxsize == 64
