"""Nonlinear radial evolution: stationarity, consistency, conservation."""

import numpy as np
import pytest

from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo
from fastdiff_lab import linop
from fastdiff_lab.closedform import ModeIndex  # noqa: F401

def zero_state(grid, params):
    return evolve.EvolutionState(
        0.0, geo.GridFunction(grid, 0, np.zeros(grid.count + 1)), params)


def test_rhs_zero_at_fixed_point(grid12, params33):
    w = geo.GridFunction(grid12, 0, np.zeros(grid12.count + 1))
    out = evolve.nonlinear_rhs(w, params33)
    assert np.all(out.values == 0.0)


def test_rhs_positivity_abort(grid12, params33):
    vals = np.zeros(grid12.count + 1)
    vals[37] = -1.5
    w = geo.GridFunction(grid12, 0, vals)
    with pytest.raises(evolve.PositivityError) as exc:
        evolve.nonlinear_rhs(w, params33)
    assert exc.value.node == 37
    assert exc.value.value == pytest.approx(-0.5)


def test_rhs_linearization_consistency(grid12, params33):
    # rhs(eps v01) = eps lambda_01 v01 + O(eps^2)
    v01 = cf.eigenfunction_v(ModeIndex(0, 1), grid12.nodes, params33)
    lam = cf.eigenvalue(ModeIndex(0, 1), params33)
    devs = []
    for eps in (1e-2, 5e-3):
        w = geo.GridFunction(grid12, 0, eps * v01)
        rhs = evolve.nonlinear_rhs(w, params33)
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
        rhs = evolve.nonlinear_rhs(w, params33)
        exact = cf.delayed_barenblatt_time_derivative(0.3, grid.nodes, tau0,
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
    st = zero_state(grid12, params33)
    with pytest.raises(ValueError, match="dt"):
        evolve.step_bdf2(st, st, 0.0)


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
    assert evolve._mass_defect(zero, params33) == 0.0

    s = grid12.nodes
    eps = 1e-3
    w00 = geo.GridFunction(
        grid12, 0, eps * cf.eigenfunction_v(ModeIndex(0, 0), s, params33))
    assert abs(evolve._mass_defect(w00, params33)) > 1e-3 * eps

    # the dilation mode is mass-neutral (quadrature level)
    w01 = eps * cf.eigenfunction_v(ModeIndex(0, 1), s, params33)
    w01 = geo.GridFunction(grid12, 0, w01)
    assert abs(evolve._mass_defect(w01, params33)) <= 1e-8


def test_energy(grid12, params33):
    zero = geo.GridFunction(grid12, 0, np.zeros(grid12.count + 1))
    assert evolve.energy(zero, params33) == 0.0
    # H(1) at m = 1/2 equals (2^1.5 - 2.5)/0.75; check through a constant w=1
    # on a short grid against the independent quadrature of H
    p_half = cf.derive_params(3, 0.5)
    grid = geo.make_grid(2.0, 100)
    one = geo.GridFunction(grid, 0, np.ones(grid.count + 1))
    e_val = evolve.energy(one, p_half)
    h1 = (2.0 ** 1.5 - 2.5) / 0.75
    ref = geo.sphere_area(3) * h1 * float(
        np.trapezoid(np.tanh(grid.nodes) ** 2, grid.nodes))
    assert e_val == pytest.approx(ref, rel=1e-12)
    assert h1 == pytest.approx(0.43790283, abs=1e-7)


def test_energy_quadratic_proxy(grid12, params33):
    # E / (0.5 int w^2 dmu) -> 1 as amplitude -> 0
    s = grid12.nodes
    shape = np.exp(-((s - 1.0) ** 2))
    ratios = []
    for eps in (1e-2, 1e-3):
        w = geo.GridFunction(grid12, 0, eps * shape)
        ref = 0.5 * geo.sphere_area(3) * float(np.trapezoid(
            (eps * shape) ** 2 * geo.volume_weight(s, 3), s))
        ratios.append(evolve.energy(w, params33) / ref)
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
    bdf2, calls = evolve._Newton.bdf2, []

    def fail_third(kernel, *args):
        calls.append(args)
        if len(calls) == 3:
            raise evolve.NewtonError("forced")
        return bdf2(kernel, *args)

    monkeypatch.setattr(evolve._Newton, "bdf2", fail_third)
    tr = evolve.run(st0, 1e-2, 0.2, evolve.RecordOptions(snapshot_every=1))
    assert tr.backward_euler_steps == 2
    # every step after the start tries BDF2 (19 of 20), including the one
    # right after the redone step: the history stays dt apart
    assert len(calls) == 19
    assert np.allclose(np.diff(tr.times), 1e-2)
    # one first-order step moves the end state by O(dt^2) only
    assert np.max(np.abs(tr.snapshots[-1][1] - want)) <= 1e-4
    assert tr.dt_halvings == 0


def test_a_halved_step_counts_its_halvings(grid_coarse, params33):
    st0 = evolve.bump_data(grid_coarse, 0.5, seed=1, params=params33,
                           project_mass=False)
    assert evolve.step_nonlinear(st0, 10.0).dt_halvings == 0
    # Newton fails at dt = 20 and succeeds on both halves
    st = evolve.step_nonlinear(st0, 20.0)
    assert st.dt_halvings == 1
    half = evolve.step_nonlinear(st0, 10.0)
    full = evolve.step_nonlinear(half, 10.0)
    assert np.array_equal(st.w.values, full.w.values)
    assert st.newton_iterations == \
        half.newton_iterations + full.newton_iterations
    # a halved half-step adds its own halvings
    assert evolve.step_nonlinear(st0, 50.0).dt_halvings > 1
    tr = evolve.run(st0, 20.0, 20.0)
    assert (tr.backward_euler_steps, tr.dt_halvings) == (1, 1)


def test_a_non_finite_newton_system_is_a_named_error(grid_coarse, params33,
                                                    monkeypatch):
    st0 = evolve.bump_data(grid_coarse, 0.5, seed=1, params=params33,
                           project_mass=False)
    kernel = evolve._Newton(evolve._workspace(grid_coarse, params33))
    with pytest.raises(evolve.NewtonError, match="Newton system at dt=1e"
                       r"\+306: array must not contain infs or NaNs"):
        kernel.solve(st0.w.values, 1e306, 0.0)
    steps, solve = [], evolve._Newton.solve

    def spy(kernel, w0, dt, w_boundary):
        steps.append(dt)
        return solve(kernel, w0, dt, w_boundary)

    monkeypatch.setattr(evolve._Newton, "solve", spy)
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
        kernel.solve(st0.w.values, 1e-2, 0.0)


def test_trace_records_residual_damping_and_margin(grid_coarse, params33):
    # the damped start of the tridiag oracle: v drops to 0.1, and the first
    # step halves its Newton updates
    st0 = evolve.bump_data(grid_coarse, 0.9, seed=1, params=params33,
                           project_mass=False)
    st0 = evolve.EvolutionState(0.0, st0.w.with_values(-st0.w.values), params33)
    tr = evolve.run(st0, 1.0, 3.0)
    assert 0.0 <= tr.max_final_residual <= evolve.NEWTON_TOL
    assert tr.min_damping < 1.0
    assert tr.min_damping == 0.5 ** round(-np.log2(tr.min_damping))
    assert evolve.MARGIN_FLOOR < tr.min_margin <= tr.min_v[1:].min()
    calm = evolve.run(zero_state(grid_coarse, params33), 1e-2, 0.1)
    assert (calm.max_final_residual, calm.min_damping, calm.min_margin) == \
        (0.0, 1.0, 1.0)


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
    assert abs(evolve._mass_defect(stb.w, params33)) <= 1e-14
    stb2 = evolve.bump_data(grid12, 0.05, seed=9, params=params33)
    assert np.array_equal(stb.w.values, stb2.w.values)  # seeded determinism
    std = evolve.delayed_barenblatt_data(grid12, 0.1, 1.0, params33)
    assert std.w.values[0] != 0.0


def test_workspace_cache_is_bounded(params33):
    for count in range(16, 16 + 80):
        evolve._workspace(geo.make_grid(12.0, count), params33)
    assert evolve._build_workspace.cache_info().currsize <= 64


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


def test_observation_weights_are_the_pointwise_formulas(grid12, params33):
    # energy reads cached weights; the bits are those of the expressions
    # they replaced
    state = evolve.bump_data(grid12, 0.05, seed=5, params=params33)
    w, s = state.w, grid12.nodes
    for params in (params33, cf.derive_params(1, 0.5)):
        m = params.m
        H = ((1.0 + w.values) ** (m + 1.0) - 1.0 - (m + 1.0) * w.values) \
            / (m * (m + 1.0))
        want = geo.sphere_area(params.n) * float(
            np.trapezoid(H * geo.volume_weight(s, params.n), s))
        assert evolve.energy(w, params) == want


def test_tiny_m_is_a_named_solver_failure(grid_coarse):
    # m h underflows, so the flux prefactor r^(n-1)/(m h cosh s) is infinite
    params = cf.derive_params(1, 5e-324)
    w = geo.GridFunction(grid_coarse, 0, np.zeros(grid_coarse.count + 1))
    with pytest.raises(evolve.EvolveError, match="flux prefactor"):
        evolve.nonlinear_rhs(w, params)
