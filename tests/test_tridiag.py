"""The direct LAPACK tridiagonal kernels against the solve_banded form they replaced."""

import numpy as np
import pytest
import scipy.linalg

from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo
from fastdiff_lab import linop
from fastdiff_lab.tridiag import (
    _factor_tridiag,
    _solve_factored,
    _solve_packed,
    _solve_tridiag,
)

from conftest import gaussian_profile


def random_system(N, seed):
    rng = np.random.default_rng(seed)
    dl = rng.standard_normal(N - 1)
    du = rng.standard_normal(N - 1)
    # strictly diagonally dominant rows with diagonals of mixed sign
    d = 0.5 + rng.random(N)
    d[1:] += np.abs(dl)
    d[:-1] += np.abs(du)
    d *= rng.choice([-1.0, 1.0], N)
    b = rng.standard_normal(N)
    return dl, d, du, b


def packed(dl, d, du, b):
    """The system in the one buffer ``_solve_packed`` solves."""
    return np.concatenate((dl, d, du, b))


def banded(dl, d, du):
    ab = np.zeros((3, d.size))
    ab[0, 1:] = du
    ab[1, :] = d
    ab[2, :-1] = dl
    return ab


@pytest.mark.parametrize("N", [16, 600, 1200])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_matches_solve_banded_bitwise(N, seed):
    dl, d, du, b = random_system(N, seed)
    expected = scipy.linalg.solve_banded((1, 1), banded(dl, d, du), b)
    got = _solve_tridiag(dl.copy(), d.copy(), du.copy(), b.copy())
    assert np.array_equal(got, expected)
    assert np.array_equal(_solve_packed(packed(dl, d, du, b)), expected)


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_raises_like_solve_banded(which, bad):
    arrays = list(random_system(32, 3))
    arrays[which][5] = bad
    dl, d, du, b = arrays
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        scipy.linalg.solve_banded((1, 1), banded(dl, d, du), b)
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _solve_packed(packed(dl, d, du, b))
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _solve_tridiag(dl, d, du, b)


def test_singular_system_raises_like_solve_banded():
    N = 16
    dl, d, du, b = np.zeros(N - 1), np.ones(N), np.zeros(N - 1), np.ones(N)
    d[7] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scipy.linalg.solve_banded((1, 1), banded(dl, d, du), b)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _solve_packed(packed(dl, d, du, b))
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _solve_tridiag(dl, d, du, b)


def _rhs_np_diff(ws, w_full):
    """The flux-form rhs as it stood on np.diff (oracle)."""
    v = 1.0 + w_full
    G = ws.U * v**ws.m
    vbar = 1.0 + 0.5 * (v[:-1] + v[1:] - 2.0)
    phi = ws.C * (np.diff(G) - ws.dU * vbar)
    out = np.empty(ws.N)
    out[0] = phi[0] / ws.masses[0]
    out[1:] = np.diff(phi) / ws.masses[1:]
    return out


def _jacobian_bands(ws, w_full):
    """The Jacobian bands as they stood with 1/masses formed per call (oracle)."""
    v = 1.0 + w_full
    dG = ws.U * ws.m * v ** (ws.m - 1.0)
    dphi_left = ws.C * (-dG[:-1] - 0.5 * ws.dU)
    dphi_right = ws.C * (dG[1:] - 0.5 * ws.dU)
    minv = 1.0 / ws.masses
    N = ws.N
    diag = np.empty(N)
    diag[0] = dphi_left[0] * minv[0]
    diag[1:] = (dphi_left[1:N] - dphi_right[:N - 1]) * minv[1:]
    lower = -dphi_left[:N - 1] * minv[1:]
    upper = dphi_right[:N - 1] * minv[:N - 1]
    return lower, diag, upper


def _newton_be_solve_banded(ws, w0, dt, w_boundary, trials=None):
    """The Newton step as it stood on scipy.linalg.solve_banded (oracle):
    three rhs evaluations per step, the closing sweep included.  ``trials``
    collects (damping factor, accepted) for every trial that met the margin."""
    W = w0.copy()
    W[ws.N] = w_boundary

    def residual(wfull):
        return wfull[:ws.N] - w0[:ws.N] - dt * _rhs_np_diff(ws, wfull)

    F = residual(W)
    norm = np.max(np.abs(F))
    for _ in range(evolve.NEWTON_MAXITER):
        if norm <= evolve.NEWTON_TOL:
            break
        lower, diag, upper = _jacobian_bands(ws, W)
        ab = np.zeros((3, ws.N))
        ab[0, 1:] = -dt * upper
        ab[1, :] = 1.0 - dt * diag
        ab[2, :-1] = -dt * lower
        delta = scipy.linalg.solve_banded((1, 1), ab, -F)
        lam = 1.0
        for _damp in range(12):
            trial = W.copy()
            trial[:ws.N] += lam * delta
            if 1.0 + trial[:ws.N].min() > evolve.MARGIN_FLOOR:
                Ft = residual(trial)
                nt = np.max(np.abs(Ft))
                if trials is not None:
                    trials.append((lam, nt < norm or nt <= evolve.NEWTON_TOL))
                if nt < norm or nt <= evolve.NEWTON_TOL:
                    W, F, norm = trial, Ft, nt
                    break
            lam *= 0.5
        else:
            raise evolve.NewtonError(f"Newton damping stalled at |F| = {norm:.3e}")
    else:
        raise evolve.NewtonError("Newton did not converge")
    W[:ws.N] = w0[:ws.N] + dt * _rhs_np_diff(ws, W)
    evolve._check_positivity(W, evolve.MARGIN_FLOOR)
    return W


def test_step_nonlinear_bitwise_equal_to_solve_banded_newton(params33):
    grid = geo.make_grid(12.0, 600)
    state = evolve.bump_data(grid, 0.3, seed=7, params=params33)
    ws = evolve._workspace(grid, params33)
    w_oracle = state.w.values.copy()
    dt = 0.01
    for _ in range(20):
        state = evolve.step_nonlinear(state, dt)
        w_oracle = _newton_be_solve_banded(ws, w_oracle, dt, 0.0)
        assert np.array_equal(state.w.values, w_oracle)


def test_run_bdf2_bitwise_equal_to_solve_banded_newton(params33):
    # evolve.run: one BE step starts the history, then BDF2 steps solve
    # W = base + (2/3) dt R(W), base = (4/3) w_n - (1/3) w_{n-1}, rounded
    # as (4 w_n - w_{n-1}) / 3
    grid = geo.make_grid(12.0, 600)
    state = evolve.bump_data(grid, 0.3, seed=7, params=params33)
    ws = evolve._workspace(grid, params33)
    dt, steps = 4e-3, 20
    trace = evolve.run(state, dt, steps * dt,
                       evolve.RecordOptions(snapshot_every=1))
    assert trace.backward_euler_steps == 1
    prev = state.w.values.copy()
    w = _newton_be_solve_banded(ws, prev, dt, 0.0)
    oracle = [prev, w]
    for _ in range(steps - 1):
        base = (4.0 * w - prev) / 3.0
        prev, w = w, _newton_be_solve_banded(ws, base, 2.0 * dt / 3.0, 0.0)
        oracle.append(w)
    assert len(trace.snapshots) == len(oracle)
    for (_, got), want in zip(trace.snapshots, oracle):
        assert np.array_equal(got, want)


def test_damped_step_bitwise_equal_to_solve_banded_newton(params33):
    # v drops to 0.1: full Newton updates overshoot, and the kernel reuses
    # its trial, residual and rhs buffers across rejected trials
    grid = geo.make_grid(12.0, 150)
    bump = evolve.bump_data(grid, 0.9, seed=1, params=params33,
                            project_mass=False)
    state = evolve.EvolutionState(0.0, bump.w.with_values(-bump.w.values),
                                  params33)
    ws = evolve._workspace(grid, params33)
    trials = []
    want = _newton_be_solve_banded(ws, state.w.values, 1.0, 0.0, trials)
    got = evolve.step_nonlinear(state, 1.0)
    assert (got.newton_iterations, got.dt_halvings) == (5, 0)
    assert any(not accepted for _, accepted in trials)
    assert np.array_equal(got.w.values, want)


def _barenblatt_boundary(params, tau0):
    """The exact far-field value of the delayed Barenblatt solution."""
    def boundary(t):
        E = np.exp(2 * params.p * t)
        theta = (E / (E + 2 * params.p * tau0)) ** params.beta
        return theta ** (-params.p) - 1.0
    return boundary


def test_prescribed_boundary_bitwise_equal_to_solve_banded_newton(params33):
    # a nonzero value held at s_max, through step_nonlinear and run
    grid = geo.make_grid(12.0, 300)
    state0 = evolve.delayed_barenblatt_data(grid, 0.15, 1.0, params33)
    boundary = _barenblatt_boundary(params33, 0.15)
    ws = evolve._workspace(grid, params33)
    dt, steps = 1e-2, 20
    state, w = state0, state0.w.values.copy()
    for _ in range(steps):
        w = _newton_be_solve_banded(ws, w, dt, boundary(state.t + dt))
        state = evolve.step_nonlinear(state, dt, boundary)
        assert w[-1] == boundary(state.t) != 0.0
        assert np.array_equal(state.w.values, w)

    trace = evolve.run(state0, dt, steps * dt,
                       evolve.RecordOptions(snapshot_every=1), boundary)
    assert trace.backward_euler_steps == 1
    prev = state0.w.values.copy()
    w = _newton_be_solve_banded(ws, prev, dt, boundary(dt))
    oracle = [prev, w]
    for t in trace.times[2:]:
        base = (4.0 * w - prev) / 3.0
        prev, w = w, _newton_be_solve_banded(ws, base, 2.0 * dt / 3.0,
                                             boundary(t))
        oracle.append(w)
    assert len(trace.snapshots) == len(oracle) == steps + 1
    for (_, got), want in zip(trace.snapshots, oracle):
        assert np.array_equal(got, want)


def test_step_linear_bitwise_equal_to_solve_banded(grid12, params33):
    op = linop.assemble(0, params33.eta_cr, grid12, params33)
    f = geo.GridFunction(grid12, 0, np.exp(-((grid12.nodes - 1.0) ** 2)) * (
        np.arange(grid12.count + 1) < grid12.count))
    dt = 0.01
    x = f.values[:grid12.count].copy()
    for _ in range(5):
        f = linop.step_linear(op, f, dt)
        ab = np.zeros((3, x.size))
        ab[0, 1:] = -0.5 * dt * op.sup[:-1]
        ab[1, :] = 1.0 - 0.5 * dt * op.diag
        ab[2, :-1] = -0.5 * dt * op.sub[1:]
        x = scipy.linalg.solve_banded((1, 1), ab, x + 0.5 * dt * linop._matvec(op, x))
        assert np.array_equal(f.values[:grid12.count], x)


# ---------------------------------------------------------------------------
# factor once (?gttrf), solve per right side (?gttrs)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("N", [16, 600, 1200])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_factored_solve_matches_gtsv_bitwise(N, seed):
    dl, d, du, b = random_system(N, seed)
    lu = _factor_tridiag(dl, d, du)
    for k in range(3):
        rhs = b * (k + 1.0) - k
        expected = _solve_tridiag(dl.copy(), d.copy(), du.copy(), rhs.copy())
        assert np.array_equal(_solve_factored(lu, rhs), expected)


def test_factored_solve_leaves_inputs_untouched():
    dl, d, du, b = random_system(64, 5)
    saved = [a.copy() for a in (dl, d, du, b)]
    _solve_factored(_factor_tridiag(dl, d, du), b)
    for a, s in zip((dl, d, du, b), saved):
        assert np.array_equal(a, s)


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_factored_solve_non_finite_input_raises_like_gtsv(which, bad):
    arrays = list(random_system(32, 3))
    arrays[which][5] = bad
    dl, d, du, b = arrays
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        _solve_tridiag(dl.copy(), d.copy(), du.copy(), b.copy())
    with pytest.raises(ValueError, match="array must not contain infs or NaNs"):
        # bands are checked when factoring, the right side when solving
        _solve_factored(_factor_tridiag(dl, d, du), b)


def test_factored_singular_system_raises_like_gtsv():
    N = 16
    dl, d, du, b = np.zeros(N - 1), np.ones(N), np.zeros(N - 1), np.ones(N)
    d[7] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _solve_tridiag(dl.copy(), d.copy(), du.copy(), b.copy())
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _factor_tridiag(dl, d, du)


def _capture_fit(monkeypatch):
    """Make semigroup_decay hand back (times, sups) instead of fitting."""
    from fastdiff_lab import asymptotics
    monkeypatch.setattr(asymptotics, "fit_rate",
                        lambda times, sups, policy=None: (times, sups))


def _semigroup_step_linear(op, f0, modes, t_final, dt, params):
    """semigroup_decay as it stood on one step_linear call per step (oracle),
    returning the (times, sups) it fitted."""
    cosh_eta = np.cosh(f0.grid.nodes) ** op.eta
    v0 = f0.with_values(cosh_eta * f0.values)
    if modes:
        _, p_part = linop.project(v0, modes, params)
        w_vals = linop._deflate_discrete(op, p_part.values / cosh_eta, len(modes))
    else:
        w_vals = v0.values / cosh_eta
    w = f0.with_values(w_vals / np.max(np.abs(w_vals)))
    steps = int(round(t_final / dt))
    times = np.empty(steps + 1)
    sups = np.empty(steps + 1)
    times[0] = 0.0
    sups[0] = 1.0
    for j in range(steps):
        w = linop.step_linear(op, w, dt)
        times[j + 1] = (j + 1) * dt
        sups[j + 1] = np.max(np.abs(w.values))
    return times, sups


@pytest.mark.parametrize("count, dt", [(600, 4e-3), (1200, 2e-3)])
@pytest.mark.parametrize("eta_frac", [0.0, 0.5, 1.0])
def test_semigroup_decay_equals_step_linear_loop_bitwise(monkeypatch, params33,
                                                         count, dt, eta_frac):
    # the criterion-4 shapes: eta in {0, eta_cr/2, eta_cr}, projected data
    grid = geo.make_grid(12.0, count)
    s = grid.nodes
    eta = eta_frac * params33.eta_cr
    op = linop.assemble(0, eta, grid, params33)
    thr = cf.essential_threshold(0, eta, params33)
    modes = [md for md, lam in cf.admissible_modes(eta, params33)
             if md.ell == 0 and lam > thr]
    f0 = geo.GridFunction(grid, 0, np.cosh(s) ** (-eta) * np.exp(-(s - 1.5) ** 2))
    want = _semigroup_step_linear(op, f0, modes, 1.0, dt, params33)
    _capture_fit(monkeypatch)
    times, sups = linop.semigroup_decay(op, f0, modes, 1.0, dt, params33)
    assert np.array_equal(times, want[0])
    assert np.array_equal(sups, want[1])


def test_semigroup_decay_equals_step_linear_loop_for_l1(monkeypatch, params33):
    # l >= 1: the unknowns start at node 1
    grid = geo.make_grid(12.0, 600)
    op = linop.assemble(1, 0.0, grid, params33)
    f0 = gaussian_profile(grid, ell=1)
    want = _semigroup_step_linear(op, f0, [], 0.5, 4e-3, params33)
    _capture_fit(monkeypatch)
    times, sups = linop.semigroup_decay(op, f0, [], 0.5, 4e-3, params33)
    assert np.array_equal(sups, want[1])


def test_semigroup_decay_blow_up_raises_at_the_step_linear_step(monkeypatch,
                                                                params33):
    # an unstable operator: the Crank-Nicolson factor of the top mode is
    # about -1e3 per step, so the values overflow after about a hundred steps
    grid = geo.make_grid(12.0, 64)
    op = linop.assemble(0, 0.0, grid, params33)
    dt = 0.1
    op.diag = op.diag + 2.0 / dt * (1.0 + 2e-3)
    f0 = geo.GridFunction(grid, 0, np.exp(-((grid.nodes - 1.0) ** 2)))
    calls = []
    matvec = linop._matvec
    monkeypatch.setattr(linop, "_matvec",
                        lambda o, x: calls.append(1) or matvec(o, x))
    with pytest.raises(ValueError) as oracle:
        _semigroup_step_linear(op, f0, [], 1e3, dt, params33)
    oracle_steps = len(calls)
    calls.clear()
    _capture_fit(monkeypatch)
    with pytest.raises(ValueError) as got:
        linop.semigroup_decay(op, f0, [], 1e3, dt, params33)
    assert len(calls) == oracle_steps < 1e4
    assert str(got.value) == str(oracle.value)
