"""The direct LAPACK tridiagonal kernels against the solve_banded form they replaced."""

import warnings

import numpy as np
import pytest
import scipy.linalg

from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo
from fastdiff_lab.tridiag import _solve_packed


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
    """The system as ``_solve_packed`` takes it: one buffer and its four
    views (sub-diagonal, diagonal, super-diagonal, right side)."""
    N = d.size
    buffer = np.concatenate((dl, d, du, b))
    return buffer, (buffer[:N - 1], buffer[N - 1:2 * N - 1],
                    buffer[2 * N - 1:3 * N - 2], buffer[3 * N - 2:])


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


def test_singular_system_raises_like_solve_banded():
    N = 16
    dl, d, du, b = np.zeros(N - 1), np.ones(N), np.zeros(N - 1), np.ones(N)
    d[7] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        scipy.linalg.solve_banded((1, 1), banded(dl, d, du), b)
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _solve_packed(packed(dl, d, du, b))


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


def _face_derivatives(ws, w_full, textbook=False):
    """The derivatives of Phi at the faces i+1/2 by w_i and by w_{i+1}
    (oracle), with dG = m U v^(m-1) formed as the kernel forms it,
    U m (v^m / v), or with ``textbook`` as the power v^(m-1)."""
    v = 1.0 + w_full
    dG = ws.U * ws.m * (v ** (ws.m - 1.0) if textbook else v ** ws.m / v)
    return (ws.C * (-dG[:-1] - 0.5 * ws.dU),
            ws.C * (dG[1:] - 0.5 * ws.dU))


def _newton_update_solve_banded(ws, w_full, dt, shift, b, textbook=False):
    """delta from (shift I - dt J) delta = b with J at w_full (oracle).  Each
    band of face-derivative differences takes the kernel's one scale
    (1/M)(-dt); ``textbook`` forms J = differences / M first, as the
    allocating kernel did, and -dt J after."""
    left, right = _face_derivatives(ws, w_full, textbook)
    N = ws.N
    diag = left[:N].copy()
    diag[1:] -= right[:N - 1]
    minv = 1.0 / ws.masses
    if textbook:
        sub, diag, sup = (-dt * band for band in (
            -left[:N - 1] * minv[1:], diag * minv, right[:N - 1] * minv[:-1]))
    else:
        scale = minv * -dt
        sub, diag, sup = (left[:N - 1] * -scale[1:], diag * scale,
                          right[:N - 1] * scale[:-1])
    ab = np.zeros((3, N))
    ab[0, 1:] = sup
    ab[1, :] = diag + shift
    ab[2, :-1] = sub
    return scipy.linalg.solve_banded((1, 1), ab, b)


def _linear_euler_solve_banded(ws, w0, dt, w_boundary):
    """The linearly implicit Euler step on scipy.linalg.solve_banded
    (oracle): with w0's value at s_max replaced by w_boundary,
    (I - dt J(w0)) delta = dt rhs(w0), W = w0 + delta."""
    N = ws.N
    P = w0.copy()
    P[N] = w_boundary
    evolve._check_positivity(P[:N], evolve.MARGIN_FLOOR)
    W = P.copy()
    W[:N] += _newton_update_solve_banded(ws, P, dt, 1.0,
                                         dt * _rhs_np_diff(ws, P))
    evolve._check_positivity(W, evolve.MARGIN_FLOOR)
    return W


def _linear_bdf2_solve_banded(ws, prev, w, dt, w_boundary):
    """The linearly implicit BDF2 step on scipy.linalg.solve_banded, scaled
    by 3/2 as the kernel is (oracle): from the predictor P = 2 w - prev,
    (3/2 I - dt J(P)) delta = dt rhs(P) - (w - prev), W = P + delta."""
    N = ws.N
    P = 2.0 * w - prev
    P[N] = w_boundary
    evolve._check_positivity(P[:N], evolve.MARGIN_FLOOR)
    b = dt * _rhs_np_diff(ws, P) - (w - prev)[:N]
    W = P.copy()
    W[:N] += _newton_update_solve_banded(ws, P, dt, 1.5, b)
    evolve._check_positivity(W, evolve.MARGIN_FLOOR)
    return W


def _textbook_bdf2(ws, prev, w, dt, w_boundary):
    """The same step as the textbook writes it (cross-check): one Newton
    iteration for W = base + (2/3) dt rhs(W), base = (4 w - prev)/3, from
    P = 2 w - prev, with the Jacobian's m U v^(m-1) as a power."""
    N = ws.N
    dt23 = 2.0 * dt / 3.0
    base = (4.0 * w - prev) / 3.0
    P = 2.0 * w - prev
    P[N] = w_boundary
    F = P[:N] - base[:N] - dt23 * _rhs_np_diff(ws, P)
    W = P.copy()
    W[:N] += _newton_update_solve_banded(ws, P, dt23, 1.0, -F, textbook=True)
    return W


def _textbook_euler(ws, w0, dt, w_boundary):
    """The same step as the textbook writes it (cross-check): one Newton
    iteration for backward Euler, W = w0 + dt rhs(W), from W = w0, with the
    Jacobian's m U v^(m-1) as a power."""
    N = ws.N
    W = w0.copy()
    W[N] = w_boundary
    F = W[:N] - w0[:N] - dt * _rhs_np_diff(ws, W)
    W[:N] += _newton_update_solve_banded(ws, W, dt, 1.0, -F, textbook=True)
    return W


# (n, m): the default, n = 1 (C has no sinh^(n-1) factor) and p near 10.3
MODELS = pytest.mark.parametrize("n, m", [(3, 2.0 / 3.0), (1, 0.5),
                                          (3, 0.85)])


def _one_pass(ws, P):
    """The face average the kernel picks for an rhs evaluated at P (every
    node, the Dirichlet value last), from P's own extremes: True for the
    one-pass form."""
    v = 1.0 + P
    return bool(ws.halves_exact and v.min() >= 0.5 and v.max() < 2.0 ** 53)


@pytest.fixture
def face_forms(monkeypatch):
    """The face average of every rhs the Newton kernel evaluates: True for
    the one-pass form, False for the four-pass one."""
    forms, rhs = [], evolve._Newton.rhs

    def spy(kernel, w_in, out, one_pass):
        forms.append(one_pass)
        return rhs(kernel, w_in, out, one_pass)

    monkeypatch.setattr(evolve._Newton, "rhs", spy)
    return forms


@MODELS
def test_step_nonlinear_bitwise_equal_to_solve_banded_newton(n, m,
                                                             face_forms):
    params = cf.derive_params(n, m, 1.0)
    grid = geo.make_grid(12.0, 600)
    state = evolve.bump_data(grid, 0.3, seed=7, params=params)
    ws = evolve._workspace(grid, params)
    w_oracle = state.w.values.copy()
    dt = 0.01
    forms = []
    for _ in range(20):
        forms.append(_one_pass(ws, np.append(w_oracle[:-1], 0.0)))
        state = evolve.step_nonlinear(state, dt)
        w_oracle = _linear_euler_solve_banded(ws, w_oracle, dt, 0.0)
        assert np.array_equal(state.w.values, w_oracle)
    # each step's one rhs takes the form its base point's own min and max
    # pick
    assert face_forms == forms
    if (n, m) == (3, 2.0 / 3.0):
        assert face_forms == [True] * 20  # v stays above 0.5


def test_damped_step_bitwise_equal_to_solve_banded_newton(params33,
                                                         face_forms):
    # v starts at 0.1 and dt = 1 is long, where full Newton updates of
    # backward Euler overshoot: the linear step still takes one solve
    grid = geo.make_grid(12.0, 150)
    bump = evolve.bump_data(grid, 0.9, seed=1, params=params33,
                            project_mass=False)
    state = evolve.EvolutionState(0.0, bump.w.with_values(-bump.w.values),
                                  params33)
    ws = evolve._workspace(grid, params33)
    want = _linear_euler_solve_banded(ws, state.w.values, 1.0, 0.0)
    got = evolve.step_nonlinear(state, 1.0)
    assert got.dt_halvings == 0
    assert np.array_equal(got.w.values, want)
    assert face_forms == [False]  # v starts at 0.1


def _barenblatt_boundary(params, tau0):
    """The exact far-field value of the delayed Barenblatt solution."""
    def boundary(t):
        E = np.exp(2 * params.p * t)
        theta = (E / (E + 2 * params.p * tau0)) ** params.beta
        return theta ** (-params.p) - 1.0
    return boundary


def test_prescribed_boundary_bitwise_equal_to_solve_banded_newton(params33,
                                                                  face_forms):
    # a nonzero value held at s_max, through step_nonlinear (and through
    # run in test_run_linear_bdf2_bitwise_equal_to_solve_banded)
    grid = geo.make_grid(12.0, 300)
    state0 = evolve.delayed_barenblatt_data(grid, 0.15, 1.0, params33)
    boundary = _barenblatt_boundary(params33, 0.15)
    ws = evolve._workspace(grid, params33)
    dt, steps = 1e-2, 20
    state, w = state0, state0.w.values.copy()
    for _ in range(steps):
        w = _linear_euler_solve_banded(ws, w, dt, boundary(state.t + dt))
        state = evolve.step_nonlinear(state, dt, boundary)
        assert w[-1] == boundary(state.t) != 0.0
        assert np.array_equal(state.w.values, w)
    assert face_forms == [False] * steps  # v drops to 0.15


def _bdf2_case(params, case):
    """(initial state, boundary or None, dt) of a 20-step test run."""
    if case == "bump":
        grid = geo.make_grid(12.0, 600)
        return evolve.bump_data(grid, 0.3, seed=7, params=params), None, 4e-3
    # a nonzero value held at s_max; above p = 3, dt shrinks with the decay
    # time 1/(2p), so the predictor keeps its margin (at p near 10.3 and
    # dt = 1e-2, six BDF2 steps would be redone)
    grid = geo.make_grid(12.0, 300)
    return (evolve.delayed_barenblatt_data(grid, 0.15, 1.0, params),
            _barenblatt_boundary(params, 0.15),
            1e-2 * min(1.0, 3.0 / params.p))


def _run_bdf2_case(params, case, oracle_start, oracle_step):
    """20 steps of evolve.run, and the same steps by the oracles: one
    linearly implicit Euler step by ``oracle_start`` starts the history,
    then each step is the linearly implicit BDF2 step from
    P = 2 w_n - w_{n-1} by ``oracle_step``.  Returns the run's states, the
    oracle's and the face average each step's rhs should take."""
    state0, boundary, dt = _bdf2_case(params, case)
    ws = evolve._workspace(state0.w.grid, params)
    steps = 20
    trace = evolve.run(state0, dt, steps * dt,
                       evolve.RecordOptions(snapshot_every=1), boundary)
    assert (trace.backward_euler_steps, trace.linear_steps) == (1, steps - 1)
    value = boundary or (lambda t: 0.0)
    prev = state0.w.values.copy()
    w = oracle_start(ws, prev, dt, value(trace.times[1]))
    oracle = [prev, w]
    # the points each step evaluates its rhs at: w_0, then the predictors
    points = [np.append(prev[:-1], value(trace.times[1]))]
    for t in trace.times[2:]:
        points.append(np.append((2.0 * w - prev)[:-1], value(t)))
        prev, w = w, oracle_step(ws, prev, w, dt, value(t))
        oracle.append(w)
    assert len(trace.snapshots) == len(oracle) == steps + 1
    forms = [_one_pass(ws, P) for P in points]
    return [got for _, got in trace.snapshots], oracle, forms


@MODELS
@pytest.mark.parametrize("case", ["bump", "prescribed_boundary"])
def test_run_linear_bdf2_bitwise_equal_to_solve_banded(n, m, face_forms,
                                                       case):
    params = cf.derive_params(n, m, 1.0)
    states, oracle, forms = _run_bdf2_case(params, case,
                                           _linear_euler_solve_banded,
                                           _linear_bdf2_solve_banded)
    for got, want in zip(states, oracle):
        assert np.array_equal(got, want)
    # one rhs per step, the start's included; its form is picked by the
    # evaluated state's own min and max
    assert face_forms == forms
    if (n, m) == (3, 2.0 / 3.0):
        steps = len(states) - 1
        # v stays above 0.5 in the bump run and drops to 0.15 in the other
        assert face_forms == [case == "bump"] * steps


@pytest.mark.parametrize("case", ["bump", "prescribed_boundary"])
def test_run_linear_bdf2_agrees_with_the_textbook_form(params33, case):
    # the kernel's system scaled by 3/2, with the Jacobian's m U v^(m-1) as
    # Um (v^m / v) and one band scale, against the (2/3) dt form with the
    # power: the same method, apart by round-off over 20 steps
    states, oracle, _ = _run_bdf2_case(params33, case, _textbook_euler,
                                       _textbook_bdf2)
    for got, want in zip(states, oracle):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("case", ["bump", "prescribed_boundary"])
def test_step_nonlinear_agrees_with_the_textbook_form(params33, case):
    # the kernel's linear Euler step, with the Jacobian's m U v^(m-1) as
    # Um (v^m / v) and one band scale, against one Newton iteration of
    # backward Euler with the power: apart by round-off over 20 steps
    state, boundary, dt = _bdf2_case(params33, case)
    ws = evolve._workspace(state.w.grid, params33)
    value = boundary or (lambda t: 0.0)
    w = state.w.values.copy()
    for _ in range(20):
        w = _textbook_euler(ws, w, dt, value(state.t + dt))
        state = evolve.step_nonlinear(state, dt, boundary)
        got = state.w.values
        assert np.max(np.abs(got - w)) <= 1e-13 * np.max(np.abs(w))


def test_dirichlet_value_alone_below_half_takes_four_passes(params33,
                                                          face_forms):
    # v >= 0.5 at every unknown, and 0.49 at s_max
    grid = geo.make_grid(12.0, 300)
    state = evolve.bump_data(grid, 0.3, seed=7, params=params33)
    ws = evolve._workspace(grid, params33)
    w, dt, boundary = state.w.values.copy(), 1e-2, -0.51
    kernel = evolve._Newton(ws)
    for _ in range(5):
        assert 1.0 + w[:-1].min() >= 0.5
        # the predictor 2 w - w is w exactly
        kernel.step(w, dt, boundary, w)
        assert np.array_equal(
            kernel.W, _linear_bdf2_solve_banded(ws, w, w, dt, boundary))
        want = _linear_euler_solve_banded(ws, w, dt, boundary)
        kernel.backward_euler(w, 0.0, dt, lambda t: boundary)
        assert np.array_equal(kernel.W, want)
        state = evolve.step_nonlinear(state, dt, lambda t: boundary)
        assert np.array_equal(state.w.values, want)
        w = want
    assert face_forms and not any(face_forms)


def test_min_v_exactly_one_half_takes_one_pass(params33, face_forms):
    # two neighbours at v = 0.5 exactly: a face sum s = 1, where s - 2 is
    # still exact by Sterbenz's lemma
    grid = geo.make_grid(12.0, 300)
    w = np.maximum(-0.6 * np.exp(-(grid.nodes - 2.0) ** 2), -0.5)
    assert (w == -0.5).sum() >= 2 and w[-1] > -0.5
    ws = evolve._workspace(grid, params33)
    kernel = evolve._Newton(ws)
    for dt in (1e-3, 1e-2, 0.1):
        face_forms.clear()
        # the predictor 2 w - w is w exactly, min v 0.5, as is the base
        # point of the linear Euler step
        kernel.step(w, dt, 0.0, w)
        assert np.array_equal(kernel.W,
                              _linear_bdf2_solve_banded(ws, w, w, dt, 0.0))
        kernel.backward_euler(w, 0.0, dt, None)
        assert np.array_equal(kernel.W,
                              _linear_euler_solve_banded(ws, w, dt, 0.0))
        assert face_forms == [True, True]
    out = np.empty(grid.count)
    kernel.v[-1] = 1.0 + w[-1]
    kernel.rhs(w[:-1], out, True)
    assert np.array_equal(out, _rhs_np_diff(ws, w))


def test_one_pass_face_average_needs_v_below_two_to_the_53(params33):
    # up to s = v_i + v_{i+1} = 2^54 - 2 the one-pass form is the four-pass
    # one bitwise; at s = 2^54 + 4, whose significand is odd, (s - 2)/2 + 1
    # rounds to s/2 - 2, which is why the kernel also bounds max v
    grid = geo.make_grid(12.0, 64)
    ws = evolve._workspace(grid, params33)
    kernel = evolve._Newton(ws)
    w = np.random.default_rng(3).uniform(-0.5, 3.0, grid.count + 1)
    out = np.empty(grid.count)
    for pair, equal in (((2.0 ** 53 - 2, 2.0 ** 53 - 2), True),
                        ((2.0 ** 53 - 1, 2.0 ** 53 + 2), False)):
        w[20:22] = pair
        assert (1.0 + w[20] + (1.0 + w[21]) < 2.0 ** 54) == equal
        kernel.v[-1] = 1.0 + w[-1]
        kernel.rhs(w[:-1], out, True)
        assert np.array_equal(out, _rhs_np_diff(ws, w)) == equal


@pytest.mark.parametrize("which", range(4))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_packed_pair_checks_and_solves_like_the_buffer(which, bad):
    # the pair solves the system its buffer holds, in place; the finiteness
    # check over the whole buffer forms no mask and raises no
    # floating-point warning
    dl, d, du, b = random_system(32, 4)
    want = scipy.linalg.solve_banded((1, 1), banded(dl, d, du), b)
    pair = packed(dl, d, du, b)
    x = _solve_packed(pair)
    assert np.array_equal(x, want) and np.shares_memory(x, pair[0])
    arrays = list(random_system(32, 4))
    arrays[which][7] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError,
                           match="array must not contain infs or NaNs"):
            _solve_packed(packed(*arrays))


def test_finiteness_zeros_are_shared_read_only_and_bounded():
    from fastdiff_lab.tridiag import _zeros
    z = _zeros(40)
    assert z is _zeros(40) and not z.any()
    with pytest.raises(ValueError, match="read-only"):
        z[0] = 1.0
    assert _zeros.cache_info().maxsize == 16
