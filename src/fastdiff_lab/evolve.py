"""Nonlinear radial evolution of the relative density v = u/u_B on the cigar.

The rescaled flow d_t u = (1/m) Lap u^m + (2/(1-m)) div(x u) is solved for
w = v - 1 in geodesic coordinates.  The right side is evaluated in flux
(conservative) form: with r = sinh s and U = u_B^m,

    d_t v * u_B r^{n-1} cosh s = d_s Phi,
    Phi = r^{n-1}/(m cosh s) * [ d_s(U v^m) - (d_s U) * v ],

which is algebraically the reaction/transport/nonlinear-diffusion split
L h(w) + (2/(1-m))[tanh s d_s + (n - (2/(1-m)) tanh^2 s)](w - h(w)) with
h(w) = ((1+w)^m - 1)/m.  Two payoffs of the flux form: v == 1 annihilates
the discrete flux exactly (Barenblatt is a fixed point to machine
precision), and the discrete mass sum(w_i M_i) telescopes, so conservation
holds to the boundary-flux level rather than to quadrature error.

The building block is a backward-Euler (BE) step solved by a damped
tridiagonal Newton iteration: first order in time, unconditionally
stable, and on Newton failure it halves dt (counted in ``dt_halvings``).
``run`` steps with the second-order backward differentiation formula
(BDF2)

    W = (4/3) w_n - (1/3) w_{n-1} + (2/3) dt R(W),

which is the same Newton solve with the combination as its base point and
(2/3) dt as its step.  A BE step starts the history, and a BDF2 step whose
Newton iteration fails is redone as a BE step (the history points stay dt
apart, so BDF2 resumes on the next step).  Every accepted step ends with
one fixed-point sweep W = base + dt' R(W), which keeps the discrete mass
exact without affecting the order.  B is normalized to 1 here (see
geometry).

One Newton kernel, ``_Newton``, holds the only flux, rhs and Jacobian code
and solves every step: those of ``run``, ``step_nonlinear``, ``step_bdf2``
and, for its rhs, ``nonlinear_rhs``.  It works in place on scratch
allocated once per run (the iterate W and the damping trial, which swap on
acceptance; v = 1 + W, shared by the residual and the Jacobian; F; R; the
BDF2 base; the packed (4N-2) Newton system), so a step makes no
temporaries beyond the mask of the finiteness check.  Reusing a buffer
never changes an operation or its order, so the results are bitwise those
of the same arithmetic on fresh arrays (``tests/test_tridiag.py``).  The
kernel owns the checks: each Newton system must be finite and solvable,
each damping trial must keep 1+w above ``MARGIN_FLOOR``, |F| must reach
``NEWTON_TOL`` within ``NEWTON_MAXITER`` iterations, and each accepted
state must be finite and above ``MARGIN_FLOOR``; a failure is a
``NewtonError`` or ``PositivityError``.  Overflow while a system is built
is expected at huge dt and is left to the finiteness check.  ``run`` keeps
its states as arrays and never re-checks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .closedform import (
    ModelParams,
    ModeIndex,
    delayed_barenblatt_v,
    derive_params,
    eigenfunction_v,
)
from .geometry import (
    GridFunction,
    RadialGrid,
    _node_power,
    cell_masses,
    sphere_area,
    step_count,
    weighted_sup,
)
from .tridiag import _packed_views, _solve_packed

__all__ = [
    "MARGIN_FLOOR",
    "EvolveError",
    "PositivityError",
    "NewtonError",
    "EvolutionState",
    "EvolutionTrace",
    "Envelope",
    "RecordOptions",
    "nonlinear_rhs",
    "step_nonlinear",
    "step_bdf2",
    "run",
    "energy",
    "comparison_envelope",
    "eigenmode_data",
    "bump_data",
    "delayed_barenblatt_data",
]

# the equation degenerates at v = 0; refuse to approach it
MARGIN_FLOOR = 1e-3

NEWTON_TOL = 1e-11
NEWTON_MAXITER = 20
MAX_DT_HALVINGS = 8


class EvolveError(RuntimeError):
    pass


class PositivityError(EvolveError):
    def __init__(self, node: int, value: float):
        super().__init__(
            f"relative density lost positivity margin at node {node}: 1+w = {value}"
        )
        self.node = node
        self.value = value

    def __reduce__(self):  # pickle rebuilds from (node, value), not the message
        return type(self), (self.node, self.value)


class NewtonError(EvolveError):
    pass


@dataclass
class EvolutionState:
    t: float
    w: GridFunction
    params: ModelParams
    # Newton iterations of the step that produced this state, and the times
    # it halved dt after a failed Newton solve
    newton_iterations: int = 0
    dt_halvings: int = 0

    def __post_init__(self):
        if self.w.ell != 0:
            raise ValueError("nonlinear evolution is radial: w must ride on l=0")
        vmin = 1.0 + self.w.values.min()
        if vmin <= 0.0:
            raise PositivityError(int(np.argmin(self.w.values)), vmin)


class _Workspace:
    """Grid- and parameter-dependent arrays for the flux form (read-only)."""

    def __init__(self, grid: RadialGrid, params: ModelParams):
        n, p, m = params.n, params.p, params.m
        h = grid.h
        s = grid.nodes
        N = grid.count
        s_half = s[:-1] + h / 2.0
        self.U = np.cosh(s) ** (-(n + p - 2.0))  # u_B^m at nodes 0..N
        self.dU = self.U[1:] - self.U[:-1]
        self.masses = cell_masses(grid, params)  # cells 0..N-1
        with np.errstate(divide="ignore", over="ignore"):
            # flux prefactor r^{n-1} / (m h cosh s) at faces 1/2 .. N-1/2
            self.C = np.sinh(s_half) ** (n - 1) / (m * h * np.cosh(s_half))
            self.minv = 1.0 / self.masses
        bad = np.flatnonzero(~(np.isfinite(self.masses) & (self.masses > 0.0)
                               & np.isfinite(self.minv)))
        if bad.size:
            raise EvolveError(
                f"cell masses underflow for n={n}, m={m} (p={p:.6g}) on the "
                f"grid s_max={grid.s_max:g}, count={N}; the largest s_max "
                f"with positive masses at spacing h={h:g} is {bad[0] * h:.6g}"
            )
        if not np.isfinite(self.C).all():
            raise EvolveError(
                f"flux prefactor r^(n-1)/(m h cosh s) is not finite for n={n}, "
                f"m={m!r} on the grid s_max={grid.s_max:g}, count={N}"
            )
        self.Um = self.U * m
        self.half_dU = 0.5 * self.dU
        for arr in (self.U, self.dU, self.C, self.minv, self.Um, self.half_dU):
            arr.flags.writeable = False
        self.m = m
        self.N = N


@lru_cache(maxsize=64)
def _build_workspace(grid: RadialGrid, n: int, m: float) -> _Workspace:
    return _Workspace(grid, derive_params(n, m))


def _workspace(grid: RadialGrid, params: ModelParams) -> _Workspace:
    return _build_workspace(grid, params.n, params.m)


def _check_positivity(w_values: np.ndarray, floor: float = 0.0) -> float:
    """1 + min w, raising PositivityError unless it lies above ``floor``."""
    vmin = 1.0 + w_values.min()
    if vmin <= floor:
        raise PositivityError(int(np.argmin(w_values)), float(vmin))
    return float(vmin)


def _boundary_value(boundary, t: float) -> float:
    return 0.0 if boundary is None else float(boundary(t))


class _Newton:
    """The Newton kernel (see module doc) and its scratch.

    One instance serves a whole run: every array is allocated here, and W
    and trial swap on acceptance.  v = 1 + W, F and R = dt rhs(W) need one
    buffer each: the last residual the iteration evaluates is always that
    of the accepted iterate.  ``solve`` leaves its result in ``W``; a
    caller that keeps it hands the kernel another buffer of N+1 nodes.
    ``max_final_residual``, ``min_damping`` and ``min_margin`` gather the
    worst final |F|, the smallest accepted damping factor and the smallest
    1+w over the accepted solves.
    """

    def __init__(self, ws: _Workspace):
        N = ws.N
        self.ws = ws
        self.W, self.trial, self.v, self.G, self.dG, self.base = (
            np.empty(N + 1) for _ in range(6))
        self.F, self.R, self.face, self.phi, self.scratch = (
            np.empty(N) for _ in range(5))
        self.system = np.empty(4 * N - 2)
        self.bands = _packed_views(self.system)
        # the shifted views of the fixed buffers, made once
        self.G_lo, self.G_hi = self.G[:-1], self.G[1:]
        self.dG_lo, self.dG_hi = self.dG[:-1], self.dG[1:]
        self.phi_lo, self.phi_hi = self.phi[:-1], self.phi[1:]
        self.face_lo, self.face_hi = self.face[:-1], self.face[1:]
        self.minv_lo, self.minv_hi = ws.minv[:-1], ws.minv[1:]
        self.max_final_residual = 0.0
        self.min_damping = 1.0
        self.min_margin = math.inf

    def rhs(self, w_full: np.ndarray, out: np.ndarray):
        """out = d_t w at the unknown nodes 0..N-1, and v = 1 + w_full.

        The flux at the faces is Phi = C [(G_{i+1} - G_i) - dU vbar] with
        G = U v^m and vbar = 1 + (v_i + v_{i+1} - 2)/2.
        """
        ws, v, G, vbar, phi = self.ws, self.v, self.G, self.face, self.phi
        np.add(w_full, 1.0, out=v)
        np.power(v, ws.m, out=G)
        G *= ws.U
        np.add(v[:-1], v[1:], out=vbar)
        vbar -= 2.0
        vbar *= 0.5
        vbar += 1.0
        vbar *= ws.dU
        np.subtract(self.G_hi, self.G_lo, out=phi)
        phi -= vbar
        phi *= ws.C
        out[0] = phi[0]
        np.subtract(self.phi_hi, self.phi_lo, out=out[1:])
        out /= ws.masses

    def _residual(self, w_full, w0, dt) -> float:
        """F = W - w0 - dt rhs(W) over the unknowns, R = dt rhs(W) and
        v = 1 + W; returns max |F|."""
        N, F, R = self.ws.N, self.F, self.R
        self.rhs(w_full, R)
        R *= dt
        np.subtract(w_full[:N], w0[:N], out=F)
        F -= R
        return np.abs(F, out=self.scratch).max()

    def _newton_step(self, dt: float) -> np.ndarray:
        """Solve (I - dt J) delta = -F at the iterate with v = 1 + W,
        J = d rhs / d w over the unknowns; delta is a view into ``system``.

        J's bands are lower = -dphi_left minv, diag and upper = dphi_right
        minv; each band of I - dt J rounds as 1 - dt*diag, -dt*lower and
        -dt*upper would, since the sign flips are exact.
        """
        ws = self.ws
        minv, minv_lo, minv_hi = ws.minv, self.minv_lo, self.minv_hi
        dG = self.dG
        # d Phi / d w_i (left) and d Phi / d w_{i+1} (right) at face i+1/2,
        # in the flux scratch
        left, left_lo, left_hi = self.face, self.face_lo, self.face_hi
        right, right_lo = self.phi, self.phi_lo
        lower, diag, upper, b = self.bands
        diag_hi = diag[1:]
        np.power(self.v, ws.m - 1.0, out=dG)
        dG *= ws.Um
        np.negative(self.dG_lo, out=left)
        left -= ws.half_dU
        left *= ws.C
        np.subtract(self.dG_hi, ws.half_dU, out=right)
        right *= ws.C
        diag[0] = left[0] * minv[0]
        np.subtract(left_hi, right_lo, out=diag_hi)
        diag_hi *= minv_hi
        diag *= -dt
        diag += 1.0
        np.multiply(left_lo, minv_hi, out=lower)   # row i, w_{i-1}
        lower *= dt
        np.multiply(right_lo, minv_lo, out=upper)  # row i, w_{i+1}
        upper *= -dt
        np.negative(self.F, out=b)
        try:
            return _solve_packed(self.system)
        except (ValueError, LinAlgError) as exc:
            raise NewtonError(f"Newton system at dt={dt:.6g}: {exc}") from exc

    def solve(self, w0: np.ndarray, dt: float, w_boundary: float) -> int:
        """Solve W = w0 + dt rhs(W) by damped Newton into ``W``, with the
        value at the truncation node s_max held at w_boundary; returns the
        number of Newton iterations.  Overflow is left to the checks: a
        non-finite system or accepted iterate raises NewtonError.
        """
        N = self.ws.N
        W, trial, scratch = self.W, self.trial, self.scratch
        lam_min = 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            W[:N] = w0[:N]
            W[N] = trial[N] = w_boundary
            norm = self._residual(W, w0, dt)
            for iterations in range(NEWTON_MAXITER):
                if norm <= NEWTON_TOL:
                    break
                delta = self._newton_step(dt)
                lam = 1.0
                for _damp in range(12):
                    if lam == 1.0:
                        np.add(W[:N], delta, out=trial[:N])
                    else:
                        np.multiply(delta, lam, out=scratch)
                        np.add(W[:N], scratch, out=trial[:N])
                    if 1.0 + trial[:N].min() > MARGIN_FLOOR:
                        nt = self._residual(trial, w0, dt)
                        if nt < norm or nt <= NEWTON_TOL:
                            W, trial = trial, W
                            norm = nt
                            lam_min = min(lam_min, lam)
                            break
                    lam *= 0.5
                else:
                    raise NewtonError(f"Newton damping stalled at |F| = {norm:.3e}")
            else:
                raise NewtonError(f"Newton did not reach {NEWTON_TOL} in "
                                  f"{NEWTON_MAXITER} iterations (|F| = {norm:.3e})")
            # one fixed-point sweep; makes the discrete mass telescope exactly
            # and perturbs the iterate only by O(dt |F|).  R = dt rhs(W) is
            # already evaluated at the accepted W.
            np.add(w0[:N], self.R, out=W[:N])
        self.W, self.trial = W, trial
        vmin = _check_positivity(W, MARGIN_FLOOR)
        if not (math.isfinite(vmin) and math.isfinite(W.max())):
            raise NewtonError("Newton step produced a non-finite state")
        self.max_final_residual = max(self.max_final_residual, float(norm))
        self.min_damping = min(self.min_damping, lam_min)
        self.min_margin = min(self.min_margin, vmin)
        return iterations

    def bdf2(self, w_prev: np.ndarray, w_n: np.ndarray, dt23: float,
             w_boundary: float) -> int:
        """One BDF2 step into ``W``: the solve with base (4 w_n - w_{n-1})/3
        and step dt23 = 2 dt/3; returns its Newton iterations."""
        base = self.base
        np.multiply(w_n, 4.0, out=base)
        base -= w_prev
        base /= 3.0
        return self.solve(base, dt23, w_boundary)

    def backward_euler(self, w: np.ndarray, t: float, dt: float, boundary,
                       depth: int = 0) -> tuple[float, int, int]:
        """One BE step from (t, w) into ``W``; on Newton failure it halves dt,
        up to MAX_DT_HALVINGS deep.  Returns the new time, the Newton
        iterations and the dt halvings."""
        _check_positivity(w, MARGIN_FLOOR)
        t_new = t + dt
        bval = _boundary_value(boundary, t_new)
        try:
            return t_new, self.solve(w, dt, bval), 0
        except EvolveError:
            if depth >= MAX_DT_HALVINGS:
                raise
        t_half, first, halved_first = self.backward_euler(
            w, t, dt / 2.0, boundary, depth + 1)
        t_new, second, halved_second = self.backward_euler(
            self.W.copy(), t_half, dt / 2.0, boundary, depth + 1)
        return t_new, first + second, halved_first + halved_second + 1


def nonlinear_rhs(w: GridFunction, params: ModelParams) -> GridFunction:
    """Right side of the radial rescaled flow, flux form (see module doc)."""
    _check_positivity(w.values)
    kernel = _Newton(_workspace(w.grid, params))
    out = np.zeros_like(w.values)
    kernel.rhs(w.values, out[:kernel.ws.N])
    return w.with_values(out)


def step_nonlinear(state: EvolutionState, dt: float,
                   boundary=None) -> EvolutionState:
    """One backward-Euler step; on Newton divergence halves dt and retries.

    ``boundary`` maps t to the Dirichlet value at s_max (default zero, the
    decaying far field of the truncation).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    kernel = _Newton(_workspace(state.w.grid, state.params))
    t_new, iterations, halvings = kernel.backward_euler(
        state.w.values, state.t, dt, boundary)
    return EvolutionState(t=t_new, w=state.w.with_values(kernel.W),
                          params=state.params, newton_iterations=iterations,
                          dt_halvings=halvings)


def step_bdf2(prev: EvolutionState, state: EvolutionState, dt: float,
              boundary=None) -> EvolutionState:
    """One BDF2 step from the history (prev, state), which lie dt apart.

    No dt halving: on Newton failure it raises, and ``run`` redoes the step
    by backward Euler.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    kernel = _Newton(_workspace(state.w.grid, state.params))
    t_new = state.t + dt
    iterations = kernel.bdf2(prev.w.values, state.w.values, 2.0 * dt / 3.0,
                             _boundary_value(boundary, t_new))
    return EvolutionState(t=t_new, w=state.w.with_values(kernel.W),
                          params=state.params, newton_iterations=iterations)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

def _mass_defect(w: GridFunction, params: ModelParams) -> float:
    """Mass defect int w u_B dx, with the finite-volume cell weights: the
    same functional the flux form conserves."""
    masses = cell_masses(w.grid, params)
    return sphere_area(params.n) * float(np.dot(w.values[:masses.size], masses))


def energy(w: GridFunction, params: ModelParams) -> float:
    """E = int H(w) dmu over the cigar, H = [(1+w)^{m+1} - 1 - (m+1)w]/(m(m+1)).

    H is the antiderivative of h(w) = ((1+w)^m - 1)/m with H(0) = H'(0) = 0
    and H(w) = w^2/2 + O(w^3); E is the small-amplitude L^2 proxy whose
    decay slope doubles the field's.
    """
    _check_positivity(w.values)
    return _energy(w.grid, 1.0 + w.values, w.values, params)


def _energy(grid: RadialGrid, v: np.ndarray, w: np.ndarray,
            params: ModelParams) -> float:
    """``energy`` of w, given v = 1 + w."""
    m = params.m
    H = (v ** (m + 1.0) - 1.0 - (m + 1.0) * w) / (m * (m + 1.0))
    # tanh(s)**(n-1) is the cigar volume weight (all ones for n = 1)
    vol = _node_power(grid, "tanh", params.n - 1)
    return sphere_area(params.n) * float(np.trapezoid(H * vol, grid.nodes))


@dataclass(frozen=True)
class Envelope:
    lower: float
    upper: float


def comparison_envelope(state0: EvolutionState, params: ModelParams) -> Envelope:
    """Barrier constants from the delayed-Barenblatt construction.

    For c^-1 <= v_0 <= c, squeezing between rho_{B+-}(tau + tau_-+) gives the
    invariant band [c^-(1+n/p), c^(1+n/p)]: picking theta_0^-p = c fixes the
    time shift, and B_+- then absorbs the remaining factor, so each barrier's
    relative density stays on the correct side of c^+-1 for all times.
    """
    v = 1.0 + state0.w.values
    vmin = float(v.min())
    if vmin <= 0.0:
        raise PositivityError(int(np.argmin(v)), vmin)
    c = max(float(v.max()), 1.0 / vmin)
    C = c ** (1.0 + params.n / params.p)
    return Envelope(lower=1.0 / C, upper=C)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RecordOptions:
    etas: tuple[float, ...] = ()
    record_every: int = 1
    snapshot_every: int | None = None


@dataclass
class EvolutionTrace:
    grid: RadialGrid
    times: np.ndarray
    sup: np.ndarray
    weighted: dict[float, np.ndarray]
    mass_defect: np.ndarray
    energy: np.ndarray
    min_v: np.ndarray
    max_v: np.ndarray
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    # steps taken by backward Euler: the start plus any redone BDF2 step
    backward_euler_steps: int = 0
    # Newton iterations of the accepted solves, in total and in the costliest
    # step, and the steps whose base point already met NEWTON_TOL
    newton_iterations: int = 0
    max_newton_iterations: int = 0
    zero_newton_steps: int = 0
    # times a backward-Euler step halved dt after a failed Newton solve
    dt_halvings: int = 0
    # over the accepted Newton solves: the largest final |F|, the smallest
    # damping factor of an accepted update (1 when none was damped) and the
    # smallest 1+w of a new state (inf when no step was taken)
    max_final_residual: float = 0.0
    min_damping: float = 1.0
    min_margin: float = math.inf


def run(state0: EvolutionState, dt: float, t_final: float,
        record: RecordOptions = RecordOptions(),
        boundary=None) -> EvolutionTrace:
    """Iterate BDF2 steps (see module doc), recording diagnostics."""
    params = state0.params
    grid = state0.w.grid
    steps = step_count(state0.t, t_final, dt)
    if steps < 0:
        raise ValueError("t_final lies before the initial time")

    times, sups, masses, energies, mins, maxs = [], [], [], [], [], []
    weighted: dict[float, list] = {eta: [] for eta in record.etas}
    snapshots: list[tuple[float, np.ndarray]] = []

    def observe(t: float, w: np.ndarray, step_index: int):
        f = state0.w.with_values(w)
        times.append(t)
        sups.append(weighted_sup(f, 0.0))
        for eta in record.etas:
            weighted[eta].append(weighted_sup(f, eta))
        masses.append(_mass_defect(f, params))
        v = 1.0 + w
        energies.append(_energy(grid, v, w, params))
        mins.append(float(v.min()))
        maxs.append(float(v.max()))
        if record.snapshot_every is not None and \
                step_index % record.snapshot_every == 0:
            snapshots.append((t, w.copy()))

    # the kernel writes each new state into kernel.W, which then joins the
    # history (prev, cur) and hands the kernel the buffer prev leaves
    kernel = _Newton(_workspace(grid, params))
    t, prev, cur = state0.t, None, state0.w.values.copy()
    dt23 = 2.0 * dt / 3.0
    be_steps, halvings, iterations = 0, 0, []
    observe(t, cur, 0)
    for j in range(1, steps + 1):
        t_new, its = t + dt, None
        if prev is not None:
            try:
                its = kernel.bdf2(prev, cur, dt23,
                                  _boundary_value(boundary, t_new))
            except EvolveError:
                pass
        if its is None:
            t_new, its, halved = kernel.backward_euler(cur, t, dt, boundary)
            be_steps += 1
            halvings += halved
        t = t_new
        spare = np.empty_like(cur) if prev is None else prev
        prev, cur, kernel.W = cur, kernel.W, spare
        iterations.append(its)
        if j % record.record_every == 0 or j == steps:
            observe(t, cur, j)

    return EvolutionTrace(
        grid=grid,
        times=np.array(times), sup=np.array(sups),
        weighted={eta: np.array(vals) for eta, vals in weighted.items()},
        mass_defect=np.array(masses), energy=np.array(energies),
        min_v=np.array(mins), max_v=np.array(maxs), snapshots=snapshots,
        backward_euler_steps=be_steps,
        newton_iterations=sum(iterations),
        max_newton_iterations=max(iterations, default=0),
        zero_newton_steps=iterations.count(0),
        dt_halvings=halvings,
        max_final_residual=kernel.max_final_residual,
        min_damping=kernel.min_damping,
        min_margin=kernel.min_margin,
    )


# ---------------------------------------------------------------------------
# Initial data builders (deterministic)
# ---------------------------------------------------------------------------

def eigenmode_data(grid: RadialGrid, mode: ModeIndex, amplitude: float,
                   params: ModelParams) -> EvolutionState:
    """w_0 = amplitude * v_{0k} (radial eigenmode perturbation)."""
    if mode.ell != 0:
        raise ValueError("nonlinear runs are radial; use an l=0 mode")
    vals = amplitude * eigenfunction_v(mode, grid.nodes, params)
    return EvolutionState(0.0, GridFunction(grid, 0, vals), params)


def bump_data(grid: RadialGrid, amplitude: float, seed: int,
              params: ModelParams, project_mass: bool = True,
              centers: tuple[float, float] = (0.5, 3.0)) -> EvolutionState:
    """Seeded compact bumps, optionally with the mass mode projected out.

    The projection zeroes the finite-volume mass functional exactly (the
    one the flux form conserves), by subtracting the right multiple of the
    mass eigenfunction v_00 = u_B^{1-m}.  ``centers`` picks the geodesic
    range the bumps land in; tail-rate studies want support well into the
    cylindrical end, where the near-threshold continuum content lives.
    """
    rng = np.random.default_rng(seed)
    s = grid.nodes
    vals = np.zeros_like(s)
    for _ in range(3):
        center = rng.uniform(*centers)
        width = rng.uniform(0.3, 1.0)
        height = rng.uniform(0.3, 1.0)
        vals += height * np.exp(-((s - center) / width) ** 2)
    vals *= amplitude / np.max(np.abs(vals))
    if project_mass:
        masses = cell_masses(grid, params)
        v00 = eigenfunction_v(ModeIndex(0, 0), s, params)
        coeff = np.dot(vals[:masses.size], masses) / np.dot(v00[:masses.size], masses)
        vals = vals - coeff * v00
    return EvolutionState(0.0, GridFunction(grid, 0, vals), params)


def delayed_barenblatt_data(grid: RadialGrid, tau0: float, Bplus: float,
                            params: ModelParams) -> EvolutionState:
    """w_0 from the exact time-shifted Barenblatt at t = 0."""
    vals = delayed_barenblatt_v(0.0, grid.nodes, tau0, Bplus, params) - 1.0
    return EvolutionState(0.0, GridFunction(grid, 0, vals), params)
