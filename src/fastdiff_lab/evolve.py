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
tridiagonal Newton iteration, ``step_nonlinear``: first order in time,
unconditionally stable, and on Newton failure it halves dt (counted in
``dt_halvings``).  ``run`` steps with ``step_bdf2``, the second-order
backward differentiation formula (BDF2)

    W = (4/3) w_n - (1/3) w_{n-1} + (2/3) dt R(W),

which is the same Newton solve with the combination as its base point and
(2/3) dt as its step.  A BE step starts the history, and a BDF2 step whose
Newton iteration fails is redone as a BE step (the history points stay dt
apart, so BDF2 resumes on the next step).  Every accepted step ends with
one fixed-point sweep W = base + dt' R(W), which keeps the discrete mass
exact without affecting the order.  B is normalized to 1 here (see
geometry).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

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
from .tridiag import _packed_system, _solve_packed

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

    def flux(self, v: np.ndarray) -> np.ndarray:
        """Phi = C [(G_{i+1} - G_i) - dU vbar], G = U v^m and
        vbar = 1 + (v_i + v_{i+1} - 2)/2, formed in place on three arrays."""
        G = v ** self.m
        G *= self.U
        vbar = v[:-1] + v[1:]
        vbar -= 2.0
        vbar *= 0.5
        vbar += 1.0
        vbar *= self.dU
        phi = G[1:] - G[:-1]
        phi -= vbar
        phi *= self.C
        return phi

    def rhs(self, w_full: np.ndarray) -> np.ndarray:
        """d_t w at the unknown nodes 0..N-1 (node N held at w = 0)."""
        v = 1.0 + w_full
        phi = self.flux(v)
        out = np.empty(self.N)
        out[0] = phi[0]
        np.subtract(phi[1:], phi[:-1], out=out[1:])
        out /= self.masses
        return out

    def newton_system(self, w_full: np.ndarray, dt: float,
                      F: np.ndarray) -> np.ndarray:
        """The Newton system (I - dt J) delta = -F, J = d rhs / d w over the
        unknowns, built straight into the buffer ``tridiag._solve_packed``
        solves.

        J's bands are lower = -dphi_left minv, diag and upper = dphi_right
        minv; each band of I - dt J rounds as 1 - dt*diag, -dt*lower and
        -dt*upper would, since the sign flips are exact.
        """
        v = 1.0 + w_full
        dG = self.Um * v ** (self.m - 1.0)
        # flux at face i+1/2 depends on w_i, w_{i+1}
        dphi_left = self.C * (-dG[:-1] - self.half_dU)
        dphi_right = self.C * (dG[1:] - self.half_dU)
        minv = self.minv
        N = self.N
        system, (lower, diag, upper, b) = _packed_system(N)
        diag[0] = dphi_left[0] * minv[0]
        np.subtract(dphi_left[1:N], dphi_right[:N - 1], out=diag[1:])
        diag[1:] *= minv[1:]
        diag *= -dt
        diag += 1.0
        np.multiply(dphi_left[:N - 1], minv[1:], out=lower)   # row i, w_{i-1}
        lower *= dt
        np.multiply(dphi_right[:N - 1], minv[:N - 1], out=upper)  # row i, w_{i+1}
        upper *= -dt
        np.negative(F, out=b)
        return system


@lru_cache(maxsize=64)
def _build_workspace(grid: RadialGrid, n: int, m: float) -> _Workspace:
    return _Workspace(grid, derive_params(n, m))


def _workspace(grid: RadialGrid, params: ModelParams) -> _Workspace:
    return _build_workspace(grid, params.n, params.m)


def _check_positivity(w_values: np.ndarray, floor: float = 0.0):
    vmin = 1.0 + w_values.min()
    if vmin <= floor:
        raise PositivityError(int(np.argmin(w_values)), float(vmin))


def nonlinear_rhs(w: GridFunction, params: ModelParams) -> GridFunction:
    """Right side of the radial rescaled flow, flux form (see module doc)."""
    _check_positivity(w.values)
    ws = _workspace(w.grid, params)
    out = np.zeros_like(w.values)
    out[:ws.N] = ws.rhs(w.values)
    return w.with_values(out)


def _newton_be(ws: _Workspace, w0: np.ndarray, dt: float,
               w_boundary: float) -> tuple[np.ndarray, int]:
    """Solve W = w0 + dt rhs(W) by damped Newton; returns the full-node array
    and the number of Newton iterations it took.

    The value at the truncation node s_max is held at w_boundary (zero for
    production runs; manufactured-solution runs prescribe the exact value).
    """
    N = ws.N
    W = w0.copy()
    W[N] = w_boundary

    def residual(wfull):
        """F(W) and the rhs(W) it was built from."""
        r = ws.rhs(wfull)
        return wfull[:N] - w0[:N] - dt * r, r

    F, R = residual(W)
    norm = np.abs(F).max()
    for iterations in range(NEWTON_MAXITER):
        if norm <= NEWTON_TOL:
            break
        delta = _solve_packed(ws.newton_system(W, dt, F))
        lam = 1.0
        for _damp in range(12):
            trial = W.copy()
            trial[:N] += lam * delta
            if 1.0 + trial[:N].min() > MARGIN_FLOOR:
                Ft, Rt = residual(trial)
                nt = np.abs(Ft).max()
                if nt < norm or nt <= NEWTON_TOL:
                    W, F, R, norm = trial, Ft, Rt, nt
                    break
            lam *= 0.5
        else:
            raise NewtonError(f"Newton damping stalled at |F| = {norm:.3e}")
    else:
        raise NewtonError(f"Newton did not reach {NEWTON_TOL} in "
                          f"{NEWTON_MAXITER} iterations (|F| = {norm:.3e})")
    # one fixed-point sweep; makes the discrete mass telescope exactly and
    # perturbs the iterate only by O(dt |F|).  W is the iterate R was
    # evaluated at, so rhs(W) is not recomputed.
    R *= dt
    np.add(w0[:N], R, out=W[:N])
    _check_positivity(W, MARGIN_FLOOR)
    return W, iterations


def step_nonlinear(state: EvolutionState, dt: float, boundary=None,
                   _depth: int = 0) -> EvolutionState:
    """One backward-Euler step; on Newton divergence halves dt and retries.

    ``boundary`` maps t to the Dirichlet value at s_max (default zero, the
    decaying far field of the truncation).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    _check_positivity(state.w.values, MARGIN_FLOOR)
    ws = _workspace(state.w.grid, state.params)
    t_new = state.t + dt
    bval = 0.0 if boundary is None else float(boundary(t_new))
    try:
        W, iterations = _newton_be(ws, state.w.values, dt, bval)
    except EvolveError:
        if _depth >= MAX_DT_HALVINGS:
            raise
        half = step_nonlinear(state, dt / 2.0, boundary, _depth + 1)
        full = step_nonlinear(half, dt / 2.0, boundary, _depth + 1)
        full.newton_iterations += half.newton_iterations
        full.dt_halvings += half.dt_halvings + 1
        return full
    return EvolutionState(t=t_new, w=state.w.with_values(W),
                          params=state.params, newton_iterations=iterations)


def step_bdf2(prev: EvolutionState, state: EvolutionState, dt: float,
              boundary=None) -> EvolutionState:
    """One BDF2 step from the history (prev, state), which lie dt apart.

    No dt halving: on Newton failure it raises, and ``run`` redoes the step
    with ``step_nonlinear``.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    ws = _workspace(state.w.grid, state.params)
    t_new = state.t + dt
    bval = 0.0 if boundary is None else float(boundary(t_new))
    base = (4.0 * state.w.values - prev.w.values) / 3.0
    W, iterations = _newton_be(ws, base, 2.0 * dt / 3.0, bval)
    return EvolutionState(t=t_new, w=state.w.with_values(W),
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
    m = params.m
    H = ((1.0 + w.values) ** (m + 1.0) - 1.0 - (m + 1.0) * w.values) \
        / (m * (m + 1.0))
    # tanh(s)**(n-1) is the cigar volume weight (all ones for n = 1)
    vol = _node_power(w.grid, "tanh", params.n - 1)
    return sphere_area(params.n) * float(np.trapezoid(H * vol, w.grid.nodes))


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


def run(state0: EvolutionState, dt: float, t_final: float,
        record: RecordOptions = RecordOptions(),
        boundary=None) -> EvolutionTrace:
    """Iterate BDF2 steps (see module doc), recording diagnostics."""
    params = state0.params
    steps = step_count(state0.t, t_final, dt)
    if steps < 0:
        raise ValueError("t_final lies before the initial time")

    times, sups, masses, energies, mins, maxs = [], [], [], [], [], []
    weighted: dict[float, list] = {eta: [] for eta in record.etas}
    snapshots: list[tuple[float, np.ndarray]] = []

    def observe(state: EvolutionState, step_index: int):
        times.append(state.t)
        sups.append(weighted_sup(state.w, 0.0))
        for eta in record.etas:
            weighted[eta].append(weighted_sup(state.w, eta))
        masses.append(_mass_defect(state.w, params))
        energies.append(energy(state.w, params))
        v = 1.0 + state.w.values
        mins.append(float(v.min()))
        maxs.append(float(v.max()))
        if record.snapshot_every is not None and \
                step_index % record.snapshot_every == 0:
            snapshots.append((state.t, state.w.values.copy()))

    state, prev, be_steps, halvings = state0, None, 0, 0
    iterations = []
    observe(state, 0)
    for j in range(1, steps + 1):
        new = None
        if prev is not None:
            try:
                new = step_bdf2(prev, state, dt, boundary)
            except EvolveError:
                pass
        if new is None:
            new = step_nonlinear(state, dt, boundary)
            be_steps += 1
            halvings += new.dt_halvings
        prev, state = state, new
        iterations.append(state.newton_iterations)
        if j % record.record_every == 0 or j == steps:
            observe(state, j)

    return EvolutionTrace(
        grid=state0.w.grid,
        times=np.array(times), sup=np.array(sups),
        weighted={eta: np.array(vals) for eta, vals in weighted.items()},
        mass_defect=np.array(masses), energy=np.array(energies),
        min_v=np.array(mins), max_v=np.array(maxs), snapshots=snapshots,
        backward_euler_steps=be_steps,
        newton_iterations=sum(iterations),
        max_newton_iterations=max(iterations, default=0),
        zero_newton_steps=iterations.count(0),
        dt_halvings=halvings,
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
