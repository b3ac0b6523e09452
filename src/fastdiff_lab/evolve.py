"""Nonlinear radial evolution of the relative density v = u/u_B on the cigar.

The rescaled flow d_t u = (1/m) Lap u^m + (2/(1-m)) div(x u) is solved for
w = v - 1 in geodesic coordinates.  The right side is evaluated in flux
(conservative) form: with r = sinh s and U = u_B^m,

    d_t v * u_B r^{n-1} cosh s = d_s Phi,
    Phi = r^{n-1}/(m cosh s) * [ d_s(U v^m) - (d_s U) * v ],

which is algebraically the reaction/transport/nonlinear-diffusion split
L h(w) + (2/(1-m))[tanh s d_s + (n - (2/(1-m)) tanh^2 s)](w - h(w)) with
h(w) = ((1+w)^m - 1)/m.  Two payoffs of the flux form: v == 1 annihilates
the discrete flux exactly unless dU/2 is subnormal (Barenblatt is a fixed
point to machine precision), and the discrete mass sum(w_i M_i)
telescopes, so conservation holds to the boundary-flux level.

Every step is one linearization, one rhs, one Jacobian and one
tridiagonal solve, with no tolerance to meet.  ``run`` steps with the
linearly implicit second-order backward differentiation formula (BDF2) of
Akrivis, Crouzeix and Makridakis (Numer. Math. 82, 1999): one Newton
iteration for W = base + (2/3) dt R(W), base = (4 w_n - w_{n-1})/3, from
the predictor P = 2 w_n - w_{n-1}.  Scaled by 3/2, where (3/2)(base - P)
= -(w_n - w_{n-1}), it needs no base point:

    (3/2 I - dt J(P)) delta = dt R(P) - (w_n - w_{n-1}),  W = P + delta.

The first-order step that starts the history, redoes a BDF2 step that
fails a check (the history stays dt apart, so BDF2 resumes on the next
step) and is ``step_nonlinear``, is the same method with P = w_0, no
history term and shift 1: the linearly implicit (Rosenbrock-) Euler step
(Hairer and Wanner, Solving ODEs II, IV.7),

    (I - dt J(w_0)) delta = dt R(w_0),  W = w_0 + delta,

one Newton iteration of backward Euler (BE) from its base point, called the
BE step here.  On a failed check it halves dt (``dt_halvings``).  At large
dt it is the linearized step, not the converged BE solution.  Either step's
mass telescopes: shift (W - base) = dt (R(P) + J(P) delta), with base = w_0
for the BE step, and both terms are differences of face fluxes.  B is
normalized to 1 here (see geometry).

One kernel, ``_Newton``, holds the only flux, rhs and Jacobian code and
takes every step, BE and BDF2 alike, in one method call (``step``), on
buffers, views and coefficients bound once per kernel (the grid's in the
cached ``_Workspace``), so a step makes no array temporaries.  It owns the
checks: each linear system must be finite and solvable, each P must keep
1+w above ``MARGIN_FLOOR``, and each new state must be finite and above
``MARGIN_FLOOR``; a failure is a ``NewtonError`` or ``PositivityError``.
``run`` keeps its states as arrays and never re-checks them.  ``run`` and
``step_nonlinear`` enter the floating-point error state the steps need
(overflow, invalid and divide ignored: the checks catch what they would
flag) once around their stepping; their records and a boundary keep the
caller's state.

The results are bitwise those of ``tests/test_tridiag.py``'s allocating
oracles: reusing a buffer never changes an operation or its order, and
every other rewrite is an identity exact in IEEE arithmetic.  They differ
from the textbook form by round-off only (bounded there): dG = m U v^(m-1)
is Um (v^m / v); the face average (1 + (v_i + v_{i+1} - 2)/2) dU is
(v_i + v_{i+1}) (dU/2); P is w_n - (w_{n-1} - w_n); and the flux
differences reach dt R by one product with the bands, by (-1/M)(-dt).
Products and sums over adjacent buffers share one call (``_Newton``).

* Zero padding: a zero in front of the fluxes and of the shifted right
  face derivatives gives the first flux difference Phi_0 - 0 and the first
  diagonal entry left_0 - 0 in the same subtraction as the other rows.
* Signs: (-a) b = -(a b) bitwise and sums commute, so the left face
  derivative C (-dG_i - dU_i/2) is (-dU_i/2) - dG_i with no negation pass,
  the sub-diagonal's (left / M) dt is left ((-1/M) (-dt)), and b - D is
  b + (w_{n-1} - w_n).
* Margin bound: rounding is monotone, so with a = min w_n and
  c = max w_{n-1} every P_i = fl(w_n,i - fl(w_{n-1},i - w_n,i)) is at
  least lo = fl(a - fl(c - a)).  ``run`` hands the step a and c, which the
  kernel read when it accepted those states; when 1 + lo clears
  ``MARGIN_FLOOR`` P's own check cannot fail and is skipped.  A BE step's
  P is its base point, which ``backward_euler`` checks.

``run``'s trace counts its BE steps (``backward_euler_steps``), its BDF2
steps (``linear_steps``) and its dt halvings (``dt_halvings``), and keeps
the smallest 1+w of an accepted state (``min_margin``): the solver
statistics of the ``evolve`` and ``expand`` summaries.

``run`` records the time and mass defect of each recorded state.  Its
diagnostics (sup, weighted sups, min and max of v, energy) it pays per
block of ``geometry._ROWS`` recorded states (``_Records``), so the memory
it holds does not grow with its steps, and only when asked
(``RecordOptions.diagnostics``): ``evolve`` and criteria 3, 7 and 11 read
them; ``expand``, ``sweep`` and criteria 5, 6 and 8 read only snapshots,
and their traces leave the diagnostic fields ``None``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError

from .closedform import (
    ModelParams,
    ModeIndex,
    delayed_barenblatt_v,
    eigenfunction_v,
)
from .geometry import (
    _ROWS,
    GridFunction,
    RadialGrid,
    _node_power,
    _weighted_sups,
    cell_masses,
    sphere_area,
    step_count,
    weighted_sup,
)
from .tridiag import _solve_packed

__all__ = [
    "MARGIN_FLOOR",
    "EvolveError",
    "PositivityError",
    "NewtonError",
    "EvolutionState",
    "EvolutionTrace",
    "Envelope",
    "RecordOptions",
    "step_nonlinear",
    "run",
    "comparison_envelope",
    "eigenmode_data",
    "bump_data",
    "delayed_barenblatt_data",
]

# the equation degenerates at v = 0; refuse to approach it
MARGIN_FLOOR = 1e-3

MAX_DT_HALVINGS = 8


def _const(x: float) -> np.ndarray:
    """A read-only 0-d float64 operand: a ufunc converts a Python float
    operand on every call, a 0-d float64 array it takes as it is."""
    a = np.array(x)
    a.flags.writeable = False
    return a


_ONE = _const(1.0)


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
    # the times the step that produced this state halved dt after a failed
    # check
    dt_halvings: int = 0

    def __post_init__(self):
        if self.w.ell != 0:
            raise ValueError("nonlinear evolution is radial: w must ride on l=0")
        _check_positivity(self.w.values)


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
        self.half_dU = 0.5 * self.dU
        self.neg_half_dU = -self.half_dU
        # G = U v^m at the nodes, dG = Um (v^m / v) at the unknowns and the
        # face average take one product by [U | Um | dU/2] (see _Newton)
        Um = self.U[:-1] * m
        self.scales = np.concatenate((self.U, Um, self.half_dU))
        # the linear system's multipliers in _Newton's band layout: C over
        # the right and left face derivatives, then 1/M over du, dl (with
        # the sign of the left derivative), the slot and d, and -1/M over
        # b, so a product by -dt scales the bands and b to dt R
        self.CC = np.concatenate((self.C[:-1], self.C))
        self.minv4 = np.concatenate((self.minv[:-1], -self.minv[1:], [0.0],
                                     self.minv, -self.minv))
        for arr in (self.U, self.dU, self.C, self.minv, self.half_dU,
                    self.neg_half_dU, self.CC, self.minv4, self.scales):
            arr.flags.writeable = False
        self.m0 = _const(m)
        self.m = m
        self.N = N


@lru_cache(maxsize=64)
def _workspace(grid: RadialGrid, params: ModelParams) -> _Workspace:
    return _Workspace(grid, params)


def _check_positivity(w_values: np.ndarray, floor: float = 0.0) -> float:
    """min w (read by index; a NaN passes, as by a reduce), raising
    PositivityError unless 1 + min w lies above ``floor``."""
    i = w_values.argmin()
    w_min = float(w_values[i])
    if 1.0 + w_min <= floor:
        raise PositivityError(int(i), 1.0 + w_min)
    return w_min


def _boundary_value(boundary, t: float) -> float:
    return 0.0 if boundary is None else float(boundary(t))


# the floating-point errors a step leaves to its checks (see _Newton)
_STEP_ERRORS = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}

# (min w, max w) of a state no check has read: no bound on its predictor
_UNREAD = (-math.inf, math.inf)


def _in_caller_state(fn):
    """``fn``, called in the floating-point error state current here: the
    code ``run`` and ``step_nonlinear`` call between or within their steps
    (the records, a boundary) keeps their caller's state."""
    return np.errstate(**np.geterr())(fn)


class _Newton:
    """The step kernel (see module doc) and its scratch.

    One instance serves a whole run.  Every buffer, view and coefficient is
    bound here, once, in one operand tuple per method.  Each step leaves its
    result in ``W`` and its extremes (min w, max w) in ``extremes``; a
    caller that keeps the result hands the kernel another buffer of N+1
    nodes.  ``min_margin`` gathers the smallest 1+w of every accepted
    state.

    ``rhs`` forms [v^m | v^m / v | face sums] in one buffer, so one product
    by ``_Workspace.scales`` turns them into G, dG and the face average.

    The linear system lives in one buffer of 4N values laid out as
    [0 | du | dl, slot | d | b].  The right face derivatives fill du and the
    left ones dl and the slot, so one product takes both by [C | C]; the
    zero and du, read shifted by one, give d = left - right in one
    subtraction; one product by ``scale_dt`` = [1/M | -1/M | 0 | 1/M | -1/M]
    (-dt), bound whenever dt changes, scales all three bands and takes the
    flux differences in b to dt R(P).  One sum then adds the shift to d and,
    in a BDF2 step, -D to b: ``shift_D`` holds [3/2 | -D], -D formed as
    w_{n-1} - w_n (and P as w_n - (-D)).  The slot ends as left_{N-1} (-0),
    so ``_solve_packed``'s one finiteness check over the whole buffer fails
    exactly when the system is not finite.

    ``step`` is the whole step, its checks included, in one call.  Besides
    ``dgtsv``, its finiteness check and the product binding ``scale_dt`` to
    a new dt, a BDF2 step makes 20 numpy calls (21 when P's own margin
    check runs) and a BE step 19, its base point's check included: one
    power (v^m), every output passed positionally, extremes read by index.
    It runs in its caller's floating-point error state: ``run`` and
    ``step_nonlinear`` ignore overflow, invalid and divide once around
    their stepping (``_STEP_ERRORS``), and a non-finite system or new
    state raises NewtonError.
    """

    def __init__(self, ws: _Workspace):
        N = ws.N
        self.ws = ws
        self.W, P = np.empty(N + 1), np.empty(N + 1)
        self.v = v = np.empty(N + 1)
        # [v^m | v^m / v | face], then [G | dG | face] (see above)
        GdG = np.empty(3 * N + 1)
        G, dG, face = GdG[:N + 1], GdG[N + 1:2 * N + 1], GdG[2 * N + 1:]
        phi = np.zeros(N + 1)  # phi[0] stays 0: the first difference is phi_0
        # the linear system [0 | du | dl, slot | d | b] (see above)
        system = np.zeros(4 * N)
        right, left = system[1:N], system[N:2 * N]
        d, b = system[2 * N:3 * N], system[3 * N:]
        # [3/2 | -D], -D = w_{n-1} - w_n at every node (see above)
        shift_D = np.empty(2 * N + 1)
        shift_D[:N] = 1.5
        scale_dt = np.empty(4 * N - 1)
        self.rhs_operands = (
            v[:N], v, ws.m0, G, G[:N], dG, v[:-1], v[1:], face, GdG,
            ws.scales, G[:-1], G[1:], phi[1:], phi[:-1], ws.C)
        self.step_operands = (
            b, P, P[:N], shift_D[N:], v, N, dG, dG[1:], ws.half_dU[:-1],
            ws.neg_half_dU, right, left, system[1:2 * N], ws.CC, system[:N],
            d, system[1:], scale_dt, system[2 * N:], shift_D[:2 * N],
            (system, (left[:-1], d, right, b)))
        self.dt = None  # the dt scale_dt is bound to
        self.extremes = _UNREAD
        self.min_margin = math.inf

    def rhs(self, w_in: np.ndarray, out: np.ndarray):
        """out = M d_t w, the flux differences Phi_{i+1/2} - Phi_{i-1/2},
        at the unknowns 0..N-1 given w there (``step``'s band-scale product
        divides them by M); it also forms v = 1 + w and, for the Jacobian,
        dG = Um (v^m / v).  v at s_max is left as it is (``step`` sets it
        once per step).

        The flux at the faces is Phi = C [(G_{i+1} - G_i) - dU vbar] with
        G = U v^m and vbar dU = (v_i + v_{i+1}) (dU/2).
        """
        (v_in, v, m, vm, vm_in, dG, v_lo, v_hi, face, GdG, scales, G_lo,
         G_hi, phi, phi_prev, C) = self.rhs_operands
        np.add(w_in, _ONE, v_in)
        np.power(v, m, vm)
        np.divide(vm_in, v_in, dG)
        np.add(v_lo, v_hi, face)
        np.multiply(GdG, scales, GdG)
        np.subtract(G_hi, G_lo, phi)
        np.subtract(phi, face, phi)
        np.multiply(phi, C, phi)
        np.subtract(phi, phi_prev, out)

    def step(self, w_n: np.ndarray, dt: float, w_boundary: float,
             w_prev: np.ndarray | None = None, extremes=_UNREAD):
        """One linearly implicit step into ``W`` (module doc), with v at
        s_max 1 + w_boundary: W = P + delta from
        (shift I - dt J(P)) delta = dt R(P) - D.  The BDF2 step takes
        D = w_n - w_prev, P = w_n - (w_prev - w_n) and shift 3/2, and checks
        P's margin only where ``extremes`` = (min w_n, max w_prev), as the
        kernel read them, do not bound it above ``MARGIN_FLOOR`` (module
        doc).  With no ``w_prev`` it is the Euler step: P = w_n, which its
        caller checks, no D and shift 1.  A P or new state below
        ``MARGIN_FLOOR`` raises PositivityError, a non-finite or singular
        system or a non-finite new state NewtonError."""
        (b, P, P_in, neg_D, v, N, dG, dG_hi, half_dU_lo, neg_half_dU, right,
         left, faces, CC, right_before, d, scaled, scale_dt, d_b, shift_D,
         packed) = self.step_operands
        if w_prev is None:
            P_in = w_n[:-1]
        else:
            np.subtract(w_prev, w_n, neg_D)
            np.subtract(w_n, neg_D, P)
            w_min, prev_max = extremes
            if not 1.0 + (w_min - (prev_max - w_min)) > MARGIN_FLOOR:
                _check_positivity(P_in, MARGIN_FLOOR)
        if dt != self.dt:
            self.dt = dt
            np.multiply(self.ws.minv4, -dt, scale_dt)
        v[N] = 1.0 + w_boundary
        self.rhs(P_in, b)
        # the left and right derivatives of Phi at face i+1/2 by w_i and
        # w_{i+1} are C (-dG_i - half_dU_i) and C (dG_{i+1} - half_dU_i)
        np.subtract(dG_hi, half_dU_lo, right)
        np.subtract(neg_half_dU, dG, left)
        np.multiply(faces, CC, faces)
        np.subtract(left, right_before, d)
        np.multiply(scaled, scale_dt, scaled)
        if w_prev is None:
            np.add(d, _ONE, d)
        else:
            np.add(d_b, shift_D, d_b)
        try:
            delta = _solve_packed(packed)
        except (ValueError, LinAlgError) as exc:
            raise NewtonError(f"Newton system at dt={dt:.6g}: {exc}") from exc
        W = self.W
        np.add(P_in, delta, W[:N])
        W[N] = w_boundary
        w_min = _check_positivity(W, MARGIN_FLOOR)
        w_max = float(W[W.argmax()])
        if not (math.isfinite(w_min) and math.isfinite(w_max)):
            raise NewtonError("step produced a non-finite state")
        self.extremes = w_min, w_max
        self.min_margin = min(self.min_margin, 1.0 + w_min)

    def backward_euler(self, w: np.ndarray, t: float, dt: float, boundary,
                       depth: int = 0) -> tuple[float, int]:
        """One linearly implicit Euler step from (t, w) into ``W``; on a
        failed check it halves dt, up to MAX_DT_HALVINGS deep.  Returns the
        new time and the dt halvings."""
        _check_positivity(w, MARGIN_FLOOR)
        t_new = t + dt
        try:
            self.step(w, dt, _boundary_value(boundary, t_new))
            return t_new, 0
        except EvolveError:
            if depth >= MAX_DT_HALVINGS:
                raise
        t_half, halved_first = self.backward_euler(
            w, t, dt / 2.0, boundary, depth + 1)
        t_new, halved_second = self.backward_euler(
            self.W.copy(), t_half, dt / 2.0, boundary, depth + 1)
        return t_new, halved_first + halved_second + 1


# step_nonlinear's kernels, one per workspace
_kernel = lru_cache(maxsize=64)(_Newton)


def step_nonlinear(state: EvolutionState, dt: float,
                   boundary=None) -> EvolutionState:
    """One linearly implicit Euler step (see module doc); on a failed check
    halves dt and retries.  At large dt this is the linearized step, not
    the converged backward-Euler solution: from the negated seed-1 bump of
    amplitude 0.9 on 150 points (s_max = 12, n = 3, m = 2/3) at dt = 1,
    the two differ by 0.92 in max|w|.

    ``boundary`` maps t to the Dirichlet value at s_max (default zero, the
    decaying far field of the truncation).
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    kernel = _kernel(_workspace(state.w.grid, state.params))
    if boundary is not None:
        boundary = _in_caller_state(boundary)
    with np.errstate(**_STEP_ERRORS):
        t_new, halvings = kernel.backward_euler(state.w.values, state.t, dt,
                                                boundary)
    return EvolutionState(t=t_new, w=state.w.with_values(kernel.W.copy()),
                          params=state.params, dt_halvings=halvings)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _node_spacing(grid: RadialGrid) -> np.ndarray:
    """``np.diff(grid.nodes)``, shared and so read-only."""
    d = np.diff(grid.nodes)
    d.flags.writeable = False
    return d


def _energy(grid: RadialGrid, v: np.ndarray, w: np.ndarray,
            params: ModelParams):
    """E = int H(w) dmu over the cigar, H = [(1+w)^{m+1} - 1 - (m+1)w]/(m(m+1)),
    given v = 1 + w > 0, which it overwrites: a float for one state, or an
    array of one E per row for a block of states.

    H is the antiderivative of h(w) = ((1+w)^m - 1)/m with H(0) = H'(0) = 0
    and H(w) = w^2/2 + O(w^3); E is the small-amplitude L^2 proxy whose
    decay slope doubles the field's.  Below |w| = 1e-2, where the closed
    form cancels, H is its series sum_{k=2}^{10} C(m+1, k) w^k / (m(m+1)),
    whose tail is below |w|^9 H; the quadrature is np.trapezoid's, per row.
    """
    m = params.m
    H = np.power(v, m + 1.0, out=v)
    H -= 1.0
    mw = np.multiply(w, m + 1.0)
    H -= mw
    H /= m * (m + 1.0)
    # Horner's rule at every node, in mw, highest k first (np.polyval's)
    coeffs = [0.5]
    for k in range(2, 10):
        coeffs.insert(0, coeffs[0] * (m + 1.0 - k) / (k + 1.0))
    mw[...] = coeffs[0]
    for c in coeffs[1:]:
        mw *= w
        mw += c
    mw *= w
    mw *= w
    np.copyto(H, mw, where=np.abs(w) < 1e-2)
    # tanh(s)**(n-1) is the cigar volume weight (all ones for n = 1)
    H *= _node_power(grid, "tanh", params.n - 1)
    y = np.add(H[..., 1:], H[..., :-1], out=mw[..., 1:])
    y *= _node_spacing(grid)
    y /= 2.0
    E = sphere_area(params.n) * np.add.reduce(y, axis=-1)
    return float(E) if E.ndim == 0 else E


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
    vmin = 1.0 + _check_positivity(state0.w.values)
    c = max(1.0 + float(state0.w.values.max()), 1.0 / vmin)
    C = c ** (1.0 + params.n / params.p)
    return Envelope(lower=1.0 / C, upper=C)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _is_count(value) -> bool:
    """An integer >= 1 (a bool is no count)."""
    return (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= 1)


@dataclass(frozen=True)
class RecordOptions:
    """What ``run`` keeps: the initial state, every ``record_every``-th
    step and the last step are recorded, every ``snapshot_every``-th step
    (none if None) is snapshotted.  Each recorded state gets its time and
    mass defect; with ``diagnostics`` also its sup, its weighted sups for
    ``etas``, min and max of v and energy, which a run without them leaves
    ``None`` in the trace."""
    etas: tuple[float, ...] = ()
    record_every: int = 1
    snapshot_every: int | None = None
    diagnostics: bool = True

    def __post_init__(self):
        if not _is_count(self.record_every):
            raise ValueError(f"record_every: must be an int >= 1, got "
                             f"{self.record_every!r}")
        if self.snapshot_every is not None and not _is_count(self.snapshot_every):
            raise ValueError(f"snapshot_every: must be None or an int >= 1, "
                             f"got {self.snapshot_every!r}")
        if self.etas and not self.diagnostics:
            raise ValueError(f"etas: weighted sups {self.etas} are "
                             f"diagnostics, which diagnostics=False skips")


@dataclass
class EvolutionTrace:
    """A run's records: ``times`` and ``mass_defect`` per recorded state,
    the snapshots and the solver statistics.  ``sup``, ``weighted``,
    ``energy``, ``min_v`` and ``max_v`` are ``None`` when the run recorded
    no diagnostics (``RecordOptions.diagnostics``)."""
    grid: RadialGrid
    times: np.ndarray
    sup: np.ndarray | None
    weighted: dict[float, np.ndarray] | None
    mass_defect: np.ndarray
    energy: np.ndarray | None
    min_v: np.ndarray | None
    max_v: np.ndarray | None
    snapshots: list[tuple[float, np.ndarray]] = field(default_factory=list)
    # steps by backward Euler (the start, redone BDF2 steps) and by BDF2
    backward_euler_steps: int = 0
    linear_steps: int = 0
    # times a backward-Euler step halved dt after a failed check
    dt_halvings: int = 0
    # the smallest 1+w of a new state (inf if none)
    min_margin: float = math.inf
    # the step the run took
    dt: float = math.nan


class _Records:
    """The records of a run's recorded states.

    ``add`` takes a state's time and mass defect, int w u_B dx with the
    cell masses, the functional the flux form conserves (one dot product
    per state; ``finish`` scales them all by the sphere area).  With
    diagnostics it also copies the state into one fixed (``_ROWS``, N+1)
    block, and each full block, and the last one, gets its sup and weighted
    sups, min and max of v and energy in a few array calls; without them
    there is no block, and those fields stay ``None``.  Every value is
    bitwise the pointwise formula's: ``weighted_sup``, the one-state mass
    defect, min and max of 1 + w, and ``_energy`` of one state.
    """

    def __init__(self, grid: RadialGrid, params: ModelParams,
                 record: RecordOptions, count: int):
        self.grid, self.params = grid, params
        self.masses = cell_masses(grid, params)
        self.area = sphere_area(params.n)
        self.times, self.mass_defect = np.empty(count), np.empty(count)
        self.count = 0  # states recorded
        self.rows = 0   # states in the block
        self.block = self.sup = self.weighted = self.energy = self.min_v = \
            self.max_v = None
        if record.diagnostics:
            self.block, self.work = (np.empty((_ROWS, grid.count + 1))
                                     for _ in range(2))
            self.sup, self.energy, self.min_v, self.max_v = (
                np.empty(count) for _ in range(4))
            self.weighted = {eta: np.empty(count) for eta in record.etas}
            self.norms = [(0.0, self.sup), *self.weighted.items()]

    def add(self, t: float, w: np.ndarray):
        k = self.count
        self.times[k] = t
        self.mass_defect[k] = np.dot(w[:self.masses.size], self.masses)
        self.count = k + 1
        if self.block is not None:
            self.block[self.rows] = w
            self.rows += 1
            if self.rows == _ROWS:
                self.flush()

    def flush(self):
        """The diagnostics of the block's states."""
        start, stop = self.count - self.rows, self.count
        rows, work = self.block[:self.rows], self.work[:self.rows]
        for eta, out in self.norms:
            _weighted_sups(self.grid, rows, eta, work, out[start:stop])
        v = np.add(rows, 1.0, out=work)
        np.minimum.reduce(v, axis=1, out=self.min_v[start:stop])
        np.maximum.reduce(v, axis=1, out=self.max_v[start:stop])
        self.energy[start:stop] = _energy(self.grid, v, rows, self.params)
        self.rows = 0

    def finish(self):
        if self.rows:
            self.flush()
        self.mass_defect *= self.area


def run(state0: EvolutionState, dt: float, t_final: float,
        record: RecordOptions = RecordOptions(),
        boundary=None) -> EvolutionTrace:
    """Iterate BDF2 steps (see module doc), keeping what ``record`` asks."""
    params = state0.params
    grid = state0.w.grid
    steps = step_count(state0.t, t_final, dt)
    if steps < 0:
        raise ValueError("t_final lies before the initial time")

    # the start, every record_every-th step and the last step
    every = record.record_every
    records = _Records(grid, params, record,
                       1 + steps // every + (steps % every != 0))
    snapshots: list[tuple[float, np.ndarray]] = []
    # the stepping runs in _STEP_ERRORS, entered once; the records and the
    # boundary keep the caller's error state
    add = _in_caller_state(records.add)
    if boundary is not None:
        boundary = _in_caller_state(boundary)

    def observe(t: float, w: np.ndarray, step_index: int):
        add(t, w)
        if record.snapshot_every is not None and \
                step_index % record.snapshot_every == 0:
            snapshots.append((t, w.copy()))

    # the kernel writes each new state into kernel.W, which then joins the
    # history (prev, cur) and hands the kernel the buffer prev leaves
    kernel = _Newton(_workspace(grid, params))
    t, prev, cur = state0.t, None, state0.w.values.copy()
    # the extremes (min w, max w) of prev and cur: the kernel reads them
    # when it accepts a state, and the initial state's are read here
    prev_ext, cur_ext = None, (float(cur.min()), float(cur.max()))
    linear_steps, halvings = 0, 0
    observe(t, cur, 0)
    with np.errstate(**_STEP_ERRORS):
        for j in range(1, steps + 1):
            t_new, linear = t + dt, prev is not None
            if linear:
                try:
                    kernel.step(cur, dt, _boundary_value(boundary, t_new),
                                prev, (cur_ext[0], prev_ext[1]))
                except EvolveError:
                    linear = False
            if linear:
                linear_steps += 1
            else:
                t_new, halved = kernel.backward_euler(cur, t, dt, boundary)
                halvings += halved
            t = t_new
            spare = np.empty_like(cur) if prev is None else prev
            prev, cur, kernel.W = cur, kernel.W, spare
            prev_ext, cur_ext = cur_ext, kernel.extremes
            if j % every == 0 or j == steps:
                observe(t, cur, j)
    records.finish()

    return EvolutionTrace(
        grid=grid, times=records.times, sup=records.sup,
        weighted=records.weighted, mass_defect=records.mass_defect,
        energy=records.energy, min_v=records.min_v, max_v=records.max_v,
        snapshots=snapshots,
        backward_euler_steps=steps - linear_steps,
        linear_steps=linear_steps,
        dt_halvings=halvings,
        min_margin=kernel.min_margin,
        dt=dt,
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
    vals *= amplitude / weighted_sup(GridFunction(grid, 0, vals), 0.0)
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
