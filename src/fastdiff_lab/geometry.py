"""Cigar-manifold geometry and discrete radial function spaces.

The cigar is R^n with metric (1+|x|^2)^{-1} sum dx_i^2; its geodesic radius
is s = arsinh|x| and the volume element is tanh^{n-1}(s) ds dw.  All
computations here are per spherical-harmonic index l, so only radial
profiles over a uniform s-grid are needed.  B is normalized to 1 in cigar
coordinates (general B rescales x by sqrt(B) at the API boundary).

The equation is uniformly parabolic in s, so a uniform s-grid resolves the
Euclidean far field at logarithmic cost (r = sinh s).  Truncation at s_max
is justified by the exponential decay of everything we integrate; default
s_max = 12 reaches |x| ~ 8e4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .closedform import ModelParams

__all__ = [
    "RadialGrid",
    "GridFunction",
    "make_grid",
    "refine",
    "step_count",
    "sphere_area",
    "weighted_sup",
    "cell_masses",
    "tail_estimate",
]


@dataclass(frozen=True)
class RadialGrid:
    """Uniform geodesic grid s_i = i h, i = 0..count, h = s_max/count."""

    s_max: float
    count: int

    @property
    def h(self) -> float:
        return self.s_max / self.count

    @property
    def nodes(self) -> np.ndarray:
        """The node array, shared between calls and therefore read-only."""
        return _nodes(self.s_max, self.count)


@lru_cache(maxsize=64)
def _nodes(s_max: float, count: int) -> np.ndarray:
    s = np.linspace(0.0, s_max, count + 1)
    s.flags.writeable = False
    return s


def make_grid(s_max: float, count: int) -> RadialGrid:
    if s_max <= 0:
        raise ValueError(f"s_max must be positive, got {s_max}")
    if count < 16:
        raise ValueError(f"count must be >= 16, got {count}")
    return RadialGrid(float(s_max), int(count))


def refine(grid: RadialGrid) -> RadialGrid:
    """Halve h, preserving s_max."""
    return RadialGrid(grid.s_max, 2 * grid.count)


def step_count(t0: float, t_final: float, dt: float) -> int:
    """Number of steps dt from t0 to t_final.

    Raises ValueError, naming the nearest reachable time, unless
    t_final - t0 is a whole number of steps within 1e-9 relative.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    span = t_final - t0
    steps = int(round(span / dt))
    if abs(steps * dt - span) > 1e-9 * abs(span):
        raise ValueError(
            f"t_final - t0 = {span:.12g} is not a whole number of steps "
            f"dt = {dt:.12g}; the nearest reachable time is "
            f"{t0 + steps * dt:.12g}"
        )
    return steps


@lru_cache(maxsize=64, typed=True)
def _node_power(grid: RadialGrid, fn: str, exponent) -> np.ndarray:
    """``getattr(np, fn)(grid.nodes) ** exponent``, shared and so read-only.

    ``typed`` keeps an int exponent apart from the equal float, since
    numpy evaluates ``x ** -1`` and ``x ** 2`` by other routines than
    ``x ** -1.0`` and ``x ** 2.0``.
    """
    out = getattr(np, fn)(grid.nodes) ** exponent
    out.flags.writeable = False
    return out


@dataclass
class GridFunction:
    """Radial profile riding on harmonic index l, sampled on all nodes."""

    grid: RadialGrid
    ell: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.count + 1,):
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.count + 1} nodes)"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("grid function contains non-finite values")
        if self.ell >= 1 and self.values[0] != 0.0:
            raise ValueError(
                f"l={self.ell} profiles must vanish at the origin, "
                f"got values[0]={self.values[0]}"
            )

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, self.ell, values)


def sphere_area(n: int) -> float:
    """Surface measure of S^{n-1}; 2 for n = 1 (two half-lines)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def weighted_sup(f: GridFunction, eta: float) -> float:
    """sup_i |(cosh s_i)^{-eta} f_i|."""
    return float(np.abs(_node_power(f.grid, "cosh", -eta) * f.values).max())


# rows per block of node values in the block passes over runs and snapshots
_ROWS = 16


def _weighted_sups(grid: RadialGrid, rows: np.ndarray, eta: float,
                   work: np.ndarray, out: np.ndarray) -> None:
    """``weighted_sup`` of each row of a (k, count+1) block, into ``out``
    (k values); ``work`` is scratch of the block's shape and may be
    ``rows`` itself.  Each value is bitwise ``weighted_sup``'s: the
    products are the same and the maximum is exact."""
    np.multiply(rows, _node_power(grid, "cosh", -eta), out=work)
    np.abs(work, out=work)
    np.maximum.reduce(work, axis=1, out=out)


@lru_cache(maxsize=64)
def _cell_masses_cached(s_max: float, count: int, n: int, p: float) -> np.ndarray:
    """Cell integrals of mu(s) = sinh^{n-1}(s) cosh^{1-n-p}(s) = u_B r^{n-1} dr/ds."""
    grid = RadialGrid(s_max, count)
    h = grid.h
    nodes = grid.nodes[:-1]  # unknown cells only; node `count` is held at 0
    lo = np.maximum(nodes - h / 2.0, 0.0)
    hi = nodes + h / 2.0
    # 5-point Gauss-Legendre per cell; integrand is smooth
    gx, gw = np.polynomial.legendre.leggauss(5)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    pts = mid[:, None] + half[:, None] * gx[None, :]
    mu = np.sinh(pts) ** (n - 1) * np.cosh(pts) ** (1.0 - n - p)
    masses = (half[:, None] * (mu * gw[None, :])).sum(axis=1)
    masses.flags.writeable = False  # shared by every caller of the cache
    return masses


def cell_masses(grid: RadialGrid, params: ModelParams) -> np.ndarray:
    """Finite-volume masses of u_B r^{n-1} dr over node-centred s-cells (B=1).

    The nonlinear solver's flux form telescopes exactly against these
    weights, so sum(w * cell_masses) is a conserved discrete mass.  The
    array is cached and shared, so it is read-only.
    """
    return _cell_masses_cached(grid.s_max, grid.count, params.n, params.p)


def tail_estimate(boundary_value: float, decay_rate: float) -> float:
    """Bound on a truncated tail integral_|s>s_max| ~ |f(s_max)| / rate.

    Assumes the integrand decays at least like e^{-rate (s - s_max)}; a
    non-positive rate means the tail does not converge and yields inf.
    """
    if decay_rate <= 0.0:
        return math.inf
    return abs(boundary_value) / decay_rate
