"""Affinely self-similar solutions rho(tau, y) = u_B(Sigma^{-1/2} y) det Sigma^{-1/2}.

The family Sigma(tau) = Sigma_0 + sigma(tau) I with a traceless symmetric
Sigma_0 is invariant under the fast-diffusion flow when sigma obeys

    (d sigma / d tau)^{p+n} = c_B det Sigma(tau).

Substituting the isotropic case Sigma = sigma I into the flow gives
d sigma / d tau = (4/(1-m)) sigma^{n(1-m)/2}, so c_B = (2(p+n))^{p+n}, and
the rate is taken in closed form,
d sigma / d tau = 2(p+n) det(Sigma)^{1/(p+n)}: c_B itself is not a float
from p+n = 128 on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .closedform import ModelParams

__all__ = [
    "AffineState",
    "make_affine_state",
    "affine_density",
    "affine_pde_residual",
]


@dataclass(frozen=True)
class AffineState:
    """Traceless anisotropy Sigma_0 and scalar sigma: Sigma = Sigma_0 + sigma I.

    The eigendecomposition Sigma_0 = Q diag(d) Q^T is read once, when the
    state is built; Sigma's axes are sigma + d_i.
    """

    sigma0: np.ndarray
    sigma: float
    d: np.ndarray = field(init=False, repr=False, compare=False)
    Q: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        s0 = np.asarray(self.sigma0, dtype=float)
        object.__setattr__(self, "sigma0", s0)
        if s0.ndim != 2 or s0.shape[0] != s0.shape[1]:
            raise ValueError(f"sigma0 must be a square matrix, got {s0.shape}")
        if not np.allclose(s0, s0.T, atol=1e-12):
            raise ValueError("sigma0 must be symmetric")
        if abs(np.trace(s0)) > 1e-10 * max(1.0, np.abs(s0).max()):
            raise ValueError(f"sigma0 must be traceless, trace = {np.trace(s0)}")
        d, Q = np.linalg.eigh(s0)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "Q", Q)


def _sigma_axes(state: AffineState, sigma: float) -> np.ndarray:
    axes = sigma + state.d
    if axes.min() <= 0.0:
        raise ValueError(
            f"Sigma lost positive definiteness: axes {axes} at sigma={sigma}"
        )
    return axes


def _sigma_rate(state: AffineState, sigma: float, params: ModelParams) -> float:
    """d sigma / d tau = 2(p+n) det(Sigma)^{1/(p+n)}."""
    q = params.n + params.p
    return 2.0 * q * math.exp(np.log(_sigma_axes(state, sigma)).sum() / q)


def _rk4(state: AffineState, s: float, dtau: float,
         params: ModelParams) -> float:
    """sigma after one classical RK4 step of the scalar flow from s."""
    k1 = _sigma_rate(state, s, params)
    k2 = _sigma_rate(state, s + 0.5 * dtau * k1, params)
    k3 = _sigma_rate(state, s + 0.5 * dtau * k2, params)
    k4 = _sigma_rate(state, s + dtau * k3, params)
    return s + dtau / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


def _advance(state: AffineState, tau_elapsed: float,
             params: ModelParams) -> float:
    """sigma after tau_elapsed, in RK4 steps of at most 0.01."""
    s = state.sigma
    if tau_elapsed == 0.0:
        return s
    nsub = max(1, int(math.ceil(abs(tau_elapsed) / 0.01)))
    dtau = tau_elapsed / nsub
    for _ in range(nsub):
        s = _rk4(state, s, dtau, params)
    return s


def affine_density(state: AffineState, tau_elapsed: float, y,
                   params: ModelParams):
    """u_B(Sigma^{-1/2} y) det Sigma^{-1/2} at elapsed time along the trajectory.

    y has shape (n,) or (..., n), taken to Sigma_0's eigenbasis.
    """
    axes = _sigma_axes(state, _advance(state, tau_elapsed, params))
    yy = np.asarray(y, dtype=float)
    z = yy @ state.Q  # coordinates in the eigenbasis
    quad = (z * z / axes).sum(axis=-1)
    detroot = float(np.prod(axes) ** -0.5)
    return (1.0 + quad) ** (-params.a) * detroot


def make_affine_state(sigma0, sigma: float, params: ModelParams) -> AffineState:
    """Build a state, refusing a Sigma that is not positive definite."""
    state = AffineState(sigma0=np.asarray(sigma0, dtype=float), sigma=sigma)
    _sigma_axes(state, sigma)  # positive definiteness up front
    return state


# ---------------------------------------------------------------------------
# Residual diagnostic
# ---------------------------------------------------------------------------

def affine_pde_residual(state: AffineState, params: ModelParams,
                        h: float = 0.0125, dtau_fd: float = 0.00625) -> float:
    """Scaled sup residual of d_tau rho - (1/m) Lap rho^m along the trajectory.

    Both sides are evaluated at tau_elapsed = 0.2 on the 9^n points of
    [0, 1.5]^n by second-order central differences (spacing h in space,
    dtau_fd in time), so the residual of the exact affine solution measures
    the discretization and decreases at second order under (h, dtau_fd)
    refinement.  Scaled by the sup of the diffusion side.
    """
    n, m = params.n, params.m
    tau_elapsed = 0.2
    axes1d = np.linspace(0.0, 1.5, 9)
    grids = np.meshgrid(*([axes1d] * n), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=-1)

    rho_plus = affine_density(state, tau_elapsed + dtau_fd, pts, params)
    rho_minus = affine_density(state, tau_elapsed - dtau_fd, pts, params)
    drho_dt = (rho_plus - rho_minus) / (2.0 * dtau_fd)

    def rho_m_at(shift):
        return affine_density(state, tau_elapsed, pts + shift, params) ** m

    lap = -2.0 * n * rho_m_at(np.zeros(n))
    for dim in range(n):
        e = np.zeros(n)
        e[dim] = h
        lap += rho_m_at(e) + rho_m_at(-e)
    lap /= h**2

    diffusion = lap / m
    resid = drho_dt - diffusion
    return float(np.max(np.abs(resid)) / np.max(np.abs(diffusion)))
