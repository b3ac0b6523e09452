"""Oracles the tests share that the program itself does not call."""

import math

import numpy as np
import scipy.linalg

from fastdiff_lab import asymptotics as asy
from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo


def nonlinear_rhs(w, params):
    """Right side of the radial rescaled flow, flux form (see ``evolve``):
    the Newton kernel's own flux differences, divided by the cell masses."""
    evolve._check_positivity(w.values)
    ws = evolve._workspace(w.grid, params)
    kernel = evolve._Newton(ws)
    N = w.grid.count
    kernel.v[N] = 1.0 + w.values[N]
    out = np.zeros_like(w.values)
    kernel.rhs(w.values[:N], out[:N])
    out[:N] /= ws.masses
    return w.with_values(out)


def mass_defect(w, params):
    """Mass defect int w u_B dx, with the finite-volume cell weights: the
    same functional the flux form conserves (``evolve.run`` records it per
    state with the same dot product)."""
    masses = geo.cell_masses(w.grid, params)
    return geo.sphere_area(params.n) * float(np.dot(w.values[:masses.size],
                                                    masses))


def barenblatt_u(x_norm, params):
    """Stationary rescaled profile u_B(x) = (B + |x|^2)^(-1/(1-m))."""
    x = np.asarray(x_norm, dtype=float)
    return (params.B + x * x) ** (-params.a)


def delayed_barenblatt_time_derivative(t, s, tau0, Bplus, params):
    """Exact d/dt of ``closedform.delayed_barenblatt_v`` (manufactured-solution
    oracle)."""
    theta = cf._delayed_theta(t, tau0, params)
    E = math.exp(2.0 * params.p * t)
    Ep = E + 2.0 * params.p * tau0
    # d theta / dt = 2 p beta theta (1 - E/E')
    dtheta = 2.0 * params.p * params.beta * theta * (1.0 - E / Ep)
    ss = np.asarray(s, dtype=float)
    sh2 = np.sinh(ss) ** 2
    v = cf.delayed_barenblatt_v(t, ss, tau0, Bplus, params)
    B = params.B
    dlogv_dtheta = params.n / theta - params.a * 2.0 * theta * B * sh2 / (
        Bplus + theta * theta * B * sh2
    )
    return v * dlogv_dtheta * dtheta


def shifted_snapshots(trace, tau0, params):
    """The snapshots of ``asymptotics._shifted_blocks`` (the trace shifted
    by tau0) as a list of (t, w)."""
    return [(t, w.copy())
            for times, rows in asy._shifted_blocks(trace.snapshots, trace.grid,
                                                   tau0, params)
            for t, w in zip(times, rows)]


def propagate(op, x, times, modes=()):
    """e^{tL} x on op's unknowns, one row per t in ``times``, from the full
    eigendecomposition of the symmetric tridiagonal matrix similar to op,
    with the coefficient of each named mode (l, k), the (k+1)-th top
    eigenvector, dropped: the exact linear semigroup
    ``linop.semigroup_decay`` samples from its top eigenpairs alone."""
    logw = op.symmetrizer_log_weights()
    half = 0.5 * (logw - logw.max())
    lam, vecs = scipy.linalg.eigh_tridiagonal(
        op.diag, np.sqrt(op.sup[:-1] * op.sub[1:]))
    c = vecs.T @ (np.exp(half) * x)
    c[[c.size - 1 - mode.k for mode in modes]] = 0.0
    return np.exp(-half) * ((np.exp(np.outer(times, lam)) * c) @ vecs.T)


def volume_weight(s, n):
    """Radial density tanh^{n-1}(s) of the cigar volume element."""
    s = np.asarray(s, dtype=float)
    if n == 1:
        return np.ones_like(s)
    return np.tanh(s) ** (n - 1)


def inner_product_uBm(f, g, params):
    """<f, g> in L^2_{u_B^m}: integral f g u_B^m r^{n-1} dr (B = 1), by the
    trapezoid rule on the grid.

    In cigar coordinates the measure is (cosh s)^{-2 eta_cr} tanh^{n-1}s ds,
    which makes multiplication by (cosh s)^{-eta_cr} an isometry onto L^2 of
    the cigar.
    """
    s = f.grid.nodes
    w = volume_weight(s, params.n) * np.cosh(s) ** (-2.0 * params.eta_cr)
    return float(np.trapezoid(f.values * g.values * w, s))


def orthogonalize(f, modes, params):
    """f less its components along each v_{lk} in the u_B^m pairing (the
    v_{lk} of one l are orthogonal there, so each coefficient is one
    pairing)."""
    s = f.grid.nodes
    out = f.values.copy()
    for mode in modes:
        v = f.with_values(cf.eigenfunction_v(mode, s, params))
        out -= (inner_product_uBm(f, v, params)
                / inner_product_uBm(v, v, params)) * v.values
    return f.with_values(out)
