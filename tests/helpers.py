"""Oracles the tests share that the program itself does not call."""

import math

import numpy as np
import scipy.linalg

from fastdiff_lab import asymptotics as asy
from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo


def nonlinear_rhs(w, params):
    """Right side of the radial rescaled flow, flux form (see ``evolve``),
    through the Newton kernel's own rhs with the four-pass face average."""
    evolve._check_positivity(w.values)
    kernel = evolve._Newton(evolve._workspace(w.grid, params))
    N = w.grid.count
    kernel.v[N] = 1.0 + w.values[N]
    out = np.zeros_like(w.values)
    kernel.rhs(w.values[:N], out[:N], False)
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


def propagate(op, x, times, removed=0):
    """e^{tL} x on op's unknowns, one row per t in ``times``, from the full
    eigendecomposition of the symmetric tridiagonal matrix similar to op,
    with the coefficients of its top ``removed`` eigenvectors dropped: the
    exact linear semigroup ``linop.semigroup_decay`` samples from its top
    eigenpairs alone."""
    logw = op.symmetrizer_log_weights()
    half = 0.5 * (logw - logw.max())
    lam, vecs = scipy.linalg.eigh_tridiagonal(
        op.diag, np.sqrt(op.sup[:-1] * op.sub[1:]))
    c = vecs.T @ (np.exp(half) * x)
    c[c.size - removed:] = 0.0
    return np.exp(-half) * ((np.exp(np.outer(times, lam)) * c) @ vecs.T)
