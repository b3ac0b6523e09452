"""Discretization and spectral analysis of the conjugated linearized operator.

The operator on radial profiles with harmonic index l, conjugated by
(cosh s)^eta, is

    L_{l,eta} = d_ss + [2(n-1)/sinh 2s + b_inf(eta) tanh s] d_s
                - l(l+n-2)/tanh^2 s + c_inf(eta) + d(eta)/cosh^2 s,

with b_inf = 2 eta + 2 - p, c_inf = -(p-eta)(2+eta), d = (p+n-eta)(2+eta).
At eta = eta_cr the drift vanishes and the operator is symmetric in the
cigar volume.

Origin treatment.  Substituting f = sinh^l(s) cosh^{-(eta+2)}(s) g removes
the s^-1 and s^-2 singularities exactly and lands in the self-adjoint
Hilbert-space frame, where the potential well cancels and g is an even,
smooth function (a polynomial in sinh^2 s on eigenfunctions).  Near the
origin the rows are assembled there - finite-volume for the radial part
with exact cell integrals of tanh^{n_eff-1}(s), n_eff = n + 2l, central
differences for the smooth drift, or the drift inside the flux where those
would lose sign - and mapped back through the diagonal similarity, its
neighbour ratios formed in log space; for l >= 1 the Neumann ghost value
g_0 is eliminated through the O(h^4) even-extension closure
g_0 = (4 g_1 - g_2)/3.  Away from the origin the conjugated operator itself
is centrally differenced (see ``assemble``).  The result matches the domain
conditions f'(0) = 0 for l = 0 and f(0) = 0 for l >= 1, keeps all
off-diagonal entries positive on every grid (so an exact diagonal
symmetrizer exists and the discrete spectrum is real), and is second order
where h resolves the drift; the one refusal is a grid too coarse for the
bands to be floats.  The far boundary is homogeneous Dirichlet at s_max:
bound eigenfunctions decay exponentially, and quasi-continuum artifacts of
the truncation are flagged, not matched.

The linear semigroup is exact in time.  Through the diagonal symmetrizer D
the bands are a symmetric tridiagonal matrix V diag(lambda) V^T, so
e^{tL} f = D^{-1/2} V e^{t lambda} V^T D^{1/2} f; ``semigroup_decay`` takes
it from the top eigenpairs alone, as many as its fit window needs, from the
one symmetric eigensolve (``_top_eigh``) that serves every caller.  The
discrete modes a caller names are removed there, one way: mode (l, k) is
the (k+1)-th top eigenpair of L_{l,eta}, and its coefficient is zeroed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .closedform import (
    ModelParams,
    ModeIndex,
    admissible_modes,
    eigenvalue,
    eigenfunction_v,
    essential_threshold,
    is_admissible,
    potential_profile,
)
from .geometry import GridFunction, RadialGrid, step_count

__all__ = [
    "TridiagonalOperator",
    "SpectrumEntry",
    "SpectrumReport",
    "EigensolveError",
    "assemble",
    "apply",
    "top_eigenvalues",
    "conjugated_eigenfunction",
    "eigen_residual",
    "semigroup_decay",
]


class EigensolveError(RuntimeError):
    """Tridiagonal eigensolver failure, with LAPACK diagnostics attached."""


@dataclass
class TridiagonalOperator:
    """Assembled discrete L_{l,eta} acting on profile values.

    Unknowns are nodes 0..N-1 for l = 0 (Neumann ghost at the origin) and
    1..N-1 for l >= 1 (Dirichlet); node N is held at zero.  ``sub``,
    ``diag``, ``sup`` are the tridiagonal coefficient arrays over the
    unknowns (sub[0] and sup[-1] unused).
    """

    grid: RadialGrid
    ell: int
    eta: float
    params: ModelParams
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def first_node(self) -> int:
        return 0 if self.ell == 0 else 1

    @property
    def n_unknowns(self) -> int:
        return self.diag.size

    def symmetrizer_log_weights(self) -> np.ndarray:
        """log w_i of the exact diagonal similarity to a symmetric matrix.

        Defined by w_{i+1}/w_i = sup_i / sub_{i+1}; agrees with the
        quadrature weight of the scheme up to O(h^2) and boundary constants.
        """
        ratios = np.log(self.sup[:-1]) - np.log(self.sub[1:])
        return np.concatenate([[0.0], np.cumsum(ratios)])


def _log_cosh(s: np.ndarray) -> np.ndarray:
    """log cosh(s) for s >= 0, finite where cosh(s) overflows (s > 710)."""
    return s + np.log1p(np.exp(-2.0 * s)) - np.log(2.0)


def _log_flux_weight(s: np.ndarray, n_eff: int, c_pow: float) -> np.ndarray:
    """log of W(s) = tanh^{n_eff-1}(s) cosh^{c_pow}(s); s > 0 required."""
    return (n_eff - 1) * np.log(np.tanh(s)) + c_pow * _log_cosh(s)


_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(5)


def _face_fluxes(grid: RadialGrid, n_eff: int, c_pow: float):
    """Finite-volume rows of (1/W) d_s (W d_s) for the weight W of
    ``_log_flux_weight``.

    Returns (origin, lo, hi): row i >= 1 is lo_i (g_{i-1} - g_i) +
    hi_i (g_{i+1} - g_i) with lo_i, hi_i = W(s_i -+ h/2) / (h int_cell W),
    and origin is the same for the half cell [0, h/2] with face h/2.  Each
    cell integral is taken relative to W at a reference point (s_i, or h/2
    at the origin); the power-law factor s^{n_eff-1} is integrated exactly
    through the substitution v = s^{n_eff}, which keeps the rows exact on
    even quadratics all the way into the origin.
    """
    h = grid.h
    N = grid.count
    q = n_eff - 1  # W(s) = s^q E(s) with E smooth and even
    q1 = float(n_eff)
    va = np.maximum(grid.nodes[:N] - h / 2.0, 0.0) ** q1
    vb = (grid.nodes[:N] + h / 2.0) ** q1
    mid = 0.5 * (va + vb)
    half = 0.5 * (vb - va)
    v = mid[:, None] + half[:, None] * _GAUSS_X[None, :]
    sv = v ** (1.0 / q1)
    si = grid.nodes[1:N]
    log_ref = _log_flux_weight(np.concatenate([[h / 2.0], si]), n_eff, c_pow)

    def log_E(s):
        return c_pow * _log_cosh(s) + q * np.log(np.tanh(s) / s)

    # int s^q E ds = (1/q1) int E(v^(1/q1)) dv, assembled in log space so the
    # huge s^q and cosh^c_pow factors never appear alone
    exponent = np.log(half)[:, None] + log_E(sv) - log_ref[:, None]
    scale = h * ((np.exp(exponent) * _GAUSS_W[None, :]).sum(axis=1) / q1)
    lo = np.exp(_log_flux_weight(si - h / 2.0, n_eff, c_pow) - log_ref[1:])
    hi = np.exp(_log_flux_weight(si + h / 2.0, n_eff, c_pow) - log_ref[1:])
    return 1.0 / scale[0], lo / scale[1:], hi / scale[1:]


# blend window between the desingularized origin frame and the direct
# conjugated-frame stencil (the origin terms are mild beyond s ~ 1)
_FRAME_BLEND = (0.4, 1.2)

# h max(|2l-p-2|, |eta+2|) at which the bands leave the normal float range:
# a flux row's upper off-diagonal scales like exp(-h |2l-p-2|) and the
# similarity ratios like exp(+-h (eta+2)); exp overflows at 709
_MAX_RATE = 500.0


def assemble(ell: int, eta: float, grid: RadialGrid,
             params: ModelParams) -> TridiagonalOperator:
    """Discretize L_{l,eta} on the grid (second order, hybrid rows).

    Near the origin (s < 1) the rows are built for the similarity transform
    g of f defined by f = phi g, phi = sinh^l(s) cosh^{-(eta+2)}(s): in the
    g frame the operator is the self-adjoint Hilbert-space generator (the
    eta = -2 conjugation), whose sech^2 well cancels exactly, leaving

        L_g = d_ss + [2(n_eff-1)/sinh 2s + (2l-p-2) tanh s] d_s - l(p+n),

    with n_eff = n + 2l; eigenfunctions in this frame are polynomials in
    sinh^2 s, so the l, k=0 modes are exact discrete eigenvectors.  The
    singular 1/s drift lives in a finite-volume stencil with weight
    tanh^{n_eff-1}(s) and exact cell integrals (pointwise division loses
    consistency at the first nodes), and the smooth tanh-drift is centrally
    differenced, except in rows where that would make an off-diagonal
    nonpositive (h |2l-p-2| large): there the same finite-volume row with
    weight tanh^{n_eff-1}(s) cosh^{2l-p-2}(s) carries the drift inside the
    flux, positive for every h.  The rows are mapped back to f through
    phi_{i+1}/phi_i = exp(diff(log phi)): phi underflows at large p or eta,
    its neighbour ratios do not.  For s >= 1 the conjugated operator itself
    is centrally differenced where that keeps sign: its drift is mild there
    and the truncation is governed by lambda - c(s), which stays small
    across the potential well.  All off-diagonal entries are positive, so an
    exact diagonal symmetrizer exists.  The one refusal, an EigensolveError,
    is h max(|2l-p-2|, |eta+2|) >= ``_MAX_RATE``, where the bands leave the
    float range.
    """
    n = params.n
    if ell < 0:
        raise ValueError(f"harmonic index must be non-negative, got {ell}")
    if n == 1 and ell >= 2:
        raise ValueError("n = 1 admits only even (l=0) and odd (l=1) sectors")

    n_eff = n + 2 * ell
    c_pow = 2.0 * ell - params.p - 2.0
    const0 = -ell * (params.p + n)

    h = grid.h
    s = grid.nodes
    N = grid.count
    rate = h * max(abs(c_pow), abs(eta + 2.0))
    if rate >= _MAX_RATE:
        raise EigensolveError(
            f"the bands of L_(l,eta) leave the float range for n={n}, "
            f"m={params.m} (p={params.p:.6g}), l={ell}, eta={eta:.6g} at "
            f"h={h:g}: h*max(|2l-p-2|, |eta+2|) = {rate:.6g} reaches "
            f"{_MAX_RATE:g}"
        )

    # --- g-frame rows: finite-volume radial part + central smooth drift ---
    sup0, flux_lo, flux_hi = _face_fluxes(grid, n_eff, 0.0)
    drift = c_pow * np.tanh(s[1:N]) / (2.0 * h)
    sub_i = flux_lo - drift
    sup_i = flux_hi + drift
    diag_i = -(flux_lo + flux_hi) + const0
    lost = (sub_i <= 0.0) | (sup_i <= 0.0)
    if lost.any():  # in-flux drift rows where the central drift loses sign
        _, lo_c, hi_c = _face_fluxes(grid, n_eff, c_pow)
        sub_i[lost] = lo_c[lost]
        sup_i[lost] = hi_c[lost]
        diag_i[lost] = -(lo_c[lost] + hi_c[lost]) + const0

    if ell == 0:
        # unknowns 0..N-1; the origin half-cell [0, h/2] reproduces the
        # L'Hopital row 2 n_eff (g_1 - g_0)/h^2 exactly for power-law W
        sub = np.concatenate([[0.0], sub_i])
        diag = np.concatenate([[-sup0 + const0], diag_i])
        sup = np.concatenate([[sup0], sup_i])
        i0 = 0
    else:
        # unknowns 1..N-1; eliminate the ghost g_0 = (4 g_1 - g_2)/3 (even
        # extension, O(h^4)), or g_0 = g_1 where a grid too coarse for the
        # drift would turn sup[0] nonpositive
        sub, diag, sup = sub_i, diag_i, sup_i
        if sup[0] > sub[0] / 3.0:
            diag[0] += sub[0] * 4.0 / 3.0
            sup[0] -= sub[0] / 3.0
        else:
            diag[0] += sub[0]
        sub[0] = 0.0
        i0 = 1

    s_un = s[i0:N]
    log_cosh = _log_cosh(s_un)
    log_phi = -(eta + 2.0) * log_cosh
    if ell:  # log sinh = log cosh + log tanh, finite where sinh overflows
        log_phi += ell * (log_cosh + np.log(np.tanh(s_un)))
    ratio = np.exp(np.diff(log_phi))  # phi_{i+1}/phi_i
    sub[1:] *= ratio
    sup[:-1] /= ratio

    # --- conjugated-frame central rows away from the origin, blended in ---
    prof = potential_profile(eta, params)
    mask = s_un >= _FRAME_BLEND[0]
    sf = s_un[mask]
    # beyond s ~ 355 sinh(2s) and cosh(s)^2 overflow to inf, and the terms
    # they divide take their limit 0
    with np.errstate(over="ignore"):
        a_f = 2.0 * (n - 1) / np.sinh(2.0 * sf) + prof["b_inf"] * np.tanh(sf)
        c_f = prof["c_inf"] + prof["depth"] / np.cosh(sf) ** 2 \
            - ell * (ell + n - 2) / np.tanh(sf) ** 2
    sub_f = 1.0 / h**2 - a_f / (2.0 * h)
    sup_f = 1.0 / h**2 + a_f / (2.0 * h)
    diag_f = -2.0 / h**2 + c_f
    lo, hi = _FRAME_BLEND
    theta = np.clip((sf - lo) / (hi - lo), 0.0, 1.0)
    # convex row blend keeps positivity; degrade to the g-frame row wherever
    # the central stencil would lose sign (coarse grids, large drift)
    theta = np.where((sub_f > 0.0) & (sup_f > 0.0), theta, 0.0)
    sub[mask] = (1.0 - theta) * sub[mask] + theta * sub_f
    diag[mask] = (1.0 - theta) * diag[mask] + theta * diag_f
    sup[mask] = (1.0 - theta) * sup[mask] + theta * sup_f

    sup[-1] = 0.0
    return TridiagonalOperator(grid=grid, ell=ell, eta=eta, params=params,
                               sub=sub, diag=diag, sup=sup)


def _matvec(op: TridiagonalOperator, x: np.ndarray) -> np.ndarray:
    y = op.diag * x
    y[:-1] += op.sup[:-1] * x[1:]
    y[1:] += op.sub[1:] * x[:-1]
    return y


def apply(op: TridiagonalOperator, f: GridFunction) -> GridFunction:
    """Matrix-vector product respecting the boundary scheme.

    The value at the Dirichlet node s_max (and the origin for l >= 1) is
    reported as zero.
    """
    if f.grid != op.grid:
        raise ValueError("grid mismatch between operator and function")
    if f.ell != op.ell:
        raise ValueError(f"harmonic index mismatch: {f.ell} != {op.ell}")
    i0 = op.first_node
    out = np.zeros_like(f.values)
    out[i0:op.grid.count] = _matvec(op, f.values[i0:op.grid.count])
    return f.with_values(out)


@dataclass(frozen=True)
class SpectrumEntry:
    value: float
    mode: ModeIndex | None
    closed_form: float | None
    error: float | None
    continuum_artifact: bool


@dataclass
class SpectrumReport:
    ell: int
    eta: float
    threshold: float
    entries: list[SpectrumEntry]


def _top_eigh(op: TridiagonalOperator, count: int,
              eigvals_only: bool = True):
    """The top `count` eigenpairs (ascending) of the symmetric tridiagonal
    matrix similar to op, off-diagonal sqrt(sup_i sub_{i+1}); with
    ``eigvals_only`` the eigenvalues alone.

    A nonpositive off-diagonal product (a guard: ``assemble`` builds them
    positive) and a LAPACK failure are EigensolveErrors.
    """
    m = op.n_unknowns
    offdiag2 = op.sup[:-1] * op.sub[1:]
    if np.any(offdiag2 <= 0.0):
        raise EigensolveError(
            "off-diagonal products not positive; symmetrization failed "
            f"(min product {offdiag2.min()})"
        )
    try:
        return scipy.linalg.eigh_tridiagonal(
            op.diag, np.sqrt(offdiag2), eigvals_only=eigvals_only,
            select="i", select_range=(m - count, m - 1),
        )
    except Exception as exc:  # LAPACK failure: report diagnostics
        raise EigensolveError(
            f"tridiagonal eigensolve failed for l={op.ell}, eta={op.eta}, "
            f"N={m}: {exc}"
        ) from exc


def top_eigenvalues(op: TridiagonalOperator, count: int,
                    match_tol: float = 0.1) -> SpectrumReport:
    """Largest `count` discrete eigenvalues, matched against closed form.

    The flux-form scheme is exactly similar to a symmetric tridiagonal
    matrix (off-diagonal sqrt(sup_i sub_{i+1})), so the discrete spectrum is
    real and is obtained by a symmetric tridiagonal solver.  Values above
    the essential threshold are matched to the nearest admissible closed
    form lambda_{lk} within match_tol; values at/below threshold are
    flagged as discretized-continuum artifacts.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    vals = _top_eigh(op, min(count, op.n_unknowns))

    thr = essential_threshold(op.ell, op.eta, op.params)
    candidates = [(md, lam) for md, lam in admissible_modes(op.eta, op.params)
                  if md.ell == op.ell]
    entries = []
    for v in vals[::-1]:
        v = float(v)
        if candidates and v > thr:
            mode, lam = min(candidates, key=lambda c: abs(c[1] - v))
            if abs(lam - v) <= match_tol:
                entries.append(SpectrumEntry(v, mode, lam, v - lam, False))
                continue
        entries.append(SpectrumEntry(v, None, None, None, v <= thr))
    return SpectrumReport(ell=op.ell, eta=op.eta, threshold=thr,
                          entries=entries)


def conjugated_eigenfunction(mode: ModeIndex, eta: float, grid: RadialGrid,
                             params: ModelParams) -> GridFunction:
    """(cosh s)^{-eta} v_{lk} sampled on the grid, unit sup norm."""
    s = grid.nodes
    w = np.cosh(s) ** (-eta) * eigenfunction_v(mode, s, params, eta=eta)
    w = w / np.max(np.abs(w))
    return GridFunction(grid, mode.ell, w)


def eigen_residual(mode: ModeIndex, eta: float, grid: RadialGrid,
                   params: ModelParams) -> float:
    """Sup norm of (L_{l,eta} - lambda_{lk}) applied to the sampled eigenfunction.

    The eigenfunction is normalized to unit sup norm.  The last unknown row
    (whose stencil touches the hard Dirichlet truncation at s_max) is
    excluded: its defect measures the exponentially small tail cut, not the
    O(h^2) consistency of the scheme.
    """
    if not is_admissible(mode, eta, params):
        raise ValueError(f"mode {mode} not admissible at eta={eta}")
    op = assemble(mode.ell, eta, grid, params)
    w = conjugated_eigenfunction(mode, eta, grid, params)
    lam = eigenvalue(mode, params)
    resid = apply(op, w).values - lam * w.values
    i0 = op.first_node
    return float(np.max(np.abs(resid[i0:grid.count - 1])))


# the propagator starts from this many top eigenpairs and doubles them
# until the dropped modes are below _TRUNCATION_TOL * value_lo at every
# sample the fit window admits
_FIRST_PAIRS = 32
_TRUNCATION_TOL = 1e-6
# multiply-adds per product of the sampling: OpenBLAS runs a matrix product
# this small on the calling thread, where a larger one wakes BLAS threads
# that, in the selftest pool's workers, spin against each other (on 2
# cores the fast selftest takes 1.7 times as long with 256 sample times
# per product)
_PRODUCT_SIZE = 1 << 18


def semigroup_decay(op: TridiagonalOperator, f0: GridFunction,
                    modes_to_remove: list[ModeIndex], t_final: float,
                    dt: float, params: ModelParams, policy=None):
    """Evolve f0 without the named discrete modes exactly in time and fit
    its sup-norm decay slope.

    f0 is a conjugated profile (the weight eta lives in the operator).  In
    the symmetric frame y = D^{1/2} x of op's unknowns (D the diagonal
    symmetrizer, ``symmetrizer_log_weights``) op is a symmetric tridiagonal
    matrix V diag(lambda) V^T, so e^{tL} x = D^{-1/2} V (e^{lambda t} c)
    with c = V^T y, exact in time.  Each named mode (l, k) is removed by
    zeroing its coefficient, that of the (k+1)-th largest eigenvalue, and
    nothing else is removed; a mode not on op's l, not admissible at op's
    eta or with k beyond the unknowns is a ValueError.  Only the top K
    eigenpairs are taken: K starts at ``_FIRST_PAIRS`` (at least k+1 for
    every named k) and doubles until the dropped modes' bound
    max D^{-1/2} |c_dropped|_2 e^{lambda_K t}, with
    |c_dropped|_2^2 = |y|^2 - |c|^2 (Parseval), is at most
    ``_TRUNCATION_TOL`` * value_lo at every sample the fit admits (the last
    sample, if it admits none).  The samples, one per dt to t_final, are
    normalized by the sup of the deflated profile x - D^{-1/2} V_named
    c_named.  Returns the RateFit of log sup|w(t)|; the semigroup estimate
    asserts slope <= c_inf(eta) once every mode above the continuum is
    removed.
    """
    from .asymptotics import EmptyWindowError, WindowPolicy, fit_rate

    if f0.grid != op.grid or f0.ell != op.ell:
        raise ValueError("operator/function mismatch")
    m = op.n_unknowns
    for mode in modes_to_remove:
        if (mode.ell != op.ell or mode.k >= m
                or not is_admissible(mode, op.eta, params)):
            raise ValueError(
                f"cannot remove mode ({mode.ell},{mode.k}) from L_(l,eta) at "
                f"l={op.ell}, eta={op.eta:.6g} on {m} unknowns: it is not "
                f"one of its admissible discrete modes"
            )
    steps = step_count(0.0, t_final, dt)
    # the node(s) held at zero do not change the sup norm
    x = f0.values[op.first_node:op.grid.count]
    if not np.isfinite(x).all():
        raise ValueError("grid function contains non-finite values")
    logw = op.symmetrizer_log_weights()
    half_logw = 0.5 * (logw - logw.max())
    inv_d = np.exp(-half_logw)
    y = np.exp(half_logw) * x
    norm2 = np.dot(y, y)
    times = np.arange(steps + 1) * dt
    policy = policy or WindowPolicy()
    ks = sorted({mode.k for mode in modes_to_remove})
    count = min(max([_FIRST_PAIRS] + [k + 1 for k in ks]), m)
    while True:
        lam, vecs = _top_eigh(op, count, eigvals_only=False)
        c = np.einsum("ik,i->k", vecs, y)
        dropped = math.sqrt(max(norm2 - np.dot(c, c), 0.0))
        named = [count - 1 - k for k in ks]
        scale = np.abs(x - inv_d * (vecs[:, named] @ c[named])).max()
        if scale == 0.0:
            raise ValueError("the named modes are the whole initial profile")
        c[named] = 0.0
        # the eigenvectors in node values, one per row
        node_vecs = (vecs * inv_d[:, None]).T
        sups = np.empty(steps + 1)
        sups[0] = 1.0
        # two times at least: numpy hands a one-row product to gemv, which
        # OpenBLAS threads from far fewer multiply-adds
        block = max(2, _PRODUCT_SIZE // (count * m))
        for j in range(1, steps + 1, block):
            t = times[j:j + block]
            w_t = (np.exp(np.outer(t, lam)) * c) @ node_vecs
            sups[j:j + t.size] = np.abs(w_t).max(axis=1) / scale
        try:
            fit = fit_rate(times, sups, policy)
        except EmptyWindowError:
            fit = None
        checked = times[-1:] if fit is None else np.array(fit.window)
        bound = inv_d.max() * dropped * np.exp(lam[0] * checked).max()
        if count == m or bound <= _TRUNCATION_TOL * policy.value_lo * scale:
            # an empty window is raised by fit_rate itself
            return fit or fit_rate(times, sups, policy)
        count = min(2 * count, m)
