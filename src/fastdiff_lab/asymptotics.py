"""Rate fits, coefficient extraction, time-shift modding, expansion residuals.

Post-processing that turns evolution traces into quantitative statements:
log-linear decay fits with a declarative window policy, the radial
coefficient functional

    c_{lk}(t) = e^{-lambda_{lk} t} int w psi_{lk} u_B r^{n-1} dr
                / int psi_{lk}^2 u_B^{2-m} r^{n-1} dr,

whose normalization recovers the amplitude of eigenmode initial data, the
time-shift modding that cancels the lambda_01 coefficient against the
delayed-Barenblatt family and reads the second-order rate gamma from what
is left, and the weighted expansion residual whose decay slope verifies the
rate/weight trade-off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .closedform import (
    ModelParams,
    ModeIndex,
    eigenvalue,
    eigenfunction_psi,
    eigenfunction_v,
    eta_for_target_rate,
    delayed_barenblatt_v,
    lambda_second_order,
    second_order_candidates,
)
from .geometry import _ROWS, _weighted_sups, cell_masses, tail_estimate

__all__ = [
    "WindowPolicy",
    "RateFit",
    "CoefficientRecord",
    "TimeShiftResult",
    "AnalysisError",
    "EmptyWindowError",
    "fit_rate",
    "fit_rate_or_widen",
    "extract_coefficient",
    "mod_time_shift",
    "expansion_residual",
]


class AnalysisError(ValueError):
    """A trace cannot give the requested quantity; message says why."""


class EmptyWindowError(AnalysisError):
    """No usable samples inside the fit window."""


@dataclass(frozen=True)
class WindowPolicy:
    """Declarative fit-window selection, recorded with every fit.

    Samples enter the fit when value is in [value_lo, value_hi] (dodging
    transients above and floors below) and t in [t_lo, t_hi] when given.
    """

    value_lo: float = 1e-8
    value_hi: float = 1e-2
    t_lo: float | None = None
    t_hi: float | None = None
    min_samples: int = 10


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int
    policy: WindowPolicy
    # fit_rate_or_widen found the policy window empty and fitted every
    # positive sample instead
    widened: bool = False


def fit_rate(times, values, policy: WindowPolicy | None = None) -> RateFit:
    """Least squares of ln(value) against t over the policy window."""
    if policy is None:
        policy = WindowPolicy()
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1-d arrays of equal length")
    mask = (v >= policy.value_lo) & (v <= policy.value_hi)
    if policy.t_lo is not None:
        mask &= t >= policy.t_lo
    if policy.t_hi is not None:
        mask &= t <= policy.t_hi
    if np.count_nonzero(mask) < policy.min_samples:
        raise EmptyWindowError(
            f"only {np.count_nonzero(mask)} samples in window "
            f"[{policy.value_lo}, {policy.value_hi}] (need {policy.min_samples})"
        )
    tw = t[mask]
    lv = np.log(v[mask])
    A = np.stack([tw, np.ones_like(tw)], axis=1)
    (slope, intercept), res, *_ = np.linalg.lstsq(A, lv, rcond=None)
    ss_tot = float(np.sum((lv - lv.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(
        np.sum((lv - A @ np.array([slope, intercept])) ** 2)
    )
    # a zero-variance window (constant data) is an exact fit; the threshold
    # absorbs the rounding of the mean reduction
    if ss_tot <= 1e-20 * lv.size * max(1.0, float(np.max(np.abs(lv))) ** 2):
        r2 = 1.0
    else:
        r2 = max(0.0, 1.0 - ss_res / ss_tot)
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, window=(float(tw[0]), float(tw[-1])),
                   n_samples=int(tw.size), policy=policy)


def fit_rate_or_widen(times, values, policy: WindowPolicy | None = None) -> RateFit:
    """fit_rate of values / max(values) over the policy window, widened to
    every positive sample from two samples on if that window is empty (the
    fit is then marked ``widened``); an all-zero series (a stationary
    trace) fits to slope 0 over the full span."""
    scale = values.max()
    if scale == 0.0:
        return RateFit(slope=0.0, intercept=0.0, r_squared=1.0,
                       window=(float(times[0]), float(times[-1])),
                       n_samples=int(values.size),
                       policy=policy or WindowPolicy())
    values = values / scale
    try:
        return fit_rate(times, values, policy)
    except EmptyWindowError:
        pos = values[values > 0.0]
        wide = WindowPolicy(value_lo=float(pos.min()) / 2.0, value_hi=1.0,
                            min_samples=2)
        return replace(fit_rate(times, values, wide), widened=True)


# ---------------------------------------------------------------------------
# Coefficient extraction
# ---------------------------------------------------------------------------

@dataclass
class CoefficientRecord:
    mode: ModeIndex
    estimates: np.ndarray  # rows (t, c(t))
    limit: float
    converged: bool
    tail_fraction: float  # quadrature-truncation bound relative to the pairing
    flagged: bool = False  # tail bound exceeded 1% of the value


def _pairing_weights(grid, mode: ModeIndex, params: ModelParams):
    """Numerator and denominator quadrature data for the coefficient functional."""
    s = grid.nodes
    r = np.sinh(s)
    psi = eigenfunction_psi(mode, r, params)
    # numerator weight: psi u_B r^{n-1} dr, via finite-volume cell masses so
    # the l = k = 0 series telescopes exactly on conservative runs
    masses = cell_masses(grid, params)
    num_w = psi[:masses.size] * masses
    # denominator: int psi^2 u_B^{2-m} r^{n-1} dr  (u_B^{2-m} = cosh^{-(n+p+2)})
    den_int = psi**2 * np.cosh(s) ** (-(params.n + params.p + 2.0)) \
        * r ** (params.n - 1) * np.cosh(s)
    den = float(np.trapezoid(den_int, s))
    return num_w, den


def extract_coefficient(trace, mode: ModeIndex,
                        params: ModelParams) -> CoefficientRecord:
    """Coefficient record c_{lk}(t) from a trace with snapshots.

    The pairing integrand decays like r^{l+2k-p-1}, so l + 2k < p is
    required; the truncation tail bound is recorded and the record is
    flagged when it exceeds 1% of the pairing.  ``limit`` is the average
    over the trailing quarter of the snapshots, converged iff the relative
    oscillation there is within 5%.
    """
    if mode.degree >= params.p:
        raise ValueError(
            f"pairing against {mode} not integrable: l+2k={mode.degree} >= p={params.p}"
        )
    snaps = trace.snapshots
    if not snaps:
        raise ValueError("trace carries no snapshots")
    grid = trace.grid
    lam = eigenvalue(mode, params)
    num_w, den = _pairing_weights(grid, mode, params)

    ests = np.empty((len(snaps), 2))
    tail_fracs = []
    s_max = grid.s_max
    decay = params.p - mode.degree
    # snapshot-independent factors of the integrand value at the cut
    psi_cut = abs(float(eigenfunction_psi(mode, np.sinh(s_max), params)))
    uB_cut = math.cosh(s_max) ** (-(params.n + params.p))
    r_cut = np.sinh(s_max) ** (params.n - 1)
    cosh_cut = math.cosh(s_max)
    for j, (t, w) in enumerate(snaps):
        pairing = float(np.dot(num_w, w[:num_w.size]))
        # integrand value at the cut ~ w(s_max) psi(s_max) u_B r^n / scale;
        # a regrouped product would round the recorded tail bound differently
        boundary = abs(w[-1]) * psi_cut * uB_cut * r_cut * cosh_cut
        tail = tail_estimate(boundary, decay)
        tail_fracs.append(tail / abs(pairing) if pairing != 0.0 else math.inf)
        ests[j] = (t, math.exp(-lam * t) * pairing / den)

    tail_vals = ests[-_tail_count(len(snaps)):, 1]
    limit = float(tail_vals.mean())
    osc = float(tail_vals.max() - tail_vals.min())
    converged = bool(osc <= 0.05 * max(abs(limit), 1e-300))
    tail_frac = float(np.median(tail_fracs))
    return CoefficientRecord(mode=mode, estimates=ests, limit=limit,
                             converged=converged, tail_fraction=tail_frac,
                             flagged=bool(tail_frac > 0.01))


def _tail_count(n_snapshots: int) -> int:
    """Length of the trailing window ``extract_coefficient`` averages."""
    return max(2, int(math.ceil(n_snapshots * 0.25)))


# ---------------------------------------------------------------------------
# Time-shift modding
# ---------------------------------------------------------------------------

@dataclass
class TimeShiftResult:
    """The second-order measurement: the time shift, the rate left after it
    and gamma = rate / lambda_01, with the verdict of ``_near_degenerate``."""

    tau0: float
    shifted_rate: RateFit
    Lambda: float
    eta: float
    c0: float  # lambda_01 coefficient before the shift
    gamma: float
    near_degenerate: bool


def _row_blocks(snapshots, grid):
    """(times, rows) for consecutive blocks of at most ``_ROWS`` snapshots,
    the rows stacked in one reused (``_ROWS``, N+1) buffer that the caller
    may overwrite; a block is valid until the next one is made."""
    buf = np.empty((_ROWS, grid.count + 1))
    for start in range(0, len(snapshots), _ROWS):
        chunk = snapshots[start:start + _ROWS]
        rows = buf[:len(chunk)]
        np.stack([w for _, w in chunk], out=rows)
        yield [t for t, _ in chunk], rows


def _shifted_blocks(snapshots, grid, tau0: float, params: ModelParams):
    """``_row_blocks`` of the snapshots of rho(tau)/rho_B(tau + tau0) - 1
    from w = rho/rho_B - 1, each row bitwise (1 + w) / q - 1 with q the
    delayed Barenblatt at its time.

    Same shift convention as closedform.delayed_barenblatt_v, so modding a
    trace that started from the time-shifted Barenblatt with shift tau*
    recovers tau0 = tau* (statements written against rho_B(tau - tau0) carry
    the opposite sign).
    """
    for times, rows in _row_blocks(snapshots, grid):
        rows += 1.0
        rows /= delayed_barenblatt_v(times, grid.nodes, tau0, params.B, params)
        rows -= 1.0
        yield times, rows


def _shifted_c01(trace, params: ModelParams):
    """tau0 -> the lambda_01 coefficient limit of the trace shifted by tau0.

    That is ``extract_coefficient`` of the shifted snapshots, ``.limit``,
    which reads only the trailing ``_tail_count`` estimates: only those
    snapshots are shifted and paired, against weights computed once.
    """
    mode01 = ModeIndex(0, 1)
    tail = trace.snapshots[-_tail_count(len(trace.snapshots)):]
    lam = eigenvalue(mode01, params)
    num_w, den = _pairing_weights(trace.grid, mode01, params)

    def c_of(tau0: float) -> float:
        # rows (t, c(t)) as extract_coefficient stores them, so the mean
        # reduces the same strided column
        ests = np.empty((len(tail), 2))
        j = 0
        for times, rows in _shifted_blocks(tail, trace.grid, tau0, params):
            for t, w in zip(times, rows):
                pairing = float(np.dot(num_w, w[:num_w.size]))
                ests[j] = (t, math.exp(-lam * t) * pairing / den)
                j += 1
        return float(ests[:, 1].mean())

    return c_of


def mod_time_shift(trace, params: ModelParams, Lambda: float | None = None,
                   policy: WindowPolicy | None = None) -> TimeShiftResult:
    """Find tau0 cancelling the lambda_01 coefficient, then re-fit the rate.

    The coefficient of rho(tau)/rho_B(tau - tau0) - 1 depends linearly on
    tau0 to leading order, so one linear solve from two evaluations seeds
    the root; a couple of secant refinements absorb the higher-order terms.
    The shifted relative error is then measured in the (cosh s)^{-eta(Lambda)}
    weighted sup norm with Lambda = max{lambda_0^cont, lambda_02, lambda_20}.
    A tau0 on the iterates' clamp bound is no root: AnalysisError.
    """
    mode01 = ModeIndex(0, 1)
    if mode01.degree >= params.p:
        raise AnalysisError(
            f"time-shift modding needs the lambda_01 mode, which exists only "
            f"for p > 2 (m > m_2); here p={params.p:.6g}"
        )
    if Lambda is None:
        Lambda, _ = lambda_second_order(params)
    eta = eta_for_target_rate(Lambda, params)

    # evaluate the coefficient only where the signal is alive: amplified
    # late-time noise would otherwise swamp the tail average at large p
    _, sups = _weighted_norms(_row_blocks(trace.snapshots, trace.grid),
                              trace.grid, 0.0, len(trace.snapshots))
    alive = sups >= 1e-6 * sups.max()
    if np.count_nonzero(alive) >= 8:
        base_snaps = [sw for sw, keep in zip(trace.snapshots, alive) if keep]
    else:
        base_snaps = list(trace.snapshots)
    c_of = _shifted_c01(replace(trace, snapshots=base_snaps), params)

    # iterates must stay inside the shifted-Barenblatt domain 1 + 2p tau0 > 0
    tau_min = -(1.0 - 1e-9) / (2.0 * params.p)
    bounds = {0.5 * tau_min: "lower", -100.0 * tau_min: "upper"}

    def clamp(tau0: float) -> float:
        return min(max(tau0, 0.5 * tau_min), -100.0 * tau_min)

    c0 = c_of(0.0)
    # probe step scaled to the analytic sensitivity 2 p beta n
    dtau = max(abs(c0), 1e-3) / (2.0 * params.p * params.beta * params.n)
    c1 = c_of(dtau)
    slope = (c1 - c0) / dtau
    if abs(slope) < 1e-12:
        raise ValueError(
            f"degenerate time-shift system: c-slope {slope} (c0={c0})"
        )
    tau0 = clamp(-c0 / slope)
    a, fa, b, fb = 0.0, c0, tau0, c_of(tau0)
    for _ in range(2):
        if fb == fa:
            break
        c = clamp(b - fb * (b - a) / (fb - fa))
        a, fa, b, fb = b, fb, c, c_of(c)
    tau0 = b
    if tau0 in bounds:
        raise AnalysisError(
            f"time shift tau0={tau0:.6g} is the secant's {bounds[tau0]} clamp "
            f"bound at p={params.p:.6g}, dt |lambda_01| = "
            f"{trace.dt * 2.0 * params.p:.3g}: no root of c01(tau0) resolved")

    times, norms = _weighted_norms(
        _shifted_blocks(trace.snapshots, trace.grid, tau0, params),
        trace.grid, eta, len(trace.snapshots))
    # the shift may remove (almost) everything: then fit whatever positive
    # range is left rather than failing the whole record
    fit = fit_rate_or_widen(times, norms, policy)
    return TimeShiftResult(tau0=float(tau0), shifted_rate=fit, Lambda=Lambda,
                           eta=eta, c0=c0, gamma=fit.slope / (-2.0 * params.p),
                           near_degenerate=_near_degenerate(Lambda, params))


def _near_degenerate(Lambda: float, params: ModelParams) -> bool:
    """Whether a competitor of the target rate Lambda lies closer than the
    fit can resolve (0.25): lambda_01 or another second-order candidate.
    Near such a branch point the measured gamma is untrustworthy."""
    competitors = [-2.0 * params.p] + [
        lam for lam, _ in second_order_candidates(params)]
    gaps = [abs(Lambda - c) for c in competitors if abs(Lambda - c) > 1e-12]
    return bool(min(gaps, default=np.inf) < 0.25)


# ---------------------------------------------------------------------------
# Expansion residual
# ---------------------------------------------------------------------------

def expansion_residual(trace, Lambda: float,
                       coefficients: list[CoefficientRecord],
                       params: ModelParams,
                       policy: WindowPolicy | None = None) -> RateFit:
    """Decay fit of the weighted residual after subtracting fitted modes.

    R(t) = w(t) - sum_records c_{lk} e^{lambda_{lk} t} v_{lk}, measured in
    the (cosh s)^{-eta(Lambda)} weighted sup norm; the expansion claim under
    test is slope <= Lambda.  Admissible window: 2 lambda_01 < Lambda <= lambda_01.
    """
    lam01 = -2.0 * params.p
    if not (2.0 * lam01 < Lambda <= lam01):
        raise AnalysisError(f"Lambda={Lambda} outside ]2 lambda_01, lambda_01] "
                            f"= ]{2.0 * lam01}, {lam01}]")
    eta = eta_for_target_rate(Lambda, params)
    s = trace.grid.nodes
    modes = [(rec.limit, eigenvalue(rec.mode, params),
              eigenfunction_v(rec.mode, s, params)) for rec in coefficients]

    def residual_blocks():
        # each row bitwise w - sum of limit * exp(lambda t) * v_lk, with
        # the products formed per time as the scalar loop forms them
        term = np.empty((_ROWS, s.size))
        for times, rows in _row_blocks(trace.snapshots, trace.grid):
            for limit, lam_lk, basis in modes:
                scale = np.array([limit * math.exp(lam_lk * t) for t in times])
                rows -= np.multiply(scale[:, None], basis, out=term[:len(times)])
            yield times, rows

    times, norms = _weighted_norms(residual_blocks(), trace.grid, eta,
                                   len(trace.snapshots))
    return fit_rate_or_widen(times, norms, policy)


def _weighted_norms(blocks, grid, eta: float, count: int):
    """Times and ``weighted_sup`` of every row of (times, rows) blocks,
    whose rows are overwritten."""
    times, norms = np.empty(count), np.empty(count)
    start = 0
    for block_times, rows in blocks:
        stop = start + len(block_times)
        times[start:stop] = block_times
        _weighted_sups(grid, rows, eta, rows, norms[start:stop])
        start = stop
    return times, norms

