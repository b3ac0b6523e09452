"""Closed-form layer of the fast-diffusion laboratory.

Everything in this module is exact (up to floating point): model parameters
and regime landmarks, the discrete spectrum of the linearized flow, the
terminating hypergeometric eigenfunction polynomials, essential-spectrum
thresholds in weighted spaces, the rate/weight trade-off tables, and the
time-shifted Barenblatt quotient used as an exact nonlinear solution.

Conventions
-----------
* ``p = 2/(1-m) - n`` is the moment index; the mass-preserving regime is
  ``m in ](n-2)/n, 1[``, i.e. ``p > 0``.
* ``eta_cr = p/2 - 1`` is the weight at which the conjugated operator is
  symmetric in the cigar volume.
* The Barenblatt mass parameter B is a scaling symmetry of the flow and is
  fixed at 1: the geodesic coordinate ``s`` on the cigar satisfies
  ``r = sinh(s)`` and ``cosh^2 s = 1 + r^2``.
* Eigenvalues ``lambda_{lk} = -[(l+2k)p + nl + 4k(1-l-k)]`` for integer
  ``l, k >= 0`` (``l <= 1`` when n = 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

__all__ = [
    "ModelParams",
    "ModeIndex",
    "RateBranch",
    "SecondOrderRates",
    "BranchBoundaryError",
    "derive_params",
    "landmarks",
    "eigenvalue",
    "essential_threshold",
    "is_admissible",
    "admissible_modes",
    "MAX_MODES",
    "ModeCountError",
    "eigenfunction_psi",
    "eigenfunction_v",
    "potential_profile",
    "eta_for_target_rate",
    "second_order_candidates",
    "lambda_second_order",
    "second_order_rates",
    "delayed_barenblatt_v",
    "P_STAR",
]

# The longest list admissible_modes builds: it holds about (p/2+1)^2/4
# modes at eta_cr, 250 500 at m = 0.999 (n = 2, 3), 25 million at m = 0.9999
MAX_MODES = 300_000

# Boundary between the two n=1 rate branches (intersection of the continuum
# threshold -(p/2+1)^2 with -2(p+n) at n=1).
P_STAR = 2.0 * (math.sqrt(2.0) + 1.0)


@dataclass(frozen=True)
class ModelParams:
    """The (n, m) pair with derived quantities.

    Use :func:`derive_params` to construct; the derived fields are redundant
    and must satisfy p = 2/(1-m) - n, beta = (1 + n/p)/2, eta_cr = p/2 - 1.
    """

    n: int
    m: float
    p: float
    beta: float
    eta_cr: float

    @property
    def a(self) -> float:
        """Barenblatt exponent 1/(1-m) = (n+p)/2."""
        return 1.0 / (1.0 - self.m)

    @property
    def lambda_cont(self) -> float:
        """Essential-spectrum onset -(p/2+1)^2 at eta = eta_cr, l = 0."""
        return -((self.p / 2.0 + 1.0) ** 2)

    @property
    def lambda_01(self) -> float:
        """Leading decay rate -2p of the (0, 1) mode."""
        return -2.0 * self.p


def derive_params(n: int, m: float, B: float = 1.0) -> ModelParams:
    """Validate (n, m) and populate the derived parameters.

    B, the Barenblatt mass parameter, is a scaling symmetry the library
    fixes at 1; any other value is refused.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"spatial dimension n must be an integer >= 1, got {n!r}")
    if B != 1.0:
        raise ValueError(
            f"Barenblatt parameter B is a scaling symmetry fixed at 1, got {B!r}")
    m0 = (n - 2.0) / n
    if not (m0 < m < 1.0):
        raise ValueError(
            f"m={m} outside the mass-preserving range ]{m0}, 1[ for n={n}"
        )
    p = 2.0 / (1.0 - m) - n
    if not p > 0.0:
        raise ValueError(
            f"m={m!r} is too close to (n-2)/n for n={n}: p = 2/(1-m) - n "
            f"rounds to {p!r}, not positive"
        )
    beta = 0.5 * (1.0 + n / p)
    return ModelParams(n=int(n), m=float(m), p=p, beta=beta,
                       eta_cr=p / 2.0 - 1.0)


def landmarks(params: ModelParams) -> dict[str, float]:
    """Regime boundaries m_q = 1 - 2/(n+q).

    Keys: ``m_0``, ``m_1``, ``m_2``, ``m_6``, ``m_n``, ``m_n+4``; for n = 1
    additionally ``m_p*`` where p* = 2(sqrt(2)+1) splits the two rate
    branches.
    """
    n = params.n
    qs = {"m_0": 0, "m_1": 1, "m_2": 2, "m_6": 6, "m_n": n, "m_n+4": n + 4}
    out = {key: 1.0 - 2.0 / (n + q) for key, q in qs.items()}
    if n == 1:
        out["m_p*"] = 1.0 - 2.0 / (1.0 + P_STAR)
    return out


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Angular/radial quantum numbers (l, k)."""

    ell: int
    k: int

    def __post_init__(self):
        if self.ell < 0 or self.k < 0:
            raise ValueError(f"mode indices must be non-negative, got {self}")

    @property
    def degree(self) -> int:
        """Polynomial degree l + 2k of the eigenfunction."""
        return self.ell + 2 * self.k


# ---------------------------------------------------------------------------
# Spectrum
# ---------------------------------------------------------------------------

def eigenvalue(mode: ModeIndex, params: ModelParams) -> float:
    """Discrete eigenvalue lambda_{lk} of the linearized flow."""
    ell, k = mode.ell, mode.k
    return -((ell + 2 * k) * params.p + params.n * ell + 4 * k * (1 - ell - k))


def essential_threshold(ell: int, eta: float, params: ModelParams) -> float:
    """Real-part maximum of the essential spectrum of L_{l,eta}.

    (eta - eta_cr)^2 - (p/2 + 1)^2 - l(l + n - 2); at eta = eta_cr, l = 0
    this is the continuum onset -(p/2+1)^2, and at eta = 0, p > 2 it equals
    lambda_01 = -2p.
    """
    de = eta - params.eta_cr
    return de * de - (params.p / 2.0 + 1.0) ** 2 - ell * (ell + params.n - 2)


def _k_bound(ell: int, eta: float, params: ModelParams) -> float:
    return 0.5 * (params.p / 2.0 + 1.0 - ell - abs(eta - params.eta_cr))


def is_admissible(mode: ModeIndex, eta: float, params: ModelParams) -> bool:
    """Whether (l, k) is an eigenvalue of L_{l,eta}: k < [p/2+1-l-|eta-eta_cr|]/2."""
    if params.n == 1 and mode.ell > 1:
        return False
    return mode.k < _k_bound(mode.ell, eta, params)


class ModeCountError(ValueError):
    """An admissible-mode list longer than MAX_MODES, refused unbuilt."""


def admissible_modes(eta: float,
                     params: ModelParams) -> list[tuple[ModeIndex, float]]:
    """All admissible (mode, eigenvalue) pairs at weight eta, descending lambda.

    Ties (eigenvalue crossings) are ordered by (l, k).  A list longer
    than ``MAX_MODES`` is refused (ModeCountError) before it is built.
    """
    # sector l <= L holds the k < (c - l)/2, c = p/2+1-|eta-eta_cr|: that is
    # (L - l)//2 + 1 modes, L the largest integer below c (-1 if none)
    L = max(math.ceil(2.0 * _k_bound(0, eta, params)) - 1, -1)
    count = (sum((L - ell) // 2 + 1 for ell in range(min(L, 1) + 1))
             if params.n == 1 else L + 1 + (L // 2) * ((L + 1) // 2))
    if count > MAX_MODES:
        raise ModeCountError(
            f"p={params.p:.6g} has {count} admissible modes at "
            f"eta={eta:.6g}, more than the {MAX_MODES} a list may hold: "
            f"m is too close to 1")
    out = []
    ell = 0
    while _k_bound(ell, eta, params) > 0:
        if params.n == 1 and ell > 1:
            break
        k = 0
        while k < _k_bound(ell, eta, params):
            mode = ModeIndex(ell, k)
            out.append((mode, eigenvalue(mode, params)))
            k += 1
        ell += 1
    out.sort(key=lambda it: (-it[1], it[0].ell, it[0].k))
    return out


def _psi_coefficients(mode: ModeIndex, params: ModelParams) -> list[float]:
    """Coefficients c_j of psi_{lk}(r) = r^l sum_j c_j r^{2j}.

    Terminating 2F1(k+l-1-p/2, -k; l+n/2; -r^2) series.  The Pochhammer
    ratios are accumulated in exact rational arithmetic on the binary64
    value of p (floats are rational), then rounded once.
    """
    ell, k = mode.ell, mode.k
    a = Fraction(ell + k - 1) - Fraction(params.p) / 2
    b = Fraction(-k)
    c = Fraction(ell) + Fraction(params.n, 2)
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for j in range(k):
        # (a)_j (b)_j / ((c)_j j!) * (-1)^j, one factor at a time
        term *= -(a + j) * (b + j)
        term /= (c + j) * (j + 1)
        coeffs.append(term)
    return [float(cj) for cj in coeffs]


def eigenfunction_psi(mode: ModeIndex, r, params: ModelParams,
                      eta: float | None = None):
    """Polynomial eigenfunction psi_{lk}(r), exact degree l + 2k.

    Admissibility is checked at eta (default eta_cr).
    """
    if eta is None:
        eta = params.eta_cr
    if not is_admissible(mode, eta, params):
        raise ValueError(f"mode {mode} not admissible at eta={eta}")
    rr = np.asarray(r, dtype=float)
    z = rr * rr
    coeffs = _psi_coefficients(mode, params)
    acc = np.zeros_like(z) + coeffs[-1]
    for cj in reversed(coeffs[:-1]):
        acc = acc * z + cj
    return rr ** mode.ell * acc


def eigenfunction_v(mode: ModeIndex, s, params: ModelParams,
                    eta: float | None = None):
    """Relative-density eigenfunction v_{lk}(s) = psi_{lk}(r) / (1 + r^2)
    with r = sinh s, i.e. (cosh s)^-2 psi(sinh s)."""
    r = np.sinh(np.asarray(s, dtype=float))
    return eigenfunction_psi(mode, r, params, eta) / (1.0 + r * r)


def potential_profile(eta: float, params: ModelParams) -> dict[str, float]:
    """Far-field data of the conjugated operator L_eta.

    c_inf = -(p - eta)(2 + eta) bounds the semigroup decay, b_inf is the
    asymptotic outward drift -(p - 2 eta - 2), and the potential well has the
    universal sech^2 profile of depth (p + n - eta)(2 + eta).
    """
    p = params.p
    return {
        "c_inf": -(p - eta) * (2.0 + eta),
        "b_inf": -(p - 2.0 * eta - 2.0),
        "depth": (p + params.n - eta) * (2.0 + eta),
    }


def eta_for_target_rate(Lambda: float, params: ModelParams) -> float:
    """Weight eta <= eta_cr whose l = 0 essential threshold equals Lambda.

    Lambda within 4 ulps below the onset -(p/2+1)^2 is the onset itself
    (eta = eta_cr): p carries the rounding of 2/(1-m), e.g. -6.25 at m = 2/3.
    """
    lam0 = params.lambda_cont
    if lam0 - 4.0 * math.ulp(lam0) <= Lambda < lam0:
        return params.eta_cr
    if not (lam0 <= Lambda < 0.0):
        raise ValueError(
            f"target rate {Lambda} outside [{lam0}, 0[ for p={params.p}"
        )
    return params.eta_cr - math.sqrt(Lambda - lam0)


# ---------------------------------------------------------------------------
# Second-order rate/weight table
# ---------------------------------------------------------------------------

class RateBranch(str, Enum):
    """Which spectral object binds the second-order rate."""

    TIGHT = "continuum-tight"   # m < m_2, eta_cr < 0
    CONTINUUM = "continuum"     # Lambda = -(p/2+1)^2
    LAMBDA02 = "lambda02"       # Lambda = -4p+8
    LAMBDA20 = "lambda20"       # Lambda = -2(p+n)


class BranchBoundaryError(ValueError):
    """Raised at m = m_2 exactly; the message states the one-sided limits."""


@dataclass(frozen=True)
class SecondOrderRates:
    """Rate gamma and weight delta after modding out mass/center/time-shift."""

    gamma: float
    delta: float
    branch: RateBranch
    Lambda: float
    eta: float


def second_order_candidates(params: ModelParams) -> list[tuple[float, RateBranch]]:
    """Candidate rates (Lambda, branch) below lambda_01 after the time shift.

    The continuum onset -(p/2+1)^2, the quadrupole value -2(p+n) (used for
    every n, with the n = 1 crossing at p* = 2(sqrt(2)+1)), and -4p+8, which
    is an eigenvalue only for p > 6.
    """
    p = params.p
    cands = [(-((p / 2.0 + 1.0) ** 2),
              RateBranch.TIGHT if p < 2.0 else RateBranch.CONTINUUM),
             (-2.0 * (p + params.n), RateBranch.LAMBDA20)]
    if p > 6.0:
        cands.append((-4.0 * p + 8.0, RateBranch.LAMBDA02))
    return cands


def lambda_second_order(params: ModelParams) -> tuple[float, RateBranch]:
    """Spectral gap Lambda below lambda_01 once the time shift is modded out:
    the largest of :func:`second_order_candidates`."""
    return max(second_order_candidates(params), key=lambda it: it[0])


def second_order_rates(params: ModelParams) -> SecondOrderRates:
    """(gamma, delta) of the second-order asymptotics, with its branch.

    gamma = Lambda/lambda_01 and delta = eta(Lambda)/(n+p), where
    eta(Lambda) = eta_cr - sqrt(Lambda + (p/2+1)^2); the branch records which
    spectral object saturates Lambda.  m = m_2 exactly (p = 2) is rejected as
    the branch boundary; the message states both one-sided limits.
    """
    p = params.p
    if p == 2.0:
        raise BranchBoundaryError(
            "m = m_2 exactly: branch boundary; one-sided limits "
            "(gamma, delta) = (1.0, 0.0) on both sides"
        )
    Lambda, branch = lambda_second_order(params)
    eta = eta_for_target_rate(Lambda, params)
    return SecondOrderRates(
        gamma=Lambda / params.lambda_01,
        delta=eta / (params.n + p),
        branch=branch,
        Lambda=Lambda,
        eta=eta,
    )


# ---------------------------------------------------------------------------
# Delayed Barenblatt (exact solution of the rescaled flow)
# ---------------------------------------------------------------------------

def _delayed_theta(t: float, tau0: float, params: ModelParams) -> float:
    E = math.exp(2.0 * params.p * t)
    Ep = E + 2.0 * params.p * tau0
    if Ep <= 0.0:
        raise ValueError(
            f"time shift tau0={tau0} leaves the domain at t={t}: 1+2p(tau+tau0)<=0"
        )
    return (E / Ep) ** params.beta


def delayed_barenblatt_v(t, s, tau0: float, Bplus: float,
                         params: ModelParams):
    """Relative density of the time-shifted Barenblatt rho_{B+}(tau + tau0).

    Exact solution of the rescaled radial flow; with theta(t) =
    [(1+2p tau)/(1+2p(tau+tau0))]^beta,

        v(t, s) = theta^n [ cosh^2 s / (B+ + theta^2 sinh^2 s) ]^((n+p)/2).

    v == 1 for tau0 = 0, B+ = 1; v -> u_{B+}/u_B uniformly at rate e^{-2pt};
    v -> theta^{-p} as s -> infinity at fixed t.

    ``t`` is one time or a sequence of times; a sequence gives one row per
    time, each bitwise the value at that time alone (theta and theta^n
    are formed per time as floats, sinh^2 s once per call).
    """
    if Bplus <= 0.0:
        raise ValueError(f"Bplus must be positive, got {Bplus}")
    scalar = np.ndim(t) == 0
    thetas = [_delayed_theta(ti, tau0, params) for ti in ([t] if scalar else t)]
    shape = () if scalar else (len(thetas), 1)
    theta_n = np.reshape([th ** params.n for th in thetas], shape)
    theta2 = np.reshape([th * th for th in thetas], shape)
    ss = np.asarray(s, dtype=float)
    sh2 = np.sinh(ss) ** 2
    ratio = (1.0 + sh2) / (Bplus + theta2 * sh2)
    return theta_n * ratio ** params.a
