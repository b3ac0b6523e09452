"""Acceptance criterion runners, shared by the CLI selftest and the test suite.

Each runner checks one quantitative claim at desk scale and returns
CheckResult rows.  The full resolutions (fast=False) are the ones the
acceptance tests pin; fast=True trades grid and horizon for speed in the
CLI `selftest` subcommand while keeping every comparison structure intact.

The independent solves of criteria 1-6, 8 and 9 form one schedule per
resolution (``_schedule``), run longest first through one
``_pool.map_ordered`` call by the first criterion that needs it (criterion
1 in ``run_selftest``) and cached (``_solves``); each criterion then judges
the results it owns, keyed in its own item order.  Criteria 7 and 11 judge
criterion 3's traces.  Criterion 10 runs in the calling process: it is the
only caller of ``affine``, which a profiler of the calling process would
not see in a worker, and it costs about as much as one short solve.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _pool, affine, asymptotics, closedform, evolve, geometry, linop
from .asymptotics import WindowPolicy
from .closedform import ModeIndex, derive_params

__all__ = ["CheckResult", "run_selftest"]


@dataclass(frozen=True)
class CheckResult:
    criterion: str
    detail: str
    value: float
    bound: str
    passed: bool


ACCEPTANCE_CASES = ((3, 2.0 / 3.0), (1, 0.5), (3, 0.8))


def _eigenvalue_errors(case):
    """Criterion 1's spectrum of one (n, m) case (a pool worker): each
    admissible mode with its eigenvalue error and tolerance (5e-2 within 0.5
    of the continuum threshold, else 1e-2), and the compute seconds."""
    n, m, fast = case
    t0 = time.perf_counter()
    params = derive_params(n, m)
    grid = geometry.make_grid(12.0, 600 if fast else 1200)
    modes = sorted(md for md, _ in
                   closedform.admissible_modes(params.eta_cr, params))
    per_ell = {}
    for md in modes:
        per_ell.setdefault(md.ell, []).append(md)
    errors = []
    for ell, mds in per_ell.items():
        op = linop.assemble(ell, params.eta_cr, grid, params)
        rep = linop.top_eigenvalues(op, len(mds), match_tol=0.2)
        matched = {e.mode: e for e in rep.entries if e.mode is not None}
        for md in mds:
            lam = closedform.eigenvalue(md, params)
            tol = 5e-2 if abs(lam - rep.threshold) < 0.5 else 1e-2
            err = abs(matched[md].error) if md in matched else float("inf")
            errors.append((md, err, tol))
    return errors, time.perf_counter() - t0


def criterion_1_eigenvalues(fast: bool = False) -> list[CheckResult]:
    """Discrete spectrum matches closed form within 1e-2 (5e-2 near threshold)."""
    results = []
    for (n, m, _), (errors, seconds) in _owned(1, fast).items():
        for md, err, tol in errors:
            results.append(CheckResult(
                "1-eigenvalues", f"n={n} m={m:.4g} mode=({md.ell},{md.k})",
                err, f"<= {tol}", err <= tol))
        results.append(CheckResult(
            "1-eigenvalues", f"n={n} m={m:.4g} runtime_s", seconds, "< 10",
            seconds < 10.0))
    return results


def _eigen_residuals(case):
    """Criterion 2's residuals of one (n, m) case (a pool worker): each
    admissible mode with its eigen_residual at h = 0.01 and at h/2."""
    n, m = case
    params = derive_params(n, m)
    grid = geometry.make_grid(12.0, 1200)
    fine = geometry.refine(grid)
    return [(md, linop.eigen_residual(md, params.eta_cr, grid, params),
             linop.eigen_residual(md, params.eta_cr, fine, params))
            for md in sorted(mode for mode, _ in
                             closedform.admissible_modes(params.eta_cr, params))]


def criterion_2_residuals(fast: bool = False) -> list[CheckResult]:
    """eigen_residual <= 1e-3 at h = 0.01, Richardson ratio 4 +- 20 percent."""
    results = []
    for (n, m), residuals in _owned(2, fast).items():
        for md, r1, r2 in residuals:
            results.append(CheckResult(
                "2-residuals", f"n={n} m={m:.4g} mode=({md.ell},{md.k})",
                r1, "<= 1e-3", r1 <= 1e-3))
            if r1 > 1e-8:  # exact discrete modes sit at rounding level
                ratio = r1 / r2
                results.append(CheckResult(
                    "2-residuals",
                    f"n={n} m={m:.4g} mode=({md.ell},{md.k}) ratio",
                    ratio, "4 +- 0.8", abs(ratio - 4.0) <= 0.8))
    return results


RATE_CASES = ((3, 2.0 / 3.0), (1, 0.5))


def _rate_trace(case):
    """One mass-projected bump run of criteria 3, 7 and 11 (a pool worker):
    its parameters, comparison envelope, trace and compute seconds."""
    n, m, fast = case
    t0 = time.perf_counter()
    params = derive_params(n, m)
    grid = geometry.make_grid(12.0, 600 if fast else 1200)
    state0 = evolve.bump_data(grid, 0.05, seed=7, params=params)
    dt = 2e-3 if fast else 1e-3
    trace = evolve.run(state0, dt, 3.0,
                       evolve.RecordOptions(record_every=5))
    env = evolve.comparison_envelope(state0, params)
    return params, env, trace, time.perf_counter() - t0


def criterion_3_leading_rate(fast: bool = False) -> list[CheckResult]:
    """Mass-projected nonlinear runs decay at lambda_01 = -2p within 5%."""
    results = []
    for (n, m, _), (params, _, trace, seconds) in _owned(3, fast).items():
        fit = asymptotics.fit_rate(trace.times, trace.sup / trace.sup.max())
        rel = abs(fit.slope / (-2.0 * params.p) - 1.0)
        results.append(CheckResult(
            "3-leading-rate", f"n={n} m={m:.4g} slope={fit.slope:.4f}",
            rel, "<= 0.05", rel <= 0.05))
        results.append(CheckResult(
            "3-leading-rate", f"n={n} m={m:.4g} runtime_s", seconds,
            "< 120", seconds < 120.0))
    return results


def _semigroup_modes(eta, params):
    """The l=0 modes above the continuum that criterion 4 projects off."""
    return [md for md, lam in closedform.admissible_modes(eta, params)
            if md.ell == 0 and lam > closedform.essential_threshold(0, eta, params)]


def _slow_modes(params):
    """Criterion 4's weights, each with the retained eigen-component that
    must decay strictly slower than the projected bump."""
    return {eta: [md for md in _semigroup_modes(eta, params)
                  if closedform.eigenvalue(md, params) < 0][-1:]
            for eta in (0.0, params.eta_cr / 2.0, params.eta_cr)}


def _semigroup_items(fast):
    """Criterion 4's runs: the eigenfunction runs (to t = 2, whose window
    opens early enough to take 64 eigenpairs) first, then the bump runs (to
    t = 5, 32 eigenpairs)."""
    slow = _slow_modes(derive_params(3, 2.0 / 3.0))
    return [(fast, eta, md) for eta, mds in slow.items() for md in mds] + [
        (fast, eta, None) for eta in slow]


def _semigroup_slope(item):
    """Fitted slope of one criterion-4 decay under the exact linear
    semigroup (a pool worker): the bump with the modes above the continuum
    projected off or, given ``mode``, that normalized eigenfunction."""
    fast, eta, mode = item
    params = derive_params(3, 2.0 / 3.0)
    grid = geometry.make_grid(12.0, 600 if fast else 1200)
    s = grid.nodes
    dt = 4e-3 if fast else 2e-3
    op = linop.assemble(0, eta, grid, params)
    if mode is None:
        f0 = geometry.GridFunction(grid, 0,
                                   np.cosh(s) ** (-eta) * np.exp(-(s - 1.5) ** 2))
        return linop.semigroup_decay(
            op, f0, _semigroup_modes(eta, params), 5.0, dt, params,
            policy=WindowPolicy(value_lo=1e-9, value_hi=1e-4)).slope
    wv = np.cosh(s) ** (-eta) * closedform.eigenfunction_v(mode, s, params)
    fe = geometry.GridFunction(grid, 0, wv / np.max(np.abs(wv)))
    return linop.semigroup_decay(op, fe, [], 2.0, dt, params,
                                 policy=WindowPolicy(1e-5, 0.5)).slope


def criterion_4_semigroup(fast: bool = False) -> list[CheckResult]:
    """Projected decay under the exact linear semigroup attains c_inf(eta);
    eigen-components are slower."""
    results = []
    params = derive_params(3, 2.0 / 3.0)
    slopes = _owned(4, fast)
    for eta, slow in _slow_modes(params).items():
        cinf = closedform.potential_profile(eta, params)["c_inf"]
        slope = slopes[fast, eta, None]
        hi = cinf + 0.05 * abs(cinf)
        lo = cinf - 0.10 * abs(cinf)
        results.append(CheckResult(
            "4-semigroup", f"eta={eta:.3g} slope={slope:.4f} (c_inf={cinf:.4f})",
            slope, f"[{lo:.4f}, {hi:.4f}]", lo <= slope <= hi))
        for md in slow:
            slope_e = slopes[fast, eta, md]
            results.append(CheckResult(
                "4-semigroup",
                f"eta={eta:.3g} eigen ({md.ell},{md.k}) slope={slope_e:.4f}",
                slope_e - slope, "> 0 (strictly slower)",
                slope_e > slope + 0.02))
    return results


def _second_order_gamma(case):
    """gamma from the time-shift-modded weighted slope of one criterion-5
    run (a pool worker)."""
    m, dt, t_final, policy, count = case
    params = derive_params(3, m)
    grid = geometry.make_grid(12.0, count)
    state0 = evolve.bump_data(grid, 0.05, seed=11, params=params,
                              centers=(3.0, 7.0))
    trace = evolve.run(state0, dt, t_final,
                       evolve.RecordOptions(record_every=4, snapshot_every=4,
                                            diagnostics=False))
    return asymptotics.mod_time_shift(trace, params, policy=policy).gamma


def _second_order_cases(fast):
    """Criterion 5's runs: (m, dt, t_final, fit window, grid count)."""
    if fast:
        return [(0.7, 1e-3, 3.0,
                 WindowPolicy(value_lo=1e-9, value_hi=1e-4, t_hi=2.8), 600)]
    return [
        (0.7, 5e-4, 3.2, WindowPolicy(value_lo=1e-9, value_hi=1e-4, t_hi=2.8),
         1200),
        (0.9, 1e-4, 0.7, WindowPolicy(), 1200),
    ]


def criterion_5_second_order(fast: bool = False) -> list[CheckResult]:
    """gamma from the time-shift-modded weighted slope within 10%."""
    results = []
    for case, gamma in _owned(5, fast).items():
        m = case[0]
        want = closedform.second_order_rates(derive_params(3, m)).gamma
        rel = abs(gamma - want) / want
        results.append(CheckResult(
            "5-second-order", f"m={m} gamma={gamma:.4f} vs {want:.4f}",
            rel, "<= 0.10", rel <= 0.10))
    return results


def _manufactured_error(item):
    """Max error at t = 1 against the delayed Barenblatt of one criterion-6
    run (a pool worker): ``kind`` "be" loops backward-Euler steps, "bdf2"
    runs evolve.run."""
    kind, count, dt = item
    params = derive_params(3, 2.0 / 3.0)
    tau0, bplus = 0.15, 1.0
    grid = geometry.make_grid(12.0, count)

    def boundary(t):
        E = np.exp(2 * params.p * t)
        theta = (E / (E + 2 * params.p * tau0)) ** params.beta
        return theta ** (-params.p) - 1.0

    def exact(t):
        return closedform.delayed_barenblatt_v(t, grid.nodes, tau0, bplus,
                                               params) - 1.0

    st = evolve.EvolutionState(0.0, geometry.GridFunction(grid, 0, exact(0.0)),
                               params)
    steps = int(round(1.0 / dt))
    if kind == "be":
        for _ in range(steps):
            st = evolve.step_nonlinear(st, dt, boundary=boundary)
        w = st.w.values
    else:
        trace = evolve.run(st, dt, 1.0,
                           evolve.RecordOptions(record_every=steps,
                                                snapshot_every=steps,
                                                diagnostics=False),
                           boundary=boundary)
        w = trace.snapshots[-1][1]
    return float(np.max(np.abs(w - exact(1.0))))


def _manufactured_steps(fast):
    """Criterion 6's grid count, backward-Euler and BDF2 steps, and the
    grid counts of its h-order runs."""
    count = 600 if fast else 1200
    be_dts = (2e-2, 1e-2) if fast else (2e-2, 1e-2, 5e-3)
    # the time error of the finer step stays >= 4x the spatial floor of the
    # grid (about 8.6e-5 at h = 0.02, 2.2e-5 at h = 0.01)
    bdf2_dts = (5e-2, 2.5e-2) if fast else (4e-2, 2e-2)
    counts = (150, 300) if fast else (150, 300, 600)
    return count, be_dts, bdf2_dts, counts


def _manufactured_items(fast):
    """Criterion 6's runs: the h-refinement runs, then the BE and the BDF2
    dt runs, each group costliest first."""
    count, be_dts, bdf2_dts, counts = _manufactured_steps(fast)
    return ([("bdf2", c, 2.5e-3) for c in counts[::-1]]
            + [("be", count, dt) for dt in be_dts[::-1]]
            + [("bdf2", count, dt) for dt in bdf2_dts[::-1]])


def criterion_6_manufactured(fast: bool = False) -> list[CheckResult]:
    """Convergence orders vs the delayed Barenblatt: BE dt ~ 1.0, BDF2 dt ~
    2.0, h ~ 2.0."""
    count, be_dts, bdf2_dts, counts = _manufactured_steps(fast)
    errs = _owned(6, fast)

    def order_rows(label, steps, errs, want, tol):
        rows = []
        for j in range(len(errs) - 1):
            order = float(np.log2(errs[j] / errs[j + 1]))
            rows.append(CheckResult(
                "6-manufactured", f"{label} ({steps[j]:g}->{steps[j+1]:g})",
                order, f"{want} +- {tol}", abs(order - want) <= tol))
        return rows

    return (order_rows("dt-order", be_dts,
                       [errs["be", count, dt] for dt in be_dts], 1.0, 0.2)
            + order_rows("BDF2 dt-order", bdf2_dts,
                         [errs["bdf2", count, dt] for dt in bdf2_dts], 2.0, 0.3)
            + order_rows("h-order", [12 / c for c in counts],
                         [errs["bdf2", c, 2.5e-3] for c in counts], 2.0, 0.3))


def criterion_7_conservation(fast: bool = False) -> list[CheckResult]:
    """Mass drift <= 1e-6 per unit time; extrema inside the envelope."""
    results = []
    for (n, m, _), (_, env, trace, _) in _owned(3, fast).items():
        drift = float(np.max(np.abs(trace.mass_defect - trace.mass_defect[0])))
        per_t = drift / (trace.times[-1] - trace.times[0])
        results.append(CheckResult(
            "7-conservation", f"n={n} m={m:.4g} mass drift/time",
            per_t, "<= 1e-6", per_t <= 1e-6))
        inside = bool(trace.min_v.min() >= env.lower - 1e-12
                      and trace.max_v.max() <= env.upper + 1e-12)
        results.append(CheckResult(
            "7-conservation",
            f"n={n} m={m:.4g} extrema in [{env.lower:.4f},{env.upper:.4f}]",
            float(trace.max_v.max()), "inside", inside))
    return results


COEFFICIENT_EPS = 0.02  # criterion 8's eigenmode amplitude


def _coefficient_run(item):
    """One criterion-8 run (a pool worker): the recovered (0,1) amplitude
    limit of an eigenmode run, or the relative oscillation of the k = 0
    series of a bump run."""
    kind, count = item
    params = derive_params(3, 2.0 / 3.0)
    grid = geometry.make_grid(12.0, count)
    if kind == "amplitude":
        state0 = evolve.eigenmode_data(grid, ModeIndex(0, 1), COEFFICIENT_EPS,
                                       params)
        trace = evolve.run(state0, 1e-3, 0.6,
                           evolve.RecordOptions(record_every=5, snapshot_every=5,
                                                diagnostics=False))
        return asymptotics.extract_coefficient(trace, ModeIndex(0, 1),
                                               params).limit
    state1 = evolve.bump_data(grid, 0.05, seed=3, params=params,
                              project_mass=False)
    trace1 = evolve.run(state1, 1e-3, 1.0,
                        evolve.RecordOptions(record_every=10, snapshot_every=10,
                                             diagnostics=False))
    c = asymptotics.extract_coefficient(trace1, ModeIndex(0, 0),
                                        params).estimates[:, 1]
    return float((c.max() - c.min()) / abs(c.mean()))


def criterion_8_coefficients(fast: bool = False) -> list[CheckResult]:
    """Eigenmode amplitude recovered within 5%; k = 0 series flat to 1e-6."""
    runs = _owned(8, fast)
    count = 600 if fast else 1200
    limit, flat = runs["amplitude", count], runs["k0", count]
    rel = abs(limit - COEFFICIENT_EPS) / COEFFICIENT_EPS
    return [CheckResult("8-coefficients", f"amplitude recovery limit={limit:.5f}",
                        rel, "<= 0.05", rel <= 0.05),
            CheckResult("8-coefficients", "k=0 series oscillation",
                        flat, "<= 1e-6", flat <= 1e-6)]


def _subcritical_slope(fast):
    """Fitted slope of criterion 9's critically weighted decay under the
    exact linear semigroup at (3, 0.55) (a pool worker)."""
    params = derive_params(3, 0.55)
    grid = geometry.make_grid(12.0, 600 if fast else 1200)
    s = grid.nodes
    op = linop.assemble(0, params.eta_cr, grid, params)
    modes = [md for md, _ in closedform.admissible_modes(params.eta_cr, params)
             if md.ell == 0]
    f0 = geometry.GridFunction(
        grid, 0, np.cosh(s) ** (-params.eta_cr) * np.exp(-(s - 1.5) ** 2))
    return linop.semigroup_decay(op, f0, modes, 8.0, 4e-3, params).slope


def criterion_9_subcritical(fast: bool = False) -> list[CheckResult]:
    """m < m_2: critically weighted decay under the exact linear semigroup
    reaches -(p/2+1)^2."""
    params = derive_params(3, 0.55)
    (slope,) = _owned(9, fast).values()
    bound = -0.97 * (params.p / 2.0 + 1.0) ** 2
    return [CheckResult("9-subcritical",
                        f"(3,0.55) eta_cr slope={slope:.4f}",
                        slope, f"<= {bound:.4f}", slope <= bound)]


def criterion_10_affine(fast: bool = False) -> list[CheckResult]:
    """Affine family (closed-form cB): scaled PDE residual <= 1e-4, second order."""
    params = derive_params(2, 2.0 / 3.0)
    state = affine.make_affine_state(np.diag([0.25, -0.25]), 1.0, params)
    h = 0.003125  # cheap enough that fast mode keeps the full resolution
    dfd = h / 2.0
    r1 = affine.affine_pde_residual(state, params, h=h, dtau_fd=dfd)
    r2 = affine.affine_pde_residual(state, params, h=h / 2.0,
                                    dtau_fd=dfd / 2.0)
    ratio = r1 / r2
    results = [
        CheckResult("10-affine", f"scaled residual h={h}", r1, "<= 1e-4",
                    r1 <= 1e-4),
        CheckResult("10-affine", "refinement ratio", ratio, "4 +- 1.5",
                    abs(ratio - 4.0) <= 1.5),
    ]
    return results


def criterion_11_energy(fast: bool = False) -> list[CheckResult]:
    """E(t) of a mass-projected small run decays at 2 lambda_01 within 10%."""
    results = []
    params, _, trace, _ = _owned(3, fast)[3, 2.0 / 3.0, fast]
    fit = asymptotics.fit_rate(trace.times, trace.energy / trace.energy.max(),
                               WindowPolicy(value_lo=1e-12, value_hi=1e-2))
    target = 2.0 * (-2.0 * params.p)
    rel = abs(fit.slope / target - 1.0)
    results.append(CheckResult("11-energy",
                               f"E-slope {fit.slope:.3f} vs {target}",
                               rel, "<= 0.10", rel <= 0.10))
    return results


def _solve_items(fast):
    """Each scheduled criterion's worker and its items at one resolution,
    as {owner: (worker, items)}: the owners in schedule order, each owner's
    items in its own order (costliest first for criteria 4, 6 and 8)."""
    count = 600 if fast else 1200
    return {
        5: (_second_order_gamma, _second_order_cases(fast)),
        3: (_rate_trace, [(n, m, fast) for n, m in RATE_CASES]),
        8: (_coefficient_run, [("k0", count), ("amplitude", count)]),
        4: (_semigroup_slope, _semigroup_items(fast)),
        9: (_subcritical_slope, [fast]),
        6: (_manufactured_error, _manufactured_items(fast)),
        2: (_eigen_residuals,
            list(ACCEPTANCE_CASES[:1] if fast else ACCEPTANCE_CASES)),
        1: (_eigenvalue_errors, [(n, m, fast) for n, m in ACCEPTANCE_CASES]),
    }


def _schedule(fast):
    """Every independent solve of criteria 1-6, 8 and 9 at one resolution,
    as (owner, worker, item), in dispatch order.

    Longest first, so that greedy list scheduling on two workers ends with
    the short solves and the workers finish close together.  Serial ms per
    solve at the fast resolution (medians of five fresh processes, each
    running the schedule in order, on a 2-core x86 machine): criterion 5
    118; criterion 3 56 and 53; criterion 8 34 (k0) and 21 (amplitude);
    criterion 4 30 and 31 (each eigenfunction decay) and 11 (each bump
    decay); criterion 9 12; criterion 6 10, 9, 5, 2, 2 and 1; criterion 2
    5; criterion 1 2, 2 and 4.  The owners go in the order of their costliest
    solve, each owner's solves in its own order (``_solve_items``).

    Criterion 10 (22 ms) stays in the calling process: it is the only
    caller of ``affine``, and a profiler or tracer of the calling process
    does not see what the workers run.
    """
    return [(owner, fn, item)
            for owner, (fn, items) in _solve_items(fast).items()
            for item in items]


@dataclass(frozen=True)
class _Failed:
    """A scheduled solve's exception, with the text of the traceback it
    had where it was raised (a pickled exception loses its traceback)."""
    exc: Exception
    traceback_text: str


class _SolveTraceback(Exception):
    """The cause of a re-raised solve error: the worker's traceback."""


def _call(job):
    """Run one scheduled solve (a pool worker): ``fn(item)``, or the
    exception it raised, returned as a value so that the criterion that
    owns the item raises it."""
    fn, item = job
    try:
        return fn(item)
    except Exception as exc:
        return _Failed(exc, traceback.format_exc())


@lru_cache(maxsize=2)
def _solves(fast):
    """The results of ``_schedule(fast)``, keyed by owner, then by item in
    the owner's own order (``_solve_items``).

    Computed once per resolution, by the first criterion that asks, in one
    ``map_ordered`` call that returns before that criterion does.  They are
    shared, so criterion 3's trace arrays (which criteria 7 and 11 read
    too) are read-only.  A solve that raised holds its ``_Failed``.
    """
    schedule = _schedule(fast)
    results = _pool.map_ordered(_call, [(fn, item) for _, fn, item in schedule])
    by_solve = {(owner, item): result
                for (owner, _, item), result in zip(schedule, results)}
    # keyed in each owner's own item order, whatever the dispatch order
    solves = {owner: {item: by_solve[owner, item] for item in items}
              for owner, (_, items) in _solve_items(fast).items()}
    for run in solves[3].values():
        if not isinstance(run, _Failed):
            trace = run[2]
            for arr in (trace.times, trace.sup, trace.mass_defect, trace.energy,
                        trace.min_v, trace.max_v, *trace.weighted.values()):
                arr.flags.writeable = False
    return solves


def _owned(owner, fast):
    """The results of criterion ``owner``'s solves, keyed by item, in the
    owner's own item order; the first solve of its that raised raises here."""
    results = _solves(fast)[owner]
    for result in results.values():
        if isinstance(result, _Failed):
            raise result.exc from _SolveTraceback(result.traceback_text)
    return results


ALL_CRITERIA = (
    criterion_1_eigenvalues,
    criterion_2_residuals,
    criterion_3_leading_rate,
    criterion_4_semigroup,
    criterion_5_second_order,
    criterion_6_manufactured,
    criterion_7_conservation,
    criterion_8_coefficients,
    criterion_9_subcritical,
    criterion_10_affine,
    criterion_11_energy,
)


def run_selftest(fast: bool = True) -> list[CheckResult]:
    results = []
    for runner in ALL_CRITERIA:
        results.extend(runner(fast=fast))
    return results
