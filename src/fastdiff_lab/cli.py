"""Command-line front end: reproducible experiments over the library.

Subcommands: spectrum, evolve, expand, sweep, modes, selftest.
Exit codes: 0 success, 2 config validation, 3 solver or analysis failure,
4 selftest tolerance failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

import numpy as np

from . import _pool, asymptotics, closedform, evolve, geometry, linop
from .asymptotics import AnalysisError
from .closedform import ModeIndex, derive_params
from .config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    load_config,
)
from .evolve import EvolveError
from .linop import EigensolveError
from .reporting import ReportBundle, default_output_dir

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_SELFTEST = 4

# the detail of a selftest row that measures wall-clock seconds
RUNTIME_SUFFIX = " runtime_s"


def _params(cfg: ExperimentConfig):
    return derive_params(cfg.model.n, cfg.model.m, cfg.model.B)


def _grid(cfg: ExperimentConfig):
    return geometry.make_grid(cfg.grid.s_max, cfg.grid.count)


def _require_unit_b(cfg: ExperimentConfig):
    """The nonlinear solver normalizes B to 1 while the pairings read
    psi(r^2/B), so a run with B != 1 would mix two Barenblatts."""
    if cfg.model.B != 1.0:
        raise ConfigError(
            f"model.B: nonlinear runs normalize B to 1 (B is a scaling "
            f"symmetry), got {cfg.model.B}"
        )


def _require_lambda_window(cfg: ExperimentConfig, params):
    """expand measures Lambda in the weight eta(Lambda), which exists from
    the l=0 continuum -(p/2+1)^2 on; the expansion residual needs
    2 lambda_01 < Lambda <= lambda_01."""
    Lambda = cfg.analysis.lambda_target
    if Lambda is None:
        return
    lam01 = -2.0 * params.p
    try:  # the continuum side, with its rounding tolerance
        closedform.eta_for_target_rate(Lambda, params)
        if 2.0 * lam01 < Lambda <= lam01:
            return
    except ValueError:
        pass
    lo = max(2.0 * lam01, params.lambda_cont)
    bracket = "]" if lo == 2.0 * lam01 else "["
    raise ConfigError(
        f"analysis.lambda_target: {Lambda} outside {bracket}{lo!r}, "
        f"{lam01!r}] for p={params.p!r}, the window "
        f"max(2 lambda_01, -(p/2+1)^2) <= Lambda <= lambda_01 with "
        f"Lambda > 2 lambda_01"
    )


def _policy(cfg: ExperimentConfig):
    a = cfg.analysis
    return asymptotics.WindowPolicy(value_lo=a.fit_value_lo,
                                    value_hi=a.fit_value_hi,
                                    t_lo=a.fit_t_lo, t_hi=a.fit_t_hi)


def _initial_state(cfg: ExperimentConfig, params, grid):
    i = cfg.initial_data
    if i.kind == "eigenmode":
        return evolve.eigenmode_data(grid, ModeIndex(0, i.k), i.amplitude, params)
    if i.kind == "bump":
        return evolve.bump_data(grid, i.amplitude, i.seed, params,
                                project_mass=i.project_mass, centers=i.centers)
    return evolve.delayed_barenblatt_data(grid, i.tau0, i.bplus, params)


def _run(cfg: ExperimentConfig, params, etas=(), diagnostics=True):
    """The nonlinear run of cfg from its initial data, recording the
    weighted sup norms of ``etas``, or no diagnostics at all."""
    state0 = _initial_state(cfg, params, _grid(cfg))
    return evolve.run(
        state0, cfg.time.dt, cfg.time.t_final,
        evolve.RecordOptions(etas=etas, record_every=cfg.time.record_every,
                             snapshot_every=cfg.time.snapshot_every,
                             diagnostics=diagnostics),
    )


def _etas(cfg: ExperimentConfig, params) -> list[float]:
    if cfg.analysis.etas:
        return list(cfg.analysis.etas)
    return [0.0, params.eta_cr]


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_spectrum(cfg: ExperimentConfig) -> ReportBundle:
    """Closed-form eigenvalues/thresholds and the discrete comparison table."""
    params = _params(cfg)
    grid = _grid(cfg)
    bundle = ReportBundle("spectrum", cfg.to_dict())

    closed_rows = []
    for eta in _etas(cfg, params):
        for mode, lam in closedform.admissible_modes(eta, params):
            closed_rows.append([eta, mode.ell, mode.k, lam])
    bundle.add_table("closed_form", ["eta", "ell", "k", "lambda"], closed_rows)

    thr_rows = [[eta, ell, closedform.essential_threshold(ell, eta, params)]
                for eta in _etas(cfg, params) for ell in cfg.analysis.ell_list
                if not (params.n == 1 and ell > 1)]
    bundle.add_table("thresholds", ["eta", "ell", "threshold"], thr_rows)

    disc_rows = []
    for eta in _etas(cfg, params):
        for ell in cfg.analysis.ell_list:
            if params.n == 1 and ell > 1:
                continue
            op = linop.assemble(ell, eta, grid, params)
            rep = linop.top_eigenvalues(op, cfg.analysis.eigen_count)
            for e in rep.entries:
                disc_rows.append([
                    eta, ell, e.value,
                    e.mode.ell if e.mode else "",
                    e.mode.k if e.mode else "",
                    e.closed_form if e.mode else "",
                    e.error if e.mode else "",
                    e.continuum_artifact,
                ])
    bundle.add_table(
        "discrete",
        ["eta", "ell", "value", "match_ell", "match_k", "closed_form",
         "error", "continuum_artifact"],
        disc_rows,
    )
    matched = [r for r in disc_rows if r[6] != ""]
    found = {(r[0], r[3], r[4]) for r in matched}
    solved = {(r[0], r[1]) for r in disc_rows}
    # a closed-form mode no eigenvalue matched, with its gap to the
    # continuum: its eigenfunction decays like exp(-sqrt(gap) s), so a
    # decay length near s_max or beyond leaves it unresolved
    unmatched = []
    for eta, ell, k, lam in closed_rows:
        if (eta, ell) in solved and (eta, ell, k) not in found:
            gap = float(lam - closedform.essential_threshold(ell, eta, params))
            unmatched.append({"eta": eta, "ell": ell, "k": k, "lambda": lam,
                              "gap": gap,
                              "decay_length": gap ** -0.5 if gap > 0 else None})
    bundle.summary = {
        "p": params.p,
        "eta_cr": params.eta_cr,
        "matched_count": len(matched),
        "max_match_error": max((abs(r[6]) for r in matched), default=None),
        "unmatched": unmatched,
    }
    return bundle


def cmd_modes(cfg: ExperimentConfig) -> ReportBundle:
    """Admissible (l, k, lambda) per requested weight plus landmarks."""
    params = _params(cfg)
    bundle = ReportBundle("modes", cfg.to_dict())
    rows = []
    for eta in _etas(cfg, params):
        for mode, lam in closedform.admissible_modes(eta, params):
            rows.append([eta, mode.ell, mode.k, lam,
                         closedform.essential_threshold(mode.ell, eta, params)])
    bundle.add_table("modes", ["eta", "ell", "k", "lambda", "threshold"], rows)
    lm = closedform.landmarks(params)
    bundle.add_table("landmarks", ["name", "value"],
                     [[k, v] for k, v in sorted(lm.items())])
    bundle.summary = {"p": params.p, "eta_cr": params.eta_cr,
                      "count": {f"eta={eta}": sum(1 for r in rows if r[0] == eta)
                                for eta in _etas(cfg, params)}}
    return bundle


def cmd_evolve(cfg: ExperimentConfig) -> ReportBundle:
    """Nonlinear radial run: trace CSV plus fitted decay rates."""
    _require_unit_b(cfg)
    params = _params(cfg)
    etas = tuple(e for e in _etas(cfg, params) if e != 0.0)
    bundle = ReportBundle("evolve", cfg.to_dict())
    with bundle.stage("run"):
        trace = _run(cfg, params, etas)
    header = ["t", "sup_norm"] + [f"sup_eta_{eta:g}" for eta in etas] + \
        ["mass_defect", "energy", "min_v", "max_v"]
    rows = []
    for j, t in enumerate(trace.times):
        row = [t, trace.sup[j]]
        row += [trace.weighted[eta][j] for eta in etas]
        row += [trace.mass_defect[j], trace.energy[j],
                trace.min_v[j], trace.max_v[j]]
        rows.append(row)
    bundle.add_table("trace", header, rows)

    policy = _policy(cfg)
    rate_rows, fits = [], []
    series = [("sup", 0.0, trace.sup)] + [
        (f"sup_eta_{eta:g}", eta, trace.weighted[eta]) for eta in etas]
    with bundle.stage("analysis"):
        for name, eta, values in series:
            fit = asymptotics.fit_rate_or_widen(trace.times, values, policy)
            fits.append((name, fit))
            rate_rows.append([name, eta, fit.slope, fit.r_squared,
                              fit.window[0], fit.window[1]])
        drift = float(np.max(np.abs(trace.mass_defect
                                    - trace.mass_defect[0])))
    bundle.add_table("rates", ["norm", "eta", "slope", "r_squared",
                               "t_lo", "t_hi"], rate_rows)
    bundle.summary = {
        "lambda_01": -2.0 * params.p,
        "sup_slope": rate_rows[0][2],
        "mass_drift": drift,
        "mass_drift_per_time": drift / max(trace.times[-1] - trace.times[0], 1e-300),
        "widened_fits": _widened_fits(fits),
        **_solver_work(trace),
    }
    return bundle


def _widened_fits(fits) -> list[dict]:
    """The fits of (name, RateFit) pairs whose empty window
    ``fit_rate_or_widen`` widened to every positive sample, each with the
    window it fitted."""
    return [{"fit": name, "t_lo": fit.window[0], "t_hi": fit.window[1],
             "n_samples": fit.n_samples}
            for name, fit in fits if fit.widened]


_SOLVER_WORK = ("backward_euler_steps", "linear_steps", "dt_halvings",
                "min_margin")  # EvolutionTrace fields


def _solver_work(trace) -> dict:
    """Solver work of an evolution run, for the JSON summary."""
    return {name: getattr(trace, name) for name in _SOLVER_WORK}


def cmd_expand(cfg: ExperimentConfig) -> ReportBundle:
    """Coefficient extraction, time-shift modding, expansion residual."""
    _require_unit_b(cfg)
    params = _params(cfg)
    _require_lambda_window(cfg, params)
    bundle = ReportBundle("expand", cfg.to_dict())
    with bundle.stage("run"):
        trace = _run(cfg, params, diagnostics=False)
    policy = _policy(cfg)
    with bundle.stage("analysis"):
        # refuses p <= 2, where there is no lambda_01 mode, before any
        # pairing
        shift = asymptotics.mod_time_shift(
            trace, params, Lambda=cfg.analysis.lambda_target, policy=policy)
        records = [asymptotics.extract_coefficient(trace, mode, params)
                   for mode in (ModeIndex(0, 0), ModeIndex(0, 1))]
        resid_fit = asymptotics.expansion_residual(
            trace, shift.Lambda, [records[1]], params, policy=policy)

    bundle.add_table("coefficients",
                     ["ell", "k", "limit", "converged", "tail_fraction",
                      "flagged"],
                     [[rec.mode.ell, rec.mode.k, rec.limit, rec.converged,
                       rec.tail_fraction, rec.flagged] for rec in records])
    bundle.add_table("time_shift",
                     ["tau0", "Lambda", "eta", "slope", "r_squared",
                      "gamma_measured", "c01_before"],
                     [[shift.tau0, shift.Lambda, shift.eta,
                       shift.shifted_rate.slope, shift.shifted_rate.r_squared,
                       shift.gamma, shift.c0]])
    bundle.add_table("expansion_residual",
                     ["Lambda", "eta", "slope", "r_squared"],
                     [[shift.Lambda, shift.eta, resid_fit.slope,
                       resid_fit.r_squared]])
    so = closedform.second_order_rates(params)
    bundle.summary = {
        "tau0": shift.tau0,
        "gamma_measured": shift.gamma,
        "gamma_closed_form": so.gamma,
        "delta_closed_form": so.delta,
        "branch": so.branch.value,
        "residual_slope": resid_fit.slope,
        "near_degenerate": shift.near_degenerate,
        "widened_fits": _widened_fits([("time_shift", shift.shifted_rate),
                                       ("expansion_residual", resid_fit)]),
        **_solver_work(trace),
    }
    return bundle


def _sweep_item(task):
    """The gamma_delta row of one m, and its solver row if its run finished
    (else None); a failure is the row's error and the other rows run."""
    index, cfg, mm = task
    solver = None
    try:
        base_p = _params(cfg).p
        cfg = apply_overrides(cfg, model={"m": mm})
        cfg.validate()
        params = _params(cfg)
        # rates scale with p: keep the number of lambda_01 e-folds (and
        # steps) fixed by rescaling the base time configuration
        scale = base_p / params.p
        cfg = apply_overrides(cfg, time={"dt": cfg.time.dt * scale,
                                         "t_final": cfg.time.t_final * scale})
        so = closedform.second_order_rates(params)
        trace = _run(cfg, params, diagnostics=False)
        solver = [mm, *_solver_work(trace).values()]
        shift = asymptotics.mod_time_shift(trace, params, policy=_policy(cfg))
    except Exception as exc:
        return [index, mm, *[""] * 8, f"{type(exc).__name__}: {exc}"], solver
    return [index, mm, params.p, shift.gamma, so.gamma, so.delta,
            so.branch.value, shift.tau0, shift.shifted_rate.r_squared,
            shift.near_degenerate, ""], solver


def cmd_sweep(cfg: ExperimentConfig) -> ReportBundle:
    """Map m to measured/closed-form (gamma, delta) rows, in parallel, with
    the solver work of each m whose run finished."""
    _require_unit_b(cfg)
    ms = cfg.analysis.sweep_m
    if not ms:
        raise ConfigError("analysis.sweep_m: sweep requires a list of m values")
    tasks = [(i, cfg, mm) for i, mm in enumerate(ms)]
    items = _pool.map_ordered(_sweep_item, tasks, cfg.jobs)
    rows = [row for row, _ in items]
    bundle = ReportBundle("sweep", cfg.to_dict())
    bundle.add_table("gamma_delta",
                     ["index", "m", "p", "gamma_measured", "gamma_closed",
                      "delta_closed", "branch", "tau0", "r_squared",
                      "near_degenerate", "error"],
                     rows)
    bundle.add_table("solver", ["m", *_SOLVER_WORK],
                     [solver for _, solver in items if solver is not None])
    failures = [r for r in rows if r[10]]
    bundle.summary = {
        "rows": len(rows),
        "failures": len(failures),
        "max_gamma_rel_error": max(
            (abs(r[3] - r[4]) / abs(r[4]) for r in rows if not r[10]),
            default=None),
    }
    return bundle


def cmd_selftest(cfg: ExperimentConfig) -> tuple[ReportBundle, bool]:
    """Reduced-resolution acceptance checks; full suite lives in the tests."""
    from . import selftest
    results = selftest.run_selftest(fast=True)
    bundle = ReportBundle("selftest", cfg.to_dict())
    # a wall-clock row keeps its bound and verdict in the CSV, but its seconds
    # go to the summary: identical configs give byte-identical CSV bodies
    runtimes = {f"{r.criterion} {r.detail.removesuffix(RUNTIME_SUFFIX)}": r.value
                for r in results if r.detail.endswith(RUNTIME_SUFFIX)}
    bundle.add_table("checks", ["criterion", "detail", "value", "bound", "passed"],
                     [[r.criterion, r.detail,
                       "" if r.detail.endswith(RUNTIME_SUFFIX) else r.value,
                       r.bound, r.passed]
                      for r in results])
    ok = all(r.passed for r in results)
    bundle.summary = {"passed": ok,
                      "failed": [r.criterion for r in results if not r.passed],
                      "runtime_s": runtimes}
    return bundle, ok


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastdiff-lab",
        description="Numerical laboratory for fast-diffusion asymptotics",
    )
    parser.add_argument("--config", metavar="PATH", help="JSON config file")
    parser.add_argument("--n", type=int, help="spatial dimension")
    parser.add_argument("--m", type=float, help="diffusion exponent")
    parser.add_argument("--b-param", type=float, dest="b_param",
                        help="Barenblatt mass parameter B")
    parser.add_argument("--smax", type=float, help="grid truncation radius")
    parser.add_argument("--points", type=int, help="grid interval count")
    parser.add_argument("--dt", type=float, help="time step")
    parser.add_argument("--tfinal", type=float, help="final rescaled time")
    parser.add_argument("--eta", type=float, action="append",
                        help="weight exponent (repeatable)")
    parser.add_argument("--lambda-target", type=float, dest="lambda_target",
                        help="target rate for weighted analysis")
    parser.add_argument("--k", type=int, help="initial-data radial index")
    parser.add_argument("--amplitude", type=float, help="initial amplitude")
    parser.add_argument("--seed", type=int, help="bump seed")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--jobs", type=int, help="sweep worker count")
    parser.add_argument("--format", choices=["csv", "json"], action="append",
                        help="output formats (repeatable; default both)")
    parser.add_argument("command",
                        choices=["spectrum", "evolve", "expand", "sweep",
                                 "modes", "selftest"])
    parser.add_argument("--kind", choices=["eigenmode", "bump",
                                           "delayed-barenblatt"],
                        help="initial data kind")
    parser.add_argument("--sweep-m", type=float, action="append",
                        dest="sweep_m", help="m value for sweep (repeatable)")
    return parser


def resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    cfg = apply_overrides(
        cfg,
        model={"n": args.n, "m": args.m, "B": args.b_param},
        grid={"s_max": args.smax, "count": args.points},
        time={"dt": args.dt, "t_final": args.tfinal},
        initial_data={"kind": args.kind, "k": args.k,
                      "amplitude": args.amplitude, "seed": args.seed},
        analysis={"etas": tuple(args.eta) if args.eta else None,
                  "lambda_target": args.lambda_target,
                  "sweep_m": tuple(args.sweep_m) if args.sweep_m else None},
        output={"directory": args.out,
                "formats": tuple(args.format) if args.format else None},
        jobs={"jobs": args.jobs},
    )
    return cfg.validate()


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if cfg.analysis.lambda_target is not None and args.command != "expand":
            raise ConfigError(
                f"analysis.lambda_target: only expand measures a target "
                f"rate; {args.command} would ignore it"
            )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    outdir = cfg.output.directory or default_output_dir()
    try:
        if args.command == "selftest":
            bundle, ok = cmd_selftest(cfg)
        else:
            bundle = {
                "spectrum": cmd_spectrum,
                "evolve": cmd_evolve,
                "expand": cmd_expand,
                "sweep": cmd_sweep,
                "modes": cmd_modes,
            }[args.command](cfg)
            ok = True
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (EvolveError, EigensolveError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except AnalysisError as exc:
        print(f"analysis failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except Exception:
        traceback.print_exc()
        return EXIT_SOLVER

    written = bundle.write(outdir, cfg.output.formats)
    for path in written:
        print(path)
    if args.command == "selftest" and not ok:
        print("selftest: tolerance failure", file=sys.stderr)
        return EXIT_SELFTEST
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
