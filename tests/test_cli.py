"""CLI: commands, config precedence, determinism, exit codes."""

import csv
import glob
import hashlib
import json
import os
import platform
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy

import fastdiff_lab
from fastdiff_lab import cli, evolve, reporting
from fastdiff_lab.config import (
    ConfigError,
    ExperimentConfig,
    apply_overrides,
    config_from_dict,
    load_config,
)


# The directory that holds the package this test process imported.  The
# child is started in tmp_path, where a relative PYTHONPATH entry (such as
# PYTHONPATH=src) no longer points at the checkout, so it is put first as an
# absolute path: the child then runs the same source tree as the tests.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(fastdiff_lab.__file__)))
CONFIGS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "configs")


def child_env(tmp_path, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    env["FASTDIFF_LAB_OUT"] = str(tmp_path / "default-out")
    if env_extra:
        env.update(env_extra)
    return env


def run_cli(args, tmp_path, env_extra=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "fastdiff_lab.cli", *args],
        capture_output=True, text=True, env=child_env(tmp_path, env_extra),
        cwd=str(tmp_path), timeout=timeout,
    )


def _config_file(tmp_path, data) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def test_config_defaults_validate():
    ExperimentConfig().validate()


def test_config_from_dict_unknown_field():
    with pytest.raises(ConfigError, match="unknown fields"):
        config_from_dict({"model": {"n": 3, "bogus": 1}})
    with pytest.raises(ConfigError, match="top-level"):
        config_from_dict({"nonsense": {}})


def test_config_rejects_bad_model():
    cfg = apply_overrides(ExperimentConfig(), model={"m": 1.2})
    with pytest.raises(ConfigError, match="model"):
        cfg.validate()


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"model": {"n": 3, "m": 0.7},
                                "grid": {"s_max": 8.0, "count": 400}}))
    cfg = load_config(str(path))
    assert cfg.model.m == 0.7 and cfg.grid.count == 400
    over = apply_overrides(cfg, model={"m": 0.8})
    assert over.model.m == 0.8
    assert over.grid.count == 400  # untouched sections survive


def test_shipped_configs_validate():
    paths = sorted(glob.glob(os.path.join(CONFIGS_DIR, "*.json")))
    assert paths
    for path in paths:
        load_config(path).validate()


@pytest.mark.parametrize("kind", ["bump", "eigenmode"])
def test_an_amplitude_that_cannot_perturb_v_is_refused(kind, tmp_path):
    # 1 + w == 1 at every node: every flux would be exactly zero
    for amplitude in (1e-300, -1e-17, 2.0 ** -53):
        cfg = apply_overrides(ExperimentConfig(), initial_data={
            "kind": kind, "amplitude": amplitude})
        with pytest.raises(ConfigError, match="initial_data.amplitude: .* "
                           "cannot perturb v = 1 \\+ w"):
            cfg.validate()
    # the smallest amplitude 1 + |amplitude| still tells apart from 1
    apply_overrides(ExperimentConfig(), initial_data={
        "kind": kind, "amplitude": 2.0 ** -52}).validate()
    proc = run_cli(["--points", "200", "--amplitude", "1e-300", "expand"],
                   tmp_path)
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert "initial_data.amplitude: 1e-300 cannot perturb" in proc.stderr


def test_config_round_trip():
    cfg = ExperimentConfig()
    again = config_from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


# ---------------------------------------------------------------------------
# commands (in-process, fast settings)
# ---------------------------------------------------------------------------

def fast_cfg(**kw):
    base = {
        "model": {"n": 3, "m": 2.0 / 3.0, "B": 1.0},
        "grid": {"s_max": 10.0, "count": 250},
        "time": {"dt": 5e-3, "t_final": 0.5, "record_every": 5,
                 "snapshot_every": 5},
        "initial_data": {"kind": "eigenmode", "k": 1,
                         "amplitude": 0.05, "seed": 3},
    }
    base.update(kw)
    return config_from_dict(base).validate()


def test_cmd_spectrum():
    bundle = cli.cmd_spectrum(fast_cfg())
    closed = bundle.table("closed_form")
    lams = {(r[1], r[2]): r[3] for r in closed.rows if abs(r[0] - 0.5) < 1e-9}
    assert lams[(0, 0)] == pytest.approx(0.0)
    assert lams[(0, 1)] == pytest.approx(-6.0)
    assert lams[(2, 0)] == pytest.approx(-12.0)
    disc = bundle.table("discrete")
    assert bundle.summary["matched_count"] >= 4
    assert bundle.summary["max_match_error"] <= 1e-2


def test_spectrum_names_the_modes_it_leaves_unmatched():
    # p = 2.03: lambda_01 and lambda_20 sit 2.3e-4 above their continua at
    # eta_cr, so their eigenfunctions decay over s ~ 66, far past s_max = 12
    cfg = apply_overrides(ExperimentConfig(), model={"m": 0.6024},
                          grid={"count": 600}).validate()
    summary = cli.cmd_spectrum(cfg).summary
    assert summary["matched_count"] == 4
    unmatched = summary["unmatched"]
    assert [(u["ell"], u["k"]) for u in unmatched] == [(0, 1), (2, 0)]
    params = cli._params(cfg)
    for u, lam in zip(unmatched, (-4.0604, -10.060)):
        assert u["eta"] == params.eta_cr
        assert u["lambda"] == pytest.approx(lam, abs=1e-3)
        assert u["gap"] == pytest.approx(2.277e-4, rel=1e-3)
        assert u["decay_length"] == pytest.approx(u["gap"] ** -0.5)
        assert u["decay_length"] > cfg.grid.s_max
    assert cli.cmd_spectrum(fast_cfg()).summary["unmatched"] == []


def test_cmd_modes():
    bundle = cli.cmd_modes(fast_cfg())
    names = {r[0] for r in bundle.table("landmarks").rows}
    assert {"m_0", "m_2", "m_n", "m_n+4"} <= names


def test_cmd_evolve_eigenmode_rate():
    cfg = fast_cfg(time={"dt": 2e-3, "t_final": 1.2, "record_every": 2,
                         "snapshot_every": 10})
    bundle = cli.cmd_evolve(cfg)
    assert bundle.summary["sup_slope"] == pytest.approx(-6.0, rel=0.05)
    assert bundle.summary["mass_drift_per_time"] <= 1e-6
    trace = bundle.table("trace")
    assert trace.header[0] == "t"
    assert len(trace.rows) > 10


def test_cmd_evolve_trivial_fixed_point():
    cfg = fast_cfg(initial_data={"kind": "delayed-barenblatt", "tau0": 0.0,
                                 "bplus": 1.0})
    bundle = cli.cmd_evolve(cfg)
    rows = bundle.table("trace").rows
    assert all(abs(r[1]) <= 1e-12 for r in rows)  # sup norm stays zero


def test_cmd_expand():
    cfg = config_from_dict({
        "model": {"n": 3, "m": 0.7},
        "grid": {"s_max": 12.0, "count": 400},
        "time": {"dt": 2e-3, "t_final": 1.5, "record_every": 4,
                 "snapshot_every": 4},
        "initial_data": {"kind": "bump", "amplitude": 0.05, "seed": 11,
                         "centers": (3.0, 7.0)},
    }).validate()
    bundle = cli.cmd_expand(cfg)
    assert "gamma_measured" in bundle.summary
    assert bundle.summary["gamma_closed_form"] == pytest.approx(289 / 264)
    assert bundle.table("time_shift").rows
    assert bundle.table("coefficients").rows


def test_expand_keeps_the_mass_record_of_its_run(monkeypatch):
    # the benchmark's expand check: evolve.run rebound in evolve's
    # namespace sees cmd_expand's run, whose trace carries one time and
    # mass defect per record_every-th step and the last, and no diagnostics
    cfg = config_from_dict({
        "model": {"n": 3, "m": 0.7},
        "grid": {"s_max": 12.0, "count": 400},
        "time": {"dt": 2e-3, "t_final": 1.5, "record_every": 4,
                 "snapshot_every": 4},
        "initial_data": {"kind": "bump", "amplitude": 0.05, "seed": 11,
                         "centers": (3.0, 7.0)},
    }).validate()
    traces, run = [], evolve.run

    def keep(*args, **kwargs):
        traces.append(run(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(evolve, "run", keep)
    cli.cmd_expand(cfg)
    (trace,) = traces
    steps = round(cfg.time.t_final / cfg.time.dt)
    every = cfg.time.record_every
    assert steps % every  # the last step is recorded off the record grid
    recorded = [j for j in range(steps + 1) if j % every == 0 or j == steps]
    assert trace.times.size == trace.mass_defect.size == len(recorded)
    assert np.allclose(trace.times, np.array(recorded) * cfg.time.dt,
                       rtol=0.0, atol=1e-12)
    drift = float(np.max(np.abs(trace.mass_defect - trace.mass_defect[0])))
    assert drift / (trace.times[-1] - trace.times[0]) <= 1e-6
    for name in ("sup", "weighted", "energy", "min_v", "max_v"):
        assert getattr(trace, name) is None, name


def test_only_expand_and_sweep_take_snapshots(monkeypatch):
    # evolve reads its diagnostics, expand and sweep read only snapshots
    options, run = [], evolve.run

    def keep(state0, dt, t_final, record, **kwargs):
        options.append(record)
        return run(state0, dt, t_final, record, **kwargs)

    monkeypatch.setattr(evolve, "run", keep)
    cfg = fast_cfg(time={"dt": 5e-3, "t_final": 0.5, "record_every": 5,
                         "snapshot_every": 10},
                   initial_data={"kind": "bump", "amplitude": 0.05},
                   analysis={"sweep_m": [2.0 / 3.0]})
    cli.cmd_evolve(cfg)
    cli.cmd_expand(cfg)
    cli.cmd_sweep(apply_overrides(cfg, jobs={"jobs": 1}))
    (evolved, *snapshotted) = options
    assert evolved.snapshot_every is None and evolved.diagnostics
    assert len(snapshotted) == 2
    for record in snapshotted:
        assert record.snapshot_every == 10 and not record.diagnostics


def test_default_expand_reports_one_backward_euler_step():
    # BE starts the BDF2 history; no BDF2 step of the default run is redone
    cfg = ExperimentConfig().validate()
    s = cli.cmd_expand(cfg).summary
    assert (s["backward_euler_steps"], s["linear_steps"]) == (1, 749)
    assert round(cfg.time.t_final / cfg.time.dt) == 750
    assert cli.cmd_evolve(fast_cfg()).summary["backward_euler_steps"] == 1


@pytest.mark.parametrize("command", [cli.cmd_evolve, cli.cmd_expand])
def test_summary_records_solver_work(command):
    cfg = fast_cfg()
    s = command(cfg).summary
    steps = round(cfg.time.t_final / cfg.time.dt)
    assert s["linear_steps"] + s["backward_euler_steps"] == steps
    assert s["dt_halvings"] == 0
    assert evolve.MARGIN_FLOOR < s["min_margin"] <= 1.0
    for key in ("newton_iterations", "max_newton_iterations",
                "max_final_residual", "min_damping"):
        assert key not in s


def _selftest_results(seconds):
    from fastdiff_lab.selftest import CheckResult
    return [CheckResult("1-eigenvalues", "n=3 m=0.6667 mode=(0,1)", 1e-4,
                        "<= 0.01", True),
            CheckResult("1-eigenvalues", "n=3 m=0.6667 runtime_s", seconds,
                        "< 10", True),
            CheckResult("3-leading-rate", "n=1 m=0.5 runtime_s", 2 * seconds,
                        "< 120", True)]


def test_selftest_csv_leaves_wall_clock_seconds_to_the_summary(monkeypatch):
    from fastdiff_lab import selftest
    bundles = []
    for seconds in (0.25, 7.5):
        monkeypatch.setattr(selftest, "run_selftest",
                            lambda fast, s=seconds: _selftest_results(s))
        bundle, ok = cli.cmd_selftest(ExperimentConfig().validate())
        assert ok
        bundles.append(bundle)
    first, second = (b.table("checks").to_csv() for b in bundles)
    assert first == second
    assert first.splitlines()[2] == "1-eigenvalues,n=3 m=0.6667 runtime_s,,< 10,true"
    assert bundles[1].summary["runtime_s"] == {
        "1-eigenvalues n=3 m=0.6667": 7.5, "3-leading-rate n=1 m=0.5": 15.0}


def test_b_other_than_one_is_a_config_error(tmp_path):
    # B is a scaling symmetry fixed at 1: a config file that sets any
    # other B fails validation, before a command reads it
    for B in (2.0, 0.5, -1.0):
        cfg = load_config(_config_file(tmp_path, {"model": {"B": B}}))
        with pytest.raises(ConfigError,
                           match=f"model: Barenblatt parameter B .* got {B}"):
            cfg.validate()
    load_config(_config_file(tmp_path, {"model": {"B": 1.0}})).validate()


@pytest.mark.parametrize("m, s_max, Lambda", [
    (2.0 / 3.0, 12.0, -100.0), (2.0 / 3.0, 12.0, 0.0),
    (2.0 / 3.0, 12.0, -13.0), (2.0 / 3.0, 12.0, -5.0),
    (0.9, 6.0, -80.0),  # below 2 lambda_01 = -68, above -(p/2+1)^2
])
def test_lambda_target_outside_the_window_is_a_config_error(m, s_max, Lambda):
    cfg = apply_overrides(ExperimentConfig(), model={"m": m},
                          grid={"s_max": s_max},
                          analysis={"lambda_target": Lambda}).validate()
    with pytest.raises(ConfigError, match="analysis.lambda_target.*window"):
        cli.cmd_expand(cfg)


def test_lambda_window_edges():
    p09 = cli._params(apply_overrides(ExperimentConfig(), model={"m": 0.9}))
    p23 = cli._params(ExperimentConfig())
    lam01 = -2.0 * p09.p
    cases = [(p09, lam01, True), (p09, 2 * lam01 + 1e-9, True),
             (p09, 2 * lam01, False), (p09, lam01 + 1e-9, False),
             # at m = 2/3 the l=0 continuum -(p/2+1)^2 binds the lower edge
             (p23, p23.lambda_cont, True), (p23, p23.lambda_cont - 1e-9, False),
             # p rounds to 2.999999999999999: -6.25 is 2 ulps below the
             # computed onset and still names the edge
             (p23, -6.25, True)]
    for params, Lambda, ok in cases:
        cfg = apply_overrides(ExperimentConfig(), model={"m": params.m},
                              analysis={"lambda_target": Lambda})
        if ok:
            cli._require_lambda_window(cfg, params)
        else:
            with pytest.raises(ConfigError, match="window"):
                cli._require_lambda_window(cfg, params)


def test_short_expand_widens_its_residual_fit():
    # 13 snapshots leave no sample in the default value window of the
    # expansion residual; the fit widens instead of failing
    cfg = apply_overrides(ExperimentConfig(), model={"n": 1, "m": 0.5},
                          grid={"count": 300}, time={"t_final": 0.5}).validate()
    bundle = cli.cmd_expand(cfg)
    assert np.isfinite(bundle.summary["residual_slope"])
    assert np.isfinite(bundle.summary["gamma_measured"])
    # the summary names the widened fit and the window it fitted
    [widened] = [f for f in bundle.summary["widened_fits"]
                 if f["fit"] == "expansion_residual"]
    assert widened["n_samples"] >= 2
    assert 0.0 <= widened["t_lo"] < widened["t_hi"] <= 0.5


def test_a_widened_fit_is_named_in_the_summary():
    # two recorded states leave the default value window empty: the sup
    # fit widens to both, and the summary says so; the CSV rows as before
    cfg = apply_overrides(ExperimentConfig(), grid={"count": 200},
                          time={"t_final": 0.004}).validate()
    bundle = cli.cmd_evolve(cfg)
    assert bundle.summary["widened_fits"][0] == {
        "fit": "sup", "t_lo": 0.0, "t_hi": 0.004, "n_samples": 2}
    sup = bundle.table("rates").rows[0]
    assert sup[0] == "sup" and (sup[4], sup[5]) == (0.0, 0.004)
    # a run long enough to fill the window widens nothing
    cfg = fast_cfg(time={"dt": 2e-3, "t_final": 1.2, "record_every": 2,
                         "snapshot_every": 10})
    assert cli.cmd_evolve(cfg).summary["widened_fits"] == []


def test_cmd_sweep_partial_failure():
    cfg = config_from_dict({
        "model": {"n": 3, "m": 0.7},
        "grid": {"s_max": 10.0, "count": 250},
        "time": {"dt": 4e-3, "t_final": 1.0, "record_every": 4,
                 "snapshot_every": 4},
        "initial_data": {"kind": "bump", "amplitude": 0.05, "seed": 11,
                         "centers": (3.0, 6.0)},
        "analysis": {"sweep_m": (0.7, 1.4, 0.75)},  # 1.4 is invalid
        "jobs": 1,
    }).validate()
    bundle = cli.cmd_sweep(cfg)
    rows = bundle.table("gamma_delta").rows
    assert [r[0] for r in rows] == [0, 1, 2]  # input order
    assert rows[1][10] != ""  # the invalid row reports its error
    assert rows[0][10] == "" and rows[2][10] == ""
    assert bundle.summary["failures"] == 1
    # the solver work of each m whose run finished, and none of the other
    solver = bundle.table("solver")
    assert solver.header == ["m", "backward_euler_steps", "linear_steps",
                             "dt_halvings", "min_margin"]
    assert [r[0] for r in solver.rows] == [0.7, 0.75]
    for r in solver.rows:
        assert r[1] >= 1 and r[1] + r[2] == 250 and r[3] == 0
        assert evolve.MARGIN_FLOOR < r[4] < 1.0
    assert "nan" not in solver.to_csv().lower()


def test_a_sweep_row_whose_analysis_fails_keeps_its_solver_row(monkeypatch):
    def refuse(trace, params, **kwargs):
        raise cli.asymptotics.AnalysisError("refused")

    monkeypatch.setattr(cli.asymptotics, "mod_time_shift", refuse)
    cfg = config_from_dict({**SHORT_SWEEP, "jobs": 1}).validate()
    bundle = cli.cmd_sweep(cfg)
    assert [r[10] for r in bundle.table("gamma_delta").rows] == \
        ["AnalysisError: refused"] * 2
    assert [r[0] for r in bundle.table("solver").rows] == [0.7, 0.75]
    assert "nan" not in bundle.table("gamma_delta").to_csv().lower()


SHORT_SWEEP = {
    "model": {"n": 3, "m": 0.7},
    "grid": {"s_max": 10.0, "count": 250},
    "time": {"dt": 4e-3, "t_final": 1.0, "record_every": 4,
             "snapshot_every": 4},
    "initial_data": {"kind": "bump", "amplitude": 0.05, "seed": 11,
                     "centers": (3.0, 6.0)},
    "analysis": {"sweep_m": (0.7, 0.75)},
}


def test_cmd_sweep_parallel_matches_serial():
    serial = cli.cmd_sweep(
        config_from_dict({**SHORT_SWEEP, "jobs": 1}).validate())
    parallel = cli.cmd_sweep(
        config_from_dict({**SHORT_SWEEP, "jobs": 2}).validate())
    assert serial.table("gamma_delta").rows == parallel.table("gamma_delta").rows
    assert serial.table("gamma_delta").to_csv() == \
        parallel.table("gamma_delta").to_csv()


@pytest.mark.parametrize("m", [0.7, 0.78])
def test_expand_and_sweep_read_one_second_order_record(m):
    # a sweep row at the config's own m runs expand's run unscaled
    cfg = config_from_dict({**SHORT_SWEEP, "model": {"n": 3, "m": m},
                            "analysis": {"sweep_m": (m,)}}).validate()
    summary = cli.cmd_expand(cfg).summary
    (row,) = cli.cmd_sweep(cfg).table("gamma_delta").rows
    assert summary["gamma_measured"] == row[3]
    assert summary["near_degenerate"] == row[9] == (m == 0.78)


# ---------------------------------------------------------------------------
# process-level: exit codes, files, determinism
# ---------------------------------------------------------------------------

def test_child_imports_the_tested_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import fastdiff_lab; print(fastdiff_lab.__file__)"],
        capture_output=True, text=True, env=child_env(tmp_path),
        cwd=str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.abspath(proc.stdout.strip()) == os.path.abspath(fastdiff_lab.__file__)


def test_exit_code_validation(tmp_path):
    proc = run_cli(["--m", "1.2", "spectrum"], tmp_path)
    assert proc.returncode == 2
    assert "mass-preserving" in proc.stderr


def test_underflowing_grid_is_a_named_solver_failure(tmp_path):
    # p = 197: the cell masses of the default grid underflow near s = 4.3
    proc = run_cli(["--n", "3", "--m", "0.99", "evolve"], tmp_path)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure:")
    assert "largest s_max" in lines[0]


def spectrum_matches(proc, tmp_path, rel):
    """Assert the spectrum run exited 0 and every matched mode lies within
    ``rel`` of its closed form (absolute where the closed form is below 1).
    Returns the number of matched modes."""
    assert proc.returncode == 0, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    path = tmp_path / "default-out" / "spectrum_discrete.csv"
    with open(path, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["error"]]
    for r in rows:
        closed = float(r["closed_form"])
        assert abs(float(r["error"])) <= rel * max(abs(closed), 1.0), r
    return len(rows)


def test_spectrum_near_m_one_matches_closed_form(tmp_path):
    # p = 197 and 147.4: the weight cosh(s)^-(eta_cr+2) underflows on the
    # default grid, its neighbour ratios do not
    for m in ("0.99", "0.9867"):
        proc = run_cli(["--n", "3", "--m", m, "spectrum"], tmp_path)
        assert spectrum_matches(proc, tmp_path, 1e-2) >= 8, m


def assert_one_named_line(proc, code, prefix):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    return lines[0]


def test_coarse_grid_at_large_p_runs(tmp_path):
    # p = 147.4: at h = 0.02 the central g-frame drift outweighs the
    # diffusion, so those rows carry the drift inside the flux
    args = ["--n", "3", "--m", "0.9867", "--smax", "4", "--points", "200",
            "spectrum"]
    assert spectrum_matches(run_cli(args, tmp_path), tmp_path, 1e-2) >= 1


def test_unrepresentable_bands_are_a_named_solver_failure(tmp_path):
    # p = 2e5: h |2l-p-2| = 4000 on the default spacing
    proc = run_cli(["--n", "1", "--m", "0.99999", "--smax", "12",
                    "--points", "600", "spectrum"], tmp_path)
    line = assert_one_named_line(proc, 3, "solver failure:")
    assert "leave the float range" in line and "h=0.02" in line
    assert "RuntimeWarning" not in proc.stderr


def test_non_finite_newton_system_is_a_named_solver_failure(tmp_path):
    # dt = 1e306 overflows the Newton system; every halved step fails too
    proc = run_cli(["--points", "150", "--dt", "1e306", "--tfinal", "1e306",
                    "evolve"], tmp_path)
    assert_one_named_line(proc, 3, "solver failure:")
    assert "RuntimeWarning" not in proc.stderr


def test_expand_without_lambda01_is_a_named_failure(tmp_path):
    # p = 1/3 <= 2: there is no lambda_01 mode to mod out
    proc = run_cli(["--n", "3", "--m", "0.4", "--points", "300",
                    "--tfinal", "0.5", "expand"], tmp_path)
    line = assert_one_named_line(proc, 3, "analysis failure:")
    assert "p > 2" in line


def test_expand_too_short_to_fit_is_a_named_failure(tmp_path):
    # 5 steps leave only the initial snapshot: no fit survives widening
    proc = run_cli(["--n", "1", "--m", "0.5", "--points", "300",
                    "--tfinal", "0.02", "expand"], tmp_path)
    assert_one_named_line(proc, 3, "analysis failure:")


def test_a_time_shift_on_the_secants_clamp_bound_is_a_named_failure(tmp_path):
    # p = 37 at the default time scale: dt |lambda_01| = 0.3, the c01
    # pairings are round-off amplified by e^(lambda_01 t), and the secant
    # ends on a clamp bound of tau0, which would print gamma = 0.0998
    proc = run_cli(["--m", "0.95", "expand"], tmp_path)
    line = assert_one_named_line(proc, 3, "analysis failure:")
    assert "clamp bound" in line and "p=37" in line
    assert "dt |lambda_01| = 0.296" in line


def test_lambda_target_outside_the_window_exits_with_a_config_error(tmp_path):
    proc = run_cli(["--tfinal", "1", "--points", "600", "--lambda-target",
                    "-13", "expand"], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "analysis.lambda_target" in line and "window" in line


@pytest.mark.parametrize("command", [
    ["--sweep-m", "0.7", "sweep"], ["--points", "300", "evolve"]])
def test_lambda_target_outside_expand_exits_with_a_config_error(tmp_path,
                                                                 command):
    proc = run_cli(["--lambda-target", "-100", *command], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "analysis.lambda_target" in line and "expand" in line


@pytest.mark.parametrize("k", ["5", "-1"])
def test_inadmissible_eigenmode_k_exits_with_a_config_error(tmp_path, k):
    proc = run_cli(["--kind", "eigenmode", "--k", k, "--points", "300",
                    "--tfinal", "0.5", "evolve"], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "initial_data.k" in line and "0 <= k <= 1" in line


def test_b_other_than_one_exits_with_a_config_error(tmp_path):
    path = _config_file(tmp_path, {"model": {"B": 2},
                                   "analysis": {"sweep_m": [0.7]}})
    for command in ("spectrum", "modes", "evolve", "expand", "sweep"):
        proc = run_cli(["--config", path, "--points", "300", command],
                       tmp_path)
        line = assert_one_named_line(proc, 2, "config error:")
        assert "Barenblatt parameter B" in line, command


@pytest.mark.parametrize("field, value", [
    ("ell_list", [-1]), ("eigen_count", 0), ("fit_t_lo", 0.5),
    ("fit_t_hi", 2.0)])
def test_a_retired_analysis_field_exits_with_a_config_error(tmp_path, field,
                                                            value):
    # spectrum's sectors and eigenvalue count and the fit's time window are
    # no settings: a config file that sets one names it as unknown
    path = _config_file(tmp_path, {"analysis": {field: value}})
    proc = run_cli(["--config", path, "spectrum"], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert f"analysis: unknown fields ['{field}']" in line


@pytest.mark.parametrize("data, command, field", [
    ({"model": {"n": True}}, "modes", "model.n"),
    ({"grid": {"count": 16.5}}, "modes", "grid.count"),
    ({"grid": {"s_max": "12"}}, "modes", "grid.s_max"),
    ({"time": {"dt": "0.004"}}, "modes", "time.dt"),
    ({"initial_data": {"amplitude": "0.05"}}, "modes",
     "initial_data.amplitude"),
    ({"analysis": {"etas": 3}}, "modes", "analysis.etas"),
    ({"initial_data": {"seed": 1.5}}, "expand", "initial_data.seed"),
    ({"initial_data": {"project_mass": "no"}}, "evolve",
     "initial_data.project_mass"),
    ({"output": {"formats": 3}}, "modes", "output.formats"),
    ({"output": {"directory": 5}}, "modes", "output.directory"),
])
def test_a_config_value_of_the_wrong_json_type_exits_with_a_config_error(
        tmp_path, data, command, field):
    # n = true ran n = 1, count 16.5 ran 16 intervals and project_mass
    # "no" projected, all exiting 0; the others ended in a traceback
    proc = run_cli(["--config", _config_file(tmp_path, data), command],
                   tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert line.startswith(f"config error: {field}: must be ")


@pytest.mark.parametrize("args", [["modes"], ["spectrum"],
                                  ["--kind", "eigenmode", "evolve"]])
def test_m_near_one_refuses_the_mode_list_by_name(tmp_path, args):
    # 2.5e11 modes at eta_cr: listing them ran without bound in memory
    proc = run_cli(["--m", "0.999999", *args], tmp_path, timeout=60)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "p=2e+06 has 250000500000 admissible modes" in line


@pytest.mark.parametrize("field", ["record_every", "snapshot_every"])
@pytest.mark.parametrize("value", [2.5, 2.0, True, 0, -1])
def test_a_record_period_must_be_a_positive_integer(field, value):
    cfg = config_from_dict({"time": {"dt": 0.004, "t_final": 0.2,
                                     field: value},
                            "grid": {"count": 100}})
    with pytest.raises(ConfigError, match=f"time.{field}: .*integer >= 1"):
        cfg.validate()


@pytest.mark.parametrize("field", ["record_every", "snapshot_every"])
def test_a_fractional_record_period_exits_with_a_config_error(tmp_path,
                                                               field):
    # record_every 2.5 reached run as a traceback, snapshot_every 2.5 took
    # a snapshot every 5th step
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "time": {"dt": 0.004, "t_final": 0.2, field: 2.5},
        "grid": {"count": 100}}))
    for command in ("evolve", "expand"):
        proc = run_cli(["--config", str(path), command], tmp_path)
        line = assert_one_named_line(proc, 2, "config error:")
        assert f"time.{field}" in line and "2.5" in line


@pytest.mark.parametrize("value", [1.5, True, 2.0, 0])
def test_jobs_must_be_a_positive_integer(value):
    # 1.5 validated and reached the process pool as its worker count
    cfg = config_from_dict({**SHORT_SWEEP, "jobs": value})
    with pytest.raises(ConfigError, match=r"^jobs: .*integer >= 1"):
        cfg.validate()


def test_jobs_flag_zero_exits_with_a_config_error(tmp_path):
    # a zero --jobs reaches the same worker-count check as a config file's
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SHORT_SWEEP))
    proc = run_cli(["--config", str(path), "--jobs", "0", "sweep"], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "jobs: must be an integer >= 1, got 0" in line


def test_fractional_jobs_exit_with_a_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**SHORT_SWEEP, "jobs": 1.5}))
    proc = run_cli(["--config", str(path), "sweep"], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "jobs" in line and "1.5" in line


def test_partial_last_step_is_a_config_error(tmp_path):
    cfg = apply_overrides(ExperimentConfig(), time={"dt": 3e-3, "t_final": 0.01})
    with pytest.raises(ConfigError, match="time.t_final/time.dt"):
        cfg.validate()
    proc = run_cli(["--dt", "3e-3", "--tfinal", "0.01", "evolve"], tmp_path)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "nearest reachable time is 0.009" in proc.stderr


def test_spectrum_writes_files_and_env_default(tmp_path):
    proc = run_cli(["--points", "200", "--smax", "8", "spectrum"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    outdir = tmp_path / "default-out"
    names = {p.name for p in outdir.iterdir()}
    assert "spectrum_summary.json" in names
    assert "spectrum_closed_form.csv" in names
    payload = json.loads((outdir / "spectrum_summary.json").read_text())
    assert payload["provenance"]["config"]["grid"]["count"] == 200


def test_csv_determinism(tmp_path):
    args = ["--points", "200", "--smax", "8", "--dt", "5e-3",
            "--tfinal", "0.3", "--kind", "bump", "--seed", "9",
            "evolve"]
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    p1 = run_cli(args + ["--out", str(out1)], tmp_path)
    p2 = run_cli(args + ["--out", str(out2)], tmp_path)
    assert p1.returncode == 0 and p2.returncode == 0
    b1 = (out1 / "evolve_trace.csv").read_bytes()
    b2 = (out2 / "evolve_trace.csv").read_bytes()
    assert b1 == b2
    rates1 = (out1 / "evolve_rates.csv").read_bytes()
    rates2 = (out2 / "evolve_rates.csv").read_bytes()
    assert rates1 == rates2


def test_summary_records_provenance_and_repeats_csv_bytes(tmp_path,
                                                          monkeypatch):
    args = ["--points", "200", "--smax", "8", "--dt", "5e-3",
            "--tfinal", "0.3", "--kind", "bump", "--seed", "9", "evolve"]
    runs = []
    for name in ("a", "b"):  # one config: the output directory is the default
        monkeypatch.setenv("FASTDIFF_LAB_OUT", str(tmp_path / name))
        assert cli.main(args) == 0
        out = tmp_path / name
        runs.append(({p.name: p.read_bytes() for p in out.glob("*.csv")},
                     json.loads((out / "evolve_summary.json").read_text())))
    (csv_a, summary_a), (csv_b, summary_b) = runs
    assert sorted(csv_a) == ["evolve_rates.csv", "evolve_trace.csv"]
    assert csv_a == csv_b
    prov = summary_a["provenance"]
    assert prov["python"] == platform.python_version()
    assert (prov["numpy"], prov["scipy"]) == (np.__version__, scipy.__version__)
    assert prov["platform"] == platform.platform()
    assert prov["git_sha"] is None or re.fullmatch("[0-9a-f]{40}", prov["git_sha"])
    canonical = json.dumps(prov["config"], sort_keys=True).encode()
    assert prov["config_sha256"] == hashlib.sha256(canonical).hexdigest()
    assert prov["config_sha256"] == summary_b["provenance"]["config_sha256"]
    assert summary_a["summary"]["dt_halvings"] == 0
    # the run and analysis stages are timed in the provenance only
    stages = prov["stages_s"]
    assert sorted(stages) == ["analysis", "run"]
    assert all(0.0 <= s <= prov["wall_time_s"] for s in stages.values())
    other = reporting._provenance({**prov["config"], "jobs": 2})
    assert other["config_sha256"] != prov["config_sha256"]


def test_writing_a_summary_starts_no_process(tmp_path, monkeypatch):
    # a fresh uname, as in a new process: platform.platform() would resolve
    # its processor field through `uname -p`
    monkeypatch.setattr(platform, "_uname_cache", None)
    monkeypatch.setattr(platform, "_platform_cache", {})
    started = []

    def no_process(*args, **kwargs):
        started.append(args)
        raise OSError("no process may start")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    reporting.ReportBundle("evolve", {"jobs": 1}).write(str(tmp_path))
    assert started == []
    name = reporting._platform_name()
    monkeypatch.undo()
    if sys.platform.startswith("linux"):
        assert name == platform.platform()


def test_git_sha_reads_loose_and_packed_refs(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    assert reporting._git_sha(str(tmp_path)) is None  # no .git
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert reporting._git_sha(str(tmp_path)) is None  # no commit yet
    (git / "packed-refs").write_text(f"# pack-refs\n{sha} refs/heads/main\n")
    assert reporting._git_sha(str(tmp_path)) == sha
    (git / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
    assert reporting._git_sha(str(tmp_path)) == sha[::-1]
    (git / "HEAD").write_text(sha + "\n")  # detached
    assert reporting._git_sha(str(tmp_path)) == sha


def test_selftest_command(tmp_path):
    proc = run_cli(["selftest"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    outdir = tmp_path / "default-out"
    payload = json.loads((outdir / "selftest_summary.json").read_text())
    assert payload["summary"]["passed"] is True
    checks = (outdir / "selftest_checks.csv").read_text().splitlines()
    assert checks[0].startswith("criterion,")
    assert len(checks) > 20


def test_csv_format(tmp_path):
    proc = run_cli(["--points", "200", "--smax", "8", "modes"], tmp_path)
    assert proc.returncode == 0
    csv_path = tmp_path / "default-out" / "modes_modes.csv"
    text = csv_path.read_text()
    assert text.endswith("\n")
    header, first = text.splitlines()[:2]
    assert header == "eta,ell,k,lambda,threshold"
    assert "," in first and ";" not in first
