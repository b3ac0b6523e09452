"""CLI: commands, config precedence, determinism, exit codes."""

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


def run_cli(args, tmp_path, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "fastdiff_lab.cli", *args],
        capture_output=True, text=True, env=child_env(tmp_path, env_extra),
        cwd=str(tmp_path),
    )


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


def test_config_round_trip():
    cfg = ExperimentConfig()
    again = config_from_dict(json.loads(cfg.to_json()))
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


def test_default_expand_reports_one_backward_euler_step():
    # BE starts the BDF2 history; no BDF2 step of the default run is redone
    bundle = cli.cmd_expand(ExperimentConfig().validate())
    assert bundle.summary["backward_euler_steps"] == 1
    assert cli.cmd_evolve(fast_cfg()).summary["backward_euler_steps"] == 1


@pytest.mark.parametrize("command", [cli.cmd_evolve, cli.cmd_expand])
def test_summary_records_newton_iterations(command):
    cfg = fast_cfg()
    s = command(cfg).summary
    steps = round(cfg.time.t_final / cfg.time.dt)
    assert 0 <= s["zero_newton_steps"] <= steps
    assert 1 <= s["max_newton_iterations"] <= evolve.NEWTON_MAXITER
    assert s["max_newton_iterations"] <= s["newton_iterations"] \
        <= steps * s["max_newton_iterations"]
    assert s["dt_halvings"] == 0
    # each accepted solve ends at or below the tolerance, undamped here
    assert 0.0 <= s["max_final_residual"] <= evolve.NEWTON_TOL
    assert s["min_damping"] == 1.0
    assert evolve.MARGIN_FLOOR < s["min_margin"] <= 1.0


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


def test_b_other_than_one_is_a_config_error():
    # the solver normalizes B to 1 while the pairings read psi(r^2/B)
    cfg = apply_overrides(fast_cfg(), model={"B": 2.0},
                          analysis={"sweep_m": (0.7,)}).validate()
    for cmd in (cli.cmd_evolve, cli.cmd_expand, cli.cmd_sweep):
        with pytest.raises(ConfigError, match="model.B"):
            cmd(cfg)


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


def test_cmd_sweep_parallel_matches_serial():
    base = {
        "model": {"n": 3, "m": 0.7},
        "grid": {"s_max": 10.0, "count": 250},
        "time": {"dt": 4e-3, "t_final": 1.0, "record_every": 4,
                 "snapshot_every": 4},
        "initial_data": {"kind": "bump", "amplitude": 0.05, "seed": 11,
                         "centers": (3.0, 6.0)},
        "analysis": {"sweep_m": (0.7, 0.75)},
    }
    serial = cli.cmd_sweep(config_from_dict({**base, "jobs": 1}).validate())
    parallel = cli.cmd_sweep(config_from_dict({**base, "jobs": 2}).validate())
    assert serial.table("gamma_delta").rows == parallel.table("gamma_delta").rows
    assert serial.table("gamma_delta").to_csv() == \
        parallel.table("gamma_delta").to_csv()


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


def test_underflowing_spectrum_is_a_named_solver_failure(tmp_path):
    # p = 197: cosh(s)^-(eta_cr+2) of the default grid underflows near s = 7.8
    proc = run_cli(["--n", "3", "--m", "0.99", "spectrum"], tmp_path)
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("solver failure:")
    assert "largest s_max" in lines[0]


def assert_one_named_line(proc, code, prefix):
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), lines
    return lines[0]


def test_coarse_grid_at_large_p_names_the_count_it_needs(tmp_path):
    # p = 147.4: at h = 0.02 the g-frame drift outweighs the diffusion;
    # h < 2/(p+2) on s_max 4 takes 299 points
    args = ["--n", "3", "--m", "0.9867", "--smax", "4", "spectrum"]
    proc = run_cli(["--points", "200", *args], tmp_path)
    line = assert_one_named_line(proc, 3, "solver failure:")
    assert "off-diagonal products not positive" in line
    assert "h < 2/|2l-p-2| = 0.013389" in line
    assert line.endswith("the smallest count with that on s_max=4 is 299")
    assert run_cli(["--points", "299", *args], tmp_path).returncode == 0


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
    proc = run_cli(["--b-param", "2", "--points", "300", "--tfinal", "0.5",
                    "evolve"], tmp_path)
    line = assert_one_named_line(proc, 2, "config error:")
    assert "model.B" in line


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
