"""Self-tests of the benchmark: contract, smoke runs, correctness gate.

    python3 -m pytest -q bench/test_bench.py

The smoke runs call every workload once or twice (about a minute).
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Check, Output  # noqa: E402

from fastdiff_lab import evolve, geometry, selftest  # noqa: E402
from fastdiff_lab.selftest import CheckResult  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"),
                           *args], capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def test_spec_follows_the_contract():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads",
                      "end_to_end", "per_layer"}
    assert s["command"] == ["python3", "bench/run.py"]
    assert {w["name"] for w in s["workloads"]} <= set(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in s["workloads"])
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    names += [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in s["end_to_end"] + s["per_layer"])
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_smoke_every_workload_prints_every_metric_with_its_unit():
    s = spec()
    for name in WORKLOADS:
        proc = bench("--workload", name, "--seed", "5", "--seconds", "0")
        assert proc.returncode == 0, proc.stderr
        res = last_json(proc.stdout)
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
        assert res["metrics"] == {
            m["name"]: {"value": res["metrics"][m["name"]]["value"],
                        "unit": m["unit"]} for m in s["end_to_end"]}
        assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_smoke_prints_every_per_layer_metric():
    proc = bench("--workload", "expand", "--seed", "5", "--seconds", "0",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    metrics = last_json(proc.stdout)["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(m["name"], m["unit"]) for m in spec()["per_layer"]]
    assert metrics["evolve.step_nonlinear.calls"]["value"] == 3000
    assert metrics["linop.step_linear.calls"]["value"] == 0


def test_a_checkout_without_the_package_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "expand", "--seed", "1", "--seconds", "1",
                 cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_expand_gate_trips_on_corrupted_results(tmp_path):
    wl = WORKLOADS["expand"]
    out = wl.call(wl.build(5), str(tmp_path))
    assert list(out.parts) == ["cmd_expand"]
    assert all(c.passed for c in wl.checks(out))
    first = out.fingerprint()

    out.values["mass_drift_per_time"] = 1e-3
    assert not all(c.passed for c in wl.checks(out))
    name = next(iter(out.csv))
    out.csv[name] = out.csv[name].replace(b"0", b"1", 1)
    assert out.fingerprint() != first


def test_spectral_sweep_acceptance_gates_trip():
    spectral = WORKLOADS["spectral"]
    row = (3, 2 / 3, 0.5, 0, 0, 1, -6.0, 1e-5, -6.25)
    slope = (1200, 0.0, -6.1, -6.0)
    good = Output(values={"matched": [row], "slopes": [slope]})
    assert all(c.passed for c in spectral.checks(good))
    far_eig = Output(values={"matched": [row[:7] + (0.2,) + row[8:]],
                             "slopes": [slope]})
    assert not all(c.passed for c in spectral.checks(far_eig))
    slow = Output(values={"matched": [row], "slopes": [(1200, 0.0, -5.0, -6.0)]})
    assert not all(c.passed for c in spectral.checks(slow))
    # the N=4800 slope is reported, never gated
    wrong_4800 = Output(values={"matched": [row],
                                "slopes": [slope, (4800, 0.0, -1.0, -6.0)]})
    assert all(c.passed for c in spectral.checks(wrong_4800))

    sweep = WORKLOADS["sweep"]
    rows = [[0, 0.7, 4.67, 1.0, 1.0, 0, "", 0, 1, False, ""],
            [1, 0.8, 7.0, "", "", "", "", "", "", "", "ValueError: boom"]]
    assert [c.passed for c in sweep.checks(Output(values={"rows": rows}))] == \
        [True, False]

    acceptance = WORKLOADS["acceptance"]
    results = [CheckResult("3-leading-rate", "x", 0.01, "<= 0.05", True),
               CheckResult("5-second-order", "y", 0.2, "<= 0.10", False)]
    assert [c.passed for c in acceptance.checks(Output(values={"results": results}))] \
        == [True, False]


def test_call_once_counts_raised_calls_and_missed_checks(tmp_path):
    class Flaky:
        name = "flaky"

        def __init__(self, fail):
            self.fail = fail

        def call(self, inputs, outdir):
            if self.fail:
                raise RuntimeError("solver failure")
            return Output(parts={"a": 1.0})

        def checks(self, out):
            return [Check("ok", True), Check("bad", False)]

        def accuracy(self, out):
            return {}

    ok = worker.call_once(Flaky(False), None, str(tmp_path))
    assert (ok["attempted"], ok["failed"], ok["failures"]) == (3, 1, ["bad: "])
    raised = worker.call_once(Flaky(True), None, str(tmp_path))
    assert (raised["attempted"], raised["failed"]) == (1, 1)
    assert "solver failure" in raised["failures"][0]


def test_run_sums_part_medians_over_reference_and_counts_differing_outputs(
        monkeypatch):
    around = {"a": [1.0, 2.0, 3.0], "b": [0.5, 0.5, 0.5]}
    calls = iter([
        {"parts": {"a": 2.0, "b": 2.0}, "reference": around, "fingerprint": "x"},
        {"parts": {"a": 3.0, "b": 1.0}, "reference": around, "fingerprint": "x"},
        {"parts": {"a": 0.5, "b": 3.0}, "reference": around, "fingerprint": "y"},
    ])

    def fake_child(args, timeout):
        d = next(calls)
        now = run.time.monotonic()
        d.update(imported=now, built=now, attempted=2, failed=0, failures=[],
                 accuracy={}, peak_rss_mb=50.0, provenance={})
        return d

    monkeypatch.setattr(run, "_child", fake_child)
    monkeypatch.setattr(run, "MIN_CALLS", 3)
    res = run.run_one("expand", 1, 0.0, 0)["result"]
    # per part, the median over calls of its time over the median reference
    assert res["metrics"]["wall_ref"]["value"] == pytest.approx(2.0 / 2.0 + 2.0 / 0.5)
    # 3 calls x 2 operations, plus 2 output comparisons, one of them differing
    assert (res["attempted"], res["failed"], res["correct"]) == (8, 1, False)


def test_tracer_wraps_every_binding_and_restores_them():
    import fastdiff_lab
    original = geometry.weighted_sup
    criteria = selftest.ALL_CRITERIA
    nodes = geometry.RadialGrid.__dict__["nodes"]
    tracer = Tracer().install(fastdiff_lab)
    try:
        assert evolve.weighted_sup is geometry.weighted_sup is not original
        assert selftest.ALL_CRITERIA[0] is selftest.criterion_1_eigenvalues
        grid = geometry.make_grid(12.0, 32)
        evolve.weighted_sup(geometry.GridFunction(grid, 0, grid.nodes), 0.0)
    finally:
        tracer.uninstall()
    assert evolve.weighted_sup is geometry.weighted_sup is original
    assert selftest.ALL_CRITERIA is criteria
    assert geometry.RadialGrid.__dict__["nodes"] is nodes
    names = [tracer.names[i] for i in tracer.name]
    assert names.count("geometry.weighted_sup") == 1
    assert "geometry.RadialGrid.nodes" in names


@pytest.mark.parametrize("base,new,better,want", [
    ([1.0] * 10, [0.8] * 10, "lower", "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "lower", "regressed"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 0.99], "lower", "unchanged"),
    ([1.0, 2.0, 0.5, 1.5], [1.1, 2.1, 0.6, 1.4], "lower", "unresolved"),
    ([1.0] * 10, [1.3] * 10, "higher", "improved"),
])
def test_compare_verdicts(base, new, better, want):
    assert run.verdict(base, new, better, 0.1) == want
