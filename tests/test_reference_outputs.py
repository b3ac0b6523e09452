"""Committed reference outputs: the numbers a change must leave alone.

``reference_outputs.json`` holds, for each output below, the sha256 of its
CSV body and the values it prints, together with the environment that
wrote it (python, numpy, scipy, their LAPACK builds and the machine).  On
that environment a body must match byte for byte; elsewhere each number
must agree to 1e-10 relative and every other cell exactly, and a failure
names each value that moved.

The record is rewritten only when FASTDIFF_LAB_REGENERATE_REFERENCE=1 is
set; the tests then compare against the file they just wrote::

    FASTDIFF_LAB_REGENERATE_REFERENCE=1 PYTHONPATH=src \\
        python -m pytest -q tests/test_reference_outputs.py
"""

import hashlib
import json
import math
import os
import pathlib
import platform

import numpy as np
import pytest
import scipy

from fastdiff_lab import cli, selftest
from fastdiff_lab.config import ExperimentConfig, apply_overrides, config_from_dict
from fastdiff_lab.reporting import Table

from test_cli import SHORT_SWEEP

REFERENCE = pathlib.Path(__file__).with_name("reference_outputs.json")
REGENERATE = "FASTDIFF_LAB_REGENERATE_REFERENCE"
REL_TOL = 1e-10


def _lapack(module) -> str:
    dep = module.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    return f"{dep['name']} {dep.get('version', '')}".strip()


def _environment() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_lapack": _lapack(np),
            "scipy_lapack": _lapack(scipy), "machine": platform.machine()}


def _cell(value):
    """A table cell as JSON keeps it: bools and strings as they are,
    every number as a float."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return float(value)
    return str(value)


def _record(tables) -> dict:
    """name -> sha256 of the CSV body and its rows, for each table."""
    return {t.name: {"sha256": hashlib.sha256(t.to_csv().encode()).hexdigest(),
                     "rows": [[_cell(v) for v in row] for row in t.rows]}
            for t in tables}


def _selftest():
    rows = [[r.criterion, r.detail, r.value, r.bound, r.passed]
            for r in selftest.run_selftest(fast=True)
            if not r.detail.endswith(cli.RUNTIME_SUFFIX)]
    return [Table("checks", ["criterion", "detail", "value", "bound", "passed"],
                  rows)]


def _spectrum(n, m):
    cfg = apply_overrides(ExperimentConfig(), model={"n": n, "m": m})
    return cli.cmd_spectrum(cfg.validate()).tables


OUTPUTS = {
    "selftest_fast": _selftest,
    "expand_default": lambda: cli.cmd_expand(ExperimentConfig().validate()).tables,
    "evolve_default": lambda: cli.cmd_evolve(ExperimentConfig().validate()).tables,
    "spectrum_n3_m2/3": lambda: _spectrum(3, 2.0 / 3.0),
    "spectrum_n1_m0.5": lambda: _spectrum(1, 0.5),
    "spectrum_n3_m0.8": lambda: _spectrum(3, 0.8),
    "sweep_short": lambda: cli.cmd_sweep(config_from_dict(SHORT_SWEEP).validate()).tables,
}


@pytest.fixture(scope="module")
def reference():
    if os.environ.get(REGENERATE) == "1":
        payload = {"environment": _environment(),
                   "outputs": {name: _record(make()) for name, make in OUTPUTS.items()}}
        REFERENCE.write_text(json.dumps(payload, indent=1) + "\n")
    return json.loads(REFERENCE.read_text())


def _moved(name, want_rows, got_rows, rel_tol) -> list[str]:
    """Every cell of got_rows that differs from want_rows, numbers beyond
    rel_tol relative, named by output, row and column."""
    if len(want_rows) != len(got_rows):
        return [f"{name}: {len(got_rows)} rows, reference has {len(want_rows)}"]
    moved = []
    for i, (want, got) in enumerate(zip(want_rows, got_rows)):
        if len(want) != len(got):
            moved.append(f"{name} row {i}: {len(got)} cells, reference has {len(want)}")
            continue
        for j, (a, b) in enumerate(zip(want, got)):
            numbers = isinstance(a, float) and isinstance(b, float)
            if numbers and (a == b or (math.isnan(a) and math.isnan(b))):
                continue
            if numbers and abs(a - b) <= rel_tol * max(abs(a), abs(b)):
                continue
            if not numbers and a == b and type(a) is type(b):
                continue
            moved.append(f"{name} row {i} col {j}: {b!r}, reference {a!r}")
    return moved


def test_reference_names_every_output(reference):
    assert sorted(reference["outputs"]) == sorted(OUTPUTS)


@pytest.mark.parametrize("output", sorted(OUTPUTS))
def test_output_matches_reference(reference, output):
    want = reference["outputs"][output]
    got = _record(OUTPUTS[output]())
    assert sorted(got) == sorted(want), f"{output}: tables {sorted(got)}"
    same_env = reference["environment"] == _environment()
    moved = []
    for table in want:
        label = f"{output}/{table}"
        if same_env:
            if got[table]["sha256"] != want[table]["sha256"]:
                moved += _moved(label, want[table]["rows"], got[table]["rows"], 0.0) \
                    or [f"{label}: CSV bytes differ"]
        else:
            moved += _moved(label, want[table]["rows"], got[table]["rows"], REL_TOL)
    assert not moved, "moved values:\n" + "\n".join(moved)


def test_moved_values_are_named():
    want = [["a", 1.0, True], ["b", 2.0, False]]
    assert _moved("t", want, [["a", 1.0, True], ["b", 2.0, False]], 0.0) == []
    assert _moved("t", want, [["a", 1.0 + 1e-12, True], ["b", 2.0, False]],
                  REL_TOL) == []
    assert _moved("t", want, [["a", 1.0 + 1e-12, True], ["c", 2.0, True]], 0.0) == [
        "t row 0 col 1: 1.000000000001, reference 1.0",
        "t row 1 col 0: 'c', reference 'b'",
        "t row 1 col 2: True, reference False"]
    assert _moved("t", want, want[:1], 0.0) == ["t: 1 rows, reference has 2"]
