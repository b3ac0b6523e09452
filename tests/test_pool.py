"""The ordered fork pool of the criteria and sweep, and the errors it carries."""

import os
import pickle
import subprocess
import sys
import time

import numpy as np
import pytest

import fastdiff_lab
from fastdiff_lab import _pool, evolve, geometry
from fastdiff_lab.asymptotics import AnalysisError, EmptyWindowError
from fastdiff_lab.closedform import BranchBoundaryError, derive_params
from fastdiff_lab.config import ConfigError
from fastdiff_lab.linop import EigensolveError

NAMED_ERRORS = [
    evolve.EvolveError("no step"),
    evolve.PositivityError(3, 0.5),
    evolve.NewtonError("Newton damping stalled at |F| = 1.000e-03"),
    EigensolveError("off-diagonal products not positive"),
    AnalysisError("trace too short"),
    EmptyWindowError("no samples in [1e-08, 0.01]"),
    ConfigError("grid.count: must be >= 16, got 3"),
    BranchBoundaryError("m = m_2 exactly"),
]


@pytest.mark.parametrize("exc", NAMED_ERRORS, ids=lambda e: type(e).__name__)
def test_named_errors_survive_pickling(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def _state_from_offset(offset):
    """A pool worker: the state at w = offset on a small grid (raises
    PositivityError once 1 + offset <= 0)."""
    grid = geometry.make_grid(4.0, 40)
    w = geometry.GridFunction(grid, 0, np.full(grid.count + 1, offset))
    return evolve.EvolutionState(0.0, w, derive_params(3, 2.0 / 3.0)).t


def test_pooled_worker_positivity_error_reaches_the_caller():
    with pytest.raises(evolve.PositivityError) as info:
        _pool.map_ordered(_state_from_offset, [0.0, -1.5], jobs=2)
    assert (info.value.node, info.value.value) == (0, -0.5)


def _index_after_wait(item):
    """A pool worker: sleeps so that later items finish first."""
    index, wait = item
    time.sleep(wait)
    return index, os.getpid()


def test_map_ordered_keeps_input_order_across_workers():
    items = [(0, 0.3), (1, 0.0), (2, 0.0), (3, 0.0)]
    results = _pool.map_ordered(_index_after_wait, items, jobs=2)
    assert [index for index, _ in results] == [0, 1, 2, 3]
    assert os.getpid() not in {pid for _, pid in results}
    assert len({pid for _, pid in results}) == 2


def test_one_worker_runs_the_plain_loop_in_this_process(monkeypatch):
    monkeypatch.setattr(_pool, "usable_cores", lambda: 1)
    calls = []
    assert _pool.map_ordered(lambda x: calls.append(x) or -x, [1, 2, 3]) \
        == [-1, -2, -3]
    assert calls == [1, 2, 3]  # a closure: it never left this process
    assert _pool.map_ordered(abs, [-4], jobs=4) == [4]  # one item, one worker


def test_usable_cores_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert _pool.usable_cores() == 1
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert _pool.usable_cores() == 64


def test_importing_cli_and_selftest_loads_no_multiprocessing():
    code = ("import sys, fastdiff_lab.cli, fastdiff_lab.selftest; "
            "print('multiprocessing' in sys.modules)")
    package_root = os.path.dirname(os.path.dirname(fastdiff_lab.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=60, env=env)
    assert out.stdout.strip() == "False"
