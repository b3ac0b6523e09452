"""Criterion runners: the one schedule of independent solves they share,
which runs each solve once, must give the inline values bit for bit, and
leaves a solve's error to the criterion that owns it."""

import multiprocessing
import threading

import numpy as np
import pytest

from fastdiff_lab import _pool, evolve, selftest


def _values(results):
    return [(r.criterion, r.detail, r.value, r.bound, r.passed)
            for r in results if "runtime_s" not in r.detail]


def test_rate_trace_cache_is_bounded():
    assert selftest._solves.cache_info().maxsize == 2


def test_rate_trace_arrays_are_read_only():
    solves = selftest._solves(True)
    runs = solves[3]
    assert list(runs) == [(n, m, True) for n, m in selftest.RATE_CASES]
    for _, _, trace, _ in runs.values():
        arrays = [trace.times, trace.sup, trace.mass_defect, trace.energy,
                  trace.min_v, trace.max_v, *trace.weighted.values()]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
    assert selftest._solves(True) is solves


@pytest.mark.parametrize("criterion", [selftest.criterion_7_conservation,
                                       selftest.criterion_11_energy])
def test_cold_and_warm_cache_give_identical_values(criterion):
    selftest._solves.cache_clear()
    cold = _values(criterion(fast=True))
    hits = selftest._solves.cache_info().hits
    warm = _values(criterion(fast=True))
    assert selftest._solves.cache_info().hits > hits
    assert warm == cold
    assert all(isinstance(v[2], float) and np.isfinite(v[2]) for v in cold)


def test_criteria_3_7_11_run_each_trace_once(monkeypatch):
    monkeypatch.setattr(_pool, "usable_cores", lambda: 1)  # count inline
    runs = []
    rate_trace = selftest._rate_trace
    monkeypatch.setattr(selftest, "_rate_trace",
                        lambda case: runs.append(case) or rate_trace(case))
    selftest._solves.cache_clear()
    for criterion in (selftest.criterion_3_leading_rate,
                      selftest.criterion_7_conservation,
                      selftest.criterion_11_energy):
        criterion(fast=True)
    assert runs == [(n, m, True) for n, m in selftest.RATE_CASES]
    info = selftest._solves.cache_info()
    assert info.misses == 1 and info.currsize == 1
    selftest._solves.cache_clear()  # drop the traces of the wrapper


def test_every_solve_runs_once_in_one_map_ordered_call(monkeypatch):
    monkeypatch.setattr(_pool, "usable_cores", lambda: 1)  # count inline
    maps, jobs = [], []
    map_ordered, call = _pool.map_ordered, selftest._call
    monkeypatch.setattr(_pool, "map_ordered",
                        lambda fn, items: maps.append(fn) or map_ordered(fn, items))
    monkeypatch.setattr(selftest, "_call",
                        lambda job: jobs.append(job) or call(job))
    selftest._solves.cache_clear()
    for criterion in selftest.ALL_CRITERIA:
        criterion(fast=True)
    schedule = selftest._schedule(True)
    assert len(maps) == 1
    assert jobs == [(fn, item) for _, fn, item in schedule]
    assert len({(fn.__name__, repr(item)) for fn, item in jobs}) == len(jobs)
    info = selftest._solves.cache_info()
    assert info.misses == 1 and info.currsize == 1
    selftest._solves.cache_clear()  # drop the results of the wrapper


@pytest.mark.parametrize("fast", [True, False])
def test_schedule_is_longest_first(fast):
    schedule = selftest._schedule(fast)
    owners = [owner for owner, _, _ in schedule]
    order = [5, 3, 8, 4, 9, 6, 2, 1]
    assert sorted(set(owners), key=owners.index) == order
    assert owners == sorted(owners, key=order.index)
    count = 600 if fast else 1200
    assert [item for owner, _, item in schedule if owner == 8] == [
        ("k0", count), ("amplitude", count)]


def test_owned_keys_follow_each_owners_items_whatever_the_dispatch_order(
        monkeypatch):
    monkeypatch.setattr(_pool, "usable_cores", lambda: 1)
    selftest._solves.cache_clear()
    want = _values(selftest.criterion_8_coefficients(fast=True))
    schedule = selftest._schedule
    monkeypatch.setattr(selftest, "_schedule",
                        lambda fast: schedule(fast)[::-1])
    selftest._solves.cache_clear()
    try:
        solves = selftest._solves(True)
        for owner, (_, items) in selftest._solve_items(True).items():
            assert list(solves[owner]) == items
        assert _values(selftest.criterion_8_coefficients(fast=True)) == want
    finally:
        selftest._solves.cache_clear()  # drop the reversed run


def _planted_gamma(case):
    """Criterion 5's worker with a positivity loss planted in it."""
    raise evolve.PositivityError(7, -0.25)


@pytest.mark.parametrize("cores", [1, 2])
def test_a_solve_error_is_raised_by_the_criterion_that_owns_it(monkeypatch,
                                                               cores):
    monkeypatch.setattr(_pool, "usable_cores", lambda: cores)
    monkeypatch.setattr(selftest, "_second_order_gamma", _planted_gamma)
    selftest._solves.cache_clear()
    threads = threading.active_count()
    try:
        rows = selftest.criterion_3_leading_rate(fast=True)
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
        with pytest.raises(evolve.PositivityError) as info:
            selftest.criterion_5_second_order(fast=True)
        assert (info.value.node, info.value.value) == (7, -0.25)
        assert "in _planted_gamma" in str(info.value.__cause__)
        assert selftest.criterion_8_coefficients(fast=True)
    finally:
        selftest._solves.cache_clear()  # drop the planted error
    assert [r.passed for r in rows] == [True] * 4


def _planted_eigenvalues(case):
    """Criterion 1's worker with a failed eigensolve planted in it."""
    raise np.linalg.LinAlgError(f"planted at {case}")


@pytest.mark.parametrize("cores", [1, 2])
def test_a_criterion_1_solve_error_is_raised_by_criterion_1(monkeypatch,
                                                            cores):
    monkeypatch.setattr(_pool, "usable_cores", lambda: cores)
    monkeypatch.setattr(selftest, "_eigenvalue_errors", _planted_eigenvalues)
    selftest._solves.cache_clear()
    try:
        with pytest.raises(np.linalg.LinAlgError, match="planted at") as info:
            selftest.criterion_1_eigenvalues(fast=True)
        assert "in _planted_eigenvalues" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []
        rows = selftest.criterion_2_residuals(fast=True)
    finally:
        selftest._solves.cache_clear()  # drop the planted error
    assert rows and all(r.passed for r in rows)


def _run_with_cores(monkeypatch, cores):
    monkeypatch.setattr(_pool, "usable_cores", lambda: cores)
    selftest._solves.cache_clear()
    return [_values(criterion(fast=True)) for criterion in selftest.ALL_CRITERIA]


def test_pooled_criteria_equal_inline_bitwise(monkeypatch):
    inline = _run_with_cores(monkeypatch, 1)
    pooled = _run_with_cores(monkeypatch, 2)
    selftest._solves.cache_clear()
    # criteria 1 and 2 are pooled solves too
    assert {1, 2} <= {owner for owner, _, _ in selftest._schedule(True)}
    for criterion, a, b in zip(selftest.ALL_CRITERIA, inline, pooled):
        assert [tuple(map(repr, row)) for row in a] == \
            [tuple(map(repr, row)) for row in b], criterion.__name__


def test_runtime_rows_report_each_traces_compute_seconds():
    rows = [r for r in selftest.criterion_3_leading_rate(fast=True)
            if r.detail.endswith("runtime_s")]
    seconds = [run[3] for run in selftest._solves(True)[3].values()]
    assert [r.value for r in rows] == seconds
    assert all(0.0 < s < 120.0 for s in seconds)


def test_second_order_gamma_converges_in_dt():
    # criterion 5's fast case at its dt and at half of it: the linearly
    # implicit BDF2 step has no solver tolerance, so gamma moves only by
    # the O(dt^2) error of the time integrator
    (m, dt, t_final, policy, count), = selftest._second_order_cases(True)
    assert dt == 1e-3
    gammas = [selftest._second_order_gamma((m, step, t_final, policy, count))
              for step in (dt, dt / 2.0)]
    assert abs(gammas[1] - gammas[0]) <= 1e-3 * abs(gammas[1])
