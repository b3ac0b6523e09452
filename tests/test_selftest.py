"""Criterion runners: the rate traces criteria 3, 7 and 11 share, and the
pooled solves, which must give the inline values bit for bit."""

import numpy as np
import pytest

from fastdiff_lab import _pool, selftest


def _values(results):
    return [(r.criterion, r.detail, r.value, r.bound, r.passed)
            for r in results if "runtime_s" not in r.detail]


def test_rate_trace_cache_is_bounded():
    assert selftest._rate_traces.cache_info().maxsize == 2


def test_rate_trace_arrays_are_read_only():
    runs = selftest._rate_traces(True)
    assert list(runs) == list(selftest.RATE_CASES)
    for _, _, trace, _ in runs.values():
        arrays = [trace.times, trace.sup, trace.mass_defect, trace.energy,
                  trace.min_v, trace.max_v, *trace.weighted.values()]
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
    assert selftest._rate_traces(True) is runs


@pytest.mark.parametrize("criterion", [selftest.criterion_7_conservation,
                                       selftest.criterion_11_energy])
def test_cold_and_warm_cache_give_identical_values(criterion):
    selftest._rate_traces.cache_clear()
    cold = _values(criterion(fast=True))
    hits = selftest._rate_traces.cache_info().hits
    warm = _values(criterion(fast=True))
    assert selftest._rate_traces.cache_info().hits > hits
    assert warm == cold
    assert all(isinstance(v[2], float) and np.isfinite(v[2]) for v in cold)


def test_criteria_3_7_11_run_each_trace_once(monkeypatch):
    monkeypatch.setattr(_pool, "usable_cores", lambda: 1)  # count inline
    runs = []
    rate_trace = selftest._rate_trace
    monkeypatch.setattr(selftest, "_rate_trace",
                        lambda case: runs.append(case) or rate_trace(case))
    selftest._rate_traces.cache_clear()
    for criterion in (selftest.criterion_3_leading_rate,
                      selftest.criterion_7_conservation,
                      selftest.criterion_11_energy):
        criterion(fast=True)
    assert runs == [(n, m, True) for n, m in selftest.RATE_CASES]
    info = selftest._rate_traces.cache_info()
    assert info.misses == 1 and info.currsize == 1
    selftest._rate_traces.cache_clear()  # drop the traces of the wrapper


def _run_with_cores(monkeypatch, cores):
    monkeypatch.setattr(_pool, "usable_cores", lambda: cores)
    selftest._rate_traces.cache_clear()
    return [_values(criterion(fast=True)) for criterion in selftest.ALL_CRITERIA]


def test_pooled_criteria_equal_inline_bitwise(monkeypatch):
    inline = _run_with_cores(monkeypatch, 1)
    pooled = _run_with_cores(monkeypatch, 2)
    selftest._rate_traces.cache_clear()
    for criterion, a, b in zip(selftest.ALL_CRITERIA, inline, pooled):
        assert [tuple(map(repr, row)) for row in a] == \
            [tuple(map(repr, row)) for row in b], criterion.__name__


def test_runtime_rows_report_each_traces_compute_seconds():
    rows = [r for r in selftest.criterion_3_leading_rate(fast=True)
            if r.detail.endswith("runtime_s")]
    seconds = [run[3] for run in selftest._rate_traces(True).values()]
    assert [r.value for r in rows] == seconds
    assert all(0.0 < s < 120.0 for s in seconds)
