"""Criterion runners: the rate trace criteria 3, 7 and 11 share."""

import numpy as np
import pytest

from fastdiff_lab import selftest


def _values(results):
    return [(r.criterion, r.detail, r.value, r.bound, r.passed)
            for r in results if "runtime_s" not in r.detail]


def test_rate_trace_cache_is_bounded():
    assert selftest._rate_trace.cache_info().maxsize == 4


def test_rate_trace_arrays_are_read_only():
    params, state0, trace = selftest._rate_trace(1, 0.5, True)
    arrays = [state0.w.values, trace.times, trace.sup, trace.mass_defect,
              trace.energy, trace.min_v, trace.max_v,
              *trace.weighted.values()]
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert selftest._rate_trace(1, 0.5, True)[2] is trace


@pytest.mark.parametrize("criterion", [selftest.criterion_7_conservation,
                                       selftest.criterion_11_energy])
def test_cold_and_warm_cache_give_identical_values(criterion):
    selftest._rate_trace.cache_clear()
    cold = _values(criterion(fast=True))
    hits = selftest._rate_trace.cache_info().hits
    warm = _values(criterion(fast=True))
    assert selftest._rate_trace.cache_info().hits > hits
    assert warm == cold
    assert all(isinstance(v[2], float) and np.isfinite(v[2]) for v in cold)


def test_criteria_3_7_11_run_each_trace_once():
    selftest._rate_trace.cache_clear()
    for criterion in (selftest.criterion_3_leading_rate,
                      selftest.criterion_7_conservation,
                      selftest.criterion_11_energy):
        criterion(fast=True)
    info = selftest._rate_trace.cache_info()
    assert info.misses == 2 and info.currsize == 2
