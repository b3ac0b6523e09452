"""Properties over the whole mass-preserving range: n = 1..6, (n-2)/n < m < 1.

Every (n, m) either gives finite, validated numbers or fails with the named
error of its layer: ValueError from ``derive_params`` where p = 2/(1-m) - n
rounds to zero, EigensolveError where the bands of ``linop.assemble`` leave
the float range (h |2l-p-2| or h |eta+2| of several hundred, so on ``GRID``
only as m -> 1), EvolveError where the flux form's cell masses or prefactor
cannot be represented.  The examples are derandomized so the suite gives
the same verdict on every run; drop ``derandomize`` and raise
``max_examples`` to search further.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fastdiff_lab import closedform as cf
from fastdiff_lab import evolve
from fastdiff_lab import geometry as geo
from fastdiff_lab import linop
from fastdiff_lab.closedform import ModeIndex

from helpers import nonlinear_rhs

GRID = geo.make_grid(12.0, 600)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)

# a bound state closer than this to the essential threshold decays over more
# than the truncated grid holds, so the discrete spectrum cannot show it
MIN_GAP = 0.02


@st.composite
def models(draw):
    n = draw(st.integers(1, 6))
    m0 = max(0.0, (n - 2) / n)
    m = draw(st.floats(m0, 1.0, exclude_min=True, exclude_max=True))
    return n, m


def params_or_none(n, m):
    """derive_params, or None after checking its named rejection."""
    try:
        return cf.derive_params(n, m)
    except ValueError as exc:
        assert "too close to (n-2)/n" in str(exc)
        return None


@given(models())
@PROPERTY
def test_operator_is_finite_with_real_spectrum_or_named_failure(model):
    params = params_or_none(*model)
    if params is None:
        return
    for ell in (0, 1, 2) if params.n > 1 else (0, 1):
        for eta in (0.0, params.eta_cr):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                try:
                    op = linop.assemble(ell, eta, GRID, params)
                except linop.EigensolveError as exc:
                    assert "leave the float range" in str(exc)
                    continue
            for band in (op.sub, op.diag, op.sup):
                assert np.isfinite(band).all()
            # positive off-diagonal products: exactly similar to a
            # symmetric matrix, so the eigensolve's sign guard never fires
            assert (op.sup[:-1] * op.sub[1:] > 0.0).all(), (params, ell, eta)
            assert np.isfinite(linop.top_eigenvalues(op, 1).entries[0].value)


@given(models())
@PROPERTY
def test_barenblatt_is_a_fixed_point_or_named_failure(model):
    params = params_or_none(*model)
    if params is None:
        return
    w = geo.GridFunction(GRID, 0, np.zeros(GRID.count + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            out = nonlinear_rhs(w, params)
        except evolve.EvolveError as exc:
            assert "n=" in str(exc) and "s_max" in str(exc)
            return
    assert np.all(out.values == 0.0)


@given(models())
@PROPERTY
def test_leading_radial_eigenvalues_match_closed_form(model):
    params = params_or_none(*model)
    if params is None or params.p > 50.0:
        return
    op = linop.assemble(0, params.eta_cr, GRID, params)
    radial = [md for md, _ in cf.admissible_modes(params.eta_cr, params)
              if md.ell == 0]
    rep = linop.top_eigenvalues(op, len(radial), match_tol=0.2)
    matched = {e.mode: e for e in rep.entries if e.mode is not None}
    for md in (ModeIndex(0, 0), ModeIndex(0, 1)):
        if md not in radial:
            continue
        if cf.eigenvalue(md, params) - rep.threshold < MIN_GAP:
            continue
        assert md in matched, (params, md)
        assert abs(matched[md].error) <= 5e-2, (params, md)


@pytest.mark.parametrize("n", range(1, 7))
def test_p_rounding_to_zero_is_a_named_error(n):
    m0 = max(0.0, (n - 2) / n)
    m = float(np.nextafter(m0, 1.0))
    try:
        params = cf.derive_params(n, m)
    except ValueError as exc:
        assert "too close to (n-2)/n" in str(exc)
    else:
        assert params.p > 0.0 and np.isfinite(params.beta)
