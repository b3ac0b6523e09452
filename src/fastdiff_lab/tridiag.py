"""The package's tridiagonal solvers: direct LAPACK ``?gtsv`` and ``?gttrf``/``?gttrs`` calls.

``scipy.linalg.solve_banded((1, 1), ...)`` packs nothing new for a
tridiagonal system: it validates, slices the three bands back out of the
``(3, N)`` array and calls the same ``dgtsv``.  Calling the routines
directly gives bitwise-identical solutions without that wrapper cost
(LAPACK Users' Guide, 3rd ed., ?gtsv), while raising the errors
``solve_banded`` raises.  There are two paths.

A nonlinear step builds its matrix and right side afresh each time: it
fills four views of one buffer, which ``_solve_packed`` checks for
finiteness in one pass and solves in place with ``dgtsv``.  A plain buffer
is read in the layout of ``_packed_views``; a caller that solves the same
buffer again, in that layout or its own, hands over the views it keeps
with it.

A Crank-Nicolson step solves one fixed matrix: it is factored once with
``dgttrf`` and solved per right side with ``dgttrs``.  Both routines pivot
and eliminate exactly as ``dgtsv`` does, so the solutions are bitwise
those of ``solve_banded``.  The step checks its solution, not its right
side (``_solve_factored_unchecked``): a non-finite right side gives a
non-finite solution.

Every input check is made without forming a mask:
inf * 0 and nan * 0 are nan, so the dot product of an array with zeros is
finite exactly when every entry is.  ``np.vdot`` forms it without the
floating-point warning ``np.dot`` gives for inf * 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs


@lru_cache(maxsize=16)
def _zeros(size: int) -> np.ndarray:
    """A shared, read-only vector of ``size`` zeros."""
    zeros = np.zeros(size)
    zeros.flags.writeable = False
    return zeros


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not math.isfinite(np.vdot(a, _zeros(a.size))):
            raise ValueError("array must not contain infs or NaNs")


def _packed_views(system: np.ndarray) -> tuple:
    """The four views (dl, d, du, b) of a tridiagonal system of N unknowns
    packed in one (4N-2)-long buffer: sub-diagonal (rows 1..N-1), diagonal,
    super-diagonal (rows 0..N-2) and right side."""
    N = (system.size + 2) // 4
    return (system[:N - 1], system[N - 1:2 * N - 1],
            system[2 * N - 1:3 * N - 2], system[3 * N - 2:])


def _solve_packed(system) -> np.ndarray:
    """Solve a packed system (``_packed_views``) in place, checked for
    finiteness in one pass over the whole buffer; the solution is a view
    into it.  ``system`` is the buffer or the pair (buffer, its four
    views).  Raises ValueError on non-finite input and LinAlgError on a
    singular system."""
    if isinstance(system, tuple):
        system, bands = system
    else:
        bands = _packed_views(system)
    _check_finite(system)
    _, _, _, x, info = dgtsv(*bands, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _factor_tridiag(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
    """LU factors of the tridiagonal matrix with bands (dl, d, du), for
    ``_solve_factored_unchecked``.  The bands are left untouched.  Raises ValueError
    on non-finite bands and LinAlgError on a singular matrix."""
    _check_finite(dl, d, du)
    *lu, info = dgttrf(dl, d, du)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gttrf")
    return tuple(lu)


def _solve_factored_unchecked(lu: tuple, b: np.ndarray) -> np.ndarray:
    """Solve the factored system for right side b (left untouched), with
    no check of b, for a caller that checks the solution: a non-finite
    entry of b makes the solution non-finite."""
    x, info = dgttrs(*lu, b)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gttrs")
    return x
