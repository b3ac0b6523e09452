"""The package's tridiagonal solve: one direct LAPACK ``?gtsv`` call.

``scipy.linalg.solve_banded((1, 1), ...)`` packs nothing new for a
tridiagonal system: it validates, slices the three bands back out of the
``(3, N)`` array and calls the same ``dgtsv``.  Calling the routine
directly gives bitwise-identical solutions without that wrapper cost
(LAPACK Users' Guide, 3rd ed., ?gtsv), while raising the errors
``solve_banded`` raises.

A nonlinear step builds its matrix and right side afresh each time, in
four views of one buffer that it keeps with the buffer;
``_solve_packed`` checks the whole buffer for finiteness in one pass and
solves in place.  The check forms no mask: inf * 0 and nan * 0 are nan, so
the dot product of an array with zeros is finite exactly when every entry
is.  ``np.vdot`` forms it without the floating-point warning ``np.dot``
gives for inf * 0.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv


@lru_cache(maxsize=16)
def _zeros(size: int) -> np.ndarray:
    """A shared, read-only vector of ``size`` zeros."""
    zeros = np.zeros(size)
    zeros.flags.writeable = False
    return zeros


def _solve_packed(system: tuple) -> np.ndarray:
    """Solve a packed tridiagonal system in place; the solution is a view
    into its buffer.  ``system`` is the pair (buffer, its four views: the
    sub-diagonal, diagonal, super-diagonal and right side), and the whole
    buffer is checked for finiteness in one pass.  Raises ValueError on
    non-finite input and LinAlgError on a singular system."""
    buffer, bands = system
    if not math.isfinite(np.vdot(buffer, _zeros(buffer.size))):
        raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(*bands, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x
