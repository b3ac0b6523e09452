"""The package's one tridiagonal solver: a direct LAPACK ``?gtsv`` call.

``scipy.linalg.solve_banded((1, 1), ...)`` packs nothing new for a
tridiagonal system: it validates, slices the three bands back out of the
``(3, N)`` array and calls the same ``dgtsv``.  Calling the routine
directly gives bitwise-identical solutions without that wrapper cost
(LAPACK Users' Guide, 3rd ed., ?gtsv), while raising the errors
``solve_banded`` raises.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv


def _solve_tridiag(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with bands (dl, d, du) for right side b.

    ``d`` has N entries, ``dl`` (sub-diagonal, rows 1..N-1) and ``du``
    (super-diagonal, rows 0..N-2) have N-1.  The inputs are scratch: LAPACK
    factors in place, so callers pass freshly built arrays.  Raises
    ValueError on non-finite input and LinAlgError on a singular system.
    """
    for a in (dl, d, du, b):
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    _, _, _, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x
