"""The package's tridiagonal solvers: direct LAPACK ``?gtsv`` and ``?gttrf``/``?gttrs`` calls.

``scipy.linalg.solve_banded((1, 1), ...)`` packs nothing new for a
tridiagonal system: it validates, slices the three bands back out of the
``(3, N)`` array and calls the same ``dgtsv``.  Calling the routine
directly gives bitwise-identical solutions without that wrapper cost
(LAPACK Users' Guide, 3rd ed., ?gtsv), while raising the errors
``solve_banded`` raises.

A Newton iteration builds its matrix and right side afresh each time: it
fills the four views (``_packed_views``) of one buffer, which
``_solve_packed`` checks for finiteness in one pass and solves in place.

A matrix that is solved against many right sides (a Crank-Nicolson run
with a fixed step) is factored once with ``dgttrf`` and solved per side
with ``dgttrs``.  Both routines pivot and eliminate exactly as ``dgtsv``
does, so the solutions are bitwise those of ``_solve_tridiag``.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")


def _gtsv(dl, d, du, b) -> np.ndarray:
    """``dgtsv`` in place on finite inputs, with solve_banded's errors."""
    _, _, _, x, info = dgtsv(dl, d, du, b, True, True, True, True)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gtsv")
    return x


def _solve_tridiag(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                   b: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system with bands (dl, d, du) for right side b.

    ``d`` has N entries, ``dl`` (sub-diagonal, rows 1..N-1) and ``du``
    (super-diagonal, rows 0..N-2) have N-1.  The inputs are scratch: LAPACK
    factors in place, so callers pass freshly built arrays.  Raises
    ValueError on non-finite input and LinAlgError on a singular system.
    """
    _check_finite(dl, d, du, b)
    return _gtsv(dl, d, du, b)


def _packed_views(system: np.ndarray) -> tuple:
    """The four views (dl, d, du, b), in ``_solve_tridiag``'s order, of a
    tridiagonal system of N unknowns packed in one (4N-2)-long buffer."""
    N = (system.size + 2) // 4
    return (system[:N - 1], system[N - 1:2 * N - 1],
            system[2 * N - 1:3 * N - 2], system[3 * N - 2:])


def _solve_packed(system: np.ndarray) -> np.ndarray:
    """``_solve_tridiag`` of a packed system (``_packed_views``), checked for
    finiteness in one pass over the whole buffer; the solution is a view
    into it."""
    _check_finite(system)
    return _gtsv(*_packed_views(system))


def _factor_tridiag(dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> tuple:
    """LU factors of the tridiagonal matrix with bands (dl, d, du), for
    ``_solve_factored``.  The bands are left untouched.  Raises ValueError
    on non-finite bands and LinAlgError on a singular matrix."""
    _check_finite(dl, d, du)
    *lu, info = dgttrf(dl, d, du)
    if info > 0:
        raise LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gttrf")
    return tuple(lu)


def _solve_factored(lu: tuple, b: np.ndarray) -> np.ndarray:
    """Solve the factored system for right side b (left untouched).
    Raises ValueError on a non-finite right side."""
    _check_finite(b)
    x, info = dgttrs(*lu, b)
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gttrs")
    return x
