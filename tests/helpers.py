"""Oracles the tests share that the program itself does not call."""

import numpy as np

from fastdiff_lab import evolve


def nonlinear_rhs(w, params):
    """Right side of the radial rescaled flow, flux form (see ``evolve``),
    through the Newton kernel's own rhs with the four-pass face average."""
    evolve._check_positivity(w.values)
    kernel = evolve._Newton(evolve._workspace(w.grid, params))
    N = w.grid.count
    kernel.v[N] = 1.0 + w.values[N]
    out = np.zeros_like(w.values)
    kernel.rhs(w.values[:N], out[:N], False)
    return w.with_values(out)
