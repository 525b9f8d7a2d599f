"""Grid-based eigenvalue oracle for the radially confined 2D Coulomb problem.

Independent cross-check for the variational solver: a cell-centered
finite-volume discretization of

    -(1/2) (1/r) d/dr ( r dR/dr ) + [ m^2/(2 r^2) - 1/r ] R = E R,   0 < r < r0,

with a hard wall R(r0) = 0.  Cell centers sit at r_i = (i + 1/2) h, so no
mesh point touches the Coulomb singularity and the r = 0 face carries zero
flux, which is exactly the regularity condition of the 2D radial operator.
The wall enters through a ghost cell with R_ghost = -R_last (second-order
Dirichlet at the last face).  The generalized problem A R = E diag(r_i) R is
symmetrized and solved with a tridiagonal eigensolver; Richardson
extrapolation over three nested meshes removes the O(h^2) bulk error and the
O(h^3) term the wall ghost introduces.

Variational energies must sit above these values (up to the small residual
discretization bias), which is what the acceptance checks assert.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .free_atom import StateLabel

__all__ = ["wall_levels", "oracle_energy"]


def wall_levels(
    m: int,
    r0: float,
    k: int = 1,
    n_cells: int = 4096,
    richardson: bool = True,
) -> np.ndarray:
    """Lowest k eigenvalues for angular number m inside a wall of radius r0."""
    if r0 <= 0.0:
        raise ValueError(f"wall radius must be positive, got {r0}")
    if k < 1:
        raise ValueError(f"need at least one level, got k={k}")
    if n_cells < 16 * k:
        raise ValueError(f"mesh too coarse for {k} levels: n_cells={n_cells}")
    m = abs(int(m))
    coarse = _levels_once(m, r0, k, n_cells)
    if not richardson:
        return coarse
    mid = _levels_once(m, r0, k, 2 * n_cells)
    fine = _levels_once(m, r0, k, 4 * n_cells)
    first = (4.0 * mid - coarse) / 3.0  # h^2 eliminated
    second = (4.0 * fine - mid) / 3.0
    return (8.0 * second - first) / 7.0  # h^3 eliminated


def oracle_energy(
    state: StateLabel, r0: float, n_cells: int = 4096, richardson: bool = True
) -> float:
    """Eigenvalue with the node count of the given state: level n - |m| - 1 of its m block."""
    idx = state.n_r
    return float(wall_levels(state.m, r0, k=idx + 1, n_cells=n_cells, richardson=richardson)[idx])


def _levels_once(m: int, r0: float, k: int, n: int) -> np.ndarray:
    h = r0 / n
    centers = (np.arange(n) + 0.5) * h
    faces = np.arange(n + 1) * h
    potential = -1.0 / centers
    if m > 0:
        potential = potential + 0.5 * m**2 / centers**2

    diag = 0.5 * (faces[:-1] + faces[1:]) / h**2 + centers * potential
    diag[-1] += 0.5 * faces[-1] / h**2  # ghost cell doubles the wall-face flux
    off = -0.5 * faces[1:-1] / h**2

    # symmetrize the generalized problem with the diagonal mass matrix diag(r_i)
    d = diag / centers
    e = off / np.sqrt(centers[:-1] * centers[1:])
    vals = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1), eigvals_only=True)
    return np.asarray(vals, dtype=float)
