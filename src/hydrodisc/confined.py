"""Variational solver for the 2D hydrogen atom confined in a hard circular wall.

The trial state is a weighted sum of the rows of one Ritz basis
(ritz_basis),

    R(r; alpha) = Sum_j u_j r^j R_bare(r; alpha),
    R_bare(r; alpha) = e^(-alpha r) r^|m| (1 - r/r0):

the free hydrogenic radial shape with its inverse length scale alpha left
free, times the linear cut-off enforcing the impenetrable wall, and its
monomial companions r^j.  A level with k = n - |m| - 1 radial nodes takes
the powers j = 0 .. k+1, enough to place its nodes plus one curvature
term.  A nodeless level takes j = 0 and 2: the r^2 term undoes the tilt the
linear cut-off imprints on the density bulk (without it the extended 3d
state misses its free-atom variance by about 3 percent even at r0 = 40),
and a linear term would not help, being equivalent to a shift of alpha to
first order.

For each alpha the weights u come from a Rayleigh-Ritz solve in that basis
(node_coefficients), taking eigenvalue number k + 1.  Minimizing a plain
Rayleigh quotient over a family with a free node would collapse onto the
nodeless branch (for the 2s in a small cavity that minimum sits at the 1s
energy, far below the true 2s level), and orthogonalizing against an
approximate lower state can dip below the exact level by the square of
that state's error; the Ritz eigenvalue of matching index instead stays a
strict upper bound for its own level by the Hylleraas-Undheim/MacDonald
theorem.  At alpha = 1/eta (eta = n - 1/2) and r0 -> inf the basis spans
the Laguerre factor of the exact state, so the free limit is reached
exactly.  ConfinedState keeps u normalized to Int R^2 r dr = 1 on the
radial rule, signed so that R > 0 next to the origin.

E(alpha) is the Rayleigh quotient of the radial Hamiltonian
(-1/2)(1/r)(d/dr)(r d/dr) + m^2/(2r^2) - 1/r evaluated by Gauss-Legendre
quadrature in weak form (no second derivatives).  Every real alpha gives a
trial that vanishes at the wall, so every alpha gives an upper bound, and
in tight walls the optimum of some states (2p, 2s) has alpha < 0, an
envelope growing toward the wall.  E(alpha) is sampled over one signed
range and every interior local minimum of the samples is polished by
Brent's bounded minimum search (specfun.brent_minimum).  node_coefficients
is the one Ritz solve: it takes a scalar alpha or a 1-D array of them, so
the scan samples come from one stacked call and every Brent step and the
final state from scalar calls of the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .free_atom import StateLabel
from .specfun import ConvergenceError, brent_minimum, composite_gauss

__all__ = [
    "ConfinedState",
    "radial_rule",
    "ritz_basis",
    "node_coefficients",
    "solve",
    "coulomb_expectation",
    "MIN_WALL_RADIUS",
    "MAX_WALL_RADIUS",
]

MIN_WALL_RADIUS = 0.05
MAX_WALL_RADIUS = 100.0  # the widest tested wall (see solve)
_ALPHA_XATOL = 1e-10  # absolute alpha tolerance of the bounded Brent search
_SCAN_POINTS = 25  # samples of E(alpha) over the scan range
_SCAN_REACH = 8.0  # the scan covers alpha in [-reach/r0, reach/min(r0, eta)]
_RADIAL_ORDER = 200  # Gauss-Legendre nodes of the radial rule on [0, r0]


def radial_rule(r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [0, r0].

    Every radial integral of a confined state runs on this one rule: the
    solver's matrix elements and the position-space measures.
    """
    return composite_gauss(np.array([0.0, r0]), _RADIAL_ORDER)


def _ritz_powers(n_r: int) -> tuple[int, ...]:
    """Monomial companions spanning the trial space for n_r radial nodes.

    Nodeless states skip the linear term: to first order it duplicates a
    shift of alpha, and keeping it turns E(alpha) into a flat valley that
    leaves the optimizer nothing to hold on to.  Noded states need every
    power up to n_r to place their nodes, plus one curvature term.
    """
    if n_r == 0:
        return (0, 2)
    return tuple(range(n_r + 2))


def ritz_basis(
    state: StateLabel, r0: float, alpha: float | np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Ritz basis r^j R_bare(r; alpha) and its radial derivative at 1-D r.

    One row per power j of _ritz_powers(n_r), with the bare trial
    R_bare = e^(-alpha r) r^|m| (1 - r/r0).  The derivative takes
    j r^max(j-1, 0), so the j = 0 row stays finite at the origin.  alpha
    broadcasts as a leading axis: a scalar gives (K, len(r)) arrays and a
    1-D alpha (len(alpha), K, len(r)), each slice the scalar call's arrays.
    """
    m = state.l
    alpha = np.asarray(alpha)[..., None, None]
    cut = 1.0 - r / r0
    envelope = np.exp(-alpha * r)
    power = r**m
    dpower = m * r ** (m - 1) if m >= 1 else np.zeros_like(r)
    bare = envelope * power * cut
    dbare = envelope * ((dpower - alpha * power) * cut - power / r0)
    j = np.array(_ritz_powers(state.n_r), dtype=float)[:, None]
    monomials = r**j
    values = bare * monomials
    derivs = dbare * monomials + bare * j * r ** np.maximum(j - 1, 0)
    return values, derivs


def _ritz_matrices(
    state: StateLabel, r0: float, alpha: float | np.ndarray, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Overlap S, Hamiltonian H and row scales of the Ritz basis on the rule.

    The basis rows are scaled to unit norm before the weak-form matrix
    elements are taken, and the scales are returned so the caller can fold
    them back into its weights.  A 1-D alpha stacks the matrices along a
    leading axis, as ritz_basis does.
    """
    r, w = rule
    values, derivs = ritz_basis(state, r0, alpha, r)
    wr = w * r
    scale = 1.0 / np.sqrt((values * values) @ wr)
    values *= scale[..., None]
    derivs *= scale[..., None]
    values_t, derivs_t = values.swapaxes(-1, -2), derivs.swapaxes(-1, -2)
    s_mat = (values * wr) @ values_t
    potential = w * (0.5 * state.l**2 / r - 1.0)
    h_mat = 0.5 * (derivs * wr) @ derivs_t + (values * potential) @ values_t
    return s_mat, h_mat, scale


def node_coefficients(
    state: StateLabel, r0: float, alpha: float | np.ndarray, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[float | np.ndarray, np.ndarray]:
    """Ritz energy and normalized Ritz weights of the trial at fixed alpha.

    Rayleigh-Ritz in the span of ritz_basis: the generalized eigenproblem
    H u = E S u of _ritz_matrices is reduced with the Cholesky factor
    S = L L^T to the symmetric L^-1 H L^-T, and eigenvector v of level n_r
    gives u = L^-T v, so states with radial nodes ride the (n_r+1)-th
    eigenvalue.  By the Hylleraas-Undheim/MacDonald theorem that eigenvalue
    lies above the exact level with the same node count, which keeps the
    upper-bound property that orthogonalizing against an approximate lower
    state would forfeit.  The row scale is folded back into the weights, so
    R = weights @ basis has Int R^2 r dr = 1 on the rule; the sign makes
    R > 0 next to the origin.  The energy is the Rayleigh quotient of that
    trial on the same rule (r, w), and the package's only E(alpha).  A
    scalar alpha gives a scalar energy and (K,) weights; a 1-D alpha solves
    every alpha in one stacked call, giving (A,) energies and (A, K)
    weights.  ConvergenceError is raised when an overlap matrix is not
    positive definite on the rule.
    """
    s_mat, h_mat, scale = _ritz_matrices(state, r0, alpha, rule)
    try:
        inv_chol = np.linalg.inv(np.linalg.cholesky(s_mat))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Ritz solve failed for {state.label} at r0={r0}: {exc}") from exc
    inv_chol_t = inv_chol.swapaxes(-1, -2)
    vals, vecs = np.linalg.eigh(inv_chol @ h_mat @ inv_chol_t)
    weights = (inv_chol_t @ vecs[..., state.n_r : state.n_r + 1])[..., 0] * scale
    return vals[..., state.n_r], np.where(weights[..., :1] < 0, -weights, weights)


@dataclass(frozen=True)
class ConfinedState:
    """Optimized variational state inside a wall of radius r0.

    weights is the normalized Ritz vector of node_coefficients: the trial is
    weights @ ritz_basis at the optimal alpha.
    """

    state: StateLabel
    r0: float
    alpha: float
    energy: float
    weights: tuple[float, ...]

    def radial(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Normalized radial wavefunction and derivative, Int R^2 r dr = 1."""
        r = np.asarray(r, dtype=float)
        values, derivs = ritz_basis(self.state, self.r0, self.alpha, r.ravel())
        value, deriv = self.weights @ values, self.weights @ derivs
        return value.reshape(r.shape), deriv.reshape(r.shape)


def solve(state: StateLabel, r0: float) -> ConfinedState:
    """Minimize E(alpha) for one state and wall radius.

    At each alpha one Ritz solve (node_coefficients) gives the energy and
    the trial's weights.  E(alpha) is sampled at _SCAN_POINTS evenly spaced
    alpha in [-_SCAN_REACH/r0, _SCAN_REACH/min(r0, eta)], all in one stacked
    node_coefficients call, and every interior local minimum of the samples
    is polished by brent_minimum over its two neighbouring cells, because
    E(alpha) can have two basins (2s in tight walls); the lowest polish
    wins.  Each Brent step and the returned state take one scalar
    node_coefficients call.  ConvergenceError is raised when the lowest
    sample sits on the scan edge, when an overlap of the scan or of a Brent
    step is not positive definite, and brent_minimum raises it when a polish
    takes 500 evaluations without settling or meets a nan energy.
    ValueError is raised for r0 outside the tested range [MIN_WALL_RADIUS,
    MAX_WALL_RADIUS]: far beyond it the radial rule no longer resolves the
    trial, and the solve returns energies below the exact level with no
    error (2s by r0 ~ 2700, 2p by r0 ~ 4400).
    """
    if not MIN_WALL_RADIUS <= r0 <= MAX_WALL_RADIUS:
        raise ValueError(
            f"wall radius outside the supported [{MIN_WALL_RADIUS}, {MAX_WALL_RADIUS}]: {r0}"
        )
    rule = radial_rule(r0)

    def energy_at(alpha: float) -> float:
        return node_coefficients(state, r0, alpha, rule)[0]

    alphas = np.linspace(-_SCAN_REACH / r0, _SCAN_REACH / min(r0, state.eta), _SCAN_POINTS)
    energies, _ = node_coefficients(state, r0, alphas, rule)
    low = int(np.argmin(energies))
    if low in (0, _SCAN_POINTS - 1):
        raise ConvergenceError(
            f"optimal alpha at the scan edge {alphas[low]:.6g} for {state.label} at r0={r0}"
        )
    best = None
    for i in range(1, _SCAN_POINTS - 1):
        if energies[i] <= min(energies[i - 1], energies[i + 1]):
            polish = brent_minimum(energy_at, alphas[i - 1], alphas[i + 1], _ALPHA_XATOL)
            if best is None or polish[1] < best[1]:
                best = polish

    alpha = float(best[0])
    energy, weights = node_coefficients(state, r0, alpha, rule)
    return ConfinedState(state, r0, alpha, float(energy), tuple(weights.tolist()))


def coulomb_expectation(cs: ConfinedState) -> float:
    """<1/r> of the optimized state, for kinetic-energy consistency checks."""
    r, w = radial_rule(cs.r0)
    value, _ = cs.radial(r)
    return float(np.sum(w * value * value))

