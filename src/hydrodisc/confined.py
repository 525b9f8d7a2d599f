"""Variational solver for the 2D hydrogen atom confined in a hard circular wall.

The trial state for a nodeless level (n = |m| + 1) is the free hydrogenic
radial shape with its inverse length scale alpha left free, times the linear
cut-off enforcing the impenetrable wall:

    R(r; alpha) = N' e^(-alpha r) r^|m| (1 + c_2 r^2) (1 - r/r0).

The c_2 r^2 curvature term, chosen for each alpha by a two-function
Rayleigh-Ritz solve, undoes the tilt the linear cut-off imprints on the
density bulk; without it the extended 3d state misses its free-atom
variance by about 3 percent even at r0 = 40 (a linear correction term
would not help, being equivalent to a shift of alpha to first order).

Levels with k = n - |m| - 1 radial nodes carry a degree-(k+1) polynomial,

    R(r; alpha) = N' e^(-alpha r) r^|m| (1 + c_1 r + ... + c_{k+1} r^{k+1}) (1 - r/r0),

whose coefficients come, for each alpha, from a Rayleigh-Ritz solve over
the span of the bare trial and its monomial companions, taking eigenvalue
number k + 1.  Minimizing a plain Rayleigh quotient over a family with a
free node would collapse onto the nodeless branch (for the 2s in a small
cavity that minimum sits at the 1s energy, far below the true 2s level),
and orthogonalizing against an approximate lower state can dip below the
exact level by the square of that state's error; the Ritz eigenvalue of
matching index instead stays a strict upper bound for its own level by the
Hylleraas-Undheim/MacDonald theorem.  At alpha = 1/eta (eta = n - 1/2)
and r0 -> inf the polynomial reproduces the Laguerre factor of the exact
state, so the free limit is reached exactly.

E(alpha) is the Rayleigh quotient of the radial Hamiltonian
(-1/2)(1/r)(d/dr)(r d/dr) + m^2/(2r^2) - 1/r evaluated by Gauss-Legendre
quadrature in weak form (no second derivatives).  Every real alpha gives a
trial that vanishes at the wall, so every alpha gives an upper bound, and
in tight walls the optimum of some states (2p, 2s) has alpha < 0, an
envelope growing toward the wall.  E(alpha) is sampled over one signed
range and every interior local minimum of the samples is polished by
bounded Brent search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar

from .free_atom import StateLabel
from .specfun import gauss_legendre

__all__ = [
    "ConvergenceError",
    "ConfinedState",
    "radial_rule",
    "trial_radial_wf",
    "node_coefficients",
    "energy_functional",
    "solve",
    "coulomb_expectation",
    "MIN_WALL_RADIUS",
]

MIN_WALL_RADIUS = 0.05
_ALPHA_XATOL = 1e-10  # absolute alpha tolerance of the bounded Brent search
_SCAN_POINTS = 25  # samples of E(alpha) over the scan range
_SCAN_REACH = 8.0  # the scan covers alpha in [-reach/r0, reach/min(r0, eta)]
_RADIAL_ORDER = 200  # Gauss-Legendre nodes of the radial rule on [0, r0]


class ConvergenceError(RuntimeError):
    """Raised when the variational minimizer fails to settle."""


def radial_rule(r0: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [0, r0].

    Every radial integral of a confined state runs on this one rule: the
    solver's matrix elements, the energy functional and the position-space
    measures.
    """
    return gauss_legendre(_RADIAL_ORDER).mapped(0.0, r0)


def trial_radial_wf(
    state: StateLabel,
    r0: float,
    alpha: float,
    r,
    node_coeffs: tuple[float, ...] = (),
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized trial R(r; alpha) and its radial derivative.

    node_coeffs are the polynomial coefficients (c_1 .. c_k) determined by
    the solver: states with radial nodes require at least n_r of them to
    place their nodes, and nodeless trials carry (0, c_2) with a single
    curvature-correction term (see node_coefficients).
    """
    if len(node_coeffs) < state.n_r:
        raise ValueError(
            f"{state.label} needs at least {state.n_r} node coefficients, "
            f"got {len(node_coeffs)}"
        )
    m = state.l
    r = np.asarray(r, dtype=float)
    poly = np.ones_like(r)
    dpoly = np.zeros_like(r)
    for j, c in enumerate(node_coeffs, start=1):
        poly += c * r**j
        dpoly += j * c * r ** (j - 1)
    cut = 1.0 - r / r0
    envelope = np.exp(-alpha * r)
    power = r**m
    dpower = m * r ** (m - 1) if m >= 1 else np.zeros_like(r)
    base = power * poly
    dbase = dpower * poly + power * dpoly
    value = envelope * base * cut
    deriv = envelope * ((dbase - alpha * base) * cut - base / r0)
    return value, deriv


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


def node_coefficients(
    state: StateLabel, r0: float, alpha: float, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[float, tuple[float, ...]]:
    """Ritz energy and polynomial coefficients of the trial at fixed alpha.

    Rayleigh-Ritz in the span of the bare trial and its monomial companions
    r^j * R_bare: the generalized eigenproblem is solved with the weak-form
    matrix elements and the eigenvector of level n_r is taken, so states
    with radial nodes ride the (n_r+1)-th eigenvalue.  By the
    Hylleraas-Undheim/MacDonald theorem that eigenvalue lies above the
    exact level with the same node count, which keeps the upper-bound
    property that orthogonalizing against an approximate lower state would
    forfeit.  For nodeless states the companion is a single curvature term
    c_2 r^2; without it the linear cutoff tilts the density of spatially
    extended states (3d most of all) even at weak confinement.  The energy
    is that eigenvalue: the Rayleigh quotient of the returned trial on the
    same quadrature rule (r, w), which energy_functional evaluates
    independently.
    """
    r, w = rule
    powers = _ritz_powers(state.n_r)
    v0, d0 = trial_radial_wf(state, r0, alpha, r, (0.0,) * state.n_r)
    j = np.array(powers, dtype=float)[:, None]
    values = v0 * r**j
    derivs = d0 * r**j + v0 * j * r ** (j - 1)
    scale = 1.0 / np.sqrt((values * values) @ (w * r))
    values *= scale[:, None]
    derivs *= scale[:, None]
    s_mat = (values * (w * r)) @ values.T
    potential = w * (0.5 * state.l**2 / r - 1.0)
    h_mat = 0.5 * (derivs * (w * r)) @ derivs.T + (values * potential) @ values.T
    vals, vecs = eigh(h_mat, s_mat)
    u = vecs[:, state.n_r]
    if abs(u[0]) < 1e-12 * np.linalg.norm(u):
        raise ConvergenceError(
            f"companion terms dominate the {state.label} trial at r0={r0}"
        )
    coeffs = [0.0] * max(powers)
    for idx in range(1, len(powers)):
        c = (u[idx] * scale[idx]) / (u[0] * scale[0])
        coeffs[powers[idx] - 1] = float(c)
    return float(vals[state.n_r]), tuple(coeffs)


def energy_functional(
    state: StateLabel,
    r0: float,
    alpha: float,
    rule: tuple[np.ndarray, np.ndarray],
    node_coeffs: tuple[float, ...] = (),
) -> float:
    """Rayleigh quotient E(alpha) of the trial state on the quadrature rule (r, w)."""
    r, w = rule
    f, df = trial_radial_wf(state, r0, alpha, r, node_coeffs)
    norm = np.sum(w * f * f * r)
    kinetic = 0.5 * np.sum(w * df * df * r)
    if state.l > 0:
        kinetic += 0.5 * state.l**2 * np.sum(w * f * f / r)
    potential = -np.sum(w * f * f)  # -1/r against the r weight
    return float((kinetic + potential) / norm)


@dataclass(frozen=True)
class ConfinedState:
    """Optimized variational state inside a wall of radius r0."""

    state: StateLabel
    r0: float
    alpha: float
    energy: float
    norm_constant: float
    node_coeffs: tuple[float, ...] = ()

    def radial(self, r) -> tuple[np.ndarray, np.ndarray]:
        """Normalized radial wavefunction and derivative, Int R^2 r dr = 1."""
        value, deriv = trial_radial_wf(self.state, self.r0, self.alpha, r, self.node_coeffs)
        return self.norm_constant * value, self.norm_constant * deriv

    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The radial rule (r, w) on [0, r0] the state was solved on."""
        return radial_rule(self.r0)

    def wall_slope(self) -> float:
        """dR/dr at the wall, the coefficient driving the momentum tail."""
        _, deriv = self.radial(np.asarray([self.r0]))
        return float(deriv[0])


def solve(state: StateLabel, r0: float) -> ConfinedState:
    """Minimize E(alpha) for one state and wall radius.

    At each alpha one Ritz solve gives the energy and the node and
    curvature coefficients.  E(alpha) is sampled at _SCAN_POINTS evenly
    spaced alpha in [-_SCAN_REACH/r0, _SCAN_REACH/min(r0, eta)], and every
    interior local minimum of the samples is polished by bounded Brent
    search over its two neighbouring cells, because E(alpha) can have two
    basins (2s in tight walls); the lowest polish wins.  ConvergenceError
    is raised when the lowest sample sits on the scan edge.
    """
    if r0 < MIN_WALL_RADIUS:
        raise ValueError(f"wall radius below supported minimum {MIN_WALL_RADIUS}: {r0}")
    rule = radial_rule(r0)

    def energy_at(alpha: float) -> float:
        return node_coefficients(state, r0, alpha, rule)[0]

    alphas = np.linspace(-_SCAN_REACH / r0, _SCAN_REACH / min(r0, state.eta), _SCAN_POINTS)
    energies = [energy_at(a) for a in alphas]
    low = int(np.argmin(energies))
    if low in (0, _SCAN_POINTS - 1):
        raise ConvergenceError(
            f"optimal alpha at the scan edge {alphas[low]:.6g} for {state.label} at r0={r0}"
        )
    best = None
    for i in range(1, _SCAN_POINTS - 1):
        if energies[i] <= min(energies[i - 1], energies[i + 1]):
            res = minimize_scalar(
                energy_at,
                bounds=(alphas[i - 1], alphas[i + 1]),
                method="bounded",
                options={"xatol": _ALPHA_XATOL},
            )
            if not res.success:
                raise ConvergenceError(
                    f"bounded minimization failed for {state.label} at r0={r0}: {res.message}"
                )
            if best is None or res.fun < best.fun:
                best = res

    alpha = float(best.x)
    energy, coeffs = node_coefficients(state, r0, alpha, rule)
    r, w = rule
    f, _ = trial_radial_wf(state, r0, alpha, r, coeffs)
    norm_sq = float(np.sum(w * f * f * r))
    if not norm_sq > 0.0:
        raise ConvergenceError(f"degenerate trial norm for {state.label} at r0={r0}")
    return ConfinedState(
        state=state,
        r0=r0,
        alpha=alpha,
        energy=energy,
        norm_constant=1.0 / math.sqrt(norm_sq),
        node_coeffs=coeffs,
    )


def coulomb_expectation(cs: ConfinedState) -> float:
    """<1/r> of the optimized state, for kinetic-energy consistency checks."""
    r, w = cs.grid()
    value, _ = cs.radial(r)
    return float(np.sum(w * value * value))

