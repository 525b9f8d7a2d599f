"""Spread and information measures of a state in position and momentum space.

For a normalized radial density in two dimensions the variance is
V = <x^2> - <x>^2 with moments taken against the radial measure x dx, and
the Fisher information of the theta-independent density reduces to
F = 4 Int (dW/dx)^2 x dx where W is the radial wavefunction.  The product
C = F * V is the Cramer-Rao complexity; it is bounded below by the squared
dimension, 4, in each space separately, and the cross products <x^2> F are
bounded below by 4 as well.

Position-space integrals run on the same Gauss-Legendre wall grid the
variational solver used, so the reported norm residual doubles as a check
that the state object is self-consistent.  In momentum space two measures
are exact identities of the position-space state with definite m and are
evaluated on that same grid: <p^2> = 2<T> = Int (R'^2 + m^2 R^2/r^2) r dr,
and the Fisher information F = 4<r^2> - 4 m^2 <p^-2> (Romera,
Sanchez-Moreno & Dehesa, Chem. Phys. Lett. 414 (2005) 468).  Its <p^-2>
follows from Int_0^inf J_m(pr) J_m(pr') p^-1 dp = (r_</r_>)^m/(2m) for
m >= 1 (see _inverse_p_square).  Only the norm and <p> combine the panel
quadrature stored in a RadialMomentumTable with its analytic large-p tail
corrections.

The free_*_report helpers evaluate the same measures for the analytic free
atom by direct quadrature, both on specfun.semi_axis_rule: scaled by <r>
in position space and by 1/eta in momentum space.  They exist as oracles:
the closed forms in free_atom must agree with them, and the confined
solver must approach them as the wall recedes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .confined import ConfinedState, radial_rule
from .free_atom import (
    StateLabel,
    free_radial_momentum_wf,
    free_radial_position_wf,
    position_mean,
)
from .momentum import RadialMomentumTable
from .specfun import AccuracyError, gauss_legendre, semi_axis_rule

__all__ = [
    "NORM_TOLERANCE",
    "MeasureReport",
    "position_measures",
    "momentum_measures",
    "free_position_report",
    "free_momentum_report",
]

NORM_TOLERANCE = 1e-4
_INNER_ORDER = 32  # Gauss-Legendre order of the inner <p^-2> integral on [0, r]


@dataclass(frozen=True)
class MeasureReport:
    """Moments, variance, Fisher information, and complexity in one space."""

    space: str
    mean: float
    second_moment: float
    variance: float
    fisher: float
    cramer_rao: float
    norm_residual: float


def _build_report(
    space: str, mean: float, second: float, fisher: float, norm_residual: float
) -> MeasureReport:
    """Assemble a report, enforcing the identities the fields must satisfy."""
    if norm_residual > NORM_TOLERANCE:
        raise AccuracyError(
            f"{space} norm residual {norm_residual:.3e} exceeds {NORM_TOLERANCE:.0e}"
        )
    variance = second - mean * mean
    if not variance > 0.0:
        raise AccuracyError(f"{space} variance {variance:.3e} is not positive")
    return MeasureReport(
        space=space,
        mean=mean,
        second_moment=second,
        variance=variance,
        fisher=fisher,
        cramer_rao=fisher * variance,
        norm_residual=norm_residual,
    )


def _radial_report(
    space: str, x: np.ndarray, w: np.ndarray, value: np.ndarray, deriv: np.ndarray
) -> MeasureReport:
    """Report of a radial wavefunction sampled on a quadrature rule (x, w).

    The Fisher integrand (rho')^2 / rho factorizes to 4 W'(x)^2 x, which
    stays finite across radial nodes.
    """
    cell = w * value * value
    norm = float(np.sum(cell * x))
    mean = float(np.sum(cell * x * x))
    second = float(np.sum(cell * x**3))
    fisher = 4.0 * float(np.sum(w * deriv * deriv * x))
    return _build_report(space, mean, second, fisher, abs(norm - 1.0))


def position_measures(cs: ConfinedState) -> MeasureReport:
    """Measures of the position density of an optimized confined state.

    The m >= 1 states use the radial Fisher formula too, since the planar
    density carries no angular dependence.
    """
    r, w = radial_rule(cs.r0)
    return _radial_report("position", r, w, *cs.radial(r))


def _inverse_p_square(cs: ConfinedState) -> float:
    """<p^-2> = Int H^2 p^-1 dp of an m >= 1 state, as a position-space integral.

    Inserting H(p) = Int R J_m(pr) r dr and the 2D closure integral
    Int_0^inf J_m(pr) J_m(pr') p^-1 dp = (r_</r_>)^m/(2m) gives

        <p^-2> = (1/m) Int_0^r0 R r^(1-m) [Int_0^r R r'^(1+m) dr'] dr.

    The outer integral runs on the solver's grid; the inner one maps a
    fixed Gauss-Legendre rule onto [0, r] at every node, on which the
    integrand is smooth.
    """
    m = cs.state.l
    r, w = radial_rule(cs.r0)
    nodes, weights = gauss_legendre(_INNER_ORDER)
    half = 0.5 * r[:, None]
    s = half * (nodes[None, :] + 1.0)
    inner = (half * weights * cs.radial(s)[0] * s ** (m + 1)).sum(axis=1)
    outer = w * cs.radial(r)[0] * r ** (1 - m)
    return float(np.sum(outer * inner)) / m


def momentum_measures(cs: ConfinedState, table: RadialMomentumTable) -> MeasureReport:
    """Measures of the momentum density of cs, given its momentum table.

    The norm and <p> come from the table, tail corrections included.  <p^2>
    is twice the kinetic energy and F = 4<r^2> - 4 m^2 <p^-2>, all taken
    in position space (see _inverse_p_square).
    """
    if table.state != cs.state or table.r0 != cs.r0:
        raise ValueError(
            f"momentum table of {table.state.label} at r0={table.r0} does not belong "
            f"to {cs.state.label} at r0={cs.r0}"
        )
    r, w = radial_rule(cs.r0)
    value, deriv = cs.radial(r)
    m_sq = float(cs.state.l**2)
    second = float(np.sum(w * (deriv * deriv + m_sq * value * value / (r * r)) * r))
    fisher = 4.0 * float(np.sum(w * value * value * r**3))
    if m_sq:
        fisher -= 4.0 * m_sq * _inverse_p_square(cs)
    norm = table.moment(0)
    return _build_report("momentum", table.moment(1), second, fisher, abs(norm - 1.0))


def free_position_report(state: StateLabel) -> MeasureReport:
    """Quadrature-based measures of the free atom's position density."""
    r, w = semi_axis_rule(position_mean(state))
    return _radial_report("position", r, w, *free_radial_position_wf(state, r))


def free_momentum_report(state: StateLabel) -> MeasureReport:
    """Quadrature-based measures of the free atom's momentum density."""
    p, w = semi_axis_rule(1.0 / state.eta)
    return _radial_report("momentum", p, w, *free_radial_momentum_wf(state, p))
