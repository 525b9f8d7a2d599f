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
that the state object is self-consistent.  Every momentum measure is an
exact identity of the position-space state with definite m and is
evaluated from that state, with no momentum-space grid:
<p^2> = 2<T> = Int (R'^2 + m^2 R^2/r^2) r dr, the Fisher information
F = 4<r^2> - 4 m^2 <p^-2> (Romera, Sanchez-Moreno & Dehesa, Chem. Phys.
Lett. 414 (2005) 468), and the norm, <p> and <p^-2> as double integrals
over r and r' against the angular parts of the 2D kernels of p^-2 and p^-1
(see momentum_measures).  The Hankel-transform table of momentum.py is
their independent check in the acceptance battery and the tests.

The free_*_report helpers evaluate the same measures for the analytic free
atom by direct quadrature, both on specfun.semi_axis_rule: scaled by <r>
in position space and by 1/eta in momentum space.  They exist as oracles:
the closed forms in free_atom must agree with them, and the confined
solver must approach them as the wall recedes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confined import ConfinedState, radial_rule
from .free_atom import (
    StateLabel,
    free_radial_momentum_wf,
    free_radial_position_wf,
    position_mean,
)
from .specfun import AccuracyError, composite_gauss, semi_axis_rule, toroidal_q

__all__ = [
    "NORM_TOLERANCE",
    "MeasureReport",
    "position_measures",
    "momentum_measures",
    "free_position_report",
    "free_momentum_report",
]

NORM_TOLERANCE = 1e-4


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


# panel edges in t = 1 - s: 0, 0.2^11, ..., 0.2, 0.5, 1
_COUPLING_EDGES = np.concatenate(([0.0], 0.2 ** np.arange(11, 0, -1), [0.5, 1.0]))
_COUPLING_ORDER = 12  # Gauss-Legendre order per panel of the coupling rule
_OUTER_BLOCK = 25  # outer nodes whose inner grid is evaluated at once


def _coupling_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s on [0, 1], their complements t = 1 - s, and weights of the inner rule.

    12-point Gauss-Legendre panels on s-edges 0, 0.5, 1 - 0.2, 1 - 0.2^2,
    ..., 1 - 0.2^11, 1: graded toward s = 1, where Q_(k-1/2) has its
    logarithmic singularity, and split at s = 0.5, where one panel over
    [0, 0.8] under-resolves the four radial nodes of a 5s state at r0 = 100
    (1.1e-9 on <p>, against 4e-10 for every n <= 5 probe with the split).
    The rule is built in t, so 1 - s is exact at every node.
    """
    t, w = composite_gauss(_COUPLING_EDGES, _COUPLING_ORDER)
    return 1.0 - t, t, w


def momentum_measures(cs: ConfinedState) -> MeasureReport:
    """Measures of the momentum density of cs, all from position-space integrals.

    <p^2> is twice the kinetic energy and F = 4<r^2> - 4 m^2 <p^-2>.  The
    gradient of R e^(im theta) splits into e^(i(m +- 1) theta) parts with
    radial factors f_+- = R' -+ m R/r, of angular order k = |m +- 1|, and
    in momentum space each part is i(p_x +- i p_y) times the amplitude, of
    modulus p.  Hence each sign gives the norm as <f, p^-2 f> and <p> as
    <f, p^-1 f>.  In 2D the kernel of p^-1 is 1/(2 pi |x - y|), whose
    order-k angular part is Q_(k-1/2)(chi)/(pi (r r')^(1/2)) with
    chi = 1 + (r - r')^2/(2 r r'); the kernel of p^-2 is -ln|x - y|/(2 pi),
    whose order-k part is (r_</r_>)^k/(2k), or -ln r_> for k = 0.  The
    integrands are symmetric in r <-> r', so the square is halved and
    r' = r s with s in [0, 1], where chi - 1 = (1 - s)^2/(2s) depends on s
    alone:

        <p>   = (1/2 pi) Sum_+- 2 Int f(r) r^2 Int_0^1 f(rs) s^(1/2) Q_(k-1/2)(chi) ds dr,
        N_+-  = 2 Int f(r) r^3 Int_0^1 f(rs) s G_k(s) ds dr,
        G_k   = s^k/(2k) for k >= 1, G_0 = -ln r,
        <p^-2> = (1/m) Int R r^3 Int_0^1 R(rs) s^(1+m) ds dr   (m >= 1).

    The k = 0 part occurs at m = 1, where Int f_- r dr = r0 R(r0) = 0
    removes the kernel's free constant.  For m = 0 the two signs coincide.
    Each N_+- equals the norm, so the reported norm residual is
    |(N_+ + N_-)/2 - 1|: a check of the product rule itself.  The outer
    nodes are those of radial_rule(r0), the inner ones r s on the fixed
    _coupling_rule, evaluated _OUTER_BLOCK outer nodes at a time: in one
    piece the 31,200-point evaluation costs more time and memory.  Only
    state, r0 and radial of cs are read.  AccuracyError is raised when the
    norm residual exceeds NORM_TOLERANCE or the variance is not positive.
    """
    m = cs.state.l
    r, w = radial_rule(cs.r0)
    s, t, ws = _coupling_rule()
    # (sign, k) of each part f = R' - sign m R/r; for m = 0 the one part is doubled
    parts = [(1.0, 1)] if m == 0 else [(1.0, m + 1), (-1.0, m - 1)]
    # per part, the inner weights of <p> and of the norm (G_0's -ln r is applied outside)
    kernels = [
        np.stack([ws * np.sqrt(s) * toroidal_q(k, t * t / (2.0 * s)),
                  ws * s ** (k + 1) / (2 * k) if k else ws * s], axis=1)
        for _, k in parts
    ]
    inner = np.empty((len(parts), r.size, 2))
    inner_radial = np.empty(r.size)
    for lo in range(0, r.size, _OUTER_BLOCK):
        block = slice(lo, lo + _OUTER_BLOCK)
        x = r[block, None] * s
        value, deriv = cs.radial(x)
        for i, (sign, _) in enumerate(parts):
            inner[i, block] = (deriv - sign * m * value / x) @ kernels[i]
        inner_radial[block] = value @ (ws * s ** (1 + m))
    value, deriv = cs.radial(r)
    mean = 0.0
    norms = []
    for i, (sign, k) in enumerate(parts):
        f = 2.0 * w * (deriv - sign * m * value / r) * r * r
        mean += float(np.sum(f * inner[i, :, 0])) / (2.0 * math.pi)
        norm_kernel = inner[i, :, 1] if k else -np.log(r) * inner[i, :, 1]
        norms.append(float(np.sum(f * r * norm_kernel)))
    if m == 0:
        mean *= 2.0
    m_sq = float(m * m)
    second = float(np.sum(w * (deriv * deriv + m_sq * value * value / (r * r)) * r))
    fisher = 4.0 * float(np.sum(w * value * value * r**3))
    if m:
        fisher -= 4.0 * m * float(np.sum(w * value * r**3 * inner_radial))
    residual = abs(sum(norms) / len(norms) - 1.0)
    return _build_report("momentum", mean, second, fisher, residual)


def free_position_report(state: StateLabel) -> MeasureReport:
    """Quadrature-based measures of the free atom's position density."""
    r, w = semi_axis_rule(position_mean(state))
    return _radial_report("position", r, w, *free_radial_position_wf(state, r))


def free_momentum_report(state: StateLabel) -> MeasureReport:
    """Quadrature-based measures of the free atom's momentum density."""
    p, w = semi_axis_rule(1.0 / state.eta)
    return _radial_report("momentum", p, w, *free_radial_momentum_wf(state, p))
