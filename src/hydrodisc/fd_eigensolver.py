"""Exact hard-wall levels of the radially confined 2D Coulomb problem.

The regular solution of

    -(1/2) (1/r) d/dr ( r dR/dr ) + [ m^2/(2 r^2) - 1/r ] R = E R

is R(r; E) = r^m e^(-k r) M(m + 1/2 - 1/k, 2m + 1, 2 k r) with E = -k^2/2
(Yang et al., Phys. Rev. A 43 (1991) 1186), and the levels inside a wall of
radius r0 are the zeros of R(r0; E) in E.  `oracle_energy` returns the one
with the state's radial node count, to the precision of a double.  It is
the reference the variational energies are checked against; nothing in it
comes from the variational solver.

R is summed from its power series in r where 2 k r0 <= 4, which includes
every E >= 0 (k imaginary).  Elsewhere it is evaluated in Kummer's form
e^(-k r) M(a, b, 2 k r) = e^(k r) M(b - a, b, -2 k r) without the positive
factor e^(k r), so that wide walls neither overflow nor cancel.

The module keeps its old name from when it held a finite-volume grid
solver, because the benchmark harness under perfbench/ imports
`fd_eigensolver.oracle_energy` by that name.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import brentq
from scipy.special import hyp1f1

from .free_atom import StateLabel, free_energy

__all__ = ["oracle_energy"]

# At or below this 2 k r0 the power series replaces hyp1f1.  Above it the
# series cancels (a decaying R from terms of size e^(k r0)); below it
# hyp1f1 loses digits as E -> 0^- (b - a -> inf): 4e-3 relative at
# E = -1e-12, r0 = 3.81, m = 0, against 30-digit mpmath.
_SERIES_Z = 4.0
# Samples per pi of the bound on R's phase used to count its nodes.
_SAMPLES_PER_PI = 8


def oracle_energy(state: StateLabel, r0: float) -> float:
    """Exact wall level of `state`: the zero of R(r0; E) whose R has n_r nodes inside.

    The level is picked by the oscillation theorem: R(.; E) has as many
    nodes in (0, r0) as there are levels below E.  The bracket starts at the
    free level (confinement only raises it) and at pi^2 (n_r + 1 + |m|/2)^2
    / (2 r0^2), above the empty-disc level j_{|m|,n_r+1}^2 / (2 r0^2) (the
    Coulomb well only lowers it).  It is halved by node count until exactly
    one level lies inside, which Brent's method then finds.  RuntimeError if
    the bracket shrinks to rounding first.
    """
    if r0 <= 0.0:
        raise ValueError(f"wall radius must be positive, got {r0}")
    m, n_r = state.l, state.n_r
    lo = free_energy(state)
    hi = 0.5 * (math.pi * (n_r + 1 + 0.5 * m) / r0) ** 2
    nodes_lo, nodes_hi = _nodes(m, r0, lo), _nodes(m, r0, hi)
    while nodes_lo < n_r or nodes_hi > n_r + 1:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise RuntimeError(f"no {state.label} level isolated by node count at r0={r0}")
        nodes = _nodes(m, r0, mid)
        if nodes <= n_r:
            lo, nodes_lo = mid, nodes
        else:
            hi, nodes_hi = mid, nodes
    return brentq(_radial, lo, hi, args=(m, r0, 1.0), xtol=1e-15, rtol=4 * np.finfo(float).eps)


def _radial(energy: float, m: int, r0: float, x):
    """r^-m R(r; E) at r = x r0, times e^(-k r) where hyp1f1 serves (a positive factor)."""
    k = math.sqrt(max(-2.0 * energy, 0.0))
    if 2.0 * k * r0 > _SERIES_Z:
        return hyp1f1(m + 0.5 + 1.0 / k, 2 * m + 1, -2.0 * k * r0 * x)
    return np.polynomial.polynomial.polyval(x, _series(m, r0, energy))


def _nodes(m: int, r0: float, energy: float) -> int:
    """Sign changes of R(.; E) on (0, r0]: the number of levels below E.

    R is sampled evenly in sqrt(r) and in r, so that no step advances the
    phase bound 2 sqrt(2 r) + sqrt(2 E) r (Coulomb and kinetic terms) by
    more than pi / _SAMPLES_PER_PI, far below the pi between two nodes.
    """
    phase = 2.0 * math.sqrt(2.0 * r0) + math.sqrt(max(2.0 * energy, 0.0)) * r0
    s = np.linspace(0.0, 1.0, int(_SAMPLES_PER_PI * phase / math.pi) + 16)[1:]
    # R > 0 next to the origin, so a negative first sample is a node too
    negative = np.signbit(_radial(energy, m, r0, np.union1d(s, s * s)))
    return int(negative[0]) + int(np.count_nonzero(negative[1:] != negative[:-1]))


def _series(m: int, r0: float, energy: float) -> list[float]:
    """Coefficients d_j of r^-m R(x r0; E) = sum_j d_j x^j, with d_0 = 1.

    From c_j j (j + 2m) = -2 c_{j-1} - 2 E c_{j-2} for R = r^m sum_j c_j r^j,
    with d_j = c_j r0^j.  Once j (j + 2m) exceeds 2 r0 + 2 |E| r0^2 every
    further pair of terms is smaller than the last, so two consecutive terms
    below the rounding of the largest end the sum.
    """
    d = [1.0, -2.0 * r0 / (2 * m + 1)]
    growth = 2.0 * r0 + 2.0 * abs(energy) * r0 * r0
    peak = max(1.0, abs(d[1]))
    j = 1
    while j * (j + 2 * m) <= growth or abs(d[-1]) + abs(d[-2]) > 1e-17 * peak:
        j += 1
        d.append((-2.0 * r0 * d[-1] - 2.0 * energy * r0 * r0 * d[-2]) / (j * (j + 2 * m)))
        peak = max(peak, abs(d[-1]))
    return d
