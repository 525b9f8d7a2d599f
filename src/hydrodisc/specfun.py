"""Quadrature rules and the Bessel kernel used by the radial solvers.

numpy's Gauss-Legendre tables, the Gauss-Kronrod extension of those
tables (computed from its definition: the Stieltjes polynomial's zeros
and interpolatory weights, by numpy linear algebra), the composite rules
every integral in the package is built from, and the integer-order Bessel
function J_m of the Hankel transform.
The free-atom wavefunctions call scipy.special's classical polynomials
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss, legroots, legvander
from scipy import special as _sp

__all__ = [
    "QuadratureRule",
    "gauss_legendre",
    "gauss_kronrod",
    "composite_gauss",
    "composite_rule",
    "semi_axis_rule",
    "bessel_j",
]


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights on the reference interval [-1, 1]."""

    nodes: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> QuadratureRule:
    """Gauss-Legendre rule of the given order (number of nodes)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes=x, weights=w, order=order)


@lru_cache(maxsize=None)
def gauss_kronrod(order: int) -> QuadratureRule:
    """(2 order + 1)-point Gauss-Kronrod extension of gauss_legendre(order).

    With n = order, the rule keeps the n Gauss nodes and adds the n + 1
    zeros of the Stieltjes polynomial E = P_(n+1) + Sum_(j<=n) c_j P_j,
    defined by Int E P_n P_k dx = 0 for k = 0 .. n (Monegato, SIAM Rev. 24
    (1982) 137); the weights make the rule interpolatory on its 2n + 1
    nodes.  It is exact for polynomials of degree 3n + 1 (even n) or
    3n + 2 (odd n).  The nodes are sorted; nodes[1::2] are the Gauss nodes,
    bit for bit those of gauss_legendre(order), so integrand values taken at
    the Gauss rule's nodes can be reused, and nodes[0::2] are the added
    Kronrod nodes.  The root-finding and the weight solve give the rule to
    about 1e-15, so the rule is symmetrized and its Gauss nodes are
    overwritten.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    n = order
    gauss = gauss_legendre(order).nodes
    # P_0 .. P_(n+1) on a Gauss rule exact through degree 4n + 3 > deg(E P_n P_k) = 3n + 1
    t, u = leggauss(2 * n + 2)
    legendre = legvander(t, n + 1)
    tested = (u * legendre[:, n])[:, None] * legendre[:, : n + 1]  # u_i P_n(t_i) P_k(t_i)
    c = np.linalg.solve(tested.T @ legendre[:, : n + 1], -tested.T @ legendre[:, n + 1])
    x = np.sort(np.concatenate([gauss, legroots(np.append(c, 1.0))]))
    moments = np.zeros(2 * n + 1)
    moments[0] = 2.0
    w = np.linalg.solve(legvander(x, 2 * n).T, moments)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x[1::2] = gauss
    x.setflags(write=False)
    w.setflags(write=False)
    return QuadratureRule(nodes=x, weights=w, order=2 * order + 1)


def composite_rule(edges: np.ndarray, rule: QuadratureRule) -> tuple[np.ndarray, np.ndarray]:
    """Composite rule over the panels defined by sorted edges, panel by panel."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if not np.all(np.diff(edges) > 0):  # also rejects nan edges
        raise ValueError("panel edges must be strictly increasing")
    a = edges[:-1]
    half = 0.5 * np.diff(edges)
    # outer sum over panels, inner over reference nodes
    x = (a[:, None] + half[:, None] * (rule.nodes[None, :] + 1.0)).ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    return x, w


def composite_gauss(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over the panels defined by sorted edges."""
    return composite_rule(edges, gauss_legendre(order))


_SEMI_AXIS_ORDER = 16  # Gauss-Legendre order per panel of semi_axis_rule
_SEMI_AXIS_LEVELS = 14  # dyadic panels of semi_axis_rule toward t = 1


def semi_axis_rule(scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for integrals over [0, inf) of exponentially decaying integrands.

    Uses the substitution x = scale * t / (1 - t) with panels refined
    dyadically toward t = 1.  The last panel stops at t = 1 - 2**-14,
    i.e. x_max = scale * (2**14 - 1), far beyond where e^-x underflows.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    t_edges = 1.0 - 0.5 ** np.arange(_SEMI_AXIS_LEVELS + 1)
    t, wt = composite_gauss(t_edges, _SEMI_AXIS_ORDER)
    x = scale * t / (1.0 - t)
    w = wt * scale / (1.0 - t) ** 2
    return x, w


def bessel_j(m: int, z):
    """Bessel function of the first kind J_m for integer order m >= 0.

    Vectorized for bulk kernels: scipy.special.j0 for m = 0, j1 for m = 1,
    and for m = 2 the exact recurrence J_2(z) = 2 J_1(z)/z - J_0(z) built
    in place from the two (J_2(0) = 0 exactly), at about a tenth of the
    cost of jv.  Orders m >= 3 use scipy.special.jv: upward recurrence
    loses absolute accuracy at small z there.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ValueError("bessel_j requires z >= 0")
    if m == 0:
        out = _sp.j0(z)
    elif m == 1:
        out = _sp.j1(z)
    elif m == 2:
        out = np.asarray(_sp.j1(z))
        out *= 2.0
        with np.errstate(invalid="ignore"):
            out /= z  # 0/0 at z = 0, reset below
        out -= _sp.j0(z)
        out[z == 0.0] = 0.0
    else:
        out = _sp.jv(m, z)
    return float(out) if out.ndim == 0 else out
