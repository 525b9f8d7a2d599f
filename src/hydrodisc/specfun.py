"""Quadrature rules, the Bessel kernel and the scalar root and minimum searches.

numpy's Gauss-Legendre tables, the Gauss-Kronrod extension of those
tables (computed from its definition: the Stieltjes polynomial's zeros
and interpolatory weights, by numpy linear algebra), the composite rules
every integral in the package is built from, the integer-order Bessel
function J_m of the Hankel transform, the toroidal Legendre functions
Q_(k-1/2) of the position-space momentum moments, and Brent's root and bounded minimum
searches (R. P. Brent, Algorithms for Minimization without Derivatives,
1973, ch. 4-5).  A rule is a pair (nodes, weights) of read-only arrays;
gauss_legendre and gauss_kronrod give it on the reference interval
[-1, 1].  The package's two failure classes are defined here:
ConvergenceError for every search or solve that fails to settle, and
AccuracyError for every integral that cannot reach its accuracy target.
The free-atom wavefunctions call scipy.special's classical polynomials
directly.  scipy.special is the only part of scipy the package imports.
"""

from __future__ import annotations

from functools import lru_cache
from math import sqrt

import numpy as np
from numpy.polynomial.legendre import leggauss, legroots, legvander
from scipy import special as _sp

__all__ = [
    "AccuracyError",
    "ConvergenceError",
    "gauss_legendre",
    "gauss_kronrod",
    "composite_gauss",
    "composite_rule",
    "semi_axis_rule",
    "bessel_j",
    "toroidal_q",
    "brent_root",
    "brent_minimum",
]


class ConvergenceError(RuntimeError):
    """Raised when a search or the variational minimizer fails to settle."""


class AccuracyError(RuntimeError):
    """Raised when an integral cannot reach its accuracy target."""


@lru_cache(maxsize=None)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the given order (number of nodes)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    x, w = leggauss(order)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=None)
def gauss_kronrod(order: int) -> tuple[np.ndarray, np.ndarray]:
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
    gauss = gauss_legendre(order)[0]
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
    return x, w


def composite_rule(
    edges: np.ndarray, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Composite of the reference rule (nodes, weights) over the panels of sorted edges."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("need at least two panel edges")
    if not np.all(np.diff(edges) > 0):  # also rejects nan edges
        raise ValueError("panel edges must be strictly increasing")
    nodes, weights = rule
    a = edges[:-1]
    half = 0.5 * np.diff(edges)
    # outer sum over panels, inner over reference nodes
    x = (a[:, None] + half[:, None] * (nodes[None, :] + 1.0)).ravel()
    w = (half[:, None] * weights[None, :]).ravel()
    return x, w


def composite_gauss(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over the panels defined by sorted edges."""
    return composite_rule(edges, gauss_legendre(order))


_SEMI_AXIS_ORDER = 16  # Gauss-Legendre order per panel of semi_axis_rule
_SEMI_AXIS_EDGES = np.concatenate(([0.0], 2.0 ** np.arange(-5, 31)))  # 36 panels


def semi_axis_rule(scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature for integrals over [0, inf) of exponentially or algebraically decaying integrands.

    Composite Gauss-Legendre on the panel edges scale * {0, 2^-5, 2^-4,
    ..., 2^30}: 36 panels, 576 nodes.  Each geometric panel resolves a
    power law as well as the last, so e^-x and x^-k decay take the same
    rule.  Past its end, an integrand bounded by (x/scale)^-4 holds less
    than 1e-27 scale.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    return composite_gauss(scale * _SEMI_AXIS_EDGES, _SEMI_AXIS_ORDER)


def bessel_j(m: int, z):
    """Bessel function of the first kind J_m for integer order m >= 0 and any real z.

    Vectorized for bulk kernels: scipy.special.j0 for m = 0, j1 for m = 1,
    and for m = 2 the exact recurrence J_2(z) = 2 J_1(z)/z - J_0(z) built
    in place from the two (J_2(0) = 0 exactly), at about a tenth of the
    cost of jv.  Orders m >= 3 use scipy.special.jv: upward recurrence
    loses absolute accuracy at small z there.
    """
    if m < 0:
        raise ValueError(f"order must be >= 0, got {m}")
    z = np.asarray(z, dtype=float)
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


_TOROIDAL_SPLIT = 0.02  # chi - 1 below which toroidal_q recurs from the elliptic forms


def toroidal_q(k: int, chi_minus_1) -> np.ndarray:
    """Toroidal Legendre function Q_(k-1/2)(chi) of integer k >= 0, given chi - 1 > 0.

    Taking chi - 1 keeps full relative accuracy where chi rounds to 1 and Q
    grows like -ln(chi - 1)/2.  Below _TOROIDAL_SPLIT the two elliptic forms
    (DLMF 14.5(v), after a Landen transformation) Q_(-1/2) = kappa K and
    Q_(1/2) = chi kappa K - (1 + chi) kappa E, with kappa^2 = 2/(1 + chi),
    K(1 - kappa^2) from ellipkm1 and E(kappa^2) from ellipe, start the
    upward recurrence (nu + 1) Q_(nu+1) = (2 nu + 1) chi Q_nu - nu Q_(nu-1).
    Upward is the unstable direction, but this close to chi = 1 it loses
    little; a split at chi = 1.5 would lose 1.1e-13 on Q_(5/2) and 5e-12 on
    Q_(9/2).  Above it the hypergeometric form
    Q_nu = pi^(1/2) Gamma(nu + 1)/(Gamma(nu + 3/2) (2 chi)^(nu + 1))
    2F1((nu + 2)/2, (nu + 1)/2; nu + 3/2; chi^-2) holds full accuracy.
    Against 40-digit mpmath (toroidal functions: DLMF 14.20) the result is
    within 1.2e-14 relative for k <= 5 and 2.2e-14 for k <= 8, from
    chi - 1 = 1e-24 to 1e3.
    """
    if k < 0:
        raise ValueError(f"order k must be >= 0, got {k}")
    d = np.asarray(chi_minus_1, dtype=float)
    chi = 1.0 + d
    out = np.empty_like(d)
    near = d < _TOROIDAL_SPLIT
    dn, cn = d[near], chi[near]
    kappa = np.sqrt(2.0 / (2.0 + dn))
    big_k = _sp.ellipkm1(dn / (2.0 + dn))
    low, q = kappa * big_k, cn * kappa * big_k - (1.0 + cn) * kappa * _sp.ellipe(kappa * kappa)
    if k == 0:
        q = low
    for j in range(1, k):
        low, q = q, (2.0 * j * cn * q - (j - 0.5) * low) / (j + 0.5)
    out[near] = q
    far = chi[~near]
    nu = k - 0.5
    scale = sqrt(np.pi) * _sp.gamma(nu + 1.0) / _sp.gamma(nu + 1.5)
    out[~near] = scale / (2.0 * far) ** (nu + 1.0) * _sp.hyp2f1(
        0.5 * (nu + 2.0), 0.5 * (nu + 1.0), nu + 1.5, 1.0 / (far * far)
    )
    return out


_ROOT_RTOL = 4 * np.finfo(float).eps  # scipy brentq's default and smallest rtol
_ROOT_MAXITER = 100
_MINIMUM_MAXFUN = 500


def brent_root(f, lo: float, hi: float, xtol: float) -> float:
    """Zero of f in [lo, hi] by Brent's zeroin, to xtol + 4 eps |x|.

    The arithmetic follows scipy's brentq (its brentq.c) step for step, so
    the two return the same double: inverse quadratic or secant steps while
    they shrink the bracket fast enough, bisection otherwise.  ValueError
    when f(lo) and f(hi) have the same sign or f returns nan;
    ConvergenceError after 100 iterations.
    """

    def value(x):
        fx = float(f(x))  # numpy scalar arithmetic in the loop would be slower, not different
        if fx != fx:
            raise ValueError(f"f({x}) is nan")
        return fx

    xpre, xcur = lo, hi
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError(f"f({lo}) and f({hi}) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_ROOT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best iterate in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise ConvergenceError(f"brent_root did not converge in {_ROOT_MAXITER} iterations")


def brent_minimum(f, a: float, b: float, xatol: float) -> tuple[float, float]:
    """Minimum of f on [a, b] by Brent's bounded search: (x, f(x)).

    Golden-section steps, replaced by parabolic ones through the three best
    points xf, nfc, fulc while those fall inside the bracket and shrink it;
    the search stops when the bracket around the best point xf is within
    2 (sqrt(eps) |xf| + xatol/3) of it.  The arithmetic and the evaluation
    order are those of scipy's minimize_scalar(method="bounded"), so the two
    return the same doubles.  ConvergenceError after 500 evaluations or at
    the first nan value.
    """

    def value(x):
        fx = f(x)
        if fx != fx:
            raise ConvergenceError(f"brent_minimum met a nan value at x = {x}")
        return fx

    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    xf = nfc = fulc = a + golden_mean * (b - a)
    fx = fnfc = ffulc = value(xf)
    num = 1
    rat = e = 0.0
    while True:
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if abs(xf - xm) <= tol2 - 0.5 * (b - a):
            break
        parabola = False
        if abs(e) > tol1:
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            parabola = abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf)
        if parabola:
            rat = p / q
            x = xf + rat
            if x - a < tol2 or b - x < tol2:  # too close to a bound: step tol1 toward the middle
                rat = tol1 if xm >= xf else -tol1
        else:  # golden section of the larger side
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + (-1.0 if rat < 0 else 1.0) * max(abs(rat), tol1)
        fu = value(x)
        num += 1
        if fu <= fx:
            a, b = (xf, b) if x >= xf else (a, xf)
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            a, b = (x, b) if x < xf else (a, x)
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        if num >= _MINIMUM_MAXFUN:
            raise ConvergenceError(
                f"brent_minimum did not converge in {_MINIMUM_MAXFUN} evaluations"
            )
    return xf, fx
