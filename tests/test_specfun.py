"""Quadrature rules, the Bessel kernel and the Brent searches."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import brentq, minimize_scalar

from hydrodisc import confined, fd_eigensolver, specfun
from hydrodisc.free_atom import StateLabel
from hydrodisc.specfun import (
    ConvergenceError,
    bessel_j,
    brent_minimum,
    brent_root,
    composite_gauss,
    composite_rule,
    gauss_kronrod,
    gauss_legendre,
    semi_axis_rule,
    toroidal_q,
)
from hydrodisc.sweep import DEFAULT_STATES, SweepConfig, radii


def test_gauss_legendre_polynomial_exactness():
    """An n-point rule integrates degree 2n-1 exactly."""
    x, w = composite_gauss(np.array([0.0, 1.0]), 8)
    for deg in (0, 7, 15):
        got = np.sum(w * x**deg)
        assert abs(got - 1.0 / (deg + 1)) < 1e-14


def test_gauss_legendre_rejects_bad_order():
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_composite_gauss_matches_single_panel():
    edges = np.array([0.0, 0.3, 1.1, 2.0])
    x, w = composite_gauss(edges, 10)
    xs, ws = composite_gauss(np.array([0.0, 2.0]), 30)
    f = lambda t: np.cos(3.0 * t) * np.exp(-t)
    assert abs(np.sum(w * f(x)) - np.sum(ws * f(xs))) < 1e-14


def test_composite_gauss_validates_edges():
    with pytest.raises(ValueError):
        composite_gauss(np.array([0.0, 1.0, 0.5]), 8)
    with pytest.raises(ValueError):
        composite_gauss(np.array([1.0]), 8)
    with pytest.raises(ValueError):
        composite_gauss(np.array([0.0, np.nan]), 4)


def test_mapped_rejects_empty_interval():
    """A rule is never mapped onto an empty interval such as [2, 2]."""
    with pytest.raises(ValueError):
        composite_gauss(np.array([2.0, 2.0]), 4)


def test_composite_rule_validates_edges():
    rule = gauss_kronrod(4)
    with pytest.raises(ValueError):
        composite_rule(np.array([0.0, 1.0, 0.5]), rule)
    with pytest.raises(ValueError):
        composite_rule(np.array([1.0]), rule)


KRONROD_ORDERS = [1, 2, 3, 4, 7, 12, 20, 30]


@pytest.mark.parametrize("n", KRONROD_ORDERS)
def test_gauss_kronrod_structure(n):
    """2n + 1 increasing nodes in (-1, 1), positive weights, the Gauss nodes bit for bit."""
    x, w = gauss_kronrod(n)
    assert x.size == w.size == 2 * n + 1
    assert not x.flags.writeable and not w.flags.writeable
    assert np.all(np.diff(x) > 0)
    assert -1.0 < x[0] and x[-1] < 1.0
    assert np.all(w > 0)
    assert np.all(x[1::2] == gauss_legendre(n)[0])
    with pytest.raises(ValueError):
        gauss_kronrod(0)


@pytest.mark.parametrize("n", KRONROD_ORDERS)
def test_gauss_kronrod_polynomial_exactness(n):
    """The extension is exact through degree 3n + 1 (even n) or 3n + 2 (odd n); n = 12 not at 38."""
    x, w = gauss_kronrod(n)
    for deg in range(3 * n + 2 + n % 2):
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        assert abs(np.sum(w * x**deg) - exact) < 1e-14
    if n == 12:
        assert abs(np.sum(w * x**38) - 2.0 / 39) > 1e-14


def test_gauss_kronrod_against_mpmath():
    """The 25-point rule solved from its definition in 30-digit mpmath agrees to 2e-15.

    The Stieltjes polynomial E = x^13 + Sum c_j x^j (odd powers only) is
    orthogonal to P_12(x) x^k for k = 0 .. 12, the moments taken exactly
    from the monomial coefficients of P_12; its zeros are the added nodes,
    and the weights solve Sum_i w_i x_i^k = Int x^k dx for k = 0 .. 24.
    """
    mp = pytest.importorskip("mpmath")
    n = 12
    with mp.workdps(30):
        p12 = mp.taylor(lambda t: mp.legendre(n, t), 0, n)  # monomial coefficients of P_12

        def moment(k):  # Int_-1^1 P_12(x) x^k dx
            return sum(c * 2 / mp.mpf(j + k + 1) for j, c in enumerate(p12) if (j + k) % 2 == 0)

        powers = range(1, n + 1, 2)  # the odd powers below x^13 that E may carry
        rows = range(1, n + 1, 2)  # even k give 0 = 0 by parity
        c = mp.lu_solve(
            mp.matrix([[moment(j + k) for j in powers] for k in rows]),
            mp.matrix([-moment(n + 1 + k) for k in rows]),
        )
        stieltjes = [mp.mpf(1)] + [mp.mpf(0)] * (n + 1)  # descending coefficients of E
        for j, cj in zip(powers, c):
            stieltjes[n + 1 - j] = cj
        added = [mp.re(z) for z in mp.polyroots(stieltjes, maxsteps=200, extraprec=60)]
        nodes = sorted(added + [mp.mpf(x) for x in gauss_legendre(n)[0]])
        weights = mp.lu_solve(
            mp.matrix([[x**k for x in nodes] for k in range(2 * n + 1)]),
            mp.matrix([2 / mp.mpf(k + 1) if k % 2 == 0 else 0 for k in range(2 * n + 1)]),
        )
        nodes = np.array(nodes, dtype=float)
        weights = np.array(weights.tolist(), dtype=float).ravel()
    x, w = gauss_kronrod(n)
    assert np.max(np.abs(x - nodes)) <= 2e-15
    assert np.max(np.abs(w - weights)) <= 2e-15


def test_composite_rule_reuses_gauss_nodes():
    """Composite Kronrod panels hold the composite Gauss nodes at their odd places."""
    edges = np.array([0.0, 1e-3, 0.37, 2.0, 9.5])
    xg, _ = composite_gauss(edges, 12)
    xk, wk = composite_rule(edges, gauss_kronrod(12))
    assert np.all(xk.reshape(4, 25)[:, 1::2].ravel() == xg)
    # Int_0^b e^-t cos 3t dt = (1 + e^-b (3 sin 3b - cos 3b)) / 10
    exact = (1.0 + math.exp(-9.5) * (3.0 * math.sin(28.5) - math.cos(28.5))) / 10.0
    assert abs(np.sum(wk * np.cos(3.0 * xk) * np.exp(-xk)) - exact) < 1e-14


def test_semi_axis_rule_gamma_integrals():
    """Int_0^inf x^k e^-x dx = k!, and Int_0^inf dx / (1+x^2)^2 = pi/4, on one rule."""
    x, w = semi_axis_rule(1.0)
    for k in (0, 1, 3, 6):
        assert abs(np.sum(w * x**k * np.exp(-x)) - math.factorial(k)) < 1e-12
    assert abs(np.sum(w / (1.0 + x * x) ** 2) - math.pi / 4.0) < 1e-14
    with pytest.raises(ValueError):
        semi_axis_rule(0.0)


def _j0_series(z: float) -> float:
    # power series sum_k (-1)^k (z^2/4)^k / (k!)^2, plenty of terms for z < 6
    term, total = 1.0, 1.0
    q = 0.25 * z * z
    for k in range(1, 40):
        term *= -q / (k * k)
        total += term
    return total


def test_bessel_j0_first_zero_against_series():
    """Bisection on an in-test power series locates the first zero of J_0."""
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _j0_series(lo) * _j0_series(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    zero = 0.5 * (lo + hi)
    assert abs(zero - 2.404825557695773) < 1e-12
    assert abs(bessel_j(0, zero)) < 1e-12


def test_bessel_j_recurrence():
    """J_{m-1}(z) + J_{m+1}(z) = (2m/z) J_m(z)."""
    z = np.array([0.7, 3.3, 12.0, 47.0])
    for m in (1, 2, 3):
        lhs = bessel_j(m - 1, z) + bessel_j(m + 1, z)
        rhs = 2.0 * m * bessel_j(m, z) / z
        assert_allclose(lhs, rhs, rtol=1e-11, atol=1e-13)


def _mpmath_j(m, z):
    import mpmath

    return np.array([float(mpmath.besselj(m, x)) for x in z])


@pytest.mark.parametrize(
    "z",
    [
        pytest.param(np.geomspace(1e-6, 60.0, 200), id="1e-6_to_60"),
        pytest.param(np.geomspace(60.0, 1e4, 400), id="60_to_1e4"),
        pytest.param(np.linspace(55.0, 65.0, 101), id="dense_55_to_65"),
    ],
)
def test_bessel_j_against_mpmath(z):
    """J_m matches mpmath to 1e-13 on each z sample; a scalar argument returns a float."""
    for m in (0, 1, 2, 3, 5):
        assert_allclose(bessel_j(m, z), _mpmath_j(m, z), rtol=0, atol=1e-13)
        assert type(bessel_j(m, 60.0)) is float
    assert bessel_j(2, 70.0) == pytest.approx(_mpmath_j(2, [70.0])[0], abs=1e-13)


def _mpmath_q(k, chi_minus_1):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        return np.array([
            float(mpmath.re(mpmath.legenq(k - 0.5, 0, 1 + mpmath.mpf(d), type=3)))
            for d in chi_minus_1
        ])


def test_toroidal_q_against_mpmath():
    """Q_(k-1/2)(chi) for k <= 5 within 1e-13 relative of 40-digit mpmath.

    chi - 1 runs from 1e-24, where chi rounds to 1, to 1e3, and includes
    both sides of chi = 1.5 and of the switch from the elliptic start to
    the hypergeometric form.
    """
    split = specfun._TOROIDAL_SPLIT
    d = np.concatenate((
        np.geomspace(1e-24, 1e3, 82),
        [0.5 * (1 - 1e-9), 0.5, 0.5 * (1 + 1e-9), split * (1 - 1e-9), split * (1 + 1e-9)],
    ))
    for k in range(6):
        assert_allclose(toroidal_q(k, d), _mpmath_q(k, d), rtol=1e-13, atol=0, err_msg=f"k={k}")


def test_toroidal_q_where_chi_rounds_to_one():
    """Given chi - 1 directly, Q stays finite and keeps growing as chi -> 1."""
    d = np.array([1e-300, 1e-100, 1e-30, 1e-17])
    assert np.all(1.0 + d == 1.0)
    for k in range(6):
        q = toroidal_q(k, d)
        assert np.all(np.isfinite(q)), k
        assert np.all(np.diff(q) < 0.0), k
    with pytest.raises(ValueError):
        toroidal_q(-1, d)


def test_bessel_j_at_zero():
    for m, expect in ((0, 1.0), (1, 0.0), (2, 0.0), (3, 0.0)):
        assert bessel_j(m, np.array([0.0]))[0] == expect


def test_bessel_domain_errors():
    """A negative order is refused; a negative argument is in the domain.

    J_m(-z) = (-1)^m J_m(z) for integer m, checked against mpmath on one
    array of both signs that holds the z = 0 point of the J_2 recurrence.
    """
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    r = np.geomspace(1e-6, 1e3, 251)
    z = np.concatenate((-r, [0.0], r))
    for m in range(6):
        assert_allclose(bessel_j(m, z), _mpmath_j(m, z), rtol=0, atol=1e-13)
        assert_allclose(bessel_j(m, -z), (-1) ** m * bessel_j(m, z), rtol=0, atol=1e-15)
    assert bessel_j(2, -70.0) == pytest.approx(_mpmath_j(2, [70.0])[0], abs=1e-13)


def test_brent_root_matches_brentq_on_the_oracle(monkeypatch):
    """Every oracle_energy bracket of the default sweep grid gives brentq's double."""
    roots = []

    def compared(f, lo, hi, xtol):
        root = brent_root(f, lo, hi, xtol)
        assert root == brentq(f, lo, hi, xtol=xtol)
        roots.append(root)
        return root

    monkeypatch.setattr(fd_eigensolver, "brent_root", compared)
    for n, m in DEFAULT_STATES:
        for r0 in radii(SweepConfig()):
            fd_eigensolver.oracle_energy(StateLabel(n, m), float(r0))
    assert len(roots) == len(DEFAULT_STATES) * SweepConfig().points


@pytest.mark.parametrize(
    "f, lo, hi, root",
    [(math.cos, 1.0, 2.0, 0.5 * math.pi), (lambda x: x**3 - 2.0, 0.0, 2.0, 2.0 ** (1 / 3))],
)
@pytest.mark.parametrize("xtol", [1e-15, 1e-4])
def test_brent_root_closed_form(f, lo, hi, root, xtol):
    got = brent_root(f, lo, hi, xtol)
    assert got == brentq(f, lo, hi, xtol=xtol)
    assert abs(got - root) <= xtol + 4 * np.finfo(float).eps * abs(root)


def test_brent_root_needs_a_sign_change():
    with pytest.raises(ValueError, match="different signs"):
        brent_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-12)


def test_unsettled_brent_root_is_a_convergence_error(monkeypatch):
    monkeypatch.setattr(specfun, "_ROOT_MAXITER", 2)
    with pytest.raises(ConvergenceError, match="brent_root did not converge in 2 iterations"):
        brent_root(math.cos, 1.0, 2.0, 1e-15)


def test_brent_minimum_on_nan_is_a_convergence_error():
    """The first nan value ends the search: at once, or wherever the search meets it."""
    calls = []

    def nan_everywhere(x):
        calls.append(x)
        return math.nan

    with pytest.raises(ConvergenceError, match="nan"):
        brent_minimum(nan_everywhere, 0.0, 1.0, 1e-10)
    assert len(calls) == 1

    def nan_beyond(x):
        return (x - 0.8) ** 2 if x < 0.75 else math.nan

    with pytest.raises(ConvergenceError, match="nan value at x = "):
        brent_minimum(nan_beyond, 0.0, 1.0, 1e-10)


@pytest.mark.parametrize("r0", [0.5, 6.0, 40.0])
def test_brent_minimum_matches_minimize_scalar(monkeypatch, r0):
    """Each polish of solve gives scipy's bounded minimum: same x, f(x) and evaluation count."""
    polishes = []

    def counted(f, points):
        def g(x):
            points.append(x)
            return f(x)

        return g

    def compared(f, a, b, xatol):
        ours, theirs = [], []
        x, fx = brent_minimum(counted(f, ours), a, b, xatol)
        res = minimize_scalar(
            counted(f, theirs), bounds=(a, b), method="bounded", options={"xatol": xatol}
        )
        assert (x, fx, len(ours)) == (res.x, res.fun, res.nfev)
        assert ours == theirs
        polishes.append(len(ours))
        return x, fx

    monkeypatch.setattr(confined, "brent_minimum", compared)
    for n, m in DEFAULT_STATES:
        confined.solve(StateLabel(n, m), r0)
    assert len(polishes) >= 4
