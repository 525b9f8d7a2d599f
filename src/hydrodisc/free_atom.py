"""Closed-form measures and wavefunctions of the free two-dimensional hydrogen atom.

Everything here is analytic: the energy (free_energy), the radial
wavefunctions in position and momentum space, the means <r> and <p>
(position_mean, momentum_mean), and, from free_measures alone, the
variance, Fisher information and Crámer-Rao complexity in both spaces.
These serve as oracle values for the confined solver in its
weak-confinement limit and as reference rows for the free-atom table.

Atomic units throughout.  A state is labelled by its principal number n and
its magnetic number m; the formulas use the grand quantum number
eta = n - 1/2, and the grand orbital number L = |m| - 1/2 enters only
through L(L+1) = m^2 - 1/4 and 2L + 1 = 2|m|.  <p> has a closed form for the
ns (m = 0) and circular (|m| = n - 1) states only.

The radial wavefunctions are orthonormal polynomials of degree n_r times
their weights: associated Laguerre L_k^(2|m|) in position space and
Gegenbauer C_k^(|m|+1/2) in momentum space, each evaluated by scipy.special
and scaled to unit norm in place.  Their derivatives use the degree k - 1
polynomial, which scipy evaluates as 0 for k = 0.  The momentum
wavefunction is written in s = eta p as s^|m| (1 + s^2)^-(|m|+3/2) times
the polynomial at y = (1 - s^2)/(1 + s^2): one expression holds for every
degree and at p = 0, and it keeps full relative accuracy as p -> 0, where
a form in 1 - y would cancel.  The quadrature oracles in measures
integrate both wavefunctions on one semi-axis rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import eval_gegenbauer, eval_genlaguerre, gammaln

__all__ = [
    "StateLabel",
    "FreeMeasures",
    "free_energy",
    "position_mean",
    "momentum_mean",
    "free_measures",
    "table1_states",
    "free_radial_position_wf",
    "free_radial_momentum_wf",
]

_SPECTROSCOPIC = "spdfghiklmnoq"

@dataclass(frozen=True)
class StateLabel:
    """Quantum numbers (n, m) of a hydrogenic state in two dimensions."""

    n: int
    m: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"principal quantum number must be >= 1, got {self.n}")
        if abs(self.m) > self.n - 1:
            raise ValueError(f"|m| must be <= n-1, got (n={self.n}, m={self.m})")

    @property
    def l(self) -> int:
        """Angular quantum number |m|."""
        return abs(self.m)

    @property
    def eta(self) -> float:
        """Grand quantum number n - 1/2."""
        return self.n - 0.5

    @property
    def n_r(self) -> int:
        """Radial node count n - l - 1, the Laguerre/Gegenbauer degree."""
        return self.n - self.l - 1

    @property
    def label(self) -> str:
        """Spectroscopic name such as '1s' or '3d'."""
        return f"{self.n}{_SPECTROSCOPIC[self.l]}"


@dataclass(frozen=True)
class FreeMeasures:
    """Variance, Fisher information and Crámer-Rao complexity of a free state."""

    v_pos: float
    f_pos: float
    v_mom: float
    f_mom: float
    cr_pos: float
    cr_mom: float


def free_energy(state: StateLabel) -> float:
    """Bound-state energy -1/(2 eta^2)."""
    return -0.5 / state.eta**2


def position_mean(state: StateLabel) -> float:
    """<r> = [3 eta^2 - L(L+1)] / 2."""
    return 0.5 * (3.0 * state.eta**2 - (state.l**2 - 0.25))


def momentum_mean(state: StateLabel) -> float:
    """<p> where a closed form exists: ns and circular states.

    A circular state has <p> = Gamma(n + 1/2)^2 / (eta n Gamma(n)^2); with
    Gamma(n + 1/2)^2 = pi ((2n)!/(4^n n!))^2 and eta = (2n - 1)/2 that is pi
    times the rational 2 (2n)!^2 / (16^n n!^2 (2n - 1) n (n-1)!^2).  An ns
    state has the alternating sum over j < n of
    (-1)^j (2j+1)/(2j+2) Gamma(j + 1/2)^2/j!^4 (n+j-1)!/(n-j-1)!, whose terms
    are pi times the rationals (-1)^j (2j+1)/(2j+2) (2j)!^2/(16^j j!^6)
    (n+j-1)!/(n-j-1)!; they cancel heavily as n grows.  Both rationals are
    built exactly and multiplied by pi once, so neither overflows nor loses
    digits at large n.  No general closed form for <p> is known; other
    states raise ValueError.
    """
    n = state.n
    f = math.factorial
    if state.l == n - 1:
        total = Fraction(2 * f(2 * n) ** 2, 16**n * f(n) ** 2 * (2 * n - 1) * n * f(n - 1) ** 2)
    elif state.l == 0:
        total = sum(
            Fraction((-1) ** j * (2 * j + 1) * f(2 * j) ** 2 * f(n + j - 1),
                     (2 * j + 2) * 16**j * f(j) ** 6 * f(n - j - 1))
            for j in range(n)
        )
    else:
        raise ValueError(f"<p> has no implemented closed form for {state.label}")
    return math.pi * float(total)


def free_measures(state: StateLabel) -> FreeMeasures:
    """All free-atom measures of a state with known <p> (ns or circular).

    With L(L+1) = m^2 - 1/4, exact in floating point:

        V[rho]   = [eta^2 (eta^2 + 2) - L^2 (L+1)^2] / 4
        F[rho]   = 4 (eta - |m|) / eta^3
        V[gamma] = <p^2> - <p>^2, <p^2> = 1/eta^2 (virial theorem)
        F[gamma] = 2 eta^2 [5 eta^2 - 3L(L+1) - |m|(8 eta - 6L - 3) + 1], 6L + 3 = 6|m|

    and the Cramer-Rao complexity C = F V in each space.
    """
    eta, l = state.eta, state.l
    orbital = l**2 - 0.25
    v_pos = 0.25 * (eta**2 * (eta**2 + 2.0) - orbital**2)
    f_pos = 4.0 * (eta - l) / eta**3
    v_mom = 1.0 / eta**2 - momentum_mean(state) ** 2
    f_mom = (
        2.0
        * eta**2
        * (5.0 * eta**2 - 3.0 * orbital - l * (8.0 * eta - 6.0 * l) + 1.0)
    )
    return FreeMeasures(
        v_pos=v_pos,
        f_pos=f_pos,
        v_mom=v_mom,
        f_mom=f_mom,
        cr_pos=f_pos * v_pos,
        cr_mom=f_mom * v_mom,
    )


def table1_states() -> list[StateLabel]:
    """The four 2D states tabulated and swept throughout: 1s, 2s, 2p, 3d."""
    return [StateLabel(1, 0), StateLabel(2, 0), StateLabel(2, 1), StateLabel(3, 2)]


def free_radial_position_wf(state: StateLabel, r) -> tuple[np.ndarray, np.ndarray]:
    """Radial position wavefunction R(r) and dR/dr, normalized by Int R^2 r dr = 1."""
    lam = 0.5 * state.eta  # radial length scale
    l, k = state.l, state.n_r
    rt = np.asarray(r, dtype=float) / lam
    # L_k^(2l) scaled to unit norm under rt^(2l) e^-rt, d/dx L_k^(a) = -L_{k-1}^(a+1)
    alpha = 2.0 * l
    norm = float(np.exp(0.5 * (gammaln(k + 1.0) - gammaln(k + alpha + 1.0))))
    poly = norm * eval_genlaguerre(k, alpha, rt)
    dpoly = -norm * eval_genlaguerre(k - 1, alpha + 1.0, rt)
    const = math.sqrt(lam**-2 / (2.0 * state.eta))
    envelope = np.exp(-0.5 * rt)
    power = rt**l
    value = const * power * envelope * poly
    dpower = l * rt ** max(l - 1, 0)
    deriv = (
        const
        / lam
        * envelope
        * ((dpower - 0.5 * power) * poly + power * dpoly)
    )
    return value, deriv


def free_radial_momentum_wf(state: StateLabel, p) -> tuple[np.ndarray, np.ndarray]:
    """Radial momentum wavefunction M(p) and dM/dp, normalized by Int M^2 p dp = 1.

    In s = eta p and q = 1 + s^2, M = c s^l q^-(l+3/2) C_k^(l+1/2)(y) with
    y = (1 - s^2)/q, which holds at p = 0 as well: the textbook weight
    (1 + y)^((l+3)/2) (1 - y)^(l/2) is 2^(l+3/2) s^l q^-(l+3/2).
    """
    eta = state.eta
    l, k = state.l, state.n_r
    alpha = l + 0.5
    # C_k^(alpha) scaled to unit norm under (1-y^2)^(alpha-1/2), d/dy C_k^(a) = 2a C_{k-1}^(a+1)
    log_norm_sq = (
        math.log(math.pi)
        + (1.0 - 2.0 * alpha) * math.log(2.0)
        + gammaln(k + 2.0 * alpha)
        - gammaln(k + 1.0)
        - math.log(k + alpha)
        - 2.0 * gammaln(alpha)
    )
    const = eta * 2.0 ** (l + 1.5) * math.exp(-0.5 * log_norm_sq)
    s = eta * np.asarray(p, dtype=float)
    q = 1.0 + s * s
    y = (1.0 - s * s) / q
    poly = eval_gegenbauer(k, alpha, y)
    dpoly = 2.0 * alpha * eval_gegenbauer(k - 1, alpha + 1.0, y)
    envelope = q ** -(l + 1.5)
    power = s**l
    value = const * power * envelope * poly
    dpower = l * s ** max(l - 1, 0) - (2.0 * l + 3.0) * s ** (l + 1) / q
    deriv = const * eta * envelope * (dpower * poly - 4.0 * s / (q * q) * power * dpoly)
    return value, deriv
