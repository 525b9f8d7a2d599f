"""Closed-form measures and wavefunctions of the free two-dimensional hydrogen atom.

Everything here is analytic: energies, radial wavefunctions in position and
momentum space, first and second moments, Fisher information, and the
Crámer-Rao complexity built from them.  These serve as oracle values for the
confined solver in its weak-confinement limit and as reference rows for the
free-atom table.

Atomic units throughout.  A state is labelled by its principal number n and
its magnetic number m; the formulas use the grand quantum number
eta = n - 1/2, and the grand orbital number L = |m| - 1/2 enters only
through L(L+1) = m^2 - 1/4 and 2L + 1 = 2|m|.  <p> has a closed form for the
ns (m = 0) and circular (|m| = n - 1) states only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gamma_fn, gegenbauer_orthonormal, orthonormal_laguerre

__all__ = [
    "StateLabel",
    "FreeMeasures",
    "free_energy",
    "position_mean",
    "position_second_moment",
    "position_variance",
    "position_fisher",
    "momentum_mean",
    "momentum_second_moment",
    "momentum_variance",
    "momentum_fisher",
    "circular_momentum_moment",
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
    def lam(self) -> float:
        """Radial length scale eta/2."""
        return 0.5 * self.eta

    @property
    def n_r(self) -> int:
        """Radial node count n - l - 1, the Laguerre/Gegenbauer degree."""
        return self.n - self.l - 1

    @property
    def is_ns(self) -> bool:
        return self.l == 0

    @property
    def is_circular(self) -> bool:
        return self.l == self.n - 1

    @property
    def label(self) -> str:
        """Spectroscopic name such as '1s' or '3d'."""
        return f"{self.n}{_SPECTROSCOPIC[self.l]}"


@dataclass(frozen=True)
class FreeMeasures:
    """Variance, Fisher information and Crámer-Rao complexity of a free state."""

    energy: float
    v_pos: float
    f_pos: float
    v_mom: float
    f_mom: float
    cr_pos: float
    cr_mom: float

    @classmethod
    def from_parts(
        cls, energy: float, v_pos: float, f_pos: float, v_mom: float, f_mom: float
    ) -> "FreeMeasures":
        return cls(
            energy=energy,
            v_pos=v_pos,
            f_pos=f_pos,
            v_mom=v_mom,
            f_mom=f_mom,
            cr_pos=f_pos * v_pos,
            cr_mom=f_mom * v_mom,
        )


def free_energy(state: StateLabel) -> float:
    """Bound-state energy -1/(2 eta^2)."""
    return -0.5 / state.eta**2


def _orbital_term(state: StateLabel) -> float:
    """L(L+1) = m^2 - 1/4, exact in floating point."""
    return state.l**2 - 0.25


def position_mean(state: StateLabel) -> float:
    """<r> = [3 eta^2 - L(L+1)] / 2."""
    return 0.5 * (3.0 * state.eta**2 - _orbital_term(state))


def position_second_moment(state: StateLabel) -> float:
    """<r^2> = eta^2 [5 eta^2 - 3L(L+1) + 1] / 2."""
    return 0.5 * state.eta**2 * (5.0 * state.eta**2 - 3.0 * _orbital_term(state) + 1.0)


def position_variance(state: StateLabel) -> float:
    """V[rho] = [eta^2 (eta^2 + 2) - L^2 (L+1)^2] / 4."""
    return 0.25 * (state.eta**2 * (state.eta**2 + 2.0) - _orbital_term(state) ** 2)


def position_fisher(state: StateLabel) -> float:
    """F[rho] = 4 (eta - |m|) / eta^3."""
    return 4.0 * (state.eta - state.l) / state.eta**3


def momentum_second_moment(state: StateLabel) -> float:
    """<p^2> = 1/eta^2 (virial theorem)."""
    return 1.0 / state.eta**2


def momentum_fisher(state: StateLabel) -> float:
    """F[gamma] = 2 eta^2 [5 eta^2 - 3L(L+1) - |m|(8 eta - 6L - 3) + 1], 6L + 3 = 6|m|."""
    eta = state.eta
    return (
        2.0
        * eta**2
        * (
            5.0 * eta**2
            - 3.0 * _orbital_term(state)
            - state.l * (8.0 * eta - 6.0 * state.l)
            + 1.0
        )
    )


def _momentum_mean_ns(n: int) -> float:
    # alternating finite sum, exact for every ns state
    total = 0.0
    for j in range(n):
        term = (
            (-1.0) ** j
            * (2.0 * j + 1.0)
            / (2.0 * j + 2.0)
            * gamma_fn(j + 0.5) ** 2
            / gamma_fn(j + 1.0) ** 4
            * gamma_fn(n + j)
            / gamma_fn(n - j)
        )
        total += term
    return total


def circular_momentum_moment(state: StateLabel, alpha: float) -> float:
    """<p^alpha> of a circular state, -2n < alpha < 2n + 2."""
    if not state.is_circular:
        raise ValueError(f"{state.label} is not a circular state")
    n = state.n
    if not (-2.0 * n < alpha < 2.0 * n + 2.0):
        raise ValueError(f"moment order {alpha} diverges for {state.label}")
    return (
        (1.0 / state.eta) ** alpha
        * gamma_fn(n + 0.5 * alpha)
        * gamma_fn(n + 1.0 - 0.5 * alpha)
        / (n * gamma_fn(float(n)) ** 2)
    )


def momentum_mean(state: StateLabel) -> float:
    """<p> where a closed form exists: ns and circular states.

    No general closed form for <p> is known; other states raise ValueError.
    """
    if state.is_circular:
        return circular_momentum_moment(state, 1.0)
    if state.is_ns:
        return _momentum_mean_ns(state.n)
    raise ValueError(f"<p> has no implemented closed form for {state.label}")


def momentum_variance(state: StateLabel) -> float:
    """V[gamma] = <p^2> - <p>^2 for ns and circular states."""
    mean = momentum_mean(state)
    return momentum_second_moment(state) - mean**2


def free_measures(state: StateLabel) -> FreeMeasures:
    """All free-atom measures of a state with known <p> (ns or circular)."""
    return FreeMeasures.from_parts(
        energy=free_energy(state),
        v_pos=position_variance(state),
        f_pos=position_fisher(state),
        v_mom=momentum_variance(state),
        f_mom=momentum_fisher(state),
    )


def table1_states() -> list[StateLabel]:
    """The four 2D states tabulated and swept throughout: 1s, 2s, 2p, 3d."""
    return [StateLabel(1, 0), StateLabel(2, 0), StateLabel(2, 1), StateLabel(3, 2)]


def free_radial_position_wf(state: StateLabel, r) -> tuple[np.ndarray, np.ndarray]:
    """Radial position wavefunction R(r) and dR/dr, normalized by Int R^2 r dr = 1."""
    lam = state.lam
    l, k = state.l, state.n_r
    rt = np.asarray(r, dtype=float) / lam
    poly = orthonormal_laguerre(k, 2.0 * l, rt)
    const = math.sqrt(lam**-2 / (2.0 * state.eta))
    envelope = np.exp(-0.5 * rt)
    power = rt**l
    value = const * power * envelope * poly.value
    dpower = l * rt ** (l - 1) if l >= 1 else np.zeros_like(rt)
    deriv = (
        const
        / lam
        * envelope
        * ((dpower - 0.5 * power) * poly.value + power * poly.derivative)
    )
    return value, deriv


def free_radial_momentum_wf(state: StateLabel, p) -> tuple[np.ndarray, np.ndarray]:
    """Radial momentum wavefunction M(p) and dM/dp, normalized by Int M^2 p dp = 1."""
    eta = state.eta
    l, k = state.l, state.n_r
    alpha = l + 0.5
    p = np.asarray(p, dtype=float)
    s2 = (eta * p) ** 2
    y = (1.0 - s2) / (1.0 + s2)
    a_exp = 1.5 + 0.5 * l
    b_exp = 0.5 * l
    const = eta
    poly = gegenbauer_orthonormal(k, alpha, y)

    positive = p > 0.0
    yp = np.where(positive, y, 0.0)  # placeholder at p=0, fixed below
    up = 1.0 + yp
    um = 1.0 - yp
    value = const * up**a_exp * um**b_exp * poly.value
    dy_dp = -4.0 * eta**2 * p / (1.0 + s2) ** 2
    dvalue_dy = const * (
        up ** (a_exp - 1.0) * um ** (b_exp - 1.0) * (a_exp * um - b_exp * up) * poly.value
        + up**a_exp * um**b_exp * poly.derivative
    )
    deriv = dvalue_dy * dy_dp

    if np.any(~positive):
        # limits at p = 0, where y = 1 exactly
        at_one = gegenbauer_orthonormal(k, alpha, 1.0)
        peak = const * 2.0**a_exp * at_one.value
        v0 = peak if l == 0 else 0.0
        d0 = peak * math.sqrt(2.0) * eta if l == 1 else 0.0
        value = np.where(positive, value, v0)
        deriv = np.where(positive, deriv, d0)
    return value, deriv
