"""Exact wall levels of the confined atom, checked against 30-digit mpmath."""

import math

import mpmath
import numpy as np
import pytest

from hydrodisc import fd_eigensolver
from hydrodisc.fd_eigensolver import oracle_energy
from hydrodisc.free_atom import StateLabel, free_energy
from hydrodisc.specfun import ConvergenceError
from hydrodisc.sweep import SweepConfig, radii


def _radial(m, r, energy):
    """r^-m R(r; E) from the closed form, in mpmath (k imaginary above E = 0)."""
    kappa = mpmath.sqrt(-2 * mpmath.mpf(energy) + 0j)
    a = m + mpmath.mpf(1) / 2 - 1 / kappa
    return mpmath.re(mpmath.exp(-kappa * r) * mpmath.hyp1f1(a, 2 * m + 1, 2 * kappa * r))


def _mpmath_level(m, r0, guess):
    """Bisect the sign of R(r0; E) from a bracket of +-1e-9 around guess."""
    with mpmath.workdps(30):
        lo, hi = mpmath.mpf(guess) - 1e-9, mpmath.mpf(guess) + 1e-9
        sign_lo = mpmath.sign(_radial(m, r0, lo))
        assert sign_lo * mpmath.sign(_radial(m, r0, hi)) < 0, "no level within the bracket"
        while hi - lo > 1e-14:
            mid = (lo + hi) / 2
            if mpmath.sign(_radial(m, r0, mid)) == sign_lo:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def test_matches_mpmath_on_the_default_grid():
    cfg = SweepConfig()
    for n, m in cfg.states:
        state = StateLabel(n, m)
        for r0 in radii(cfg):
            level = oracle_energy(state, float(r0))
            assert level == pytest.approx(_mpmath_level(m, float(r0), level), abs=1e-12)


def test_free_limit_ground_state():
    """Far wall: the 1s level recovers -2 hartree."""
    assert abs(oracle_energy(StateLabel(1, 0), 60.0) + 2.0) < 1e-12


def test_free_limit_excited_states():
    assert abs(oracle_energy(StateLabel(2, 1), 70.0) + 2.0 / 9.0) < 1e-12
    assert abs(oracle_energy(StateLabel(3, 2), 80.0) + 2.0 / 25.0) < 1e-12


def test_level_is_picked_by_its_node_count():
    """At r0 = 0.5 the 1s level lies above the free 2s level, yet the 2s
    level returned is the one whose R changes sign once inside the wall."""
    r0 = 0.5
    assert oracle_energy(StateLabel(1, 0), r0) > free_energy(StateLabel(2, 0))
    level = oracle_energy(StateLabel(2, 0), r0)
    with mpmath.workdps(30):
        values = [_radial(0, r, level) for r in np.linspace(0.0, r0, 202)[1:-1]]
    assert sum(a * b < 0 for a, b in zip(values, values[1:])) == 1


def test_energy_decreases_with_wall_radius():
    st = StateLabel(2, 0)
    energies = [oracle_energy(st, r0) for r0 in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_higher_angular_momentum_lies_higher():
    """At fixed r0 the centrifugal term pushes the nodeless level up with |m|."""
    e = [oracle_energy(StateLabel(m + 1, m), 3.0) for m in (0, 1, 2)]
    assert e[0] < e[1] < e[2]


def test_tight_wall_approaches_bessel_zero():
    """Kinetic energy dominates: E ~ j_{0,1}^2 / (2 r0^2) for tiny walls."""
    j01 = 2.404825557695773
    shifts = []
    for r0 in (0.02, 0.005):
        box = j01**2 / (2.0 * r0 * r0)
        level = oracle_energy(StateLabel(1, 0), r0)
        shifts.append((box - level) * r0)
    assert abs(level / box - 1.0) < 0.01
    # the Coulomb well shifts the level by c/r0, a lower order than the box term
    assert abs(shifts[0] / shifts[1] - 1.0) < 0.01


@pytest.mark.parametrize(
    "n, m, r0",
    [(2, 0, 0.75), (3, 0, 0.75), (4, 0, 0.75), (3, 1, 3.75), (4, 1, 3.75), (4, 2, 8.75)],
)
def test_exact_degeneracies(n, m, r0):
    """(n, m) and (n+1, m+2) share one level at r0 = (m + 1/2)(m + 3/2)."""
    assert r0 == (m + 0.5) * (m + 1.5)
    level = oracle_energy(StateLabel(n, m), r0)
    partner = oracle_energy(StateLabel(n + 1, m + 2), r0)
    assert abs(partner / level - 1.0) < 1e-12


def test_validation_errors():
    for r0 in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            oracle_energy(StateLabel(1, 0), r0)


def test_node_count_that_never_isolates_a_level_raises(monkeypatch):
    """A node count that never settles ends the bisection instead of looping."""
    monkeypatch.setattr(fd_eigensolver, "_nodes", lambda m, r0, energy: 5)
    with pytest.raises(ConvergenceError, match="isolated"):
        oracle_energy(StateLabel(1, 0), 2.0)
