"""Finite-difference eigenvalue oracle for the walled atom."""

import numpy as np
import pytest

from hydrodisc.fd_eigensolver import oracle_energy, wall_levels
from hydrodisc.free_atom import StateLabel


def test_free_limit_ground_state():
    """Far wall: the 1s level recovers -2 hartree to the Richardson floor."""
    assert abs(oracle_energy(StateLabel(1, 0), 60.0) + 2.0) < 1e-8


def test_free_limit_excited_states():
    assert abs(oracle_energy(StateLabel(2, 1), 70.0) + 2.0 / 9.0) < 1e-8
    assert abs(oracle_energy(StateLabel(3, 2), 80.0) + 2.0 / 25.0) < 1e-9


def test_richardson_beats_plain_grid():
    ref = oracle_energy(StateLabel(1, 0), 8.0)
    plain = wall_levels(0, 8.0, n_cells=1024, richardson=False)[0]
    extrap = wall_levels(0, 8.0, n_cells=1024, richardson=True)[0]
    assert abs(extrap - ref) < abs(plain - ref) / 100.0


def test_levels_sorted_and_counted():
    levels = wall_levels(0, 5.0, k=4)
    assert levels.shape == (4,)
    assert np.all(np.diff(levels) > 0)


def test_energy_decreases_with_wall_radius():
    st = StateLabel(2, 0)
    energies = [oracle_energy(st, r0) for r0 in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(energies, energies[1:]))


def test_higher_angular_momentum_lies_higher():
    """At fixed r0 the centrifugal term pushes levels up with |m|."""
    e = [wall_levels(m, 3.0)[0] for m in (0, 1, 2)]
    assert e[0] < e[1] < e[2]


def test_tight_wall_approaches_bessel_zero():
    """Kinetic energy dominates: E ~ j_{0,1}^2 / (2 r0^2) for tiny walls."""
    j01 = 2.404825557695773
    shifts = []
    for r0 in (0.02, 0.005):
        box = j01**2 / (2.0 * r0 * r0)
        level = wall_levels(0, r0)[0]
        shifts.append((box - level) * r0)
    assert abs(level / box - 1.0) < 0.01
    # the Coulomb well shifts the level by c/r0, a lower order than the box term
    assert abs(shifts[0] / shifts[1] - 1.0) < 0.01


def test_oracle_level_selection():
    """The 2s oracle is the second level of the m=0 block."""
    levels = wall_levels(0, 4.0, k=2)
    assert abs(oracle_energy(StateLabel(2, 0), 4.0) - levels[1]) < 1e-12


def test_validation_errors():
    with pytest.raises(ValueError):
        wall_levels(0, -1.0)
    with pytest.raises(ValueError):
        wall_levels(0, 2.0, k=0)
    with pytest.raises(ValueError):
        wall_levels(0, 2.0, k=4, n_cells=32)
