"""Variational solver for the atom inside an impenetrable wall."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hydrodisc.confined import (
    MIN_WALL_RADIUS,
    ConvergenceError,
    RadialGrid,
    energy_functional,
    solve,
    trial_radial_wf,
)
from hydrodisc.fd_eigensolver import oracle_energy
from hydrodisc.free_atom import StateLabel, free_energy, table1_states

STATES = tuple(table1_states())


@pytest.fixture(scope="module")
def solved_r2():
    """All four tabulated states at a moderately tight wall."""
    return {st.label: solve(st, 2.0) for st in STATES}


def test_wavefunction_vanishes_at_wall(solved_r2):
    for cs in solved_r2.values():
        v, _ = cs.radial(np.array([cs.r0]))
        assert abs(v[0]) < 1e-12


def test_wavefunction_is_normalized(solved_r2):
    for cs in solved_r2.values():
        grid = cs.grid()
        v, _ = cs.radial(grid.nodes)
        assert abs(np.sum(grid.weights * v * v * grid.nodes) - 1.0) < 1e-12


def test_radial_derivative_matches_fd(solved_r2):
    h = 1e-6
    for cs in solved_r2.values():
        r = np.array([0.3 * cs.r0, 0.5 * cs.r0, 0.8 * cs.r0])
        _, deriv = cs.radial(r)
        vp, _ = cs.radial(r + h)
        vm, _ = cs.radial(r - h)
        assert_allclose(deriv, (vp - vm) / (2 * h), rtol=1e-6, atol=1e-9)


def test_confinement_raises_energy(solved_r2):
    for st in STATES:
        assert solved_r2[st.label].energy > free_energy(st)


def test_energy_monotone_in_wall_radius():
    for st in STATES:
        e_tight = solve(st, 1.5).energy
        e_loose = solve(st, 2.5).energy
        assert e_tight > e_loose


def test_variational_bound_against_grid_oracle(solved_r2):
    """E_var >= E_exact, with 1e-9 slack for rounding in the energy quadrature."""
    for st in STATES:
        margin = solved_r2[st.label].energy - oracle_energy(st, 2.0)
        assert margin > -1e-9
        assert margin < 0.05  # and the trial family is not wildly off


def test_excited_state_bound_across_radii():
    """The 2s energy never dips below the exact second level.

    The noded trial rides the matching eigenvalue of its small basis, so the
    upper-bound property holds at every wall radius, not only the ones where
    the basis happens to be kind.
    """
    st = StateLabel(2, 0)
    for r0 in (1.0, 2.5, 4.2, 6.0, 9.0):
        margin = solve(st, r0).energy - oracle_energy(st, r0)
        assert margin > -1e-9


def test_node_overlap_with_ground_state_is_small():
    """The 2s trial is nearly, though not exactly, orthogonal to the 1s."""
    cs1 = solve(StateLabel(1, 0), 3.0)
    cs2 = solve(StateLabel(2, 0), 3.0)
    grid = cs1.grid()
    v1, _ = cs1.radial(grid.nodes)
    v2, _ = cs2.radial(grid.nodes)
    assert abs(np.sum(grid.weights * v1 * v2 * grid.nodes)) < 0.05


def test_node_count_of_2s():
    """One interior sign change for the first excited s state."""
    cs = solve(StateLabel(2, 0), 4.0)
    r = np.linspace(0.01, 3.99, 400)
    v, _ = cs.radial(r)
    signs = np.sign(v)
    changes = int(np.sum(signs[:-1] != signs[1:]))
    assert changes == 1


def test_curvature_term_never_raises_energy():
    """The augmented nodeless trial is at least as good as the bare one."""
    for st, r0 in ((StateLabel(1, 0), 5.0), (StateLabel(3, 2), 8.0)):
        cs = solve(st, r0)
        grid = RadialGrid.for_wall(r0)
        e_bare = energy_functional(st, r0, cs.alpha, grid, ())
        assert cs.energy <= e_bare + 1e-12


def test_alpha_tracks_first_order_wall_tilt():
    """alpha* eta = 1 - eta/r0 + O((eta/r0)^2) for a distant wall."""
    for st in STATES:
        cs = solve(st, 40.0)
        predicted = 1.0 - st.eta / 40.0
        assert abs(cs.alpha * st.eta - predicted) < 0.02


def test_energy_minimum_is_locally_flat(solved_r2):
    for cs in solved_r2.values():
        grid = cs.grid()
        e0 = energy_functional(cs.state, cs.r0, cs.alpha, grid, cs.node_coeffs)
        for delta in (-0.02, 0.02):
            e1 = energy_functional(
                cs.state, cs.r0, cs.alpha * (1 + delta), grid, cs.node_coeffs
            )
            assert e1 >= e0 - 1e-10


def test_quadrature_order_is_converged():
    e200 = solve(StateLabel(2, 0), 2.0, order=200).energy
    e400 = solve(StateLabel(2, 0), 2.0, order=400).energy
    assert abs(e200 - e400) < 1e-9


def test_free_limit_energy():
    """A distant wall reproduces the Rydberg energies to 1e-3."""
    for st in (StateLabel(1, 0), StateLabel(2, 1)):
        cs = solve(st, 40.0)
        assert abs(cs.energy - free_energy(st)) < 1e-3


def test_wall_slope_matches_fd():
    cs = solve(StateLabel(2, 1), 2.0)
    h = 1e-7
    v, _ = cs.radial(np.array([cs.r0 - h]))
    assert abs(cs.wall_slope() - (0.0 - v[0]) / h) < 1e-5 * abs(cs.wall_slope())


def test_validation_errors():
    with pytest.raises(ValueError):
        solve(StateLabel(1, 0), 0.5 * MIN_WALL_RADIUS)
    with pytest.raises(ValueError):
        trial_radial_wf(StateLabel(2, 0), 2.0, 1.0, np.array([1.0]))  # needs a node
    with pytest.raises(ValueError):
        energy_functional(StateLabel(1, 0), 2.0, -0.5)
    assert issubclass(ConvergenceError, RuntimeError)
