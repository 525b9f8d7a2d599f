"""Variational solver for the atom inside an impenetrable wall."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose
from scipy.linalg import eigh
from scipy.optimize import minimize_scalar

from hydrodisc import confined, specfun
from hydrodisc.confined import (
    MAX_WALL_RADIUS,
    MIN_WALL_RADIUS,
    node_coefficients,
    radial_rule,
    ritz_basis,
    solve,
)
from hydrodisc.fd_eigensolver import oracle_energy
from hydrodisc.free_atom import StateLabel, free_energy, table1_states
from hydrodisc.specfun import ConvergenceError, composite_gauss

STATES = tuple(table1_states())


def energy_functional(
    state: StateLabel,
    r0: float,
    alpha: float,
    rule: tuple[np.ndarray, np.ndarray],
    weights: tuple[float, ...] | np.ndarray,
) -> float:
    """Rayleigh quotient E(alpha) of the trial weights @ ritz_basis on the rule (r, w)."""
    r, w = rule
    values, derivs = ritz_basis(state, r0, alpha, r)
    if len(weights) != len(values):
        raise ValueError(f"{state.label} takes {len(values)} Ritz weights, got {len(weights)}")
    f, df = weights @ values, weights @ derivs
    norm = np.sum(w * f * f * r)
    kinetic = 0.5 * np.sum(w * df * df * r)
    if state.l > 0:
        kinetic += 0.5 * state.l**2 * np.sum(w * f * f / r)
    potential = -np.sum(w * f * f)  # -1/r against the r weight
    return float((kinetic + potential) / norm)


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
        r, w = radial_rule(cs.r0)
        v, _ = cs.radial(r)
        assert abs(np.sum(w * v * v * r) - 1.0) < 1e-12


@pytest.mark.parametrize("r0", [0.05, 2.0, 40.0])
def test_weights_give_a_unit_norm_trial_positive_at_the_origin(r0):
    """The stored Ritz weights are normalized on the grid and signed so R > 0 near r = 0."""
    for st in STATES:
        cs = solve(st, r0)
        r, w = radial_rule(cs.r0)
        v, _ = cs.radial(r)
        assert abs(np.sum(w * v * v * r) - 1.0) < 1e-12
        near, _ = cs.radial(np.array([1e-3 * r0]))
        assert near[0] > 0.0


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
    r, w = radial_rule(cs1.r0)
    v1, _ = cs1.radial(r)
    v2, _ = cs2.radial(r)
    assert abs(np.sum(w * v1 * v2 * r)) < 0.05


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
        e_bare = energy_functional(st, r0, cs.alpha, radial_rule(r0), (1.0, 0.0))
        assert cs.energy <= e_bare + 1e-12


def test_alpha_tracks_first_order_wall_tilt():
    """alpha* eta = 1 - eta/r0 + O((eta/r0)^2) for a distant wall."""
    for st in STATES:
        cs = solve(st, 40.0)
        predicted = 1.0 - st.eta / 40.0
        assert abs(cs.alpha * st.eta - predicted) < 0.02


def test_energy_minimum_is_locally_flat(solved_r2):
    for cs in solved_r2.values():
        rule = radial_rule(cs.r0)
        e0 = energy_functional(cs.state, cs.r0, cs.alpha, rule, cs.weights)
        for delta in (-0.02, 0.02):
            e1 = energy_functional(
                cs.state, cs.r0, cs.alpha * (1 + delta), rule, cs.weights
            )
            assert e1 >= e0 - 1e-10


def test_quadrature_order_is_converged():
    """The solved energy holds on a rule of twice the radial order."""
    for r0 in (0.05, 0.5, 2.0, 40.0):
        rule = composite_gauss(np.array([0.0, r0]), 400)
        for st in STATES:
            cs = solve(st, r0)
            e400 = energy_functional(st, r0, cs.alpha, rule, cs.weights)
            assert e400 == pytest.approx(cs.energy, rel=1e-9, abs=0.0)


def test_free_limit_energy():
    """A distant wall reproduces the Rydberg energies to 1e-3."""
    for st in (StateLabel(1, 0), StateLabel(2, 1)):
        cs = solve(st, 40.0)
        assert abs(cs.energy - free_energy(st)) < 1e-3


def test_wall_slope_matches_fd():
    cs = solve(StateLabel(2, 1), 2.0)
    h = 1e-7
    v, _ = cs.radial(np.array([cs.r0 - h]))
    slope = cs.radial([cs.r0])[1][0]
    assert abs(slope - (0.0 - v[0]) / h) < 1e-5 * abs(slope)


def test_validation_errors():
    for r0 in (0.5 * MIN_WALL_RADIUS, 1.5 * MAX_WALL_RADIUS, math.nan):
        with pytest.raises(ValueError, match="supported"):
            solve(StateLabel(1, 0), r0)
    assert issubclass(ConvergenceError, RuntimeError)


def test_singular_overlap_is_a_convergence_error():
    """At r0 = 1e4, beyond the supported walls, the 1s scan overlaps are not positive definite."""
    st = StateLabel(1, 0)
    with pytest.raises(ConvergenceError, match=r"Ritz solve failed for 1s at r0=10000\.0"):
        node_coefficients(st, 1e4, _scan_alphas(st, 1e4), radial_rule(1e4))


def _scan_alphas(st, r0):
    """The alphas solve samples E(alpha) at."""
    return np.linspace(
        -confined._SCAN_REACH / r0, confined._SCAN_REACH / min(r0, st.eta), confined._SCAN_POINTS
    )


@pytest.mark.parametrize("n, m", [(1, 0), (2, 0), (2, 1), (3, 2), (4, 3), (5, 0)])
def test_stacked_scan_energies_are_the_ritz_energies(n, m):
    """node_coefficients over the scan alphas gives the Ritz energies of each alpha.

    The reference is scipy's generalized eigh(H, S) of the same matrices.
    The stacked call agrees with it and with scalar calls to 1e-12
    relative, or to eps * cond(S) where the overlap is worse conditioned
    than that: two backward-stable reductions of one pencil may differ by
    about that much.  Only the six-row 5s basis (cond(S) up to 3e9) needs
    the wider bound.  The stacked basis is the scalar basis, bit for bit.
    """
    st = StateLabel(n, m)
    for r0 in (0.05, 0.5, 5.0, 40.0):
        rule = radial_rule(r0)
        alphas = _scan_alphas(st, r0)
        energies, weights = node_coefficients(st, r0, alphas, rule)
        overlaps, hamiltonians, _ = confined._ritz_matrices(st, r0, alphas, rule)
        reference = [eigh(h, s, eigvals_only=True)[st.n_r] for h, s in zip(hamiltonians, overlaps)]
        bound = np.maximum(1e-12, np.finfo(float).eps * np.linalg.cond(overlaps))
        assert np.all(np.abs(energies - reference) <= bound * np.abs(reference)), (st.label, r0)
        values, derivs = confined.ritz_basis(st, r0, alphas, rule[0])
        for i, alpha in enumerate(alphas):
            energy, weights_i = node_coefficients(st, r0, alpha, rule)
            assert abs(energies[i] - energy) <= bound[i] * abs(energy), (st.label, r0, alpha)
            assert np.abs(weights[i] - weights_i).max() <= bound[i] * np.abs(weights_i).max()
            single_values, single_derivs = confined.ritz_basis(st, r0, alpha, rule[0])
            assert np.array_equal(values[i], single_values), (st.label, r0, alpha)
            assert np.array_equal(derivs[i], single_derivs), (st.label, r0, alpha)


def test_scan_makes_no_single_ritz_solve(monkeypatch):
    """The scan is one stacked node_coefficients call; Brent and the final state call it singly."""
    st, r0 = StateLabel(2, 0), 2.0
    calls = []
    brent_evaluations = []
    original_ritz, original_brent = confined.node_coefficients, confined.brent_minimum

    def recording_ritz(state, r0, alpha, rule):
        calls.append(alpha)
        return original_ritz(state, r0, alpha, rule)

    def recording_brent(f, *args):
        def counted(alpha):
            brent_evaluations.append(alpha)
            return f(alpha)

        return original_brent(counted, *args)

    monkeypatch.setattr(confined, "node_coefficients", recording_ritz)
    monkeypatch.setattr(confined, "brent_minimum", recording_brent)
    cs = solve(st, r0)
    assert np.array_equal(calls[0], _scan_alphas(st, r0))
    assert brent_evaluations
    assert len(calls) == 1 + len(brent_evaluations) + 1
    assert calls[1:-1] == brent_evaluations
    assert all(np.ndim(alpha) == 0 for alpha in calls[1:])
    assert calls[-1] == cs.alpha


def test_unsettled_polish_is_a_convergence_error(monkeypatch):
    """A Brent polish that runs out of evaluations is reported as ConvergenceError."""
    monkeypatch.setattr(specfun, "_MINIMUM_MAXFUN", 3)
    with pytest.raises(ConvergenceError, match="brent_minimum did not converge in 3 evaluations"):
        solve(StateLabel(2, 0), 2.0)


def test_negative_alpha_is_an_upper_bound():
    """An envelope growing toward the wall is still a valid trial."""
    st, r0, alpha = StateLabel(2, 1), 0.5, -0.6
    rule = radial_rule(r0)
    _, weights = node_coefficients(st, r0, alpha, rule)
    energy = energy_functional(st, r0, alpha, rule, weights)
    assert math.isfinite(energy)
    assert energy >= oracle_energy(st, r0) - 1e-9


def _dense_scan_minimum(st, r0):
    """Lowest E(alpha) of the trial family, found independently of solve.

    A 161-sample signed scan over a wider range than solve's, with the
    energy from energy_functional, and every local minimum polished.
    """
    rule = radial_rule(r0)

    def energy_at(alpha):
        _, weights = node_coefficients(st, r0, alpha, rule)
        return energy_functional(st, r0, alpha, rule, weights)

    alphas = np.linspace(-12.0 / r0, 24.0 / min(r0, st.eta), 161)
    energies = [energy_at(a) for a in alphas]
    best = min(energies)
    for i in range(1, len(alphas) - 1):
        if energies[i] <= min(energies[i - 1], energies[i + 1]):
            res = minimize_scalar(
                energy_at, bounds=(alphas[i - 1], alphas[i + 1]), method="bounded",
                options={"xatol": 1e-10},
            )
            best = min(best, res.fun)
    return best


@pytest.mark.parametrize(
    "n, m, r0",
    [
        (2, 1, 0.5),
        (2, 1, 0.98),
        (2, 0, 2.15),
        (2, 0, 2.41),
        (3, 2, 0.5),
        (3, 2, 5.29),
        # the 25-sample scan puts no local minimum in the narrow lower basin
        # near alpha ~ 0.16-0.26, so the polish settles in the upper one
        pytest.param(
            2, 0, 3.475, marks=pytest.mark.xfail(strict=True, reason="misses by 5.2e-5 Ha")
        ),
        pytest.param(3, 2, 7.5, marks=pytest.mark.xfail(strict=True, reason="misses by 1.3e-4 Ha")),
    ],
)
def test_solve_finds_the_family_optimum(n, m, r0):
    """solve reaches the lowest energy of its trial family, alpha < 0 included."""
    st = StateLabel(n, m)
    assert solve(st, r0).energy <= _dense_scan_minimum(st, r0) + 1e-10


def test_energy_is_the_rayleigh_quotient_of_the_state(solved_r2):
    """The Ritz eigenvalue solve reports equals the independent functional."""
    for cs in solved_r2.values():
        e = energy_functional(cs.state, cs.r0, cs.alpha, radial_rule(cs.r0), cs.weights)
        assert cs.energy == pytest.approx(e, rel=1e-12, abs=0.0)


def test_optimum_outside_the_scan_is_an_error(monkeypatch):
    """1s at r0 = 2 has alpha* = 1.56, beyond a scan reaching alpha = 1."""
    monkeypatch.setattr(confined, "_SCAN_REACH", 0.5)
    with pytest.raises(ConvergenceError, match="scan edge"):
        solve(StateLabel(1, 0), 2.0)


@settings(max_examples=40, deadline=None)
@given(
    nm=hst.integers(1, 3).flatmap(lambda n: hst.tuples(hst.just(n), hst.integers(0, n - 1))),
    r0=hst.floats(MIN_WALL_RADIUS, MAX_WALL_RADIUS),
)
def test_supported_domain_solves_above_the_exact_level(nm, r0):
    """Every state with n <= 3 solves at every supported wall radius."""
    st = StateLabel(*nm)
    assert solve(st, r0).energy >= oracle_energy(st, r0) - 1e-9
