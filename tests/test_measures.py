"""Spread, Fisher information, and Cramer-Rao products in both spaces."""

import dataclasses
import math

import numpy as np
import pytest

from hydrodisc.confined import coulomb_expectation, solve
from hydrodisc.free_atom import StateLabel, free_measures, momentum_mean, table1_states
from hydrodisc.measures import (
    NORM_TOLERANCE,
    MeasureReport,
    free_momentum_report,
    free_position_report,
    momentum_measures,
    position_measures,
)
from hydrodisc.momentum import build_table
from hydrodisc.specfun import AccuracyError

# <p> has closed forms for the ns and circular families only
CLOSED_FORM_STATES = [StateLabel(n, 0) for n in range(1, 9)] + [
    StateLabel(n, n - 1) for n in range(2, 9)
]


def test_free_position_reports_match_closed_forms():
    for st in CLOSED_FORM_STATES:
        fm = free_measures(st)
        rep = free_position_report(st)
        assert rep.space == "position"
        assert abs(rep.variance / fm.v_pos - 1.0) < 1e-11, st.label
        assert abs(rep.fisher / fm.f_pos - 1.0) < 1e-11, st.label
        assert abs(rep.cramer_rao / fm.cr_pos - 1.0) < 1e-11, st.label
        assert rep.norm_residual < 1e-11, st.label


def test_free_momentum_reports_match_closed_forms():
    for st in CLOSED_FORM_STATES:
        fm = free_measures(st)
        rep = free_momentum_report(st)
        assert rep.space == "momentum"
        assert abs(rep.mean / momentum_mean(st) - 1.0) < 1e-11, st.label
        assert abs(rep.variance / fm.v_mom - 1.0) < 1e-11, st.label
        assert abs(rep.fisher / fm.f_mom - 1.0) < 1e-11, st.label
        assert abs(rep.cramer_rao / fm.cr_mom - 1.0) < 1e-11, st.label
        assert rep.norm_residual < 1e-11, st.label


def test_report_identities_are_exact():
    """variance and cramer_rao are defined, not independently integrated."""
    rep = free_position_report(StateLabel(2, 0))
    assert rep.variance == rep.second_moment - rep.mean * rep.mean
    assert rep.cramer_rao == rep.fisher * rep.variance


def test_confined_reports_are_consistent():
    cs = solve(StateLabel(2, 1), 2.0)
    pos = position_measures(cs)
    mom = momentum_measures(cs, build_table(cs))
    assert pos.norm_residual < 1e-10
    assert mom.norm_residual < 1e-6
    assert pos.variance > 0 and mom.variance > 0
    # tighter wall, broader momentum distribution than the free atom
    assert mom.variance > free_measures(StateLabel(2, 1)).v_mom


def test_norm_tolerance_guards_position():
    cs = solve(StateLabel(1, 0), 2.0)
    bad = dataclasses.replace(cs, weights=tuple(1.01 * u for u in cs.weights))
    with pytest.raises(AccuracyError):
        position_measures(bad)


def test_norm_tolerance_guards_momentum():
    cs = solve(StateLabel(1, 0), 2.0)
    tab = build_table(cs)
    bad = dataclasses.replace(tab, phi=tab.phi * 1.01)
    with pytest.raises(AccuracyError):
        momentum_measures(cs, bad)


def test_momentum_identities_use_the_position_state():
    """<p^2> is 2<T>; F_gamma = 4<r^2> - 4m^2<p^-2> takes <p^-2> from position space.

    F_gamma implies a <p^-2>, checked against the Hankel path: the table's
    in-grid sum Int H^2 p^-1 dp plus the leading wall tail beyond p_max,
    r0 R'(r0)^2/(5 pi p_max^5) from H ~ r0 R'(r0) J_m(p r0)/p^2 (3e-10
    relative at r0 = 2.7, so the in-grid sum alone would not do).
    """
    cases = [(StateLabel(2, 0), 3.0)]
    cases += [(st, r0) for st in (StateLabel(2, 1), StateLabel(3, 2)) for r0 in (0.5, 2.7, 8.0, 40.0)]
    for st, r0 in cases:
        cs = solve(st, r0)
        tab = build_table(cs)
        pos = position_measures(cs)
        mom = momentum_measures(cs, tab)
        kinetic = 2.0 * (cs.energy + coulomb_expectation(cs))
        assert abs(mom.second_moment / kinetic - 1.0) < 1e-12
        assert mom.mean == tab.moment(1)
        if st.l == 0:
            assert mom.fisher == 4.0 * pos.second_moment
            continue
        implied = (4.0 * pos.second_moment - mom.fisher) / (4.0 * st.l**2)
        in_grid = float(np.sum(tab.p_weights * tab.phi**2 / tab.p_grid))
        wall_tail = r0 * tab.wall_slope**2 / (5.0 * math.pi * tab.p_max**5)
        assert abs(implied / (in_grid + wall_tail) - 1.0) < 1e-10, (st.label, r0)


def test_momentum_measures_rejects_a_foreign_table():
    cs = solve(StateLabel(1, 0), 2.0)
    other = solve(StateLabel(1, 0), 3.0)
    with pytest.raises(ValueError):
        momentum_measures(cs, build_table(other))


def test_fisher_uncertainty_check_ground_state():
    """F[rho] F[gamma] >= 16 holds for s states (here: free 1s and 2s)."""
    for n in (1, 2):
        st = StateLabel(n, 0)
        product = free_position_report(st).fisher * free_momentum_report(st).fisher
        assert product >= 16.0, st.label


def test_fisher_uncertainty_check_circular_exception():
    """The 2p product sits near 10.7, below the m=0 bound of 16."""
    st = StateLabel(2, 1)
    product = free_position_report(st).fisher * free_momentum_report(st).fisher
    assert not product >= 16.0
    assert abs(product - 10.67) < 0.01


def test_norm_tolerance_constant():
    assert NORM_TOLERANCE == 1e-4


def test_report_is_frozen():
    rep = free_position_report(StateLabel(1, 0))
    assert isinstance(rep, MeasureReport)
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.mean = 0.0
