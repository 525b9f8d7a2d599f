"""Spread, Fisher information, and Cramer-Rao products in both spaces."""

import dataclasses
import math
from collections.abc import Callable

import numpy as np
import pytest

from hydrodisc import measures
from hydrodisc.confined import coulomb_expectation, solve
from hydrodisc.free_atom import (
    StateLabel,
    free_measures,
    free_radial_position_wf,
    momentum_mean,
    table1_states,
)
from hydrodisc.measures import (
    NORM_TOLERANCE,
    MeasureReport,
    free_momentum_report,
    free_position_report,
    momentum_measures,
    position_measures,
)
from hydrodisc.momentum import build_table
from hydrodisc.specfun import AccuracyError, composite_gauss
from hydrodisc.sweep import SweepConfig, radii

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
    mom = momentum_measures(cs)
    assert pos.norm_residual < 1e-10
    assert mom.norm_residual < 1e-10
    assert pos.variance > 0 and mom.variance > 0
    # tighter wall, broader momentum distribution than the free atom
    assert mom.variance > free_measures(StateLabel(2, 1)).v_mom


def test_norm_tolerance_guards_position():
    cs = solve(StateLabel(1, 0), 2.0)
    bad = dataclasses.replace(cs, weights=tuple(1.01 * u for u in cs.weights))
    with pytest.raises(AccuracyError):
        position_measures(bad)


@dataclasses.dataclass(frozen=True)
class _RadialOnly:
    """The whole surface momentum_measures reads: state, r0 and radial."""

    state: StateLabel
    r0: float
    radial: Callable


def test_norm_tolerance_guards_momentum():
    """An R' scaled by 1.001 moves both product-rule norms by 2e-3: AccuracyError."""
    cs = solve(StateLabel(1, 0), 2.0)

    def radial(r):
        value, deriv = cs.radial(r)
        return value, 1.001 * deriv

    with pytest.raises(AccuracyError, match="norm residual"):
        momentum_measures(_RadialOnly(cs.state, cs.r0, radial))


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
        mom = momentum_measures(cs)
        kinetic = 2.0 * (cs.energy + coulomb_expectation(cs))
        assert abs(mom.second_moment / kinetic - 1.0) < 1e-12
        if st.l == 0:
            assert mom.fisher == 4.0 * pos.second_moment
            continue
        implied = (4.0 * pos.second_moment - mom.fisher) / (4.0 * st.l**2)
        in_grid = float(np.sum(tab.p_weights * tab.phi**2 / tab.p_grid))
        wall_tail = r0 * tab.wall_slope**2 / (5.0 * math.pi * tab.p_max**5)
        assert abs(implied / (in_grid + wall_tail) - 1.0) < 1e-10, (st.label, r0)


PROBE_STATES = [StateLabel(n, m) for n in range(1, 6) for m in range(n)]
PROBE_RADII = (0.05, 0.2, 1.0, 10.0, 100.0)


@pytest.fixture(scope="module")
def probes():
    """Every n <= 5 state solved at each probe radius, with its momentum report."""
    out = []
    for st in PROBE_STATES:
        for r0 in PROBE_RADII:
            cs = solve(st, r0)
            out.append((cs, momentum_measures(cs)))
    return out


def test_momentum_mean_matches_the_table(probes):
    """The product-rule <p> within 5e-7 of the Hankel table's, whose own error it is.

    Measured: 3.1e-7 at most.  The product-rule norm residual stays within
    1e-6 on the same probes (measured: 1.5e-10, at r0 = 100).
    """
    for cs, mom in probes:
        where = (cs.state.label, cs.r0)
        assert abs(mom.mean / build_table(cs).moment(1) - 1.0) < 5e-7, where
        assert mom.norm_residual <= 1e-6, where


def test_momentum_mean_against_a_refined_rule(probes, monkeypatch):
    """The default rule holds <p> within 1e-9 of a refined copy of itself.

    The copy has a 400-node outer rule and 24-point inner panels graded
    over 20 levels (measured gap: 4.4e-10 at most).
    """
    monkeypatch.setattr(measures, "radial_rule", lambda r0: composite_gauss(np.array([0.0, r0]), 400))
    monkeypatch.setattr(measures, "_COUPLING_ORDER", 24)
    edges = np.concatenate(([0.0], 0.2 ** np.arange(19, 0, -1), [0.5, 1.0]))
    monkeypatch.setattr(measures, "_COUPLING_EDGES", edges)
    for cs, mom in probes:
        refined = momentum_measures(cs)
        assert abs(mom.mean / refined.mean - 1.0) < 1e-9, (cs.state.label, cs.r0)


@pytest.mark.parametrize("label, r0", [("1s", 20.0), ("2s", 60.0), ("2p", 60.0), ("3d", 120.0)])
def test_momentum_mean_of_free_states(label, r0):
    """Free radial functions, cut where R(r0) < 1e-15, give free_atom's closed-form <p>.

    The closed form shares no code with the product rule or the table
    (measured: 1.3e-10 at most).
    """
    st = next(s for s in CLOSED_FORM_STATES if s.label == label)
    assert abs(free_radial_position_wf(st, np.array([r0]))[0][0]) < 1e-15
    mom = momentum_measures(_RadialOnly(st, r0, lambda r: free_radial_position_wf(st, r)))
    assert abs(mom.mean / momentum_mean(st) - 1.0) < 1e-9
    assert mom.norm_residual < 1e-10


def test_momentum_norm_residual_on_the_default_grid():
    """Every default sweep point's product-rule norm residual is within 1e-10."""
    cfg = SweepConfig()
    worst = max(
        momentum_measures(solve(StateLabel(n, m), float(r0))).norm_residual
        for n, m in cfg.states
        for r0 in radii(cfg)
    )
    assert worst <= 1e-10


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
