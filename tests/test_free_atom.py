"""Closed-form measures of the free two-dimensional hydrogen atom."""

import math

import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hydrodisc.free_atom import (
    StateLabel,
    free_energy,
    free_measures,
    free_radial_momentum_wf,
    free_radial_position_wf,
    momentum_mean,
    table1_states,
)
from hydrodisc.specfun import composite_gauss, semi_axis_rule

# exact fractions behind the tabulated values, worked out by hand from the
# Laguerre moments (position) and Gegenbauer moments (momentum)
EXACT = {
    "1s": dict(
        v_pos=1.0 / 8.0,
        f_pos=16.0,
        v_mom=4.0 - math.pi**2 / 4.0,
        f_mom=1.5,
        mean_p=math.pi / 2.0,
    ),
    "2s": dict(
        v_pos=19.0 / 8.0,
        f_pos=16.0 / 9.0,
        v_mom=4.0 / 9.0 - math.pi**2 / 64.0,
        f_mom=58.5,
        mean_p=math.pi / 8.0,
    ),
    "2p": dict(
        v_pos=9.0 / 4.0,
        f_pos=16.0 / 27.0,
        v_mom=4.0 / 9.0 - 9.0 * math.pi**2 / 256.0,
        f_mom=18.0,
        mean_p=3.0 * math.pi / 16.0,
    ),
    "3d": dict(
        v_pos=75.0 / 8.0,
        f_pos=16.0 / 125.0,
        v_mom=4.0 / 25.0 - (15.0 * math.pi / 128.0) ** 2,
        f_mom=62.5,
        mean_p=15.0 * math.pi / 128.0,
    ),
}


def test_state_label_properties():
    st = StateLabel(3, 2)
    assert st.eta == 2.5
    assert st.l == 2
    assert st.n_r == 0
    assert st.label == "3d"
    assert StateLabel(4, 3).label == "4f"
    assert StateLabel(2, -1).l == 1


def test_state_label_validation():
    with pytest.raises(ValueError):
        StateLabel(0, 0)
    with pytest.raises(ValueError):
        StateLabel(2, 2)
    with pytest.raises(ValueError):
        StateLabel(1, -1)


def test_free_energy_rydberg_series():
    """E_n = -1/(2 (n - 1/2)^2) in hartree."""
    assert free_energy(StateLabel(1, 0)) == -2.0
    assert abs(free_energy(StateLabel(2, 1)) + 2.0 / 9.0) < 1e-15
    assert abs(free_energy(StateLabel(3, 2)) + 2.0 / 25.0) < 1e-15


def test_measures_match_exact_fractions():
    for st in table1_states():
        fm = free_measures(st)
        exact = EXACT[st.label]
        assert abs(fm.v_pos - exact["v_pos"]) < 1e-13 * (1 + exact["v_pos"])
        assert abs(fm.f_pos - exact["f_pos"]) < 1e-13 * (1 + exact["f_pos"])
        assert abs(fm.v_mom - exact["v_mom"]) < 1e-13
        assert abs(fm.f_mom - exact["f_mom"]) < 1e-12 * (1 + exact["f_mom"])


def test_momentum_means_are_pi_multiples():
    for st in table1_states():
        assert abs(momentum_mean(st) - EXACT[st.label]["mean_p"]) < 1e-14


def test_ns_momentum_means_against_mpmath():
    """The ns <p> sum cancels as n grows; summed exactly it holds 1e-14 up to 20s.

    The reference is the same sum of Gamma ratios in 40-digit mpmath.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        for n in range(1, 21):
            exact = mpmath.fsum(
                (-1) ** j * mpmath.mpf(2 * j + 1) / (2 * j + 2)
                * mpmath.gamma(j + half) ** 2 / mpmath.gamma(j + 1) ** 4
                * mpmath.gamma(n + j) / mpmath.gamma(n - j)
                for j in range(n)
            )
            assert abs(momentum_mean(StateLabel(n, 0)) / exact - 1) < 1e-14, n


def test_cramer_rao_is_product():
    for st in table1_states():
        fm = free_measures(st)
        assert fm.cr_pos == fm.f_pos * fm.v_pos
        assert fm.cr_mom == fm.f_mom * fm.v_mom


def _closed_form_states(n_max):
    # <p> has closed forms for the ns and circular families only
    out = []
    for n in range(1, n_max + 1):
        out.append(StateLabel(n, 0))
        if n > 1:
            out.append(StateLabel(n, n - 1))
    return out


def test_cramer_rao_lower_bound_many_states():
    """C = F V >= 1 for the 2D bound states, both spaces."""
    for st in _closed_form_states(6):
        fm = free_measures(st)
        assert fm.cr_pos >= 1.0 - 1e-12
        assert fm.cr_mom >= 1.0 - 1e-12


def test_moment_fisher_bounds_many_states():
    """<x^2> F >= 4 holds in each space (d = 2)."""
    for st in _closed_form_states(5):
        fm = free_measures(st)
        x, w = semi_axis_rule(st.eta**2 * 1.5)
        v, _ = free_radial_position_wf(st, x)
        r2 = float(np.sum(w * v * v * x**3))
        assert r2 * fm.f_pos >= 4.0 - 1e-10
        p2 = fm.v_mom + momentum_mean(st) ** 2
        assert p2 * fm.f_mom >= 4.0 - 1e-10


def test_momentum_mean_unsupported_state():
    with pytest.raises(ValueError):
        momentum_mean(StateLabel(3, 1))


def test_circular_rydberg_momentum_scale():
    """<p> eta -> 1 as the circular states become classical orbits."""
    devs = []
    for n in (10, 20, 40):
        st = StateLabel(n, n - 1)
        devs.append(abs(momentum_mean(st) * st.eta - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] < 0.01


def _states_with_m(m, n_max=5):
    return [StateLabel(n, m) for n in range(m + 1, n_max + 1)]


# radial node count n_r = 0 (1s, 2p, 3d) and n_r >= 1 (2s, 3s, 4p); the n_r = 0
# derivatives rest on scipy evaluating the degree -1 polynomial as 0
FD_STATES = [StateLabel(1, 0), StateLabel(2, 1), StateLabel(3, 2),
             StateLabel(2, 0), StateLabel(3, 0), StateLabel(4, 1)]


def test_position_wavefunctions_are_normalized():
    for st in table1_states():
        x, w = semi_axis_rule(st.eta**2 * 1.5)
        v, _ = free_radial_position_wf(st, x)
        assert abs(np.sum(w * v * v * x) - 1.0) < 1e-12


@pytest.mark.parametrize("m", range(5))
def test_position_wavefunctions_are_orthonormal(m):
    """Int R_n R_n' r dr = delta_nn' for equal m across n <= 5, on one semi-axis rule."""
    x, w = semi_axis_rule(2.0)
    radial = np.array([free_radial_position_wf(st, x)[0] for st in _states_with_m(m)])
    gram = (radial * w * x) @ radial.T
    assert_allclose(gram, np.eye(len(radial)), rtol=0, atol=1e-13)


def tangent_axis_rule(scale, order=16, panels=64):
    """Quadrature for integrals over [0, inf) of algebraically decaying integrands.

    Uses x = tan(u) / scale on u in [0, pi/2); the sec^2 Jacobian makes
    integrands falling off like x^-4 or faster smooth at the far endpoint.
    """
    if scale <= 0:
        raise ValueError("scale must be positive")
    u, wu = composite_gauss(np.linspace(0.0, 0.5 * np.pi, panels + 1), order)
    return np.tan(u) / scale, wu / (np.cos(u) ** 2 * scale)


def test_tangent_axis_rule_algebraic_decay():
    """Int_0^inf dx / (1+x^2)^2 = pi/4."""
    x, w = tangent_axis_rule(1.0)
    assert abs(np.sum(w / (1.0 + x * x) ** 2) - math.pi / 4.0) < 1e-12
    with pytest.raises(ValueError):
        tangent_axis_rule(-1.0)


def test_momentum_wavefunctions_are_normalized():
    for st in table1_states():
        p, w = tangent_axis_rule(st.eta, 16, 128)
        v, _ = free_radial_momentum_wf(st, p)
        assert abs(np.sum(w * v * v * p) - 1.0) < 1e-10


@pytest.mark.parametrize("m", range(5))
def test_momentum_wavefunctions_are_orthonormal(m):
    """Int M_n M_n' p dp = delta_nn' for equal m across n <= 5, on one tangent-axis rule."""
    p, w = tangent_axis_rule(2.5, 16, 128)
    radial = np.array([free_radial_momentum_wf(st, p)[0] for st in _states_with_m(m)])
    gram = (radial * w * p) @ radial.T
    assert_allclose(gram, np.eye(len(radial)), rtol=0, atol=1e-13)


def test_position_wavefunction_derivative_fd():
    r = np.linspace(0.3, 9.0, 11)
    h = 1e-6
    for st in FD_STATES:
        _, deriv = free_radial_position_wf(st, r)
        vp, _ = free_radial_position_wf(st, r + h)
        vm, _ = free_radial_position_wf(st, r - h)
        assert_allclose(deriv, (vp - vm) / (2 * h), rtol=1e-6, atol=1e-9, err_msg=st.label)


def test_momentum_wavefunction_origin_limits():
    """phi(0) vanishes for m >= 1 and stays finite for s states."""
    v, d = free_radial_momentum_wf(StateLabel(1, 0), np.array([0.0]))
    assert np.isfinite(v[0]) and v[0] != 0.0
    for n, m in ((2, 1), (3, 2)):
        v, d = free_radial_momentum_wf(StateLabel(n, m), np.array([0.0]))
        assert v[0] == 0.0
        assert np.isfinite(d[0])


def _mp_momentum_wf(st):
    """M(p) at the working precision, in the textbook (1 + y), (1 - y) form.

    The Gegenbauer polynomial comes from its three-term recurrence and the
    norm from quadrature, so no closed form of free_atom enters.
    """
    eta = st.n - mpmath.mpf(1) / 2
    l, k = st.l, st.n_r
    alpha = l + mpmath.mpf(1) / 2

    def gegenbauer(y):
        prev, cur = 0, mpmath.mpf(1)
        for j in range(1, k + 1):
            prev, cur = cur, (2 * y * (j + alpha - 1) * cur - (j + 2 * alpha - 2) * prev) / j
        return cur

    norm_sq = mpmath.quad(lambda y: (1 - y * y) ** l * gegenbauer(y) ** 2, [-1, 1])

    def wf(p):
        y = (1 - (eta * p) ** 2) / (1 + (eta * p) ** 2)
        weight = (1 + y) ** ((l + 3) / mpmath.mpf(2)) * (1 - y) ** (l / mpmath.mpf(2))
        return eta * weight * gegenbauer(y) / mpmath.sqrt(norm_sq)

    return wf


def test_momentum_wavefunction_against_mpmath():
    """M and dM/dp to 1e-13 relative against 40-digit mpmath, down to p = 1e-6."""
    with mpmath.workdps(40):
        for n, m in ((1, 0), (2, 1), (3, 1), (3, 2), (4, 0)):
            st = StateLabel(n, m)
            wf = _mp_momentum_wf(st)
            for p in (1e-6, 1e-3, 0.7, 30.0):
                value, deriv = free_radial_momentum_wf(st, np.array([p]))
                p_mp = mpmath.mpf(p)
                assert abs(value[0] / float(wf(p_mp)) - 1.0) < 1e-13, (st.label, p)
                assert abs(deriv[0] / float(mpmath.diff(wf, p_mp)) - 1.0) < 1e-13, (st.label, p)


def test_momentum_wavefunction_derivative_fd():
    p = np.linspace(0.05, 1.5, 9)
    h = 1e-7
    for st in FD_STATES:
        _, deriv = free_radial_momentum_wf(st, p)
        vp, _ = free_radial_momentum_wf(st, p + h)
        vm, _ = free_radial_momentum_wf(st, p - h)
        assert_allclose(deriv, (vp - vm) / (2 * h), rtol=1e-5, atol=1e-8, err_msg=st.label)


def test_table1_states_order():
    labels = [st.label for st in table1_states()]
    assert labels == ["1s", "2s", "2p", "3d"]
