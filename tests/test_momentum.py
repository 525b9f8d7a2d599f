"""Hankel transform to momentum space and the tabulated amplitude."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from numpy.testing import assert_allclose

from hydrodisc import momentum
from hydrodisc.confined import _ritz_powers, coulomb_expectation, solve
from hydrodisc.free_atom import StateLabel, table1_states
from hydrodisc.momentum import P_MIN, build_table, hankel_transform
from hydrodisc.specfun import AccuracyError, bessel_j, composite_gauss

STATES = tuple(table1_states())


@pytest.fixture(scope="module")
def tables_r2():
    out = {}
    for st in STATES:
        cs = solve(st, 2.0)
        out[st.label] = (cs, build_table(cs))
    return out


def test_parseval_norm(tables_r2):
    """Position norm carries over to momentum space."""
    for cs, tab in tables_r2.values():
        assert abs(tab.moment(0) - 1.0) < 1e-6


def test_grid_structure(tables_r2):
    tables = [tab for _, tab in tables_r2.values()]
    # at r0 = 0.7 the arithmetic steps 8/r0 fill the octave [80, 160] up to a
    # rounding sliver, which must not become a panel of its own
    tables.append(build_table(solve(StateLabel(1, 0), 0.7)))
    for tab in tables:
        assert tab.p_grid[0] < P_MIN
        assert np.all(np.diff(tab.p_grid) > 0)
        assert np.all(tab.p_weights > 0)
        assert tab.p_max == pytest.approx(tab.p_grid[-1], rel=1e-2)
        assert tab.tail_moment(0) <= 1e-6


def test_transform_scaling_against_table(tables_r2):
    """hankel_transform returns the amplitude H the table stores."""
    for cs, tab in tables_r2.values():
        idx = [3, len(tab.p_grid) // 2]
        v = hankel_transform(cs, tab.p_grid[idx])
        assert_allclose(v, tab.phi[idx], rtol=1e-12)


def test_origin_behavior(tables_r2):
    """H(0) finite for s states, vanishing like p^|m| otherwise."""
    cs0, _ = tables_r2["1s"]
    v = hankel_transform(cs0, np.array([0.0]))
    assert np.isfinite(v[0]) and v[0] != 0.0
    for label, m in (("2p", 1), ("3d", 2)):
        cs, _ = tables_r2[label]
        v = hankel_transform(cs, np.array([0.0]))
        assert v[0] == 0.0
        v1 = hankel_transform(cs, np.array([1e-4]))
        v2 = hankel_transform(cs, np.array([2e-4]))
        assert abs(v2[0] / v1[0] - 2.0**m) < 1e-6


@pytest.mark.parametrize("r0", [2.0, 6.0])
@pytest.mark.parametrize("label", ["2s", "2p", "3d"])
def test_fisher_identity_matches_derivative_quadrature(label, r0):
    """F_gamma = 4<r^2> - 4m^2<p^-2> equals 4 Int (dH/dp)^2 p dp.

    dH/dp = Int R r^2 J_m'(pr) dr is integrated here with scipy's jvp on
    a p-grid of its own out to 50, far past the table's kernel, plus the
    leading wall tail 4 r0^3 R'(r0)^2 / (3 pi p^3) beyond it.
    """
    from scipy.special import jvp

    from hydrodisc.measures import momentum_measures

    cs = solve(next(s for s in STATES if s.label == label), r0)
    m = cs.state.l
    p_end = 50.0
    r, wr = composite_gauss(np.linspace(0.0, r0, int(p_end * r0 / (2 * math.pi)) + 9), 16)
    wrr = wr * cs.radial(r)[0] * r * r
    p, wp = composite_gauss(np.linspace(0.0, p_end, int(p_end * r0 / math.pi) + 9), 12)
    dh = jvp(m, np.outer(p, r)) @ wrr
    tail = 4.0 * r0**3 * cs.radial([r0])[1][0] ** 2 / (3.0 * math.pi * p_end**3)
    fisher = 4.0 * float(np.sum(wp * dh * dh * p)) + tail
    reported = momentum_measures(cs).fisher
    assert abs(fisher / reported - 1.0) < 1e-6


def test_kinetic_energy_consistency(tables_r2):
    """<p^2> from the table equals 2(E + <1/r>) from position space."""
    for cs, tab in tables_r2.values():
        kin = 2.0 * (cs.energy + coulomb_expectation(cs))
        assert abs(tab.moment(2) - kin) / kin < 1e-5


def test_oscillatory_quadrature_oversampling(tables_r2):
    """Quarter-period panels agree with half-period panels to 1e-13 of max|H|."""
    cs, tab = tables_r2["2s"]
    p = 25.0
    period = 2.0 * math.pi / p
    tol = 1e-13 * np.max(np.abs(tab.phi))

    def transform(panel_width):
        n = max(2, int(math.ceil(cs.r0 / panel_width)))
        r, w = composite_gauss(np.linspace(0.0, cs.r0, n + 1), 12)
        v, _ = cs.radial(r)
        return float(np.sum(w * v * bessel_j(cs.state.l, p * r) * r))

    coarse = transform(0.5 * period)
    fine = transform(0.25 * period)
    assert abs(coarse - fine) < tol
    v = hankel_transform(cs, np.array([p]))
    assert abs(v[0] - fine) < tol


_REFINED_PROBES = [StateLabel(*nm) for nm in ((1, 0), (2, 0), (2, 1), (3, 2), (4, 3), (5, 0))]


@pytest.mark.parametrize("r0", [0.05, 0.5, 2.0, 5.0, 40.0])
@pytest.mark.parametrize("state", _REFINED_PROBES, ids=lambda st: st.label)
def test_transform_against_refined_panels(state, r0):
    """On its table grid the transform matches 4 times as many r-panels to 1e-13 of max|H|.

    The probes span m = 0 to 3: 4f takes scipy's jv kernel, 2s and 5s have
    nodes and the m = 0 cusp, and the walls run from the momentum cap's
    tight end to the free atom.  The reference keeps the 32-node rule and
    splits every panel of _panel_count in four, per momentum, so the
    one-panel floor of the tight walls and low momenta is checked here.
    """
    cs = solve(state, r0)
    tab = build_table(cs)
    p = tab.p_grid[:: max(1, tab.p_grid.size // 200)]
    kappa = math.sqrt(max(-2.0 * cs.energy, 0.0))
    counts = 4 * momentum._panel_count(r0, kappa, p)
    ref = np.empty_like(p)
    for i, (pi, count) in enumerate(zip(p, counts)):
        r, w = composite_gauss(np.linspace(0.0, r0, count + 1), momentum._R_ORDER)
        ref[i] = np.sum(w * cs.radial(r)[0] * r * bessel_j(cs.state.l, pi * r))
    got = hankel_transform(cs, p)
    assert np.max(np.abs(got - ref)) < 1e-13 * np.max(np.abs(tab.phi))


def test_panel_count_rule():
    """ceil(max(1, p r0/(16 pi), kappa r0/40)); p = 0 takes one panel."""
    r0 = 10.0
    bound = 16.0 * math.pi / r0  # momentum at which p r0/(16 pi) = 1
    p = np.array([0.0, 3.9 * bound, 4.0 * bound, 4.01 * bound, 100.0 * bound])
    assert momentum._panel_count(r0, 0.0, p).tolist() == [1, 4, 4, 5, 100]
    # the decay floor: kappa r0/40 = 20 panels until the momentum bound passes it
    assert momentum._panel_count(r0, 80.0, p).tolist() == [20, 20, 20, 20, 100]


@settings(max_examples=200, deadline=None)
@given(
    r0=hst.floats(0.05, 80.0),
    kappa=hst.floats(0.0, 100.0),
    p=hst.lists(hst.floats(0.0, 1e4), min_size=1, max_size=8),
)
def test_panel_count_is_the_fewest_meeting_both_bounds(r0, kappa, p):
    """Each count is an integer >= 1 that meets both width bounds, and one panel fewer breaks one."""
    p = np.array(p)
    counts = momentum._panel_count(r0, kappa, p)
    assert counts.dtype.kind == "i"
    assert np.all(counts >= 1)
    periods = p * r0 / (16.0 * math.pi)  # panels of 8 Bessel periods each
    decay = kappa * r0 / 40.0  # panels of 40/kappa each
    assert np.all(counts >= periods) and np.all(counts >= decay)
    fewer = counts - 1
    assert np.all((counts == 1) | (fewer < periods) | (fewer < decay))


def test_free_ground_state_density_shape():
    """At a distant wall the 1s momentum density is (1 + p^2/4)^-3."""
    cs = solve(StateLabel(1, 0), 25.0)
    ps = np.array([0.3, 0.7, 1.5, 3.0])
    v = hankel_transform(cs, ps)
    shape = v**2 * (1.0 + ps**2 / 4.0) ** 3
    assert np.max(np.abs(shape / shape[0] - 1.0)) < 1e-3


def test_tail_moment_decreases_with_cutoff(tables_r2):
    cs, tab = tables_r2["1s"]
    for k in (0, 1, 2):
        t1 = tab.tail_moment(k)
        t2 = dataclasses.replace(tab, p_max=2.0 * tab.p_max).tail_moment(k)
        assert t1 > 0.0
        assert t2 < t1


def _count_transformed(monkeypatch):
    """Wrap hankel_transform; the returned list collects the momenta it is given."""
    seen = []
    transform = momentum.hankel_transform

    def counting(cs, p):
        seen.append(np.size(p))
        return transform(cs, p)

    monkeypatch.setattr(momentum, "hankel_transform", counting)
    return seen


def test_each_momentum_transformed_once(tables_r2, monkeypatch):
    """Every octave is transformed at its Kronrod nodes, once: one transform per stored momentum."""
    states = [cs for cs, _ in tables_r2.values()]
    states += [solve(next(s for s in STATES if s.label == label), 16.0) for label in ("1s", "3d")]
    seen = _count_transformed(monkeypatch)
    for cs in states:
        seen.clear()
        tab = build_table(cs)
        assert sum(seen) == tab.p_grid.size
        assert tab.p_grid.size % 25 == 0


def test_kronrod_check_failure_raises(tables_r2, monkeypatch):
    """A Gauss-Kronrod check nothing passes raises in the one pass, with no retransform."""
    cs, tab = tables_r2["1s"]
    monkeypatch.setattr(momentum, "_KRONROD_TOLERANCE", 0.0)
    seen = _count_transformed(monkeypatch)
    with pytest.raises(AccuracyError, match="Gauss-Kronrod"):
        build_table(cs)
    assert sum(seen) == tab.p_grid.size


def test_kernel_chunks_match_single_momenta():
    """A group spanning several kernel chunks matches the momenta transformed one at a time.

    Four panels set by the momentum bound span more than 24 Bessel periods,
    where a tight-wall amplitude is a cancellation remainder (3d at r0 = 2:
    H ~ 1e-5) and the summation order of the matrix product alone moves it
    by up to 3e-10 relative.  1s at r0 = 70 still carries its bulk there,
    so both paths agree to rounding.
    """
    cs = solve(StateLabel(1, 0), 70.0)
    # 4000 momenta with p r0/(16 pi) in (3, 4] take 4 panels, 128 r-nodes each: chunks of
    # 2.5e5 // 128 = 1953 rows split the one group in three (1953, 1953, 94)
    bound = 16.0 * math.pi / cs.r0
    p = np.linspace(3.01 * bound, 4.0 * bound, 4000)
    kappa = math.sqrt(max(-2.0 * cs.energy, 0.0))
    assert np.unique(momentum._panel_count(cs.r0, kappa, p)).tolist() == [4]
    single = np.array([hankel_transform(cs, p[i : i + 1])[0] for i in range(p.size)])
    assert_allclose(hankel_transform(cs, p), single, rtol=1e-15)


@dataclasses.dataclass(frozen=True)
class _UniformDisc:
    """Duck-typed state: R = 2^(1/2)/r0 on the whole disc, so its jump is at the wall.

    H(p) = 2^(1/2) J_1(p r0)/p falls off like p^(-3/2), slower than the
    p^(-5/2) wall and p^(-3) origin terms of the tail model, so the norm
    beyond p_max stays near 2/(pi r0 p_max) and no octave settles it.
    """

    state: StateLabel = StateLabel(1, 0)
    r0: float = 2.0
    energy: float = -0.5

    def radial(self, r):
        r = np.asarray(r, dtype=float)
        return np.full_like(r, math.sqrt(2.0) / self.r0), np.zeros_like(r)


def test_slow_tail_reaches_the_momentum_cap():
    """A tail the model does not describe raises AccuracyError at the p_max cap."""
    disc = _UniformDisc()
    p = np.array([0.5, 3.0])
    # the jump is the end of every r-grid, so the transform itself is exact
    exact = math.sqrt(2.0) * bessel_j(1, p * disc.r0) / p
    assert_allclose(hankel_transform(disc, p), exact, rtol=1e-13)
    with pytest.raises(AccuracyError, match="reached the cap"):
        build_table(disc)


@pytest.mark.parametrize("r0", [2.0, 8.0])
def test_order_two_transform_against_mpmath(r0):
    """3d amplitudes match 30-digit mpmath quadrature with mpmath's own J_2.

    The trial R = e^(-alpha r) r^2 (Sum_j u_j r^j)(1 - r/r0) is rebuilt in
    mpmath from the solved alpha, the Ritz powers j and the weights u, and the
    r-integral is split at every period 2 pi/p, so neither ritz_basis,
    bessel_j nor the r-panels of hankel_transform enter the reference.
    """
    import mpmath

    cs = solve(next(s for s in STATES if s.label == "3d"), r0)
    tab = build_table(cs)
    ps = tab.p_max * np.array([0.01, 0.1, 0.3, 0.6, 1.0])
    got = hankel_transform(cs, ps)
    terms = list(zip(_ritz_powers(cs.state.n_r), cs.weights))

    def radial(r):
        poly = sum(u * r**j for j, u in terms)
        return mpmath.exp(-cs.alpha * r) * r**2 * poly * (1 - r / r0)

    with mpmath.workdps(30):
        for p, h in zip(ps, got):
            p_mp = mpmath.mpf(p)
            period = 2 * mpmath.pi / p_mp
            splits = [k * period for k in range(int(r0 / period) + 1)] + [mpmath.mpf(r0)]
            ref = mpmath.quad(
                lambda r: radial(r) * mpmath.besselj(2, p_mp * r) * r, splits, method="gauss-legendre"
            )
            assert abs(h - float(ref)) < 1e-12 * np.max(np.abs(tab.phi))


def test_kronrod_tolerance_consistency(tables_r2, monkeypatch):
    """A stricter Gauss-Kronrod check leaves the moments unchanged."""
    cs, tab = tables_r2["2p"]
    monkeypatch.setattr(momentum, "_KRONROD_TOLERANCE", 1e-8)
    tab2 = build_table(cs)
    for k in (0, 1, 2):
        assert abs(tab2.moment(k) - tab.moment(k)) < 1e-5 * max(1.0, tab.moment(k))


def test_validation_errors(tables_r2):
    cs, tab = tables_r2["1s"]
    with pytest.raises(ValueError, match=r"momenta p .* got shape \(2, 3\)"):
        hankel_transform(cs, np.ones((2, 3)))
    # a scalar, nan, inf or a negative momentum fails up front, naming p
    for p in (1.0, np.array([np.nan]), np.array([np.inf]), np.array([-0.5]), [0.5, -1e-300]):
        with pytest.raises(ValueError, match="momenta p must be 1-D, finite and >= 0"):
            hankel_transform(cs, p)
    # <p^-2> is a position-space integral (measures), for every m
    _, tab_2p = tables_r2["2p"]
    for table in (tab, tab_2p):
        with pytest.raises(ValueError):
            table.moment(-2)
    assert issubclass(AccuracyError, RuntimeError)


@pytest.mark.parametrize("label, r0", [("1s", 16.0), ("1s", 40.0), ("2s", 40.0)])
def test_wide_wall_moments_against_capped_reference(label, r0):
    """Wide-wall tables, uncapped where the wall term vanishes, keep their moments.

    The reference bisects twice the always-capped edges (8/r0 steps up to
    p_max) and transforms its Gauss nodes; it keeps the table's tail terms.
    """
    cs = solve(next(s for s in STATES if s.label == label), r0)
    tab = build_table(cs)
    edges = np.concatenate([[0.0], momentum._p_edges(r0, P_MIN, tab.p_max, math.inf)])
    for _ in range(2):
        edges = np.sort(np.concatenate([edges, 0.5 * (edges[:-1] + edges[1:])]))
    p, w = composite_gauss(edges, 12)
    ref = dataclasses.replace(tab, p_grid=p, phi=hankel_transform(cs, p), p_weights=w)
    for k in (0, 1):
        assert tab.moment(k) == pytest.approx(ref.moment(k), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("r0", [20.0, 40.0, 80.0, 100.0])
def test_wide_wall_transform_against_closed_form(r0):
    """1s amplitudes on the whole table grid match the closed form, no Bessel quadrature.

    With R = e^(-alpha r) r^m Sum b_j r^j, the integral over [0, inf) is
    H = (2p)^m Gamma(m+1/2)/sqrt(pi) Sum b_j (j+1)! rho^-(2m+2+j) C^(m+1/2)_(j+1)(alpha/rho),
    rho = sqrt(alpha^2 + p^2) (Gradshteyn-Ryzhik 6.623.1 differentiated in
    alpha through the Gegenbauer generating function, DLMF 18.12.4).  The
    b_j multiply the Ritz weights, placed at their powers, by the cut-off
    1 - r/r0.  The [r0, inf) remainder is bounded by
    Sum |b_j| Gamma(m+j+2, alpha r0)/alpha^(m+j+2).
    """
    from scipy.special import eval_gegenbauer, gamma, gammaincc

    cs = solve(StateLabel(1, 0), r0)
    m, alpha = cs.state.l, cs.alpha
    powers = _ritz_powers(cs.state.n_r)
    poly = np.zeros(max(powers) + 1)
    poly[list(powers)] = cs.weights
    b = np.polynomial.polynomial.polymul(poly, [1.0, -1.0 / r0])
    j = np.arange(b.size)
    remainder = np.sum(
        np.abs(b) * gammaincc(m + j + 2, alpha * r0) * gamma(m + j + 2) / alpha ** (m + j + 2)
    )
    tab = build_table(cs)
    p = tab.p_grid[:, None]
    rho = np.sqrt(alpha**2 + p**2)
    terms = b * gamma(j + 2) * rho ** -(2 * m + 2 + j) * eval_gegenbauer(j + 1, m + 0.5, alpha / rho)
    closed = (2 * tab.p_grid) ** m * gamma(m + 0.5) / math.sqrt(math.pi) * terms.sum(axis=1)
    scale = np.max(np.abs(closed))
    assert remainder < 1e-14 * scale
    assert np.max(np.abs(tab.phi - closed)) < 1e-12 * scale


def test_wall_amplitude_sets_the_step_cap(monkeypatch):
    """Wide walls drop the 8/r0 step; tight walls keep it above the geometric crossover.

    The always-capped grid of 1s at r0 = 40 held 10375 momenta.  Panel
    edges are recovered from the Kronrod weights, which sum to each width.
    """
    seen = _count_transformed(monkeypatch)
    build_table(solve(StateLabel(1, 0), 40.0))
    assert sum(seen) < 1000
    for state, r0 in ((StateLabel(2, 1), 2.0), (StateLabel(1, 0), 0.7)):
        tab = build_table(solve(state, r0))
        widths = tab.p_weights.reshape(-1, 25).sum(axis=1)
        lower = np.cumsum(widths) - widths
        cap = 8.0 / r0
        above = lower >= cap / (momentum._GEOM_RATIO - 1.0)
        assert np.count_nonzero(above) > 10
        assert np.all(widths[above] <= cap * (1.0 + 1e-9))
