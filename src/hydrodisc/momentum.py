"""Momentum-space wavefunction of a confined state via the Bessel radial transform.

The 2D Fourier transform of R(r) e^(im theta) factorizes into a radial
Hankel-type integral with kernel J_m(pr); the unimodular phase i^(3m)
e^(im theta_p) is dropped since every downstream quantity uses |Phi|^2 only.
The radial amplitude is taken with the angular factor (2 pi)^(-1/2)
absorbed,

    H(p) = Int_0^r0 R(r) J_m(pr) r dr,

so that Int H^2 p dp = 1 mirrors the position normalization
Int R^2 r dr = 1.  hankel_transform returns H and RadialMomentumTable
stores it.

The measures take every momentum quantity from position space (see
measures), so the table is their independent check, built by acceptance
criterion 8 and the tests, not by the sweep: its norm (the Parseval check)
and <p> are held against the position-space values, and its <p^2> against
the kinetic identity.  It carries values only, no derivative.

The r-integral is oscillatory: equal composite 32-point Gauss-Legendre
panels each span at most 8 Bessel periods 2 pi/p and 40/kappa of the
state's decay e^(-kappa r), kappa = (-2E)^(1/2), and each momentum takes
the fewest such panels, at least one (see _panel_count: by the Gauss
remainder bound, 4 nodes per period keep each panel's error near 1e-17
relative).  Momenta with equal panel counts share one r-grid, and each
such group costs one kernel matrix J_m(p r) and one matrix-vector product.
The p-grid is geometric from p_min = 1e-3 (about six panels a decade).
Its step is capped at 8/r0, to resolve the wall oscillation J_m(p r0), only
below p_wall: beyond it the wall term's norm W(p) = r0 R'(r0)^2/(3 pi p^3)
is so small that, by Cauchy-Schwarz against Int H^2 p dp = 1, leaving it
unresolved moves the norm by at most 2 W^(1/2) + W <= _WALL_TOLERANCE
(see _p_edges).  Tight walls keep the cap throughout; wide walls, whose
R'(r0) vanishes to rounding, keep it nowhere.  The grid of 25-point
Gauss-Kronrod panels is extended an octave at a time, until the tail
criteria on the tabulated moments hold: each octave the composite rule is
formed over the whole edge list and only its new nodes are transformed.
The Kronrod moments are then checked once against those of the embedded
12-point Gauss rule, read from the Kronrod rule's odd nodes; the table
stores the Kronrod values, so every momentum is transformed once.

Beyond p_max the amplitude follows two known asymptotic sources.  The hard
wall gives H(p) -> r0 R'(r0) J_m(p r0)/p^2 (J_m(x)^2 averaging to 1/(pi x)
across octaves), and for m = 0 a nonzero slope R'(0) at the origin gives a
smooth H(p) -> -R'(0)/p^3 term.  Only under the free-atom cusp R'(0) = -2 R(0)
is this 2 R(0)/p^3 (for the free ground state exactly (eta p)^-3); a
confined trial misses the cusp by a few percent (2s at r0 = 6: -R'(0) =
1.707 against 2 R(0) = 1.782), so build_table stores the wall slope and
the origin slope -R'(0), and the table adds the analytic tail
corrections beyond p_max to its moments; the grid is extended until the
corrected moments are stable octave to octave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confined import ConfinedState
from .free_atom import StateLabel
from .specfun import AccuracyError, bessel_j, composite_gauss, composite_rule, gauss_kronrod

__all__ = [
    "RadialMomentumTable",
    "hankel_transform",
    "build_table",
    "P_MIN",
]

P_MIN = 1e-3
_R_ORDER = 32  # Gauss-Legendre order per r-panel of up to 8 Bessel periods (see _panel_count)
_P_ORDER = 12  # Gauss-Legendre order per momentum panel (Kronrod-extended to 25)
_GEOM_RATIO = 10.0 ** (1.0 / 6.0)
_KRONROD_TOLERANCE = 1e-6  # relative Gauss-Kronrod moment difference accepted
_TAIL_TOLERANCE = 1e-6  # estimated norm beyond p_max accepted
_WALL_TOLERANCE = 1e-12  # norm change allowed from the wall term left unresolved beyond p_wall


def _panel_count(r0: float, kappa: float, p: np.ndarray) -> np.ndarray:
    """Fewest equal r-panels on [0, r0] that meet both width bounds, one per momentum in p.

    Each count is ceil(max(1, p r0/(16 pi), kappa r0/40)), so a panel spans
    at most 8 Bessel periods 2 pi/p and at most 40/kappa of the state's
    decay e^(-kappa r).  The 32-node rule on such a panel keeps 4 nodes per
    period.  The n-node Gauss remainder on a panel of width L (Davis &
    Rabinowitz, Methods of Numerical Integration, sec. 2.7) is
    L^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) f^(2n)(xi); with
    |d^(2n)/dr^(2n) J_m(pr)| <= p^(2n) it bounds p |E| by 10^-16.9 for 32
    nodes on 8 periods, against 10^-18.1 for 12 nodes on one period at
    three times the kernel evaluations.  For the decay e^(-kappa r),
    kappa L <= 40 gives 10^-23.3.  Both bounds hold per panel whatever the
    count, so no count is raised beyond them; p = 0 takes one panel.
    """
    need = np.maximum(np.maximum(p * r0 / (16.0 * math.pi), kappa * r0 / 40.0), 1.0)
    return np.ceil(need).astype(int)


def hankel_transform(cs: ConfinedState, p: np.ndarray) -> np.ndarray:
    """H(p) = Int R J_m(pr) r dr at each momentum of the 1-D array p.

    Each momentum takes its own panel count (_panel_count); momenta with
    equal counts share one r-grid, so the Bessel kernel is evaluated as a
    single matrix per group.  ValueError unless p is 1-D, finite and >= 0.
    """
    m = cs.state.l
    r0 = cs.r0
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or not np.all((p >= 0.0) & (p < math.inf)):  # nan fails both
        raise ValueError(f"momenta p must be 1-D, finite and >= 0, got shape {p.shape}: {p}")
    value = np.empty_like(p)
    counts = _panel_count(r0, math.sqrt(max(-2.0 * cs.energy, 0.0)), p)
    for count in np.unique(counts):
        idx = np.nonzero(counts == count)[0]
        r, w = composite_gauss(np.linspace(0.0, r0, count + 1), _R_ORDER)
        radial, _ = cs.radial(r)
        wrr = w * radial * r
        # chunk the (p, r) kernel matrix to keep peak memory bounded
        rows = max(1, int(2.5e5) // r.size)
        for lo in range(0, idx.size, rows):
            sel = idx[lo : lo + rows]
            value[sel] = bessel_j(m, p[sel, None] * r[None, :]) @ wrr
    return value


@dataclass(frozen=True)
class RadialMomentumTable:
    """Tabulated radial momentum amplitude H (unit norm: Int H^2 p dp = 1)."""

    state: StateLabel
    r0: float
    p_grid: np.ndarray
    phi: np.ndarray  # H on p_grid
    p_weights: np.ndarray
    p_max: float
    wall_slope: float
    wall_curvature: float
    origin_coeff: float

    def tail_moment(self, k: int) -> float:
        """Asymptotic estimate of Int_{p_max}^inf H^2 p^(k+1) dp for k in {0, 1, 2}.

        Sources: the leading wall term H ~ r0 R'(r0) J_m(p r0)/p^2 with J_m^2
        averaged to 1/(pi x), its subleading correction one power down (built
        from R''(r0)), for m = 0 the smooth origin term H ~ -R'(0)/p^3, and the
        leading boundary term of the oscillatory wall-origin cross integral.
        Remaining cross terms average out and are dropped.  Negative k is not
        served: <p^-2> is a position-space integral (see measures).
        """
        m = self.state.l
        if k not in (0, 1, 2):
            raise ValueError(f"tail moments implemented for k in {{0, 1, 2}}, got {k}")
        r0, p_max, slope, origin = self.r0, self.p_max, self.wall_slope, self.origin_coeff
        # amplitudes in H ~ (2/pi p)^(1/2) [a cos(chi)/p^2 + b sin(chi)/p^3]
        a = slope * math.sqrt(r0)
        b = -self.wall_curvature * math.sqrt(r0) + slope * (4.0 * m * m - 9.0) / (
            8.0 * math.sqrt(r0)
        )
        wall = r0 * slope**2 / (math.pi * (3 - k) * p_max ** (3 - k))
        wall_next = b**2 / (math.pi * (5 - k) * p_max ** (5 - k))
        tail_origin = origin**2 / ((4 - k) * p_max ** (4 - k))
        chi = p_max * r0 - (2 * m + 1) * math.pi / 4.0
        cross = -2.0 * a * origin * math.sqrt(2.0 / math.pi) * math.sin(chi) / (
            r0 * p_max ** (4.5 - k)
        )
        return wall + wall_next + tail_origin + cross

    def moment(self, k: int) -> float:
        """Int H^2 p^(k+1) dp: the in-grid quadrature plus the asymptotic tail."""
        quad = float(np.sum(self.p_weights * self.phi**2 * self.p_grid ** (k + 1)))
        return quad + self.tail_moment(k)


def _p_edges(r0: float, lo: float, hi: float, p_wall: float) -> np.ndarray:
    """Panel edges from lo to hi, geometric (~6/decade) with steps capped at 8/r0 below p_wall.

    The cap resolves the wall term H ~ r0 R'(r0) J_m(p r0)/p^2, whose
    oscillation has period 2 pi/r0.  Its norm beyond p is
    W(p) = r0 R'(r0)^2/(3 pi p^3) (the wall part of tail_moment(0)), so by
    Cauchy-Schwarz against Int H^2 p dp = 1, leaving it unresolved beyond p
    changes the norm by at most 2 W(p)^(1/2) + W(p).  build_table passes
    p_wall = (4 r0 R'(r0)^2/(3 pi tau^2))^(1/3), where W = tau^2/4 and that
    bound is about tau = _WALL_TOLERANCE; beyond it the panels stay
    geometric.
    """
    cap = 8.0 / r0
    edges = [lo]
    p = lo
    while p < hi:
        step = p * (_GEOM_RATIO - 1.0)
        if p < p_wall:
            step = min(step, cap)
        # end at hi rather than leave a panel of rounding width before it
        p = hi if p + step >= hi - 1e-9 * step else p + step
        edges.append(p)
    return np.asarray(edges)


def build_table(cs: ConfinedState) -> RadialMomentumTable:
    """Tabulate the momentum amplitude on an adaptive grid with verified moments.

    The grid of 25-point Gauss-Kronrod panels is extended octave by octave
    from 20/eta (up to a 2^10/eta cap, raised by 1/r0 inside sub-unit walls
    where the momentum content scales with the confinement, and to 4 p_tail
    where the wall term's tail mass W(p) = r0 R'(r0)^2/(3 pi p^3) falls to
    _TAIL_TOLERANCE at a p_tail beyond that cap, as in tight walls of
    n >= 4 states) until the tail-corrected moments the checks read from
    the table are stable from one octave to the next and the estimated tail
    mass is below _TAIL_TOLERANCE.  Those moments are Int H^2 p^(k+1) dp
    for k = 0 (the norm) and k = 1 (<p>).  The k = 2 moment stays available
    but does not drive p_max: it is only held against the kinetic identity.
    Each octave's panels are transformed once, at all their Kronrod nodes;
    the earlier panels keep their values.

    The final panels are then checked once: the moments of the 12-point
    Gauss rule, read from the Kronrod rule's odd nodes, must agree with the
    25-point Kronrod moments to _KRONROD_TOLERANCE, or AccuracyError is
    raised.  As in QUADPACK the difference is the error estimate of the
    Gauss rule and the table stores the more accurate Kronrod values.
    """
    eta = cs.state.eta
    r0 = cs.r0
    m = cs.state.l
    # R'(r0), R'(0), and R''(r0-) as a one-sided difference of the analytic derivative
    # (the trial is smooth inside the wall)
    h = 1e-6 * r0
    deriv = cs.radial(np.array([r0 - h, r0, 0.0]))[1]
    slope = float(deriv[1])
    curvature = float((deriv[1] - deriv[0]) / h)
    origin = -float(deriv[2]) if m == 0 else 0.0
    kronrod = gauss_kronrod(_P_ORDER)

    def wall_reach(mass):
        """The p at which the wall term's norm beyond p, W(p) = r0 R'(r0)^2/(3 pi p^3), is mass."""
        return (r0 * slope**2 / (3.0 * math.pi * mass)) ** (1.0 / 3.0)

    def tabulate(p, w, phi, p_max):
        table = RadialMomentumTable(cs.state, r0, p, phi, w, p_max, slope, curvature, origin)
        return table, np.array([table.moment(0), table.moment(1)])

    # beyond p_wall the unresolved wall term moves the norm by <= _WALL_TOLERANCE (see _p_edges)
    p_wall = wall_reach(0.25 * _WALL_TOLERANCE**2)
    p_cap = max(2.0**10 / (eta * min(1.0, r0)), 4.0 * wall_reach(_TAIL_TOLERANCE))
    # starter panel [0, p_min] keeps the mass below p_min (H(0) need not vanish)
    edges = np.concatenate([[0.0], _p_edges(r0, P_MIN, 20.0 / eta, p_wall)])
    phi = np.empty(0)
    previous = np.inf  # so the first octave only extends the grid
    while True:
        # the rule over all edges repeats the earlier panels' nodes bit for bit, so only
        # the nodes of the newest panels (the starter grid, then each octave) are transformed
        p, w = composite_rule(edges, kronrod)
        phi = np.concatenate([phi, hankel_transform(cs, p[phi.size :])])
        table, totals = tabulate(p, w, phi, float(edges[-1]))
        tol = 3e-5 * np.maximum(np.abs(totals), 1e-30)
        tol[0] = _TAIL_TOLERANCE
        drift = np.abs(totals - previous)
        if table.tail_moment(0) <= _TAIL_TOLERANCE and np.all(drift <= 0.5 * tol):
            break
        if table.p_max >= p_cap:
            raise AccuracyError(
                f"momentum tail tolerance unreachable for {cs.state.label} at r0={r0}: "
                f"p_max={table.p_max:.4g} reached the cap {p_cap:.4g} with tail mass "
                f"{table.tail_moment(0):.3g} (target {_TAIL_TOLERANCE:.3g}) and moment drift "
                f"{drift} against tolerances {0.5 * tol}"
            )
        previous = totals
        new_edges = _p_edges(r0, table.p_max, min(2.0 * table.p_max, p_cap), p_wall)
        edges = np.concatenate([edges, new_edges[1:]])

    # the Kronrod rule's odd nodes are the Gauss nodes, bit for bit
    _, w_gauss = composite_gauss(edges, _P_ORDER)
    p_gauss, phi_gauss = (a.reshape(-1, kronrod[0].size)[:, 1::2].ravel() for a in (p, phi))
    _, gauss = tabulate(p_gauss, w_gauss, phi_gauss, table.p_max)
    change = np.abs(totals - gauss) / np.maximum(np.abs(totals), 1e-30)
    if not np.all(change < _KRONROD_TOLERANCE):
        raise AccuracyError(
            f"momentum grid failed the Gauss-Kronrod check for {cs.state.label} at "
            f"r0={r0}: relative Gauss-Kronrod differences {change}"
        )
    for arr in (table.p_grid, table.phi, table.p_weights):
        arr.setflags(write=False)
    return table
