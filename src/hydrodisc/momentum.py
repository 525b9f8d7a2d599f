"""Momentum-space wavefunction of a confined state via the Bessel radial transform.

The 2D Fourier transform of R(r) e^(im theta) factorizes into a radial
Hankel-type integral with kernel J_m(pr); the unimodular phase i^(3m)
e^(im theta_p) is dropped since every downstream quantity uses |Phi|^2 only.
Two amplitude conventions coexist deliberately:

  * hankel_transform returns phi(p) = (2 pi)^(-1/2) Int_0^r0 R J_m(pr) r dr,
    the radial factor of the full 2D momentum wavefunction;
  * RadialMomentumTable stores the amplitude with the angular factor
    absorbed, H = sqrt(2 pi) phi, so that Int H^2 p dp = 1 exactly mirrors
    the position normalization Int R^2 r dr = 1.

The table supplies the quantities the measures still take in momentum
space: the norm (the Parseval check), <p> and, for m >= 1, <p^-2>.
<p^2> = 2<T> and the Fisher information F = 4<r^2> - 4 m^2 <p^-2> are
exact identities of the position-space state and are evaluated there (see
measures), so the table carries values only, no derivative.

The r-integral is oscillatory: composite Gauss-Legendre panels are tied to
the local Bessel period 2 pi/p (at least 8 panels, counts rounded up to
powers of two so momenta can share evaluation grids), and each group of
momenta costs one kernel matrix J_m(p r) and one matrix-vector product.
The p-grid is geometric from p_min = 1e-3 until the step reaches 8/r0,
then arithmetic, extended adaptively until the tail criteria on the
tabulated moments hold and verified by doubling.

Beyond p_max the amplitude follows two known asymptotic sources.  The hard
wall gives H(p) -> r0 R'(r0) J_m(p r0)/p^2 (J_m(x)^2 averaging to 1/(pi x)
across octaves), and for m = 0 the Coulomb cusp at the origin gives a
smooth H(p) -> 2 R(0)/p^3 term (for the free ground state this is exactly
(eta p)^-3).  build_table stores the wall slope and origin amplitude, and
the table exposes the analytic tail corrections the measures add beyond
p_max; the grid is extended until the corrected moments are stable octave
to octave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confined import ConfinedState
from .free_atom import StateLabel
from .specfun import bessel_j, gauss_legendre

__all__ = [
    "AccuracyError",
    "RadialMomentumTable",
    "hankel_transform",
    "build_table",
    "P_MIN",
]

P_MIN = 1e-3
_R_ORDER = 12  # Gauss-Legendre order per Bessel-period panel
_P_ORDER = 12  # Gauss-Legendre order per momentum panel
_GEOM_RATIO = 10.0 ** (1.0 / 6.0)


class AccuracyError(RuntimeError):
    """Raised when an integral cannot reach its accuracy target."""


def _panel_count(r0: float, p: float) -> int:
    """Power-of-two number of full-period r-panels for momentum p, at least 8."""
    need = p * r0 / (2.0 * math.pi)
    count = 8
    while count < need:
        count *= 2
    return count


def _transform_batch(cs: ConfinedState, p: np.ndarray) -> np.ndarray:
    """H(p) = Int R J_m(pr) r dr for an array of momenta.

    Momenta needing the same panel count share one r-grid, so the Bessel
    kernel is evaluated as a single matrix per group.
    """
    m = cs.state.l
    r0 = cs.r0
    p = np.asarray(p, dtype=float)
    value = np.empty_like(p)
    counts = np.array([_panel_count(r0, pi) for pi in p])
    rule = gauss_legendre(_R_ORDER)
    for count in np.unique(counts):
        idx = np.nonzero(counts == count)[0]
        edges = np.linspace(0.0, r0, count + 1)
        half = 0.5 * (r0 / count)
        r = (edges[:-1, None] + half * (rule.nodes[None, :] + 1.0)).ravel()
        w = np.broadcast_to(half * rule.weights, (count, _R_ORDER)).ravel()
        radial, _ = cs.radial(r)
        wrr = w * radial * r
        # chunk the (p, r) kernel matrix to keep peak memory bounded
        rows = max(1, int(4e6) // r.size)
        for lo in range(0, idx.size, rows):
            sel = idx[lo : lo + rows]
            value[sel] = bessel_j(m, p[sel, None] * r[None, :]) @ wrr
    return value


def hankel_transform(cs: ConfinedState, p):
    """Radial momentum amplitude phi(p) = (2 pi)^(-1/2) Int R J_m(pr) r dr."""
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    if np.any(p_arr < 0.0):
        raise ValueError("momentum must be non-negative")
    value = _transform_batch(cs, p_arr) / math.sqrt(2.0 * math.pi)
    if np.ndim(p) == 0:
        return float(value[0])
    return value


def _wall_b_coeff(m: int, r0: float, wall_slope: float, wall_curvature: float) -> float:
    """Subleading wall amplitude in H ~ (2/pi p)^(1/2) [A cos(chi)/p^2 + B sin(chi)/p^3]."""
    mu = 4.0 * m * m
    return -wall_curvature * math.sqrt(r0) + wall_slope * (mu - 9.0) / (8.0 * math.sqrt(r0))


def _tail_moment(
    k: int,
    p_max: float,
    r0: float,
    m: int,
    wall_slope: float,
    wall_curvature: float,
    origin_coeff: float,
) -> float:
    """Asymptotic estimate of Int_{p_max}^inf H^2 p^(k+1) dp for k in {-2, 0, 1, 2}.

    Sources: the leading wall term H ~ r0 R'(r0) J_m(p r0)/p^2 with J_m^2
    averaged to 1/(pi x), its subleading correction one power down (built
    from R''(r0)), for m = 0 the smooth origin term H ~ -R'(0)/p^3, and the
    leading boundary term of the oscillatory wall-origin cross integral.
    Remaining cross terms average out and are dropped.  The k = -2 moment
    <p^-2> diverges at the origin for m = 0 and is rejected there.
    """
    if k not in (-2, 0, 1, 2):
        raise ValueError(f"tail moments implemented for k in {{-2, 0, 1, 2}}, got {k}")
    if k == -2 and m == 0:
        raise ValueError("<p^-2> diverges for m = 0")
    b = _wall_b_coeff(m, r0, wall_slope, wall_curvature)
    a = wall_slope * math.sqrt(r0)
    wall = r0 * wall_slope**2 / (math.pi * (3 - k) * p_max ** (3 - k))
    wall_next = b**2 / (math.pi * (5 - k) * p_max ** (5 - k))
    origin = origin_coeff**2 / ((4 - k) * p_max ** (4 - k))
    chi = p_max * r0 - (2 * m + 1) * math.pi / 4.0
    cross = (
        -2.0
        * a
        * origin_coeff
        * math.sqrt(2.0 / math.pi)
        * math.sin(chi)
        / (r0 * p_max ** (4.5 - k))
    )
    return wall + wall_next + origin + cross


@dataclass(frozen=True)
class RadialMomentumTable:
    """Tabulated radial momentum amplitude (unit norm: Int phi^2 p dp = 1)."""

    state: StateLabel
    r0: float
    p_grid: np.ndarray
    phi: np.ndarray
    p_weights: np.ndarray
    p_max: float
    tail_mass: float
    wall_slope: float
    wall_curvature: float
    origin_coeff: float

    def tail_moment(self, k: int) -> float:
        """Estimated Int_{p_max}^inf phi^2 p^(k+1) dp for k in {-2, 0, 1, 2}."""
        return _tail_moment(
            k,
            self.p_max,
            self.r0,
            self.state.l,
            self.wall_slope,
            self.wall_curvature,
            self.origin_coeff,
        )

    def quad_moment(self, k: int) -> float:
        """In-grid part of Int phi^2 p^(k+1) dp."""
        return float(np.sum(self.p_weights * self.phi**2 * self.p_grid ** (k + 1)))

    def moment(self, k: int) -> float:
        """Int phi^2 p^(k+1) dp including the asymptotic tail."""
        return self.quad_moment(k) + self.tail_moment(k)


def _p_edges(r0: float, lo: float, hi: float) -> np.ndarray:
    """Panel edges from lo to hi: geometric (~6/decade) until steps reach 8/r0, then arithmetic."""
    cap = 8.0 / r0
    edges = [lo]
    p = lo
    while p < hi:
        step = min(p * (_GEOM_RATIO - 1.0), cap)
        p = min(p + step, hi)
        edges.append(p)
    return np.asarray(edges)


def _p_nodes(edges: np.ndarray, order: int = _P_ORDER) -> tuple[np.ndarray, np.ndarray]:
    rule = gauss_legendre(order)
    a = edges[:-1]
    half = 0.5 * np.diff(edges)
    p = (a[:, None] + half[:, None] * (rule.nodes[None, :] + 1.0)).ravel()
    w = (half[:, None] * rule.weights[None, :]).ravel()
    return p, w


def build_table(
    cs: ConfinedState,
    p_tail_tolerance: float = 1e-6,
    doubling_tolerance: float = 1e-6,
    max_doublings: int = 3,
) -> RadialMomentumTable:
    """Tabulate the momentum amplitude on an adaptive grid with verified moments.

    The grid is extended octave by octave (up to a 2^10/eta cap, raised by
    1/r0 inside sub-unit walls where the momentum content scales with the
    confinement) until the tail-corrected moments the measures read from the
    table are stable from one octave to the next and the estimated tail mass
    is below tolerance; the final grid is then verified by panel doubling.
    Those moments are Int phi^2 p^(k+1) dp for k = 0 (the norm) and k = 1
    (<p>), plus k = -2 (<p^-2>, the Fisher identity's angular term) when
    m >= 1.  The k = 2 moment stays available but does not drive p_max: the
    measures take <p^2> from position space.
    """
    if not (0.0 < p_tail_tolerance <= 1e-3):
        raise ValueError(f"p_tail_tolerance out of range (0, 1e-3]: {p_tail_tolerance}")
    eta = cs.state.eta
    r0 = cs.r0
    m = cs.state.l
    slope = cs.wall_slope()
    # R''(r0-) from the analytic derivative; the trial is smooth inside the wall
    h = 1e-6 * r0
    d_at = cs.radial(np.array([r0 - h, r0]))[1]
    curvature = float((d_at[1] - d_at[0]) / h)
    origin = -float(cs.radial(np.array([0.0]))[1][0]) if m == 0 else 0.0

    p_cap = 2.0**10 / (eta * min(1.0, r0))
    # starter panel [0, p_min] keeps the mass below p_min (phi(0) need not vanish)
    edges = np.concatenate([[0.0], _p_edges(r0, P_MIN, 40.0 / eta)])
    p, w = _p_nodes(edges)
    phi = _transform_batch(cs, p)
    ks = (0, 1, -2) if m >= 1 else (0, 1)

    def moments(pv, wv, phiv, p_max):
        return np.array(
            [
                float(np.sum(wv * phiv**2 * pv ** (k + 1)))
                + _tail_moment(k, p_max, r0, m, slope, curvature, origin)
                for k in ks
            ]
        )

    # first stability probe is free: truncate the initial grid near half range
    half = int(np.searchsorted(edges, 0.5 * edges[-1], side="right")) - 1
    half = max(half, 1)
    n_half = half * _P_ORDER
    previous = moments(p[:n_half], w[:n_half], phi[:n_half], float(edges[half]))
    while True:
        p_max = float(edges[-1])
        totals = moments(p, w, phi, p_max)
        tol = 3e-5 * np.maximum(np.abs(totals), 1e-30)
        tol[0] = p_tail_tolerance
        tail0 = _tail_moment(0, p_max, r0, m, slope, curvature, origin)
        if (
            previous is not None
            and tail0 <= p_tail_tolerance
            and np.all(np.abs(totals - previous) <= 0.5 * tol)
        ):
            break
        if p_max >= p_cap:
            drift = None if previous is None else np.abs(totals - previous)
            raise AccuracyError(
                f"momentum tail tolerance unreachable for {cs.state.label} at r0={r0}: "
                f"p_max={p_max:.4g} reached the cap {p_cap:.4g} with tail_mass="
                f"{tail0:.3g} (target {p_tail_tolerance:.3g}) and moment drift {drift} "
                f"against tolerances {0.5 * tol}"
            )
        previous = totals
        new_edges = _p_edges(r0, p_max, min(2.0 * p_max, p_cap))
        p_new, w_new = _p_nodes(new_edges)
        phi_new = _transform_batch(cs, p_new)
        edges = np.concatenate([edges, new_edges[1:]])
        p = np.concatenate([p, p_new])
        w = np.concatenate([w, w_new])
        phi = np.concatenate([phi, phi_new])

    p_max = float(edges[-1])
    current = moments(p, w, phi, p_max)
    for _ in range(max_doublings):
        mid = 0.5 * (edges[:-1] + edges[1:])
        edges_fine = np.sort(np.concatenate([edges, mid]))
        p_f, w_f = _p_nodes(edges_fine)
        phi_f = _transform_batch(cs, p_f)
        refined = moments(p_f, w_f, phi_f, p_max)
        change = np.abs(refined - current) / np.maximum(np.abs(refined), 1e-30)
        edges, p, w, phi, current = edges_fine, p_f, w_f, phi_f, refined
        if np.all(change < doubling_tolerance):
            break
    else:
        raise AccuracyError(
            f"momentum grid would not converge under doubling for {cs.state.label} "
            f"at r0={r0}: last relative changes {change}"
        )

    for arr in (p, phi, w):
        arr.setflags(write=False)
    return RadialMomentumTable(
        state=cs.state,
        r0=r0,
        p_grid=p,
        phi=phi,
        p_weights=w,
        p_max=p_max,
        tail_mass=_tail_moment(0, p_max, r0, m, slope, curvature, origin),
        wall_slope=slope,
        wall_curvature=curvature,
        origin_coeff=origin,
    )
