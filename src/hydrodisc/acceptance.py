"""Acceptance checks: the quantitative claims the package must reproduce.

Each criterion prints one pass/fail line.  `run_all` takes the default
confinement sweep grid through the sweep's own evaluator once, timed on its
own line, and hands it to every criterion; criteria that need points off
that grid (r0 = 30, the crossing windows) reach them the same way, through
`_evaluated`.  A point whose solve or quadrature fails re-raises its error,
naming the point.  The time shown per criterion is its own marginal cost.
Criteria 5 and 9 count the sign changes of the gap between two states'
curves on a window's scan grid with one locator (_crossing), the only memo
here, which lasts one call; when the feature misses its window, the failure
line says where it is: the sign changes on a wider grid, each refined by
Brent's method.

Run via `hydrodisc verify` or the pytest wrapper in tests/test_acceptance.py.
"""

from __future__ import annotations

import functools
import math
import time

import numpy as np

from .confined import coulomb_expectation
from .fd_eigensolver import oracle_energy
from .free_atom import StateLabel, free_energy, free_measures, table1_states
from .measures import NORM_TOLERANCE, free_momentum_report, free_position_report
from .momentum import RadialMomentumTable, build_table
from .specfun import brent_root
from .sweep import PointEvaluation, SweepConfig, evaluate, radii

__all__ = ["run_all", "CRITERIA"]

# The reference table as printed (V_pos, V_mom, F_pos, F_mom, CR_pos, CR_mom).
# F_mom(2s) = 58.2000 is the known misprint, adjudicated in criterion 1;
# the CR columns are products of the printed 4-decimal factors.
_TABLE1_PRINTED = {
    "1s": (0.1250, 1.5326, 16.0000, 1.5000, 2.0000, 2.2989),
    "2s": (2.3750, 0.2902, 1.7777, 58.2000, 4.2220, 16.8896),
    "2p": (2.2500, 0.0975, 0.5925, 18.0000, 1.3331, 1.7550),
    "3d": (9.3750, 0.0245, 0.1280, 62.5000, 1.2000, 1.5312),
}


_STATES = {st.label: st for st in table1_states()}


def _evaluated(state: StateLabel, r0: float) -> PointEvaluation:
    """The sweep's evaluation of one point; a failed stage re-raises its error naming the point."""
    ev = evaluate(state, r0)
    if ev.error is not None:
        raise type(ev.error)(f"{state.label} r0={r0:g} {ev.error}") from ev.error
    return ev


def _brackets(r, diff) -> list[tuple[float, float]]:
    """Neighbouring radii (r[i], r[i + 1]) between which diff changes sign."""
    signs = np.sign(diff)
    return [(float(r[i]), float(r[i + 1])) for i in np.nonzero(signs[:-1] != signs[1:])[0]]


def _crossing(value, a: StateLabel, b: StateLabel, scan, wide) -> tuple[int, str]:
    """Sign changes of the gap value(a, r0) - value(b, r0) on the scan grid, and its zeros.

    One change reads as its scan bracket.  Otherwise the text gives every
    sign change on the wide grid, each refined by Brent's method to 1e-4.
    Each (state, r0) is evaluated once per call: the brackets Brent's method
    refines end on grid radii, and the two grids may share radii.
    """
    value_at = functools.cache(value)  # a new memo on every call

    def gap(r0: float) -> float:
        return value_at(a, r0) - value_at(b, r0)

    brackets = _brackets(scan, [gap(float(r)) for r in scan])
    if len(brackets) == 1:
        return 1, f"changes sign once, in [{brackets[0][0]:.2f}, {brackets[0][1]:.2f}]"
    found = [brent_root(gap, lo, hi, xtol=1e-4)
             for lo, hi in _brackets(wide, [gap(float(r)) for r in wide])]
    at = ", ".join(f"r0 = {x:.3f}" for x in found)
    where = (f"the curves cross at {at}" if found
             else f"the curves do not cross in [{wide[0]:g}, {wide[-1]:g}]")
    return len(brackets), f"changes sign {len(brackets)}x in [{scan[0]:g}, {scan[-1]:g}]; {where}"


def criterion_1(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Reference-table closed forms at 4 decimals, with the F[gamma](2s) adjudication."""
    strict = 1.01e-4
    problems = []
    for st in table1_states():
        fm = free_measures(st)
        v_pos, v_mom, f_pos, f_mom, cr_pos, cr_mom = _TABLE1_PRINTED[st.label]
        checks = [
            ("v_pos", fm.v_pos, v_pos, strict),
            ("v_mom", fm.v_mom, v_mom, strict),
            ("f_pos", fm.f_pos, f_pos, strict),
            ("cr_pos", fm.cr_pos, cr_pos, (v_pos + f_pos + 1.0) * strict),
        ]
        if st.label != "2s":
            checks.append(("f_mom", fm.f_mom, f_mom, strict))
            checks.append(("cr_mom", fm.cr_mom, cr_mom, (v_mom + f_mom + 1.0) * strict))
        for name, got, printed, tol in checks:
            if abs(got - printed) > tol:
                problems.append(f"{st.label} {name}: {got:.6f} vs printed {printed}")
    # F[gamma](2s): closed form says 58.5, the printed 58.2000 is a misprint;
    # an independent quadrature oracle adjudicates.
    fm2s = free_measures(StateLabel(2, 0))
    oracle = free_momentum_report(StateLabel(2, 0)).fisher
    if abs(fm2s.f_mom - 58.5) > 1e-10:
        problems.append(f"2s f_mom reports {fm2s.f_mom}, expected 58.5")
    if abs(oracle / 58.5 - 1.0) > 1e-5:
        problems.append(f"2s f_mom quadrature oracle {oracle:.6f} disagrees with 58.5")
    if abs(fm2s.cr_mom - fm2s.f_mom * fm2s.v_mom) > 1e-12:
        problems.append("2s cr_mom is not the artifact's own F*V product")
    detail = (
        f"24 entries vs printed table; F[gamma](2s) verdict: printed 58.2000 is a "
        f"misprint, closed form 58.5 confirmed by quadrature ({oracle:.6f})"
    )
    return (not problems, detail if not problems else "; ".join(problems))


def criterion_2(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Free-state quadrature oracles match closed forms (1e-6 pos, 1e-5 mom)."""
    problems = []
    worst = {"position": 0.0, "momentum": 0.0}
    for label in ("1s", "2p", "3d"):
        st = _STATES[label]
        fm = free_measures(st)
        pos, mom = free_position_report(st), free_momentum_report(st)
        for space, tol, checks in (
            ("position", 1e-6, (("v_pos", fm.v_pos, pos.variance), ("f_pos", fm.f_pos, pos.fisher))),
            ("momentum", 1e-5, (("v_mom", fm.v_mom, mom.variance), ("f_mom", fm.f_mom, mom.fisher))),
        ):
            for name, closed, quad in checks:
                rel = abs(quad / closed - 1.0)
                worst[space] = max(worst[space], rel)
                if rel > tol:
                    problems.append(f"{label} {name} rel {rel:.2e}")
    detail = "worst relative error: " + ", ".join(f"{sp} {rel:.1e}" for sp, rel in worst.items())
    return (not problems, detail if not problems else "; ".join(problems))


def criterion_3(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Free-limit convergence at r0 = 40: energies 1e-3, measures 2%."""
    problems = []
    worst = 0.0
    far = [p for p in grid if p.r0 == 40.0]
    if len(far) != len(_STATES):
        problems.append(f"the grid holds {len(far)} r0=40 points, not {len(_STATES)}")
    for p in far:
        st = p.state
        de = abs(p.cs.energy - free_energy(st))
        if de > 1e-3:
            problems.append(f"{st.label} energy off by {de:.2e}")
        fm = free_measures(st)
        for name, free_val, got in (
            ("v_pos", fm.v_pos, p.pos.variance),
            ("f_pos", fm.f_pos, p.pos.fisher),
            ("cr_pos", fm.cr_pos, p.pos.cramer_rao),
            ("v_mom", fm.v_mom, p.mom.variance),
            ("f_mom", fm.f_mom, p.mom.fisher),
            ("cr_mom", fm.cr_mom, p.mom.cramer_rao),
        ):
            rel = abs(got / free_val - 1.0)
            worst = max(worst, rel)
            if rel > 0.02:
                problems.append(f"{st.label} {name} rel {rel:.2%}")
    detail = f"four states at r0=40: worst measure deviation {worst:.2%} (limit 2%)"
    return (not problems, detail if not problems else "; ".join(problems))


def criterion_4(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Variational energies upper-bound the exact wall levels on the default grid (1e-9 slack)."""
    worst = math.inf
    problems = []
    for p in grid:
        ref = oracle_energy(p.state, p.r0)
        margin = p.cs.energy - ref
        worst = min(worst, margin)
        if margin < -1e-9:
            problems.append(f"{p.state.label} r0={p.r0:.3f} margin {margin:.2e}")
    detail = f"{len(grid)} points vs exact wall level, worst margin {worst:+.2e}"
    return (not problems, detail if not problems else "; ".join(problems))


def criterion_5(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """(2s;3d) energy inversion: exactly one sign change on [0.8, 1.3]."""
    changes, where = _crossing(
        lambda st, r0: _evaluated(st, r0).cs.energy, _STATES["2s"], _STATES["3d"],
        np.linspace(0.8, 1.3, 11), np.linspace(0.3, 1.3, 11),
    )
    return (changes == 1, f"E(2s)-E(3d) {where}")


def criterion_6(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Cramer-Rao ordering 3d < 2p < 1s < 2s in both spaces at r0 = 30."""
    order = ["3d", "2p", "1s", "2s"]
    vals = {}
    for label, st in _STATES.items():
        p = _evaluated(st, 30.0)
        vals[label] = (p.pos.cramer_rao, p.mom.cramer_rao)
    ok = True
    for space, idx in (("position", 0), ("momentum", 1)):
        chain = [vals[lbl][idx] for lbl in order]
        if not all(a < b for a, b in zip(chain, chain[1:])):
            ok = False
    detail = "; ".join(
        f"{space}: " + " < ".join(f"{vals[lbl][idx]:.4f}({lbl})" for lbl in order)
        for space, idx in (("pos", 0), ("mom", 1))
    )
    return (ok, detail)


def criterion_7(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Structural extrema of the Cramer-Rao curves (2s min/max, 2p;3d cross)."""
    problems = []
    pts_2s = [p for p in grid if p.state == StateLabel(2, 0)]
    r = np.array([p.r0 for p in pts_2s])
    cr_pos = np.array([p.pos.cramer_rao for p in pts_2s])
    cr_mom = np.array([p.mom.cramer_rao for p in pts_2s])

    i_min = int(np.argmin(cr_pos))
    r_min = float(r[i_min])
    if not (0 < i_min < len(r) - 1 and 4.0 <= r_min <= 8.0):
        problems.append(f"2s position CR minimum at r0={r_min:.2f}, outside [4, 8]")

    maxima = [
        float(r[i])
        for i in range(1, len(r) - 1)
        if cr_mom[i - 1] < cr_mom[i] > cr_mom[i + 1] and 3.5 <= r[i] <= 7.0
    ]
    if not maxima:
        problems.append("2s momentum CR has no interior maximum in [3.5, 7]")

    pts_2p = [p for p in grid if p.state == StateLabel(2, 1)]
    pts_3d = [p for p in grid if p.state == StateLabel(3, 2)]
    diff = np.array(
        [a.mom.cramer_rao - b.mom.cramer_rao for a, b in zip(pts_2p, pts_3d)]
    )
    inside = [(lo, hi) for lo, hi in _brackets(r, diff) if 4.5 <= lo and hi <= 7.5]
    cross_at = inside[-1] if inside else None
    if cross_at is None:
        problems.append("2p/3d momentum CR curves do not cross inside [4.5, 7.5]")
    detail = (
        f"2s CR[rho] min at r0={r_min:.2f}; 2s CR[gamma] max at "
        f"r0={maxima[0]:.2f}" + (f"; 2p/3d cross in [{cross_at[0]:.2f}, {cross_at[1]:.2f}]"
        if cross_at else "")
    ) if not problems else "; ".join(problems)
    return (not problems, detail)


def _kinetic_residual(p: PointEvaluation, table: RadialMomentumTable) -> float:
    """Relative gap between the table's own <p^2> and 2<T> = 2(E + <1/r>).

    The reported momentum <p^2> is 2<T> by construction, so the identity is
    checked against the momentum-space quadrature with its tail instead.
    """
    table_second = table.moment(2)
    kinetic = 2.0 * (p.cs.energy + coulomb_expectation(p.cs))
    return abs(table_second - kinetic) / table_second


def criterion_8(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Uncertainty products, moment bounds, norms, Parseval, kinetic identity, <p>.

    The sweep takes every momentum measure from position space, so each
    point's momentum table is built here, as the check that shares no code
    with them: its Parseval norm |Int H^2 p dp - 1| joins the two reported
    norm residuals, its own <p^2> quadrature is held against 2<T> (1e-4),
    and its <p> against the reported one (1e-5; the table's own error is
    below 4e-7 on the default grid).
    The Fisher product bound F[rho] F[gamma] >= 16 holds for real
    wavefunctions, so it is checked on the m = 0 states only; for m != 0 the
    product can fall below 16 (the free 2p state reaches about 10.7).
    """
    problems = []
    worst_kin = worst_norm = worst_mean = 0.0
    worst_ff = math.inf
    for p in grid:
        st = p.state
        ff = p.pos.fisher * p.mom.fisher
        if st.m == 0:
            worst_ff = min(worst_ff, ff)
            if not ff >= 16.0:  # a nan product fails too
                problems.append(f"{st.label} r0={p.r0:.3f} Fisher product {ff:.3f} < 16")
        if p.pos.second_moment * p.pos.fisher < 4.0:
            problems.append(f"{st.label} r0={p.r0:.3f} <r^2>F[rho] < 4")
        if p.mom.second_moment * p.mom.fisher < 4.0:
            problems.append(f"{st.label} r0={p.r0:.3f} <p^2>F[gamma] < 4")
        table = build_table(p.cs)
        parseval = p.pos.norm_residual + p.mom.norm_residual + abs(table.moment(0) - 1.0)
        worst_norm = max(worst_norm, parseval)
        if parseval > NORM_TOLERANCE:  # every term is >= 0
            problems.append(f"{st.label} r0={p.r0:.3f} norm residual {parseval:.2e}")
        rel = _kinetic_residual(p, table)
        worst_kin = max(worst_kin, rel)
        if rel > 1e-4:
            problems.append(f"{st.label} r0={p.r0:.3f} kinetic identity off {rel:.2e}")
        gap = abs(p.mom.mean / table.moment(1) - 1.0)
        worst_mean = max(worst_mean, gap)
        if not gap <= 1e-5:  # a nan gap fails too
            problems.append(f"{st.label} r0={p.r0:.3f} <p> off the table's by {gap:.2e}")
    detail = (
        f"{len(grid)} points: min F*F (m=0) {worst_ff:.3f}, worst norm/Parseval "
        f"{worst_norm:.1e}, worst kinetic residual {worst_kin:.1e}, worst <p> gap "
        f"to the table {worst_mean:.1e}"
    )
    return (not problems, detail if not problems else "; ".join(problems[:4]))


def criterion_9(grid: list[PointEvaluation]) -> tuple[bool, str]:
    """Momentum-variance crossings with the ground state in the stated windows."""
    windows = {"2p": (1.0, 1.5), "3d": (1.5, 2.2), "2s": (2.3, 3.2)}
    counts, details = [], []
    for label, (lo, hi) in windows.items():
        changes, where = _crossing(
            lambda st, r0: _evaluated(st, r0).mom.variance, _STATES[label], _STATES["1s"],
            np.linspace(lo, hi, 7), np.arange(0.8, 3.61, 0.14),
        )
        counts.append(changes)
        details.append(f"(1s;{label}) {where}")
    return (all(c == 1 for c in counts), "; ".join(details))


# Every criterion takes the evaluated default grid, whether it reads it or not.
CRITERIA = [
    ("reference table closed forms", criterion_1),
    ("free-state quadrature oracles", criterion_2),
    ("free-limit convergence at r0=40", criterion_3),
    ("variational upper bound vs exact wall level", criterion_4),
    ("(2s;3d) energy inversion", criterion_5),
    ("Cramer-Rao ordering at r0=30", criterion_6),
    ("Cramer-Rao structural extrema", criterion_7),
    ("uncertainty and bound properties", criterion_8),
    ("momentum-variance crossing windows", criterion_9),
]


def run_all(verbose: bool = False) -> list[tuple[str, bool, str]]:
    """Evaluate all criteria; returns (name, passed, printed line) triples."""
    t0 = time.time()
    grid = [_evaluated(st, float(r0)) for st in _STATES.values() for r0 in radii(SweepConfig())]
    if verbose:
        print(f"shared default-grid evaluation: {len(grid)} points "
              f"[{time.time() - t0:.1f}s]", flush=True)
    results = []
    for idx, (name, fn) in enumerate(CRITERIA, start=1):
        t0 = time.time()
        ok, detail = fn(grid)
        dt = time.time() - t0
        line = f"criterion {idx} ({name}): {'PASS' if ok else 'FAIL'} [{dt:.1f}s] {detail}"
        if verbose:
            print(line, flush=True)
        results.append((name, ok, line))
    return results
