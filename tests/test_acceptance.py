"""Acceptance criteria, one test per criterion.

The shared fixture evaluates every criterion once and counts the momentum
tables built on the way; a reporting test prints the per-criterion pass/fail
lines outside pytest's capture so they show up in plain runs.  Two criteria encode feature locations the implemented
curves demonstrably do not have (the ledger has the measurements); they are
marked xfail(strict=True) so the expected red stays red and an accidental
green breaks the suite instead of slipping by.
"""

import collections
import dataclasses

import numpy as np
import pytest

from hydrodisc import acceptance, momentum, specfun, sweep
from hydrodisc.confined import solve
from hydrodisc.free_atom import StateLabel

UNATTAINABLE = {
    "(2s;3d) energy inversion": "the exact inversion sits at r0 = 0.750 and the "
    "variational one at 0.779, below the [0.8, 1.3] window",
    "momentum-variance crossing windows": "the exact (1s;3d) crossing sits at "
    "r0 = 1.24 and the pipeline one at 1.265, below the [1.5, 2.2] window",
}


@pytest.fixture(scope="module")
def battery():
    """One run of every criterion, with the tables built per (state, r0).

    Also returns, per (state, r0), the momenta transformed and the size of
    the table built from them.
    """
    builds = collections.Counter()
    transformed = collections.Counter()
    sizes = {}
    build_table = sweep.build_table
    hankel_transform = momentum.hankel_transform

    def counting_build_table(cs, *args, **kwargs):
        builds[(cs.state, cs.r0)] += 1
        table = build_table(cs, *args, **kwargs)
        sizes[(cs.state, cs.r0)] = table.p_grid.size
        return table

    def counting_hankel_transform(cs, p):
        transformed[(cs.state, cs.r0)] += np.size(p)
        return hankel_transform(cs, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "build_table", counting_build_table)
        mp.setattr(momentum, "hankel_transform", counting_hankel_transform)
        triples = acceptance.run_all(verbose=False)
    return {name: (ok, line) for name, ok, line in triples}, builds, (transformed, sizes)


@pytest.fixture(scope="module")
def results(battery):
    return battery[0]


def test_report_criterion_lines(results, capsys):
    """Print the one-line-per-criterion report even under pytest capture."""
    with capsys.disabled():
        print()
        for _, line in results.values():
            print(line)
    assert len(results) == len(acceptance.CRITERIA)


def _param(name):
    if name in UNATTAINABLE:
        mark = pytest.mark.xfail(strict=True, reason=UNATTAINABLE[name])
        return pytest.param(name, marks=mark)
    return name


@pytest.mark.parametrize("name", [_param(name) for name, _ in acceptance.CRITERIA])
def test_criterion(results, name):
    ok, line = results[name]
    assert ok, line


def test_energy_inversion_stays_near_ground_truth():
    """The (2s;3d) crossing stays bracketed by [0.75, 0.80].

    Guards the adjudicated location of the criterion-5 feature: the exact
    inversion is at 0.750 and a bound-respecting solver lands just right
    of it.
    """
    s2, d3 = StateLabel(2, 0), StateLabel(3, 2)

    def diff(r0):
        return solve(s2, r0).energy - solve(d3, r0).energy

    assert diff(0.75) > 0.0 > diff(0.80)


def test_default_grid_tables_are_built_once(battery):
    """Every point the battery evaluates is built once, on the default grid or off it.

    Criterion 3 reads its r0 = 40 points from the grid, and criterion 9's
    windows and failure scan share radii (1s at 1.5 and 2.2, 3d at 1.5 and 2.2).
    The failure scan's Brent refinement starts from a bracket whose ends are
    scan radii, so its first two evaluations come from criterion 9's memo.
    """
    _, builds, _ = battery
    cfg = sweep.SweepConfig()
    grid = [(StateLabel(n, m), float(r0)) for n, m in cfg.states for r0 in sweep.radii(cfg)]
    assert len(grid) == 160
    assert set(grid) <= set(builds)
    assert {key: n for key, n in builds.items() if n != 1} == {}


def test_every_table_transforms_each_momentum_once(battery):
    """Every table the battery builds transforms each of its stored momenta once."""
    _, builds, (transformed, sizes) = battery
    assert len(sizes) == len(builds) >= 160
    assert {key: n for key, n in transformed.items() if n != sizes[key]} == {}


def test_attained_crossing_windows_hold(results):
    """(1s;2p) and (1s;2s) momentum-variance crossings stay in their windows."""
    _, line = results["momentum-variance crossing windows"]
    assert "(1s;2p) changes sign once, in [" in line
    assert "(1s;2s) changes sign once, in [" in line
    assert "(1s;3d) changes sign 0x" in line  # adjudicated: see the module docstring


@pytest.mark.parametrize(
    "roots, changes, text, located",
    [
        ([0.55], 1, "changes sign once, in [0.50, 0.60]", []),
        ([1.55], 0, "changes sign 0x in [0, 1]; the curves cross at r0 = 1.550", [1.55]),
        ([0.33, 0.77], 2,
         "changes sign 2x in [0, 1]; the curves cross at r0 = 0.330, r0 = 0.770", [0.33, 0.77]),
        ([], 0, "changes sign 0x in [0, 1]; the curves do not cross in [0, 2]", []),
    ],
)
def test_crossing_counts_and_locates(roots, changes, text, located):
    """One scan-grid sign change reads as its bracket; any other count is located on the wide grid."""
    refined = []

    def gap(r):
        return float(np.prod([r - x for x in roots]))

    def brent_root(f, lo, hi, xtol):
        refined.append(specfun.brent_root(f, lo, hi, xtol))
        return refined[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "brent_root", brent_root)
        got = acceptance._crossing(gap, np.linspace(0.0, 1.0, 11), np.linspace(0.0, 2.0, 11))
    assert got == (changes, text)
    assert refined == pytest.approx(located, abs=1e-4)


def test_kinetic_identity_reads_the_table():
    """Criterion 8 compares the table's own <p^2> with 2<T>, not 2<T> with itself.

    Raising the tabulated amplitude by 5% above p_max/2 leaves the norm
    within 2e-7 and the reported <p^2> (2<T> by construction) unchanged,
    yet must trip the kinetic-identity check.
    """
    point = sweep.evaluate(StateLabel(2, 1), 2.0)
    ok, line = acceptance.criterion_8([point])
    assert ok, line

    tab = point.table
    phi = np.where(tab.p_grid > 0.5 * tab.p_max, 1.05 * tab.phi, tab.phi)
    bad = dataclasses.replace(point, table=dataclasses.replace(tab, phi=phi))
    assert abs(bad.table.moment(0) - 1.0) < 1e-6
    ok, line = acceptance.criterion_8([bad])
    assert not ok
    assert "kinetic identity" in line
