"""Tests of the benchmark's own logic: inputs, span arithmetic, output checks.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import math
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import MAX_LOG_SHIFT, WORKLOADS, pass_input  # noqa: E402

from hydrodisc.measures import NORM_TOLERANCE  # noqa: E402
from hydrodisc.sweep import CSV_HEADER  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs(name):
    w = WORKLOADS[name]
    assert pass_input(w, 7, 0) == pass_input(w, 7, 0)
    assert pass_input(w, 7, 3).keys() == pass_input(w, 7, 3).keys()
    assert pass_input(w, 7, 0) != pass_input(w, 8, 0)
    assert pass_input(w, 7, 0) != pass_input(w, 7, 1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_shifts_grid_by_a_fraction_of_a_step(name):
    w = WORKLOADS[name]
    step = math.log(w.r0_max / w.r0_min) / (w.points - 1)
    assert MAX_LOG_SHIFT < step
    for seed in range(20):
        inp = pass_input(w, seed, 0)
        shift = math.log(inp.r0_min / w.r0_min)
        assert 0.0 <= shift < MAX_LOG_SHIFT
        assert math.isclose(math.log(inp.r0_max / w.r0_max), shift, abs_tol=1e-12)
        assert len(inp.keys()) == len(w.states) * w.points


def _span(name, start, end, parent=None, **attrs):
    return spans.Span(name, start, end, parent, None, attrs)


def test_self_time_of_nested_spans():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("sweep.evaluate_point", 1.0, 9.0, 0),
        _span("momentum.build_table", 2.0, 8.0, 1),
        _span("specfun.bessel_j_pair", 3.0, 5.0, 2),
        _span("specfun.bessel_j_pair", 6.0, 7.0, 2),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 2.0, 3.0, 2.0, 1.0])
    table = spans.layer_table(tree)
    assert table["specfun.bessel_j_pair"] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}
    assert sum(v["self_s"] for v in table.values()) == pytest.approx(10.0)


def test_unaccounted_share_is_the_time_no_reported_metric_covers():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("sweep.evaluate_point", 1.0, 9.0, 0),  # self time 2.0 is in no metric
        _span("momentum.build_table", 2.0, 8.0, 1, p_kept=10, p_max=4.0),
        _span("specfun.bessel_j_pair", 3.0, 5.0, 2, evals=100, rows=20, bytes=800),
        _span("specfun.bessel_asymptotic_pair", 3.5, 4.5, 3, evals=60),
        _span("specfun.bessel_j_pair", 6.0, 7.0, 2, evals=50, rows=10, bytes=400),
    ]
    metrics = layers.pass_metrics(tree, 11.0, 0.0)  # 1.0 s of the pass lies outside cli.main
    assert metrics["trace.unaccounted_frac"] == pytest.approx((2.0 + 1.0) / 11.0)
    assert metrics["momentum.build_table.self_s"] == pytest.approx(3.0)
    assert metrics["specfun.bessel_j_pair.s"] == pytest.approx(3.0)
    assert metrics["specfun.bessel_evals"] == 150
    assert metrics["specfun.bessel_asym_frac"] == pytest.approx(60 / 150)
    assert metrics["momentum.kept_ratio"] == pytest.approx(10 / 30)


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),
        _span("c", 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert spans.self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_wraps_and_restores():
    module = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(n, m, r0):
        return module.inner(n)

    module.inner, module.outer = inner, outer
    tracer = spans.Tracer()
    assert tracer.patch(module, "outer", "outer", point_of=lambda a: (a["n"], a["m"], a["r0"]))
    assert tracer.patch(module, "inner", "inner", attrs_of=lambda a, res: {"res": res})
    assert not tracer.patch(module, "absent", "absent")
    assert module.outer(1, 0, r0=2.5) == 2
    tracer.restore()
    assert module.outer is outer and module.inner is inner
    first, second = tracer.spans
    assert (first.name, first.parent, first.point) == ("outer", None, (1, 0, 2.5))
    assert (second.name, second.parent, second.point) == ("inner", 0, (1, 0, 2.5))
    assert second.attrs == {"res": 2}
    assert first.start <= second.start <= second.end <= first.end


def _row(n, m, r0, energy=-0.5, pos_res=1e-12, mom_res=1e-8, error=None):
    v_pos, f_pos, v_mom, f_mom = 0.5, 3.0, 0.25, 5.0
    cells = [str(n), str(m), f"{r0:.17e}"] + [
        f"{x:.17e}"
        for x in (1.0, energy, v_pos, f_pos, f_pos * v_pos, v_mom, f_mom, f_mom * v_mom,
                  pos_res, mom_res)
    ]
    if error:
        cells.append(error)
    return ",".join(cells)


KEYS = [(1, 0, 2.0), (1, 0, 4.0), (2, 1, 2.0)]
ORACLE = {k: -0.6 for k in KEYS}


def _check(rows, header=CSV_HEADER, keys=KEYS):
    text = "\n".join([header] + rows) + "\n"
    return checks.check_sweep_csv(text, CSV_HEADER, keys, ORACLE, NORM_TOLERANCE,
                                  lambda key: ORACLE[key])


def test_clean_csv_passes():
    result = _check([_row(*k) for k in KEYS])
    assert result.failed == set() and result.problems == []
    assert result.excess == pytest.approx([0.1, 0.1, 0.1])


@pytest.mark.parametrize(
    "doctor",
    [
        {"energy": -0.6 - 1e-6},  # below the oracle
        {"mom_res": 2 * NORM_TOLERANCE},  # Parseval residual over tolerance
        {"pos_res": float("nan")},  # non-finite field
        {"error": "momentum: tail tolerance unreachable"},  # error marker
    ],
)
def test_doctored_row_counts_as_one_failure(doctor):
    rows = [_row(*k) for k in KEYS]
    rows[1] = _row(*KEYS[1], **doctor)
    result = _check(rows)
    assert result.failed == {KEYS[1]}


def test_energy_bound_defers_to_the_exact_energy_near_the_oracle():
    def never():
        raise AssertionError("exact energy needed only within ORACLE_MARGIN")

    assert checks.point_problems(-0.6 + 2e-6, -0.6, never) == []
    assert checks.point_problems(-0.6 - 5e-10, -0.6, lambda: -0.6) == []
    assert checks.point_problems(-0.6 - 5e-9, -0.6, lambda: -0.6)
    # the oracle sits above the exact level: E below it passes on the exact value
    assert checks.point_problems(-0.6 - 5e-8, -0.6, lambda: -0.6 - 1e-7) == []
    # the oracle sits below the exact level: E above it still fails
    assert checks.point_problems(-0.6 + 5e-7, -0.6, lambda: -0.6 + 1e-6)


def test_exact_energy_matches_the_free_atom_and_the_oracle():
    from hydrodisc.fd_eigensolver import oracle_energy
    from hydrodisc.free_atom import StateLabel

    # a wide wall leaves the free levels E_n = -1/(2 (n - 1/2)^2) unchanged
    assert checks.exact_energy(0, 30.0, -2.0 + 1e-5) == pytest.approx(-2.0, abs=1e-13)
    assert checks.exact_energy(1, 40.0, -0.2222) == pytest.approx(-2 / 9, abs=1e-10)
    for (n, m), r0 in [((2, 0), 4.2289), ((3, 2), 9.2856), ((1, 0), 0.7006)]:
        oracle = oracle_energy(StateLabel(n, m), r0)
        assert checks.exact_energy(m, r0, oracle) == pytest.approx(oracle, abs=3e-7)


def test_broken_product_is_a_failure():
    rows = [_row(*k) for k in KEYS]
    rows[2] = rows[2].replace("1.25000000000000000e+00", "1.25000000000001000e+00")
    assert _check(rows).failed == {KEYS[2]}


@pytest.mark.parametrize(
    "rows, header",
    [
        ([_row(*k) for k in KEYS], CSV_HEADER.replace("energy", "E")),  # header changed
        ([_row(*k) for k in KEYS[:2]], CSV_HEADER),  # a point missing
        ([_row(*k) for k in (KEYS[1], KEYS[0], KEYS[2])], CSV_HEADER),  # unsorted
    ],
)
def test_structural_problem_fails_every_point(rows, header):
    result = _check(rows, header=header)
    assert result.failed == set(KEYS) and result.problems


def test_run_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bound-check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
