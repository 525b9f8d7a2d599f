"""Which hydrodisc functions the traced run wraps, and the per-layer metrics.

Every wrap sits at the module attribute the caller resolves at call time:
`cli` calls `run_sweep`/`emit_csv` through its own namespace, `sweep`
calls `evaluate_point`, `solve`, the measures and `build_table` through
its namespace, `momentum` calls `bessel_j_pair` through its namespace, and
`solve` calls `node_coefficients`/`energy_functional` through `confined`,
and `bessel_j_pair` calls its large-argument branch
`_bessel_asymptotic_pair` through `specfun` (a private name: when it is
gone, the run prints it as not traced and bessel_asym_frac reads 0).
The bound-check workload calls `confined.solve` and
`fd_eigensolver.oracle_energy` itself, through those modules.  The span of
`cli.main` is opened by the benchmark around its own call.

Nesting: cli.main > sweep.run_sweep > sweep.evaluate_point >
momentum.build_table > specfun.bessel_j_pair > specfun.bessel_asymptotic_pair,
and evaluate_point >
confined.solve > confined.node_coefficients / confined.energy_functional.
"""

from __future__ import annotations

import importlib
import os
import statistics

import numpy as np

from spans import Span, children_of, layer_table, self_times


def _state_point(a):
    return (a["state"].n, a["state"].m, float(a["r0"]))


def _sweep_point(a):
    return (a["n"], a["m"], float(a["r0"]))


def _table_attrs(a, table):
    return {"p_kept": int(table.p_grid.size), "p_max": float(table.p_max)}


def _solve_attrs(a, cs):
    return {"alpha": float(cs.alpha)}


def _csv_attrs(a, _result):
    return {"bytes": os.path.getsize(a["path"])}


def _bessel_attrs(a, result):
    z = np.asarray(a["z"])
    outputs = result if isinstance(result, tuple) else (result,)
    return {
        "evals": int(z.size),
        "rows": int(z.shape[0]) if z.ndim == 2 else int(z.size),
        "bytes": int(z.nbytes + sum(np.asarray(x).nbytes for x in outputs)),
    }


def _asym_attrs(a, _result):
    return {"evals": int(np.asarray(a["z"]).size)}


def install(tracer) -> list[str]:
    """Wrap every traced function; returns the names that could not be found."""
    mod = {name: importlib.import_module(f"hydrodisc.{name}")
           for name in ("cli", "sweep", "confined", "momentum", "specfun", "fd_eigensolver")}
    plan = [
        (mod["cli"], "run_sweep", "sweep.run_sweep", None, None),
        (mod["cli"], "emit_csv", "sweep.emit_csv", None, _csv_attrs),
        (mod["sweep"], "evaluate_point", "sweep.evaluate_point", _sweep_point, None),
        (mod["sweep"], "solve", "confined.solve", _state_point, _solve_attrs),
        (mod["sweep"], "position_measures", "measures.position_measures", None, None),
        (mod["sweep"], "build_table", "momentum.build_table", None, _table_attrs),
        (mod["sweep"], "momentum_measures", "measures.momentum_measures", None, None),
        (mod["momentum"], "bessel_j_pair", "specfun.bessel_j_pair", None, _bessel_attrs),
        (mod["specfun"], "_bessel_asymptotic_pair", "specfun.bessel_asymptotic_pair", None,
         _asym_attrs),
        (mod["confined"], "solve", "confined.solve", _state_point, _solve_attrs),
        (mod["confined"], "node_coefficients", "confined.node_coefficients", None, None),
        (mod["confined"], "energy_functional", "confined.energy_functional", None, None),
        (mod["fd_eigensolver"], "oracle_energy", "fd_eigensolver.oracle_energy",
         _state_point, None),
    ]
    missing = []
    for module, attr, name, point_of, attrs_of in plan:
        if not tracer.patch(module, attr, name, point_of, attrs_of):
            missing.append(f"{module.__name__}.{attr}")
    return missing


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def pass_metrics(spans: list[Span], wall_s: float, alpha_floor: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass; wall_s is the pass's traced wall time."""
    table = layer_table(spans)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return table.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def named(name):
        return [s for s in spans if s.name == name]

    bessel = named("specfun.bessel_j_pair")
    evals = sum(s.attrs["evals"] for s in bessel)
    transformed = sum(s.attrs["rows"] for s in bessel)
    tables = named("momentum.build_table")
    kept = sum(s.attrs["p_kept"] for s in tables)
    point_s = [s.duration for s in named("sweep.evaluate_point")]
    kids = children_of(spans)
    solve_idx = [i for i, s in enumerate(spans) if s.name == "confined.solve"]
    ritz = [
        sum(spans[c].name == "confined.node_coefficients" for c in kids.get(i, ()))
        for i in solve_idx
    ]
    bessel_s = total_s("specfun.bessel_j_pair")
    asym = sum(s.attrs["evals"] for s in named("specfun.bessel_asymptotic_pair"))
    out = {
        "cli.main.self_s": self_s("cli.main"),
        "sweep.run_sweep.self_s": self_s("sweep.run_sweep"),
        "sweep.point_s.p50": _pct(point_s, 50),
        "sweep.point_s.p90": _pct(point_s, 90),
        "sweep.emit_csv.s": total_s("sweep.emit_csv"),
        "sweep.csv_bytes": sum(s.attrs["bytes"] for s in named("sweep.emit_csv")),
        "confined.solve.self_s": self_s("confined.solve"),
        "confined.solve.calls": calls("confined.solve"),
        "confined.node_coefficients.calls": calls("confined.node_coefficients"),
        "confined.node_coefficients.s": total_s("confined.node_coefficients"),
        "confined.energy_functional.s": total_s("confined.energy_functional"),
        "confined.ritz_per_solve.max": max(ritz, default=0),
        "confined.alpha_at_floor": sum(
            spans[i].attrs["alpha"] <= 2.0 * alpha_floor for i in solve_idx
        ),
        "measures.position_measures.s": total_s("measures.position_measures"),
        "measures.momentum_measures.s": total_s("measures.momentum_measures"),
        "momentum.build_table.self_s": self_s("momentum.build_table"),
        "momentum.build_table.calls": calls("momentum.build_table"),
        "momentum.p_transformed": transformed,
        "momentum.p_kept": kept,
        "momentum.kept_ratio": kept / transformed if transformed else 0.0,
        "momentum.p_max.max": max((s.attrs["p_max"] for s in tables), default=0.0),
        "momentum.kernel_mb_computed": sum(s.attrs["bytes"] for s in bessel) / 1e6,
        "specfun.bessel_j_pair.s": bessel_s,
        "specfun.bessel_evals": evals,
        "specfun.bessel_evals_per_s": evals / bessel_s if bessel_s > 0 else 0.0,
        "specfun.bessel_asym_frac": asym / evals if evals else 0.0,
        "fd_eigensolver.oracle_energy.s": total_s("fd_eigensolver.oracle_energy"),
        "fd_eigensolver.oracle_energy.calls": calls("fd_eigensolver.oracle_energy"),
        "trace.wall_s": wall_s,
    }
    # the share of the pass that no reported time covers: every span named
    # in a "<span>.self_s" metric adds its self time, every span named in a
    # "<span>.s" metric its whole duration (its subtree), and other spans
    # (sweep.evaluate_point) only what their descendants add
    own = self_times(spans)

    def covered(i):
        name = spans[i].name
        if f"{name}.s" in out:
            return spans[i].duration
        here = own[i] if f"{name}.self_s" in out else 0.0
        return here + sum(covered(c) for c in kids.get(i, ()))

    roots = [i for i, s in enumerate(spans) if s.parent is None]
    out["trace.unaccounted_frac"] = (wall_s - sum(covered(i) for i in roots)) / wall_s
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced passes (counts repeat exactly)."""
    return {k: float(statistics.median(p[k] for p in per_pass)) for k in per_pass[0]}
