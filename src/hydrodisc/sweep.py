"""Confinement sweeps: orchestration over (state, r0) points and file output.

A sweep solves every requested state at every wall radius, computes the
position and momentum measures, and collects one row per point.  `evaluate`
is the one (state, r0) pipeline: `evaluate_point` projects its result onto
a row, and `hydrodisc verify` reads the whole result (solved state and
both reports).  Every momentum measure is a position-space integral (see
measures.momentum_measures), so no point builds a momentum table.
Numerical failures (non-converged solve, unmet quadrature accuracy) are
isolated: the affected row keeps its identifying columns and the numbers
of every stage that finished (a momentum failure keeps alpha_opt, energy
and the position columns), carries nan in the columns of the failed and
later stages and an error marker in a trailing field, and the rest of the
sweep proceeds.  Rows come in (n, m, r0) order and are printed in
full-precision scientific notation so identical configurations give
byte-identical files.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .confined import MAX_WALL_RADIUS, MIN_WALL_RADIUS, ConfinedState, solve
from .free_atom import StateLabel, free_measures, table1_states
from .measures import MeasureReport, momentum_measures, position_measures
from .specfun import AccuracyError, ConvergenceError

__all__ = [
    "SweepConfig",
    "SweepRow",
    "DEFAULT_STATES",
    "CSV_HEADER",
    "radii",
    "PointEvaluation",
    "evaluate",
    "evaluate_point",
    "run_sweep",
    "emit_csv",
    "parse_csv",
    "table1_text",
    "emit_plot_data",
    "read_config_file",
    "parse_states",
    "SETTINGS",
    "config_from",
    "config_echo",
]

DEFAULT_STATES = tuple((st.n, st.m) for st in table1_states())

TABLE1_HEADER = "state,v_pos,v_mom,f_pos,f_mom,cr_pos,cr_mom"

# figN stem -> SweepRow attribute plotted against r0
PLOT_QUANTITIES = {
    "fig1_E": "energy",
    "fig2_Vpos": "v_pos",
    "fig3_Vmom": "v_mom",
    "fig4_CRpos": "cr_pos",
    "fig5_CRmom": "cr_mom",
    "fig6_FF": "fisher_product",
}


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep parameters; validation happens on construction."""

    states: tuple[tuple[int, int], ...] = DEFAULT_STATES
    r0_min: float = 0.5
    r0_max: float = 40.0
    points: int = 40
    spacing: str = "log"
    output_path: str = "."
    emit_plot_data: bool = False

    def __post_init__(self):
        if not self.states:
            raise ValueError("states list must not be empty")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"states list repeats a state: {self.states}")
        for n, m in self.states:
            if not (0 <= m <= n - 1):
                raise ValueError(f"state ({n},{m}) violates 0 <= m <= n-1")
        if not (MIN_WALL_RADIUS <= self.r0_min < self.r0_max < math.inf):
            raise ValueError(
                f"need {MIN_WALL_RADIUS} <= r0_min < r0_max < inf, "
                f"got [{self.r0_min}, {self.r0_max}]"
            )
        if self.r0_max > MAX_WALL_RADIUS:
            raise ValueError(f"r0_max above the supported maximum {MAX_WALL_RADIUS}: {self.r0_max}")
        if self.points < 2:
            raise ValueError(f"points must be >= 2, got {self.points}")
        if self.spacing not in ("log", "linear"):
            raise ValueError(f"spacing must be 'log' or 'linear', got {self.spacing!r}")


@dataclass(frozen=True)
class SweepRow:
    """One sweep point; unavailable numbers are None (emitted as nan)."""

    n: int
    m: int
    r0: float
    alpha_opt: float | None = None
    energy: float | None = None
    v_pos: float | None = None
    f_pos: float | None = None
    cr_pos: float | None = None
    v_mom: float | None = None
    f_mom: float | None = None
    cr_mom: float | None = None
    pos_norm_residual: float | None = None
    mom_norm_residual: float | None = None
    error: str | None = None

    @property
    def fisher_product(self) -> float | None:
        """The Fisher uncertainty product F[rho]*F[gamma]."""
        if self.f_pos is None or self.f_mom is None:
            return None
        return self.f_pos * self.f_mom


# every SweepRow field but the trailing error marker is a CSV column
_COLUMNS = [f.name for f in fields(SweepRow)][:-1]
CSV_HEADER = ",".join(_COLUMNS)


def radii(cfg: SweepConfig) -> np.ndarray:
    """Wall radii of the sweep, r0_max included exactly."""
    if cfg.spacing == "log":
        return np.geomspace(cfg.r0_min, cfg.r0_max, cfg.points)
    return np.linspace(cfg.r0_min, cfg.r0_max, cfg.points)


def _flatten_error(exc: Exception) -> str:
    return str(exc).replace(",", ";").replace("\n", " ")


@dataclass(frozen=True)
class PointEvaluation:
    """One (state, r0) point taken through the pipeline as far as it got.

    The stages run in order (solve, position, momentum); the first that
    fails sets `error`, whose text starts with the stage's name, and leaves
    its own and every later result None.
    """

    state: StateLabel
    r0: float
    cs: ConfinedState | None = None
    pos: MeasureReport | None = None
    mom: MeasureReport | None = None
    error: ConvergenceError | AccuracyError | None = None


def evaluate(state: StateLabel, r0: float) -> PointEvaluation:
    """Solve one point, then compute its position and momentum measures.

    Convergence and accuracy failures end the evaluation at their stage,
    re-raised as "stage: message" with the original as the cause; anything
    else (a genuine usage or programming error) propagates.
    """
    cs = pos = None
    try:
        stage = "solve"
        cs = solve(state, r0)
        stage = "position"
        pos = position_measures(cs)
        stage = "momentum"
        return PointEvaluation(state, r0, cs, pos, momentum_measures(cs))
    except (ConvergenceError, AccuracyError) as exc:
        error = type(exc)(f"{stage}: {exc}")
        error.__cause__ = exc
        return PointEvaluation(state, r0, cs, pos, error=error)


def evaluate_point(n: int, m: int, r0: float) -> SweepRow:
    """The sweep row of one (state, r0) point; a failed stage fills `error`."""
    ev = evaluate(StateLabel(n, m), r0)
    values: dict[str, float] = {}
    if ev.cs is not None:
        values.update(alpha_opt=ev.cs.alpha, energy=ev.cs.energy)
    for space, report in (("pos", ev.pos), ("mom", ev.mom)):
        if report is not None:
            values[f"v_{space}"] = report.variance
            values[f"f_{space}"] = report.fisher
            values[f"cr_{space}"] = report.cramer_rao
            values[f"{space}_norm_residual"] = report.norm_residual
    error = None if ev.error is None else _flatten_error(ev.error)
    return SweepRow(n, m, r0, **values, error=error)


def run_sweep(cfg: SweepConfig, jobs: int = 1) -> list[SweepRow]:
    """All sweep rows in (n, m, r0) order, failures isolated per row."""
    r_values = radii(cfg)
    # radii ascend and both maps keep task order, so no sort is needed
    tasks = [(n, m, float(r0)) for n, m in sorted(cfg.states) for r0 in r_values]
    # a pool may start all its workers at once, so it gets no more workers than points
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(evaluate_point, *zip(*tasks)))
    return list(map(evaluate_point, *zip(*tasks)))


def _format_value(x: float | None) -> str:
    return "nan" if x is None else f"{x:.17e}"


def emit_csv(rows: list[SweepRow], path: str) -> None:
    """Write the sweep CSV; failed rows gain a trailing error-marker field."""
    if not rows:
        raise ValueError("refusing to write an empty sweep CSV")
    lines = [CSV_HEADER]
    for row in rows:
        cells = [str(row.n), str(row.m), f"{row.r0:.17e}"]
        cells += [_format_value(getattr(row, name)) for name in _COLUMNS[3:]]
        if row.error is not None:
            cells.append(row.error)
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def parse_csv(path: str) -> list[SweepRow]:
    """Read a sweep CSV back into rows (inverse of emit_csv)."""
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"{path}: missing or mismatched sweep CSV header")
    rows = []
    n_cols = len(_COLUMNS)
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) not in (n_cols, n_cols + 1):
            raise ValueError(f"{path}: malformed row: {line!r}")
        values = [None if p == "nan" else float(p) for p in parts[3:n_cols]]
        rows.append(
            SweepRow(
                int(parts[0]),
                int(parts[1]),
                float(parts[2]),
                *values,
                error=parts[n_cols] if len(parts) > n_cols else None,
            )
        )
    return rows


def table1_text() -> str:
    """The free-atom measure table with 4-decimal formatting.

    Every column is rounded independently from full-precision values, so
    the products satisfy cr = f*v before rounding (acceptance criterion 1
    gives the F[gamma](2s) verdict).
    """
    lines = [TABLE1_HEADER]
    for st in table1_states():
        fm = free_measures(st)
        cells = (fm.v_pos, fm.v_mom, fm.f_pos, fm.f_mom, fm.cr_pos, fm.cr_mom)
        lines.append(st.label + "," + ",".join(f"{x:.4f}" for x in cells))
    return "\n".join(lines) + "\n"


def emit_plot_data(rows: list[SweepRow], directory: str) -> None:
    """Write one (r0, quantity) two-column .dat file per state and quantity."""
    if not rows:
        raise ValueError("refusing to write plot data for an empty sweep")
    os.makedirs(directory, exist_ok=True)
    by_state: dict[tuple[int, int], list[SweepRow]] = {}
    for row in rows:
        by_state.setdefault((row.n, row.m), []).append(row)
    for (n, m), picked in by_state.items():
        for stem, attr in PLOT_QUANTITIES.items():
            lines = [f"# r0  {stem}  state n={n} m={m}"]
            for row in picked:
                value = getattr(row, attr)
                if value is not None:
                    lines.append(f"{row.r0:.17e} {value:.17e}")
            name = os.path.join(directory, f"{stem}_n{n}m{m}.dat")
            with open(name, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")


def read_config_file(path: str) -> dict[str, str]:
    """Parse key=value lines; blank lines and # comment lines are skipped.

    A # opens a comment only as the first non-blank character of a line, so
    a value such as a path keeps every # it contains.  A key given twice is
    a ValueError naming the line of its second value.
    """
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in values:
                raise ValueError(f"{path}:{lineno}: config key {key!r} given twice")
            values[key] = value
    return values


def parse_states(text: str) -> tuple[tuple[int, int], ...]:
    """Parse a state list like '1,0;2,0;2,1;3,2'; SweepConfig refuses an empty one."""
    states = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            n, m = (int(part) for part in chunk.split(","))
        except ValueError:  # a part that is no integer, or not two parts
            raise ValueError(f"bad state {chunk!r}, expected 'n,m'") from None
        states.append((n, m))
    return tuple(states)


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOL_WORDS[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean word, got {text!r}") from None


# SweepConfig field -> (parse its config-file text, render it back as text)
SETTINGS = {
    "states": (parse_states, lambda states: ";".join(f"{n},{m}" for n, m in states)),
    "r0_min": (float, repr),
    "r0_max": (float, repr),
    "points": (int, str),
    "spacing": (str, str),
    "output_path": (str, str),
    "emit_plot_data": (_parse_bool, lambda flag: "true" if flag else "false"),
}


def config_from(
    file_values: dict[str, str] | None, flag_values: dict[str, object]
) -> SweepConfig:
    """Merge config-file values and CLI flag values; flags win."""
    merged: dict[str, object] = {}
    for key, raw in (file_values or {}).items():
        if key not in SETTINGS:
            raise ValueError(f"unknown config key {key!r}")
        try:
            merged[key] = SETTINGS[key][0](raw)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: {exc}") from None
    merged.update((key, value) for key, value in flag_values.items() if value is not None)
    return SweepConfig(**merged)


def config_echo(cfg: SweepConfig, jobs: int) -> str:
    """Render the resolved configuration as diff-friendly key=value lines.

    The text reads back through --config.  jobs does not change the output,
    so it is recorded as a comment.
    """
    lines = [f"{key}={render(getattr(cfg, key))}\n" for key, (_, render) in SETTINGS.items()]
    return "".join(lines) + f"# jobs={jobs}\n"
