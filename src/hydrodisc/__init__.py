"""Information measures of the two-dimensional hydrogen atom in a hard disc.

The package covers the free atom in closed form, a variational solver for
the confined states, Hankel transforms to momentum space, and a sweep CLI
that tracks variance, Fisher information and their Cramer-Rao product as
the wall radius shrinks.
"""

from .confined import ConfinedState, coulomb_expectation, solve
from .fd_eigensolver import oracle_energy
from .free_atom import (
    FreeMeasures,
    StateLabel,
    free_energy,
    free_measures,
    momentum_mean,
    table1_states,
)
from .measures import (
    NORM_TOLERANCE,
    MeasureReport,
    free_momentum_report,
    free_position_report,
    momentum_measures,
    position_measures,
)
from .momentum import RadialMomentumTable, build_table, hankel_transform
from .specfun import AccuracyError, ConvergenceError
from .sweep import (
    SweepConfig,
    SweepRow,
    emit_csv,
    emit_plot_data,
    parse_csv,
    run_sweep,
    table1_text,
)

__all__ = [
    "AccuracyError",
    "ConfinedState",
    "ConvergenceError",
    "FreeMeasures",
    "MeasureReport",
    "NORM_TOLERANCE",
    "RadialMomentumTable",
    "StateLabel",
    "SweepConfig",
    "SweepRow",
    "build_table",
    "coulomb_expectation",
    "emit_csv",
    "emit_plot_data",
    "free_energy",
    "free_measures",
    "free_momentum_report",
    "free_position_report",
    "hankel_transform",
    "momentum_mean",
    "momentum_measures",
    "oracle_energy",
    "parse_csv",
    "position_measures",
    "run_sweep",
    "solve",
    "table1_states",
    "table1_text",
]
