"""Workload definitions and the seeded input generator.

A workload is a fixed (state, r0-grid) mix.  The seed only moves the whole
log-spaced grid up by a small factor, at most MAX_LOG_SHIFT in log r0 (0.1%
of r0, a small fraction of one grid step), so every seed keeps the same mix
and the same cost while no two seeds or passes hand the program the same
radii.  The program sees only the resulting CLI arguments (sweep workloads)
or r0 values (bound-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DEFAULT_STATES = ((1, 0), (2, 0), (2, 1), (3, 2))

# Upper end of the seed's grid shift, in log r0.  Kept small because cost and
# memory are not smooth in r0: power-of-two panel counts and octave grid
# extensions change the kernel shapes, and a 2% shift of the sweep-tight grid
# moved peak memory between 148 and 231 MB and pass time by up to 20%.
MAX_LOG_SHIFT = math.log(1.001)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; `why` records the reason it was chosen."""

    name: str
    kind: str  # "sweep": `hydrodisc sweep` through cli.main; "bound": solve + oracle
    r0_min: float
    r0_max: float
    points: int
    why: str
    states: tuple[tuple[int, int], ...] = DEFAULT_STATES


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-wide",
            kind="sweep",
            r0_min=4.0,
            r0_max=16.0,
            points=3,
            why=(
                "wide walls: the momentum table does ~99% of the work (many "
                "r-panels per Bessel period, long arithmetic p-grid, doubling "
                "pass), so a table optimisation shows here"
            ),
        ),
        Workload(
            name="sweep-tight",
            kind="sweep",
            r0_min=0.5,
            r0_max=2.0,
            points=5,
            why=(
                "tight walls: p_max climbs toward the 2^10/(eta r0) cap with few "
                "r-panels, and the solver's bracket expansion carries real "
                "weight, so a change that helps wide walls but hurts tight ones shows"
            ),
        ),
        Workload(
            name="bound-check",
            kind="bound",
            r0_min=0.5,
            r0_max=40.0,
            points=40,
            why=(
                "energy-only path of verify criterion 4 (solve then oracle_energy "
                "on the full default grid): never builds a table, so momentum "
                "work must not move it while solver work shows in speed and accuracy"
            ),
        ),
    )
}


@dataclass(frozen=True)
class PassInput:
    """The inputs of one timed pass, as the program receives them."""

    states: tuple[tuple[int, int], ...]
    r0_min: float
    r0_max: float
    points: int

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r0_min, self.r0_max, self.points)

    def keys(self) -> list[tuple[int, int, float]]:
        """(n, m, r0) of every point, in the order the sweep CSV must list them."""
        return [(n, m, float(r0)) for n, m in sorted(self.states) for r0 in self.radii()]

    def sweep_argv(self, out_dir: str) -> list[str]:
        states = ";".join(f"{n},{m}" for n, m in self.states)
        return [
            "sweep",
            "--states", states,
            "--r0-min", repr(self.r0_min),
            "--r0-max", repr(self.r0_max),
            "--points", str(self.points),
            "--jobs", "1",
            "--out", out_dir,
        ]


def pass_input(workload: Workload, seed: int, index: int) -> PassInput:
    """Inputs of pass `index` of a run with `seed`; same arguments, same inputs."""
    if seed < 0 or index < 0:
        raise ValueError(f"seed and pass index must be >= 0, got {seed}, {index}")
    u = np.random.default_rng([seed, index]).random()
    factor = math.exp(u * MAX_LOG_SHIFT)
    return PassInput(
        states=workload.states,
        r0_min=workload.r0_min * factor,
        r0_max=workload.r0_max * factor,
        points=workload.points,
    )
