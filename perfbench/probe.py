"""Set-up probe: a fresh interpreter imports hydrodisc and makes its first calls.

Usage: python3 perfbench/probe.py

Prints "ready" once the calls have returned; run.py times the interval from
starting this process to that line.  It imports the CLI, which imports
every layer, then makes the cheapest calls that reach each layer the
workloads time: one 2p point at r0 = 2 through sweep.evaluate_point
(solve, measures, momentum table, Bessel kernel) and one oracle energy.
Every workload uses the same probe, so setup_s is a property of the
program, measured afresh in each run.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from hydrodisc import cli, fd_eigensolver, sweep  # noqa: E402, F401
from hydrodisc.free_atom import StateLabel  # noqa: E402

sweep.evaluate_point(2, 1, 2.0)
fd_eigensolver.oracle_energy(StateLabel(2, 1), 2.0)
print("ready", flush=True)
