"""hydrodisc benchmark: one workload, timed passes, checked outputs, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload sweep-wide --seed 1 --seconds 30 --trace 0

The program is imported from ./src of the checkout, never from an installed
copy.  A run repeats timed passes of the workload (see workloads.py) until
--seconds of pass time have accumulated, at least MIN_PASSES of them, and
checks every point of every pass (see checks.py).  With --trace 0 it reports
the end-to-end metrics:

    setup_s             median over SETUP_PROBES fresh interpreters of the time
                        to import hydrodisc and return from its first calls
                        (probe.py); most probes run before the timed passes,
                        the rest after them, so the median spans the run
    wall_s              median wall time of one pass
    points_per_s        points completed per second of pass time
    peak_rss_mb         peak resident memory of this process
    energy_excess_max   max and mean of E_solve - E_oracle (Ha) over every
    energy_excess_mean  point of the run; the sweep workloads compute the
                        oracle outside the timed region

With --trace 1 it alternates untraced and traced passes on the same inputs
and reports the per-layer metrics of layers.py, plus trace.overhead_s
(median traced minus median untraced pass time).  Spans are written to
perfbench/out/ at exit, with a result file holding the environment.

Every metric is printed by name with its unit, then failed_frac and
mom_norm_residual_max (the worst Parseval residual in the CSVs), then the
JSON line.  The exit code is 1 when any output check failed and 2 when the
program is missing or the arguments are bad.
"""

from __future__ import annotations

import os

# one BLAS thread: the benchmark measures a single --jobs 1 process, and a
# second BLAS thread on a shared two-core machine only adds noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, pass_input  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_PASSES = 2
SETUP_PROBES = 7
SETUP_PROBES_FIRST = 4  # run before the timed passes; the rest run after them
# stop starting passes once this much wall time has gone, so a run ends
# within its 180 s limit even when the program has become much slower
RUN_BUDGET_S = 140.0

def load_program():
    """Import hydrodisc from this checkout's src; exit 2 if it is not there."""
    init = os.path.join(SRC, "hydrodisc", "__init__.py")
    if not os.path.isfile(init):
        print(f"perfbench: no program at {init}; run from a full checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    names = ("cli", "confined", "fd_eigensolver", "free_atom", "measures", "sweep")
    mods = {n: importlib.import_module(f"hydrodisc.{n}") for n in names}
    if os.path.dirname(mods["cli"].__file__) != os.path.dirname(init):
        print(f"perfbench: imported hydrodisc from {mods['cli'].__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return mods


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, env=env,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       None)
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "hydrodisc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to its first calls returning."""
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, os.path.join(BENCH_DIR, "probe.py")],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            ready = any(line.strip() == "ready" for line in proc.stdout)
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if not ready or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


class Runner:
    """Executes timed passes of one workload and checks their outputs."""

    def __init__(self, mods, workload, scratch):
        self.mods = mods
        self.workload = workload
        self.scratch = scratch
        self.oracle_cache: dict = {}
        self.points = 0
        self.failed = 0
        self.problems: list[str] = []
        self.excess: list[float] = []
        self.mom_residuals: list[float] = []
        self.untraceable: set[str] = set()

    @contextlib.contextmanager
    def _timed(self, tracer):
        """The timed region; with a tracer, the program's functions are wrapped inside it."""
        if tracer is not None:
            self.untraceable.update(layers.install(tracer))
        try:
            yield
        finally:
            if tracer is not None:
                tracer.restore()

    def _oracle(self, key):
        if key not in self.oracle_cache:
            n, m, r0 = key
            state = self.mods["free_atom"].StateLabel(n, m)
            self.oracle_cache[key] = self.mods["fd_eigensolver"].oracle_energy(state, r0)
        return self.oracle_cache[key]

    def _exact(self, key):
        """The exact wall energy of the point, found next to its oracle value."""
        _, m, r0 = key
        return checks.exact_energy(abs(m), r0, self._oracle(key))

    def warm_up(self, inp) -> None:
        """Evaluate the pass's first point once, untimed and unchecked.

        The first large kernel allocations of a process are slower than later
        ones (fresh pages, allocator thresholds); without this the first pass
        of every run reads several percent slow.  Cold start is what setup_s
        measures.
        """
        n, m, r0 = inp.keys()[0]
        if self.workload.kind == "sweep":
            self.mods["sweep"].evaluate_point(n, m, r0)
        else:
            self.mods["confined"].solve(self.mods["free_atom"].StateLabel(n, m), r0)

    def run_pass(self, inp, tracer=None) -> float:
        """One timed pass; returns its wall time, records checks and excess."""
        if self.workload.kind == "sweep":
            return self._sweep_pass(inp, tracer)
        return self._bound_pass(inp, tracer)

    def _sweep_pass(self, inp, tracer) -> float:
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=self.scratch)
        argv = inp.sweep_argv(out_dir)
        cli = self.mods["cli"]
        with contextlib.redirect_stdout(io.StringIO()), self._timed(tracer):
            t0 = time.perf_counter()
            if tracer is None:
                status = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    status = cli.main(argv)
            wall = time.perf_counter() - t0
        keys = inp.keys()
        try:
            with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            text = ""
            self.problems.append(f"sweep.csv unreadable: {exc}")
        check = checks.check_sweep_csv(
            text,
            self.mods["sweep"].CSV_HEADER,
            keys,
            {k: self._oracle(k) for k in keys},
            self.mods["measures"].NORM_TOLERANCE,
            self._exact,
        )
        if status != 0 and not check.failed:
            check.failed.update(keys)
            check.problems.append(f"hydrodisc sweep exited {status}")
        shutil.rmtree(out_dir, ignore_errors=True)
        self._record(len(keys), len(check.failed), check.problems, check.excess)
        self.mom_residuals += check.mom_residuals
        return wall

    def _bound_pass(self, inp, tracer) -> float:
        confined = self.mods["confined"]
        fd = self.mods["fd_eigensolver"]
        label = self.mods["free_atom"].StateLabel
        results = []
        with self._timed(tracer):
            t0 = time.perf_counter()
            for n, m, r0 in inp.keys():
                state = label(n, m)
                try:
                    energy = confined.solve(state, r0).energy
                    oracle = fd.oracle_energy(state, r0)
                except Exception as exc:  # a failed point is counted, not fatal
                    results.append(((n, m, r0), None, None, f"{type(exc).__name__}: {exc}"))
                    continue
                results.append(((n, m, r0), energy, oracle, None))
            wall = time.perf_counter() - t0
        for key, _, oracle, error in results:
            if error is None:
                self.oracle_cache[key] = oracle
        failed, problems, excess = 0, [], []
        for key, energy, oracle, error in results:
            reasons = [error] if error else checks.point_problems(
                energy, oracle, lambda key=key: self._exact(key))
            if reasons:
                failed += 1
                problems.append(f"{key}: {'; '.join(reasons)}")
            if energy is not None:
                excess.append(energy - oracle)
        self._record(len(results), failed, problems, excess)
        return wall

    def _record(self, points, failed, problems, excess):
        self.points += points
        self.failed += failed
        self.problems += problems
        self.excess += excess


def run_untraced(runner, workload, seed, seconds) -> dict:
    runner.warm_up(pass_input(workload, seed, 0))
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(runner.run_pass(pass_input(workload, seed, len(walls))))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and sum(walls) >= seconds:
            break
        if elapsed + walls[-1] > RUN_BUDGET_S:
            break
    return {"walls": walls}


def run_traced(runner, workload, seed, seconds) -> dict:
    inp = pass_input(workload, seed, 0)
    alpha_floor = getattr(runner.mods["confined"], "_ALPHA_FLOOR", 0.0)
    runner.warm_up(inp)
    start = time.perf_counter()
    plain, traced, per_pass, all_spans = [], [], [], []
    while True:
        plain.append(runner.run_pass(inp))
        tracer = spans.Tracer()
        wall = runner.run_pass(inp, tracer)
        traced.append(wall)
        per_pass.append(layers.pass_metrics(tracer.spans, wall, alpha_floor))
        all_spans.append(tracer)
        elapsed = time.perf_counter() - start
        if sum(plain) + sum(traced) >= seconds or elapsed + 2 * wall > RUN_BUDGET_S:
            break
    metrics = layers.median_metrics(per_pass)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["mom_norm_residual_max"] = max(runner.mom_residuals, default=0.0)
    return {"walls": plain, "traced_walls": traced, "metrics": metrics,
            "tracers": all_spans, "missing": sorted(runner.untraceable)}


def end_to_end(runner, walls, setup) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "points_per_s": runner.points / sum(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "energy_excess_max": max(runner.excess, default=float("nan")),
        "energy_excess_mean": statistics.fmean(runner.excess) if runner.excess else float("nan"),
    }


def metric_units() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    mods = load_program()
    end_to_end_units, layer_units = metric_units()
    workload = WORKLOADS[args.workload]
    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        runner = Runner(mods, workload, scratch)
        if args.trace:
            run = run_traced(runner, workload, args.seed, args.seconds)
            metrics, units = run["metrics"], layer_units
        else:
            setup = measure_setup(SETUP_PROBES_FIRST)
            run = run_untraced(runner, workload, args.seed, args.seconds)
            setup += measure_setup(SETUP_PROBES - SETUP_PROBES_FIRST)
            metrics, units = end_to_end(runner, run["walls"], setup), end_to_end_units
            run["setup"] = setup
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    for i, tracer in enumerate(run.pop("tracers", ())):
        tracer.write_jsonl(f"{stem}-spans{i}.jsonl", {"pass": i})
    correct = runner.failed == 0 and not runner.problems
    extras = {
        "failed_frac": runner.failed / runner.points,
        "mom_norm_residual_max": max(runner.mom_residuals, default=0.0),
    }
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "environment": env, "metrics": metrics,
                   "extras": extras, "run": run, "problems": runner.problems}, fh, indent=1)

    traced = f" + {len(run['traced_walls'])} traced" if args.trace else ""
    print(f"workload {args.workload} seed {args.seed}: {len(run['walls'])}{traced} passes, "
          f"{runner.points} points, {runner.failed} failed")
    print("environment " + json.dumps(env))
    if run.get("missing"):
        print(f"not traced (absent from the program): {', '.join(run['missing'])}")
    for problem in runner.problems[:20]:
        print(f"CHECK FAILED {problem}")
    for name in units:
        print(f"{name:36s} {metrics[name]:.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':36s} {extras['failed_frac']:.6g} ratio")
        print(f"{'mom_norm_residual_max':36s} {extras['mom_norm_residual_max']:.6g} ratio")
    result = {
        "correct": correct,
        "attempted": runner.points,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
