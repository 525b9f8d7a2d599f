"""Output checks on every point a pass produces.

A sweep point passes when its CSV row carries no error marker, every
numeric field is finite, its energy respects the wall-energy bound (below),
both norm residuals are within the program's NORM_TOLERANCE, and cr = f*v
holds to rounding in both spaces.  The file as a whole must start with the frozen
CSV header and list exactly the requested points, complete and sorted by
(n, m, r0); if it does not, every point of the pass counts as failed.  The CSV is parsed here
rather than with the program's own reader so the check stays independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath

ENERGY_SLACK = 1e-9
# Within this margin above the oracle, the exact wall energy decides the
# bound.  The 4096-cell oracle is off the exact value by up to 2.6e-7 Ha at
# r0 = 0.5-0.8 (rounding in its Richardson sum, whose finest mesh has 16384
# cells; a finer n_cells makes it worse) and by under 2e-9 Ha elsewhere on
# the workloads' grids.
ORACLE_MARGIN = 1e-6
NUMERIC = (
    "alpha_opt", "energy", "v_pos", "f_pos", "cr_pos",
    "v_mom", "f_mom", "cr_mom", "pos_norm_residual", "mom_norm_residual",
)
_ULPS = 4 * 2.0**-52
_R0_RTOL = 1e-12


@dataclass
class PassCheck:
    failed: set = field(default_factory=set)  # (n, m, r0) keys of failed points
    problems: list[str] = field(default_factory=list)
    excess: list[float] = field(default_factory=list)  # E - E_oracle per checked point
    mom_residuals: list[float] = field(default_factory=list)


def parse_rows(text: str) -> tuple[str, list[dict]]:
    """Header line and rows as dicts (n, m, r0, NUMERIC..., error)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return "", []
    rows = []
    width = 3 + len(NUMERIC)
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) not in (width, width + 1):
            rows.append({"malformed": line})
            continue
        try:
            row = {"n": int(parts[0]), "m": int(parts[1]), "r0": float(parts[2])}
            row.update({name: float(p) for name, p in zip(NUMERIC, parts[3:width])})
        except ValueError:
            rows.append({"malformed": line})
            continue
        row["error"] = parts[width] if len(parts) > width else None
        rows.append(row)
    return lines[0], rows


def _product_ok(cr: float, f: float, v: float) -> bool:
    return abs(cr - f * v) <= _ULPS * abs(f * v)


def exact_energy(m: int, r0: float, guess: float) -> float:
    """The wall level of angular number m nearest guess, from the closed form.

    The regular solution of the 2D radial equation is
    R(r) = r^m exp(-k r) M(m + 1/2 - 1/k, 2m + 1, 2 k r) with E = -k^2/2
    (k imaginary above E = 0, where the product stays real), so the levels
    are the zeros of R(r0) in E.  They are found by bisection on its sign in
    30-digit arithmetic, from a bracket 2e-6 Ha wide around guess that grows
    until it holds a sign change; level spacings are above 1e-2 Ha here.
    """

    def sign(energy):
        kappa = mpmath.sqrt(-2 * energy + 0j)
        a = m + mpmath.mpf(1) / 2 - 1 / kappa
        return mpmath.sign(mpmath.re(
            mpmath.exp(-kappa * r0) * mpmath.hyp1f1(a, 2 * m + 1, 2 * kappa * r0)))

    with mpmath.workdps(30):
        r0 = mpmath.mpf(r0)
        centre = mpmath.mpf(guess)
        width = mpmath.mpf(1e-6)
        while True:
            lo, hi = centre - width, centre + width
            s_lo = sign(lo)
            if s_lo * sign(hi) < 0:
                break
            width *= 4
            if width > 1e-3:
                raise ValueError(f"no wall level of m={m}, r0={float(r0)} near {guess}")
        while hi - lo > 1e-17 * max(1.0, abs(guess)):
            mid = (lo + hi) / 2
            s_mid = sign(mid)
            if s_mid == 0:
                return float(mid)
            if s_mid == s_lo:
                lo = mid
            else:
                hi = mid
        return float((lo + hi) / 2)


def point_problems(energy: float, oracle: float, exact) -> list[str]:
    """Checks shared by every workload: a finite energy that respects the bound.

    The bound is E >= E_ref - ENERGY_SLACK, the slack of verify criterion 4.
    E_ref is the oracle when E clears it by ORACLE_MARGIN or more; closer
    than that the oracle's own error could decide either way, so E_ref is
    exact(), the closed-form wall energy (exact_energy).
    """
    if not (math.isfinite(energy) and math.isfinite(oracle)):
        return [f"non-finite energy {energy} or oracle {oracle}"]
    if energy - oracle >= ORACLE_MARGIN:
        return []
    try:
        reference = exact()
    except ValueError as exc:
        return [f"no exact wall energy: {exc}"]
    if energy < reference - ENERGY_SLACK:
        return [f"energy {energy!r} below exact wall energy {reference!r} "
                f"(oracle {oracle!r}) by more than {ENERGY_SLACK:.0e}"]
    return []


def row_problems(row: dict, oracle: float, norm_tolerance: float, exact) -> list[str]:
    """Reasons one sweep row fails; empty when it passes."""
    if row.get("error") is not None:
        return [f"error marker: {row['error']}"]
    bad = [name for name in NUMERIC if not math.isfinite(row[name])]
    if bad:
        return [f"non-finite fields {bad}"]
    out = point_problems(row["energy"], oracle, exact)
    for name in ("pos_norm_residual", "mom_norm_residual"):
        if not row[name] <= norm_tolerance:
            out.append(f"{name} {row[name]:.3e} over {norm_tolerance:.0e}")
    for space in ("pos", "mom"):
        if not _product_ok(row[f"cr_{space}"], row[f"f_{space}"], row[f"v_{space}"]):
            out.append(f"cr_{space} != f_{space}*v_{space}")
    return out


def check_sweep_csv(
    text: str,
    header: str,
    keys: list[tuple[int, int, float]],
    oracle: dict,
    norm_tolerance: float,
    exact,
) -> PassCheck:
    """Check one sweep CSV against the points requested.

    oracle maps each (n, m, r0) key to E_oracle; exact(key) gives the exact
    wall energy where the oracle cannot decide (see point_problems).
    """
    result = PassCheck()
    got_header, rows = parse_rows(text)
    if got_header != header:
        result.problems.append(f"CSV header {got_header!r} differs from {header!r}")
    elif len(rows) != len(keys):
        result.problems.append(f"{len(rows)} rows for {len(keys)} requested points")
    else:
        for row, key in zip(rows, keys):
            if "malformed" in row:
                result.problems.append(f"malformed row {row['malformed']!r}")
            elif (row["n"], row["m"]) != key[:2] or not math.isclose(
                row["r0"], key[2], rel_tol=_R0_RTOL
            ):
                result.problems.append(f"row {row['n'], row['m'], row['r0']} where {key} expected")
    if result.problems:
        result.failed.update(keys)
        return result
    for row, key in zip(rows, keys):
        reasons = row_problems(row, oracle[key], norm_tolerance, lambda: exact(key))
        if reasons:
            result.failed.add(key)
            result.problems.append(f"{key}: {'; '.join(reasons)}")
        if math.isfinite(row["energy"]):
            result.excess.append(row["energy"] - oracle[key])
        if math.isfinite(row["mom_norm_residual"]):
            result.mom_residuals.append(row["mom_norm_residual"])
    return result
