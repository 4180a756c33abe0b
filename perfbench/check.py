"""Output check of one invocation, per (spec, t) row.

A row fails when the invocation raised, exited 1 or 2 (or 3 without
printing its rows), printed a non-finite number, or printed a value that
fails one of these checks:

* cross-validation at each verify grid's smallest t: ``ratio_sum_integral``
  and ``ratio_sum_asym`` within ``RATIO_TOL`` of 1;
* exact tails: ``euler`` is 1 on every route; on the asym route ``euler-b2``
  is its leading tail term t exactly (the route has no higher terms, so
  ``1 - e^-t`` itself is not its value);
* fixed preset inputs: every log value within the seed commit's round-off
  of ``reference.json``.

Exit 3 from the verify verdict alone ("deviations are not strictly
shrinking") is not a failure; it is tallied separately.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

CSV_HEADER = "t,log_sum,log_integral,log_asym,ratio_sum_integral,ratio_sum_asym"
VERDICT = "verify: sum/integral deviations are not strictly shrinking"

# Largest |ratio - 1| at the smallest t, as (sum/integral, sum/asym).  At
# the seed commit the largest values were 4.5e-13 (1 ulp of f0's log) and
# 8.8e-5 on verify-small-t, and 2.3e-13 and 1.1e-3 over 720 specs (seeds
# 300-344) of verify-random-desk.  The sum/integral tolerance allows a few
# ulp of the largest log value (19733 at t = 1e-4, about 200-1000 at
# t = 0.0025); the sum/asym one about 3x the largest seed value.
RATIO_TOL = {"verify-small-t": (2e-11, 2.5e-4),
             "verify-random-desk": (1e-12, 3e-3)}

# Round-off allowance for a log value: this many ulps of max(|value|, 1),
# or 4x the seed's own sum-vs-integral gap on that row if larger.
REF_ULPS = 64
GAP_FACTOR = 4.0


@dataclass
class Outcome:
    failed_rows: set[int] = field(default_factory=set)
    verdict_exit3: bool = False
    problems: list[str] = field(default_factory=list)

    def fail(self, rows, why: str) -> None:
        self.failed_rows |= set(rows)
        self.problems.append(why)


def _tol(value: float, gap: float = 0.0) -> float:
    return max(REF_ULPS * math.ulp(max(abs(value), 1.0)), GAP_FACTOR * gap)


def check(workload: str, inv, status: int, stdout: str, stderr: str,
          reference: dict) -> Outcome:
    """Check one invocation's output; ``inv`` is a ``workloads.Invocation``."""
    out = Outcome()
    every = range(inv.rows)
    if status == -1:
        out.fail(every, "raised an exception")
        return out
    out.verdict_exit3 = (inv.command == "verify" and status == 3
                         and stderr.startswith(VERDICT))
    if status not in (0, 3) or (status == 3 and not out.verdict_exit3):
        out.fail(every, f"exit {status}: {stderr.strip()[:200]}")
        return out
    if inv.command == "verify":
        _check_verify(workload, inv, stdout, reference, out)
    else:
        _check_asym(inv, stdout, reference, out)
    return out


def _check_verify(workload: str, inv, stdout: str, reference: dict,
                  out: Outcome) -> None:
    lines = stdout.splitlines()
    if not lines or lines[0] != CSV_HEADER or len(lines) - 1 != inv.rows:
        out.fail(range(inv.rows), "CSV header or row count wrong")
        return
    rows = []
    for j, line in enumerate(lines[1:]):
        try:
            vals = [float(x) for x in line.split(",")]
        except ValueError:
            vals = []
        if len(vals) != 6 or not all(math.isfinite(x) for x in vals):
            out.fail([j], f"row {j}: not six finite numbers")
        rows.append(vals)
    if out.failed_rows:
        return
    ts = [r[0] for r in rows]
    if any(a <= b for a, b in zip(ts, ts[1:])):
        out.fail(range(inv.rows), "t column not strictly descending")
        return
    last = inv.rows - 1
    tol_si, tol_sa = RATIO_TOL[workload]
    if abs(rows[last][4] - 1.0) > tol_si:
        out.fail([last], f"ratio_sum_integral {rows[last][4]!r} at smallest t")
    if abs(rows[last][5] - 1.0) > tol_sa:
        out.fail([last], f"ratio_sum_asym {rows[last][5]!r} at smallest t")
    ref = reference.get(workload, {}).get(inv.label)
    if ref is None:
        return
    for j, (row, (t, ls, li, la)) in enumerate(zip(rows, ref)):
        gap = abs(ls - li)
        for name, got, want, tol in (("log_sum", row[1], ls, _tol(ls, gap)),
                                     ("log_integral", row[2], li, _tol(li, gap)),
                                     ("log_asym", row[3], la, _tol(la))):
            if inv.label == "euler":
                want = 0.0
            if row[0] != t or abs(got - want) > tol:
                out.fail([j], f"row {j} {name}: {got!r}, want {want!r} +- {tol:.1e}")


def _check_asym(inv, stdout: str, reference: dict, out: Outcome) -> None:
    try:
        rows = json.loads(stdout)["results"]["rows"]
    except (ValueError, KeyError, TypeError):
        out.fail(range(inv.rows), "output is not the asym JSON document")
        return
    if len(rows) != inv.rows:
        out.fail(range(inv.rows), f"{len(rows)} rows, want {inv.rows}")
        return
    ref = reference["asym-sweep"][inv.label]
    for j, (row, (t, lv)) in enumerate(zip(rows, ref)):
        nums = [row.get(k) for k in ("t", "log_value", "rate", "t_power",
                                     "log_constant", "correction_factor")]
        if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in nums):
            out.fail([j], f"row {j}: non-finite or missing number")
            continue
        want = {"euler": 0.0, "euler-b2": math.log(t)}.get(inv.label, lv)
        if row["t"] != t or row.get("sign") != 1 or abs(row["log_value"] - want) > _tol(want):
            out.fail([j], f"row {j}: t={row['t']!r} log_value={row['log_value']!r}, "
                          f"want {want!r}")
