"""The benchmark's three workloads: which CLI invocations make one pass.

* verify-small-t: ``verify --t 0.001,0.0001`` on one preset per structural
  class (single-term peak, two-term mixed-sign peak, three-term tail, exact
  tail).  Small t is where the inner k-sum of ``log_summand`` dominates.
* verify-random-desk: ``verify`` on a moderate-t log grid for 16 seeded
  random multi-symbol specs with non-integer ``alpha/beta``: many short
  kernel calls and the ``load_spec``/``normalize`` path.
* asym-sweep: ``asym`` on a 400-point log grid for all seven presets, which
  exercises the phase, expansion and special-function layers.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

SMALL_T_PRESETS = ("ramanujan", "f0", "phi-minus", "euler")
SMALL_T = "0.001,0.0001"
DESK_GRID = "0.1:0.0025:6:log"
ASYM_PRESETS = ("ramanujan", "f0", "phi-minus", "rphis", "simple-r", "euler",
                "euler-b2")
ASYM_GRID = "0.1:0.0001:400:log"

WORKLOADS = ("verify-small-t", "verify-random-desk", "asym-sweep")

# Passes every run times, whatever --seconds says: a fixed sample count keeps
# the tail percentile (10 samples beyond it) the same from run to run.  At
# the seed commit each count takes about 20-50 s on a 2-vCPU Xeon.
PASSES = {"verify-small-t": 1, "verify-random-desk": 2, "asym-sweep": 4}


@dataclass(frozen=True)
class Invocation:
    label: str            # preset name or spec file name
    command: str          # "verify" or "asym"
    argv: tuple[str, ...]
    rows: int             # (spec, t) rows one invocation prints


def invocations(workload: str, spec_files: list[str]) -> list[Invocation]:
    """One pass of ``workload``; ``spec_files`` feeds verify-random-desk."""
    if workload == "verify-small-t":
        return [Invocation(p, "verify", ("verify", "--preset", p, "--t", SMALL_T),
                           len(SMALL_T.split(",")))
                for p in SMALL_T_PRESETS]
    if workload == "verify-random-desk":
        return [Invocation(os.path.basename(path), "verify",
                           ("verify", "--spec", path, "--t-grid", DESK_GRID),
                           int(DESK_GRID.split(":")[2]))
                for path in spec_files]
    if workload == "asym-sweep":
        return [Invocation(p, "asym", ("asym", "--preset", p, "--t-grid", ASYM_GRID),
                           int(ASYM_GRID.split(":")[2]))
                for p in ASYM_PRESETS]
    raise ValueError(f"unknown workload {workload!r}")


def presets(workload: str) -> tuple[str, ...]:
    return {"verify-small-t": SMALL_T_PRESETS, "asym-sweep": ASYM_PRESETS}.get(
        workload, ())
