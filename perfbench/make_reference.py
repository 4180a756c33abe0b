"""Record the reference values that the output check compares the fixed
preset workloads against.

    PYTHONPATH=src python3 perfbench/make_reference.py > perfbench/reference.json

The checked-in file was recorded from the program before any performance
work, so later versions are held to the numbers they started from.  For
each verify row it stores t and the three logs; for each asym row t and
log_value.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from qasym import cli

import workloads


def main() -> int:
    ref: dict = {"verify-small-t": {}, "asym-sweep": {}}
    for workload in ref:
        for inv in workloads.invocations(workload, []):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                status = cli.main(list(inv.argv))
            if inv.command == "verify":
                rows = [[float(x) for x in line.split(",")[:4]]
                        for line in out.getvalue().splitlines()[1:]]
            else:
                rows = [[r["t"], r["log_value"]]
                        for r in json.loads(out.getvalue())["results"]["rows"]]
            if status not in (0, 3) or len(rows) != inv.rows:
                print(f"{inv.label}: status {status}, {len(rows)} rows", file=sys.stderr)
                return 1
            ref[workload][inv.label] = rows
    json.dump(ref, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
