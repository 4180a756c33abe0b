"""Child process of the benchmark: the only process that imports qasym.

    python perfbench/worker.py setup PLAN   import qasym, build the workload's
                                            inputs, print one JSON line, exit
    python perfbench/worker.py run PLAN     run the workload's invocations
                                            through qasym.cli.main and write
                                            the result file the plan names

PLAN is a JSON file written by run.py.  The run is a closed loop: one
invocation at a time, whole passes over the workload's invocations, at
least ``passes`` of them and more until ``seconds`` have passed.  Only the
first ``passes`` are timed for the metrics; later ones are checked like
the rest.  Every untraced invocation runs under a host speed sampler
(hostspeed.py).  With ``trace`` set, one traced pass follows the untraced
loop; its stdout must match the untraced stdout byte for byte.
"""

from __future__ import annotations

import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

import hostspeed


def setup(plan: dict) -> None:
    """Fresh interpreter to ready: import qasym and build every input."""
    t0 = time.perf_counter()
    from qasym import cli, qseries
    t1 = time.perf_counter()
    for name in plan["presets"]:
        cli.get_preset(name)
    for path in plan["spec_files"]:
        loaded = cli.load_spec(path)
        if isinstance(loaded, qseries.ProductSpec):
            qseries.normalize(loaded)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}), flush=True)


def _invoke(main, argv: list[str]) -> tuple[int, str, str, str, int]:
    """(exit status or -1, stdout, stderr, exception, wall ns) of one call."""
    out, err = io.StringIO(), io.StringIO()
    exc = ""
    t0 = time.perf_counter_ns()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    except Exception:  # the program crashed: a failed invocation, not ours
        status = -1
        exc = traceback.format_exc(limit=-3)
    wall = time.perf_counter_ns() - t0
    return status, out.getvalue(), err.getvalue(), exc, wall


def _openblas() -> dict:
    """OpenBLAS build string and thread count of the loaded library."""
    info = {"config": None, "threads": None}
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_config.argtypes = []
                get_threads.restype = ctypes.c_int
                get_threads.argtypes = []
                return {"config": get_config().decode(), "threads": get_threads()}
    return info


def identity() -> dict:
    import numpy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "openblas": _openblas(), "cpu_model": cpu or platform.processor(),
            "nproc": len(os.sched_getaffinity(0))}


def run(plan: dict) -> None:
    from qasym import cli
    invocations = plan["invocations"]
    first: list[dict] = []
    # [pass, index, wall_ns, status, same_as_first, busy_ns, probes_ns]
    records = []
    sampler = hostspeed.Sampler()
    deadline = time.perf_counter_ns() + int(plan["seconds"] * 1e9)
    n_pass = 0
    while n_pass < plan["passes"] or time.perf_counter_ns() < deadline:
        for i, inv in enumerate(invocations):
            (status, out, err, exc, wall), busy, probes = sampler.timed(
                lambda: _invoke(cli.main, inv["argv"]))
            if n_pass == 0:
                first.append({"status": status, "stdout": out, "stderr": err,
                              "exception": exc})
                same = True
            else:
                same = status == first[i]["status"] and out == first[i]["stdout"]
            records.append([n_pass, i, wall, status, same, busy, probes])
        n_pass += 1
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    traced = (_traced_pass(cli, invocations, first, plan["spans_path"])
              if plan["trace"] else None)

    result = {"passes": n_pass, "records": records,
              "first": first, "peak_rss_kb": peak_rss_kb, "traced": traced,
              "identity": identity()}
    with open(plan["result_path"], "w") as fh:
        json.dump(result, fh)


def _traced_pass(cli, invocations: list[dict], first: list[dict],
                 spans_path: str) -> dict:
    from qasym import expansion, phase, presets, qseries, quad
    import tracing
    tracer = tracing.Tracer()
    tracer.install({"cli": cli, "expansion": expansion, "phase": phase,
                    "presets": presets, "qseries": qseries, "quad": quad})
    main = tracer.wrap(tracing.ROOT, cli.main)
    identical = True
    t0 = time.perf_counter_ns()
    try:
        for i, inv in enumerate(invocations):
            tracer.invocation = i
            status, out, *_ = _invoke(main, inv["argv"])
            identical &= (status == first[i]["status"]
                          and out == first[i]["stdout"])
    finally:
        tracer.uninstall()
    wall = time.perf_counter_ns() - t0
    tracer.write(spans_path)
    return {"wall_ns": wall, "stdout_identical": identical,
            "missing_bindings": tracer.missing, "layers": tracer.summary()}


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in ("setup", "run"):
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        plan = json.load(fh)
    (setup if argv[0] == "setup" else run)(plan)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
