"""qasym benchmark: one workload, timed end to end, or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a qasym source tree.  Workloads (see workloads.py):
verify-small-t, verify-random-desk, asym-sweep.

With ``--trace 0`` the workload runs untraced in a child process for S
seconds of whole passes and the last stdout line is a JSON object with the
end-to-end metrics.  Every run makes at least ``workloads.PASSES`` passes and
the timings come from exactly those, so parent and change are measured on
the same sample count; passes beyond them are only checked.  Timings are in
host-normalised seconds (hostspeed.py; set-up: reference children, see
measure_setup).  With ``--trace 1`` the same untraced loop is followed by
one traced pass, and the JSON object holds the per-layer metrics.  Every
output is checked (check.py); lines before the JSON object name each metric
with its unit, and the full record goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import check
import hostspeed
import specgen
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_REPEATS = 4           # set-up children before and again after the workload
REF_SETUP_S = 0.2           # about a reference child's time on a 2-vCPU Xeon
DEADLINE_S = 170.0          # the whole run must end within 180 s
TAIL_BEYOND = 10            # samples beyond the reported tail percentile

END_TO_END = {"rows_per_s": "1/s", "call_p50_s": "s", "call_tail_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def spread(samples: list[float]) -> dict:
    """Median, quartiles and count of a sample."""
    if len(samples) == 1:
        q1 = med = q3 = samples[0]
    else:
        q1, med, q3 = statistics.quantiles(samples, n=4)
        med = statistics.median(samples)
    return {"median": med, "q1": q1, "q3": q3, "n": len(samples)}


def tail(samples: list[float]) -> dict:
    """Highest percentile with TAIL_BEYOND samples beyond it; the maximum
    (with 0 beyond) when there are too few samples."""
    xs = sorted(samples)
    if len(xs) <= TAIL_BEYOND:
        return {"value": xs[-1], "percentile": 100.0, "beyond": 0, "n": len(xs)}
    k = len(xs) - TAIL_BEYOND - 1
    return {"value": xs[k], "percentile": 100.0 * (k + 1) / len(xs),
            "beyond": TAIL_BEYOND, "n": len(xs)}


def source_identity() -> dict:
    """Git commit when the tree is a checkout, and a hash of src/ always."""
    commit = None
    try:
        cp = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True, timeout=10)
        lines = cp.stdout.split()
        if cp.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for path in sorted(glob.glob(os.path.join(src, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, src).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def reference_child_s(deadline: float) -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits: the
    bulk of set-up, without qasym, as a probe of the host's speed at it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, cwd=ROOT,
                   timeout=max(deadline - time.monotonic(), 1.0))
    return time.perf_counter() - t0


def measure_setup(plan_path: str, deadline: float) -> list[dict]:
    """Fresh-interpreter set-up, SETUP_REPEATS times: wall seconds from
    process start to the child's ready line, plus its own import time, and
    the same host-normalised by reference children run right before and
    after it.  Called before and after the workload, so the median spans
    the whole run."""
    worker = os.path.join(HERE, "worker.py")
    out = []
    ref_before = reference_child_s(deadline)
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, worker, "setup", plan_path],
                                stdout=subprocess.PIPE, text=True, env=_child_env(),
                                cwd=ROOT)
        try:
            ready, _, _ = select.select([proc.stdout], [], [],
                                        max(deadline - time.monotonic(), 1.0))
            line = proc.stdout.readline() if ready else ""
            wall = time.perf_counter() - t0
            proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if proc.returncode != 0 or not line:
            raise RuntimeError(f"set-up child failed with exit {proc.returncode}")
        ref_after = reference_child_s(deadline)
        out.append({"wall_s": wall, **json.loads(line),
                    "norm_s": wall * 2.0 * REF_SETUP_S / (ref_before + ref_after)})
        ref_before = ref_after
    return out


def run_worker(plan_path: str, deadline: float) -> None:
    worker = os.path.join(HERE, "worker.py")
    proc = subprocess.Popen([sys.executable, worker, "run", plan_path],
                            env=_child_env(), cwd=ROOT)
    try:
        proc.wait(timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"workload child failed with exit {proc.returncode}")


def evaluate(workload: str, invs: list, result: dict, reference: dict) -> dict:
    """Check every output and derive the end-to-end metrics.  Every pass is
    checked; the timings come from the first PASSES[workload] passes only:
    each invocation's wall time less the probes inside it, host-normalised
    by those probes (hostspeed.py)."""
    scored = workloads.PASSES[workload]
    outcomes = [check.check(workload, inv, f["status"], f["stdout"], f["stderr"],
                            reference)
                for inv, f in zip(invs, result["first"])]
    attempted = failed = 0
    verify_calls = verdict_exit3 = 0
    calls, raw_calls, factors = [], [], []
    pass_norm, pass_busy = [0.0] * scored, [0.0] * scored
    for n_pass, i, wall_ns, _, same, busy_ns, probes in result["records"]:
        inv, outcome = invs[i], outcomes[i]
        attempted += inv.rows
        failed += inv.rows if not same else len(outcome.failed_rows)
        if n_pass < scored:
            factors.append(hostspeed.factor(probes))
            calls.append(busy_ns / 1e9 / factors[-1])
            raw_calls.append(wall_ns / 1e9)
            pass_norm[n_pass] += calls[-1]
            pass_busy[n_pass] += busy_ns / 1e9
        if inv.command == "verify":
            verify_calls += 1
            verdict_exit3 += outcome.verdict_exit3
    # Medians, not best-of: on a shared host a fast repeat is as much an
    # outlier as a slow one, and the normalisation leaves both behind.
    good_rows = sum(inv.rows - len(o.failed_rows) for inv, o in zip(invs, outcomes))
    return {
        "attempted": attempted, "failed": failed,
        "problems": {inv.label: o.problems for inv, o in zip(invs, outcomes)
                     if o.problems},
        "nondeterministic": sorted({invs[r[1]].label for r in result["records"]
                                    if not r[4]}),
        "rows_per_s": good_rows / statistics.median(pass_norm),
        "call_s": spread(calls),
        "call_wall_s": spread(raw_calls),
        "call_tail_s": tail(calls),
        "pass_s": spread(pass_norm),
        "pass_busy_s": spread(pass_busy),
        "host_factor": spread(factors),
        "fail_share": failed / attempted,
        "verdict_exit3_share": (verdict_exit3 / verify_calls if verify_calls else None),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def layer_metrics(traced: dict, setup_runs: list[dict],
                  pass_median_s: float) -> dict[str, tuple[float, str]]:
    """Name -> (value, unit) of every per-layer metric of the traced pass:
    each ``*_ns`` field of a ``Tracer.summary()`` row becomes ``*_s`` in
    seconds, every other field is a count."""
    out: dict[str, tuple[float, str]] = {}
    for layer, row in traced["layers"].items():
        for key, value in row.items():
            if key.endswith("_ns"):
                out[f"{layer}.{key[:-3]}_s"] = (value / 1e9, "s")
            else:
                out[f"{layer}.{key}"] = (value, "count")
    out["setup.import_s"] = (statistics.median(s["import_s"] for s in setup_runs), "s")
    out["trace.overhead_share"] = (traced["wall_ns"] / 1e9 / pass_median_s - 1.0,
                                   "ratio")
    return out


def self_shares(traced: dict) -> list[tuple[str, float]]:
    layers = traced["layers"]
    total = sum(v["self_ns"] for v in layers.values()) or 1
    return sorted(((k, v["self_ns"] / total) for k, v in layers.items()),
                  key=lambda kv: -kv[1])


def counters_repeat(path: str, src_sha256: str, traced: dict) -> bool | None:
    """Compare the work counters with those of the previous traced run of
    the same workload, seed and source (None if there was none), then
    store these for the next run."""
    counts = {layer: {k: v for k, v in row.items() if not k.endswith("_ns")}
              for layer, row in traced["layers"].items()}
    previous = None
    if os.path.exists(path):
        with open(path) as fh:
            doc = json.load(fh)
        if doc["src_sha256"] == src_sha256:
            previous = doc["counters"]
    _write_json(path, {"src_sha256": src_sha256, "counters": counts})
    return None if previous is None else previous == counts


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qasym", "cli.py")):
        print(f"error: no qasym source tree at {ROOT}/src/qasym", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        reference = json.load(fh)

    run_dir = os.path.join(HERE, "out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    spec_files = (specgen.write_specs(args.seed, os.path.join(run_dir, "specs"))
                  if args.workload == "verify-random-desk" else [])
    invs = workloads.invocations(args.workload, spec_files)
    plan_path = os.path.join(run_dir, "plan.json")
    _write_json(plan_path, {
        "presets": list(workloads.presets(args.workload)),
        "spec_files": spec_files,
        "invocations": [{"label": i.label, "argv": list(i.argv)} for i in invs],
        "passes": workloads.PASSES[args.workload], "seconds": args.seconds,
        "trace": bool(args.trace),
        "result_path": os.path.join(run_dir, "worker.json"),
        "spans_path": os.path.join(run_dir, "spans.jsonl")})

    try:
        setup_runs = measure_setup(plan_path, deadline)
        run_worker(plan_path, deadline)
        setup_runs += measure_setup(plan_path, deadline)
    except (RuntimeError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    with open(os.path.join(run_dir, "worker.json")) as fh:
        result = json.load(fh)

    ev = evaluate(args.workload, invs, result, reference)
    setup_s = spread([s["norm_s"] for s in setup_runs])
    e2e = {"rows_per_s": ev["rows_per_s"], "call_p50_s": ev["call_s"]["median"],
           "call_tail_s": ev["call_tail_s"]["value"],
           "peak_rss_mb": ev["peak_rss_mb"], "setup_s": setup_s["median"]}
    correct = ev["failed"] == 0 and not ev["nondeterministic"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "identity": {**source_identity(), **result["identity"],
                                                "seed": args.seed},
              "passes": result["passes"], "scored_passes": workloads.PASSES[args.workload],
              "correct": correct, "end_to_end": e2e,
              "timings": {"call_s": ev["call_s"], "pass_busy_s": ev["pass_busy_s"],
                          "call_tail_s": ev["call_tail_s"], "pass_s": ev["pass_s"],
                          "call_wall_s": ev["call_wall_s"],
                          "host_factor": ev["host_factor"],
                          "setup_s": setup_s,
                          "setup_wall_s": spread([s["wall_s"] for s in setup_runs]),
                          "setup_import_s": spread([s["import_s"] for s in setup_runs])},
              "attempted": ev["attempted"], "failed": ev["failed"],
              "fail_share": ev["fail_share"],
              "verdict_exit3_share": ev["verdict_exit3_share"],
              "problems": ev["problems"], "nondeterministic": ev["nondeterministic"]}

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']} "
          f"({workloads.PASSES[args.workload]} timed)  "
          f"invocations {len(result['records'])}")
    for name, unit in END_TO_END.items():
        print(f"metric {name} = {e2e[name]:.6g} {unit}")
    ct = ev["call_tail_s"]
    print(f"  call_tail_s is p{ct['percentile']:.1f} of {ct['n']} calls, "
          f"{ct['beyond']} beyond")
    hf = ev["host_factor"]
    print(f"  host speed probe over reference: median {hf['median']:.3f} "
          f"(q1 {hf['q1']:.3f}, q3 {hf['q3']:.3f}, n {hf['n']}); invocation "
          "times are host-normalised seconds")
    print(f"metric fail_share = {ev['fail_share']:.6g} ratio "
          f"({ev['failed']} of {ev['attempted']} rows)")
    if ev["verdict_exit3_share"] is not None:
        print(f"metric verdict_exit3_share = {ev['verdict_exit3_share']:.6g} ratio "
              "(known verify-verdict defect, not a benchmark fault)")
    for label, problems in ev["problems"].items():
        print(f"check {label}: {'; '.join(problems[:3])}")

    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
    if args.trace:
        traced = result["traced"]
        layers = layer_metrics(traced, setup_runs, ev["pass_busy_s"]["median"])
        repeat = counters_repeat(
            os.path.join(HERE, "out", f"counters-{args.workload}-seed{args.seed}.json"),
            record["identity"]["src_sha256"], traced)
        identical = traced["stdout_identical"]
        correct = correct and identical and repeat is not False
        shares = self_shares(traced)
        record.update(per_layer={k: v for k, (v, _) in layers.items()}, counters_repeat=repeat,
                      traced_stdout_identical=identical,
                      missing_bindings=traced["missing_bindings"],
                      self_share=dict(shares), correct=correct)
        for name, (value, unit) in layers.items():
            print(f"layer {name} = {value:.6g} {unit}")
        print(f"traced stdout identical to untraced: {identical}; counters repeat "
              f"the previous traced run: {'no earlier run' if repeat is None else repeat}")
        for name, share in shares[:5]:
            print(f"self share {name} = {share:.4f}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
    _write_json(os.path.join(run_dir, "results.json"), record)
    print(json.dumps({"correct": correct, "attempted": ev["attempted"],
                      "failed": ev["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
