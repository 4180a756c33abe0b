"""Command-line front end.

    qasym <command> [--spec PATH | --preset NAME] [--t LIST | --t-grid START:STOP:COUNT[:log]]
          [--order-L N] [--order-M N] [--rel-tol X] [--out PATH]

Commands: eval (direct summation), integral (adaptive quadrature), asym
(asymptotic expansion), verify (all three, cross-validated, CSV), preset
(list built-ins or dump one as a spec file).

eval/integral/asym emit a single JSON object; verify emits CSV with one row
per t.  Numbers are printed with 17 significant digits so output is
byte-identical across runs and round-trips binary64 exactly.

Exit status: 0 ok, 1 usage/parse error (including a --rel-tol not finite or
below 1e-12), 2 hypothesis failure, 3 numeric failure (including a verify
run whose deviations fail to shrink above their round-off floors).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from itertools import chain, repeat
from operator import is_, itemgetter
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import HypothesisError, QasymError, SpecError
from .expansion import DEFAULT_L, DEFAULT_M, Analysis, analyse, asym_from_parts
from .presets import PRESETS, get_preset
from .qseries import (MAX_DERIV, T_MAX, ProductSpec, QuadTerm, SeriesSpec,
                      mass_ladder, normalize, prefactor_exact, series_sum)
from .quad import integral as quad_integral
from .specfun import N_MAX

CSV_HEADER = "t,log_sum,log_integral,log_asym,ratio_sum_integral,ratio_sum_asym"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _numbers(obj, keys: tuple[str, ...], where: str) -> list[float]:
    """obj[k] for each k in keys; obj must be an object and each obj[k] a
    JSON number (not a bool or string) that is finite as a float."""
    if not isinstance(obj, dict):
        raise SpecError(f"{where} must be an object")
    out = []
    for k in keys:
        if k not in obj:
            raise SpecError(f"{where}: missing required field {k!r}")
        x = obj[k]
        try:
            ok = (isinstance(x, (int, float)) and not isinstance(x, bool)
                  and math.isfinite(x))
        except OverflowError:      # an integer past the float range
            ok = False
        if not ok:
            raise SpecError(f"{where}: field {k!r} must be a finite number, "
                            f"got {x!r}")
        out.append(float(x))
    return out


def _entries(raw: dict, key: str, keys: tuple[str, ...],
             what: str) -> list[list[float]]:
    items = raw.get(key, [])
    if not isinstance(items, list):
        raise SpecError(f"{key!r} must be a list")
    return [_numbers(item, keys, f"{what} {i}") for i, item in enumerate(items)]


def _quads(raw: dict, key: str, what: str) -> tuple[QuadTerm, ...]:
    quads = []
    for i, q in enumerate(_entries(raw, key, ("a", "b", "c", "d", "S"), what)):
        try:
            quads.append(QuadTerm(*q))
        except SpecError as e:
            raise SpecError(f"{what} {i}: {e}") from None
    return tuple(quads)


def load_spec(path: str) -> tuple[SeriesSpec, tuple[QuadTerm, ...], float]:
    """Parse a JSON spec file into (normalized series, prefactor quads,
    q_power).

    Schema: an object with numeric "A", "B", "v" and either an array
    "quads" of {"a","b","c","d","S"} (raw finite-symbol form, normalized
    here) or an array "terms" of {"alpha","beta","gamma","S"} (already-
    normalized form); exactly one of the two.  Next to "terms", an array
    "prefactor_quads" of {"a","b","c","d","S"} gives the constant product
    prod (q^a;q^b)_inf^(-S) (c and d unused; default empty).  A numeric
    "q_power" multiplies the total by q^q_power (default 0).  Every number
    must be finite and every invariant holds; violations name the offending
    entry and inequality.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as e:
        raise SpecError(f"cannot read spec file {path!r}: {e}") from None
    except json.JSONDecodeError as e:
        raise SpecError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None
    try:
        A, B, v = _numbers(raw, ("A", "B", "v"), "top level")
        q_power = (_numbers(raw, ("q_power",), "top level")[0]
                   if "q_power" in raw else 0.0)
        if ("quads" in raw) == ("terms" in raw):
            raise SpecError("exactly one of 'quads' or 'terms' is required")
        if "quads" in raw:
            if "prefactor_quads" in raw:
                raise SpecError("'prefactor_quads' goes with 'terms'; "
                                "'quads' carry their own prefactor")
            return (*normalize(ProductSpec(A, B, v, _quads(raw, "quads", "quad"))),
                    q_power)
        terms = _entries(raw, "terms", ("alpha", "beta", "gamma", "S"), "term")
        return (SeriesSpec.make(A, B, v, terms),
                _quads(raw, "prefactor_quads", "prefactor quad"), q_power)
    except SpecError as e:
        raise SpecError(f"{path}: {e}") from None


class RunConfig(NamedTuple):
    command: str
    spec_source: str
    series: SeriesSpec
    prefactor: tuple[QuadTerm, ...]
    q_power: float
    t_grid: list[float]
    order_L: int = DEFAULT_L
    order_M: int = DEFAULT_M
    rel_tol: float = 1e-10
    output: Optional[str] = None


def _parse_t_grid(args: argparse.Namespace) -> list[float]:
    if args.t:
        try:
            grid = [float(s) for s in args.t.split(",") if s.strip()]
        except ValueError:
            raise SpecError(f"--t expects comma-separated floats, got {args.t!r}")
        if not grid:
            raise SpecError(f"--t lists no value: {args.t!r}")
    elif args.t_grid:
        parts = args.t_grid.split(":")
        if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
            raise SpecError("--t-grid expects START:STOP:COUNT[:log]")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise SpecError(f"bad --t-grid {args.t_grid!r}")
        if count < 1:
            raise SpecError("--t-grid COUNT must be >= 1")
        if len(parts) == 4 and not (start > 0 and stop > 0):
            raise SpecError("--t-grid log spacing needs START > 0 and STOP > 0")
        if count == 1:
            grid = [start]
        elif len(parts) == 4:
            ratio = (stop / start) ** (1.0 / (count - 1))
            grid = [start * ratio ** i for i in range(count)]
        else:
            step = (stop - start) / (count - 1)
            grid = [start + step * i for i in range(count)]
    else:
        grid = [0.1, 0.05, 0.025]
    if any(not 0.0 < t < T_MAX for t in grid):
        raise SpecError(f"every t must lie in (0, {T_MAX})")
    if len(set(grid)) < len(grid):      # verify would compare a row with itself
        raise SpecError("every t must be distinct")
    return sorted(grid, reverse=True)


def _make_config(args: argparse.Namespace) -> RunConfig:
    if bool(args.spec) == bool(args.preset):
        raise SpecError("exactly one of --spec or --preset is required")
    if args.preset:
        p = get_preset(args.preset)
        series, pref, q_power = p.series, p.prefactor, p.q_power
        source = f"preset:{args.preset}"
    else:
        series, pref, q_power = load_spec(args.spec)
        source = args.spec
    if args.order_L < 0 or args.order_M < 0:
        raise SpecError("--order-L and --order-M must be >= 0")
    if not 1e-12 <= args.rel_tol < math.inf:
        raise SpecError("--rel-tol must be finite and >= 1e-12")
    return RunConfig(command=args.command, spec_source=source, series=series,
                     prefactor=pref, q_power=q_power, t_grid=_parse_t_grid(args),
                     order_L=args.order_L, order_M=args.order_M,
                     rel_tol=args.rel_tol, output=args.out)


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise SpecError(f"cannot write output file {out!r}: {e}") from None
    else:
        sys.stdout.write(text)


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` for documents with str
    keys, byte for byte.  The stdlib encodes through pure Python whenever it
    indents; here a list of plain numbers (int or float, exactly) takes one
    ``repr`` per number, one if it repeats one object, and none if it holds
    the objects of a list already encoded, in order (a non-finite float takes
    the C encoder); a list of same-keyed dicts of them goes column by column."""
    done: list[tuple[Sequence, list[str]]] = []    # number lists and their text

    def numbers(values: Sequence) -> list[str]:
        for seen, text in done:
            if len(seen) == len(values) and all(map(is_, seen, values)):
                return text
        same = all(map(is_, values, repeat(values[0])))
        head = values[:1] if same else values
        text = list(map(repr, head))        # the C encoder's text of ints and finite floats
        if not {"nan", "inf", "-inf"}.isdisjoint(text):
            text = json.dumps(list(head))[1:-1].split(", ")
        done.append((values, text * len(values) if same else text))
        return done[-1][1]

    def enc(obj, indent: str) -> str:
        inner = indent + "  "
        if isinstance(obj, dict):
            items = [json.dumps(k) + ": " + enc(obj[k], inner) for k in sorted(obj)]
            return "{" + inner + ("," + inner).join(items) + indent + "}" if obj else "{}"
        if not isinstance(obj, (list, tuple)):
            return json.dumps(obj)
        if not obj:
            return "[]"
        if (type(obj[0]) is dict and obj[0] and set(map(type, obj)) == {dict}
                and all(map(obj[0].keys().__eq__, map(dict.keys, obj)))):
            keys = sorted(obj[0])
            cols = [list(map(itemgetter(k), obj)) for k in keys]
            if all(set(map(type, col)) <= {int, float} for col in cols):
                # per row: "{", then each key's name and number, then "},"
                parts = [part for j, k in enumerate(keys) for part in (repeat(
                    ("," if j else "{") + inner + "  " + json.dumps(k) + ": "),
                    numbers(cols[j]))]
                text = "".join(chain.from_iterable(
                    zip(*parts, repeat(inner + "}," + inner))))
                return "[" + inner + text[:-len(inner) - 1] + indent + "]"
        items = (numbers(obj) if set(map(type, obj)) <= {int, float}
                 else [enc(x, inner) for x in obj])
        return "[" + inner + ("," + inner).join(items) + indent + "]"

    return enc(doc, "\n")


def _json_result(cfg: RunConfig, rows: list[dict], branch: str = "",
                 diagnostics: Optional[dict] = None) -> str:
    inputs = {"spec_source": cfg.spec_source, "t_grid": cfg.t_grid, "order_L": cfg.order_L,
              "order_M": cfg.order_M, "rel_tol": cfg.rel_tol}
    results = {"log_value": list(map(itemgetter("log_value"), rows)),
               "sign": list(map(itemgetter("sign"), rows)), "branch": branch,
               "diagnostics": diagnostics or {}, "rows": rows}
    doc = {"command": cfg.command, "inputs": inputs, "results": results}
    return _dumps(doc) + "\n"


def grid_rows(series: SeriesSpec, prefactor: tuple[QuadTerm, ...], q_power: float,
              ts: list[float], routes: tuple[str, ...], rel_tol: float = 1e-10,
              an: Optional[Analysis] = None, L: int = DEFAULT_L) -> Iterator[tuple]:
    """Per t of ts, in order, one (total log, record) per route: "sum"
    (``SumResult``), "integral" (``QuadResult``) or "asym" (``AsymptoticResult``
    of ``an`` at order L), each the bits of its t alone.  An exact total is
    (log_value + exact constant product) - q_power t; asym's is log_value.  A
    row takes the product, the ladder, then each route, as a lone t does."""
    def whole_grid(build):
        # row j's entry of one build over every t; if that raises, each row
        # builds its own, so the first failing row raises as it would alone
        try:
            return build(tuple(ts)).__getitem__
        except QasymError:
            return lambda j: build((ts[j],))[0]
    exact = "sum" in routes or "integral" in routes
    if "asym" in routes:    # asym_from_parts folds in its own product and q^q_power
        asym = whole_grid(lambda g: asym_from_parts(an, g, L, q_power))
    if exact:
        product = whole_grid(lambda g: prefactor_exact(prefactor, g).tolist())
        ladder = whole_grid(lambda g: mass_ladder(series, g))
    for j, t in enumerate(ts):
        if exact:
            # the product first: a t past its reach fails before a route is paid for
            pref, lad = product(j), ladder(j)
        row = []
        for route in routes:
            rec = (asym(j) if route == "asym" else series_sum(series, t, lad)
                   if route == "sum" else quad_integral(series, t, rel_tol, lad))
            row.append((rec.log_value if route == "asym"
                        else (rec.log_value + pref) - q_power * t, rec))
        yield tuple(row)


def run_exact(cfg: RunConfig) -> int:
    """eval (direct summation) or integral (adaptive quadrature) at each t."""
    route = "sum" if cfg.command == "eval" else "integral"
    rows, diag = [], {}
    for t, [(total, res)] in zip(cfg.t_grid, grid_rows(
            cfg.series, cfg.prefactor, cfg.q_power, cfg.t_grid, (route,), cfg.rel_tol)):
        # the window and, for the integral, its error estimate and panels
        diag[f"t={_fmt(t)}"] = {k: v for k, v in res._asdict().items() if k != "log_value"}
        rows.append({"t": t, "log_value": total, "sign": 1})
    branch = "series_sum" if cfg.command == "eval" else "integral"
    _emit(_json_result(cfg, rows, branch=branch, diagnostics=diag), cfg.output)
    return 0


def _analyse(cfg: RunConfig) -> Analysis:
    # orders past the Bernoulli table are usage errors; --order-L keeps the
    # documented cap MAX_DERIV // (2k(2k+1)) until the expansion is graded by
    # powers of t (the derivatives it reads, 0..max(2L, 2k), need far less)
    if cfg.prefactor and cfg.order_M >= N_MAX:
        raise SpecError(
            f"--order-M must be <= {N_MAX - 1} for a spec with a prefactor")
    an = analyse(cfg.series, cfg.prefactor, cfg.order_M)
    l_max = min((MAX_DERIV // (2 * sp.order * (2 * sp.order + 1))
                 for sp in an.peaks), default=cfg.order_L)
    if cfg.order_L > l_max:
        raise SpecError(f"--order-L must be <= {l_max} for this spec")
    return an


def run_asym(cfg: RunConfig) -> int:
    an = _analyse(cfg)
    # a dict literal per record: dict(zip(keys, values)) takes twice as long
    rows = [{"t": t, "log_value": value, "sign": 1, "rate": rate, "t_power": t_power,
             "log_constant": log_c, "correction_factor": factor}
            for rate, t_power, log_c, factor, _, t, value in asym_from_parts(
                an, tuple(cfg.t_grid), cfg.order_L, cfg.q_power)]
    _emit(_json_result(cfg, rows, branch=an.branch), cfg.output)
    return 0


def _verdict(ts: list[float], devs: list[float], floors: list[float]) -> Optional[str]:
    """None when every step along the grid passes: its deviation shrinks, or
    both deviations sit under their round-off floors; else the message."""
    bad = [f"row t={_fmt(ts[k + 1])}: deviation {devs[k + 1]:.3g}, floor "
           f"{floors[k + 1]:.3g} (row t={_fmt(ts[k])}: {devs[k]:.3g}, "
           f"floor {floors[k]:.3g})"
           for k in range(len(devs) - 1)
           if not (devs[k + 1] < devs[k]
                   or (devs[k + 1] <= floors[k + 1] and devs[k] <= floors[k]))]
    return ("verify: sum/integral deviations are not strictly shrinking: "
            + "; ".join(bad)) if bad else None


def run_verify(cfg: RunConfig) -> int:
    """One CSV row per t; exit 0 iff each step along the (descending) grid
    passes ``_verdict``.  A row's floor is 4 ulp of each log plus the
    quadrature's relative error estimate: deviations under it are round-off,
    and need not shrink."""
    an = _analyse(cfg)
    lines = [CSV_HEADER]
    devs, floors = [], []
    try:
        for t, ((s, _), (i, res), (a, _)) in zip(cfg.t_grid, grid_rows(
                cfg.series, cfg.prefactor, cfg.q_power, cfg.t_grid,
                ("sum", "integral", "asym"), cfg.rel_tol, an, cfg.order_L)):
            r_si = math.exp(s - i)
            r_sa = math.exp(s - a)
            devs.append(abs(r_si - 1.0))
            floors.append(4.0 * (math.ulp(s) + math.ulp(i))
                          + math.exp(res.abs_error_log - res.log_value))
            lines.append(",".join(map(_fmt, (t, s, i, a, r_si, r_sa))))
    except QasymError as e:     # raised by the row after the last one done
        raise QasymError(f"row t={_fmt(cfg.t_grid[len(devs)])}: {e}") from e
    _emit("\n".join(lines) + "\n", cfg.output)
    message = _verdict(cfg.t_grid, devs, floors)
    if message:
        print(message, file=sys.stderr)
        return 3
    return 0


def run_preset_cmd(args: argparse.Namespace) -> int:
    if not args.preset:
        sys.stdout.write("\n".join(sorted(PRESETS)) + "\n")
        return 0
    p = get_preset(args.preset)
    doc = {"name": p.name, "A": p.series.A, "B": p.series.B, "v": p.series.v,
           "terms": [q._asdict() for q in p.series.terms],
           "prefactor_quads": [q._asdict() for q in p.prefactor], "q_power": p.q_power,
           "reference": p.reference._asdict(), "notes": p.notes}
    _emit(_dumps(doc) + "\n", args.out)
    return 0


@functools.cache           # built once per process; parse_args leaves it as is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qasym",
        description="Evaluate Eulerian q-series near q -> 1- and cross-validate "
                    "direct summation, numerical integration and asymptotics.")
    ap.add_argument("command", choices=["eval", "integral", "asym", "verify",
                                        "preset"])
    ap.add_argument("--spec", help="JSON spec file")
    ap.add_argument("--preset", help="built-in series name (see 'qasym preset')")
    ap.add_argument("--t", help="comma-separated t values")
    ap.add_argument("--t-grid", help="START:STOP:COUNT[:log]")
    ap.add_argument("--order-L", type=int, default=DEFAULT_L,
                    help="correction order of the peak expansion")
    ap.add_argument("--order-M", type=int, default=DEFAULT_M,
                    help="correction order of the prefactor expansion")
    ap.add_argument("--rel-tol", type=float, default=1e-10,
                    help="quadrature refinement tolerance (range certified at 1e-18)")
    ap.add_argument("--out", help="write output to this file instead of stdout")
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        if args.command == "preset":
            return run_preset_cmd(args)
        cfg = _make_config(args)
        if args.command in ("eval", "integral"):
            return run_exact(cfg)
        if args.command == "asym":
            return run_asym(cfg)
        return run_verify(cfg)
    except SpecError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except HypothesisError as e:
        print(f"hypothesis failure: {e}", file=sys.stderr)
        return 2
    except QasymError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
