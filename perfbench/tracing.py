"""Spans at the layer boundaries of the qasym package, recorded from outside.

The tracer replaces each module-level binding through which the program
calls a layer (for example ``quad.log_summand`` or
``expansion.stationary_points``) with a wrapper that records a span and
then calls the original function.  Nothing under ``src/`` changes; the
untraced benchmark runs never install a wrapper.

A span is ``[layer, start_ns, end_ns, parent, invocation, count]``:
``parent`` is the index of the enclosing span (-1 for a root),
``invocation`` the id of the CLI invocation it belongs to, and ``count`` the
layer's work counter (points for ``log_summand``, panels for
``integral``).  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import time

ROOT = "cli.main"

# layer -> the (module, attribute) bindings the program calls it through
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli.load_spec": (("cli", "load_spec"),),
    "presets.get_preset": (("cli", "get_preset"),),
    "qseries.series_sum": (("cli", "series_sum"),),
    "qseries.prefactor_exact": (("cli", "prefactor_exact"),),
    "quad.integral": (("cli", "quad_integral"),),
    "expansion.asym_from_parts": (("cli", "asym_from_parts"),),
    "qseries.log_summand": (("qseries", "log_summand"), ("quad", "log_summand"),
                            ("expansion", "log_summand")),
    "phase.build_phase": (("quad", "build_phase"), ("expansion", "build_phase")),
    "phase.check_hypothesis": (("quad", "check_hypothesis"),
                               ("expansion", "check_hypothesis")),
    "phase.stationary_points": (("quad", "stationary_points"),
                                ("expansion", "stationary_points")),
    "expansion.corrections": (("expansion", "corrections"),),
    "qseries.log_summand_deriv": (("expansion", "log_summand_deriv"),),
    "qseries.prefactor_asym": (("expansion", "prefactor_asym"),),
    "specfun.bernoulli_poly": (("qseries", "bernoulli_poly"),
                               ("phase", "bernoulli_poly")),
    "specfun.dilog": (("phase", "dilog"), ("presets", "dilog")),
    "specfun.polylog_nonpos": (("phase", "polylog_nonpos"),),
}
ALL_LAYERS = (ROOT,) + tuple(LAYERS)


def _points(args, kwargs, result) -> int:
    x = args[1] if len(args) > 1 else kwargs["x"]
    return int(getattr(x, "size", 1))


def _panels(args, kwargs, result) -> int:
    return int(result.subdivisions)


# layer -> (counter name, counter of one call)
COUNTERS = {"qseries.log_summand": ("points", _points),
            "quad.integral": ("panels", _panels)}

# derived counters: points sent to log_summand by a direct caller layer
FED_POINTS = {"qseries.series_sum": "terms", "quad.integral": "evals"}


class Tracer:
    """Records spans of one traced pass; ``install``/``uninstall`` patch and
    restore the package's bindings."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocation = -1
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        count = COUNTERS[layer][1] if layer in COUNTERS else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            rec = [layer, 0, 0, stack[-1] if stack else -1, self.invocation, 0]
            spans.append(rec)
            stack.append(index)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every binding of ``LAYERS`` found in ``modules`` (short name
        -> module).  A binding a later version of the package no longer has
        is listed in ``missing`` instead."""
        for layer, bindings in LAYERS.items():
            for mod_name, attr in bindings:
                module = modules.get(mod_name)
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(layer, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict[str, dict[str, int]]:
        """Per layer: calls, total_ns, self_ns, plus the work counters."""
        child_ns = [0] * len(self.spans)
        for layer, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {layer: {"calls": 0, "total_ns": 0, "self_ns": 0}
               for layer in ALL_LAYERS}
        for layer, (name, _) in COUNTERS.items():
            out[layer][name] = 0
        for layer, name in FED_POINTS.items():
            out[layer][name] = 0
        for i, (layer, start, end, parent, _, count) in enumerate(self.spans):
            row = out[layer]
            row["calls"] += 1
            row["total_ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
            if layer in COUNTERS:
                row[COUNTERS[layer][0]] += count
            if layer == "qseries.log_summand" and parent >= 0:
                caller = self.spans[parent][0]
                if caller in FED_POINTS:
                    out[caller][FED_POINTS[caller]] += count
        return out

    def write(self, path: str) -> None:
        """Spans as JSON lines: a header naming the fields, then one span per
        line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["layer", "start_ns", "end_ns",
                                            "parent", "invocation", "count"]})
                     + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
