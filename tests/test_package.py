"""The package's public names, and the bindings through which the
benchmark's tracer (perfbench/tracing.py) wraps each layer."""

import importlib
import importlib.util
from pathlib import Path

import qasym

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# layers none of whose bindings exist any more: the tracer lists them as
# missing and reads 0 calls for them until its table is renewed
STALE = {"phase.build_phase", "expansion.corrections", "specfun.dilog",
         "specfun.polylog_nonpos"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_keep_a_binding():
    # the modules the benchmark's worker hands to Tracer.install
    modules = {name: importlib.import_module(f"qasym.{name}")
               for name in ("cli", "expansion", "phase", "presets", "qseries", "quad")}
    unresolved = set()
    for layer, bindings in _tracing().LAYERS.items():
        home, name = layer.split(".")
        found = [getattr(modules[mod], attr) for mod, attr in bindings
                 if getattr(modules[mod], attr, None) is not None]
        if not found:
            unresolved.add(layer)
        # a binding that resolves is the layer's own function
        own = getattr(importlib.import_module(f"qasym.{home}"), name, None)
        assert all(fn is own for fn in found), layer
    assert unresolved == STALE


def test_all_names_resolve():
    assert len(set(qasym.__all__)) == len(qasym.__all__)
    missing = [name for name in qasym.__all__ if not hasattr(qasym, name)]
    assert missing == []
    gone = {"PrefactorLaw", "phase_value", "phase_deriv", "Reference"}
    assert gone.isdisjoint(qasym.__all__) and not any(hasattr(qasym, n) for n in gone)
