"""Seeded spec generator for the verify-random-desk workload.

Every spec is drawn from the admissible domain of the README's spec-file
format, with the increasing-near-zero hypothesis satisfied by construction:

* ``A > 0``, so ``(A, v, B)`` lies in the convergence domain for any drawn
  ``B`` and ``v`` and the leading phase has an interior maximum;
* 1 to 3 finite symbols ``(q^a; q^b)_(c m + d)^S`` with ``a, b > 0``,
  ``d >= 0`` and ``S > 0``, so ``a + b d > 0`` and ``a/b`` is no Gamma
  pole; after normalization every ``f_j = S/b > 0``, so
  ``sum alpha_j f_j > 0`` and the phase slope is ``+inf`` at ``0+``;
* ``c`` in [1.1, 1.9], so ``alpha/beta = c`` is not a natural number and
  an integer-step recurrence cannot apply.

The draws of one seed are Latin hypercubes: each spec-level parameter takes
one stratum of its range per spec, and each symbol-level parameter one
stratum per symbol of the seed.  One spec-level parameter is the load
``sum_j 1/gamma_j``, which sets most of a spec's cost, so the spread of
invocation times is nearly the same from seed to seed while each spec is
still random.
"""

from __future__ import annotations

import json
import os
import random

SPEC_COUNT = 16
MAX_SYMBOLS = 3
# "load" is sum_j 1/gamma_j (gamma = a + b d), which sets the cost of the
# inner k-sums (~ 1/(gamma t) terms each); each symbol takes a random share
# "weight" of its spec's load
SPEC_RANGES = {"A": (0.25, 1.5), "B": (-0.5, 1.0), "v": (-0.5, 0.5),
               "load": (0.9, 1.3)}
SYMBOL_RANGES = {"weight": (0.5, 1.5), "a_share": (0.2, 1.0), "b": (0.75, 1.25),
                 "c_frac": (0.1, 0.9), "S": (0.75, 1.5)}


def generate(seed: int, count: int = SPEC_COUNT) -> list[dict]:
    """The ``count`` spec documents of ``seed``, in invocation order."""
    rng = random.Random(seed)

    def strata(n: int, lo: float, hi: float) -> list[float]:
        cells = list(range(n))
        rng.shuffle(cells)
        return [lo + (hi - lo) * (k + rng.random()) / n for k in cells]

    n_symbols = [1 + i % MAX_SYMBOLS for i in range(count)]
    rng.shuffle(n_symbols)
    total = sum(n_symbols)
    top = {key: strata(count, *bounds) for key, bounds in SPEC_RANGES.items()}
    sym = {key: strata(total, *bounds) for key, bounds in SYMBOL_RANGES.items()}
    specs = []
    k = 0
    for i in range(count):
        ks = range(k, k + n_symbols[i])
        weights = sum(sym["weight"][j] for j in ks)
        quads = []
        for j in ks:
            gamma = weights / (sym["weight"][j] * top["load"][i])
            a, b = sym["a_share"][j] * gamma, sym["b"][j]
            quads.append({"a": a, "b": b, "c": 1.0 + sym["c_frac"][j],
                          "d": (gamma - a) / b, "S": sym["S"][j]})
        k += n_symbols[i]
        specs.append({"A": top["A"][i], "B": top["B"][i], "v": top["v"][i],
                      "quads": quads})
    return specs


def write_specs(seed: int, directory: str) -> list[str]:
    """Write the specs of ``seed`` as ``spec-NN.json`` files; return the paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for i, doc in enumerate(generate(seed)):
        path = os.path.join(directory, f"spec-{i:02d}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
