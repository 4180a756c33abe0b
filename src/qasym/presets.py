"""Built-in series, as plain data.

Each preset is the normalized series, the constant-product prefactor quads
(c and d unused, as in a spec file), the power q_power of a fixed factor
q^q_power (phi-minus carries the q = e^{-t} left over from re-indexing its
sum to start at zero), and notes.  Its t -> 0 law C t^p exp(r/t) is the one
``expansion.analyse`` computes from these; ``qasym preset --preset NAME``
prints it.  A finite symbol (q^a;q^b)_(cm+d) is written, as ``normalize``
writes it, as (q^a;q^b)_inf / (q^(a+bd+bcm);q^b)_inf.

CLI names: ramanujan, f0, phi-minus, rphis, simple-r, euler, euler-b2.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import SpecError
from .qseries import PochTerm, QuadTerm, SeriesSpec


class Preset(NamedTuple):
    name: str
    series: SeriesSpec
    prefactor: tuple[QuadTerm, ...]
    notes: str = ""
    q_power: float = 0.0


PRESETS: dict[str, Preset] = {p.name: p for p in (
    # sum_m q^(m(m+1)/2) / (q;q)_m^2, the series from Ramanujan's last letter
    Preset("ramanujan", SeriesSpec(0.5, 0.5, 0.0, (PochTerm(1, 1, 1, -2.0),)),
           (QuadTerm(1, 1, 1.0, 0.0, 2.0),)),
    # sum_m q^(m^2) / (q^(m+1);q)_m = sum_m q^(m^2) (q;q)_m / (q;q)_(2m): the
    # constant products cancel
    Preset("f0", SeriesSpec(1.0, 0.0, 0.0, (PochTerm(1, 1, 1, 1.0),
                                            PochTerm(2, 1, 1, -1.0))), ()),
    # sum_{m>=1} q^m (-q;q)_(2m-1) / (q;q^2)_m = [(-q;q)_inf/(q;q^2)_inf] * q *
    # sum_{m>=0} q^m (q^(2m+3);q^2)_inf (q^(2m+2);q)_inf / (q^(4m+4);q^2)_inf,
    # with (-q;q)_inf = (q^2;q^2)_inf/(q;q)_inf; no interior peak
    Preset("phi-minus", SeriesSpec(0.0, 1.0, 0.0, (PochTerm(2, 1, 2, -1.0),
                                                   PochTerm(2, 2, 3, -1.0),
                                                   PochTerm(4, 2, 4, 1.0))),
           (QuadTerm(1, 1, 1, 0, 1.0), QuadTerm(1, 2, 1, 0, 1.0),
            QuadTerm(2, 2, 1, 0, -1.0)),
           "sixth-order mock theta function", 1.0),
    # sum_k q^(k(k-1)/2) (q;q)_k / (q;q)_k^2, the confluent basic
    # hypergeometric series with upper parameter 1, lower parameters 1, 1
    Preset("rphis", SeriesSpec(0.5, -0.5, 0.0, (PochTerm(1.0, 1.0, 1.0, -1.0),)),
           (QuadTerm(1.0, 1.0, 1.0, 0.0, 1.0),),
           "r=1, s=2, a=(1.0,), b=(1.0, 1.0), v=0.0"),
    # sum_m q^(A m^2 + B m) / (q^C;q^D)_(E m+F)^G at its defaults: the
    # Rogers-Ramanujan series sum_m q^(m^2) / (q;q)_m
    Preset("simple-r", SeriesSpec(1.0, 0.0, 0.0, (PochTerm(1.0, 1.0, 1.0, -1.0),)),
           (QuadTerm(1.0, 1.0, 1.0, 0.0, 1.0),),
           "A=1.0, B=0.0, C=1.0, D=1.0, E=1.0, F=0.0, G=1"),
    # sum_m q^m (q^(m+1);q)_inf, identically 1 by Euler's identity
    Preset("euler", SeriesSpec(0.0, 1.0, 0.0, (PochTerm(1, 1, 1, -1.0),)), ()),
    # sum_m q^(2m) (q^(m+1);q)_inf = 1 - q
    Preset("euler-b2", SeriesSpec(0.0, 2.0, 0.0, (PochTerm(1, 1, 1, -1.0),)), ()),
)}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise SpecError(f"unknown preset {name!r}; choose from "
                        f"{', '.join(sorted(PRESETS))}") from None
