"""Built-in series with known reference asymptotics.

Each preset is plain data: the normalized series, the constant-product
prefactor quads, the power q_power of a fixed factor q^q_power (phi-minus
carries the q = e^{-t} left over from re-indexing its sum to start at
zero), and the closed-form reference law C t^p exp(r/t) its total should
approach.

CLI names: ramanujan, f0, phi-minus, rphis, simple-r, euler, euler-b2.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional

from .errors import SpecError
from .qseries import ProductSpec, QuadTerm, SeriesSpec, normalize
from .specfun import polylog

PI = math.pi
PI2 = math.pi * math.pi


class Reference(NamedTuple):
    """t -> 0 law: constant * t^t_power * exp(rate/t)."""
    rate: float
    t_power: float
    log_constant: float
    notes: str = ""


class Preset(NamedTuple):
    name: str
    series: SeriesSpec
    prefactor: tuple[QuadTerm, ...]
    reference: Reference
    notes: str = ""
    product: Optional[ProductSpec] = None
    q_power: float = 0.0


def _from_product(name: str, product: ProductSpec, reference: Reference,
                  notes: str = "") -> Preset:
    series, quads = normalize(product)
    return Preset(name=name, series=series, prefactor=quads,
                  reference=reference, notes=notes, product=product)


def preset_ramanujan() -> Preset:
    """sum_m q^(m(m+1)/2) / (q;q)_m^2, the series from Ramanujan's last
    letter: sqrt(t/(2 pi sqrt 5)) exp(pi^2/(5t) + c_1 t + ...)."""
    product = ProductSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, 0, 2)])
    ref = Reference(rate=PI2 / 5.0, t_power=0.5,
                    log_constant=-0.5 * math.log(2.0 * PI * math.sqrt(5.0)),
                    notes="golden-ratio peak; u* = 2 log((1+sqrt5)/2)")
    return _from_product("ramanujan", product, ref)


F0_ZETA = -math.log((2.0 / 3.0) * math.sqrt(7.0)
                    * math.cos(math.acos(-1.0 / (2.0 * math.sqrt(7.0))) / 3.0)
                    - 2.0 / 3.0)


def preset_f0() -> Preset:
    """sum_m q^(m^2) / (q^(m+1);q)_m, written via (q^(m+1);q)_m =
    (q;q)_(2m)/(q;q)_m; the constant prefactor cancels exactly."""
    product = ProductSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 0, -1), (1, 1, 2, 0, 1)])
    x = math.exp(-F0_ZETA)
    rate = polylog(2, F0_ZETA) - F0_ZETA ** 2 - polylog(2, 2.0 * F0_ZETA)
    log_c = -0.5 * (polylog(1, F0_ZETA) + math.log(2.0 - x + x * x)) + 0.5 * math.log(2.0 * PI)
    ref = Reference(rate=rate, t_power=-0.5, log_constant=log_c,
                    notes="peak at the root of x^3+2x^2-x-1, x = e^(-u)")
    return _from_product("f0", product, ref)


def preset_phi_minus() -> Preset:
    """sum_{m>=1} q^m (-q;q)_(2m-1) / (q;q^2)_m.

    Rewritten as [(-q;q)_inf/(q;q^2)_inf] * q * sum_{m>=0} q^m *
    (q^(2m+3);q^2)_inf (q^(2m+2);q)_inf / (q^(4m+4);q^2)_inf; the prefactor
    is re-expressed through plain symbols via (-q;q)_inf = (q^2;q^2)_inf/(q;q)_inf
    and the stray q becomes q_power = 1.  No interior peak: the
    whole normalized value is the flat tail, Gamma(1/2)/(2 sqrt(3/2)) / sqrt t.
    """
    series = SeriesSpec.make(0.0, 1.0, 0.0,
                             [(2, 2, 3, -1), (2, 1, 2, -1), (4, 2, 4, 1)])
    pref = (QuadTerm(1, 1, 1, 0, 1.0),    # (q;q)_inf^-1
            QuadTerm(1, 2, 1, 0, 1.0),    # (q;q^2)_inf^-1
            QuadTerm(2, 2, 1, 0, -1.0))   # (q^2;q^2)_inf^+1
    # C_H = 1/2, tail constant Gamma(1/2)/(2 (3/2)^(1/2))
    log_c = math.log(0.5) + math.lgamma(0.5) - math.log(2.0) - 0.5 * math.log(1.5)
    ref = Reference(rate=PI2 / 6.0, t_power=-0.5, log_constant=log_c,
                    notes="tail-only branch; equals (1/2) sqrt(pi/(6 t)) e^(pi^2/(6t))")
    return Preset(name="phi-minus", series=series, prefactor=pref, reference=ref,
                  q_power=1.0, notes="sixth-order mock theta function")


def preset_rphis(a_vec: tuple[float, ...] = (1.0,),
                 b_vec: tuple[float, ...] = (1.0, 1.0),
                 v: float = 0.0) -> Preset:
    """Confluent basic hypergeometric series
    sum_k prod(e^{-t a};e^{-t})_k / prod(e^{-t b};e^{-t})_k * e^{-l t k(k-1)/2} e^{vk}
    with l = len(b) - len(a) > 0.  The q-power bookkeeping l*C(k,2) fixes
    A = l/2 and shifts B by -l/2."""
    r, s = len(a_vec), len(b_vec)
    ell = s - r
    if ell <= 0:
        raise SpecError(f"need len(b) > len(a), got {r} and {s}")
    if any(a <= 0 for a in a_vec) or any(b <= 0 for b in b_vec):
        raise SpecError("all upper/lower parameters must be positive")
    quads = ([(a, 1.0, 1.0, 0.0, -1.0) for a in a_vec]
             + [(b, 1.0, 1.0, 0.0, 1.0) for b in b_vec])
    product = ProductSpec.make(ell / 2.0, -ell / 2.0, v, quads)
    u_star = math.log1p(math.exp(v / ell))
    rate = (0.5 * ell * (2.0 * v / ell * u_star - u_star ** 2 + PI2 / 3.0
                         - 2.0 * polylog(2, u_star)))
    t_power = sum(b_vec) - sum(a_vec) - (ell + 1) / 2.0
    log_c = ((1.0 - ell) / 2.0 * math.log(2.0 * PI)
             + 0.5 * ell * (math.log1p(math.exp(v / ell))
                            - math.log1p(math.exp(-v / ell)))
             - 0.5 * math.log(ell)
             + sum(math.lgamma(b) for b in b_vec)
             - sum(math.lgamma(a) for a in a_vec)
             + (sum(b_vec) - sum(a_vec) - 0.5) * math.log1p(math.exp(-v / ell)))
    ref = Reference(rate=rate, t_power=t_power, log_constant=log_c,
                    notes="single peak at u = log(1+e^(v/l))")
    return _from_product("rphis", product, ref,
                         notes=f"r={r}, s={s}, a={a_vec}, b={b_vec}, v={v}")


def preset_simple_r(A: float = 1.0, B: float = 0.0, C: float = 1.0,
                    D: float = 1.0, E: float = 1.0, F: float = 0.0,
                    G: int = 1) -> Preset:
    """sum_m q^(A m^2 + B m) / (q^C;q^D)_(E m+F)^G.

    The default parameters give the Rogers-Ramanujan series
    sum q^(m^2)/(q;q)_m (rate pi^2/15).  The peak solves
    x^(2A/(EG)) + x^(DE) = 1 with x = e^(-u); its order is always 1.
    """
    if not (A > 0 and C > 0 and D > 0 and E > 0 and F >= 0 and G >= 1):
        raise SpecError("need A,C,D,E > 0, F >= 0, G >= 1")
    product = ProductSpec.make(A, B, 0.0, [(C, D, E, F, float(G))])
    # bisect the strictly monotone stationary equation
    p = 2.0 * A / (E * G)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** p + mid ** (D * E) > 1.0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    zeta = -math.log(x)
    rate = -A * zeta ** 2 + (G / D) * (PI2 / 6.0 - polylog(2, D * E * zeta))
    t_power = C * G / D - (G + 1) / 2.0
    log_c = (-(G - 1) / 2.0 * math.log(2.0 * PI)
             + G * math.lgamma(C / D)
             + (C / D - 0.5) * G * math.log(D)
             + zeta * ((2.0 * A / E) * (F + C / D - 0.5) - B)
             - 0.5 * math.log(2.0 * A + D * G * E * E * x ** (D * E - p)))
    ref = Reference(rate=rate, t_power=t_power, log_constant=log_c,
                    notes=f"zeta_R = {zeta!r}")
    return _from_product("simple-r", product, ref,
                         notes=f"A={A}, B={B}, C={C}, D={D}, E={E}, F={F}, G={G}")


def preset_euler() -> Preset:
    """sum_m q^m (q^(m+1);q)_inf, identically 1 by Euler's identity; the
    flat tail reproduces the constant exactly.  No prefactor."""
    series = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])
    ref = Reference(rate=0.0, t_power=0.0, log_constant=0.0,
                    notes="exact value 1 for every t")
    return Preset(name="euler", series=series, prefactor=(), reference=ref)


def preset_euler_b2() -> Preset:
    """sum_m q^(2m) (q^(m+1);q)_inf = 1 - q; tail gives t exactly."""
    series = SeriesSpec.make(0.0, 2.0, 0.0, [(1, 1, 1, -1)])
    ref = Reference(rate=0.0, t_power=1.0, log_constant=0.0,
                    notes="exact value 1 - e^(-t)")
    return Preset(name="euler-b2", series=series, prefactor=(), reference=ref)


PRESETS: dict[str, Callable[[], Preset]] = {
    "ramanujan": preset_ramanujan,
    "f0": preset_f0,
    "phi-minus": preset_phi_minus,
    "rphis": preset_rphis,
    "simple-r": preset_simple_r,
    "euler": preset_euler,
    "euler-b2": preset_euler_b2,
}


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]()
    except KeyError:
        raise SpecError(f"unknown preset {name!r}; choose from "
                        f"{', '.join(sorted(PRESETS))}") from None
