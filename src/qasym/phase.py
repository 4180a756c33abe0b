"""The leading phase of the series, its derivatives, the hypothesis check,
and location/classification of interior maxima.

The logged general term satisfies (as t -> 0+, u = x t fixed)

    t * log_summand(u/t, t)  ->  level(-1):  v u - A u^2 - sum_j f_j Li2(e^{-alpha_j u})

with (alpha_j, f_j) the spec's ``SeriesSpec.falpha``.  Level 0 supplies the
t^0 coefficient, which enters the Laplace constant.  The maxima of the
leading level on (0, inf) dictate every exponential growth rate downstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateError, DomainError
from .qseries import SeriesSpec
from .specfun import bernoulli_pair, polylog

MAX_ORDER = 8            # stationary points classified up to order m_u = 8
_DEGENERACY_RTOL = 1e-8  # |H^(2m)| below this * scale counts as zero
_BISECT_RTOL = 1e-15
_GRID_MAX = 1 << 22      # most points of the sign-change search


def phase_value(spec: SeriesSpec, level: int, u: float) -> float:
    """Level -1: v u - A u^2 - sum_j f_j Li2(e^{-alpha_j u}).
    Level 0:  -sum_terms (gamma/beta - 1/2) S Li1(e^{-alpha u}) - B u.
    """
    if not u > 0:
        raise DomainError(f"phase needs u > 0, got {u}")
    if level == -1:
        return (spec.v * u - spec.A * u * u
                - sum(f * polylog(2, a * u) for a, f in spec.falpha))
    if level == 0:
        return (-sum((p.gamma / p.beta - 0.5) * p.S * polylog(1, p.alpha * u)
                     for p in spec.terms) - spec.B * u)
    raise DomainError(f"phase levels are -1 and 0, got {level}")


def phase_deriv(spec: SeriesSpec, k: int, u):
    """k-th u-derivative of the leading level (analytic, no differencing),
    at u > 0 or elementwise on an array of such u:
    d^k/du^k (v u - A u^2) - sum_j (-alpha_j)^k f_j Li_(2-k)(e^{-alpha_j u})."""
    if not np.all(u > 0):
        raise DomainError(f"phase needs u > 0, got {u}")
    if k < 1:
        raise DomainError("derivative order must be >= 1")
    poly = spec.v - 2.0 * spec.A * u if k == 1 else (-2.0 * spec.A if k == 2 else 0.0)
    return poly - sum((-a) ** k * f * polylog(2 - k, a * u) for a, f in spec.falpha)


class HypothesisReport(NamedTuple):
    increasing: bool
    branch: str   # "limit" or "series"
    slope_sum: float
    detail: str

    def __bool__(self) -> bool:
        return self.increasing


def check_hypothesis(spec: SeriesSpec) -> HypothesisReport:
    """True iff the leading phase is nondecreasing on some (0, eps].

    As u -> 0+ the derivative behaves like -(sum_j alpha_j f_j) log u
    + v - sum_j alpha_j f_j log alpha_j + O(u), so the sign of
    sum alpha_j f_j decides, and in the balanced case that of the limit
    v - sum_j alpha_j f_j log alpha_j.  When both vanish, Li1(e^-x) =
    -log x + x/2 - sum_k B_2k x^2k/(2k (2k)!) leaves the power series

        u (sum_j alpha_j^2 f_j/2 - 2A)
          - sum_k B_2k u^2k/(2k (2k)!) sum_j alpha_j^(2k+1) f_j

    whose first coefficient above its rounding decides.  With the slope's
    sum_j alpha_j f_j = 0, the u^2k coefficients for k < len(falpha) vanish
    together only if every f_j does (a Vandermonde system in alpha_j^2); the
    derivative is then -2A u, refused on u^1, or identically 0, which passes.
    """
    slope = sum(a * f for a, f in spec.falpha)
    scale = sum(abs(a * f) for a, f in spec.falpha)
    if abs(slope) > 1e-13 * max(scale, 1.0):
        if slope > 0:
            return HypothesisReport(True, "limit", slope,
                                    "sum alpha_j f_j > 0 forces +inf slope at 0+")
        return HypothesisReport(False, "limit", slope,
                                "sum alpha_j f_j < 0 forces -inf slope at 0+")
    terms = [a * f * math.log(a) for a, f in spec.falpha]
    limit = spec.v - sum(terms)
    if abs(limit) > 1e-13 * max(abs(spec.v) + sum(map(abs, terms)), 1.0):
        return HypothesisReport(limit > 0, "limit", slope,
                                f"balanced log coefficient; slope -> {limit:.3e} at 0+")
    sq = [a * a * f / 2.0 for a, f in spec.falpha]
    series = [(1, sum(sq) - 2.0 * spec.A, sum(map(abs, sq)) + 2.0 * spec.A)]
    for k in range(1, len(spec.falpha)):
        num, den = bernoulli_pair(2 * k)
        c = num / den / (2 * k * math.factorial(2 * k))
        odd = [a ** (2 * k + 1) * f for a, f in spec.falpha]
        series.append((2 * k, -c * sum(odd), abs(c) * sum(map(abs, odd))))
    balanced = "balanced log coefficient and limit; slope"
    for power, coef, size in series:
        if abs(coef) > 1e-13 * size:
            return HypothesisReport(coef > 0, "series", slope,
                                    f"{balanced} ~ {coef:.3e} u^{power} at 0+")
    return HypothesisReport(True, "series", slope, f"{balanced} vanishes at 0+")


class StationaryPoint(NamedTuple):
    """Interior local maximum of the leading phase: location, half-order of
    the first nonvanishing even derivative, the phase value, that derivative,
    and the Laplace constant."""
    u: float
    order: int
    h_value: float
    h2m: float
    c_u: float


def laplace_constant(spec: SeriesSpec, u: float, order: int, h2m: float) -> float:
    """e^{H0(u)} Gamma(1/(2m))/m * ((2m)!/|H^(2m)(u)|)^(1/(2m))."""
    m = order
    return (math.exp(phase_value(spec, 0, u)) * math.gamma(1.0 / (2 * m)) / m
            * (math.factorial(2 * m) / abs(h2m)) ** (1.0 / (2 * m)))


def search_upper_bound(spec: SeriesSpec) -> float:
    """A u past which the leading phase is certainly decreasing (A > 0 or
    v < 0) or, a guess, negligible (A = v = 0: 50/min alpha).

    The slope is v - 2 A u plus the parts alpha f Li1(e^(-alpha u)), each at
    most alpha |f|/(e^(alpha u) - 1) <= |f|/u, as -log(1 - y) <= y/(1 - y).
    For A > 0, with F = sum |f|, the slope is at most v - 2 A u + F/u, which
    is negative past the root (v + sqrt(v^2 + 8 A F))/(4 A) of 2 A u^2 - v u
    - F; u_hi is that root plus 1.  For v < 0 (so A = 0) each of the n
    parts is below |v|/n once alpha u > log1p(n alpha |f|/|v|), which holds
    past u_hi = max_j log1p(n alpha_j |f_j|/|v|)/alpha_j + 1."""
    if spec.A > 0:
        F = sum(abs(f) for _, f in spec.falpha)
        return (spec.v + math.sqrt(spec.v ** 2 + 8.0 * spec.A * F)) / (4.0 * spec.A) + 1.0
    if spec.v < 0:
        n = len(spec.falpha)
        return max((math.log1p(n * a * abs(f) / -spec.v) / a for a, f in spec.falpha),
                   default=0.0) + 1.0
    return 50.0 / min((a for a, _ in spec.falpha), default=1.0)


def _grid(spec: SeriesSpec, u_lo: float, u_hi: float) -> list[float]:
    # geometric below 1, linear above; fine enough that a sign change of the
    # analytic slope cannot hide between neighbors for the admissible specs
    max_alpha = max((a for a, _ in spec.falpha), default=1.0)
    step = 0.05 * min(1.0, 1.0 / max_alpha)
    if (u_hi - 1.0) / step > _GRID_MAX:
        raise ConvergenceError(f"phase search: over 2^22 points to the bound u = {u_hi:.6g}")
    pts = []
    u = u_lo
    while u < min(1.0, u_hi):
        pts.append(u)
        u *= 1.07
    u = 1.0
    while u <= u_hi:
        pts.append(u)
        u += step
    pts.append(u_hi)
    return pts


def stationary_points(spec: SeriesSpec) -> list[StationaryPoint]:
    """All interior local maxima of the leading phase, u ascending.

    Brackets sign changes (+ -> -) of the analytic slope on a composite
    grid, bisects each bracket to relative width 1e-15, then classifies the
    order as the smallest m with |H^(2m)(u)| above 1e-8 * scale.  An empty
    list is a valid outcome (no interior peak; the tail carries everything).
    """
    if not spec.falpha and spec.A == 0:
        return []
    u_lo = 1e-8
    u_hi = search_upper_bound(spec)
    grid = _grid(spec, u_lo, u_hi)
    vals = phase_deriv(spec, 1, np.array(grid))
    scale = sum(a * a * abs(f) for a, f in spec.falpha) + 2.0 * spec.A
    out = []
    for i in np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0)):
        a, b = grid[i], grid[i + 1]
        while b - a > _BISECT_RTOL * max(1.0, b):
            mid = 0.5 * (a + b)
            if phase_deriv(spec, 1, mid) > 0.0:
                a = mid
            else:
                b = mid
        u = 0.5 * (a + b)
        for order in range(1, MAX_ORDER + 1):
            h2m = phase_deriv(spec, 2 * order, u)
            if abs(h2m) > _DEGENERACY_RTOL * scale:
                break
        else:
            raise DegenerateError(
                f"no even derivative up to order {2 * MAX_ORDER} exceeds "
                f"tolerance at u={u}")
        if h2m > 0:
            raise DegenerateError(
                f"classified even derivative positive at bracketed "
                f"maximum u={u}")
        out.append(StationaryPoint(
            u=u, order=order, h_value=phase_value(spec, -1, u), h2m=h2m,
            c_u=laplace_constant(spec, u, order, h2m)))
    return out
