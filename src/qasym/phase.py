"""The phase levels of the series, the hypothesis check, and
location/classification of interior maxima.

The logged general term expands (as t -> 0+, u = x t fixed) as

    t * log_summand(u/t, t)  =  G_0(u) + t G_1(u) + O(t^2),
    G_0(u) = v u - A u^2 - sum_j f_j Li2(e^{-alpha_j u}),

with (alpha_j, f_j) the spec's ``SeriesSpec.falpha``; ``level`` gives G_0,
its derivatives and G_1.  G_1 enters the Laplace constant.  The maxima of
the leading level G_0 on (0, inf) dictate every exponential growth rate
downstream.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DegenerateError, DomainError
from .qseries import SeriesSpec
from .specfun import bernoulli_pair, polylog

MAX_ORDER = 8            # stationary points classified up to order m_u = 8
_DEGENERACY_RTOL = 1e-8  # |G_0^(2m)| below this * scale counts as zero
_BISECT_RTOL = 1e-15
_GRID_MAX = 1 << 22      # most points of the sign-change search


def level(spec: SeriesSpec, n: int, r: int, u):
    """G_n^(r)(u), the r-th u-derivative of the t^n level of
    t * log_summand(u/t, t) (analytic, no differencing), at u > 0 or
    elementwise on an array of such u:
    G_0^(r) = d^r/du^r (v u - A u^2) - sum_j (-alpha_j)^r f_j Li_(2-r)(e^{-alpha_j u}),
    r >= 0, and G_1 = -sum_terms (gamma/beta - 1/2) S Li1(e^{-alpha u}) - B u.
    """
    if not np.all(u > 0):
        raise DomainError(f"phase needs u > 0, got {u}")
    if n == 1 and r == 0:
        return (-sum((p.gamma / p.beta - 0.5) * p.S * polylog(1, p.alpha * u)
                     for p in spec.terms) - spec.B * u)
    if n != 0 or r < 0:
        raise DomainError(f"phase levels are G_0^(r) for r >= 0 and G_1, got n={n}, r={r}")
    poly = (spec.v * u - spec.A * u * u if r == 0 else spec.v - 2.0 * spec.A * u if r == 1
            else -2.0 * spec.A if r == 2 else 0.0)
    return poly - sum((-a) ** r * f * polylog(2 - r, a * u) for a, f in spec.falpha)


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
    and the log of the Laplace constant (carried as a log: e^{G_1(u)} leaves
    the float range when G_1(u) passes 709, at maxima far out in u)."""
    u: float
    order: int
    h_value: float
    h2m: float
    log_c_u: float


def laplace_constant(spec: SeriesSpec, u: float, order: int, h2m: float) -> float:
    """log of e^{G_1(u)} Gamma(1/(2m))/m * ((2m)!/|G_0^(2m)(u)|)^(1/(2m))."""
    m = order
    return (level(spec, 1, 0, u) + math.lgamma(1.0 / (2 * m)) - math.log(m)
            + (math.log(math.factorial(2 * m)) - math.log(abs(h2m))) / (2 * m))


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


def _grid(spec: SeriesSpec, u_lo: float, u_hi: float) -> np.ndarray:
    """u_lo times 1.07 while below min(1, u_hi), 1 plus step = 0.05 min(1,
    1/max alpha) while at most u_hi, then u_hi: a sign change of the slope
    cannot hide between neighbors for the admissible specs.  Each point is a
    loop's running product or sum; n sums of step drift from n step by under
    n^2 2^-53 step, so two terms past the bound suffice."""
    max_alpha = max((a for a, _ in spec.falpha), default=1.0)
    step = 0.05 * min(1.0, 1.0 / max_alpha)
    if (u_hi - 1.0) / step > _GRID_MAX:
        raise ConvergenceError(f"phase search: over 2^22 points to the bound u = {u_hi:.6g}")
    geo = np.full(int(math.log(1.0 / u_lo) / math.log(1.07)) + 2, 1.07)
    lin = np.full(max(int((u_hi - 1.0) / step) + 2, 1), step)
    geo[0], lin[0] = u_lo, 1.0
    geo, lin = np.multiply.accumulate(geo, out=geo), np.add.accumulate(lin, out=lin)
    return np.concatenate((geo[:np.searchsorted(geo, min(1.0, u_hi))],
                           lin[:np.searchsorted(lin, u_hi, side="right")], [u_hi]))


def _bisect(spec: SeriesSpec, a: float, b: float) -> float:
    # halve (a, b) at its midpoint, keeping the half where the slope changes
    # sign, while b - a > _BISECT_RTOL max(1, b); then the last midpoint
    while b - a > _BISECT_RTOL * max(1.0, b):
        mid = 0.5 * (a + b)
        if level(spec, 0, 1, mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def stationary_points(spec: SeriesSpec) -> list[StationaryPoint]:
    """All interior local maxima of the leading phase, u ascending.

    Brackets sign changes (+ -> -) of the analytic slope on ``_grid``,
    bisects each to relative width 1e-15 (``_bisect``: one scalar slope call
    per midpoint, 44-46 a bracket, which the once-per-spec analysis can
    afford), then classifies the order as the smallest m with |G_0^(2m)(u)|
    above 1e-8 * scale.  An empty list is a valid outcome (no interior peak;
    the tail carries everything).
    """
    if not spec.falpha and spec.A == 0:
        return []
    grid = _grid(spec, 1e-8, search_upper_bound(spec))
    vals = level(spec, 0, 1, grid)
    scale = sum(a * a * abs(f) for a, f in spec.falpha) + 2.0 * spec.A
    out = []
    for i in np.flatnonzero((vals[:-1] > 0.0) & (vals[1:] <= 0.0)):
        u = _bisect(spec, float(grid[i]), float(grid[i + 1]))
        for order in range(1, MAX_ORDER + 1):
            h2m = level(spec, 0, 2 * order, u)
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
            u=u, order=order, h_value=level(spec, 0, 0, u), h2m=h2m,
            log_c_u=laplace_constant(spec, u, order, h2m)))
    return out
