"""Log-space adaptive quadrature of the series' continuous companion
integral over (0, inf).

The substitution x = u/t is applied first: the integrand's peak width is
O(sqrt t) in u but grows like 1/sqrt(t) in x, so panel counts in u stay
t-independent.  Panels are seeded at every interior maximum (an adaptive
scheme alone can miss an O(sqrt t)-wide spike), at the slow-tail scale
log(1/t)/alpha_1 when that branch applies, and on a geometric ladder
toward u = 0; refinement is deterministic interval halving driven by the
embedded Gauss-Kronrod 7/15 error estimate, with all exponentials taken
relative to the peak of the log integrand.

Near u = 0 the integrand carries e^(-c/t) of the mass, so the initial
panels run from the top down and the ones below an edge are dropped once
their certified mass, the sum of (b - a) e^(sup g) with
``log_summand_sup``, is at most 1e-18 of the total.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .expansion import Analysis
from .logvalue import LogValue
from .qseries import LN_EPS, log_summand, log_summand_sup

MAX_PANELS = 1 << 20

# Gauss-Kronrod 7/15 nodes and weights on [-1, 1] (Kronrod abscissae;
# odd-indexed entries are the embedded Gauss-7 points).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    """(Kronrod-15 value, |K15-G7| error estimate) of f over [a, b]."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = np.concatenate((c - h * _XGK[:-1], [c], c + h * _XGK[-2::-1]))
    y = f(x)
    wk = np.concatenate((_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]))
    resk = h * float(wk @ y)
    yg = y[1:-1:2]
    wg = np.concatenate((_WG[:-1], [_WG[-1]], _WG[-2::-1]))
    resg = h * float(wg @ yg)
    return resk, abs(resk - resg)


@dataclass(frozen=True)
class QuadResult:
    value: LogValue
    abs_error_log: float   # log of the estimated absolute error
    subdivisions: int
    u_cut: float           # the panels below u_cut were dropped (0.0: none)
    cut_mass_log: float    # log of their certified mass (-inf: none)


def _breakpoints(an: Analysis, t: float, u_hi: float) -> list[float]:
    """Initial panel edges over [0, u_hi]: a geometric ladder toward 0 plus
    the peak and tail seeds of the analysed series."""
    seeds: list[float] = []
    for sp in an.peaks:
        width = (math.factorial(2 * sp.order) * t
                 / abs(sp.h2m)) ** (1.0 / (2 * sp.order))
        for k in (-5.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 5.0):
            seeds.append(sp.u + k * width)
        seeds.append(sp.u)
    if an.tail:
        alpha1 = an.phase.falpha[0][0]
        u_tail = math.log(1.0 / t) / alpha1
        for s in (0.3, 1.0, 2.0, 3.0):
            seeds.append(s * u_tail)
        seeds.append(t * math.log(1.0 / t) / alpha1)

    # geometric ladder toward 0 so a boundary-hugging integrand is resolved
    edges = [u_hi * 2.0 ** (-j) for j in range(24)]
    edges += [s for s in seeds if 0.0 < s < u_hi]
    edges += [0.0, u_hi]
    return sorted(set(edges))


def integral(an: Analysis, t: float, rel_tol: float = 1e-10) -> QuadResult:
    """Integral over x in (0, inf) of exp(log_summand(x)) for the analysed
    series, computed as (1/t) * int_0^U exp(F(u/t)) du with U chosen so the
    integrand at U is below rel_tol * peak * 1e-4.  Deterministic for fixed
    inputs."""
    if not 1e-12 <= rel_tol < math.inf:
        raise DomainError(f"rel_tol must be finite and >= 1e-12, got {rel_tol}")
    spec = an.series
    u_hi = max(an.u_search, 1.0)

    def g(u: np.ndarray) -> np.ndarray:
        return log_summand(spec, u / t, t)

    # coarse scan for the log-integrand's scale, then extend the cutoff
    # until the boundary value is negligible at the requested tolerance;
    # u = 0 costs a closed-form evaluation per symbol, read only if it could win
    gmax = float(g(np.linspace(0.0, u_hi, 513)[1:]).max())
    if log_summand_sup(spec, 0.0, 0.0, t) > gmax:
        gmax = max(gmax, float(g(np.zeros(1))[0]))
    cutoff_gap = math.log(rel_tol) + math.log(1e-4)
    guard = 0
    while g(np.array([u_hi]))[0] - gmax > cutoff_gap:
        u_hi *= 1.5
        guard += 1
        if guard > 200:
            raise ConvergenceError("no decaying upper cutoff found")
        gmax = max(gmax, float(g(np.linspace(0.0, u_hi, 513)[1:]).max()))

    edges = _breakpoints(an, t, u_hi)
    spans = list(zip(edges[:-1], edges[1:]))
    sups = log_summand_sup(spec, np.array(edges[:-1]), np.array(edges[1:]), t)
    # an edge bounded under the scanned peak cannot raise gmax: read the
    # edges from the lowest one that might, all in one call
    first = next(iter(np.flatnonzero(sups > gmax)), len(spans) - 1)
    gmax = max(gmax, float(g(np.array(edges[first + 1:])).max()))
    below = np.logaddexp.accumulate(
        np.array([math.log(b - a) for a, b in spans]) + sups)

    def f(u: np.ndarray) -> np.ndarray:
        return np.exp(g(u) - gmax)

    # top down until everything below is certified negligible
    kept: list[tuple[float, float, float, float]] = []
    running, u_cut, cut_mass_log = 0.0, 0.0, -math.inf
    for j in range(len(spans) - 1, -1, -1):
        if running > 0.0 and below[j] - gmax <= LN_EPS + math.log(running):
            u_cut, cut_mass_log = spans[j][1], float(below[j]) - math.log(t)
            break
        val, err = _gk15(f, *spans[j])
        running += val
        kept.append((*spans[j], val, err))

    kept.reverse()             # summed bottom-up, as over the whole ladder
    total = err_total = 0.0
    for _, _, val, err in kept:
        total += val
        err_total += err
    heap = [(-err, i, a, b, val) for i, (a, b, val, err) in enumerate(kept)]
    heapq.heapify(heap)
    count = panels = len(kept)
    while err_total > rel_tol * abs(total) and heap:
        if panels >= MAX_PANELS:
            raise ConvergenceError(
                f"subdivision limit {MAX_PANELS} reached (err ~ {err_total:.2e})")
        neg_err, _, a, b, old_val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk15(f, a, mid)
        v2, e2 = _gk15(f, mid, b)
        total += v1 + v2 - old_val
        err_total += e1 + e2 + neg_err   # neg_err = -old_err
        heapq.heappush(heap, (-e1, count, a, mid, v1)); count += 1
        heapq.heappush(heap, (-e2, count, mid, b, v2)); count += 1
        panels += 1

    if total <= 0.0:
        raise ConvergenceError("integral evaluated to a nonpositive value")
    log_value = math.log(total) + gmax - math.log(t)
    err_log = (math.log(err_total) + gmax - math.log(t)
               if err_total > 0.0 else -math.inf)
    return QuadResult(value=LogValue(1, log_value), abs_error_log=err_log,
                      subdivisions=panels, u_cut=u_cut, cut_mass_log=cut_mass_log)
