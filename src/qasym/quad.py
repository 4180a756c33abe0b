"""Log-space adaptive quadrature of the series' continuous companion
integral over (0, inf), in u = x t: the peak width is O(sqrt t) in u, so
panel counts stay t-independent.  The range is a window of
``qseries.mass_ladder``, the certificate series_sum's window comes from,
and leaves out at most 1e-18 of the integral whatever the tolerance, which
drives only the refinement.  Panels are seeded at every interior maximum
(an adaptive scheme alone can miss an O(sqrt t)-wide spike), at the
slow-tail scale log(1/t)/alpha_1 when that branch applies, and on a
geometric ladder down from the window's top, then halved by the embedded
Gauss-Kronrod 7/15 error estimate, with all exponentials taken relative to
the largest logged value on the initial nodes.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .expansion import Analysis
from .logvalue import LogValue
from .qseries import LN_EPS, U_END, SeriesSpec, log_summand, mass_ladder

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


# the 15 nodes in ascending order, their Kronrod and (odd-indexed) Gauss-7 weights
_X = np.r_[-_XGK[:-1], _XGK[::-1]]
_WK = np.r_[_WGK[:-1], _WGK[::-1]]
_WG7 = np.r_[_WG[:-1], _WG[::-1]]


def _gk15(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Kronrod-15 values, |K15-G7| error estimates) of f over the panels
    [a_i, b_i], with f called once on all their nodes; a panel's values do
    not depend on the others (row sums, not a matrix product)."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    y = f((c[:, None] + h[:, None] * _X).ravel()).reshape(len(a), len(_X))
    resk = h * (y * _WK).sum(axis=1)
    return resk, np.abs(resk - h * (y[:, 1::2] * _WG7).sum(axis=1))


@dataclass(frozen=True)
class QuadResult:
    value: LogValue
    abs_error_log: float   # log of the estimated absolute error
    subdivisions: int
    u_cut: float           # the window's lower end (0.0: from u = 0)
    cut_mass_log: float    # log of the certified mass outside the window


def _breakpoints(an: Analysis, t: float, u_lo: float, u_hi: float) -> np.ndarray:
    """Initial panel edges over [u_lo, u_hi]: a geometric ladder toward 0 plus
    the peak and tail seeds of the analysed series."""
    seeds: list[float] = []
    for sp in an.peaks:
        width = (math.factorial(2 * sp.order) * t
                 / abs(sp.h2m)) ** (1.0 / (2 * sp.order))
        seeds += [sp.u + k * width for k in (-5, -3, -2, -1, 0, 1, 2, 3, 5)]
    if an.tail:
        alpha1 = an.phase.falpha[0][0]
        u_tail = math.log(1.0 / t) / alpha1
        seeds += [s * u_tail for s in (0.3, 1.0, 2.0, 3.0)]
        seeds.append(t * math.log(1.0 / t) / alpha1)

    # geometric ladder toward 0 so a boundary-hugging integrand is resolved
    edges = [u_hi * 2.0 ** (-j) for j in range(24)] + seeds
    return np.array(sorted({u for u in edges if u_lo < u < u_hi} | {u_lo, u_hi}))


def _adaptive(spec: SeriesSpec, edges: np.ndarray, t: float,
              rel_tol: float) -> tuple[LogValue, float, int]:
    """(value, log error estimate, panels) of (1/t) int exp(F(u/t)) du
    over the initial panels between ``edges``, halving the panel of largest
    estimate until the estimates add up to at most rel_tol of the value."""
    gmax = None

    def f(u: np.ndarray) -> np.ndarray:
        nonlocal gmax           # read once, from the initial panels' nodes
        g = log_summand(spec, u / t, t)
        gmax = float(g.max()) if gmax is None else gmax
        return np.exp(g - gmax)

    vals, errs = _gk15(f, edges[:-1], edges[1:])
    total, err_total = sum(vals.tolist()), sum(errs.tolist())
    heap = [(-err, i, a, b, val) for i, (a, b, val, err) in enumerate(zip(
        edges[:-1].tolist(), edges[1:].tolist(), vals.tolist(), errs.tolist()))]
    heapq.heapify(heap)
    count = panels = len(heap)
    while err_total > rel_tol * abs(total) and heap:
        if panels >= MAX_PANELS:
            raise ConvergenceError(
                f"subdivision limit {MAX_PANELS} reached (err ~ {err_total:.2e})")
        neg_err, _, a, b, old_val = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        (v1, v2), (e1, e2) = (r.tolist() for r in _gk15(f, np.array([a, mid]),
                                                         np.array([mid, b])))
        total += v1 + v2 - old_val
        err_total += e1 + e2 + neg_err   # neg_err = -old_err
        heapq.heappush(heap, (-e1, count, a, mid, v1)); count += 1
        heapq.heappush(heap, (-e2, count, mid, b, v2)); count += 1
        panels += 1

    if total <= 0.0:
        raise ConvergenceError("integral evaluated to a nonpositive value")
    err_log = math.log(err_total) + gmax - math.log(t) if err_total > 0.0 else -math.inf
    return LogValue(1, math.log(total) + gmax - math.log(t)), err_log, panels


def integral(an: Analysis, t: float, rel_tol: float = 1e-10) -> QuadResult:
    """Integral over x in (0, inf) of exp(log_summand(x)) for the analysed
    series, computed as (1/t) * int exp(F(u/t)) du over the window of
    ``mass_ladder`` that leaves out at most 1e-18 of its exact term.  If
    that is more than 1e-18 of the integral, the window is widened once on
    the same ladder, to 1e-18 of the integral itself; if it still is, it
    raises ConvergenceError.  Deterministic for fixed inputs."""
    if not 1e-12 <= rel_tol < math.inf:
        raise DomainError(f"rel_tol must be finite and >= 1e-12, got {rel_tol}")
    lad = mass_ladder(an.series, t)
    level = lad.probe_log
    for _ in range(2):
        cut, _, left = lad.window(level)
        ok = np.flatnonzero(left <= level + LN_EPS)
        if not len(ok):
            raise ConvergenceError(f"integrand still significant at u = {U_END}")
        u_lo, u_hi = float(lad.edges[cut] * t), float(lad.edges[ok[0]] * t)
        value, err_log, panels = _adaptive(an.series, _breakpoints(an, t, u_lo, u_hi),
                                           t, rel_tol)
        if left[ok[0]] <= value.log_abs + LN_EPS:
            return QuadResult(value, err_log, panels, u_lo, float(left[ok[0]]))
        level = value.log_abs
    raise ConvergenceError("the window leaves out more than 1e-18 of the integral")
