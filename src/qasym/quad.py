"""Log-space adaptive quadrature of the series' continuous companion
integral over (0, inf), in u = x t: the peak width is O(sqrt t) in u, so
panel counts stay t-independent.  The range is a window of
``qseries.mass_ladder``, the certificate series_sum's window comes from,
and leaves out at most 1e-18 of the integral whatever the tolerance, which
drives only the refinement.  The initial panels run between every
PANEL_STRIDE-th edge of that ladder in the window, then are halved by the
embedded Gauss-Kronrod 7/15 error estimate, with all exponentials taken
relative to the largest logged value on any node so far.
"""

from __future__ import annotations

import heapq
import math
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError
from .qseries import LN_EPS, U_END, MassLadder, SeriesSpec, log_summand, mass_ladder

MAX_PANELS = 1 << 14
PANEL_STRIDE = 4   # ladder pieces per initial panel: 4 terms, or ratio 2^(1/8)

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


def _gk15(logf, a: np.ndarray, b: np.ndarray,
          shift: float) -> tuple[np.ndarray, np.ndarray, float]:
    """(Kronrod-15 values, |K15-G7| error estimates, shift') of e^logf over
    the panels [a_i, b_i], relative to e^shift', the larger of shift and the
    top of logf, called once on all their nodes; at one shift', a panel's
    values do not depend on the others (row sums, not a matrix product)."""
    c, h = 0.5 * (a + b), 0.5 * (b - a)
    g = logf((c[:, None] + h[:, None] * _X).ravel()).reshape(len(a), len(_X))
    shift = max(shift, float(g.max()))
    y = np.exp(g - shift)
    resk = h * (y * _WK).sum(axis=1)
    return resk, np.abs(resk - h * (y[:, 1::2] * _WG7).sum(axis=1)), shift


class QuadResult(NamedTuple):
    log_value: float
    abs_error_log: float   # log of the estimated absolute error
    subdivisions: int
    u_cut: float           # the window's lower end (0.0: from u = 0)
    cut_mass_log: float    # log of the certified mass outside the window


def _adaptive(spec: SeriesSpec, edges: np.ndarray, t: float,
              rel_tol: float) -> tuple[float, float, int]:
    """(log value, log error estimate, panels) of (1/t) int exp(F(u/t)) du
    over the initial panels between ``edges``, halving the panel of largest
    estimate until they add up to at most rel_tol of the value; it also
    holds rounding: 50 eps (QUADPACK's) and an ulp of each part of the log."""
    logf = lambda u: log_summand(spec, u / t, t)
    vals, errs, gmax = _gk15(logf, edges[:-1], edges[1:], -math.inf)
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
        vals, errs, top = _gk15(logf, np.array([a, mid]), np.array([mid, b]), gmax)
        s, gmax = math.exp(gmax - top), top   # 1 unless a node tops all before
        if s < 1.0:   # rescale what is kept; the heap's order stays
            heap = [(e * s, i, a_, b_, v * s) for e, i, a_, b_, v in heap]
        (v1, v2), (e1, e2) = vals.tolist(), errs.tolist()
        total = total * s + (v1 + v2 - old_val * s)
        err_total = err_total * s + (e1 + e2 + neg_err * s)   # neg_err = -old_err
        heapq.heappush(heap, (-e1, count, a, mid, v1)); count += 1
        heapq.heappush(heap, (-e2, count, mid, b, v2)); count += 1
        panels += 1

    if total <= 0.0:
        raise ConvergenceError("integral evaluated to a nonpositive value")
    parts = (math.log(total), gmax, -math.log(t))
    rel_err = err_total / total + 50.0 * math.ulp(1.0) + sum(map(math.ulp, parts))
    return sum(parts), sum(parts) + math.log(rel_err), panels


def integral(spec: SeriesSpec, t: float, rel_tol: float = 1e-10,
             lad: MassLadder | None = None) -> QuadResult:
    """Integral over x in (0, inf) of exp(log_summand(x)) for the normalized
    series, computed as (1/t) * int exp(F(u/t)) du over the window of ``lad``,
    t's ``mass_ladder`` (built here if None), that leaves out at most 1e-18 of
    its exact term.  If that is more than 1e-18 of the integral, the window is
    widened once on the same ladder, to 1e-18 of the integral itself; if it
    still is, it raises ConvergenceError.  Deterministic for fixed inputs."""
    if not 1e-12 <= rel_tol < math.inf:
        raise DomainError(f"rel_tol must be finite and >= 1e-12, got {rel_tol}")
    if lad is None:
        lad = mass_ladder(spec, (t,))[0]
    level = lad.probe_log
    for _ in range(2):
        cut, left = lad.window(level)
        ok = np.flatnonzero(left <= level + LN_EPS)
        if not len(ok):
            raise ConvergenceError(f"integrand still significant at u = m*t = U_END = {U_END:g}")
        e = lad.edges[cut:ok[0] + 1]
        edges = np.r_[e[:-1:PANEL_STRIDE], e[-1]] * t
        log_value, err_log, panels = _adaptive(spec, edges, t, rel_tol)
        if left[ok[0]] <= log_value + LN_EPS:
            return QuadResult(log_value, err_log, panels, float(edges[0]),
                              float(left[ok[0]]))
        level = log_value
    raise ConvergenceError("the window leaves out more than 1e-18 of the integral")
