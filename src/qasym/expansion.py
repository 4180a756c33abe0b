"""Laplace expansion at each interior maximum, the flat-tail term, and
assembly of the full asymptotic value including the constant-product
prefactor.  What depends only on the spec (maxima, tail law, prefactor law,
branch and dominant law) is computed once into an ``Analysis``, which
refuses a spec the expansion does not cover; the asym route only assembles
it at each t.

At a maximum u of order k the logged term expands around x = u/t with
peak-width normalizer V = (-F^(2k)(u/t)/(2k)!)^(1/(2k)); the reduced
derivatives lambda_r = F^(r)(u/t)/(r! V^r) (r != 2k) feed the moment
corrections kappa via exp(sum* lambda_r y^r) = sum_l kappa_l y^l, of which
only even indices survive the symmetric integral:

    sum over terms near the peak ~ e^{F(u/t)}/V *
        sum_l Gamma((2l+1)/(2k)) kappa_{2l}(u,t)/k.

F(u/t) and its x-derivatives come from the inner sum's closed form
differentiated termwise (``specfun.kernel_rows``), O(1) in t.

When A = v = 0 and f(alpha_1) > 0 the flat tail adds
Gamma(B/alpha_1)/(alpha_1 f(alpha_1)^(B/alpha_1)) * t^(B/alpha_1 - 1).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateError, DomainError, HypothesisError, SignError
from .phase import StationaryPoint, check_hypothesis, stationary_points
from .qseries import (Law, QuadTerm, SeriesSpec, _exp_series, _require_t, log_summand_deriv,
                      prefactor_asym, prefactor_law)

DEFAULT_L = 2   # correction order of the peak expansion
DEFAULT_M = 8   # prefactor correction order


class Analysis(NamedTuple):
    """Everything the asym route needs of a normalized series and its
    prefactor quads that does not depend on t; see ``analyse``.

    ``peaks`` are the interior maxima of the leading phase.  ``tail`` is the
    ``Law`` of the flat-tail term C t^t_power (rate 0) when it applies
    (A = v = 0 and f(alpha_1) > 0), else None, and ``prefactor`` that of the
    constant product.  ``branch`` is "peak", "tail" or "sum-of-peaks+tail",
    and ``law`` the dominant branch's leading law C t^t_power e^(rate/t) with
    the prefactor's folded in (no coefficients)."""
    series: SeriesSpec
    peaks: tuple[StationaryPoint, ...]
    tail: Optional[Law]
    prefactor: Law
    branch: str
    law: Law


def analyse(series: SeriesSpec, quads: tuple[QuadTerm, ...] = (),
            M: int = DEFAULT_M) -> Analysis:
    """Maxima, tail term, branch and dominant law of ``series``, with the
    prefactor of ``quads`` expanded to order M.  Raises ``HypothesisError``
    when the leading phase does not increase near 0, and ``DegenerateError``
    when neither a maximum nor the tail applies: both depend on the spec
    alone, so no t is paid for first."""
    hyp = check_hypothesis(series)
    if not hyp:
        raise HypothesisError(f"increasing-near-zero hypothesis fails: {hyp.detail}")
    peaks = tuple(stationary_points(series))
    tail = law = None
    if series.A == 0 and series.v == 0 and series.falpha and series.falpha[0][1] > 0:
        alpha1, f1 = series.falpha[0]   # B > 0 by the domain triple
        ba = series.B / alpha1
        tail = Law(0.0, ba - 1.0, math.lgamma(ba) - math.log(alpha1) - ba * math.log(f1))
    if peaks:       # C_u t^(-1+1/(2k)) e^(H(u)/t) of the highest maximum
        dom = max(peaks, key=lambda sp: sp.h_value)
        law = Law(dom.h_value, -1.0 + 1.0 / (2 * dom.order), dom.log_c_u)
    # the tail, of rate 0, beats lower maxima, and at height 0 a smaller t power
    if tail and (law is None or law.rate < 0
                 or (law.rate == 0 and tail.t_power < law.t_power)):
        law = tail
    if law is None:
        raise DegenerateError("no interior maximum and no applicable tail branch; "
                              "the expansion machinery does not cover this spec")
    pre = prefactor_law(quads, M)
    return Analysis(series=series, peaks=peaks, tail=tail, prefactor=pre,
                    branch=("sum-of-peaks+tail" if tail else "peak") if peaks else "tail",
                    law=Law(pre.rate + law.rate, pre.t_power + law.t_power,
                            pre.log_c + law.log_c))


def _lambda_table(spec: SeriesSpec, sp: StationaryPoint, ts: tuple, rmax: int):
    # columns over ts of F(u/t), V and {r: lambda_r} for r <= rmax, from the
    # closed form's rows 0..max(rmax, 2k) at the points u/t, O(1) in t; each
    # power is taken per t by float pow, as numpy's may round otherwise
    two_k = 2 * sp.order
    t_col = np.array(ts, dtype=float)
    d = log_summand_deriv(spec, tuple(range(max(rmax, two_k) + 1)), sp.u / t_col, t_col)
    bad = np.flatnonzero(d[two_k] >= 0)
    if bad.size:
        raise SignError(f"order-{two_k} derivative nonnegative at the peak "
                        f"(t={ts[bad[0]]} too large)")
    V = list(map(pow, (-d[two_k] / math.factorial(two_k)).tolist(), repeat(1.0 / two_k)))
    lams = {r: d[r] / (float(math.factorial(r))
                       * np.array(V if r == 1 else list(map(pow, V, repeat(r)))))
            for r in range(1, rmax + 1) if r != two_k}
    return d[0], np.array(V), lams


def peak_value(spec: SeriesSpec, sp: StationaryPoint, ts: tuple,
               L: int = DEFAULT_L) -> np.ndarray:
    """log of exp(F(u/t,t))/V * sum_{l<=L} Gamma((2l+1)/(2k)) kappa_{2l}/k at each
    t of ts, the peak term of the maximum sp of order k: the logged term, the
    width normalizer and kappa_0 = 1, kappa_2, ..., kappa_{2L} as columns over
    ts, from one closed-form call over the orders 0..max(2L, 2k)."""
    if L < 0:
        raise DomainError(f"correction order must be nonnegative, got {L}")
    f_u, V, lams = _lambda_table(spec, sp, ts, 2 * L)
    k = sp.order
    s = sum((math.gamma((2 * ell + 1) / (2 * k)) * kappa / k
             for ell, kappa in enumerate(_exp_series(lams, 2 * L)[::2])), np.zeros(len(ts)))
    bad = np.flatnonzero(s <= 0)
    if bad.size:
        raise DegenerateError(f"correction sum nonpositive ({float(s[bad[0]])}); "
                              f"expansion broke down at t={ts[bad[0]]}")
    return (f_u - np.array(list(map(math.log, V.tolist())))
            + np.array(list(map(math.log, s.tolist()))))


class AsymptoticResult(NamedTuple):
    """The asymptotic value over a grid, as columns: per t,
    log_value = (the ``Analysis.law``'s log at t) + log(correction_factor),
    the factor absorbing the finite-t corrections (kappa sums, the
    prefactor's coefficients, and any subdominant branch)."""
    t: list[float]
    log_value: list[float]
    correction_factor: list[float]


def asym_from_parts(an: Analysis, ts: tuple, L: int = DEFAULT_L,
                    q_power: float = 0.0) -> AsymptoticResult:
    """Peaks + tail of the analysed series times the asymptotic constant-product
    prefactor and the fixed factor q^q_power (applied verbatim on both branches)
    at each t of ts, each row the bits it has alone, one closed-form call per peak.  A
    t outside (0, T_MAX) raises as on the exact routes, and a row whose value or
    correction factor leaves the float range raises, naming its t."""
    _require_t(ts)
    if L < 0:
        raise DomainError(f"correction order must be nonnegative, got {L}")
    t_col = np.array(ts, dtype=float)
    log_t = np.array(list(map(math.log, ts)))
    with np.errstate(all="ignore"):     # a row out of float range raises below
        parts = [peak_value(an.series, sp, ts, L) for sp in an.peaks]
        if an.tail:
            parts.append(prefactor_asym(an.tail, ts, log_t))
        value = np.logaddexp.reduce(parts)      # big + log1p(exp(small - big)) per pair
        total = (value + prefactor_asym(an.prefactor, ts, log_t)) - q_power * t_col
        gap = total - prefactor_asym(an.law, ts, log_t)
        # numpy's e^gap is inf where math.exp raises: at the floats next to
        # log(DBL_MAX), e^gap lies over 100 ulp inside or outside the range;
        # past an ulp of the total of log(DBL_MAX), gap is rounding alone and
        # would leave the range or not by the sign of that rounding
        bad = np.flatnonzero(~np.isfinite(gap + np.exp(gap) + np.exp(np.spacing(np.abs(total)))))
    if bad.size:
        raise DegenerateError(f"asymptotic value out of float range at t={ts[bad[0]]}")
    return AsymptoticResult(list(ts), total.tolist(), list(map(math.exp, gap.tolist())))
