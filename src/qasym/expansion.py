"""Laplace expansion at each interior maximum, the flat-tail term, and
assembly of the full asymptotic value including the constant-product
prefactor.  What depends only on the spec (phase, hypothesis, maxima, tail
law, branch and dominant law) is computed once into an ``Analysis``, which
refuses a spec the expansion does not cover; the asym route only assembles
it at each t.

At a maximum u of order k the logged term expands around x = u/t with
peak-width normalizer V = (-F^(2k)(u/t)/(2k)!)^(1/(2k)); the reduced
derivatives lambda_r = F^(r)(u/t)/(r! V^r) (r != 2k) feed the moment
corrections kappa via exp(sum* lambda_r y^r) = sum_l kappa_l y^l, of which
only even indices survive the symmetric integral:

    sum over terms near the peak ~ e^{F(u/t)}/V *
        sum_l Gamma((2l+1)/(2k)) kappa_{2l}(u,t)/k.

When A = v = 0 and f(alpha_1) > 0 the flat tail adds
Gamma(B/alpha_1)/(alpha_1 f(alpha_1)^(B/alpha_1)) * t^(B/alpha_1 - 1).
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateError, HypothesisError, SignError
from .phase import (HypothesisReport, StationaryPoint, check_hypothesis,
                    stationary_points)
from .qseries import (PrefactorLaw, QuadTerm, SeriesSpec, log_summand_deriv,
                      prefactor_asym, prefactor_law)

DEFAULT_L = 2   # correction order of the peak expansion
DEFAULT_M = 8   # prefactor correction order


class Analysis(NamedTuple):
    """Everything the asym route needs of a normalized series and its
    prefactor quads that does not depend on t; see ``analyse``.

    ``peaks`` are the interior maxima of the leading phase.  ``tail`` is
    (log C, t_power) of the flat-tail term C t^t_power when it applies
    (A = v = 0 and f(alpha_1) > 0), else None.  ``branch`` is "peak", "tail"
    or "sum-of-peaks+tail", and ``law`` the dominant branch's t->0 law
    C t^t_power e^(rate/t) as (rate, t_power, log C) with the prefactor
    folded in."""
    series: SeriesSpec
    hypothesis: HypothesisReport
    peaks: tuple[StationaryPoint, ...]
    tail: Optional[tuple[float, float]]
    prefactor: PrefactorLaw
    branch: str
    law: tuple[float, float, float]


def analyse(series: SeriesSpec, quads: tuple[QuadTerm, ...] = (),
            M: int = DEFAULT_M) -> Analysis:
    """Hypothesis, maxima, tail term, branch and dominant law of ``series``,
    with the prefactor of ``quads`` expanded to order M.  Raises
    ``HypothesisError`` when the leading phase does not increase near 0, and
    ``DegenerateError`` when neither a maximum nor the tail applies: both
    depend on the spec alone, so no t is paid for first."""
    hyp = check_hypothesis(series)
    if not hyp:
        raise HypothesisError(f"increasing-near-zero hypothesis fails: {hyp.detail}")
    peaks = tuple(stationary_points(series))
    tail = law = None
    if series.A == 0 and series.v == 0 and series.falpha and series.falpha[0][1] > 0:
        alpha1, f1 = series.falpha[0]   # B > 0 by the domain triple
        ba = series.B / alpha1
        tail = (math.lgamma(ba) - math.log(alpha1) - ba * math.log(f1), ba - 1.0)
    if peaks:       # C_u t^(-1+1/(2k)) e^(H(u)/t) of the highest maximum
        dom = max(peaks, key=lambda sp: sp.h_value)
        law = (dom.h_value, -1.0 + 1.0 / (2 * dom.order), dom.log_c_u)
    # the tail, of rate 0, beats lower maxima, and at height 0 a smaller t power
    if tail and (law is None or law[0] < 0 or (law[0] == 0 and tail[1] < law[1])):
        law = (0.0, tail[1], tail[0])
    if law is None:
        raise DegenerateError("no interior maximum and no applicable tail branch; "
                              "the expansion machinery does not cover this spec")
    pre = prefactor_law(quads, M)
    return Analysis(series=series, hypothesis=hyp, peaks=peaks, tail=tail, prefactor=pre,
                    branch=("sum-of-peaks+tail" if tail else "peak") if peaks else "tail",
                    law=(pre.A_H + law[0], pre.B_H + law[1], pre.log_C + law[2]))


def _lambda_table(spec: SeriesSpec, sp: StationaryPoint, ts: tuple, rmax: int):
    # columns over ts of F(u/t), V and {r: lambda_r} for r <= rmax, from one
    # k-sum over orders 0..max(rmax, 2k) and the points u/t; each power is
    # taken per t by float pow, as numpy's may round otherwise
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


def _exp_series(lams: dict, order: int) -> list:
    # coefficients of exp(sum_r a_r y^r): b_0 = 1, n b_n = sum_r r a_r b_{n-r},
    # for numbers a_r or columns of them
    b = [1.0]
    for n in range(1, order + 1):
        s = 0.0
        for r, a in lams.items():
            if r <= n:
                s = s + r * a * b[n - r]
        b.append(s / n)
    return b


def peak_value(spec: SeriesSpec, sp: StationaryPoint, ts: tuple,
               L: int = DEFAULT_L) -> np.ndarray:
    """log of exp(F(u/t,t))/V * sum_{l<=L} Gamma((2l+1)/(2k)) kappa_{2l}/k at each
    t of ts, the peak term of the maximum sp of order k: the logged term, the
    width normalizer and kappa_0 = 1, kappa_2, ..., kappa_{2L} as columns over
    ts, from one k-sum over the derivative orders 0..max(2L, 2k)."""
    if L < 0:
        raise ValueError("correction order must be nonnegative")
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
    """Asymptotic value at a fixed t, split as
    log = log_constant + t_power*log t + rate/t + log(correction_factor).

    rate/t_power/log_constant describe the dominant branch's t->0 law with
    the constant-product prefactor folded in; correction_factor absorbs the
    finite-t corrections (kappa sums, prefactor exponential tail, and any
    subdominant branch).  branch is "peak", "tail" or "sum-of-peaks+tail".
    """
    rate: float
    t_power: float
    log_constant: float
    correction_factor: float
    branch: str
    t: float
    log_value: float


def asym_from_parts(an: Analysis, ts: tuple, L: int = DEFAULT_L,
                    q_power: float = 0.0) -> tuple[AsymptoticResult, ...]:
    """Peaks + tail of the analysed series times the asymptotic
    constant-product prefactor and the fixed factor q^q_power (applied
    verbatim on both branches), one result per t of ts, each with the bits
    it has alone, from one k-sum per peak.  A row whose value or correction
    factor leaves the float range raises, naming its t."""
    rate, t_power, log_constant = an.law
    t_col = np.array(ts, dtype=float)
    log_t = np.array(list(map(math.log, ts)))
    with np.errstate(all="ignore"):     # a row out of float range raises below
        parts = [peak_value(an.series, sp, ts, L) for sp in an.peaks]
        if an.tail:
            parts.append(an.tail[0] + an.tail[1] * log_t)
        value = np.logaddexp.reduce(parts)      # big + log1p(exp(small - big)) per pair
        total = (value + prefactor_asym(an.prefactor, ts, log_t)) - q_power * t_col
        gap = total - (rate / t_col + t_power * log_t + log_constant)
        # numpy's e^gap is inf where math.exp raises: at the floats next to
        # log(DBL_MAX), e^gap lies over 100 ulp inside or outside the range
        bad = np.flatnonzero(~np.isfinite(gap + np.exp(gap)))
    if bad.size:
        raise DegenerateError(f"asymptotic value out of float range at t={ts[bad[0]]}")
    factors = list(map(math.exp, gap.tolist()))
    return tuple(map(tuple.__new__, repeat(AsymptoticResult), zip(  # no per-row __new__ call
        repeat(rate), repeat(t_power), repeat(log_constant), factors, repeat(an.branch),
        ts, total.tolist())))
