"""Laplace expansion at each interior maximum, the leading tail term, and
assembly of the full asymptotic value including the constant-product
prefactor.  What depends only on the spec (phase, hypothesis, maxima, tail
flag, prefactor law) is computed once into an ``Analysis``, which the asym
route reuses for every t.

At a maximum u of order k the logged term expands around x = u/t with
peak-width normalizer V = (-F^(2k)(u/t)/(2k)!)^(1/(2k)); the reduced
derivatives lambda_r = F^(r)(u/t)/(r! V^r) (r != 2k) feed the moment
corrections kappa via exp(sum* lambda_r y^r) = sum_l kappa_l y^l, of which
only even indices survive the symmetric integral:

    sum over terms near the peak ~ e^{F(u/t)}/V *
        sum_l Gamma((2l+1)/(2k)) kappa_{2l}(u,t)/k.

When no interior maximum exists and the flat tail applies, the leading
contribution is Gamma(B/alpha_1)/(alpha_1 f(alpha_1)^(B/alpha_1)) *
t^(B/alpha_1 - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BranchError, DegenerateError, HypothesisError, SignError
from .logvalue import LogValue
from .phase import (HypothesisReport, PhaseFamily, StationaryPoint, build_phase,
                    check_hypothesis, stationary_points)
from .qseries import (PrefactorLaw, QuadTerm, SeriesSpec, log_summand_deriv,
                      prefactor_asym, prefactor_law)

DEFAULT_L = 2   # correction order of the peak expansion
DEFAULT_M = 8   # prefactor correction order


@dataclass(frozen=True)
class Analysis:
    """Everything the asym route needs of a normalized series and its
    prefactor quads that does not depend on t; see ``analyse``.

    ``peaks`` are the interior maxima of the leading phase, found only when
    the hypothesis holds (empty otherwise); ``tail`` says whether the
    flat-tail term applies (A = v = 0 and f(alpha_1) > 0)."""
    phase: PhaseFamily
    hypothesis: HypothesisReport
    peaks: tuple[StationaryPoint, ...]
    tail: bool
    prefactor: PrefactorLaw

    @property
    def series(self) -> SeriesSpec:
        return self.phase.spec


def analyse(series: SeriesSpec, quads: tuple[QuadTerm, ...] = (),
            M: int = DEFAULT_M) -> Analysis:
    """Phase family, hypothesis, maxima and tail flag of ``series``, with
    the prefactor of ``quads`` expanded to order M."""
    pf = build_phase(series)
    hyp = check_hypothesis(pf)
    tail = (series.A == 0 and series.v == 0 and bool(pf.falpha)
            and pf.falpha[0][1] > 0)
    return Analysis(phase=pf, hypothesis=hyp,
                    peaks=tuple(stationary_points(pf)) if hyp else (),
                    tail=tail, prefactor=prefactor_law(quads, M))


@dataclass(frozen=True)
class CorrectionSeries:
    """Peak data at one maximum: the logged term F(u/t), width normalizer V
    and the even moment corrections kappa_0=1, kappa_2, ..., kappa_{2L}."""
    u: float
    k_u: int
    log_peak: float
    V: float
    kappas: tuple[float, ...]


def _grid(t) -> tuple:
    return t if isinstance(t, tuple) else (t,)      # a float t as a 1-tuple


def _each(t, rows: list):
    return tuple(rows) if isinstance(t, tuple) else rows[0]     # as t came


def _lambda_table(spec: SeriesSpec, sp: StationaryPoint, t, rmax: int):
    # F(u/t), V and lambda_r for r <= rmax at t, or at each t of a tuple,
    # from one k-sum over orders 0.. and the points u/t
    two_k = 2 * sp.order
    ts = _grid(t)
    d = log_summand_deriv(spec, tuple(range(max(rmax, two_k) + 1)),
                          [sp.u / tj for tj in ts], list(ts))
    rows = []
    for j, tj in enumerate(ts):
        d2k = float(d[two_k, j])
        if d2k >= 0:
            raise SignError(f"order-{two_k} derivative nonnegative at the peak "
                            f"(t={tj} too large)")
        V = (-d2k / math.factorial(two_k)) ** (1.0 / two_k)
        lams = {r: float(d[r, j]) / (math.factorial(r) * V ** r)
                for r in range(1, rmax + 1) if r != two_k}
        rows.append((float(d[0, j]), V, lams))
    return _each(t, rows)


def _exp_series(lams: dict[int, float], order: int) -> list[float]:
    # coefficients of exp(sum_r a_r y^r): b_0 = 1, n b_n = sum_r r a_r b_{n-r}
    b = [0.0] * (order + 1)
    b[0] = 1.0
    for n in range(1, order + 1):
        s = 0.0
        for r, a in lams.items():
            if r <= n:
                s += r * a * b[n - r]
        b[n] = s / n
    return b


def corrections(spec: SeriesSpec, sp: StationaryPoint, t, L: int):
    """Logged peak term, peak-width normalizer and kappa_0..kappa_{2L} at
    the maximum sp, at t or, one ``CorrectionSeries`` each, at every t of a
    tuple; the derivatives at all of them come from one k-sum."""
    if L < 0:
        raise ValueError("correction order must be nonnegative")
    k = sp.order
    rmax = max(2 * k * (2 * k + 1) * L, 1)
    return _each(t, [CorrectionSeries(u=sp.u, k_u=k, log_peak=f_u, V=V,
                                      kappas=tuple(_exp_series(lams, 2 * L)[::2]))
                     for f_u, V, lams in _lambda_table(spec, sp, _grid(t), rmax)])


def peak_value(spec: SeriesSpec, sp: StationaryPoint, t, L: int = DEFAULT_L):
    """exp(F(u/t,t))/V * sum_{l<=L} Gamma((2l+1)/(2k)) kappa_{2l}/k (per t)."""
    rows = []
    for tj, cs in zip(_grid(t), corrections(spec, sp, _grid(t), L)):
        k = cs.k_u
        s = sum(math.gamma((2 * ell + 1) / (2 * k)) * cs.kappas[ell] / k
                for ell in range(L + 1))
        if s <= 0:
            raise DegenerateError(
                f"correction sum nonpositive ({s}); expansion broke down at t={tj}")
        rows.append(LogValue(1, cs.log_peak - math.log(cs.V) + math.log(s)))
    return _each(t, rows)


def leading_constant(sp: StationaryPoint) -> tuple[float, float, float]:
    """(C_u, t_power, rate) of the t->0 law C_u t^(-1+1/(2m)) e^(rate/t)."""
    return sp.c_u, -1.0 + 1.0 / (2 * sp.order), sp.h_value


def _tail_law(pf: PhaseFamily) -> tuple[float, float]:
    """(log C, t_power) of the far-tail term C t^(B/alpha_1 - 1)."""
    alpha1, f1 = pf.falpha[0]
    ba = pf.spec.B / alpha1
    return math.lgamma(ba) - math.log(alpha1) - ba * math.log(f1), ba - 1.0


def tail_leading(pf: PhaseFamily, t: float) -> LogValue:
    """Gamma(B/alpha_1)/(alpha_1 f(alpha_1)^(B/alpha_1)) * t^(B/alpha_1 - 1),
    the leading far-tail contribution when A = v = 0 and f(alpha_1) > 0."""
    s = pf.spec
    if s.A != 0 or s.v != 0:
        raise BranchError("tail term is zero unless A = 0 and v = 0")
    if not pf.falpha:
        raise BranchError("no Pochhammer terms: tail exponent alpha_1 undefined")
    if pf.falpha[0][1] < 0:
        raise BranchError("f(alpha_1) < 0: tail term is zero")
    if s.B <= 0:
        raise BranchError("tail term needs B > 0")
    log_c, t_power = _tail_law(pf)
    return LogValue(1, log_c + t_power * math.log(t))


@dataclass(frozen=True)
class AsymptoticResult:
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
    total: LogValue


def asym_from_parts(an: Analysis, t, L: int = DEFAULT_L, q_power: float = 0.0):
    """Assemble peaks + tail of the analysed series at t and multiply by the
    asymptotic constant-product prefactor and the fixed factor q^q_power
    (applied verbatim on both branches); at a tuple of t, one result each,
    with the bits it has alone, from one k-sum per peak."""
    if not an.hypothesis:
        raise HypothesisError(
            f"increasing-near-zero hypothesis fails: {an.hypothesis.detail}")
    sps = an.peaks
    if not sps and not an.tail:
        raise DegenerateError(
            "no interior maximum and no applicable tail branch; "
            "the expansion machinery does not cover this spec")
    peaks = [peak_value(an.series, sp, _grid(t), L) for sp in sps]
    tail_only = not sps
    if sps:
        dom = max(sps, key=lambda sp: sp.h_value)
        c_u, tp, rate = leading_constant(dom)
        if an.tail and (dom.h_value < 0 or (dom.h_value == 0
                                            and _tail_law(an.phase)[1] < tp)):
            tail_only = True
    if tail_only:
        log_cu, tp = _tail_law(an.phase)
        rate = 0.0
    else:
        log_cu = math.log(c_u)
    branch = "tail" if not sps else ("sum-of-peaks+tail" if an.tail else "peak")
    law = an.prefactor
    rate_total = law.A_H + rate
    t_power = law.B_H + tp
    log_constant = law.log_C + log_cu
    rows = []
    for j, tj in enumerate(_grid(t)):
        n_val = sum((values[j] for values in peaks), LogValue.zero())
        i_val = tail_leading(an.phase, tj) if an.tail else LogValue.zero()
        total = ((n_val + i_val) * prefactor_asym(law, tj)
                 * LogValue.from_log(-q_power * tj))
        base = rate_total / tj + t_power * math.log(tj) + log_constant
        corr = math.exp(total.log_abs - base) * total.sign
        rows.append(AsymptoticResult(rate=rate_total, t_power=t_power,
                                     log_constant=log_constant, correction_factor=corr,
                                     branch=branch, t=tj, total=total))
    return _each(t, rows)
