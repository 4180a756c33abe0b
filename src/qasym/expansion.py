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


def _lambda_table(spec: SeriesSpec, sp: StationaryPoint, t: float,
                  rmax: int) -> tuple[float, float, dict[int, float]]:
    # F(u/t), V and lambda_r for r <= rmax, from one k-sum over orders 0..
    two_k = 2 * sp.order
    d = log_summand_deriv(spec, tuple(range(max(rmax, two_k) + 1)), sp.u / t, t)
    d2k = float(d[two_k])
    if d2k >= 0:
        raise SignError(
            f"order-{two_k} derivative nonnegative at the peak (t={t} too large)")
    V = (-d2k / math.factorial(two_k)) ** (1.0 / two_k)
    lams = {r: float(d[r]) / (math.factorial(r) * V ** r)
            for r in range(1, rmax + 1) if r != two_k}
    return float(d[0]), V, lams


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


def corrections(spec: SeriesSpec, sp: StationaryPoint, t: float,
                L: int) -> CorrectionSeries:
    """Logged peak term, peak-width normalizer and kappa_0..kappa_{2L} at
    the maximum sp."""
    if L < 0:
        raise ValueError("correction order must be nonnegative")
    k = sp.order
    rmax = max(2 * k * (2 * k + 1) * L, 1)
    f_u, V, lams = _lambda_table(spec, sp, t, rmax)
    coeffs = _exp_series(lams, 2 * L)
    return CorrectionSeries(u=sp.u, k_u=k, log_peak=f_u, V=V,
                            kappas=tuple(coeffs[2 * ell] for ell in range(L + 1)))


def peak_value(spec: SeriesSpec, sp: StationaryPoint, t: float,
               L: int = DEFAULT_L) -> LogValue:
    """exp(F(u/t,t))/V * sum_{l<=L} Gamma((2l+1)/(2k)) kappa_{2l}/k."""
    cs = corrections(spec, sp, t, L)
    k = cs.k_u
    s = sum(math.gamma((2 * ell + 1) / (2 * k)) * cs.kappas[ell] / k
            for ell in range(L + 1))
    if s <= 0:
        raise DegenerateError(
            f"correction sum nonpositive ({s}); expansion broke down at t={t}")
    return LogValue(1, cs.log_peak - math.log(cs.V) + math.log(s))


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


def asym_from_parts(an: Analysis, t: float, L: int = DEFAULT_L,
                    q_power: float = 0.0) -> AsymptoticResult:
    """Assemble peaks + tail of the analysed series at t and multiply by the
    asymptotic constant-product prefactor and the fixed factor q^q_power
    (applied verbatim on both branches)."""
    if not an.hypothesis:
        raise HypothesisError(
            f"increasing-near-zero hypothesis fails: {an.hypothesis.detail}")
    sps = an.peaks
    n_val = LogValue.zero()
    for sp in sps:
        n_val = n_val + peak_value(an.series, sp, t, L)
    i_val = tail_leading(an.phase, t) if an.tail else LogValue.zero()
    if n_val.is_zero() and i_val.is_zero():
        raise DegenerateError(
            "no interior maximum and no applicable tail branch; "
            "the expansion machinery does not cover this spec")
    law = an.prefactor
    total = ((n_val + i_val) * prefactor_asym(law, t)
             * LogValue.from_log(-q_power * t))

    tail_only = not sps
    if sps:
        dom = max(sps, key=lambda sp: sp.h_value)
        c_u, tp, rate = leading_constant(dom)
        if not i_val.is_zero() and (dom.h_value < 0
                                    or (dom.h_value == 0
                                        and _tail_law(an.phase)[1] < tp)):
            tail_only = True
    if tail_only:
        log_cu, tp = _tail_law(an.phase)
        rate = 0.0
    else:
        log_cu = math.log(c_u)
    branch = ("tail" if not sps else
              ("sum-of-peaks+tail" if not i_val.is_zero() else "peak"))
    rate_total = law.A_H + rate
    t_power = law.B_H + tp
    log_constant = law.log_C + log_cu
    base = rate_total / t + t_power * math.log(t) + log_constant
    corr = math.exp(total.log_abs - base) * total.sign
    return AsymptoticResult(rate=rate_total, t_power=t_power,
                            log_constant=log_constant, correction_factor=corr,
                            branch=branch, t=t, total=total)

