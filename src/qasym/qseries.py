"""Series data model and exact (truncated) evaluation.

Covers: the canonical normalization from finite-symbol quadruples to
infinite-symbol terms, the logged general term of the normalized series and
its x-derivatives, log-space summation of the series over a window fixed
before it is summed (in one call of the term, or, for a long window, in
strided Euler-Maclaurin blocks whose end derivatives come from the
closed-form rows), and the constant prefactor, exact (the inner sum's closed
form) and by its product asymptotics.

Truncation policy for the outer sum and its integral: one ladder of pieces
(``mass_ladder``) certifies a window that leaves out at most 1e-18 of the
total, from the closed-form sandwich of the inner sum (``kernel_bounds``).
The two term evaluators are independent.  ``log_summand``, the exact
routes' term, takes the inner sum at the same cost at every t: the closed
form's row 0 (``kernel_rows``) below w = 0.1, at most 451 k-terms above
(``_kernel``).  ``log_summand_deriv``, the asym route's, takes every row,
order 0 included, from the same closed form differentiated termwise.  Every
value is positive and carried as its log: the series reach exp(pi^2/(5t)),
which overflows binary64 for t < 0.0125.
"""

from __future__ import annotations

import bisect
import functools
import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, SpecError
from .specfun import _BANDS, _CHUNK_ELEMS, bernoulli_pair, bernoulli_poly, kernel_rows, polylog

T_MAX = 0.5                 # largest t any evaluation accepts
LN_EPS = math.log(1e-18)    # relative truncation threshold, in log space
_KLOG_MARGIN = 45.0         # e^-45 ~ 3e-20: inner k-sums stop past this decay
_KMAX_HARD = 10_000_000     # most factors of the exact prefactor's product
_BAND_ELEMS = 1 << 13       # a chunk this big ends where its points' cuts halve
MAX_DERIV = _BANDS[-1]      # highest x-derivative order log_summand_deriv takes
_W_A = 0.1                  # _kernel: closed form below this w, k-sum above
_LADDER = 2.0 ** (1.0 / 32)  # edge ratio of series_sum's certificate ladder
U_END = 2000.0              # series_sum raises if not stopped by m t = U_END
_SUM_BUDGET = 1 << 27       # most terms a strided window may span
# series_sum strides a window this long: strided sums beat one call on the
# 52-55k-term flat tails at t = 1e-3 and lose 4-9x on the 21-27k-term peaks at 1e-5
_STRIDE_MIN = 1 << 15
_EM_STEPS = 16              # steps of a strided block as planned
_EM_TERMS = 10              # Euler-Maclaurin corrections of a strided block

LOG_2PI = math.log(2.0 * math.pi)
# B_2j, j = 1..10, for the corrections of a strided block
_EM_BERN = np.array([p / q for p, q in map(bernoulli_pair, range(2, 21, 2))])


def _check_finite(kind: str, fields: tuple[str, ...], values: tuple) -> None:
    for name, x in zip(fields, values):
        if not math.isfinite(x):
            raise SpecError(f"{kind} needs a finite {name}, got {x}")


def _check_domain_triple(A: float, v: float, B: float) -> None:
    _check_finite("the series", ("A", "v", "B"), (A, v, B))
    if A < 0:
        raise SpecError(f"need A >= 0, got {A}")
    ok = (A > 0) or (A == 0 and v == 0 and B > 0) or (A == 0 and v < 0)
    if not ok:
        raise SpecError(
            "domain triple violated: need A>0, or A=0,v=0,B>0, or A=0,v<0 "
            f"(got A={A}, v={v}, B={B})")


# the spec types are NamedTuples that check their fields on construction;
# SeriesSpec.falpha is cached off the tuple that eq and hash read
class PochTerm(NamedTuple("PochTerm", [("alpha", float), ("beta", float),
                                        ("gamma", float), ("S", float)])):
    """One factor (q^(alpha*m+gamma); q^beta)_inf^S of the series denominator."""

    __slots__ = ()

    def __new__(cls, alpha: float, beta: float, gamma: float, S: float) -> PochTerm:
        _check_finite("PochTerm", cls._fields, (alpha, beta, gamma, S))
        if not alpha > 0:
            raise SpecError(f"PochTerm needs alpha>0, got {alpha}")
        if not beta > 0:
            raise SpecError(f"PochTerm needs beta>0, got {beta}")
        if not gamma > 0:
            raise SpecError(f"PochTerm needs gamma>0, got {gamma}")
        if S == 0:
            raise SpecError("PochTerm needs S != 0 (merged-away terms are dropped)")
        return super().__new__(cls, alpha, beta, gamma, S)


class SeriesSpec(NamedTuple("SeriesSpec", [("A", float), ("B", float), ("v", float),
                                            ("terms", tuple[PochTerm, ...])])):
    """Canonical description of the normalized series
    sum_m q^(A m^2 + B m) z^m / prod (q^(alpha m+gamma); q^beta)_inf^S,
    with z = e^v.  ``terms`` is sorted by (alpha, beta, gamma) and free of
    duplicate keys; it may be empty (purely polynomial exponent).
    """

    def __new__(cls, A: float, B: float, v: float,
                terms: tuple[PochTerm, ...] = ()) -> SeriesSpec:
        _check_domain_triple(A, v, B)
        keys = [(p.alpha, p.beta, p.gamma) for p in terms]
        if keys != sorted(keys):
            raise SpecError("terms must be sorted by (alpha, beta, gamma)")
        if len(set(keys)) != len(keys):
            raise SpecError("duplicate (alpha, beta, gamma) terms must be merged")
        return super().__new__(cls, A, B, v, terms)

    @functools.cached_property
    def falpha(self) -> tuple[tuple[float, float], ...]:
        """The leading phase's (alpha_j, f_j), alpha ascending, with f_j =
        -sum S/beta over the terms sharing alpha_j; an f_j below 1e-15 of
        their sum of |S/beta| is dropped (those terms still feed G_1)."""
        parts: dict[float, list[float]] = {}
        for p in self.terms:
            parts.setdefault(p.alpha, []).append(-p.S / p.beta)
        return tuple((a, sum(f)) for a, f in sorted(parts.items())
                     if abs(sum(f)) > 1e-15 * sum(map(abs, f)))

    @staticmethod
    def make(A: float, B: float, v: float,
             terms: list[tuple[float, float, float, float]]) -> SeriesSpec:
        """Build a SeriesSpec from raw (alpha, beta, gamma, S) tuples,
        merging duplicates by adding S and dropping zero-S terms."""
        merged: dict[tuple[float, float, float], float] = {}
        for a, b, g, s in terms:
            key = (a, b, g)
            merged[key] = merged.get(key, 0.0) + s
        kept = tuple(PochTerm(a, b, g, s)
                     for (a, b, g), s in sorted(merged.items()) if s != 0.0)
        return SeriesSpec(A, B, v, kept)


class QuadTerm(NamedTuple("QuadTerm", [("a", float), ("b", float), ("c", float),
                                        ("d", float), ("S", float)])):
    """One finite symbol (q^a; q^b)_(c*m+d)^S of the raw series."""

    def __new__(cls, a: float, b: float, c: float, d: float, S: float) -> QuadTerm:
        _check_finite("QuadTerm", cls._fields, (a, b, c, d, S))
        if not b > 0:
            raise SpecError(f"QuadTerm needs b>0, got {b}")
        if not c > 0:
            raise SpecError(f"QuadTerm needs c>0, got {c}")
        if not a + b * d > 0:
            raise SpecError(f"QuadTerm needs a+bd>0, got a+bd={a + b * d}")
        if not a > 0:      # so (q^a;q^b)_inf > 0 and Gamma(a/b) > 0
            raise SpecError(f"QuadTerm needs a>0, got {a}")
        return super().__new__(cls, a, b, c, d, S)


class ProductSpec(NamedTuple("ProductSpec", [("A", float), ("B", float), ("v", float),
                                              ("quads", tuple[QuadTerm, ...])])):
    """Raw series sum_m q^(A m^2+B m) z^m / prod (q^a;q^b)_(c m+d)^S."""

    def __new__(cls, A: float, B: float, v: float,
                quads: tuple[QuadTerm, ...] = ()) -> ProductSpec:
        _check_domain_triple(A, v, B)
        return super().__new__(cls, A, B, v, quads)

    @staticmethod
    def make(A: float, B: float, v: float,
             quads: list[tuple[float, float, float, float, float]]) -> ProductSpec:
        return ProductSpec(A, B, v, tuple(QuadTerm(*q) for q in quads))


def normalize(spec: ProductSpec) -> tuple[SeriesSpec, tuple[QuadTerm, ...]]:
    """Rewrite finite symbols through (q^a;q^b)_z = (q^a;q^b)_inf/(q^(a+bz);q^b)_inf.

    Each quadruple (a,b,c,d,S) becomes the infinite-symbol term
    (alpha, beta, gamma) = (b*c, b, a+b*d) with denominator exponent -S,
    plus the m-independent factor (q^a;q^b)_inf^(-S).  Those factors are
    returned as the prefactor quads, merged on (a,b), with c = 1 and d = 0
    (the prefactor reads only a, b and S).
    """
    terms = [(q.b * q.c, q.b, q.a + q.b * q.d, -q.S) for q in spec.quads]
    series = SeriesSpec.make(spec.A, spec.B, spec.v, terms)
    pref: dict[tuple[float, float], float] = {}
    for q in spec.quads:
        key = (q.a, q.b)
        pref[key] = pref.get(key, 0.0) + q.S
    return series, tuple(QuadTerm(a, b, 1.0, 0.0, s)
                         for (a, b), s in sorted(pref.items()) if s != 0.0)


# ---------------------------------------------------------------------------
# The constant prefactor


class Law(NamedTuple):
    """The t-independent numbers of a t -> 0 law, the one shape every branch
    of the full expansion takes:
    log ~ rate/t + t_power log t + log_c + sum_{l>=1} coeffs[l-1] t^l."""
    rate: float
    t_power: float
    log_c: float
    coeffs: tuple[float, ...] = ()


def prefactor_law(quads: tuple[QuadTerm, ...], M: int) -> Law:
    """The law of prod (q^a;q^b)_inf^(-S) to order M: rate = sum pi^2 S/(6b),
    t_power = sum (a/b - 1/2) S, log_c = sum S (log Gamma(a/b) - log(2 pi)/2
    + (a/b - 1/2) log b), and the Bernoulli coefficients
    a_l = sum B_l S b^l B_{l+1}(a/b) / (l (l+1)!), l <= M (none for an empty
    product)."""
    rate = t_power = log_c = 0.0
    for q in quads:
        ab = q.a / q.b
        rate += math.pi ** 2 * q.S / (6.0 * q.b)
        t_power += (ab - 0.5) * q.S
        log_c += q.S * (math.lgamma(ab) - 0.5 * LOG_2PI + (ab - 0.5) * math.log(q.b))
    coeffs = []
    # an empty product reads no Bernoulli number, so it accepts any M
    for ell in range(1, M + 1) if quads else ():
        num, den = bernoulli_pair(ell)
        coeffs.append(0.0 if num == 0 else sum(
            num / den * q.S * q.b ** ell * bernoulli_poly(ell + 1, q.a / q.b)
            / (ell * math.factorial(ell + 1)) for q in quads))
    return Law(rate, t_power, log_c, tuple(coeffs))


def prefactor_asym(law: Law, ts: tuple, log_t=None) -> np.ndarray:
    """The log that ``law`` gives at each t of ts, its series truncated where
    the law was (for ``prefactor_law``'s, the asymptotic log of the constant
    product); each entry has the bits of its t alone (logs and powers past
    t^1 are taken per t, or ``log_t`` gives the logs)."""
    t_col = np.array(ts, dtype=float)
    if not np.all(t_col > 0):
        raise DomainError(f"need t > 0, got {ts[int(np.argmin(t_col > 0))]}")
    log_t = np.array(list(map(math.log, ts))) if log_t is None else log_t
    out = law.rate / t_col + law.t_power * log_t + law.log_c
    for ell, a_l in enumerate(law.coeffs, 1):
        # t^1 is t, and a zero a_l times t is the zero a_l t^ell
        powers = t_col if ell == 1 or not a_l else np.array(list(map(pow, ts, repeat(ell))))
        out += a_l * powers
    return out


def _closed_kernel(w: np.ndarray, bt) -> np.ndarray:
    # K(w) in closed form, row 0 of kernel_rows at s = bt, ab = 1; bt is one
    # float or one per w
    bt = np.broadcast_to(bt, w.shape)
    return kernel_rows(w, bt, bt, np.ones(len(w)), (0,))[0]


def prefactor_exact(quads: tuple[QuadTerm, ...], t):
    """log of prod (q^a;q^b)_inf^(-S) at t, one float (a float back) or a
    sequence (an array, each entry the bits of its t alone): in one call of
    the closed form (``_closed_kernel``), O(1) in t, each -log (q^a;q^b)_inf
    is K(w) at the floats a direct product takes, w = -log fl(e^-at) and
    b t = -log fl(e^-bt).
    It raises past that product's reach, _KMAX_HARD factors down to
    q^(a+Kb) < 1e-18, counted from a, b and t before q rounds."""
    ts, wb = np.atleast_1d(t).tolist(), []
    for q in quads:
        for s in ts:
            k = (LN_EPS + q.a * s) / (-q.b * s) if q.b * s > 0.0 else math.inf
            if k >= _KMAX_HARD:
                raise ConvergenceError(f"exact prefactor: (a;q)_inf needs "
                                       f"{int(k) + 1 if k < 1e15 else f'{k:.3g}'} factors, "
                                       f"more than {_KMAX_HARD}")
            qa, qb = math.exp(-q.a * s), math.exp(-q.b * s)
            if not (qa < 1.0 and qb > 0.0):
                raise DomainError(f"exact prefactor needs fl(q^a) < 1 and fl(q^b) > 0 at t={s}")
            wb.append((-math.log(qa) if qa else math.inf, -math.log(qb)))
    ks = _closed_kernel(*np.array(wb).T).reshape(-1, len(ts)) if wb else ()
    out = sum((q.S * k for q, k in zip(quads, ks)), np.zeros(len(ts)))
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# The logged general term and its derivatives


def _require_t(t) -> None:
    t = np.ravel(t)                     # one t, or one per point
    if not (t.min(initial=T_MAX) > 0.0 and t.max(initial=0.0) < T_MAX):   # nan fails both
        raise DomainError(f"t must lie in (0, {T_MAX}), "
                          f"got {t[np.argmin((t > 0.0) & (t < T_MAX))]}")


def _points(x, t):
    # both term evaluators' inputs: t in (0, T_MAX), one or one per point of
    # x, finite x >= 0; gives x in 1-d, t a float or array, and if x was scalar
    ta = np.asarray(t, dtype=float)
    _require_t(ta)
    xa = np.asarray(x, dtype=float)
    if ta.ndim and ta.shape != xa.shape:
        raise DomainError(f"t must be one value or of x's shape, got {ta.shape}")
    if not np.all((xa >= 0) & (xa < math.inf)):     # nan fails both
        raise DomainError("log_summand needs finite x >= 0")
    return np.atleast_1d(xa), (ta if ta.ndim else float(ta)), xa.ndim == 0


def _kernel(term: PochTerm, x: np.ndarray, t) -> np.ndarray:
    """K(w) = sum_{k>=1} e^{-kw} / (k (1-e^{-k beta t})), w = (alpha x +
    gamma) t, for a vector of x >= 0 and t one float or one per point.

    It costs the same at every t: below w = _W_A it is the closed form,
    row 0 of ``kernel_rows`` (``_closed_kernel``);
    above, a k-sum cut at kc = floor(45/w) + 1, which leaves out less than
    e^-45/((kc+1)(1 - e^-w)) of it.  Each point sums at its t from its cut
    down to k = 1, so no value depends on the other points of the call.  The
    points, in order of w, go in bands: a chunk of _BAND_ELEMS or more ends
    where the cut falls below half of its first point's, so few terms past a
    point's cut are built only to be masked to zero.  The per-k coefficients
    are built per chunk."""
    per = isinstance(t, np.ndarray)             # one t per point
    w = (term.alpha * x + term.gamma) * t
    order = None
    if len(w) > 1 and np.any(w[1:] < w[:-1]):
        order = np.argsort(w, kind="stable")
        w = w[order]
        t = t[order] if per else t
    near = int(np.searchsorted(w, _W_A))        # w < _W_A: in closed form
    wk, tk = w[near:], (t[near:] if per else t)
    kc = (_KLOG_MARGIN / wk).astype(np.int64) + 1      # non-increasing
    acc = np.zeros(len(w))
    acc_k = acc[near:]
    p0 = 0
    while p0 < len(wk):
        # points p0 .. p1-1 fit the budget, and past _BAND_ELEMS end where kc halves;
        # one chunk holds all their k = kc[p0] .. 1, as kc <= 45/_W_A + 1 < _CHUNK_ELEMS
        k1 = int(kc[p0]) + 1
        p1 = min(p0 + _CHUNK_ELEMS // (k1 - 1), len(wk))
        band = p0 + _BAND_ELEMS // (k1 - 1)
        if band < p1 and kc[p1 - 1] < k1 // 2:
            # the first point whose kc is below half of kc[p0]
            half = np.searchsorted(-kc[p0:p1], -(k1 // 2), side="right")
            p1 = max(band, p0 + int(half))
        tp = tk[p0:p1] if per else tk           # the points' t, or the one t
        k = np.arange(k1 - 1, 0, -1, dtype=float)[:, None]     # descending
        blk = np.outer(-k, wk[p0:p1])           # k by point
        blk -= np.log(k * -np.expm1(-k * term.beta * tp))
        top = k1 - 1 - int(kc[p1 - 1])          # past a point's cut: zero terms
        if top > 0:
            np.putmask(blk[:top], k[:top] > kc[p0:p1], -np.inf)
        blk = np.exp(blk, out=blk)
        # in order along k: reducing the outer axis adds one k at a time, and
        # so does cumsum, which a single point needs
        acc_k[p0:p1] = (np.add.reduce(blk, axis=0) if blk.shape[1] > 1
                        else np.cumsum(blk, axis=0)[-1])
        p0 = p1
        del blk                                 # before the next band's is made
    if near:
        acc[:near] = _closed_kernel(w[:near], term.beta * (t[:near] if per else t))
    return acc if order is None else acc[np.argsort(order)]


def log_summand(spec: SeriesSpec, x, t):
    """The logged x-th term of the series: x v - A x^2 t - B x t plus the
    Pochhammer contribution sum_terms S * K, each K from ``_kernel`` over all
    the points at once, added in the order of the terms.  Takes scalar or
    array finite x >= 0 and returns matching shape; t is one float or an
    array matching x, each point with the bits of a call at its t alone."""
    x, t, scalar = _points(x, t)
    out = _poly_deriv(spec, 0, x, t)
    for term in spec.terms:
        out = out + term.S * _kernel(term, x, t)
    return float(out[0]) if scalar else out


def _poly_deriv(spec: SeriesSpec, n: int, x: np.ndarray, t):
    # n-th x-derivative of x v - A x^2 t - B x t, n <= 2
    if n == 0:
        return x * spec.v - spec.A * x ** 2 * t - spec.B * x * t
    if n == 1:
        return spec.v - 2.0 * spec.A * x * t - spec.B * t
    return -2.0 * spec.A * t


def log_summand_deriv(spec: SeriesSpec, n, x, t):
    """n-th x-derivative of log_summand; for a tuple of orders n, one row per
    order.  Every row, order 0 included, comes from the differentiated
    closed form (``kernel_rows``) in one call over every term's points, O(1)
    in t: order 0 is an independent evaluation of log_summand's number, not
    its bits.  Takes x and t as log_summand does and returns matching shape,
    each point with the bits of a call at its t alone, whatever the other
    points and orders."""
    x, t, scalar = _points(x, t)
    orders = n if isinstance(n, tuple) else (n,)
    if not orders or any(r not in range(MAX_DERIV + 1) for r in orders):  # 1.0 is 1
        raise DomainError(f"derivative orders must be integers in [0, {MAX_DERIV}], got {n}")
    out = np.zeros((len(orders), len(x)))
    for i, r in enumerate(orders):
        if r <= 2:
            out[i] = _poly_deriv(spec, r, x, t)
    if spec.terms and len(x):
        alpha, beta, gamma, S = np.array(spec.terms).T[:, :, None]   # one column each
        tx = t if isinstance(t, np.ndarray) else np.full(len(x), t)
        rs = sorted(set(orders))
        k = kernel_rows(((alpha * x + gamma) * t).ravel(), (beta * tx).ravel(), (alpha * tx).ravel(),
                        np.repeat(alpha / beta, len(x)), tuple(rs)).reshape(len(rs), len(S), -1)
        if rs != list(orders):
            k = k[[rs.index(r) for r in orders]]
        for j in range(len(S)):
            out = out + S[j] * k[:, j]
    out = out[:, 0] if scalar else out
    return out if isinstance(n, tuple) else (float(out[0]) if scalar else out[0])


def _exp_series(lams: dict, order: int) -> list:
    # coefficients of exp(sum_r a_r y^r): b_0 = 1, n b_n = sum_r r a_r b_{n-r},
    # for numbers a_r or columns of them, keys ascending; each sum adds its
    # terms in key order, as cumsum adds one term at a time
    rs = list(lams)
    ra = np.array([r * a for r, a in lams.items()])
    b = np.empty((order + 1,) + ra.shape[1:])
    b[0] = 1.0
    for n in range(1, order + 1):
        k = bisect.bisect_right(rs, n)
        b[n] = np.cumsum(ra[:k] * b[[n - r for r in rs[:k]]], axis=0)[-1] / n if k else 0.0
    return list(b)


def kernel_bounds(term: PochTerm, w: float, t: float) -> tuple[float, float]:
    """(lo, hi) around the inner sum K(w) = sum_k e^{-kw}/(k(1 - e^{-k beta t}))
    at w > 0 (w = inf gives (0, 0)): Euler-Maclaurin levels -1, 0 and 1,
    lo = Li2(e^-w)/(beta t) + Li1(e^-w)/2 and hi = lo + (beta t/12)/(e^w - 1),
    from 0 <= 1/(1 - e^-s) - 1/s - 1/2 <= s/12 for s = k beta t."""
    bt = term.beta * t
    li2, li1, li0 = polylog((2, 1, 0), w)
    lo = li2 / bt + 0.5 * li1
    return lo, lo + bt / 12.0 * li0


def log_summand_sup(spec: SeriesSpec, ua, ub, t):
    """An upper bound of log_summand(spec, u/t, t) over u in [ua, ub] (ub may
    be inf) without a k-sum: K falls in u, so S > 0 terms take hi at ua and
    S < 0 terms lo at ub; the polynomial part is taken at its maximum, and
    1e-12 of the parts' sizes is added for log_summand's rounding, and 1e-300
    where that underflows (it moves no bound above 1e-284).  On arrays of
    edges and t, one bound per piece, each the bits of the scalar form."""
    slope = spec.v / t - spec.B      # x v - A x^2 t - B x t = u (slope - A u/t)
    quad = 0.0
    if spec.A > 0:
        u = np.minimum(np.maximum(slope * t / (2.0 * spec.A), ua), ub)
        quad = spec.A * u / t
    else:
        u = np.where(slope <= 0, ua, ub)
    out = u * (slope - quad)
    scale = u * (abs(spec.v) / t + abs(spec.B) + quad)
    for p in spec.terms:
        lo, hi = kernel_bounds(p, p.alpha * (ua if p.S > 0 else ub) + p.gamma * t, t)
        part = p.S * (hi if p.S > 0 else lo)
        out += part
        scale += abs(part)
    return out + 1e-12 * scale + 1e-300


# ---------------------------------------------------------------------------
# Direct summation


class MassLadder(NamedTuple):
    """The certificate both exact routes take their window from.  Integer
    ``edges`` run from 0 to ceil(U_END/t), in unit steps, then ratio
    _LADDER; both exact routes cut their windows at them.  ``mass[j]``,
    log(e_j+1 - e_j) plus the sup of F over the closed piece [e_j t, e_j+1 t]
    of u, bounds its terms and its integral over x alike; ``rest[j]`` bounds
    the mass from e_j on.  ``probe`` lies in the piece of most mass;
    ``probe_log`` is its exact logged term."""
    edges: np.ndarray
    mass: np.ndarray
    rest: np.ndarray
    probe: int
    probe_log: float

    def window(self, level: float) -> tuple[int, np.ndarray]:
        """(cut, left) at e^level: the pieces below e_cut, the longest run
        from 0 holding at most half of 1e-18 of e^level, hold e^head at most;
        left[j] bounds head plus the rest from e_j (inf up to the probe)."""
        cum = np.logaddexp.accumulate(self.mass)
        cut = int(np.searchsorted(cum, level + LN_EPS - math.log(2.0), side="right"))
        head = float(cum[cut - 1]) if cut else -math.inf
        return cut, np.where(self.edges > self.probe, np.logaddexp(head, self.rest), np.inf)


def _tail_sup(spec: SeriesSpec, m, t):
    """e^(sup F on [m t, inf)) / (1 - e^P'(m)), with the concave P(x) = x v -
    (A x^2 + B x) t, bounds the terms from m on and, as 1 - e^s <= -s, the
    integral past x = m; inf while P rises.  t is one float or one per m."""
    slope = spec.v - (2.0 * spec.A * m + spec.B) * t      # P'(m)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(slope < 0, log_summand_sup(spec, m * t, math.inf, t)
                        - np.log(-np.expm1(slope)), np.inf)


def mass_ladder(spec: SeriesSpec, ts) -> list[MassLadder]:
    """The ``MassLadder`` of ``spec`` at each t of ts, each the bits of its t
    alone: ``log_summand_sup`` over all their pieces and all their edges, in
    one call each with t per element, and ``log_summand`` at all their
    probes in one call."""
    if len(ts) == 0:
        return []
    es = []
    for t in ts:
        _require_t(t)
        if U_END / t >= 2.0 ** 62:      # edges past int64, terms past any budget
            raise ConvergenceError(f"t={t} is below the summation ladder's reach")
        steps = np.ceil(_LADDER ** np.arange(math.log(U_END / t, _LADDER)))
        e = np.concatenate(([0], steps, [math.ceil(U_END / t)]))   # non-decreasing
        # not np.unique, which imports numpy.ma
        es.append(e[np.concatenate(([True], e[1:] > e[:-1]))].astype(np.int64))
    tv = np.array(ts, dtype=float)
    e, te = np.concatenate(es), np.repeat(tv, [len(x) for x in es])     # each edge's t
    rise = e[1:] > e[:-1]               # each ladder starts at 0: a rise is a piece
    a, b, tp = e[:-1][rise], e[1:][rise], te[:-1][rise]
    mass = np.log(b - a) + log_summand_sup(spec, a * tp, b * tp, tp)
    ends = np.flatnonzero(~rise)        # the last edge of each ladder but the last
    parts = []
    for x, m, tl in zip(es, np.split(mass, ends - np.arange(len(ends))),
                        np.split(_tail_sup(spec, e, te), ends + 1)):
        pieces = np.logaddexp.accumulate(np.concatenate((tl[-1:], m[::-1])))[::-1]
        top = int(np.argmax(m))
        parts.append((x, m, np.minimum(tl, pieces), int(x[top] + x[top + 1] - 1) // 2))
        for arr in parts[-1][:3]:
            arr.flags.writeable = False         # both exact routes of a row read it
    logs = log_summand(spec, np.array([p[3] for p in parts], dtype=float), tv)
    return [MassLadder(*part, float(lg)) for part, lg in zip(parts, logs)]


class SumResult(NamedTuple):
    log_value: float
    m_lo: int              # the terms m_lo <= m < m_hi were summed
    m_hi: int              # (strided: the last block's end + 1)
    left_out_log: float    # log of the certified mass of the others
    evals: int             # terms evaluated (log_summand points; strided: fewer)
    remainder_log: float   # log of the Euler-Maclaurin remainder estimate (-inf: direct)


def series_sum(spec: SeriesSpec, t: float, lad: MassLadder | None = None) -> SumResult:
    """sum_m exp(log_summand(m)) over a certified window [m_lo, m_hi).

    m_lo is the cut at the exact term of the window of ``lad``, t's
    ``mass_ladder`` (built here if None), and stop the first edge whose head
    plus rest lie 1e-18 below that term, the probe's, which every sum holds
    (else the last edge).  A window [m_lo, stop) of fewer than _STRIDE_MIN
    terms is summed in one ``log_summand`` call, to m_hi = stop; a longer one
    by strided blocks (``_strided_sum``) to the edge its sampled largest term
    certifies, in terms about in proportion to its log range.  Either raises
    if left_out_log, the least left over the edges up to its end, exceeds
    1e-18 of the total.  The ladder's rest holds the one-sup bound
    ``_tail_sup``, whose factor 1/(1 - q^B) the flat tail A = v = 0 needs.
    """
    if lad is None:
        lad = mass_ladder(spec, (t,))[0]
    e = lad.edges
    cut, left = lad.window(lad.probe_log)
    m_lo = int(e[cut])
    sure = np.flatnonzero(left <= lad.probe_log + LN_EPS)
    stop = int(e[sure[0]] if len(sure) else e[-1])
    if stop - m_lo >= _STRIDE_MIN:
        return _strided_sum(spec, t, lad, m_lo, stop, left)
    logs = log_summand(spec, np.arange(m_lo, stop, dtype=float), t)
    mx = float(logs.max())
    total = mx + math.log(float(np.exp(logs - mx).sum()))
    out = float(left[e <= stop].min())
    if out > total + LN_EPS:
        raise _past_reach(stop, t)
    return SumResult(total, m_lo, stop, out, stop - m_lo, -math.inf)


def _past_reach(m: int, t: float) -> ConvergenceError:
    return ConvergenceError(f"series terms still significant at m*t = {m * t:.1f}, "
                            f"past the sum's reach m*t = U_END = {U_END:g}")


# ---------------------------------------------------------------------------
# Strided summation (Euler-Maclaurin)


def _radius(spec: SeriesSpec, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    # the Taylor radius min_r (r!/|L^(r)|)^(1/r), r = 1..8, of the logged term
    # at the points x from its rows 1..8, capped at half the distance
    # x + gamma/alpha to the nearest singularity of a symbol
    r = np.arange(1.0, 9.0)[:, None]
    with np.errstate(divide="ignore"):
        log_r = np.min((np.cumsum(np.log(r), axis=0) - np.log(np.abs(rows))) / r, axis=0)
    near = min((p.gamma / p.alpha for p in spec.terms), default=math.inf)
    return np.minimum(np.exp(log_r), 0.5 * (x + near))


def _plan(spec: SeriesSpec, t: float, lad: MassLadder, left: np.ndarray, m_lo: int, stop: int):
    # the window's level and blocks (a, h, n), n steps of h from a.  One rows
    # call (orders 0..8) at samples geometric and uniform over [m_lo, stop)
    # gives the level, the larger of the probe's term and the samples' row 0,
    # and their radii.  The blocks tile [m_lo, end), end the first edge whose
    # left lies 1e-18 below the level (else the last), and at most a step
    # past: _EM_STEPS steps of the largest power of two h with 4h below the
    # radius at the samples around the block, or, where that h is below 8,
    # the terms up to the next sample, one by one.  Past _SUM_BUDGET terms
    # to end it raises before any term is summed
    xs = np.concatenate((np.geomspace(max(m_lo, 1), stop, 33),
                         np.linspace(m_lo, stop, 9))).round()
    xs.sort()
    xs = xs[np.concatenate(([True], xs[1:] > xs[:-1]))]
    rows = log_summand_deriv(spec, tuple(range(9)), xs, t)
    level = max(lad.probe_log, float(rows[0].max()))
    end = int(lad.edges[np.append(np.flatnonzero(left <= level + LN_EPS), -1)[0]])
    span = end - m_lo
    if span > _SUM_BUDGET:
        raise ConvergenceError(f"exact sum: the window needs "
                               f"{span if span < 1e15 else f'{span:.3g}'} terms, "
                               f"more than {_SUM_BUDGET}")
    R = np.minimum(_radius(spec, rows[1:], xs), end - m_lo).tolist()
    xs = xs.astype(np.int64).tolist()
    a, h, n = [], [], []
    m, i = m_lo, 0
    while m < end:
        while xs[i + 1] <= m:
            i += 1
        step = 1 << max(int(min(R[i], R[i + 1]) / 4.0).bit_length() - 1, 0)
        while step > 1 and 4 * step > min(R[i:bisect.bisect_left(xs, m + _EM_STEPS * step) + 1]):
            step //= 2
        step = step if step >= 8 else 1     # a shorter stride saves less than its rows cost
        count = min(_EM_STEPS if step > 1 else xs[i + 1] - m, -(-(end - m) // step))
        a.append(m)
        h.append(step)
        n.append(count)
        m += step * count
    return np.array(a), np.array(h), np.array(n), level


def _accept(spec: SeriesSpec, t: float, level: float, a, h, n):
    # the blocks (a, h, n) with each h halved until the block passes, as
    # (h, n, ca, cb, ra, rb): per block the corrections its ends add to the
    # weights of the terms there, ca at a and -cb at its end, and the size of
    # its last correction at each, ra and rb, all relative to the term.  One
    # rows call at the ends of the blocks with h > 1 gives f^(k)/f = k! b_k
    # at each, b the coefficients of exp(sum_r L^(r) y^r/r!), and the
    # correction of order j there is E_j = B_2j (h^2j - 1)/(2j) b_(2j-1).  A
    # block passes if 4h stays below the radius at both ends and, at each,
    # the last two |E_j| fall and lie below 1e-18 of e^level (from the
    # term's row 0); below h = 2 it is summed term by term
    size, h = h * n, h.copy()
    ca, cb, ra, rb = (np.zeros(len(a)) for _ in range(4))
    s = np.flatnonzero(h > 1)
    if len(s):
        J = _EM_TERMS
        x = np.concatenate((a[s], a[s] + size[s]))
        order = np.argsort(x, kind="stable")
        keep = np.concatenate(([True], x[order][1:] > x[order][:-1]))
        col = np.empty(len(x), dtype=np.int64)
        col[order] = np.cumsum(keep) - 1           # each end's column
        ux = x[order][keep].astype(float)
        rows = log_summand_deriv(spec, tuple(range(max(2 * J, 9))), ux, t)
        b = _exp_series({r: rows[r] / math.factorial(r) for r in range(1, 2 * J)}, 2 * J - 1)
        odd = np.array(b[1::2])[:, col]
        radius = _radius(spec, rows[1:9], ux)[col]
        rel = rows[0][col] - level
        j2 = np.arange(2.0, 2 * J + 1, 2.0)[:, None]
        hs = h[s].astype(float)
        while True:
            E = _EM_BERN[:J, None] * (np.tile(hs, 2) ** j2 - 1.0) / j2 * odd
            last = np.abs(E[-2:])
            with np.errstate(divide="ignore"):
                bad = ((last[-1] > last[0]) | (np.log(last.max(axis=0)) + rel > LN_EPS)
                       | (4.0 * np.tile(hs, 2) > radius))
            bad = (bad[:len(s)] | bad[len(s):]) & (hs > 1)
            if not bad.any():
                break
            hs[bad] /= 2.0
        h[s] = hs
        ca[s], cb[s] = E[:, :len(s)].sum(axis=0), E[:, len(s):].sum(axis=0)
        ra[s], rb[s] = last[-1, :len(s)], last[-1, len(s):]
    return h, size // h, ca, cb, ra, rb


def _weights(a, h, n, ca, cb, ra, rb):
    # the points a + i h, i = 0..n, of the blocks, ascending, with the weight
    # of each in the blocks' sums (h inside, (h + 1)/2 + ca at a and
    # (h - 1)/2 - cb at the end) and in their remainder estimate (ra and rb);
    # a point two blocks share is one, with both weights
    cnt = n + 1
    first = np.cumsum(cnt) - cnt
    blk = np.repeat(np.arange(len(a)), cnt)
    x = a[blk] + h[blk] * (np.arange(cnt.sum()) - first[blk])
    w, rw = h[blk].astype(float), np.zeros(len(x))
    w[first], rw[first] = (h + 1) / 2.0 + ca, ra
    w[first + n], rw[first + n] = (h - 1) / 2.0 - cb, rb
    starts = np.flatnonzero(np.concatenate(([True], x[1:] > x[:-1])))
    return x[starts], np.add.reduceat(w, starts), np.add.reduceat(rw, starts)


def _shift_log(mx: float, s: float) -> float:
    """mx + log(s) to about an ulp of the result.  On a long flat window
    log(s) is 8 or more and cancels against mx, so rounding it alone would
    cost half an ulp of log(s), several of the result's; that rounding,
    log(s e^-l) for l = log(s) rounded, is added back after an exact
    two-sum of mx and l."""
    l = math.log(s)
    hi = mx + l
    b = hi - mx
    lo = (mx - (hi - b)) + (l - b)
    return hi + (lo + math.log(s * math.exp(-l)))


def _strided_sum(spec: SeriesSpec, t: float, lad: MassLadder, m_lo: int, stop: int,
                 left: np.ndarray) -> SumResult:
    """The window from m_lo by blocks (``_plan``, ``_accept``): a block of n
    steps of h from a sums f(m) = exp(log_summand(m)) over a <= m < b = a + n h
    as the step-h trapezoid T_h plus (f(a) - f(b))/2 minus sum_{j<=J}
    B_2j (h^2j - 1)/(2j)! [f^(2j-1)(b) - f^(2j-1)(a)] (Euler-Maclaurin at steps
    1 and h, whose integrals cancel), J = _EM_TERMS, from the exact terms at
    its points and the closed-form rows at its ends; h = 1 is the direct sum.

    The window ends at the first ladder edge whose head plus rest lie 1e-18
    below the level ``_plan`` samples, and the corrections are gated at
    1e-18 of that level.  The term at the last block's end is summed too,
    so m_hi - 1 is the last term evaluated; left_out_log, the least left
    over the edges up to it, must lie 1e-18 below the total, or the sum
    raises.  Every term, with its weight, is summed at once by math.fsum of
    the products; the remainder estimate is the sum of the size of the last
    correction at each end of each block.  A block of h < 8 is summed term
    by term, as its rows would cost more than the terms it skips."""
    a, h, n, level = _plan(spec, t, lad, left, m_lo, stop)
    x, w, rw = _weights(a, *_accept(spec, t, level, a, h, n))
    w[-1] += 1.0
    logs = log_summand(spec, x.astype(float), t)
    mx = float(logs.max())
    f = np.exp(logs - mx)
    total, rem = _shift_log(mx, math.fsum(w * f)), float(np.dot(rw, f))
    out = float(left[lad.edges <= x[-1]].min())
    if out > total + LN_EPS:
        raise _past_reach(stop, t)
    return SumResult(total, m_lo, int(x[-1]) + 1, out, len(x),
                     mx + math.log(rem) if rem > 0 else -math.inf)
