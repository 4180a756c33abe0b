"""Series data model and exact (truncated) evaluation.

Covers: the canonical normalization from finite-symbol quadruples to
infinite-symbol terms, the logged general term of the normalized series and
its x-derivatives, direct log-space summation of the series, and the constant
prefactor, exact (the inner sum's closed form) and by its product asymptotics.

Truncation policy for the outer sum and its integral: one ladder of pieces
(``mass_ladder``) certifies a window that leaves out at most 1e-18 of the
total, from the closed-form sandwich of the inner sum (``kernel_bounds``).
The inner sum costs the same at every t: a closed form below w = 0.1, at
most 451 k-terms above (``_kernel``), by slices of points that fit L2,
skipping a term that moves no bit.  Every value is positive and carried
as its log: the series reach exp(pi^2/(5t)), which overflows binary64 for
t < 0.0125.
"""

from __future__ import annotations

import functools
import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, SpecError
from .specfun import bernoulli_pair, bernoulli_poly, lineg_coeffs, polylog

T_MAX = 0.5                 # largest t any evaluation accepts
LN_EPS = math.log(1e-18)    # relative truncation threshold, in log space
_KLOG_MARGIN = 45.0         # e^-45 ~ 3e-20: inner k-sums stop past this decay
_KMAX_HARD = 10_000_000     # most terms of a derivative k-sum or factors of the product
_CHUNK_ELEMS = 1 << 16      # k-by-point elements per inner-sum chunk (fits L2)
_BAND_ELEMS = 1 << 13       # a chunk this big ends where its points' cuts halve
_SLICE = 1 << 14            # points per log_summand_deriv slice (its arrays fit L2)
_SKIP_MIN = 1 << 10         # order-0 slices this long may skip a term (not GK15 nodes)
MAX_DERIV = 64              # highest x-derivative order log_summand_deriv takes
_W_A = 0.1                  # order 0: closed form below this w, k-sum above
_R0 = 0.1                   # the closed form peels factors until beta t/w <= _R0
_EM_J = 6                   # Euler-Maclaurin levels j = 1.._EM_J of the closed form
_LADDER = 2.0 ** (1.0 / 32)  # edge ratio of series_sum's certificate ladder
U_END = 2000.0              # series_sum raises if not stopped by m t = U_END
_SUM_BUDGET = 1 << 27       # most terms series_sum's window may span

LOG_2PI = math.log(2.0 * math.pi)
# row j, column m - 1: the v^m coefficient of B_2j/(2j)! Li_(2-2j)(e^-w), with
# v = 1/expm1(w) and Li_-n = sum_m m! S(n+1, m) v^m / m (``lineg_coeffs``)
_EM_V = np.array([[num / den / math.factorial(2 * j) / m * c
                   for m, c in enumerate(lineg_coeffs(2 * j - 2)
                                         + (0,) * (2 * _EM_J - 2 * j), 1)]
                  for j in range(1, _EM_J + 1) for num, den in [bernoulli_pair(2 * j)]])


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
        their sum of |S/beta| is dropped (those terms still feed level 0)."""
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


class PrefactorLaw(NamedTuple):
    """t-independent constants of prod (q^a;q^b)_inf^(-S) ~
    C_H t^{B_H} exp(A_H/t + sum_{l=1}^{M} A_l t^l); ``coeffs`` holds
    A_1..A_M (empty for an empty product)."""
    A_H: float
    B_H: float
    log_C: float
    coeffs: tuple[float, ...]


def prefactor_law(quads: tuple[QuadTerm, ...], M: int) -> PrefactorLaw:
    """A_H = sum pi^2 S/(6b), B_H = sum (a/b - 1/2) S, log C_H = sum S (log
    Gamma(a/b) - log(2 pi)/2 + (a/b - 1/2) log b), and the
    Bernoulli coefficients A_l = sum B_l S b^l B_{l+1}(a/b) / (l (l+1)!),
    l <= M."""
    A_H = B_H = logC = 0.0
    for q in quads:
        ab = q.a / q.b
        A_H += math.pi ** 2 * q.S / (6.0 * q.b)
        B_H += (ab - 0.5) * q.S
        logC += q.S * (math.lgamma(ab) - 0.5 * LOG_2PI + (ab - 0.5) * math.log(q.b))
    coeffs = []
    # an empty product reads no Bernoulli number, so it accepts any M
    for ell in range(1, M + 1) if quads else ():
        num, den = bernoulli_pair(ell)
        coeffs.append(0.0 if num == 0 else sum(
            num / den * q.S * q.b ** ell * bernoulli_poly(ell + 1, q.a / q.b)
            / (ell * math.factorial(ell + 1)) for q in quads))
    return PrefactorLaw(A_H, B_H, logC, tuple(coeffs))


def prefactor_asym(law: PrefactorLaw, ts: tuple, log_t=None) -> np.ndarray:
    """log of prod (q^a;q^b)_inf^(-S) from its constants at each t of ts, with
    the correction series truncated where ``law`` was; each entry has the
    bits of its t alone (logs and powers past t^1 are taken per t, or
    ``log_t`` gives the logs)."""
    t_col = np.array(ts, dtype=float)
    if not np.all(t_col > 0):
        raise DomainError(f"need t > 0, got {ts[int(np.argmin(t_col > 0))]}")
    log_t = np.array(list(map(math.log, ts))) if log_t is None else log_t
    out = law.A_H / t_col + law.B_H * log_t + law.log_C
    for ell, a_l in enumerate(law.coeffs, 1):
        # t^1 is t, and a zero a_l times t is the zero a_l t^ell
        powers = t_col if ell == 1 or not a_l else np.array(list(map(pow, ts, repeat(ell))))
        out += a_l * powers
    return out


def prefactor_exact(quads: tuple[QuadTerm, ...], t):
    """log of prod (q^a;q^b)_inf^(-S) at t, one float (a float back) or a
    sequence (an array, each entry the bits of its t alone): in one
    ``_kernel_closed`` call, O(1) in t, each -log (q^a;q^b)_inf is K(w) at the
    floats a direct product takes, w = -log fl(e^-at) and b t = -log fl(e^-bt).
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
    ks = _kernel_closed(*np.array(wb).T).reshape(-1, len(ts)) if quads else ()
    out = sum((q.S * k for q, k in zip(quads, ks)), np.zeros(len(ts)))
    return out if np.ndim(t) else float(out[0])


# ---------------------------------------------------------------------------
# The logged general term and its derivatives


def _require_t(t) -> None:
    t = np.ravel(t)                     # one t, or one per point
    if not (t.min(initial=T_MAX) > 0.0 and t.max(initial=0.0) < T_MAX):   # nan fails both
        raise ConvergenceError(f"t must lie in (0, {T_MAX}), "
                               f"got {t[np.argmin((t > 0.0) & (t < T_MAX))]}")


@functools.lru_cache(maxsize=256)
def _rows(orders: tuple[int, ...]) -> tuple:
    # per row of _kernel: n, (-1)^n, whether n = 0, and the span s > m =
    # max(n-1, 0) with s - m - m log(s/m) = 45: past k = s/w, k^m e^{-kw}
    # lies e^-45 below its maximum at k = m/w; then the rows of extreme span
    spans = []
    for m in (max(n - 1, 0) for n in orders):
        s = _KLOG_MARGIN + m
        for _ in range(60):             # fixed point, rising to the root
            s = _KLOG_MARGIN + m + m * math.log(s / max(m, 1))
        spans.append(s)
    n_col = np.array(orders, dtype=float)[:, None]
    rows = (n_col, (-1.0) ** n_col, n_col[:, 0] == 0, np.array(spans)[:, None])
    for a in rows:
        a.flags.writeable = False       # shared by every call with these orders
    return (*rows, int(np.argmax(spans)), int(np.argmin(spans)))


def _kernel_closed(w: np.ndarray, bt) -> np.ndarray:
    """K(w) = sum_k e^{-kw}/(k(1 - e^{-k bt})) without a k-sum: the product
    form K(w) = -sum_n log(1 - e^{-(w + n bt)}) peels the fewest N factors
    that leave w' = w + N bt >= bt/_R0, then Euler-Maclaurin gives K(w') =
    Li2(e^-w')/bt + Li1(e^-w')/2 + sum_{j<=J} B_2j bt^(2j-1)/(2j)! Li_(2-2j)(e^-w').
    The first omitted level is about 2 (2J)! (_R0/2pi)^(2J+1)/(2pi) ~ 6e-16,
    absolute, against K(w') >= Li2(e^-w')/bt.  bt is one float or one per w."""
    N = np.maximum(np.ceil(1.0 / _R0 - w / bt), 0.0)
    n = np.arange(N.max())[:, None]      # a product runs along n in order
    peel = np.log(np.prod(-np.expm1(-np.where(n < N, w + n * bt, np.inf)), axis=0))
    li2, li1, v = polylog((2, 1, 0), w + N * bt)
    odd = np.arange(1.0, 2 * _EM_J, 2.0)     # v^m coefficients, per bt its own product
    c = (np.array([b ** odd @ _EM_V for b in bt]).T if isinstance(bt, np.ndarray)
         else bt ** odd @ _EM_V)
    em = v * np.polyval(c[::-1], v)
    return li2 / bt + (0.5 * li1 + em - peel)


def _log_coef(term: PochTerm, k: np.ndarray, t, n_col: np.ndarray | None) -> np.ndarray:
    """n log(k alpha t) - log(k (1 - e^(-k beta t))) by k, row n (None: order 0
    alone) and t: the log of the k-th term's factor, so high orders cannot overflow."""
    tail = np.log(k * -np.expm1(-k * term.beta * t))[:, None]
    if n_col is None:
        return np.negative(tail, out=tail)
    out = np.log(k * term.alpha * t)[:, None] * n_col
    return np.subtract(out, tail, out=out)      # in place: no second temporary


def _kernel(term: PochTerm, x: np.ndarray, t,
            orders: tuple[int, ...]) -> np.ndarray:
    """sum_{k>=1} (-k alpha t)^n e^{-kw} / (k (1-e^{-k beta t})),
    w = (alpha x + gamma) t, for a vector of x >= 0 and t one float or one
    per point, one row per order n.

    Order 0 costs the same at every t: below w = _W_A it is
    ``_kernel_closed``; above, a k-sum cut at kc = floor(45/w) + 1, which
    leaves out less than e^-45/((kc+1)(1 - e^-w)) of it.  Order n >= 1 is
    a k-sum cut where k^(n-1) e^{-kw} has fallen e^-45 below its maximum,
    and raises past _KMAX_HARD terms.  The rows share one pass over k; each
    point sums each row at its t from its cut down to k = 1, so no value
    depends on the other points or orders of the call.  The points, in
    order of w, go in bands: a chunk of _BAND_ELEMS or more ends where the
    largest cut falls below half of its first point's, so few terms past a
    point's cut are built only to be masked to zero.  The per-k coefficients
    are built once per call at one t while they fit _CHUNK_ELEMS, else per chunk."""
    per = isinstance(t, np.ndarray)             # one t per point
    w = (term.alpha * x + term.gamma) * t
    order = None
    if len(w) > 1 and np.any(w[1:] < w[:-1]):
        order = np.argsort(w, kind="stable")
        w = w[order]
        t = t[order] if per else t
    n_col, sign, zero, spans, imax, imin = _rows(orders)
    near = int(np.searchsorted(w, _W_A))        # w < _W_A: order 0 in closed form
    first = near if max(orders) == 0 else 0     # the points the k-sum covers
    wk, tk = w[first:], (t[first:] if per else t)
    if len(wk) and spans[imax, 0] / wk[0] >= _KMAX_HARD:
        raise ConvergenceError(f"inner sum needs {int(spans[imax, 0] / wk[0]) + 1} "
                               f"terms at t={np.ravel(tk)[0]} (alpha*x+gamma too small)")
    kc = (spans / wk).astype(np.int64) + 1      # per row and point
    kmax, kmin = kc[imax], kc[imin]             # non-increasing
    budget = max(1, _CHUNK_ELEMS // len(orders))
    n_col = None if max(orders) == 0 else n_col
    tab = None
    if not per and len(wk) and kmax[0] * len(orders) <= _CHUNK_ELEMS:
        tab = _log_coef(term, np.arange(kmax[0], 0, -1, dtype=float)[:, None], t, n_col)
    acc = np.zeros((len(orders), len(w)))
    acc_k = acc[:, first:]
    p0 = 0
    while p0 < len(wk):
        # points p0 .. p1-1 with all their rows fit the budget, and past
        # _BAND_ELEMS end where kmax halves; a point that alone does not fit
        # takes its rows in chunks, carrying its sums
        k1 = k_top = int(kmax[p0]) + 1
        p1 = min(p0 + max(1, budget // (k1 - 1)), len(wk))
        band = p0 + _BAND_ELEMS // len(orders) // (k1 - 1)
        if band < p1 and kmax[p1 - 1] < k1 // 2:
            # the first point whose kmax is below half of kmax[p0]
            half = np.searchsorted(-kmax[p0:p1], -(k1 // 2), side="right")
            p1 = max(band, p0 + int(half))
        tp = tk[p0:p1] if per else tk           # the points' t, or the one t
        while k1 > 1:
            k0 = max(k1 - budget, 1)
            k = np.arange(k1 - 1, k0 - 1, -1, dtype=float)[:, None]   # descending
            logcoef = (_log_coef(term, k, tp, n_col) if tab is None
                       else tab[len(tab) - k1 + 1:len(tab) - k0 + 1])
            blk = np.outer(-k, wk[p0:p1])[:, None]         # k by row by point
            blk = np.add(blk, logcoef, out=blk if len(orders) == 1 else (
                logcoef if per else None))    # into an operand of the sum's shape
            top = k1 - 1 - int(kmin[p1 - 1])    # rows past a cut: zero terms
            if top > 0:
                np.putmask(blk[:top], k[:top, None] > kc[:, p0:p1], -np.inf)
            blk = np.exp(blk, out=blk)
            if k1 < k_top:                      # past the band's first chunk
                blk[0] += acc_k[:, p0:p1]
            # in order along k: reducing the outer axis adds one k at a
            # time, and so does cumsum, which a single row of one point needs
            acc_k[:, p0:p1] = (np.add.reduce(blk, axis=0) if blk[0].size > 1
                               else np.cumsum(blk, axis=0)[-1])
            k1 = k0
            del blk, logcoef                    # before the next chunk's are made
        p0 = p1
    if any(r % 2 for r in orders):
        acc *= sign
    if near and zero.any():
        acc[zero, :near] = _kernel_closed(
            w[:near], term.beta * (t[:near] if per else t))
    return acc if order is None else acc[:, np.argsort(order)]


def log_summand(spec: SeriesSpec, x, t):
    """The logged x-th term of the series: x v - A x^2 t - B x t plus the
    Pochhammer contribution sum_terms S * kernel.  Accepts scalar or array
    finite x >= 0 and returns matching shape; t as in ``log_summand_deriv``."""
    return log_summand_deriv(spec, 0, x, t)


def _poly_deriv(spec: SeriesSpec, n: int, x: np.ndarray, t):
    # n-th x-derivative of x v - A x^2 t - B x t, n <= 2
    if n == 0:
        return x * spec.v - spec.A * x ** 2 * t - spec.B * x * t
    if n == 1:
        return spec.v - 2.0 * spec.A * x * t - spec.B * t
    return -2.0 * spec.A * t


def log_summand_deriv(spec: SeriesSpec, n, x, t):
    """n-th x-derivative of log_summand (n = 0 is log_summand itself); for a
    tuple of orders n, one row per order, all from one inner k-sum per
    term.  Takes scalar or array finite x >= 0 and returns matching shape; t is
    one float or an array matching x, each point with the bits of a call at its t.
    Points go in ``_summand_rows`` by slices of _SLICE, whose arrays fit L2."""
    ta = np.asarray(t, dtype=float)         # one t, or one per point
    _require_t(ta)
    orders = n if isinstance(n, tuple) else (n,)
    for r in orders:
        if r < 0 or r > MAX_DERIV:
            raise DomainError(f"derivative order must lie in [0, {MAX_DERIV}], got {r}")
    xa = np.asarray(x, dtype=float)
    if ta.ndim and ta.shape != xa.shape:
        raise DomainError(f"t must be one value or of x's shape, got {ta.shape}")
    t = ta if ta.ndim else float(ta)
    scalar = xa.ndim == 0
    xa = np.atleast_1d(xa)
    if not np.all((xa >= 0) & (xa < math.inf)):     # nan fails both
        raise DomainError("log_summand needs finite x >= 0")
    parts = [_summand_rows(spec, orders, xa[i:i + _SLICE], t[i:i + _SLICE] if ta.ndim else t)
             for i in range(0, max(len(xa), 1), _SLICE)]
    out = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
    out = out[:, 0] if scalar else out
    return out if isinstance(n, tuple) else (float(out[0]) if scalar else out[0])


def _summand_rows(spec: SeriesSpec, orders: tuple[int, ...], x: np.ndarray, t) -> np.ndarray:
    # the polynomial part, then each S K in order; at order 0, one t and _SKIP_MIN
    # points or more, a term goes if 2|S| e^-w/((1 - e^-w)(1 - e^-(beta t))) >= 2|S| K
    # at the least w is below a quarter ulp of the least |partial sum|: none would move
    out = np.zeros((len(orders), len(x)))
    for i, r in enumerate(orders):
        if r <= 2:
            out[i] = _poly_deriv(spec, r, x, t)
    skip = orders == (0,) and len(x) >= _SKIP_MIN and not isinstance(t, np.ndarray)
    for term in spec.terms:
        w = (term.alpha * x.min() + term.gamma) * t if skip else 0.0
        if skip and (abs(term.S) * math.exp(-w) / (math.expm1(-w) * math.expm1(-term.beta * t))
                     < np.spacing(np.abs(out).min()) / 8.0):    # twice it below a quarter ulp
            continue
        out = out + term.S * _kernel(term, x, t, orders)
    return out


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
    ``edges`` run from 0 to m t = U_END (unit steps, ratio _LADDER, and
    series_sum's block ``ends`` below 2^18, which it reads).  ``mass[j]``,
    log(e_j+1 - e_j) plus the sup of F over the closed piece [e_j t, e_j+1 t]
    of u, bounds its terms and its integral over x alike; ``rest[j]`` bounds
    the mass from e_j on.  ``probe`` lies in the piece of most mass;
    ``probe_log`` is its exact logged term."""
    edges: np.ndarray
    mass: np.ndarray
    rest: np.ndarray
    probe: int
    probe_log: float
    ends: tuple[int, ...]

    def window(self, level: float) -> tuple[int, float, np.ndarray]:
        """(cut, head, left) at e^level: the pieces below e_cut, the longest run
        from 0 holding at most half of 1e-18 of e^level, hold e^head at most;
        left[j] bounds head plus the rest from e_j (inf up to the probe)."""
        cum = np.logaddexp.accumulate(self.mass)
        cut = int(np.searchsorted(cum, level + LN_EPS - math.log(2.0), side="right"))
        head = float(cum[cut - 1]) if cut else -math.inf
        return cut, head, np.where(self.edges > self.probe,
                                   np.logaddexp(head, self.rest), np.inf)


def _block_ends(t: float) -> tuple[int, ...]:
    # series_sum's block ends below min(U_END/t, 2^18): 256 terms, m/4 past 1024
    ends, stop = [0], min(U_END / t, 1 << 18)
    while ends[-1] < stop:
        ends.append(ends[-1] + max(256, ends[-1] // 4))
    return tuple(ends)


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
    es, blocks = [], []
    for t in ts:
        _require_t(t)
        if U_END / t >= 2.0 ** 62:      # edges past int64, terms past any budget
            raise ConvergenceError(f"t={t} is below the summation ladder's reach")
        steps = np.ceil(_LADDER ** np.arange(math.log(U_END / t, _LADDER)))
        blocks.append(_block_ends(t))
        e = np.sort(np.concatenate((blocks[-1], steps, [math.ceil(U_END / t)])))
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
    return [MassLadder(*part, float(lg), blk) for part, lg, blk in zip(parts, logs, blocks)]


class SumResult(NamedTuple):
    log_value: float
    m_lo: int              # the terms m_lo <= m < m_hi were summed
    m_hi: int
    left_out_log: float    # log of the certified mass of the others


def series_sum(spec: SeriesSpec, t: float, lad: MassLadder | None = None) -> SumResult:
    """sum_m exp(log_summand(m)) over a certified window [m_lo, m_hi),
    accumulated in log space in blocks of 256 terms that grow to m/4 past
    m = 1024 and to 65536 past m = 2^18.

    m_lo is the cut at the exact term of the window of ``lad``, t's
    ``mass_ladder`` (built here if None).  Past M the rest is at most
    the ladder's rest from the edge at or below M, which holds the one-sup
    bound ``_tail_sup`` at that edge; only a block past 2^18 that starts off
    an edge takes ``_tail_sup`` at M too.  Its factor 1/(1 - q^B) the flat
    tail A = v = 0 needs (the terms above 1e-18 relative alone leave out
    1e-14 of phi-minus at t = 1e-4).  A block ends early at the first edge
    that the sum so far, or the probe's exact term (which every sum holds),
    certifies, so the first block too can end short of 256 terms; the sum
    stops at the first block end past the probe where head plus rest are
    below 1e-18 of the sum so far, and raises if none does by m t = U_END.
    So the sum never passes the first edge that the probe's term certifies,
    and it raises before summing if that edge lies more than _SUM_BUDGET
    terms past m_lo.
    """
    if lad is None:
        lad = mass_ladder(spec, (t,))[0]
    e, ends = lad.edges, lad.ends
    cut, head, left = lad.window(lad.probe_log)
    sure = np.flatnonzero(left <= lad.probe_log + LN_EPS)
    span = int(e[sure[0]] if len(sure) else e[-1]) - int(e[cut])
    if span > _SUM_BUDGET:
        raise ConvergenceError(f"exact sum: the window needs "
                               f"{span if span < 1e15 else f'{span:.3g}'} terms, "
                               f"more than {_SUM_BUDGET}")
    m0, run_max, acc, total_log = int(e[cut]), -math.inf, 0.0, -math.inf
    while True:
        j = int(np.searchsorted(e, m0, side="right")) - 1     # e_j <= m0 < e_j+1
        rest = lad.rest[j] if e[j] == m0 else min(_tail_sup(spec, m0, t), lad.rest[j])
        left_out = np.logaddexp(head, rest)
        if m0 > lad.probe and left_out <= total_log + LN_EPS:
            break
        if j == len(e) - 1:
            raise ConvergenceError(f"series terms still significant at m*t = {m0 * t:.1f}, "
                                   f"past the sum's reach m*t = U_END = {U_END:g}")
        end = (ends[np.searchsorted(ends, m0, side="right")] if m0 < ends[-1]
               else m0 + (1 << 16) - (m0 - ends[-1]) % (1 << 16))   # next block end
        # edges certified now, by the sum so far or the probe's term in it
        ok = np.flatnonzero(left[j + 1:] <= max(total_log, lad.probe_log) + LN_EPS)
        m1 = min(end, int(e[j + 1 + ok[0]])) if len(ok) else end
        logs = log_summand(spec, np.arange(m0, m1, dtype=float), t)
        new_max = max(run_max, float(logs.max()))
        acc = acc * math.exp(run_max - new_max) + float(np.exp(logs - new_max).sum())
        run_max, total_log, m0 = new_max, new_max + math.log(acc), m1
    return SumResult(total_log, int(e[cut]), m0, float(left_out))
