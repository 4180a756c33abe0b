"""Special functions: Bernoulli numbers/polynomials, the polylogarithms
Li_s(e^-w) of integer order s <= 2, taken at w (``polylog``), and from them
the series' inner sum K(w) = -log (e^-w; e^-bt)_inf and its derivatives
without a k-sum, in one closed form (``kernel_rows``), elementwise on arrays.

Bernoulli data is kept exact, as reduced integer (numerator, denominator)
pairs: the product-asymptotic tail terms alternate in sign and grow
factorially, and a floating recurrence loses every digit past n ~ 20.  The
table comes from the tangent numbers in O(n^2) small integer steps (Brent
and Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
2011), and every float drawn from it is one correctly rounded int/int
division.  The polylogarithms are taken at w, not at x = e^-w: 1 - x keeps
only the digits of w that survive the rounding of x, and the asymptotics
live at w -> 0.  The nonpositive orders are positive integer-coefficient
polynomials in v = 1/expm1(w), as are the closed form's Euler-Maclaurin
levels.

The Bernoulli table is built at import and the polylogarithm coefficients on
first use, after which every function here is pure and safe for concurrent
callers.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError, IndexOverflowError

N_MAX = 64          # largest tabulated Bernoulli index

PI2_6 = math.pi * math.pi / 6.0


def _build_bernoulli(n_max: int) -> list[tuple[int, int]]:
    # tangent numbers T_1..T_h by Brent and Harvey's in-place recurrence,
    # then B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), reduced
    h = n_max // 2
    tan = [0, 1] + [0] * (h - 1)
    for k in range(2, h + 1):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, h + 1):
        for j in range(k, h + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    vals = [(1, 1), (-1, 2)] + [(0, 1)] * (n_max - 1)
    for k in range(1, h + 1):
        num, den = (-1) ** (k - 1) * 2 * k * tan[k], 4 ** k * (4 ** k - 1)
        g = math.gcd(num, den)
        vals[2 * k] = (num // g, den // g)
    return vals


_BERNOULLI = _build_bernoulli(N_MAX)
# per n: (D, C(n,k) B_k D for k = 0..n) in integers, D the lcm of the
# denominators of B_0..B_n
_BERNOULLI_POLY = [(d, tuple(math.comb(n, k) * p * (d // q)
                             for k, (p, q) in enumerate(_BERNOULLI[:n + 1])))
                   for n, d in enumerate(itertools.accumulate(
                       (q for _, q in _BERNOULLI), math.lcm))]

# B_2j/(2j+1)!, j = 10..1, for dilog_exp1m
_LI2_EXP = [_BERNOULLI[2 * j][0] / (_BERNOULLI[2 * j][1] * math.factorial(2 * j + 1))
            for j in range(10, 0, -1)]


def bernoulli_pair(n: int) -> tuple[int, int]:
    """Exact B_n (convention B_1 = -1/2) as reduced integers (numerator,
    denominator), the denominator positive."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n > N_MAX:
        raise IndexOverflowError(f"Bernoulli index {n} exceeds table size {N_MAX}")
    return _BERNOULLI[n]


def bernoulli_poly(n: int, x: float) -> float:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), summed exactly (in integers, over
    x = p/q and the B_k's common denominator D) then rounded once."""
    bernoulli_pair(n)           # the index checks
    p, q = float(x).as_integer_ratio()
    d, coeffs = _BERNOULLI_POLY[n]
    acc, qk = 0, 1
    for c in coeffs:            # acc = sum_k c_k p^(n-k) q^k after the last c
        acc, qk = acc * p + c * qk, qk * q
    return acc / (d * q ** n)


def dilog_exp1m(u):
    """Li_2(1 - e^-u) for 0 <= u <= log 2, elementwise on arrays: the
    Bernoulli series u - u^2/4 + sum_j B_2j u^(2j+1)/(2j+1)!, whose terms fall
    like (u/2pi)^(2j), through B_20.  No argument check."""
    v = u * u
    p = _LI2_EXP[0] * v
    for c in _LI2_EXP[1:]:      # in place on arrays
        p += c
        p *= v
    return u - 0.25 * v + u * p


@functools.lru_cache(maxsize=None)
def lineg_coeffs(n: int) -> tuple[int, ...]:
    """m! S(n+1, m) for m = 1 .. n+1 (S: Stirling numbers of the second
    kind, from m! S(N, m) = sum_i (-1)^i C(m, i) (m-i)^N), so that
    Li_-n(e^-w) = sum_m m! S(n+1, m) v^m / m with v = 1/expm1(w)."""
    return tuple(sum((-1) ** i * math.comb(m, i) * (m - i) ** (n + 1) for i in range(m + 1))
                 for m in range(1, n + 2))


def _li2(w: np.ndarray, li1: np.ndarray) -> np.ndarray:
    # Li_2(e^-w) on arrays from li1 = Li_1(e^-w), as ``polylog`` takes it
    near = w < 0.69
    u = np.where(near, w, li1)          # no inf * 0 at w = inf
    li2 = dilog_exp1m(u)
    return np.where(near, PI2_6 - u * li1 - li2, li2)


def polylog(s, w):
    """Li_s(e^-w) for integer s <= 2 at w > 0 (w = inf gives 0), elementwise
    on arrays; for a tuple of orders, one value per order, all from one
    v = 1/expm1(w) = Li_0(e^-w).  Li_-r = sum_m (m-1)! S(r+1, m) v^m
    (``lineg_coeffs``), every term positive; Li1 = log1p(v).  Li2 is
    pi^2/6 - w Li1 - Li2(1 - e^-w) below w = 0.69 and Li2(1 - e^-Li1) above,
    both from ``dilog_exp1m``.  Li2 and Li1 are within about 2 ulp."""
    orders = s if isinstance(s, tuple) else (s,)
    top = max(orders)
    if top > 2:
        raise DomainError(f"polylog orders must be <= 2, got {s}")
    arr = isinstance(w, np.ndarray)
    if arr:
        with np.errstate(over="ignore"):        # w > 709.78: v = 1/inf = 0
            v = 1.0 / np.expm1(w)
    elif not w > 0:
        raise DomainError(f"polylog needs w > 0, got {w}")
    else:       # numpy's expm1 and log1p, as on arrays: Li_-r carries about
        # r times the rounding of v, and scalars take the same roundings
        v = 1.0 / float(np.expm1(w)) if w < 709.0 else math.exp(-w)
    li1 = (np.log1p(v) if arr else float(np.log1p(v))) if top > 0 else None
    out = []
    for r in orders:
        if r == 2:
            out.append(_li2(w, li1) if arr else (PI2_6 - w * li1 - dilog_exp1m(w)
                                                 if w < 0.69 else dilog_exp1m(li1)))
        elif r >= 0:
            out.append(li1 if r else v)
        else:
            p = 0.0
            for m, c in reversed(tuple(enumerate(lineg_coeffs(-r), 1))):
                p = (p + c // m) * v
            out.append(p)
    return tuple(out) if isinstance(s, tuple) else out[0]


# ---------------------------------------------------------------------------
# The inner sum K(w) = sum_k e^-kw/(k (1 - e^-k bt)) = -log (e^-w; e^-bt)_inf
# without a k-sum, and its derivatives

_EM_J = 6               # Euler-Maclaurin levels j = 1.._EM_J of the closed form
_CHUNK_ELEMS = 1 << 16  # elements per chunk of kernel_rows and of the k-sum (fits L2)
_BANDS = (4, 8, 16, 32, 64)     # kernel_rows' orders up to each peel alike, up to the last
# B_2j/(2j)!, j = 1.._EM_J: the closed form's Euler-Maclaurin weights
_EM_B = [num / den / math.factorial(2 * j) for j in range(1, _EM_J + 1)
         for num, den in [bernoulli_pair(2 * j)]]


def _li_row(n: int, scale: float, size: int) -> list[float]:
    # the v^m coefficients, m = 1..size, of scale Li_-n(e^-w), v = 1/expm1(w):
    # Li_-n = sum_m m! S(n+1, m) v^m / m (``lineg_coeffs``); none for n < 0
    c = lineg_coeffs(n) if n >= 0 else ()
    return [scale / m * x for m, x in enumerate(c + (0,) * (size - len(c)), 1)]


@functools.lru_cache(maxsize=256)
def _deriv_tables(orders: tuple[int, ...]) -> tuple:
    # r - 1 and (-1)^r by row, then per band: its rows, 1/rho, the v^m
    # coefficients of each row's Li (``_li_row``) zero-padded alike, whether
    # it has order 0 and where order 1
    r_col = np.array(orders, dtype=float)[:, None]
    tables = [r_col - 1.0, (-1.0) ** r_col]
    for lo, hi in zip((-1,) + _BANDS, _BANDS):
        if rs := [r for r in orders if lo < r <= hi]:
            top = -(-(max(rs) + 2 * _EM_J - 1) // 4) * 4       # powers of v, in fours
            levels = [[_li_row(n, b, top) for r in rs for n in [r + 2 * j - 2 + (j == 0)]]
                      for j, b in enumerate([0.5] + _EM_B)] + [[_li_row(r - 2, 1.0, top) for r in rs]]
            tables.append((slice(orders.index(rs[0]), orders.index(rs[-1]) + 1), 3.0 * (hi + 6.0),
                           np.array(levels).transpose(0, 2, 1).reshape(_EM_J + 2, -1, 1),
                           np.array([_li_row(r - 1, 1.0, max(rs[-1], 1)) for r in rs]).T[..., None],
                           rs[0] == 0, rs.index(1) if 1 in rs else None))
    return tables


def kernel_rows(w: np.ndarray, bt: np.ndarray, s: np.ndarray, ab: np.ndarray,
                orders: tuple[int, ...]) -> np.ndarray:
    """s^r K^(r)(w), the x-derivatives of the inner sum K(w) = sum_k
    e^{-kw}/(k(1 - e^{-k bt})) at w = (alpha x + gamma) t for increasing
    orders r, from s = alpha t, bt = beta t and ab = alpha/beta per point,
    O(1) in t; K itself is row 0 at s = bt, ab = 1.  The product form K(w) =
    -sum_n log(1 - e^{-(w + n bt)}) peels N factors, Euler-Maclaurin takes the
    rest, and the whole is differentiated termwise:
    K^(r)(w) = (-1)^r [sum_{n<N} Li_(1-r)(e^-(w+n bt)) + Li_(2-r)(e^-w')/bt
    + Li_(1-r)(e^-w')/2 + sum_{j<=J} B_2j bt^(2j-1)/(2j)! Li_(2-2j-r)(e^-w')],
    w' = w + N bt.  The orders up to each of _BANDS peel until bt/w' <= 1/(3
    (band+6)), where the first omitted level, about 2 ((r+2J) bt/(2pi w'))^(2J+2)
    of the rest, is below 3e-18 of it, and past bt = 0.37 until 2 (bt/2pi)^(2J+2)
    e^(-N bt) < 2^-56.  A row is ab s^(r-1) (bt [...] + Li_(2-r)), in range
    where s^r underflows; past the float range (from order 58 at w = 1e-4, 50
    at 1e-5) it is inf, without an overflow warning.  All is elementwise on
    zero-padded coefficients: no bit depends on the other points or bands."""
    power, sign, *bands = _deriv_tables(orders)
    step = max(1, _CHUNK_ELEMS // max(band[2][0].size for band in bands))
    out = np.empty((len(orders), len(w)))
    for i in range(0, len(w), step):
        wc, bc = w[i:i + step], bt[i:i + step]
        big = np.maximum(14.0 * np.log(bc) + 13.8, 0.0) / bc if bc.max() > 0.37 else 0.0
        b2, wb = bc * bc, wc / bc
        for rows, inv_rho, levels, peel, zero, one in bands:
            e = out[rows, i:i + step]
            N = np.ceil(np.maximum(inv_rho - wb, big))             # the peel counts
            wp = wc + N * bc
            with np.errstate(over="ignore"):        # w' > 709.78: v = 1/inf = 0
                v = 1.0 / np.expm1(wp)
            c = levels[_EM_J] * b2      # the levels' coefficients by Horner in bt^2
            for j in range(_EM_J - 1, 0, -1):
                c += levels[j]
                c *= b2 if j > 1 else bc
            c += levels[0]
            c *= bc
            c += levels[-1]             # then Li_(2-r), and Estrin in v^4 on four parts
            v2, k = v * v, len(peel[0])
            v4, a = v2 * v2, c[-4 * k:]
            for m in range(len(c) - 8 * k, -1, -4 * k):
                a = a * v4
                a += c[m:m + 4 * k]
            e[:] = v * ((a[:k] + v * a[k:2 * k]) + v2 * (a[2 * k:3 * k] + v * a[3 * k:]))
            li1 = np.log1p(v) if zero or one is not None else None     # Li_1
            if zero:
                e[0] += _li2(wp, li1) + bc * (0.5 * li1)
            if one is not None:
                e[one] += li1
            if N.max() > 0:             # a long chunk peels only the points that do
                at = np.flatnonzero(N) if len(N) > 64 and N.min() == 0 else slice(None)
                n = np.arange(N[at].max())[:, None]
                vn = 1.0 / np.expm1(np.where(n < N[at], wc[at] + n * bc[at], np.inf))[:, None]
                with np.errstate(over="ignore"):        # past the float range: inf
                    p = peel[-1] * vn                   # n by row by point
                    for m in range(len(peel) - 2, -1, -1):
                        p += peel[m]
                        p *= vn
                if zero:
                    p[:, 0] = np.log1p(vn[:, 0])
                e[:, at] += bc[at] * np.cumsum(p, axis=0)[-1]   # along n in order
        # s^(r-1) on whole arrays, where a broadcast exponent may take another pow
        sp = np.power(np.repeat(s[None, i:i + step], len(orders), 0), np.repeat(power, len(wc), 1))
        out[:, i:i + step] *= sp * ab[i:i + step]
    return np.multiply(out, sign, out=out)
