"""Special functions: Bernoulli numbers/polynomials and the polylogarithms
Li_s(e^-w) of integer order s <= 2, taken at w (``polylog``), elementwise on
arrays.

Bernoulli data is kept exact, as reduced integer (numerator, denominator)
pairs: the product-asymptotic tail terms alternate in sign and grow
factorially, and a floating recurrence loses every digit past n ~ 20.  The
table comes from the tangent numbers in O(n^2) small integer steps (Brent
and Harvey, "Fast computation of Bernoulli, Tangent and Secant numbers",
2011), and every float drawn from it is one correctly rounded int/int
division.  The polylogarithms are taken at w, not at x = e^-w: 1 - x keeps
only the digits of w that survive the rounding of x, and the asymptotics
live at w -> 0.  The nonpositive orders are positive integer-coefficient
polynomials in v = 1/expm1(w), which ``qseries`` also uses for its
Euler-Maclaurin levels.

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
    p = 0.0
    for c in _LI2_EXP:
        p = (p + c) * v
    return u - 0.25 * v + u * p


@functools.lru_cache(maxsize=None)
def lineg_coeffs(n: int) -> tuple[int, ...]:
    """m! S(n+1, m) for m = 1 .. n+1 (S: Stirling numbers of the second
    kind, from m! S(N, m) = sum_i (-1)^i C(m, i) (m-i)^N), so that
    Li_-n(e^-w) = sum_m m! S(n+1, m) v^m / m with v = 1/expm1(w)."""
    return tuple(sum((-1) ** i * math.comb(m, i) * (m - i) ** (n + 1) for i in range(m + 1))
                 for m in range(1, n + 2))


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
        if r == 2 and arr:
            near = w < 0.69
            u = np.where(near, w, li1)          # no inf * 0 at w = inf
            li2 = dilog_exp1m(u)
            out.append(np.where(near, PI2_6 - u * li1 - li2, li2))
        elif r == 2:
            out.append(PI2_6 - w * li1 - dilog_exp1m(w) if w < 0.69 else dilog_exp1m(li1))
        elif r >= 0:
            out.append(li1 if r else v)
        else:
            p = 0.0
            for m, c in reversed(tuple(enumerate(lineg_coeffs(-r), 1))):
                p = (p + c // m) * v
            out.append(p)
    return tuple(out) if isinstance(s, tuple) else out[0]
