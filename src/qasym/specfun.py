"""Special functions: Bernoulli numbers/polynomials, the dilogarithm (also
elementwise on arrays, as ``dilog_exp1m``) and the nonpositive-order
polylogarithms.

Bernoulli data is kept in exact rational arithmetic: the product-asymptotic
tail terms alternate in sign and grow factorially, and a floating recurrence
loses every digit past n ~ 20.  The nonpositive-order polylogarithms are
integer-coefficient polynomials in v = x/(1-x) because the defining series
diverges numerically exactly where the expansion machinery needs them
(x -> 1); ``qseries`` writes its Euler-Maclaurin levels with the same
coefficients.

The Bernoulli table is built at import and the polylogarithm coefficients on
first use, after which every function here is pure and safe for concurrent
callers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DomainError, IndexOverflowError

N_MAX = 64          # largest tabulated Bernoulli index

PI2_6 = math.pi * math.pi / 6.0


def _build_bernoulli(n_max: int) -> list[Fraction]:
    # defining recurrence: sum_{k=0}^{n} C(n+1,k) B_k = 0 for n >= 1
    vals = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n + 1, k) * vals[k]
        vals.append(-s / (n + 1))
    return vals


_BERNOULLI: list[Fraction] = _build_bernoulli(N_MAX)


# B_2j/(2j+1)!, j = 10..1, for dilog_exp1m
_LI2_EXP = [float(_BERNOULLI[2 * j] / math.factorial(2 * j + 1)) for j in range(10, 0, -1)]


def bernoulli_number(n: int) -> Fraction:
    """Exact B_n (convention B_1 = -1/2)."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n > N_MAX:
        raise IndexOverflowError(f"Bernoulli index {n} exceeds table size {N_MAX}")
    return _BERNOULLI[n]


def bernoulli_poly(n: int, x: float) -> float:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k), summed exactly then rounded once."""
    if n < 0:
        raise DomainError("Bernoulli index must be nonnegative")
    if n > N_MAX:
        raise IndexOverflowError(f"Bernoulli index {n} exceeds table size {N_MAX}")
    xf = Fraction(x)
    acc = Fraction(0)
    for k in range(n + 1):
        acc += math.comb(n, k) * _BERNOULLI[k] * xf ** (n - k)
    return float(acc)


def dilog(x: float) -> float:
    """Li_2(x) for 0 <= x <= 1.

    Power series for x <= 1/2; the reflection
    Li_2(x) + Li_2(1-x) = pi^2/6 - log(x) log(1-x) otherwise, so the
    series is never summed for arguments above 1/2.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"dilog needs 0 <= x <= 1, got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return PI2_6
    if x > 0.5:
        return PI2_6 - math.log(x) * math.log1p(-x) - dilog(1.0 - x)
    p = x
    total = x
    for k in range(2, 200):
        p *= x
        term = p / (k * k)
        total += term
        if term < 1e-17 * total:
            break
    return total


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
    Li_-n(x) = sum_m m! S(n+1, m) v^m / m with v = x/(1-x)."""
    return tuple(sum((-1) ** i * math.comb(m, i) * (m - i) ** (n + 1) for i in range(m + 1))
                 for m in range(1, n + 2))


def polylog_nonpos(r: int, x: float) -> float:
    """Li_{-r}(x) for 0 <= x < 1, as sum_m (m-1)! S(r+1, m) v^m in
    v = x/(1-x) (``lineg_coeffs``); every term is positive, so nothing
    cancels as x -> 1."""
    if r < 0:
        raise DomainError("order must be nonnegative (use dilog for order 2)")
    if not 0.0 <= x < 1.0:
        raise DomainError(f"polylog_nonpos needs 0 <= x < 1 (pole at 1), got {x}")
    v = x / (1.0 - x)
    p = 0.0
    for m, c in reversed(tuple(enumerate(lineg_coeffs(r), 1))):
        p = (p + c // m) * v
    return p
