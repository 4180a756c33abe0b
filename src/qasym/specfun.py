"""Special functions: Bernoulli numbers/polynomials, the dilogarithm (also
elementwise on arrays, as ``dilog_exp1m``) and the nonpositive-order
polylogarithms.

Bernoulli data is kept in exact rational arithmetic: the product-asymptotic
tail terms alternate in sign and grow factorially, and a floating recurrence
loses every digit past n ~ 20.  The nonpositive-order polylogarithms are
stored as integer-coefficient polynomials over (1-x)^(r+1) because the
defining series diverges numerically exactly where the expansion machinery
needs them (x -> 1).

All tables are built eagerly at import, after which every function here is
pure and safe for concurrent callers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, IndexOverflowError

N_MAX = 64          # largest tabulated Bernoulli index
POLYLOG_R_MAX = 128  # largest tabulated Li_{-r} order

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


def _build_lineg_polys(r_max: int) -> list[list[int]]:
    # Li_{-r}(x) = P_r(x)/(1-x)^{r+1} with P_0 = x and
    # P_r = x * ((1-x) P_{r-1}' + r P_{r-1})
    polys = [[0, 1]]
    for r in range(1, r_max + 1):
        p = polys[r - 1]
        dp = [j * p[j] for j in range(1, len(p))]
        q = [0] * (len(p) + 1)
        for j, c in enumerate(dp):          # (1-x) P'
            q[j] += c
            q[j + 1] -= c
        for j, c in enumerate(p):           # + r P
            q[j] += r * c
        while q and q[-1] == 0:
            q.pop()
        polys.append([0] + q)               # multiply by x
    return polys


_LINEG: list[list[int]] = _build_lineg_polys(POLYLOG_R_MAX)

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


def polylog_nonpos(r: int, x: float) -> float:
    """Li_{-r}(x) for 0 <= x < 1, via the exact rational-function form."""
    if r < 0:
        raise DomainError("order must be nonnegative (use dilog for order 2)")
    if r > POLYLOG_R_MAX:
        raise IndexOverflowError(f"polylog order {r} exceeds table size {POLYLOG_R_MAX}")
    if not 0.0 <= x < 1.0:
        raise DomainError(f"polylog_nonpos needs 0 <= x < 1 (pole at 1), got {x}")
    p = 0.0
    for c in reversed(_LINEG[r]):
        p = p * x + c
    return p / (1.0 - x) ** (r + 1)
