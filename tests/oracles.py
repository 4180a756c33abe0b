"""Independent reference implementations the tests compare the engine
against.  No route of the package calls them."""

import heapq
import math
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp
import numpy as np

import qasym.quad as quad

from qasym.errors import ConvergenceError, DomainError, SignError
from qasym.phase import level, search_upper_bound
from qasym.qseries import LOG_2PI, ProductSpec, log_summand, log_summand_deriv
from qasym.specfun import PI2_6, bernoulli_poly, dilog_exp1m, polylog


def bernoulli_recurrence(n_max: int) -> list[Fraction]:
    """B_0..B_n_max (B_1 = -1/2) from the defining recurrence
    sum_{k=0}^{n} C(n+1,k) B_k = 0, n >= 1, in Fraction arithmetic: the
    reference for ``specfun``'s tangent-number table."""
    vals = [Fraction(1)]
    for n in range(1, n_max + 1):
        s = Fraction(0)
        for k in range(n):
            s += math.comb(n + 1, k) * vals[k]
        vals.append(-s / (n + 1))
    return vals


BERNOULLI = bernoulli_recurrence(64)


def bernoulli_poly_exact(n: int, x: float) -> float:
    """B_n(x) = sum_k C(n,k) B_k x^(n-k) in Fraction arithmetic, rounded
    once: the reference for the integer Horner of ``specfun.bernoulli_poly``."""
    xf = Fraction(x)
    acc = Fraction(0)
    for k in range(n + 1):
        acc += math.comb(n, k) * BERNOULLI[k] * xf ** (n - k)
    return float(acc)


def log_add(x: float, y: float) -> float:
    """log(e^x + e^y) without leaving log space, the same bits either way
    round: the scalar form the asym route used before ``np.logaddexp``."""
    big, small = (x, y) if x >= y else (y, x)
    return big + math.log1p(math.exp(small - big))


def kappa_by_partitions(lams: dict[int, float], ell: int) -> float:
    """Direct partition-sum evaluation of kappa_ell = sum over {l_r} with
    sum r l_r = ell of prod lambda_r^(l_r)/l_r!.  Cross-check oracle for the
    power-series exponential; practical only for small ell."""
    rs = sorted(r for r in lams if r <= ell)

    def rec(i: int, remaining: int) -> float:
        if remaining == 0:
            return 1.0
        if i >= len(rs):
            return 0.0
        r = rs[i]
        total = 0.0
        term = 1.0
        count = 0
        while r * count <= remaining:
            total += term * rec(i + 1, remaining - r * count)
            count += 1
            term *= lams[r] / count
        return total

    return rec(0, ell)


def qpoch_finite(a: float, q: float, m: int) -> float:
    """log (a;q)_m = sum_{k<m} log(1 - a q^k); (a;q)_0 = 1."""
    if m < 0:
        raise DomainError("finite symbol needs m >= 0")
    if m == 0:
        return 0.0
    factors = 1.0 - a * q ** np.arange(m, dtype=float)
    if np.any(factors <= 0.0):
        raise DomainError("nonpositive factor in finite q-Pochhammer symbol")
    return float(np.sum(np.log(factors)))


def qpoch_inf(a: float, q: float) -> float:
    """log (a;q)_inf for 0 <= a < 1, 0 < q < 1 by the direct product: the
    reference for ``qseries.prefactor_exact``'s closed form.

    Truncates once a q^K < 1e-18 and raises past 10^7 factors (the engine's
    reach); sums 2^20 factors at a time, each chunk in one array taken in place."""
    if not 0.0 <= a < 1.0:
        raise DomainError(f"qpoch_inf needs 0 <= a < 1, got {a}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"qpoch_inf needs 0 < q < 1, got {q}")
    if q >= 1.0 - 1e-12:
        raise ConvergenceError("q too close to 1; use the product asymptotics")
    if a == 0.0:
        return 0.0
    x = (math.log(1e-18) - math.log(a)) / math.log(q)
    if x >= 10_000_000:
        raise ConvergenceError(f"direct product needs {x:.3g} factors, more than 10^7")
    K = max(int(x) + 1, 1)
    sums = []
    for k0 in range(0, K, 1 << 20):
        f = np.arange(k0, min(k0 + (1 << 20), K), dtype=float)
        np.power(q, f, out=f)
        np.multiply(f, -a, out=f)
        sums.append(float(np.sum(np.log1p(f, out=f))))
    return sum(sums)


def mcintosh_asym(a: float, b: float, t: float, M: int) -> float:
    """Small-t asymptotics of log (e^{-at}; e^{-bt})_inf:

        -pi^2/(6bt) + (1/2 - a/b) log(bt) + log(sqrt(2 pi)/Gamma(a/b))
        - sum_{l=1}^{M} b^l B_l B_{l+1}(a/b) t^l / (l (l+1)!).

    The t-power carries bt, not t alone; the plain-t form fails the direct
    q-Pochhammer cross-check by (a/b-1/2) log b whenever b != 1.
    """
    if not b > 0:
        raise DomainError(f"need b > 0, got {b}")
    if not t > 0:
        raise DomainError(f"need t > 0, got {t}")
    if b * t >= 2.0 * math.pi:
        raise ConvergenceError("bt >= 2*pi: expansion radius exceeded")
    ab = a / b
    if not ab > 0:
        raise DomainError(f"need a/b > 0, got {ab}")
    out = (-math.pi ** 2 / (6.0 * b * t) + (0.5 - ab) * math.log(b * t)
           + 0.5 * LOG_2PI - math.lgamma(ab))
    for ell in range(1, M + 1):
        bn = BERNOULLI[ell]
        if bn == 0:
            continue
        out -= (b ** ell * float(bn) * bernoulli_poly(ell + 1, ab) * t ** ell
                / (ell * math.factorial(ell + 1)))
    return out


def dilog(x: float) -> float:
    """Li_2(x) for 0 <= x <= 1: Li_2(1 - e^-u) at u = -log(1 - x) <= log 2
    for x <= 1/2, else the reflection
    Li_2(x) = pi^2/6 - log(x) log(1-x) - Li_2(1-x)."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"dilog needs 0 <= x <= 1, got {x}")
    if x == 1.0:
        return PI2_6
    if x <= 0.5:
        return dilog_exp1m(-math.log1p(-x))
    return PI2_6 - math.log(x) * math.log1p(-x) - dilog_exp1m(-math.log(x))


def lambda_table_per_order(spec, sp, t: float,
                           rmax: int) -> tuple[float, float, dict[int, float]]:
    """Logged peak term F(u/t), peak-width normalizer V and reduced
    derivatives lambda_r at the maximum sp, from the closed form as the asym
    route reads it, one log_summand_deriv call per order, F's included."""
    two_k = 2 * sp.order
    x = sp.u / t
    d2k = log_summand_deriv(spec, two_k, x, t)
    if d2k >= 0:
        raise SignError(
            f"order-{two_k} derivative nonnegative at the peak (t={t} too large)")
    V = (-d2k / math.factorial(two_k)) ** (1.0 / two_k)
    lams: dict[int, float] = {}
    for r in range(1, rmax + 1):
        if r == two_k:
            continue
        lams[r] = log_summand_deriv(spec, r, x, t) / (math.factorial(r) * V ** r)
    return log_summand_deriv(spec, 0, x, t), V, lams


def _gk15_scalar(f, a: float, b: float) -> tuple[float, float]:
    # (Kronrod-15 value, |K15-G7| error estimate) of f over [a, b]
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    x = np.concatenate((c - h * quad._XGK[:-1], [c], c + h * quad._XGK[-2::-1]))
    y = f(x)
    wk = np.concatenate((quad._WGK[:-1], [quad._WGK[-1]], quad._WGK[-2::-1]))
    resk = h * float(wk @ y)
    wg = np.concatenate((quad._WG[:-1], [quad._WG[-1]], quad._WG[-2::-1]))
    return resk, abs(resk - h * float(wg @ y[1:-1:2]))


def seeded_edges(an, t: float, u_lo: float, u_hi: float) -> np.ndarray:
    """Panel edges over [u_lo, u_hi] laid out from the expansion's analysis
    rather than the mass ladder: a geometric ladder u_hi 2^-j (j < 24)
    toward 0, seeds at 0, +-1, 2, 3 and 5 peak widths around every interior
    maximum, and, when the flat tail applies, at 0.3, 1, 2 and 3 times
    log(1/t)/alpha_1 and at t log(1/t)/alpha_1."""
    seeds: list[float] = []
    for sp in an.peaks:
        width = (math.factorial(2 * sp.order) * t
                 / abs(sp.h2m)) ** (1.0 / (2 * sp.order))
        seeds += [sp.u + k * width for k in (-5, -3, -2, -1, 0, 1, 2, 3, 5)]
    if an.tail:
        alpha1 = an.series.falpha[0][0]
        u_tail = math.log(1.0 / t) / alpha1
        seeds += [s * u_tail for s in (0.3, 1.0, 2.0, 3.0)]
        seeds.append(t * math.log(1.0 / t) / alpha1)
    edges = [u_hi * 2.0 ** (-j) for j in range(24)] + seeds
    return np.array(sorted({u for u in edges if u_lo < u < u_hi} | {u_lo, u_hi}))


def integral_whole_ladder(an, t: float, rel_tol: float = 1e-10) -> tuple[float, float, int]:
    """(log value, log error estimate, panels) of the integral over the whole
    seeded panel ladder from u = 0, without a certified window: up to a cutoff
    grown from the phase's search bound by 1.5 until the integrand there is
    below rel_tol * 1e-4 of its peak on a 513-point scan, every panel summed
    bottom-up, the peak also read at every edge, and the panels refined one
    at a time with a scalar Gauss-Kronrod rule."""
    spec = an.series
    u_hi = max(search_upper_bound(an.series), 1.0)
    g = lambda u: log_summand(spec, u / t, t)
    gmax = float(g(np.linspace(0.0, u_hi, 513)).max())
    while g(np.array([u_hi]))[0] - gmax > math.log(rel_tol) + math.log(1e-4):
        u_hi *= 1.5
        gmax = max(gmax, float(g(np.linspace(0.0, u_hi, 513)).max()))
    edges = seeded_edges(an, t, 0.0, u_hi)
    gmax = max(gmax, float(g(np.array(edges[1:])).max()))
    f = lambda u: np.exp(g(u) - gmax)
    heap, total, err_total = [], 0.0, 0.0
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        val, err = _gk15_scalar(f, a, b)
        total += val
        err_total += err
        heapq.heappush(heap, (-err, i, a, b, val))
    count = panels = len(heap)
    while err_total > rel_tol * abs(total):
        neg_err, _, a, b, old = heapq.heappop(heap)
        mid = 0.5 * (a + b)
        v1, e1 = _gk15_scalar(f, a, mid)
        v2, e2 = _gk15_scalar(f, mid, b)
        total += v1 + v2 - old
        err_total += e1 + e2 + neg_err
        heapq.heappush(heap, (-e1, count, a, mid, v1))
        heapq.heappush(heap, (-e2, count + 1, mid, b, v2))
        count += 2
        panels += 1
    err_log = math.log(err_total) if err_total > 0.0 else -math.inf
    return math.log(total) + gmax - math.log(t), err_log + gmax - math.log(t), panels


def kernel_ksum(term, x: float, t: float) -> float:
    """The inner sum K(w) = sum_k e^{-kw}/(k (1 - e^{-k beta t})) at
    w = (alpha x + gamma) t as the engine summed it before its closed form:
    one block of k = 1 .. 45/w + 10, whatever w."""
    w = (term.alpha * x + term.gamma) * t
    k = np.arange(1, int(45.0 / w) + 11, dtype=float)
    return float(np.sum(np.exp(-k * w) / (k * -np.expm1(-k * term.beta * t))))


def kernel_deriv_fsum(term, n: int, x: float, t: float, kmax: int = 5000) -> float:
    """The order-n x-derivative of the inner sum,
    sum_k (-k alpha t)^n e^{-kw}/(k (1 - e^{-k beta t})) over k < kmax,
    each term taken in log space and the terms added exactly (fsum)."""
    w = (term.alpha * x + term.gamma) * t
    return (-1.0) ** n * math.fsum(
        math.exp(n * math.log(k * term.alpha * t) - math.log(k)
                 - math.log(-math.expm1(-k * term.beta * t)) - k * w)
        for k in range(1, kmax))


def dilog_power_series(x: float) -> float:
    """Li_2(x) for 0 <= x <= 1 as the engine summed it before its Bernoulli
    series: sum_k x^k/k^2 for x <= 1/2, the reflection
    Li_2(x) = pi^2/6 - log(x) log(1-x) - Li_2(1-x) above."""
    if x == 1.0:
        return math.pi ** 2 / 6.0
    if x > 0.5:
        return (math.pi ** 2 / 6.0 - math.log(x) * math.log1p(-x)
                - dilog_power_series(1.0 - x))
    p = total = x
    for k in range(2, 200):
        p *= x
        term = p / (k * k)
        total += term
        if term < 1e-17 * total:
            break
    return total


def grid_loop(spec, u_lo: float, u_hi: float) -> list[float]:
    """``phase._grid`` as the loop it was: u_lo times 1.07 while below
    min(1, u_hi), then 1 plus step = 0.05 min(1, 1/max alpha) while at most
    u_hi, then u_hi, each point appended to a list."""
    max_alpha = max((a for a, _ in spec.falpha), default=1.0)
    step = 0.05 * min(1.0, 1.0 / max_alpha)
    pts = []
    u = u_lo
    while u < min(1.0, u_hi):
        pts.append(u)
        u *= 1.07
    u = 1.0
    while u <= u_hi:
        pts.append(u)
        u += step
    pts.append(u_hi)
    return pts


def bisect_loop(spec, a: float, b: float) -> float:
    """``phase._bisect`` as the loop it was: one scalar slope call per
    midpoint, down to relative width 1e-15, then the last midpoint."""
    while b - a > 1e-15 * max(1.0, b):
        mid = 0.5 * (a + b)
        if level(spec, 0, 1, mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def log_summand_mp(spec, orders: tuple[int, ...], x: float, t: float) -> list[list]:
    """The parts of log_summand_deriv(spec, orders, x, t) to 40 digits, one
    list per order: the x-derivative of x v - A x^2 t - B x t, then for each
    term S sum_k (-k alpha t)^n e^(-kw)/(k (1 - e^(-k beta t))), w = (alpha x
    + gamma) t, as mpmath numbers.  Each k-sum runs past the peak of its
    terms until a term falls below 1e-47 of the sum, so what it leaves out
    is below 1e-45 of it for w >= 0.05 (each later term is at most e^(-w/2)
    times the one before).  No term is shared with the engine's k-sum."""
    with mp.workdps(40):
        X, T, A, B, v = (mp.mpf(z) for z in (x, t, spec.A, spec.B, spec.v))
        poly = [X * v - A * X ** 2 * T - B * X * T, v - 2 * A * X * T - B * T,
                -2 * A * T]
        parts = [[poly[n] if n < 3 else mp.mpf(0)] for n in orders]
        for term in spec.terms:
            alpha, beta, gamma, S = (mp.mpf(z) for z in term)
            w = (alpha * X + gamma) * T
            if w < 0.05:
                raise ValueError(f"the oracle's k-sums need w >= 0.05, got {float(w)}")
            sums = [mp.mpf(0)] * len(orders)
            k = 1
            while True:
                base = mp.exp(-k * w) / (k * -mp.expm1(-k * beta * T))
                adds = [(-k * alpha * T) ** n * base for n in orders]
                sums = [s + a for s, a in zip(sums, adds)]
                if (k > 2 * max(orders) / w + 1
                        and all(abs(a) <= mp.mpf(10) ** -47 * abs(s)
                                for a, s in zip(adds, sums))):
                    break
                k += 1
            for row, s in zip(parts, sums):
                row.append(S * s)
        return parts


# ---------------------------------------------------------------------------
# The presets' t -> 0 laws in closed form, and the raw products they normalize


class Reference(NamedTuple):
    """t -> 0 law: constant * t^t_power * exp(rate/t)."""
    rate: float
    t_power: float
    log_constant: float
    notes: str = ""


PI = math.pi
PI2 = math.pi * math.pi

F0_ZETA = -math.log((2.0 / 3.0) * math.sqrt(7.0)
                    * math.cos(math.acos(-1.0 / (2.0 * math.sqrt(7.0))) / 3.0)
                    - 2.0 / 3.0)


def _f0_reference() -> Reference:
    x = math.exp(-F0_ZETA)
    rate = polylog(2, F0_ZETA) - F0_ZETA ** 2 - polylog(2, 2.0 * F0_ZETA)
    log_c = -0.5 * (polylog(1, F0_ZETA) + math.log(2.0 - x + x * x)) + 0.5 * math.log(2.0 * PI)
    return Reference(rate=rate, t_power=-0.5, log_constant=log_c,
                     notes="peak at the root of x^3+2x^2-x-1, x = e^(-u)")


def rphis(a_vec: tuple[float, ...] = (1.0,), b_vec: tuple[float, ...] = (1.0, 1.0),
          v: float = 0.0) -> tuple[ProductSpec, Reference]:
    """Confluent basic hypergeometric series
    sum_k prod(e^{-t a};e^{-t})_k / prod(e^{-t b};e^{-t})_k * e^{-l t k(k-1)/2} e^{vk}
    with l = len(b) - len(a) > 0, and its law.  The q-power bookkeeping
    l*C(k,2) fixes A = l/2 and shifts B by -l/2."""
    ell = len(b_vec) - len(a_vec)
    if ell <= 0:
        raise ValueError(f"need len(b) > len(a), got {len(a_vec)} and {len(b_vec)}")
    quads = ([(a, 1.0, 1.0, 0.0, -1.0) for a in a_vec]
             + [(b, 1.0, 1.0, 0.0, 1.0) for b in b_vec])
    product = ProductSpec.make(ell / 2.0, -ell / 2.0, v, quads)
    u_star = math.log1p(math.exp(v / ell))
    rate = (0.5 * ell * (2.0 * v / ell * u_star - u_star ** 2 + PI2 / 3.0
                         - 2.0 * polylog(2, u_star)))
    t_power = sum(b_vec) - sum(a_vec) - (ell + 1) / 2.0
    log_c = ((1.0 - ell) / 2.0 * math.log(2.0 * PI)
             + 0.5 * ell * (math.log1p(math.exp(v / ell))
                            - math.log1p(math.exp(-v / ell)))
             - 0.5 * math.log(ell)
             + sum(math.lgamma(b) for b in b_vec)
             - sum(math.lgamma(a) for a in a_vec)
             + (sum(b_vec) - sum(a_vec) - 0.5) * math.log1p(math.exp(-v / ell)))
    return product, Reference(rate=rate, t_power=t_power, log_constant=log_c,
                              notes="single peak at u = log(1+e^(v/l))")


def simple_r(A: float = 1.0, B: float = 0.0, C: float = 1.0, D: float = 1.0,
             E: float = 1.0, F: float = 0.0, G: int = 1) -> tuple[ProductSpec, Reference]:
    """sum_m q^(A m^2 + B m) / (q^C;q^D)_(E m+F)^G, and its law.

    The default parameters give the Rogers-Ramanujan series
    sum q^(m^2)/(q;q)_m (rate pi^2/15).  The peak solves
    x^(2A/(EG)) + x^(DE) = 1 with x = e^(-u), found by bisection (the
    left side is strictly monotone); its order is always 1.
    """
    product = ProductSpec.make(A, B, 0.0, [(C, D, E, F, float(G))])
    p = 2.0 * A / (E * G)
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid ** p + mid ** (D * E) > 1.0:
            hi = mid
        else:
            lo = mid
    x = 0.5 * (lo + hi)
    zeta = -math.log(x)
    rate = -A * zeta ** 2 + (G / D) * (PI2 / 6.0 - polylog(2, D * E * zeta))
    t_power = C * G / D - (G + 1) / 2.0
    log_c = (-(G - 1) / 2.0 * math.log(2.0 * PI)
             + G * math.lgamma(C / D)
             + (C / D - 0.5) * G * math.log(D)
             + zeta * ((2.0 * A / E) * (F + C / D - 0.5) - B)
             - 0.5 * math.log(2.0 * A + D * G * E * E * x ** (D * E - p)))
    return product, Reference(rate=rate, t_power=t_power, log_constant=log_c,
                              notes=f"zeta_R = {zeta!r}")


# the raw finite-symbol series of each preset that has one: normalize of
# it is the preset's series and prefactor
PRODUCTS: dict[str, ProductSpec] = {
    # sum_m q^(m(m+1)/2) / (q;q)_m^2
    "ramanujan": ProductSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, 0, 2)]),
    # sum_m q^(m^2) / (q^(m+1);q)_m, via (q^(m+1);q)_m = (q;q)_(2m)/(q;q)_m
    "f0": ProductSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 0, -1), (1, 1, 2, 0, 1)]),
    "rphis": rphis()[0],
    "simple-r": simple_r()[0],
}

REFERENCES: dict[str, Reference] = {
    "ramanujan": Reference(rate=PI2 / 5.0, t_power=0.5,
                           log_constant=-0.5 * math.log(2.0 * PI * math.sqrt(5.0)),
                           notes="golden-ratio peak; u* = 2 log((1+sqrt5)/2)"),
    "f0": _f0_reference(),
    # C_H = 1/2, tail constant Gamma(1/2)/(2 (3/2)^(1/2))
    "phi-minus": Reference(
        rate=PI2 / 6.0, t_power=-0.5,
        log_constant=math.log(0.5) + math.lgamma(0.5) - math.log(2.0) - 0.5 * math.log(1.5),
        notes="tail-only branch; equals (1/2) sqrt(pi/(6 t)) e^(pi^2/(6t))"),
    "rphis": rphis()[1],
    "simple-r": simple_r()[1],
    "euler": Reference(rate=0.0, t_power=0.0, log_constant=0.0,
                       notes="exact value 1 for every t"),
    "euler-b2": Reference(rate=0.0, t_power=1.0, log_constant=0.0,
                          notes="exact value 1 - e^(-t)"),
}
