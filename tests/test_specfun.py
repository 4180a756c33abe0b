import math
from fractions import Fraction

import numpy as np
import pytest

from qasym.errors import DomainError, IndexOverflowError
from qasym.specfun import (bernoulli_number, bernoulli_poly, dilog, dilog_exp1m,
                           polylog_nonpos)


def bernoulli_akiyama_tanigawa(n):
    """Independent oracle: Akiyama-Tanigawa algorithm, adjusted to the
    B_1 = -1/2 convention used by the package."""
    A = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        A[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            A[j - 1] = j * (A[j - 1] - A[j])
        out.append(A[0])
    out[1] = -out[1]  # AT yields the B_1 = +1/2 convention
    return out


class TestBernoulli:
    def test_first_values(self):
        assert bernoulli_number(0) == 1
        assert bernoulli_number(1) == Fraction(-1, 2)

    def test_b12_exact(self):
        assert bernoulli_number(12) == Fraction(-691, 2730)

    def test_against_independent_recurrence(self):
        oracle = bernoulli_akiyama_tanigawa(40)
        for n in range(41):
            assert bernoulli_number(n) == oracle[n]

    def test_odd_vanish(self):
        for n in range(3, 65, 2):
            assert bernoulli_number(n) == 0

    def test_overflow(self):
        with pytest.raises(IndexOverflowError):
            bernoulli_number(65)


class TestBernoulliPoly:
    def test_constant(self):
        assert bernoulli_poly(0, 7.3) == 1.0

    def test_b1_at_zero(self):
        assert bernoulli_poly(1, 0.0) == -0.5

    def test_b2_half(self):
        # B_2(x) = x^2 - x + 1/6
        assert bernoulli_poly(2, 0.5) == pytest.approx(-1.0 / 12.0, abs=1e-16)

    def test_generating_function(self):
        # sum_l z^l B_l(x)/l! == z e^{zx}/(e^z - 1)
        z = 0.1
        for x in (0.0, 0.3, 1.0):
            s = sum(z ** l * bernoulli_poly(l, x) / math.factorial(l)
                    for l in range(31))
            target = z * math.exp(z * x) / math.expm1(z)
            assert abs(s - target) <= 1e-12


def dilog_series_oracle(x, terms=60):
    return sum(x ** k / k ** 2 for k in range(1, terms + 1))


class TestDilog:
    def test_endpoints(self):
        assert dilog(0.0) == 0.0
        assert dilog(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)

    def test_half(self):
        closed = math.pi ** 2 / 12.0 - math.log(2.0) ** 2 / 2.0
        assert dilog(0.5) == pytest.approx(closed, rel=1e-14)
        assert dilog(0.5) == pytest.approx(dilog_series_oracle(0.5), rel=1e-14)

    def test_reflection_residual(self):
        for i in range(1, 100):
            x = i / 100.0
            res = (dilog(x) + dilog(1.0 - x) - math.pi ** 2 / 6.0
                   + math.log(x) * math.log1p(-x))
            assert abs(res) <= 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            dilog(1.0 + 1e-12)

    def test_exp1m_matches_power_series(self):
        # Li_2(1 - e^-u) on u in [0, log 2], scalars and arrays alike,
        # against the scalar power series at x = 1 - e^-u <= 1/2
        u = np.r_[0.0, np.geomspace(1e-12, math.log(2.0), 400)]
        got = dilog_exp1m(u)
        for ui, gi in zip(u, got):
            want = dilog(-math.expm1(-ui))
            assert gi == dilog_exp1m(float(ui))
            assert abs(gi - want) <= 4 * math.ulp(want)


class TestPolylogNonpos:
    def test_examples(self):
        assert polylog_nonpos(0, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert polylog_nonpos(1, 0.5) == pytest.approx(2.0, rel=1e-15)
        assert polylog_nonpos(2, 0.5) == pytest.approx(6.0, rel=1e-15)

    def test_series_oracle(self):
        # Li_{-r}(x) = sum k^r x^k, for every order the phase derivatives use
        for r in range(15):
            for x in (0.2, 0.5, 0.7):
                oracle = math.fsum(k ** r * x ** k for k in range(1, 400))
                assert polylog_nonpos(r, x) == pytest.approx(oracle, rel=1e-13)

    def test_derivative_ladder(self):
        # x d/dx Li_{1-r}(x) == Li_{-r}(x), derivative by central difference
        h = 1e-6
        for r in range(4):
            for i in range(1, 10):
                x = i / 10.0
                if r == 0:
                    d = (math.log1p(-(x - h)) - math.log1p(-(x + h))) / (2 * h)
                else:
                    d = (polylog_nonpos(r - 1, x + h)
                         - polylog_nonpos(r - 1, x - h)) / (2 * h)
                lhs = x * d
                rhs = polylog_nonpos(r, x)
                assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_pole(self):
        with pytest.raises(DomainError):
            polylog_nonpos(1, 1.0)
