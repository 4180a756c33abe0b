import itertools
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qasym.qseries as qs
import qasym.specfun as sf
from oracles import BERNOULLI, bernoulli_poly_exact, dilog, dilog_power_series
from qasym.errors import DomainError, IndexOverflowError
from qasym.qseries import PochTerm, kernel_bounds
from qasym.specfun import bernoulli_pair, bernoulli_poly, dilog_exp1m, lineg_coeffs, polylog


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


def bernoulli_number(n):
    # exact B_n as a Fraction, from the table's reduced integer pair
    return Fraction(*bernoulli_pair(n))


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
        with pytest.raises(DomainError):
            bernoulli_pair(-1)

    def test_tangent_table_matches_recurrence(self):
        # the integer pairs are reduced, with a positive denominator
        for n in range(65):
            assert bernoulli_number(n) == BERNOULLI[n]
            p, q = bernoulli_pair(n)
            assert (p, q) == (BERNOULLI[n].numerator, BERNOULLI[n].denominator)

    def test_derived_tables_match_fraction_built(self):
        # each table as the recurrence's Fractions build it, bit for bit
        poly = [(d, tuple(math.comb(n, k) * b.numerator * (d // b.denominator)
                          for k, b in enumerate(BERNOULLI[:n + 1])))
                for n, d in enumerate(itertools.accumulate(
                    (b.denominator for b in BERNOULLI), math.lcm))]
        assert sf._BERNOULLI_POLY == poly
        li2 = [float(BERNOULLI[2 * j] / math.factorial(2 * j + 1)) for j in range(10, 0, -1)]
        assert [x.hex() for x in sf._LI2_EXP] == [x.hex() for x in li2]
        em_v = np.array([[float(BERNOULLI[2 * j]) / math.factorial(2 * j) / m * c
                          for m, c in enumerate(lineg_coeffs(2 * j - 2)
                                                + (0,) * (2 * qs._EM_J - 2 * j), 1)]
                         for j in range(1, qs._EM_J + 1)])
        assert qs._EM_V.tobytes() == em_v.tobytes()


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

    @staticmethod
    def _outcome(f, n, x):
        # the value's exact bits, or the exception's type and message
        try:
            return f(n, x).hex()
        except Exception as e:
            return type(e), str(e)

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(0, 64), x=st.floats(allow_nan=False, allow_infinity=False))
    @example(n=64, x=0.0)
    @example(n=63, x=-0.0)
    @example(n=64, x=1.0)
    @example(n=64, x=5e-324)
    @example(n=7, x=-5e-324)
    @example(n=64, x=-1.5)
    @example(n=9, x=1e300)       # past the float range: OverflowError
    @example(n=64, x=-1.7976931348623157e308)
    def test_integer_horner_matches_fraction_sum(self, n, x):
        assert (self._outcome(bernoulli_poly, n, x)
                == self._outcome(bernoulli_poly_exact, n, x))

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [0, 3, 64])
    def test_nan_and_inf_raise_as_the_fraction_sum(self, n, x):
        got = self._outcome(bernoulli_poly, n, x)
        assert got == self._outcome(bernoulli_poly_exact, n, x)
        assert got[0] in (ValueError, OverflowError)


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

    def test_matches_power_series(self):
        for x in np.r_[np.linspace(0.0, 1.0, 201), 1e-300, 1e-8, 1.0 - 1e-12]:
            want = dilog_power_series(float(x))
            assert abs(dilog(float(x)) - want) <= 4 * math.ulp(want)

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
        # against the power series at x = 1 - e^-u <= 1/2
        u = np.r_[0.0, np.geomspace(1e-12, math.log(2.0), 400)]
        got = dilog_exp1m(u)
        for ui, gi in zip(u, got):
            want = dilog_power_series(-math.expm1(-ui))
            assert gi == dilog_exp1m(float(ui))
            assert abs(gi - want) <= 4 * math.ulp(want)


def _li_oracle(s, w):
    # Li_s(e^-w) at 40 digits; order 1 through log1p, which mpmath's
    # polylog(1, z) = -log(1 - z) leaves at 0 once z < 1e-40
    with mp.workdps(40):
        w = mp.mpf(w)
        if s == 1:
            return float(-mp.log1p(-mp.exp(-w)))
        return float(mp.polylog(s, mp.exp(-w)))


ORDERS = [2, 1] + list(range(0, -15, -1))


class TestPolylogNonpos:
    # the nonpositive orders of polylog and the ladder that joins them to Li1
    def test_examples(self):
        # Li_0, Li_-1, Li_-2 at x = 1/2
        assert polylog(0, math.log(2.0)) == pytest.approx(1.0, rel=1e-15)
        assert polylog(-1, math.log(2.0)) == pytest.approx(2.0, rel=1e-15)
        assert polylog(-2, math.log(2.0)) == pytest.approx(6.0, rel=1e-15)
        assert polylog(2, math.log(2.0)) == pytest.approx(
            math.pi ** 2 / 12.0 - math.log(2.0) ** 2 / 2.0, rel=1e-15)

    def test_series_oracle(self):
        # Li_{-r}(x) = sum k^r x^k, for every order the phase derivatives use
        for r in range(15):
            for x in (0.2, 0.5, 0.7):
                oracle = math.fsum(k ** r * x ** k for k in range(1, 400))
                assert polylog(-r, -math.log(x)) == pytest.approx(oracle, rel=1e-13)

    def test_derivative_ladder(self):
        # -d/dw Li_{s+1}(e^-w) == Li_s(e^-w), derivative by central difference
        h = 1e-6
        for s in range(1, -4, -1):
            for i in range(1, 10):
                w = -math.log(i / 10.0)
                d = (polylog(s + 1, w - h) - polylog(s + 1, w + h)) / (2 * h)
                rhs = polylog(s, w)
                assert abs(d - rhs) <= 1e-8 * max(1.0, abs(rhs))

    def test_pole(self):
        # Li_s(e^-w) for s <= 1 has its pole at w = 0
        with pytest.raises(DomainError):
            polylog(1, 0.0)
        with pytest.raises(DomainError):
            polylog(0, 0.0)


class TestPolylog:
    @pytest.mark.parametrize("s", ORDERS)
    def test_mpmath_oracle(self, s):
        # Li2 and Li1 within 3 ulp; Li_-r carries about r times the rounding
        # of v = 1/expm1(w), so its bound grows with r
        ws = np.r_[np.geomspace(1e-12, 700.0, 97), 0.69, np.nextafter(0.69, 0.0)]
        arr = polylog(s, ws)
        tol = 3 if s > 0 else 4 - 2 * s
        for w, a in zip(ws, arr):
            got = polylog(s, float(w))
            want = _li_oracle(s, w)
            assert abs(got - want) <= tol * math.ulp(want), (s, w)
            assert abs(a - got) <= 2 * math.ulp(want), (s, w)

    def test_tuple_of_orders(self):
        # one value per order, each as from a call with that order alone
        for w in (1e-9, 0.3, 0.69, 2.0, np.geomspace(1e-6, 50.0, 7)):
            together = polylog((2, 1, 0, -3), w)
            for s, got in zip((2, 1, 0, -3), together):
                assert np.array_equal(got, polylog(s, w))

    def test_infinity(self):
        for s in ORDERS:
            assert polylog(s, math.inf) == 0.0
            assert np.array_equal(polylog(s, np.array([math.inf, math.inf])), [0.0, 0.0])
        assert kernel_bounds(PochTerm(1.0, 1.0, 1.0, -2.0), math.inf, 0.01) == (0.0, 0.0)

    def test_large_w_quiet(self):
        # e^w overflows past w = 709.78: no warning on arrays, no
        # OverflowError on scalars, and Li_s below the smallest normal
        w = np.array([700.0, 709.5, 710.0, 745.0, 1e4, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in ORDERS:
                arr = polylog(s, w)
                assert np.all(arr[2:] <= 2.3e-308) and np.all(arr >= 0.0)
                for wi, ai in zip(w, arr):
                    got = polylog(s, float(wi))
                    assert got == pytest.approx(ai, rel=1e-15, abs=1e-300)

    def test_domain(self):
        for s, w in ((0, -1.0), (2, math.nan), (3, 1.0), ((1, 3), 1.0)):
            with pytest.raises(DomainError):
                polylog(s, w)
