import json
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, target
from hypothesis import strategies as st

import qasym.cli as cli
import qasym.quad as quad
import qasym.qseries as qs
import qasym.specfun as sf
from oracles import (kernel_deriv_fsum, kernel_ksum, log_summand_mp, mcintosh_asym,
                     qpoch_finite, qpoch_inf)
from qasym.cli import load_spec, main
from qasym.errors import ConvergenceError, DomainError, SpecError
from qasym.expansion import analyse
from qasym.phase import search_upper_bound
from qasym.presets import PRESETS, get_preset
from qasym.quad import integral
from qasym.qseries import (ProductSpec, QuadTerm, SeriesSpec, log_summand,
                           log_summand_deriv, normalize, prefactor_asym,
                           prefactor_exact, prefactor_law, series_sum)
from qasym.specfun import PI2_6, bernoulli_pair, polylog

RAM = SeriesSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, -2)])
EULER = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])
V_NEGATIVE = SeriesSpec.make(0.0, -0.5, -0.05, [(1, 1, 1, -2), (2, 1, 0.5, 1)])
DATA = Path(__file__).parent / "data"
# m_hi at t = 1e-4 of the sum over [0, stop) that the certified window
# replaced: blocks from m = 0 checked by the one-sup bound alone (the
# direct windows only)
WHOLE_RANGE_STOP = {"ramanujan": 18618, "f0": 7627, "two-peak": 88772,
                    "v-negative": 56815}


@st.composite
def admissible_specs(draw, ts=st.floats(0.01, 0.1)):
    """(spec, t): 1-2 terms on a random branch of the domain triple, at a t
    drawn from ``ts`` (by default in [0.01, 0.1]) where the series converges."""
    t = draw(ts)
    terms = draw(st.lists(st.tuples(
        st.floats(0.5, 3.0), st.floats(0.5, 2.0), st.floats(0.3, 2.0),
        st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)), min_size=1, max_size=2))
    branch = draw(st.sampled_from(["A>0", "flat", "v<0"]))
    if branch == "A>0":
        A, B, v = (draw(st.floats(0.05, 1.0)), draw(st.floats(-0.5, 1.0)),
                   draw(st.floats(-0.5, 0.5)))
    elif branch == "flat":
        A, B, v = 0.0, draw(st.floats(0.2, 2.0)), 0.0
    else:
        A, B, v = 0.0, draw(st.floats(-0.5, 1.0)), draw(st.floats(-0.5, -0.05))
        assume(v - B * t <= -0.01)
    return SeriesSpec.make(A, B, v, terms), t


class TestSpecValidation:
    def test_domain_triple(self):
        with pytest.raises(SpecError, match="domain triple"):
            SeriesSpec.make(0.0, 0.0, 0.0, [(1, 1, 1, 1)])
        with pytest.raises(SpecError, match="domain triple"):
            SeriesSpec.make(0.0, -1.0, 0.0, [(1, 1, 1, 1)])
        # the three admissible branches
        SeriesSpec.make(1.0, -3.0, 2.0, [(1, 1, 1, 1)])
        SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, 1)])
        SeriesSpec.make(0.0, 0.0, -1.0, [(1, 1, 1, 1)])

    def test_quad_invariants(self):
        with pytest.raises(SpecError, match="a\\+bd>0"):
            QuadTerm(0.0, 1.0, 1.0, 0.0, 1.0)
        with pytest.raises(SpecError, match="b>0"):
            QuadTerm(1.0, 0.0, 1.0, 0.0, 1.0)
        with pytest.raises(SpecError, match="a>0, got -1.0"):
            QuadTerm(-1.0, 1.0, 1.0, 2.0, 1.0)
        with pytest.raises(SpecError, match="a>0, got 0.0"):
            QuadTerm(0.0, 1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind,field", [
        *(("PochTerm", f) for f in qs.PochTerm._fields),
        *(("QuadTerm", f) for f in QuadTerm._fields),
        *((k, f) for k in ("SeriesSpec", "ProductSpec") for f in ("A", "B", "v"))])
    def test_non_finite_field_is_refused(self, kind, field, bad):
        # such a field used to pass, and a route to fail later with a
        # misleading message ("domain triple violated dynamically?")
        build = {"PochTerm": qs.PochTerm, "QuadTerm": QuadTerm,
                 "SeriesSpec": lambda **f: SeriesSpec.make(**f, terms=[]),
                 "ProductSpec": lambda **f: ProductSpec.make(**f, quads=[])}[kind]
        good = {"PochTerm": dict(alpha=1.0, beta=1.0, gamma=1.0, S=1.0),
                "QuadTerm": dict(a=1.0, b=1.0, c=1.0, d=0.0, S=1.0)}.get(
            kind, dict(A=1.0, B=0.0, v=0.0))
        with pytest.raises(SpecError, match=f"needs a finite {field}, got {bad}$"):
            build(**{**good, field: bad})

    def test_merge_and_drop(self):
        spec = SeriesSpec.make(1.0, 0.0, 0.0,
                               [(1, 1, 1, 1.0), (1, 1, 1, -1.0), (2, 1, 1, 3.0)])
        assert len(spec.terms) == 1
        assert spec.terms[0].alpha == 2


class TestQPochFinite:
    def test_empty_product(self):
        assert math.exp(qpoch_finite(0.5, 0.5, 0)) == 1.0

    def test_two_factors(self):
        assert math.exp(qpoch_finite(0.5, 0.5, 2)) == pytest.approx(0.375, rel=1e-15)

    def test_direct_loop(self):
        prod = 1.0
        for k in range(10):
            prod *= 1.0 - 0.9 * 0.9 ** k
        assert math.exp(qpoch_finite(0.9, 0.9, 10)) == pytest.approx(prod, rel=1e-13)

    def test_recurrence(self):
        rng = random.Random(7)
        for _ in range(60):
            a = rng.uniform(0.01, 0.95)
            q = rng.uniform(0.05, 0.95)
            m = rng.randrange(0, 40)
            lhs = qpoch_finite(a, q, m + 1)
            rhs = qpoch_finite(a, q, m) + math.log1p(-a * q ** m)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))


class TestQPochInf:
    def test_direct_product(self):
        oracle = sum(math.log1p(-0.5 * 0.5 ** k) for k in range(60))
        assert qpoch_inf(0.5, 0.5) == pytest.approx(oracle, rel=1e-14)

    def test_tiny_a(self):
        assert abs(qpoch_inf(1e-20, 0.5)) < 1e-18

    def test_li1_style_identity(self):
        # log (a;q)_inf = -sum_k a^k/(k (1-q^k))
        a, q = 0.25, 0.5
        oracle = -sum(a ** k / (k * (1.0 - q ** k)) for k in range(1, 80))
        assert qpoch_inf(a, q) == pytest.approx(oracle, rel=1e-13)

    def test_splitting(self):
        rng = random.Random(11)
        for _ in range(40):
            a = rng.uniform(0.01, 0.9)
            q = rng.uniform(0.05, 0.9)
            m = rng.randrange(0, 30)
            lhs = qpoch_inf(a, q)
            rhs = qpoch_finite(a, q, m) + qpoch_inf(a * q ** m, q)
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))

    def test_q_near_one_refused(self):
        with pytest.raises(ConvergenceError):
            qpoch_inf(0.5, 1.0 - 1e-13)

    @pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4])
    def test_in_place_keeps_bits(self, t):
        # the chunks taken in place against the expression they replaced:
        # a fresh array per operation, summed chunk by chunk the same way
        a = q = math.exp(-t)
        K = max(int((math.log(1e-18) - math.log(a)) / math.log(q)) + 1, 1)
        old = sum(float(np.sum(np.log1p(-a * q ** np.arange(
            k0, min(k0 + (1 << 20), K), dtype=float)))) for k0 in range(0, K, 1 << 20))
        assert qpoch_inf(a, q) == old

    def test_streamed_past_one_chunk(self):
        # t = 1e-5 needs 4.1M factors, summed 2^20 at a time; the direct
        # product's own rounding grows like eps/t^2 (about 6e-13 here)
        t = 1e-5
        d = qpoch_inf(math.exp(-t), math.exp(-t))
        m = mcintosh_asym(1, 1, t, 4)
        assert abs(d - m) <= 5e-12 * abs(m)


class TestMcintosh:
    def test_vs_symbol_b1(self):
        t = 0.01
        m = mcintosh_asym(1, 1, t, 10)
        d = qpoch_inf(math.exp(-t), math.exp(-t))
        assert abs(m - d) <= 1e-10 * abs(d)

    def test_vs_symbol_b2(self):
        t = 0.02
        m = mcintosh_asym(1, 2, t, 10)
        d = qpoch_inf(math.exp(-t), math.exp(-2 * t))
        assert abs(m - d) <= 1e-9 * abs(d)

    def test_integer_ratio_needs_bt_power(self):
        # (e^{-2t};e^{-2t})_inf: the plain-t form would be off by log(2)/2
        t = 0.01
        m = mcintosh_asym(2, 2, t, 10)
        d = qpoch_inf(math.exp(-2 * t), math.exp(-2 * t))
        assert abs(m - d) <= 1e-10

    def test_leading_constant_limit(self):
        # with a/b = 1/2 the power term vanishes, so the true symbol's log
        # plus pi^2/(12t) tends to log(sqrt(2 pi)/Gamma(1/2)) = log(sqrt 2)
        target = 0.5 * math.log(2.0)
        gaps = []
        for t in (1e-2, 1e-3, 1e-4):
            truth = qpoch_inf(math.exp(-t), math.exp(-2 * t))
            gaps.append(abs(truth + math.pi ** 2 / (12 * t) - target))
        assert gaps[2] < gaps[1] < gaps[0]
        assert gaps[2] < 1e-4

    def test_error_shrinks_with_order(self):
        t = 0.05
        truth = qpoch_inf(math.exp(-t), math.exp(-3 * t))
        errs = [abs(mcintosh_asym(1, 3, t, M) - truth)
                for M in range(2, 9)]
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))
        assert errs[-1] < errs[0]


class TestPrefactor:
    def test_hand_constants(self):
        # single quad (1,1,1,0,S=2): rate pi^2/3, t_power 1, constant 1/(2 pi)
        quads = (QuadTerm(1, 1, 1, 0, 2),)
        law = prefactor_law(quads, 0)
        assert law.rate == pytest.approx(math.pi ** 2 / 3.0, rel=1e-15)
        assert law.t_power == pytest.approx(1.0)
        assert law.log_c == pytest.approx(math.log(1.0 / (2 * math.pi)), rel=1e-15)
        assert law.coeffs == ()

    def test_empty_product(self):
        assert math.exp(prefactor_asym(prefactor_law((), 8), (0.05,))[0]) == 1.0

    def test_grid_keeps_each_t_bits(self):
        # the one-t formula is the reference: columns carry + - * / only
        law = prefactor_law(get_preset("simple-r").prefactor, 8)
        ts = tuple(0.1 * 0.001 ** (i / 9) for i in range(10))

        def one(t):
            out = law.rate / t + law.t_power * math.log(t) + law.log_c
            for ell, a_l in enumerate(law.coeffs, 1):
                out += a_l * t ** ell
            return out

        assert prefactor_asym(law, ts).tolist() == [one(t) for t in ts]

    def test_vs_exact_symbol(self):
        t = 0.01
        quads = (QuadTerm(1, 2, 1, 0, 1),)
        (asym,) = prefactor_asym(prefactor_law(quads, 8), (t,))
        exact = -qpoch_inf(math.exp(-t), math.exp(-2 * t))
        assert abs(asym - exact) <= 1e-8


class TestNormalize:
    def test_ramanujan(self):
        series, pref = normalize(ProductSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, 0, 2)]))
        assert series.terms == (qs.PochTerm(1, 1, 1, -2.0),)
        assert len(pref) == 1 and pref[0].S == 2.0

    def test_zero_merge_dropped(self):
        series, pref = normalize(ProductSpec.make(
            1.0, 0.0, 0.0, [(1, 1, 1, 0, 1), (1, 1, 1, 0, -1)]))
        assert series.terms == ()
        assert pref == ()

    def test_f0_map(self):
        # numerator symbol -> S=-1 term, denominator -> S=+1
        series, pref = normalize(ProductSpec.make(
            1.0, 0.0, 0.0, [(1, 1, 2, 0, 1), (1, 1, 1, 0, -1)]))
        assert series.terms == (qs.PochTerm(1, 1, 1, 1.0), qs.PochTerm(2, 1, 1, -1.0))
        assert pref == ()   # (q;q)_inf^-1 * (q;q)_inf cancels


class TestLogSummand:
    def test_polynomial_only(self):
        spec = SeriesSpec(1.0, 2.0, -0.5, ())
        x, t = 3.0, 0.1
        assert log_summand(spec, x, t) == pytest.approx(
            3 * -0.5 - 9 * 1.0 * t - 3 * 2.0 * t, rel=1e-15)

    def test_inner_sum_oracle(self):
        # x = 0 on the golden-ratio series: -2 sum_k e^{-0.1k}/(k(1-e^{-0.1k}))
        t = 0.1
        oracle = -2.0 * sum(math.exp(-t * k) / (k * -math.expm1(-t * k))
                            for k in range(1, 400))
        assert log_summand(RAM, 0.0, t) == pytest.approx(oracle, rel=1e-13)

    def test_exp_consistency_with_symbols(self):
        # the m-th logged term equals the value built from qpoch_inf directly
        t, m = 0.1, 7
        direct = (-(0.5 * m * m + 0.5 * m) * t
                  + 2.0 * qpoch_inf(math.exp(-(m + 1) * t), math.exp(-t)))
        assert log_summand(RAM, float(m), t) == pytest.approx(direct, rel=1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.0, 1.0, 9.62, 113.0])
        vec = log_summand(RAM, xs, 0.05)
        for x, v in zip(xs, vec):
            assert v == pytest.approx(log_summand(RAM, float(x), 0.05), rel=1e-15)

    def test_t_range(self):
        with pytest.raises(DomainError):
            log_summand(RAM, 1.0, 0.5)

    def test_t_range_names_the_first_bad_t(self):
        ts = np.array([0.1, 0.7, math.nan, -1.0])
        with pytest.raises(DomainError, match=r"must lie in \(0, 0.5\), got 0.7$"):
            log_summand_deriv(RAM, (0, 1), np.ones(4), ts)
        with pytest.raises(DomainError, match=r"got nan$"):
            log_summand(RAM, np.ones(2), np.array([0.1, math.nan]))

    @settings(max_examples=25, deadline=None)
    @given(terms=st.lists(st.tuples(st.sampled_from([1.0, 2.0, 4.0]) | st.floats(0.5, 4.0),
                                    st.floats(0.5, 2.0), st.floats(0.3, 4.0),
                                    st.floats(0.25, 2.0) | st.floats(-2.0, -0.25)),
                          min_size=1, max_size=3),
           B=st.floats(0.2, 2.0), t=st.floats(1e-4, 1e-2), u0=st.floats(2.0, 40.0),
           extra=st.integers(1, 1 << 14))
    def test_slices_and_skips_keep_bits(self, terms, B, t, u0, extra):
        # a flat tail (A = v = 0) in one call of more than 2^14 points from u0
        # on, where far terms add nothing: sampled points, the ends and both
        # sides of 2^14 among them, keep the bits of one-point calls at their t
        spec = SeriesSpec.make(0.0, B, 0.0, terms)
        m0 = math.floor(u0 / t)
        x = np.arange(m0, m0 + (1 << 14) + extra, dtype=float)
        got = log_summand(spec, x, t)
        for i in {*np.linspace(0, len(x) - 1, 9).astype(int).tolist(), (1 << 14) - 1, 1 << 14}:
            assert got[i] == log_summand(spec, x[i], t), i

    @pytest.mark.parametrize("x", [math.inf, [1.0, 2.0, math.nan]])
    def test_non_finite_x_is_refused(self, x):
        # these used to return nan
        for call in (lambda: log_summand(RAM, x, 0.1),
                     lambda: log_summand_deriv(RAM, (0, 1, 2), np.atleast_1d(x), 0.1)):
            start = time.perf_counter()
            with pytest.raises(DomainError, match="finite x >= 0"):
                call()
            assert time.perf_counter() - start < 1.0

    def test_nan_x_does_not_hang(self):
        # a lone nan x used to cut the k-sum at a negative k and loop for
        # ever; a child process with a deadline fails instead of hanging
        code = ("import math; from qasym.errors import DomainError; "
                "from qasym.presets import get_preset; "
                "from qasym.qseries import log_summand, log_summand_deriv\n"
                "s = get_preset('ramanujan').series\n"
                "for call in (lambda: log_summand(s, math.nan, 0.1),\n"
                "             lambda: log_summand_deriv(s, (0, 1, 2), [math.nan], 0.1)):\n"
                "    try: call()\n"
                "    except DomainError: continue\n"
                "    raise SystemExit(1)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        done = subprocess.run([sys.executable, "-c", code],
                              env=env, timeout=30, capture_output=True)
        assert done.returncode == 0, done.stderr

    def test_inner_sum_cap_raises_promptly(self, capsys):
        # order 0 needs no k-sum near x = 0 and the derivative rows none at
        # all, so only the exact prefactor (the direct product's reach) keeps
        # a cap; past it, it raises before allocating, and eval names it
        x = np.array([3.0, 250.0, 0.0, 1.0, 0.0])
        assert np.all(np.isfinite(log_summand(RAM, x, 4e-6)))
        for call, match in ((lambda: log_summand_deriv(RAM, 1, x, 4e-6), None),
                            (lambda: prefactor_exact((QuadTerm(1, 1, 1, 0, 2),), 1e-6),
                             "exact prefactor.*factors")):
            tracemalloc.start()
            start = time.perf_counter()
            try:
                if match:
                    with pytest.raises(ConvergenceError, match=match):
                        call()
                else:
                    assert np.all(np.isfinite(call()))
                elapsed = time.perf_counter() - start
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert elapsed < 1.0
            assert peak < 1 << 20
        assert main(["eval", "--preset", "ramanujan", "--t", "0.000001"]) == 3
        assert "exact prefactor" in capsys.readouterr().err


def _closed(term, x, t, orders):
    # the closed form's rows s^r K^(r)(w) at one symbol's points x, with
    # w = (alpha x + gamma) t and t one float or one per point
    tx = np.broadcast_to(t, np.shape(x))
    return sf.kernel_rows((term.alpha * x + term.gamma) * t, term.beta * tx, term.alpha * tx,
                           np.full(np.shape(x), term.alpha / term.beta), orders)


def _kernel_or_closed(term, x, t, orders):
    # order 0 alone from the k-sum, as log_summand takes it; else the closed form
    return qs._kernel(term, x, t)[None] if orders == (0,) else _closed(term, x, t, orders)


def _kernel_whole_block(term, x, t, n):
    # every point summed to the cut-off of the smallest w in the call
    w = (term.alpha * x + term.gamma) * t
    k = np.arange(1, int(45.0 / w.min()) + 11, dtype=float)
    denom = -np.expm1(-k * term.beta * t)
    if n == 0:
        return (1.0 / (k * denom)) @ np.exp(-np.outer(k, w))
    logcoef = n * np.log(k * term.alpha * t) - np.log(k) - np.log(denom)
    return (-1.0) ** n * np.exp(logcoef[:, None] - np.outer(k, w)).sum(axis=0)


class TestKernel:
    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_matches_whole_block_truncation(self, n):
        rng = np.random.default_rng(20 + n)
        for _ in range(25):
            term = qs.PochTerm(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.5),
                               rng.uniform(0.2, 3.0), 1.0)
            t = float(np.exp(rng.uniform(np.log(5e-3), np.log(0.3))))
            x = rng.uniform(0.01, 40.0 / t, 12)
            if n == 0:
                x[[4, 9]] = 0.0
            x = rng.permutation(np.r_[x, x[:4]])  # unsorted, with duplicates
            got = qs._kernel(term, x, t) if n == 0 else _closed(term, x, t, (n,))[0]
            want = _kernel_whole_block(term, x, t, n)
            assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))

    def test_sorted_and_shuffled_agree(self):
        term = RAM.terms[0]
        x = np.linspace(0.0, 3000.0, 97)
        perm = np.random.default_rng(5).permutation(len(x))
        asc = qs._kernel(term, x, 1e-3)
        assert np.array_equal(qs._kernel(term, x[perm], 1e-3), asc[perm])


    def test_multiple_orders_match_whole_block(self):
        rng = np.random.default_rng(31)
        orders = (0, 1, 3, 7)
        for _ in range(25):
            term = qs.PochTerm(rng.uniform(0.3, 3.0), rng.uniform(0.2, 2.5),
                               rng.uniform(0.2, 3.0), 1.0)
            t = float(np.exp(rng.uniform(np.log(5e-3), np.log(0.3))))
            x = rng.uniform(0.01, 40.0 / t, 12)
            x = rng.permutation(np.r_[x, x[:4]])  # unsorted, with duplicates
            got = _closed(term, x, t, orders)
            assert got.shape == (len(orders), len(x))
            for row, n in zip(got, orders):
                want = _kernel_whole_block(term, x, t, n)
                assert np.all(np.abs(row - want) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize("name", ["ramanujan", "f0"])
    def test_all_orders_finite_at_small_t(self, name):
        p = get_preset(name)
        u = analyse(p.series, p.prefactor).peaks[0].u
        t = 1e-4
        d = log_summand_deriv(p.series, tuple(range(1, 65)), u / t, t)
        assert d.shape == (64,)
        assert np.all(np.isfinite(d))

    def test_order_axis_counts_in_chunk_budget(self):
        term = RAM.terms[0]
        t = 1e-3
        x = np.linspace(0.0, 3.0 / t, 4096)
        orders = tuple(range(1, 41))
        # one unchunked order-by-power-by-point block of the closed form's
        # coefficients, float64
        assert 8 * len(orders) * (max(orders) + 2 * sf._EM_J) * len(x) > 64 << 20
        tracemalloc.start()
        try:
            got = _closed(term, x, t, orders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(np.isfinite(got))
        assert peak < 32 << 20

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [1e-3, 1e-4])
    def test_order_zero_bits_independent_of_order_count(self, t):
        # x = 0, where the closed form peels the most factors: order 0 has
        # the bits of the int form next to any number of other orders, and
        # stays near log_summand's k-sum; the orders past the float range at
        # t = 1e-4 are inf without an overflow warning
        want = log_summand_deriv(RAM, 0, 0.0, t)
        for orders in (tuple(range(65)), tuple(range(13)), (0, 1)):
            assert log_summand_deriv(RAM, orders, 0.0, t)[0] == want
        _assert_order_zero_near_log_summand(RAM, 0.0, t)


@st.composite
def wide_calls(draw):
    """(term, x, t): 24-200 points whose w = (alpha x + gamma) t span 0.1 to
    45, in random order, at one t or at one t per point."""
    term = qs.PochTerm(draw(st.floats(0.3, 3.0)), draw(st.floats(0.2, 2.5)),
                       draw(st.floats(0.2, 3.0)), 1.0)
    t = draw(st.floats(1e-3, 0.3))
    n = draw(st.integers(24, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    w = rng.permutation(np.r_[0.1, 45.0, np.exp(rng.uniform(math.log(0.1),
                                                             math.log(45.0), n - 2))])
    if draw(st.booleans()):
        t = t * np.exp(rng.uniform(-1.0, 0.0, n))       # t/e .. t, one per point
    # x >= 0 needs w >= gamma t; such points move to w = gamma t
    x = np.maximum(w / t - term.gamma, 0.0) / term.alpha
    return term, x, t


class TestKernelBanding:
    """The k-sum's chunks are banded by cut, and the closed form's rows go in
    chunks of points; each point keeps its bits."""

    @settings(max_examples=30, deadline=None)
    @given(call=wide_calls(), orders=st.sampled_from([(0,), (0, 1, 2, 3, 4)]))
    def test_each_point_has_its_bits_alone(self, call, orders):
        term, x, t = call
        per = isinstance(t, np.ndarray)
        got = _kernel_or_closed(term, x, t, orders)
        for j in range(len(x)):
            alone = _kernel_or_closed(term, x[j:j + 1], t[j:j + 1] if per else t, orders)
            assert np.array_equal(got[:, j], alone[:, 0]), (orders, x[j])

    @settings(max_examples=30, deadline=None)
    @given(call=wide_calls(), orders=st.sampled_from([(0,), (0, 1, 2, 3, 4)]))
    def test_one_t_has_the_bits_of_t_per_point(self, call, orders):
        # one coefficient formula: built once per call at one t, per chunk
        # with t per point
        term, x, t = call
        assume(not isinstance(t, np.ndarray))
        assert np.array_equal(_kernel_or_closed(term, x, t, orders),
                              _kernel_or_closed(term, x, np.full(len(x), t), orders))

    def test_bands_skip_masked_terms(self, monkeypatch):
        # a 256-point sum block at t = 0.1 whose w runs from 0.17 to 44
        # keeps 1,753 terms; one rectangle to the first point's cut built
        # 65,473 (a band holds at most twice its kept terms, or is small)
        term = qs.PochTerm(1.72, 1.3, 1.7, 1.0)
        x = np.arange(256.0)
        t = 0.1
        kept = int(np.sum((45.0 / ((term.alpha * x + term.gamma) * t)).astype(int) + 1))
        built = []
        outer = np.outer
        monkeypatch.setattr(qs.np, "outer", lambda a, b: built.append(
            np.size(a) * np.size(b)) or outer(a, b))
        qs._kernel(term, x, t)
        monkeypatch.undo()
        assert sum(built) <= 2 * kept + 2 * qs._BAND_ELEMS < 65_473


class TestKernelBands:
    """Order 0 below w = _W_A in closed form, above it a short k-sum;
    derivative orders from the differentiated closed form."""

    @pytest.mark.parametrize("t", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_closed_form_exact_at_zero(self, t):
        # alpha = beta = gamma = 1, x = 0: K = -log (q;q)_inf
        #   = pi^2/(6t) - log(2pi/t)/2 - t/24 + O(e^(-4pi^2/t)), here in
        # 40-digit decimals
        with localcontext() as ctx:
            ctx.prec = 40
            pi = Decimal("3.1415926535897932384626433832795028841972")
            T = Decimal(t)
            exact = float(pi * pi / (6 * T) - (2 * pi / T).ln() / 2 - T / 24)
        got = qs._kernel(qs.PochTerm(1.0, 1.0, 1.0, 1.0), np.array([0.0]), t)[0]
        assert abs(got - exact) <= 2 * math.ulp(exact)

    def test_levels_in_v_match_polylogs(self):
        # in v = 1/expm1(w), order r's level 0 of _deriv_tables is
        # Li_(1-r)(e^-w)/2, level j = 1.._EM_J is B_2j/(2j)! Li_(2-2j-r)(e^-w)
        # and the last is Li_(2-r)(e^-w), each zero where its Li has order > 0
        # (Li_1 and Li_2 are taken apart); order 0's are the levels of K
        orders = (0, 1, 2, 3, 6, 20)
        weights = [0.5] + [float(Fraction(*bernoulli_pair(2 * j))) / math.factorial(2 * j)
                           for j in range(1, sf._EM_J + 1)] + [1.0]
        for rows, _, levels, *_ in sf._deriv_tables(orders)[2:]:
            rs = orders[rows]
            levels = levels.reshape(len(levels), -1, len(rs))
            for w in (0.01, 0.3, 2.0, 9.0):
                v = 1.0 / math.expm1(w)
                for i, r in enumerate(rs):
                    for j, b in enumerate(weights):
                        got = sum(c * v ** m for m, c in enumerate(levels[j, :, i], 1))
                        s = 2 - r if j == sf._EM_J + 1 else 1 - r if j == 0 else 2 - 2 * j - r
                        want = b * polylog(s, w) if s <= 0 else 0.0
                        assert got == pytest.approx(want, rel=1e-13), (r, j, w)

    @settings(max_examples=150, deadline=None)
    @given(w=st.floats(2e-3, 0.6), ratio=st.floats(0.0, 32.0),
           beta=st.floats(0.2, 3.0))
    @example(w=qs._W_A, ratio=2.0, beta=1.0)                 # at w_a
    @example(w=math.nextafter(qs._W_A, 0.0), ratio=2.0, beta=1.0)
    @example(w=0.05, ratio=23.0, beta=1.0)                   # N = 7 exactly
    @example(w=0.05, ratio=math.nextafter(23.0, 24.0), beta=1.0)
    @example(w=0.05, ratio=30.0, beta=1.0)                   # N = 0
    @example(w=0.05, ratio=math.nextafter(30.0, 0.0), beta=1.0)
    @example(w=0.5, ratio=1.25, beta=1.0)                    # beta t = 0.4 > 0.37
    def test_closed_form_matches_ksum(self, w, ratio, beta):
        # w/(beta t) = ratio sets row 0's peel count N = ceil(30 - ratio),
        # 0..30; the closed form holds at every w, and _kernel uses it below w_a
        t = w / (max(ratio, 1e-3) * beta)
        assume(t < 0.45)
        term = qs.PochTerm(1.0, beta, w / t, 1.0)
        want = kernel_ksum(term, 0.0, t)
        bt = np.array([beta * t])
        closed = sf.kernel_rows(np.array([term.gamma * t]), bt, bt, np.ones(1), (0,))[0, 0]
        got = qs._kernel(term, np.array([0.0]), t)[0]
        assert abs(closed - want) <= 1e-13 * want
        assert abs(got - want) <= 1e-13 * want

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0.3, 3.0), beta=st.floats(0.2, 2.5), t=st.floats(1e-5, 0.45),
           share=st.floats(0.01, 0.9), per=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_closed_form_below_w_a(self, alpha, beta, t, share, per, seed):
        # below w_a, _kernel's K is kernel_rows' row 0 at s = bt, ab = 1, bit
        # for bit, at one t and at one t (t/e .. t) per point
        rng = np.random.default_rng(seed)
        term = qs.PochTerm(alpha, beta, share * qs._W_A / t, 1.0)
        if per:
            t = t * np.exp(rng.uniform(-1.0, 0.0, 24))
        tx = np.broadcast_to(t, 24)
        x = (rng.uniform(term.gamma * tx, 0.099) / tx - term.gamma) / alpha
        w = (alpha * x + term.gamma) * t
        assert np.all(w < qs._W_A)
        bt = beta * tx
        want = sf.kernel_rows(w, bt, bt, np.ones(len(w)), (0,))[0]
        assert np.array_equal(qs._kernel(term, x, t), want)

    def test_derivative_cut_matches_fsum(self):
        # ramanujan's peak at t = 1e-3 (w = 0.963), where a k-sum cut at
        # 45/w + 10 terms missed 9e-10 of order 18 and 0.72 of order 60:
        # the closed form, each order alone and all 64 together, against
        # 5000 terms added exactly
        term = RAM.terms[0]
        t = 1e-3
        x = analyse(RAM).peaks[0].u / t
        together = _closed(term, np.array([x]), t, tuple(range(1, 65)))[:, 0]
        for n in range(1, 65):
            want = kernel_deriv_fsum(term, n, x, t)
            alone = _closed(term, np.array([x]), t, (n,))[0, 0]
            assert alone == together[n - 1]
            assert abs(alone - want) <= 1e-12 * abs(want)

    def test_long_derivative_sum_in_chunks(self):
        # at x = 0, t = 1e-4 a k-sum of order 1 needs 450,001 terms; the
        # closed form peels 29 factors and takes the rest in O(1)
        term = RAM.terms[0]
        got = _closed(term, np.array([0.0]), 1e-4, (1,))[0, 0]
        want = kernel_deriv_fsum(term, 1, 0.0, 1e-4, kmax=460_000)
        assert abs(got - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("t", [1e-3, 1e-4])
    def test_values_independent_of_call_mates(self, t):
        # phi-minus's alpha = 4 symbol leaves the closed form at m = 24 for
        # t = 1e-3 and at m = 249 for t = 1e-4, so slices mix both bands
        spec = get_preset("phi-minus").series
        m = np.arange(256.0)
        whole = log_summand(spec, m, t)
        for part in (slice(0, 64), slice(200, 256), slice(255, 256), slice(0, 1)):
            assert np.array_equal(log_summand(spec, m[part], t), whole[part])


class TestKernelBounds:
    @settings(max_examples=150, deadline=None)
    @given(alpha=st.floats(0.2, 3.0), beta=st.floats(0.2, 3.0),
           gamma=st.floats(0.2, 3.0), s=st.floats(0.0, 40.0),
           t=st.floats(1e-3, 0.4))
    @example(alpha=1.0, beta=1.0, gamma=1.0, s=0.0, t=1e-3)    # x = 0
    @example(alpha=2.0, beta=0.5, gamma=1.0, s=3.0, t=0.01)    # w > 5
    def test_sandwich_holds(self, alpha, beta, gamma, s, t):
        # lo <= K(w) <= hi at x = s/t, up to the k-sum's own rounding
        term = qs.PochTerm(alpha, beta, gamma, 1.0)
        x = s / t
        k = qs._kernel(term, np.array([x]), t)[0]
        lo, hi = qs.kernel_bounds(term, (alpha * x + gamma) * t, t)
        assert lo - 1e-12 * k <= k <= hi + 1e-12 * k

    def test_bounds_at_infinity_vanish(self):
        assert qs.kernel_bounds(RAM.terms[0], math.inf, 0.01) == (0.0, 0.0)

    @pytest.mark.parametrize("t", [0.1, 1e-3, 1e-4])
    @pytest.mark.parametrize("name", sorted(PRESETS) + ["s-positive"])
    def test_ladder_pieces_are_closed(self, name, t):
        # a piece's sup covers both its ends, so its mass bounds its terms
        # and its integral over x alike: 9 points on each piece up to 4x
        # the probe, both edges among them
        spec = (SeriesSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 1)]) if name == "s-positive"
                else get_preset(name).series)
        lad = qs.mass_ladder(spec, (t,))[0]
        n = int(np.searchsorted(lad.edges, 4 * lad.probe + 8))
        a, b = lad.edges[:n].astype(float), lad.edges[1:n + 1].astype(float)
        x = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 9)
        g = log_summand(spec, x.ravel(), t).reshape(x.shape).max(axis=1)
        assert np.all(g <= lad.mass[:n] - np.log(b - a))

    @pytest.mark.parametrize("t", [0.1, 1e-3, 1e-4])
    @pytest.mark.parametrize("name", sorted(PRESETS) + ["s-positive"])
    def test_sup_bounds_log_summand_on_ladder(self, name, t):
        # 200 points on each of the top 19 rungs [u_hi 2^-(j+1), u_hi 2^-j]
        # of the quadrature's ladder toward u = 0; "s-positive" has only an
        # S > 0 symbol, so its bound must be taken at the lower end
        spec = (SeriesSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 1)]) if name == "s-positive"
                else get_preset(name).series)
        u_hi = max(search_upper_bound(spec), 1.0)
        rungs = [(u_hi * 2.0 ** -(j + 1), u_hi * 2.0 ** -j) for j in range(19)]
        u = np.concatenate([np.linspace(a, b, 200) for a, b in rungs])
        g = log_summand(spec, u / t, t).reshape(len(rungs), 200)
        sup = [qs.log_summand_sup(spec, a, b, t) for a, b in rungs]
        assert np.all(np.array(sup) >= g.max(axis=1))
        # on arrays of edges, the bits of the scalar form
        ua, ub = np.array(rungs).T
        assert qs.log_summand_sup(spec, ua, ub, t).tolist() == sup
        tails = [qs.log_summand_sup(spec, a, math.inf, t) for a in ua]
        assert qs.log_summand_sup(spec, ua, math.inf, t).tolist() == tails

    @settings(max_examples=300, deadline=None)
    @given(A=st.one_of(st.just(0.0), st.floats(0.01, 2.0)),
           B=st.floats(-1.0, 1.0, allow_subnormal=False),
           v=st.floats(-1.0, 1.0, allow_subnormal=False), t=st.floats(1e-4, 0.4),
           ua=st.floats(0.0, 3.0, allow_subnormal=False), du=st.floats(0.0, 1.0))
    @example(A=0.01, B=4.737309156023287e-12, v=1e-4, t=0.25, ua=0.01, du=0.0)
    @example(A=0.25, B=-8.64333008747402e-161, v=0.0, t=0.015488302183140295,
             ua=0.0, du=1.0)                   # a maximum of 1.2e-322: padding underflows
    def test_sup_covers_rounding_of_polynomial(self, A, B, v, t, ua, du):
        # no symbol: the bound is the exact maximum, so only its padding
        # keeps it above log_summand's differently rounded value, also
        # where u v / t and A u^2 / t nearly cancel
        if A == 0 and not v < 0:
            v = -0.5
        spec = SeriesSpec(A, B, v)
        ub = ua + du
        u = np.linspace(ua, ub, 50)
        if A > 0:
            u = np.r_[u, min(max((v - B * t) / (2 * A), ua), ub)]
        assert qs.log_summand_sup(spec, ua, ub, t) >= log_summand(spec, u / t, t).max()

def _stencil(spec, n, x, t, h):
    f = lambda y: log_summand(spec, y, t)
    if n == 1:
        return (f(x + h) - f(x - h)) / (2 * h)
    if n == 2:
        return (f(x + h) - 2 * f(x) + f(x - h)) / h ** 2
    return (f(x + 2 * h) - 2 * f(x + h) + 2 * f(x - h) - f(x - 2 * h)) / (2 * h ** 3)


def _stencil_rich(spec, n, x, t, h):
    # Richardson step removes the O(h^2) term of the plain stencils
    return (4 * _stencil(spec, n, x, t, h / 2) - _stencil(spec, n, x, t, h)) / 3


@st.composite
def oracle_points(draw):
    """(spec, x, t): 1-3 terms of either sign with A > 0, t in [0.02, 0.3]
    and u = x t in [0, 20], each term's w = (alpha x + gamma) t at least
    0.05, where the oracle's k-sums stay short."""
    terms = draw(st.lists(st.tuples(
        st.floats(0.2, 4.0), st.floats(0.2, 3.0), st.floats(0.3, 2.0),
        st.floats(0.25, 5.0) | st.floats(-5.0, -0.25)), min_size=1, max_size=3))
    spec = SeriesSpec.make(draw(st.floats(0.01, 2.0)), draw(st.floats(-1.0, 1.0)),
                           draw(st.floats(-3.0, 3.0)), terms)
    t = draw(st.floats(0.02, 0.3))
    x = draw(st.floats(0.0, 20.0)) / t
    assume(all((p.alpha * x + p.gamma) * t >= 0.05 for p in spec.terms))
    return spec, x, t


def _assert_order_zero_near_log_summand(spec, x, t):
    # log_summand's k-sum and log_summand_deriv's order 0 evaluate one number
    # independently; the oracle holds each within (16 + 2w) ulp of its largest
    # part (TestLogSummandDeriv, TestClosedRows), so they agree within twice it
    x = np.atleast_1d(np.asarray(x, dtype=float))
    parts = [qs._poly_deriv(spec, 0, x, t)] + [p.S * qs._kernel(p, x, t) for p in spec.terms]
    w = np.max([(p.alpha * x + p.gamma) * t for p in spec.terms], axis=0, initial=0.0)
    err = np.abs(log_summand(spec, x, t) - log_summand_deriv(spec, 0, x, t))
    assert np.all(err <= 2.0 * (16.0 + 2.0 * w) * np.spacing(np.max(np.abs(parts), axis=0)))


class TestLogSummandDeriv:
    def test_order_zero_forms_agree(self):
        # order 0 has one set of bits in the int and the tuple form, also
        # next to another order, and stays near log_summand's k-sum
        f0 = SeriesSpec.make(1.0, 0.0, 0.0, [(2, 1, 1, -1), (1, 1, 1, 1)])
        rng = np.random.default_rng(41)
        x = rng.permutation(np.r_[rng.uniform(0.0, 60.0, 12), 0.0, 0.0,
                                  9.62, 9.62])  # unsorted, duplicates, zeros
        t = 0.05
        for spec in (RAM, f0, SeriesSpec(1.0, 2.0, -0.5, ())):
            want = log_summand_deriv(spec, 0, x, t)
            assert np.array_equal(log_summand_deriv(spec, (0,), x, t)[0], want)
            assert np.array_equal(log_summand_deriv(spec, (2, 0), x, t)[1], want)
            assert log_summand_deriv(spec, 0, 0.0, t) == want[x == 0.0][0]
            _assert_order_zero_near_log_summand(spec, x, t)

    @pytest.mark.parametrize("n", [-1, 65, 1.5, (0, 1.5), ()])
    def test_order_out_of_range(self, n):
        with pytest.raises(DomainError):
            log_summand_deriv(RAM, n, 1.0, 0.05)
        with pytest.raises(DomainError):
            log_summand_deriv(RAM, (0, n), 1.0, 0.05)

    def test_no_terms_high_order(self):
        spec = SeriesSpec(1.0, 0.0, 0.0, ())
        assert log_summand_deriv(spec, 3, 2.0, 0.1) == 0.0

    def test_first_derivative_fd(self):
        x, t = 9.62, 0.1
        fd = _stencil(RAM, 1, x, t, 1e-5)
        assert abs(log_summand_deriv(RAM, 1, x, t) - fd) <= 1e-7

    def test_stencils_orders_1_2_3(self):
        # steps scale with the local length x+1: derivatives steepen sharply
        # toward the lower endpoint
        t = 0.05
        coef = {1: 1e-3, 2: 2e-3, 3: 4e-3}
        for n in (1, 2, 3):
            for x in (1.0, 10.0, 30.0, 60.0):
                fd = _stencil_rich(RAM, n, x, t, coef[n] * (x + 1.0))
                an = log_summand_deriv(RAM, n, x, t)
                assert abs(an - fd) <= 1e-6 * max(abs(an), abs(fd))

    def test_scaling_to_phase_curvature(self):
        # t^-1 * second derivative at u/t approaches the phase curvature
        # H''(u) = -1 - 2 e^{-u}/(1-e^{-u}) with O(t) error
        u = 0.9624236501192069
        h2 = -1.0 - 2.0 * math.exp(-u) / (1.0 - math.exp(-u))
        errs = [abs(log_summand_deriv(RAM, 2, u / t, t) / t - h2)
                for t in (0.1, 0.05, 0.025)]
        assert errs[0] > errs[1] > errs[2]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(1.5 < r < 2.5 for r in ratios)

    @settings(max_examples=50, deadline=None)
    @given(point=oracle_points())
    @example(point=(RAM, 9.62, 0.1))
    @example(point=(SeriesSpec.make(1.0, 0.0, 0.0, [(2, 1, 1, -1), (1, 1, 1, 1)]), 1.5, 0.05))
    def test_rows_against_the_oracle(self, point):
        # rows 0..4 (and log_summand) each within (16 + 2w) ulp of its largest
        # part, w the largest (alpha x + gamma) t: a k-sum term is e^L with
        # |L| about w at most of the terms that matter, and L rounded by half
        # an ulp moves e^L by |L| 2^-53 of itself, up to |L| ulp; the 16 is
        # for the sum of the terms and of the parts, and the closed form
        spec, x, t = point
        orders = (0, 1, 2, 3, 4)
        parts = log_summand_mp(spec, orders, x, t)
        got = [log_summand(spec, x, t), *log_summand_deriv(spec, orders, x, t)]
        w = max(((p.alpha * x + p.gamma) * t for p in spec.terms), default=0.0)
        with mp.workdps(40):
            for n, value in zip((0, *orders), got):
                row = parts[n]
                largest = max(abs(float(part)) for part in row)
                err = float(abs(mp.mpf(float(value)) - mp.fsum(row)))
                assert err <= (16.0 + 2.0 * w) * math.ulp(largest), (n, err / math.ulp(largest))


def _peak_or_one(spec):
    # the first interior maximum of the leading phase, or u = 1 without one
    peaks = analyse(spec).peaks
    return peaks[0].u if peaks else 1.0


@st.composite
def peak_specs(draw):
    """(spec, ts, us): A > 0 and 1-3 symbols, 1-4 values of t in [1e-4,
    0.45] and as many u = x t in [0, 3]."""
    terms = draw(st.lists(st.tuples(
        st.floats(0.3, 3.0), st.floats(0.3, 2.5), st.floats(0.3, 3.0),
        st.floats(0.25, 3.0) | st.floats(-3.0, -0.25)), min_size=1, max_size=3))
    spec = SeriesSpec.make(draw(st.floats(0.05, 1.5)), draw(st.floats(-0.5, 1.0)),
                           draw(st.floats(-0.5, 0.5)), terms)
    n = draw(st.integers(1, 4))
    ts = draw(st.lists(st.floats(1e-4, 0.45), min_size=n, max_size=n))
    us = draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n))
    return spec, np.array(ts), np.array(us)


@st.composite
def closed_points(draw):
    """(term, x, t): one symbol, t in [1e-5, 0.45] and w = (alpha x + gamma) t
    in [0.05, 40], half of the draws at w below 60 beta t, where the closed
    form peels factors before its levels."""
    alpha, beta = draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0))
    t = math.exp(draw(st.floats(math.log(1e-5), math.log(0.45))))
    w = draw(st.floats(0.3, 60.0).map(lambda r: r * beta * t) | st.floats(0.05, 40.0))
    w = min(max(w, 0.0502), 40.0)       # the oracle's k-sums need w >= 0.05
    gamma = draw(st.floats(0.05, 1.0)) * w / t
    return qs.PochTerm(alpha, beta, gamma, 1.0), (w / t - gamma) / alpha, t


class TestClosedRows:
    """The differentiated closed form ``specfun.kernel_rows``, whose rows the asym
    route reads through log_summand_deriv."""

    ORDERS = tuple(range(21))

    @settings(max_examples=30, deadline=None)
    @given(point=closed_points())
    @example(point=(RAM.terms[0], 9.62, 0.1))
    @example(point=(qs.PochTerm(1.0, 3.0, 1.0, 1.0), 0.0, 0.45))     # the peel past bt = 0.37
    def test_rows_against_the_oracle(self, point):
        # rows 0..4 within (16 + 2w) ulp of the symbol's part, as the k-sum's
        # in TestLogSummandDeriv; past order 4 that grows as (r + 1)/5: K^(r)
        # ~ (r-1)!/w^r carries r + 1 times the rounding of w and of v =
        # 1/expm1(w), as a k-sum term e^L carries |L| times that of L
        term, x, t = point
        got = term.S * _closed(term, np.array([x]), t, self.ORDERS)[:, 0]
        parts = log_summand_mp(SeriesSpec(0.0, 1.0, 0.0, (term,)), self.ORDERS, x, t)
        w = (term.alpha * x + term.gamma) * t
        ratios = []
        with mp.workdps(40):
            for r, value in zip(self.ORDERS, got):
                err = float(abs(mp.mpf(float(value)) - parts[r][1]))
                ratios.append(err / math.ulp(abs(float(parts[r][1])))
                              / ((16.0 + 2.0 * w) * max(1.0, (r + 1) / 5.0)))
        worst = int(np.argmax(ratios))
        target(ratios[worst])       # steers the search to the worst draw
        assert ratios[worst] <= 1.0, (worst, ratios[worst], w, t)

    @settings(max_examples=40, deadline=None)
    @given(drawn=peak_specs(), orders=st.lists(st.integers(0, 20), min_size=1, max_size=5,
                                                unique=True).map(tuple))
    def test_bits_independent_of_mates_and_orders(self, drawn, orders):
        # each point's row r has the bits of its call alone and of any
        # other set of orders, peel branch (u near 0 or t large) included
        spec, ts, us = drawn
        got = log_summand_deriv(spec, orders, us / ts, ts)
        wide = log_summand_deriv(spec, self.ORDERS, us / ts, ts)
        assert np.array_equal(got, wide[list(orders)])
        for j in range(len(ts)):
            alone = log_summand_deriv(spec, orders, float(us[j] / ts[j]), float(ts[j]))
            assert np.array_equal(got[:, j], alone), (orders, us[j], ts[j])


class TestPerPointT:
    """log_summand_deriv, and log_summand for order 0 alone, with one t per
    point: every point has the bits of a call at its own t alone, whatever
    its call-mates."""

    ORDERS = ((0,), (0, 1), (2, 0, 5), (1, 2), tuple(range(13)))

    @staticmethod
    def _check(spec, orders, x, t):
        got = log_summand_deriv(spec, orders, x, t)
        assert got.shape == (len(orders), len(x))
        for j in range(len(x)):
            alone = log_summand_deriv(spec, orders, float(x[j]), float(t[j]))
            assert np.array_equal(got[:, j], alone), (orders, x[j], t[j])
        if orders == (0,):
            got = log_summand(spec, x, t)
            for j in range(len(x)):
                assert got[j] == log_summand(spec, float(x[j]), float(t[j])), (x[j], t[j])

    @pytest.mark.parametrize("name", [*PRESETS, "two-peak"])
    def test_matches_calls_at_each_t(self, name):
        # at the peak x = u/t, at u = 0.01 (w < 0.1, where order 0 takes the
        # closed form at the point's own beta t) and at x = 0, on a shuffled
        # grid of t; the last points repeat a t next to a different x
        spec = (load_spec(str(DATA / "two_peak.json"))[0] if name == "two-peak"
                else get_preset(name).series)
        ts = np.geomspace(0.3, 1e-3, 7)
        x = np.r_[_peak_or_one(spec) / ts, 0.01 / ts, np.zeros(len(ts))]
        t = np.r_[ts, ts, ts]
        perm = np.random.default_rng(7).permutation(len(x))
        for orders in self.ORDERS:
            self._check(spec, orders, x[perm], t[perm])

    @settings(max_examples=40, deadline=None)
    @given(drawn=peak_specs(), orders=st.sampled_from(ORDERS[:4]))
    def test_random_specs(self, drawn, orders):
        spec, ts, us = drawn
        self._check(spec, orders, us / ts, ts)

    def test_inner_sum_cap_names_the_t(self):
        # at x = 0 a k-sum of order 1 needs 45/(gamma t) terms, past the old
        # cap at t = 4e-6; the closed form takes each point in O(1), with
        # the bits of a call at its t alone
        self._check(RAM, (1,), np.zeros(3), np.array([0.1, 4e-6, 0.01]))

    def test_t_shape_must_match_x(self):
        with pytest.raises(DomainError, match="shape"):
            log_summand_deriv(RAM, 1, np.ones(3), np.array([0.1, 0.2]))
        with pytest.raises(DomainError, match="got 0.5"):
            log_summand_deriv(RAM, 1, np.ones(2), np.array([0.1, 0.5]))


@st.composite
def ladder_grids(draw):
    """(spec, ts): 0-3 terms of either sign on each branch of the domain
    triple, at 2-4 t in [1e-3, 0.3]; with A = 0 and v < 0 a negative B can
    make the slope v/t - B positive at some t of the grid and not at others."""
    branch = draw(st.sampled_from(["A>0", "v<0", "flat"]))
    A = draw(st.floats(0.05, 2.0)) if branch == "A>0" else 0.0
    v = {"A>0": st.floats(-1.0, 1.0), "v<0": st.floats(-1.0, -0.001),
         "flat": st.just(0.0)}[branch]
    B = st.floats(0.05, 2.0) if branch == "flat" else st.floats(-3.0, 2.0)
    terms = draw(st.lists(st.tuples(
        st.floats(0.2, 3.0), st.floats(0.2, 3.0), st.floats(0.1, 3.0),
        st.sampled_from([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])), max_size=3))
    ts = draw(st.lists(st.floats(1e-3, 0.3), min_size=2, max_size=4, unique=True))
    return SeriesSpec.make(A, draw(B), draw(v), terms), ts


def _assert_grid_is_per_t(spec, ts):
    # every field of each ladder, bit for bit and of the same type; its
    # edges strictly ascending from 0 to ceil(U_END/t), the ladder's end
    grid = qs.mass_ladder(spec, ts)
    for t, lad in zip(ts, grid):
        e = lad.edges
        assert (e[0], e[-1]) == (0, math.ceil(qs.U_END / t)) and np.all(e[1:] > e[:-1]), t
        alone = qs.mass_ladder(spec, (t,))[0]
        for name in qs.MassLadder._fields:
            a, b = getattr(lad, name), getattr(alone, name)
            assert type(a) is type(b)
            assert np.asarray(a).dtype == np.asarray(b).dtype
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), t


class TestMassLadderMemo:
    @staticmethod
    def _spy_builds(monkeypatch) -> list:
        # the t of every ladder built: by the CLI's grid driver, which passes
        # them in, or by series_sum or integral, which build their own if not
        built = []
        build = qs.mass_ladder

        def spy(spec, ts):
            built.extend(ts)
            return build(spec, ts)
        for module in (cli, qs, quad):
            monkeypatch.setattr(module, "mass_ladder", spy)
        return built

    def test_verify_row_builds_one_ladder(self, monkeypatch, capsys):
        # the grid build makes every row's ladder once; series_sum and the
        # integral of each row are passed it
        built = self._spy_builds(monkeypatch)
        assert main(["verify", "--preset", "ramanujan", "--t", "0.05,0.01,0.001"]) == 0
        assert built == [0.05, 0.01, 0.001]

    @pytest.mark.parametrize("command", ["eval", "integral"])
    def test_exact_route_row_builds_one_ladder(self, command, monkeypatch, capsys):
        built = self._spy_builds(monkeypatch)
        assert main([command, "--preset", "ramanujan", "--t", "0.05,0.01,0.001"]) == 0
        assert built == [0.05, 0.01, 0.001]

    def test_fallback_builds_row_by_row(self, monkeypatch, capsys):
        # the grid build raises at 1e-30; then each row builds its own, and
        # the second row's raises with its label
        built = self._spy_builds(monkeypatch)
        assert main(["verify", "--preset", "euler", "--t", "0.01,1e-30"]) == 3
        assert built == [0.01, 1e-30, 0.01, 1e-30]
        assert capsys.readouterr().err.startswith(
            "numeric failure: row t=1.0000000000000001e-30: t=1e-30 is below")

    def test_arrays_are_read_only(self):
        lad = qs.mass_ladder(RAM, (0.05,))[0]
        for a in (lad.edges, lad.mass, lad.rest):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = a[1]

    @pytest.mark.parametrize("name", ["ramanujan", "phi-minus"])
    def test_cold_and_warm_cache_agree(self, name):
        # cold: each route builds its own ladder; warm: it is passed the
        # ladder of a grid built first
        spec = get_preset(name).series
        grid = (0.1, 0.05, 1e-3)
        for t, lad in zip(grid, qs.mass_ladder(spec, grid)):
            assert series_sum(spec, t, lad) == series_sum(spec, t)
            assert integral(spec, t, 1e-10, lad) == integral(spec, t)

    def test_terms_keep_no_state(self):
        spec = get_preset("ramanujan").series
        series_sum(spec, 0.01)
        integral(spec, 0.01)
        assert qs.PochTerm.__slots__ == ()
        assert not any(hasattr(p, "__dict__") for p in spec.terms)

    def test_threads_sharing_a_spec(self):
        # a spec holds no per-call state: callers in threads on one spec
        # instance, each at its own t, get the bits of a single thread
        spec = get_preset("ramanujan").series
        ts = (0.1, 0.05, 0.02, 0.01)
        want = {t: series_sum(get_preset("ramanujan").series, t) for t in ts}
        errors = []

        def work(t):
            try:
                for _ in range(50):
                    assert series_sum(spec, t) == want[t]
            except Exception as e:      # reported by the assertion below
                errors.append(e)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in ts * 2]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert errors == []

    def test_empty_grid(self):
        assert qs.mass_ladder(RAM, ()) == [] == qs.mass_ladder(RAM, [])

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_grid_build_is_per_t_on_presets(self, name):
        _assert_grid_is_per_t(get_preset(name).series, (0.2, 0.05, 0.01, 0.0081, 0.001))

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
    def test_grid_build_is_per_t_on_data_specs(self, path):
        _assert_grid_is_per_t(load_spec(str(path))[0], (0.1, 0.03, 0.01, 0.001))

    @settings(max_examples=60, deadline=None)
    @given(drawn=ladder_grids())
    @example(drawn=(V_NEGATIVE, [0.3, 0.05, 0.01]))     # slope v/t - B: +0.33, -0.5, -4.5
    @example(drawn=(EULER, [0.2, 0.002]))
    @example(drawn=(RAM, [0.25, 0.0011]))
    def test_grid_build_is_per_t_on_random_specs(self, drawn):
        _assert_grid_is_per_t(*drawn)

    def test_invocations_carry_no_work(self, monkeypatch, capsys):
        # a second, identical main call redoes all the work of the first
        counts = {"log_summand_sup": 0, "_kernel": 0}
        for name in counts:
            fn = getattr(qs, name)

            def spy(*args, fn=fn, name=name):
                counts[name] += 1
                return fn(*args)
            monkeypatch.setattr(qs, name, spy)
        for argv in (["verify", "--preset", "ramanujan", "--t", "0.05,0.01"],
                     ["eval", "--spec", str(DATA / "two_peak.json"), "--t", "0.05,0.01"],
                     ["integral", "--preset", "phi-minus", "--t", "0.01"]):
            seen = []
            for _ in range(2):
                before = dict(counts)
                main(argv)
                seen.append({k: counts[k] - before[k] for k in counts})
            assert seen[0] == seen[1] and min(seen[0].values()) > 0, argv


class TestSeriesSum:
    def test_euler_identity(self):
        for t in (0.1, 0.05):
            assert abs(math.exp(series_sum(EULER, t).log_value) - 1.0) <= 1e-12

    def test_euler_b2(self):
        spec = SeriesSpec.make(0.0, 2.0, 0.0, [(1, 1, 1, -1)])
        t = 0.05
        assert math.exp(series_sum(spec, t).log_value) == pytest.approx(
            1.0 - math.exp(-t), rel=1e-12)

    def test_direct_symbol_oracle(self):
        # independent route: H = (q;q)_inf^2 * sum q^(m(m+1)/2)/(q;q)_m^2
        t = 0.1
        q = math.exp(-t)
        logs = []
        for m in range(300):
            lp = qpoch_finite(q, q, m)
            logs.append(-(0.5 * m * m + 0.5 * m) * t - 2.0 * lp)
        mx = max(logs)
        oracle = (mx + math.log(sum(math.exp(v - mx) for v in logs))
                  + 2.0 * qpoch_inf(q, q))
        assert series_sum(RAM, t).log_value == pytest.approx(oracle, abs=1e-11)

    @staticmethod
    def _last_m(spec, t):
        # largest m at which series_sum evaluated a term
        seen = []

        def spy(s, x, tt):
            seen.append(float(np.max(x)))
            return log_summand(s, x, tt)

        with mock.patch.object(qs, "log_summand", spy):
            series_sum(spec, t)
        return round(max(seen))

    def _check_window(self, spec, t, logs):
        # series_sum against the log-space fsum of ``logs``, the terms from
        # m = 0 on: the values are log-space sums mx + log(sum), so the
        # ulps are those of the larger operand.  What the window [m_lo, m_hi)
        # leaves out at both ends is below 1e-18 of the total and below its
        # certificate, and no term past m_hi is evaluated
        mx = float(logs.max())
        brute = mx + math.log(math.fsum(np.exp(logs - mx)))
        r = series_sum(spec, t)
        assert abs(r.log_value - brute) <= 4 * math.ulp(max(abs(brute), abs(mx)))
        out = math.fsum(np.exp(np.r_[logs[:r.m_lo], logs[r.m_hi:]] - brute))
        assert out <= 1e-18
        assert r.left_out_log <= r.log_value + qs.LN_EPS
        assert out == 0.0 or math.log(out) + brute <= r.left_out_log
        assert self._last_m(spec, t) < r.m_hi
        return r, brute

    @pytest.mark.parametrize("name", ["ramanujan", "f0", "phi-minus", "euler",
                                      "euler-b2", "two-peak", "v-negative"])
    def test_sums_to_tail_bound(self, name):
        # the certified window agrees with a brute-force sum out to
        # 2 + 10|log t|/min alpha and on until a whole block lies e^-70
        # below the largest term, and at t = 1e-4 a direct window stops
        # short of that bound and no later than the sum over [0, stop) it
        # replaced, whose stops WHOLE_RANGE_STOP lists; a strided one (the
        # flat tails phi-minus, euler and euler-b2) ends where its own
        # samples certify (test_evaluations_are_few).  two-peak has a larger
        # maximum at u = 7.1 past one at u = 0.58, and stays exact to the
        # bit; v-negative is on the branch A = 0, v < 0
        if name == "two-peak":
            spec = load_spec(str(DATA / "two_peak.json"))[0]
        elif name == "v-negative":
            spec = V_NEGATIVE
        else:
            spec = get_preset(name).series
        old_stop = lambda t: 2.0 + 10.0 * abs(math.log(t)) / min(
            p.alpha for p in spec.terms)
        for t in (0.01, 2e-3, 1e-3):
            blocks = []
            while (256 * len(blocks) * t <= old_stop(t)
                   or blocks[-1].max() > max(b.max() for b in blocks) - 70.0):
                m0 = 256.0 * len(blocks)
                blocks.append(log_summand(spec, np.arange(m0, m0 + 256.0), t))
            r, brute = self._check_window(spec, t, np.concatenate(blocks))
            if name == "two-peak":
                assert r.log_value == brute
        if name in WHOLE_RANGE_STOP:
            assert self._last_m(spec, 1e-4) * 1e-4 < old_stop(1e-4)
            assert series_sum(spec, 1e-4).m_hi <= WHOLE_RANGE_STOP[name]
        if name in ("ramanujan", "f0", "phi-minus", "euler"):
            # the head below the mass is left out
            assert r.m_lo > 0
        if name in ("ramanujan", "f0"):
            # no later than the peak-scale stop 2 max(u*, 1) it replaces
            assert self._last_m(spec, 1e-3) * 1e-3 < 2.5

    @settings(max_examples=40, deadline=None)
    @given(case=admissible_specs())
    # the peak-scale stop this replaced left out 1.4e-18 of this one
    @example(case=(SeriesSpec.make(0.0, -0.3125, -0.0625,
                                   [(1, 0.6875, 2, 0.25), (1, 2, 1.5, 1.46875)]), 0.05))
    # every term falls from m = 0 on, so the window must start there
    @example(case=(SeriesSpec.make(0.5, 0.25, -0.5, [(1, 1, 1, 1.0)]), 0.01))
    def test_random_spec_matches_brute_force(self, case):
        self._check_window(*case, self._brute_logs(*case))

    @staticmethod
    def _brute_logs(spec, t):
        # the brute-force sum runs out to m_end, found from the draw alone:
        # from m_end on P(m) = m v - (A m^2 + B m) t falls, by P'(m_end) < 0 a
        # step at least, and P(m_end) plus an elementary bound of the S > 0
        # inner sums there, K(w) <= -log(1 - e^-w) + e^-w pi^2/(6 beta t),
        # over 1 - e^P'(m_end), lies e^-80 below the largest term
        A, B, v = spec.A, spec.B, spec.v

        def head_room(m):
            # P(m) plus the bound of the S > 0 inner sums at m
            out = m * v - (A * m * m + B * m) * t
            for p in spec.terms:
                w = (p.alpha * m + p.gamma) * t
                if p.S > 0:
                    out += p.S * (-math.log(-math.expm1(-w))
                                  + math.exp(-w) * PI2_6 / (p.beta * t))
            return out

        m_end = 256
        while True:
            logs = log_summand(spec, np.arange(float(m_end)), t)
            slope = v - (2.0 * A * m_end + B) * t
            if (slope < 0 and head_room(m_end) - math.log(-math.expm1(slope))
                    <= logs.max() - 80.0):
                return logs
            m_end *= 2

    @settings(max_examples=40, deadline=None)
    @given(case=admissible_specs(ts=st.sampled_from([0.1, 0.05])))
    def test_probe_ends_first_block(self, case):
        # every sum holds the probe's exact term, so an edge whose head plus
        # rest lie 1e-18 below that term ends the sum before it is summed;
        # what is left out stays within the brute-force law
        spec, t = case
        lad = qs.mass_ladder(spec, (t,))[0]
        _, left = lad.window(lad.probe_log)
        ok = np.flatnonzero(left <= lad.probe_log + qs.LN_EPS)
        r, _ = self._check_window(spec, t, self._brute_logs(spec, t))
        if len(ok):
            assert r.m_hi <= lad.edges[ok[0]]

    def test_f0_first_block_short(self):
        # the first block ran to 256 terms when only the sum so far could
        # end it; f0 now sums 21 terms at t = 0.1 and 29 at t = 0.05
        for t in (0.1, 0.05):
            r = series_sum(get_preset("f0").series, t)
            assert r.m_hi - r.m_lo <= 32

    @pytest.mark.parametrize("name, t, count", [("f0", 1e-10, "1252305378"),
                                                 ("euler", 1e-15, "8.39e+16")])
    def test_window_past_budget_raises(self, name, t, count):
        # the first edge the strided window's level certifies bounds the
        # terms before any is summed; past 2^27 the sum refuses at once
        with pytest.raises(ConvergenceError, match=re.escape(
                f"the window needs {count} terms, more than 134217728")):
            series_sum(get_preset(name).series, t)

    @pytest.mark.parametrize("name, t", [("euler", 1e-6), ("euler-b2", 1e-6),
                                         ("f0", 1e-7)])
    def test_window_within_budget(self, name, t):
        # the widest windows that still run: 6.2e7, 3.2e7 and 1.25e6 terms
        lad = qs.mass_ladder(get_preset(name).series, (t,))[0]
        cut, left = lad.window(lad.probe_log)
        stop = lad.edges[np.flatnonzero(left <= lad.probe_log + qs.LN_EPS)[0]]
        assert stop - lad.edges[cut] <= qs._SUM_BUDGET

    def test_divergent_series_raises(self):
        # A = 0 and v < 0, but v - B t > 0: the terms grow and no bound
        # certifies a stop by m t = U_END
        spec = SeriesSpec.make(0.0, -1.0, -0.05, [(1, 1, 1, 1)])
        with pytest.raises(ConvergenceError, match="past the sum's reach m\\*t = U_END = 2000$"):
            series_sum(spec, 0.1)

    def test_truncation_threshold_insensitive(self, monkeypatch):
        base = series_sum(RAM, 0.05).log_value
        monkeypatch.setattr(qs, "_KLOG_MARGIN", 90.0)
        monkeypatch.setattr(qs, "LN_EPS", 2 * math.log(1e-18))
        tight = series_sum(RAM, 0.05).log_value
        assert abs(tight - base) <= 1e-12 * max(1.0, abs(base))


@st.composite
def strided_specs(draw):
    """(spec, t): a flat-tail, small-A or v < 0 spec with 1-2 terms S < 0 at
    t = 1e-3 or 5e-4, whose windows run to thousands of terms or more."""
    t = draw(st.sampled_from([1e-3, 5e-4]))
    terms = draw(st.lists(st.tuples(
        st.floats(0.5, 3.0), st.floats(0.5, 2.0), st.floats(0.3, 2.0),
        st.floats(-3.0, -0.25)), min_size=1, max_size=2))
    branch = draw(st.sampled_from(["flat", "small-A", "v<0"]))
    if branch == "flat":
        A, B, v = 0.0, draw(st.floats(0.2, 2.0)), 0.0
    elif branch == "small-A":
        A, B, v = draw(st.floats(1e-4, 1e-2)), draw(st.floats(0.0, 1.0)), 0.0
    else:
        A, B, v = 0.0, draw(st.floats(0.0, 1.0)), draw(st.floats(-0.01, -0.001))
    return SeriesSpec.make(A, B, v, terms), t


class TestStridedSum:
    # a window of _STRIDE_MIN terms or more is summed by strided
    # Euler-Maclaurin blocks, with the evaluations and the remainder
    # estimate in its SumResult

    @settings(max_examples=25, deadline=None)
    @given(case=strided_specs())
    # flat windows of 10^4-10^5 terms, where log(fsum) is 8 or more and a
    # float log of it alone is off by up to 4 eps
    @example(case=(SeriesSpec.make(0.0, 0.984375, 0.0,
                                   [(2.00001, 0.984375, 0.33882262924408046, -1.1875)]), 5e-4))
    @example(case=(SeriesSpec.make(0.0, 0.6079972772483506, 0.0,
                                   [(0.5, 1.859375, 1.2511338751881986, -3.0)]), 1e-3))
    @example(case=(SeriesSpec.make(0.0, 0.7299367048848695, 0.0,
                                   [(1.0, 1.419921875, 1.360643979808982, -1.0),
                                    (1.25, 0.625, 0.9979228531235602, -2.4668669435496016)]),
                   5e-4))
    @example(case=(SeriesSpec.make(0.0, 0.7299367048848695, 0.0,
                                   [(1.0, 0.5463085019177594, 0.9979228531235602,
                                     -2.4668669435496016),
                                    (2.0, 1.419921875, 1.360643979808982, -1.0)]), 5e-4))
    def test_matches_brute_force(self, case):
        # every window strided, short ones too: within _check_window's 4 ulp
        # of the log-space fsum of every term; and against the fsum of the
        # window's own terms, its log taken at 40 digits, the gap past the
        # rounding of the two logs (an ulp each) and of the sum (2 eps) is
        # within the remainder estimate
        spec, t = case
        with mock.patch.object(qs, "_STRIDE_MIN", 0):
            r, _ = TestSeriesSum()._check_window(spec, t, TestSeriesSum._brute_logs(spec, t))
        logs = log_summand(spec, np.arange(r.m_lo, r.m_hi, dtype=float), t)
        mx = float(logs.max())
        with mp.workdps(40):
            window = float(mx + mp.log(math.fsum(np.exp(logs - mx))))
        assert (abs(r.log_value - window) <= 2.0 * math.ulp(max(abs(window), 1.0))
                + 2.0 * np.finfo(float).eps + math.exp(r.remainder_log - window))
        assert r.remainder_log <= r.log_value + qs.LN_EPS

    @staticmethod
    def _spied_sum(spec, t):
        # series_sum at t, its ladder, and the points of each log_summand call in it
        calls = []

        def spy(s, x, tt):
            calls.append(np.array(x, ndmin=1))
            return log_summand(s, x, tt)

        lad = qs.mass_ladder(spec, (t,))[0]
        with mock.patch.object(qs, "log_summand", spy):
            r = series_sum(spec, t, lad)
        return r, lad, calls

    @classmethod
    def _counted_sum(cls, spec, t):
        # series_sum at t, and the number of points log_summand saw in it
        r, _, calls = cls._spied_sum(spec, t)
        return r, sum(map(len, calls))

    @pytest.mark.parametrize("name, t", [("euler", 1e-4), ("phi-minus", 1e-4),
                                         ("euler-b2", 1e-4), ("euler", 1e-6),
                                         ("phi-minus", 1e-3), ("euler", 1e-3)])
    def test_evaluations_are_few(self, name, t):
        # a count, not a timing: the direct sum took 461,412, 439,358,
        # 247,991, 45.8M, 43,662 and 45,433 terms; log_summand sees only the
        # counted points
        r, seen = self._counted_sum(get_preset(name).series, t)
        assert seen == r.evals <= 2000
        assert r.remainder_log <= r.log_value + qs.LN_EPS
        assert r.left_out_log <= r.log_value + qs.LN_EPS

    @pytest.mark.parametrize("t, bits", [(1e-4, 6.959292079988697), (3.32e-5, None),
                                         (1e-5, 8.476803942283627)])
    def test_level_past_the_probe(self, t, bits):
        # tail_dominant's symbols cancel, so its probe lies far below the
        # window's largest term: e^-206 against e^-4.0 at t = 1e-4, e^-618
        # against e^-4.4 at 3.32e-5.  The window and the corrections take
        # the sampled level: at 1e-4 the value keeps its bits in few terms
        # (a gate at 1e-18 of the probe drove h to 1 over 1.4M terms), and
        # at 3.32e-5 the sum is certified (the stop search it replaced
        # raised IndexError there).  The term budget counts the window the
        # level certifies, not the probe: at 1e-5 that is 18.7M terms, the
        # probe's 2.0e8, and the value is that of a brute-force fsum over it
        r, seen = self._counted_sum(load_spec(str(DATA / "tail_dominant.json"))[0], t)
        assert r.left_out_log <= r.log_value + qs.LN_EPS
        assert seen == r.evals and r.remainder_log <= r.log_value + qs.LN_EPS
        if bits is not None:
            assert r.log_value == bits
        if t == 1e-4:
            assert r.evals <= 60_000

    @pytest.mark.parametrize("t", [1e-5, 1e-6])
    def test_exact_identities_at_reach(self, t):
        # euler sums to 1 and euler-b2 to 1 - q, past any direct sum's reach
        assert abs(series_sum(EULER, t).log_value) <= 64 * math.ulp(1.0)
        b2 = series_sum(get_preset("euler-b2").series, t).log_value
        assert abs(b2 - math.log(-math.expm1(-t))) <= 4e-15

    def test_direct_window_counts_its_terms(self):
        r = series_sum(RAM, 0.01)
        assert r.evals == r.m_hi - r.m_lo and r.remainder_log == -math.inf

    @pytest.mark.parametrize("name, t", [("ramanujan", 0.01), ("f0", 0.01),
                                         ("phi-minus", 0.01), ("euler", 0.01),
                                         ("two-peak", 1e-3)])
    def test_direct_window_is_one_call(self, name, t):
        # a window under _STRIDE_MIN terms is fixed before it is summed: one
        # log_summand call over [e_cut, stop), stop the first edge the
        # probe's term certifies, and m_hi is that edge
        spec = (load_spec(str(DATA / "two_peak.json"))[0] if name == "two-peak"
                else get_preset(name).series)
        r, lad, calls = self._spied_sum(spec, t)
        cut, left = lad.window(lad.probe_log)
        stop = lad.edges[np.flatnonzero(left <= lad.probe_log + qs.LN_EPS)[0]]
        assert len(calls) == 1 and stop - lad.edges[cut] < qs._STRIDE_MIN
        assert (r.m_lo, r.m_hi) == (lad.edges[cut], stop)
        assert np.array_equal(calls[0], np.arange(r.m_lo, r.m_hi, dtype=float))
        assert r.left_out_log <= r.log_value + qs.LN_EPS

    def test_mixed_grid_rows_keep_their_bits(self, capsys):
        # an eval grid with direct rows (t = 0.1, 0.005) and a strided one
        # (t = 1e-4): every row and its diagnostics as the row alone has them
        def run(ts):
            assert main(["eval", "--preset", "phi-minus", "--t", ts]) == 0
            return json.loads(capsys.readouterr().out)["results"]
        grid = run("0.1,0.005,0.0001")
        diag = grid["diagnostics"]
        assert [k for k, d in diag.items() if d["remainder_log"] > -math.inf] == ["t=0.0001"]
        for t in ("0.1", "0.005", "0.0001"):
            alone = run(t)
            assert alone["rows"][0] in grid["rows"]
            [(key, value)] = alone["diagnostics"].items()
            assert diag[key] == value


class TestPrefactorExact:
    def test_matches_symbols(self):
        t = 0.05
        quads = (QuadTerm(1, 1, 1, 0, 2),)
        lv = prefactor_exact(quads, t)
        direct = -2.0 * qpoch_inf(math.exp(-t), math.exp(-t))
        assert lv == pytest.approx(direct, rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(a=st.floats(0.01, 8.0), b=st.floats(0.05, 8.0), t=st.floats(1e-4, 0.49),
           S=st.sampled_from([1.0, -1.0, 2.5]))
    def test_near_the_direct_product(self, a, b, t, S):
        # S times the closed form's row 0, bit for bit, at the direct
        # product's floats: w = -log fl(e^-at) and b t = -log fl(e^-bt).  Its
        # peel and its Euler-Maclaurin levels leave about 1.5e-15 per unit S:
        # 8,600 uniform draws put it within 6 ulp of max(|K|, 1) of a 30-digit
        # product
        d = -S * qpoch_inf(math.exp(-a * t), math.exp(-b * t))
        p = prefactor_exact((QuadTerm(a, b, 1.0, 0.0, S),), t)
        w, bt = np.array([[-math.log(math.exp(-a * t))], [-math.log(math.exp(-b * t))]])
        assert p == S * sf.kernel_rows(w, bt, bt, np.ones(1), (0,))[0, 0]
        assert abs(p - d) <= abs(S) * 8 * math.ulp(max(abs(d / S), 1.0))

    @pytest.mark.parametrize("name", ["phi-minus", "ramanujan", "simple-r"])
    def test_grid_keeps_each_t_bits(self, name):
        quads = get_preset(name).prefactor
        ts = (0.45, 0.1, 0.01, 1e-3, 1e-4, 4.5e-6)
        grid = prefactor_exact(quads, ts)
        assert isinstance(grid, np.ndarray) and isinstance(prefactor_exact(quads, 0.1), float)
        assert grid.tolist() == [prefactor_exact(quads, t) for t in ts]
        assert prefactor_exact((), ts).tolist() == [0.0] * len(ts)

    def test_empty_grid(self):
        for ts in ((), []):
            out = prefactor_exact((QuadTerm(1, 1, 1, 0, 2),), ts)
            assert isinstance(out, np.ndarray) and out.tolist() == []

    def test_rounded_symbols(self):
        # as in the direct product: q^a = 0 is a factor 1, while q^a
        # rounding to 1 or q^b to 0 leaves no symbol to take
        assert prefactor_exact((QuadTerm(2000.0, 1.0, 1.0, 0.0, 1.0),), 0.4) == 0.0
        for q in (QuadTerm(1e-20, 1.0, 1.0, 0.0, 1.0), QuadTerm(1.0, 2000.0, 1.0, 0.0, 1.0)):
            with pytest.raises(DomainError, match="fl\\(q\\^a\\) < 1 and fl\\(q\\^b\\) > 0 at t=0.4$"):
                prefactor_exact((q,), 0.4)

    def test_reach_refused_on_a_grid(self):
        # the direct product's reach, 10^7 factors, holds until the closed
        # form takes exact floats: t = 1e-6 still needs 41446531
        quads = get_preset("ramanujan").prefactor
        for ts in (1e-6, (1e-3, 1e-6)):
            with pytest.raises(ConvergenceError, match="exact prefactor: \\(a;q\\)_inf needs "
                                                       "41446531 factors, more than 10000000$"):
                prefactor_exact(quads, ts)

    @pytest.mark.parametrize("t, count", [(1e-6, "41446531"), (1e-15, "4.14e\\+16"),
                                          (1e-30, "4.14e\\+31"), (5e-324, "inf")])
    def test_factor_count_before_q_rounds(self, t, count):
        # the count comes from a, b and t, so below t ~ 1.1e-16, where
        # e^(-b t) rounds to 1.0, it is still the cap that refuses; with
        # b = 0.5 at t = 5e-324, b t itself underflows to 0
        for b in (1.0, 0.5):
            quads = (QuadTerm(1, b, 1, 0, 2),)
            match = (f"exact prefactor: \\(a;q\\)_inf needs {count if b == 1 else '.*'} "
                     f"factors, more than 10000000$")
            with pytest.raises(ConvergenceError, match=match):
                prefactor_exact(quads, t)
