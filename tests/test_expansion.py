import functools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import kappa_by_partitions, lambda_table_per_order, log_add
from qasym import expansion
from qasym.cli import load_spec, main
from qasym.errors import DegenerateError, DomainError, HypothesisError, SignError
from qasym.expansion import (DEFAULT_L, AsymptoticResult, _exp_series, _lambda_table,
                             analyse, asym_from_parts, peak_value)
from qasym.phase import level, stationary_points
from qasym.presets import PRESETS, get_preset
from qasym.qseries import Law, ProductSpec, SeriesSpec, normalize, series_sum

RAM_PRODUCT = ProductSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, 0, 2)])
RAM = SeriesSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, -2)])
F0 = SeriesSpec.make(1.0, 0.0, 0.0, [(2, 1, 1, -1), (1, 1, 1, 1)])
EULER = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])
EULER_B2 = SeriesSpec.make(0.0, 2.0, 0.0, [(1, 1, 1, -1)])
DATA = Path(__file__).parent / "data"


def _sp(spec):
    return stationary_points(spec)[0]


def _law(spec):
    # (C_u, t_power, rate) of the dominant law C_u t^t_power e^(rate/t)
    law = analyse(spec).law
    return math.exp(law.log_c), law.t_power, law.rate


def _lambda_rows(table):
    # _lambda_table's columns as one (F(u/t), V, {r: lambda_r}) per t
    f_u, V, lams = table
    return [(f, v, {r: float(col[j]) for r, col in lams.items()})
            for j, (f, v) in enumerate(zip(f_u.tolist(), V.tolist()))]


def _kappa_columns(spec, sp, ts, L):
    # kappa_0, kappa_2, ..., kappa_{2L} at the maximum sp, each a column over ts
    _, _, lams = _lambda_table(spec, sp, ts, 2 * L)
    return [np.broadcast_to(kappa, len(ts)) for kappa in _exp_series(lams, 2 * L)[::2]]


def _peak_reference(sp, f_u, V, kappas):
    # one t's peak term from its plain-float F(u/t), V and kappa_{2l}
    k = sp.order
    s = sum(math.gamma((2 * ell + 1) / (2 * k)) * kappa / k
            for ell, kappa in enumerate(kappas))
    return f_u - math.log(V) + math.log(s)


def _asym_reference(an, t, L, q_power):
    # (log_value, correction_factor) of one row as the per-t loops gave them:
    # the per-order oracle, the exp-series on plain floats, scalar formulas
    parts = []
    for sp in an.peaks:
        f_u, V, lams = lambda_table_per_order(an.series, sp, t, 2 * L)
        parts.append(_peak_reference(sp, f_u, V, _exp_series(lams, 2 * L)[::2]))
    if an.tail:     # of rate 0
        parts.append(an.tail.log_c + an.tail.t_power * math.log(t))
    pre = an.prefactor
    pref = pre.rate / t + pre.t_power * math.log(t) + pre.log_c
    for ell, a_l in enumerate(pre.coeffs, 1):
        pref += a_l * t ** ell
    total = (functools.reduce(log_add, parts) + pref) - q_power * t
    law = an.law
    return total, math.exp(total - (law.rate / t + law.t_power * math.log(t) + law.log_c))


def _rows(res):
    # asym_from_parts' columns as one AsymptoticResult of numbers per t
    return tuple(map(AsymptoticResult._make, zip(*res)))


def _tail(spec, t):
    # the asym route's total at t of a spec whose only branch is the tail
    an = analyse(spec)
    assert an.branch == "tail"
    (r,) = _rows(asym_from_parts(an, (t,)))
    return r.log_value


class TestCorrections:
    def test_order_zero(self):
        sp = _sp(RAM)
        assert [k.tolist() for k in _kappa_columns(RAM, sp, (0.05,), 0)] == [[1.0]]
        assert sp.order == 1
        f_u, V, _ = _lambda_table(RAM, sp, (0.05,), 0)
        assert V[0] > 0
        # with kappa_0 alone, the peak term is F(u/t) - log V + log Gamma(1/2)
        assert peak_value(RAM, sp, (0.05,), 0).tolist() == [
            f_u[0] - math.log(V[0]) + math.log(math.gamma(0.5))]
        with pytest.raises(DomainError, match="nonnegative"):
            peak_value(RAM, sp, (0.05,), -1)

    def test_partition_sum_agrees_with_series_exp(self):
        # two independent evaluations of the same composition, the series
        # on columns over a t-grid and the partition sum per t
        ts = (0.1, 0.05, 0.01)
        _, _, lams = _lambda_table(RAM, _sp(RAM), ts, 18)
        coeffs = _exp_series(lams, 6)
        for j in range(len(ts)):
            for ell in range(7):
                direct = kappa_by_partitions({r: col[j] for r, col in lams.items()}, ell)
                got = np.broadcast_to(coeffs[ell], len(ts))[j]
                assert abs(got - direct) <= 1e-12 * max(1.0, abs(direct))

    @pytest.mark.parametrize("spec", [RAM, F0], ids=["ramanujan", "f0"])
    def test_lambda_table_equals_per_order_calls(self, spec):
        # one closed-form call for every order and t, F(u/t) included, gives
        # the very bits of one call per order and t
        sp = _sp(spec)
        ts = (0.05, 1e-3, 1e-4)
        for L in (0, 1, 2):
            for rmax in (2 * L, 2 * sp.order * (2 * sp.order + 1) * L):
                assert (_lambda_rows(_lambda_table(spec, sp, ts, rmax))
                        == [lambda_table_per_order(spec, sp, t, rmax) for t in ts])

    def test_kappa2_envelope_decreases(self):
        sp = _sp(RAM)
        k2 = abs(_kappa_columns(RAM, sp, (0.1, 0.05, 0.025), 1)[1]).tolist()
        assert k2[0] > k2[1] > k2[2]

    def test_odd_partition_indexes_too(self):
        # sanity on a synthetic table: exp(l1 y + l3 y^3) coefficients
        lams = {1: 0.3, 3: -0.2}
        coeffs = _exp_series(lams, 5)
        assert coeffs[0] == 1.0
        assert coeffs[1] == pytest.approx(0.3)
        assert coeffs[2] == pytest.approx(0.3 ** 2 / 2)
        assert coeffs[3] == pytest.approx(0.3 ** 3 / 6 - 0.2)
        assert coeffs[4] == pytest.approx(0.3 ** 4 / 24 - 0.2 * 0.3)


class TestPeakValue:
    @pytest.mark.parametrize("spec", [RAM, F0], ids=["ramanujan", "f0"])
    def test_leading_order_within_3_percent(self, spec):
        sp = _sp(spec)
        for t in (0.02, 0.01):
            sv = series_sum(spec, t).log_value
            (pv,) = peak_value(spec, sp, (t,), 0)
            assert abs(math.exp(pv - sv) - 1.0) <= 0.03

    @pytest.mark.parametrize("spec", [RAM, F0], ids=["ramanujan", "f0"])
    def test_complete_correction_group_improves(self, spec):
        # the O(t) piece spreads over kappa_2..kappa_6 and cancels only as a
        # group: the first complete truncation (L = 3) beats the leading order
        sp = _sp(spec)
        for t in (0.02, 0.01):
            sv = series_sum(spec, t).log_value
            err = {L: abs(math.exp(peak_value(spec, sp, (t,), L)[0]
                                   - sv) - 1.0) for L in (0, 3)}
            assert err[3] < err[0]

    def test_leading_error_shrinks_with_t(self):
        sp = _sp(F0)
        errs = []
        for t in (0.02, 0.01):
            sv = series_sum(F0, t).log_value
            errs.append(abs(math.exp(peak_value(F0, sp, (t,), 0)[0]
                                     - sv) - 1.0))
        assert errs[1] < errs[0]


class TestLeadingConstant:
    def test_ramanujan(self):
        c_u, t_power, rate = _law(RAM)
        assert c_u == pytest.approx(math.sqrt(2 * math.pi / math.sqrt(5.0)),
                                    rel=1e-12)
        assert t_power == -0.5
        assert rate == pytest.approx(-2 * math.pi ** 2 / 15.0, abs=1e-13)

    def test_f0_closed_form(self):
        sp = _sp(F0)
        c_u, _, _ = _law(F0)
        x = math.exp(-sp.u)
        display = math.sqrt(2 * math.pi) * math.sqrt((1 - x) / (2 - x + x * x))
        assert c_u == pytest.approx(display, rel=1e-12)

    def test_generic_order_one_shape(self):
        sp = _sp(RAM)
        c_u, _, _ = _law(RAM)
        shape = (math.exp(level(RAM, 1, 0, sp.u))
                 * math.sqrt(2 * math.pi / abs(sp.h2m)))
        assert c_u == pytest.approx(shape, rel=1e-14)

    def test_match_peak_value_limit(self):
        # peak_value(L=0) / (C_u t^(-1/2) e^(rate/t)) -> 1 like O(t)
        sp = _sp(RAM)
        law = analyse(RAM).law
        gaps = []
        for t in (0.04, 0.02, 0.01):
            (pv,) = peak_value(RAM, sp, (t,), 0)
            base = law.log_c + law.t_power * math.log(t) + law.rate / t
            gaps.append(abs(math.exp(pv - base) - 1.0))
        assert gaps[0] > gaps[1] > gaps[2]
        assert 1.5 < gaps[0] / gaps[1] < 2.5
        assert 1.5 < gaps[1] / gaps[2] < 2.5


class TestTailLeading:
    def test_euler_exact_one(self):
        assert analyse(EULER).tail == Law(0.0, 0.0, 0.0)
        lv = _tail(EULER, 0.05)
        assert lv == 0.0

    def test_euler_b2_exact_t(self):
        assert analyse(EULER_B2).tail == Law(0.0, 1.0, 0.0)
        for t in (0.1, 0.05):
            assert _tail(EULER_B2, t) == math.log(t)

    def test_no_tail_on_peak_spec(self):
        an = analyse(RAM)
        assert an.tail is None and an.branch == "peak"

    def test_closed_form_agreement(self):
        # the two Euler fixtures have exact sums 1 and 1-e^{-t}; the leading
        # tail reproduces them within 10 t^2 relative on a desk-scale grid
        for t in (0.1, 0.2):
            one = math.exp(_tail(EULER, t))
            assert abs(one - 1.0) <= 10 * t * t
            tb2 = math.exp(_tail(EULER_B2, t))
            assert abs(tb2 / (1.0 - math.exp(-t)) - 1.0) <= 10 * t * t


TAIL_DOM = str(DATA / "tail_dominant.json")
PEAK_DOM = str(DATA / "peak_dominant.json")


class TestBranch:
    """The flat tail next to an interior maximum: analyse decides the
    branch and the dominant law once, by the maximum's height."""

    def test_tail_law_dominant(self):
        an = analyse(load_spec(TAIL_DOM)[0])
        (sp,) = an.peaks
        assert sp.h_value == pytest.approx(-0.0205439, abs=1e-7)
        ba = 0.32 / 0.94        # B/alpha_1, and f(alpha_1) = 1.52
        log_c = math.lgamma(ba) - math.log(0.94) - ba * math.log(1.52)
        assert an.branch == "sum-of-peaks+tail"
        assert an.tail == Law(0.0, ba - 1.0, pytest.approx(log_c, rel=1e-14))
        assert an.law == an.tail
        assert an.law.t_power == pytest.approx(-0.65957446808, rel=1e-11)

    def test_peak_law_dominant(self):
        an = analyse(load_spec(PEAK_DOM)[0])
        (sp,) = an.peaks
        assert an.branch == "sum-of-peaks+tail"
        assert an.tail.t_power == 1.06 / 0.54 - 1.0
        assert an.law == Law(sp.h_value, -0.5, sp.log_c_u)
        assert an.law.rate == pytest.approx(1.63220979, rel=1e-8)

    @pytest.mark.parametrize("spec", [TAIL_DOM, PEAK_DOM], ids=["tail", "peak"])
    def test_both_branches_verify(self, spec, tmp_path):
        out = tmp_path / "verify.csv"
        assert main(["verify", "--spec", spec, "--t", "0.05,0.01,0.001",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.05, 0.01, 0.001]


class TestDerivativeRows:
    """peak_value asks the closed form once for the orders it reads,
    0..max(2L, 2k), and gets the bits of the wide table 0..2k(2k+1)L."""

    @pytest.mark.parametrize("name", ["ramanujan", "f0", "rphis", "simple-r"])
    def test_orders_read(self, name, monkeypatch):
        p = get_preset(name)
        an = analyse(p.series, p.prefactor)
        asked = []

        def spy(spec, n, x, t, real=expansion.log_summand_deriv, **kw):
            asked.append((n, kw))
            return real(spec, n, x, t, **kw)

        monkeypatch.setattr(expansion, "log_summand_deriv", spy)
        ts = (0.1, 0.01, 0.001)
        for sp in an.peaks:
            k = sp.order
            for L in range(4):
                asked.clear()
                got = peak_value(an.series, sp, ts, L)
                assert asked == [(tuple(range(max(2 * L, 2 * k) + 1)), {})]
                wide = _lambda_table(an.series, sp, ts, 2 * k * (2 * k + 1) * L)
                assert got.tolist() == [
                    _peak_reference(sp, f_u, V, _exp_series(lams, 2 * L)[::2])
                    for f_u, V, lams in _lambda_rows(wide)]


class TestAsymTotal:
    def test_ramanujan_fields(self):
        an = analyse(*normalize(RAM_PRODUCT))
        (r,) = _rows(asym_from_parts(an, (0.02,)))
        assert an.law.rate == pytest.approx(math.pi ** 2 / 5.0, abs=1e-12)
        assert an.law.t_power == pytest.approx(0.5)
        assert an.law.log_c == pytest.approx(
            -0.5 * math.log(2 * math.pi * math.sqrt(5.0)), abs=1e-12)
        assert an.branch == "peak"
        assert r.correction_factor == pytest.approx(1.0, abs=0.01)

    def test_total_reconstruction_invariant(self):
        an = analyse(*normalize(RAM_PRODUCT))
        (r,) = _rows(asym_from_parts(an, (0.02,)))
        law = an.law
        rebuilt = (law.log_c + law.t_power * math.log(r.t) + law.rate / r.t
                   + math.log(r.correction_factor))
        assert rebuilt == pytest.approx(r.log_value, abs=1e-12)

    def test_log_add_beyond_float_range(self):
        # e^1000 + e^999 stays finite in log space, the same bits either way round
        want = 1000.0 + math.log1p(math.exp(-1.0))
        assert np.logaddexp(1000.0, 999.0) == want == log_add(1000.0, 999.0)
        assert np.logaddexp(999.0, 1000.0) == want == log_add(999.0, 1000.0)

    @settings(max_examples=2000, deadline=None)
    @given(x=st.floats(-800.0, 800.0), gap=st.floats(0.0, 60.0) | st.floats(0.0, 1e-12))
    @example(x=1.5, gap=0.0)             # equal: x + log 2
    @example(x=-3.25, gap=0.0)
    @example(x=0.0, gap=41.0)            # past 40, e^-gap is below an ulp of 1
    @example(x=700.0, gap=745.5)         # e^-gap underflows to 0
    def test_logaddexp_keeps_log_add_bits(self, x, gap):
        # asym_from_parts adds peaks and tail by np.logaddexp.reduce: it has
        # the bits of the scalar big + log1p(exp(small - big)) it replaced
        for a, b in ((x, x - gap), (x - gap, x)):
            assert float(np.logaddexp(a, b)) == log_add(a, b)
            assert (np.logaddexp.reduce([np.array([a]), np.array([b])]).tolist()
                    == [log_add(a, b)])

    @pytest.mark.parametrize("source, want", [
        ("two_peak", (175.90369909588694, 1730.5812249392475)),
        ("peak_dom", (161.984403059028, 1632.0511400783132))])
    def test_asym_bits_pinned(self, source, want, tmp_path):
        # `asym --t 0.01,0.001`: two peaks, and a dominant peak plus the flat
        # tail, added in the same order by np.logaddexp.reduce.  The same
        # expansion assembled to 40 digits from the 40-digit k-sums of
        # log_summand_mp's rows is 175.903699095886975, 1730.58122493924728,
        # 161.984403059028052 and 1632.05114007831347; the closed-form rows
        # moved 1730.5812249392477 (+1.87 ulp) to +0.87, 161.98440305902798
        # (-2.44) to -1.44 and 1632.0511400783137 (+0.88) to -1.12, where
        # F(u/t) is -1 ulp off against the k-sum's +1
        spec = str(DATA / "two_peak.json") if source == "two_peak" else PEAK_DOM
        out = tmp_path / "asym.json"
        assert main(["asym", "--spec", spec, "--t", "0.01,0.001", "--out", str(out)]) == 0
        results = json.loads(out.read_text())["results"]
        assert tuple(results["log_value"]) == want and results["sign"] == [1, 1]

    def test_euler_is_one(self):
        an = analyse(EULER)
        (r,) = _rows(asym_from_parts(an, (0.05,)))
        assert math.exp(r.log_value) == pytest.approx(1.0, abs=1e-14)
        assert an.branch == "tail"

    def test_hypothesis_refusal(self):
        # decided by analyse, before any t
        bad = ProductSpec.make(0.0, 0.0, -1.0, [(1, 1, 1, 0, -1)])
        with pytest.raises(HypothesisError, match="^increasing-near-zero hypothesis fails: "):
            analyse(*normalize(bad))

    def test_geometric_series_refused(self):
        geo = SeriesSpec(0.0, 1.0, 0.0, ())
        with pytest.raises(DegenerateError, match="^no interior maximum and no applicable "
                           "tail branch; the expansion machinery does not cover this spec$"):
            analyse(geo)

    def test_vs_series_accuracy_improves(self):
        for spec, pref in ((RAM, RAM_PRODUCT.quads), (F0, ())):
            devs = []
            for t in (0.05, 0.025):
                (a,) = _rows(asym_from_parts(analyse(SeriesSpec.make(
                    spec.A, spec.B, spec.v,
                    [(p.alpha, p.beta, p.gamma, p.S) for p in spec.terms])),
                    (t,)))
                s = series_sum(spec, t).log_value
                devs.append(abs(math.exp(s - a.log_value) - 1.0))
            assert devs[1] < devs[0]


class TestAsymGrid:
    """asym_from_parts at a tuple of t: one closed-form call per peak for the whole
    grid, and each row the bits of a call at its t alone."""

    GRID = tuple(0.1 * 0.001 ** (i / 9) for i in range(10))     # 0.1 .. 1e-4

    @staticmethod
    def _analysis(name):
        if name == "two-peak":
            series, quads, _ = load_spec(str(DATA / "two_peak.json"))
            return analyse(series, quads)
        p = get_preset(name)
        return analyse(p.series, p.prefactor)

    @pytest.mark.parametrize("name", [*PRESETS, "two-peak"])
    def test_rows_independent_of_grid_mates(self, name):
        an = self._analysis(name)
        g = self.GRID
        alone = {t: _rows(asym_from_parts(an, (t,)))[0] for t in g}
        for ts in (g, g[::-1], g[2:7], g[3:4], (g[5], g[0], g[9])):
            assert _rows(asym_from_parts(an, ts)) == tuple(alone[t] for t in ts)
        assert asym_from_parts(an, ()) == AsymptoticResult([], [], [])

    @pytest.mark.parametrize("name", ["ramanujan", "f0", "two-peak"])
    def test_peak_layers_take_a_grid(self, name):
        an = self._analysis(name)
        for sp in an.peaks:
            for L in (0, 2):
                assert (_lambda_rows(_lambda_table(an.series, sp, self.GRID, 2 * L))
                        == [row for t in self.GRID for row in
                            _lambda_rows(_lambda_table(an.series, sp, (t,), 2 * L))])
                assert (peak_value(an.series, sp, self.GRID, L).tolist()
                        == [peak_value(an.series, sp, (t,), L)[0] for t in self.GRID])

    @pytest.mark.parametrize("name", [*PRESETS, "two-peak"])
    def test_columns_match_per_t_reference(self, name):
        # numpy columns carry only + - * /, so each row keeps the bits of
        # the scalar per-t arithmetic
        an = self._analysis(name)
        for L in (0, 2):
            assert ([(r.log_value, r.correction_factor)
                     for r in _rows(asym_from_parts(an, self.GRID, L, 0.75))]
                    == [_asym_reference(an, t, L, 0.75) for t in self.GRID])

    @pytest.mark.parametrize("name", [*PRESETS, "two-peak"])
    def test_sweep_grid_matches_per_t_reference(self, name):
        # the benchmark's 400-point grid: each log, power and exponential
        # is taken per t, where numpy's would round some rows otherwise
        an = self._analysis(name)
        grid = tuple(0.1 * (0.001 ** (1.0 / 399)) ** i for i in range(400))
        assert ([(r.log_value, r.correction_factor)
                 for r in _rows(asym_from_parts(an, grid))]
                == [_asym_reference(an, t, DEFAULT_L, 0.0) for t in grid])

    @pytest.mark.parametrize("name, t", [("ramanujan", 1e-30), ("f0", 1e-100),
                                         ("rphis", 1e-200), ("phi-minus", 1e-320)])
    def test_row_out_of_float_range_named(self, name, t):
        # the correction factor overflows, or the derivatives at u/t do; no
        # numpy warning escapes and no row prints NaN or Infinity
        an = self._analysis(name)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateError, match=f"out of float range at t={t!r}$"):
                asym_from_parts(an, (0.01, t))

    def test_failing_row_named(self):
        # the curvature at this spec's peak is still >= 0 at t = 0.4
        spec = SeriesSpec.make(0.25, -0.2, -0.9, [(0.75, 2, 2.3, -3), (1.7, 2.2, 0.7, 2),
                                                  (0.45, 2.3, 2.85, -3)])
        an = analyse(spec)
        asym_from_parts(an, (0.1, 0.05))
        with pytest.raises(SignError, match=r"\(t=0.4 too large\)"):
            asym_from_parts(an, (0.1, 0.4, 0.05))

    @pytest.mark.parametrize("name", ["ramanujan", "euler"])
    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan, 0.7])
    def test_t_out_of_range_refused(self, name, t):
        # the exact routes' check, before any log of t: a peak spec and a
        # tail-only spec refuse the same t with the same QasymError
        an = self._analysis(name)
        with pytest.raises(DomainError, match=r"^t must lie in \(0, 0.5\), got "):
            asym_from_parts(an, (0.1, t))

    @pytest.mark.parametrize("name", ["ramanujan", "euler"])
    def test_negative_order_refused(self, name):
        an = self._analysis(name)
        with pytest.raises(DomainError, match="^correction order must be nonnegative, got -1$"):
            asym_from_parts(an, (0.1,), -1)
        for sp in an.peaks:
            with pytest.raises(DomainError, match="nonnegative"):
                peak_value(an.series, sp, (0.1,), -1)
