import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qasym.quad as quad
from oracles import integral_whole_ladder
from qasym.cli import load_spec
from qasym.errors import ConvergenceError, DomainError
from qasym.expansion import analyse
from qasym.presets import PRESETS, get_preset
from qasym.quad import integral
from qasym.qseries import (LN_EPS, ProductSpec, SeriesSpec, log_summand, mass_ladder,
                           normalize, series_sum)

GAUSS = SeriesSpec(1.0, 0.0, 0.0, ())
EULER = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])
RAM = SeriesSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, -2)])
S_POSITIVE = SeriesSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 1)])  # largest at u = 0
DATA = Path(__file__).parent / "data"


def assert_matches_whole_ladder(spec, t, rel_tol=1e-10):
    # the window leaves out at most 1e-18 of the value, so against the
    # integral over the whole seeded ladder from u = 0 the log moves by at
    # most that share plus both error estimates and round-off
    r = integral(spec, t, rel_tol)
    want, want_err, _ = integral_whole_ladder(analyse(spec), t, rel_tol)
    got = r.log_value
    assert r.cut_mass_log <= got + LN_EPS
    bound = (math.exp(r.cut_mass_log - got) + math.exp(r.abs_error_log - got)
             + math.exp(want_err - got) + 4 * math.ulp(max(abs(got), 1.0)))
    assert abs(got - want) <= bound


class TestClosedForm:
    @pytest.mark.parametrize("t", [0.1, 0.01])
    def test_gaussian(self, t):
        r = integral(GAUSS, t, 1e-10)
        exact = 0.5 * math.sqrt(math.pi / t)
        assert math.exp(r.log_value) == pytest.approx(exact, rel=1e-10)

    def test_error_estimate_is_a_bound_marker(self):
        r = integral(GAUSS, 0.1, 1e-10)
        assert r.abs_error_log <= r.log_value + math.log(1e-10) + 1e-9


class TestStability:
    def test_halving_tolerance_consistent(self):
        # tightening never moves the value by more than the two error bounds
        a = integral(RAM, 0.05, 1e-8)
        b = integral(RAM, 0.05, 5e-9)
        diff = abs(math.exp(a.log_value) - math.exp(b.log_value))
        bound = math.exp(a.abs_error_log) + math.exp(b.abs_error_log)
        assert diff <= bound + 1e-300

    def test_rel_tol_floor(self):
        with pytest.raises(DomainError):
            integral(RAM, 0.05, 1e-13)

    def test_round_off_floor_fails_fast(self):
        # at t = 1e-7 the integrand's rounding, about ulp(1.3e7) relative,
        # exceeds rel_tol: refinement stops at MAX_PANELS and raises
        with pytest.raises(ConvergenceError, match="subdivision limit"):
            integral(RAM, 1e-7)


class TestSumIntegralAgreement:
    def test_euler_near_one(self):
        r = integral(EULER, 0.05, 1e-10)
        assert math.exp(r.log_value) == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("spec", [EULER, RAM], ids=["euler", "ramanujan"])
    def test_deviation_shrinks(self, spec):
        devs = []
        for t in (0.1, 0.05, 0.025):
            s = series_sum(spec, t).log_value
            r = integral(spec, t, 1e-10)
            devs.append(abs(math.exp(s - r.log_value) - 1.0))
        assert devs[0] <= 1e-4
        for d0, d1 in zip(devs, devs[1:]):
            assert d1 < d0 or (d1 == 0.0 and d0 == 0.0)

    @pytest.mark.parametrize("t", [0.01, 0.001])
    def test_flat_tail_mixed_signs(self, t):
        # the expansion cannot analyse this flat tail (a maximum of height
        # 4e-16 at u = 24.2), but the integral needs no analysis: it equals
        # the sum within round-off and its own error estimate
        series, _, _ = load_spec(str(DATA / "flat_mixed_sign.json"))
        r = integral(series, t)
        s = series_sum(series, t).log_value
        assert abs(s - r.log_value) <= (
            4 * (math.ulp(s) + math.ulp(r.log_value))
            + math.exp(r.abs_error_log - r.log_value))


class TestNearZeroCut:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_cut_keeps_bits(self, name, monkeypatch):
        # at one shift, a panel's nodes keep their bits whichever panels
        # share the call, so the panels cut away below the top node move no
        # kept value; the initial panels run
        # between ladder edges, and at t = 1e-4 the window starts above
        # u = 0 and leaves out at most 1e-18 of the value
        p = get_preset(name)
        for t in (0.1, 0.01, 1e-3, 1e-4):
            edges = mass_ladder(p.series, (t,))[0].edges[::quad.PANEL_STRIDE] * t
            edges = edges[edges <= 2.0]
            f = lambda u: log_summand(p.series, u / t, t)
            vals, errs, top = quad._gk15(f, edges[:-1], edges[1:], -math.inf)
            for i in range(len(vals)):
                one = quad._gk15(f, edges[i:i + 1], edges[i + 1:i + 2], top)
                assert (one[0][0], one[1][0], one[2]) == (vals[i], errs[i], top)
        initial = []
        adaptive = quad._adaptive
        monkeypatch.setattr(quad, "_adaptive", lambda spec, edges, *args: (
            initial.append(edges), adaptive(spec, edges, *args))[1])
        r = integral(p.series, 1e-4)
        assert r.u_cut > 0.0 and r.u_cut == initial[-1][0]
        assert np.isin(initial[-1], mass_ladder(p.series, (1e-4,))[0].edges * 1e-4).all()
        assert r.cut_mass_log <= r.log_value + LN_EPS

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_whole_ladder(self, name):
        p = get_preset(name)
        for t in (0.2, 0.03, 0.01, 1e-3):
            assert_matches_whole_ladder(p.series, t)

    @pytest.mark.parametrize("t", [1e-5, 1e-6])
    @pytest.mark.parametrize("name", ["ramanujan", "f0", "rphis", "simple-r",
                                      "two_peak"])
    def test_spike_resolved_from_ladder(self, name, t):
        # no panel is seeded at a maximum, whose width is O(sqrt t) in u:
        # the ladder's edges alone resolve it as well as the seeded layout
        spec = (load_spec(str(DATA / "two_peak.json"))[0] if name == "two_peak"
                else get_preset(name).series)
        assert_matches_whole_ladder(spec, t)

    def test_peak_above_initial_nodes(self):
        # at t = 1e-8 Ramanujan's maximum lies about e^1700 above every
        # initial node: the values kept are rescaled to each new top node,
        # so none overflows, and the log meets the seeded layout's
        spec = get_preset("ramanujan").series
        assert_matches_whole_ladder(spec, 1e-8, 1e-6)

    @pytest.mark.parametrize("spec", [GAUSS, S_POSITIVE], ids=["gauss", "s-positive"])
    def test_boundary_hugging_mass_not_cut(self, spec):
        # largest at u = 0, with a width of order sqrt(t) or t: the window
        # starts at u = 0
        for t in (1e-2, 1e-3, 1e-4):
            r = integral(spec, t)
            assert r.u_cut == 0.0
            assert r.cut_mass_log <= r.log_value + LN_EPS

    def test_window_widened_to_the_integral(self):
        # the S > 0 symbol makes the integral over x smaller than the
        # largest term, and the window at 1e-18 of that term leaves out
        # more than 1e-18 of the integral: it is widened once
        t = 0.01
        r = integral(S_POSITIVE, t)
        lad = mass_ladder(S_POSITIVE, (t,))[0]
        _, _, left = lad.window(lad.probe_log)
        by_term = left[np.flatnonzero(left <= lad.probe_log + LN_EPS)[0]]
        assert r.log_value < lad.probe_log
        assert by_term > r.log_value + LN_EPS
        assert r.cut_mass_log <= r.log_value + LN_EPS

    def test_window_never_accepted_uncertified(self, monkeypatch):
        # an integral that keeps coming out smaller than its window's
        # certificate allows raises instead of returning
        calls = []
        adaptive = quad._adaptive

        def shrinking(*args):
            value, err, panels = adaptive(*args)
            calls.append(1)
            return value - 200.0 * len(calls), err, panels

        monkeypatch.setattr(quad, "_adaptive", shrinking)
        with pytest.raises(ConvergenceError, match="leaves out more than 1e-18"):
            integral(RAM, 0.01)
        assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(flat=st.booleans(), A=st.floats(0.25, 1.5), B=st.floats(-0.5, 1.0), v=st.floats(-0.5, 0.5),
       quads=st.lists(st.tuples(st.floats(0.2, 1.5), st.floats(0.75, 1.25),
                                st.floats(1.1, 1.9), st.floats(0.0, 1.0),
                                st.floats(0.25, 1.5), st.sampled_from((1.0, -1.0))),
                      min_size=1, max_size=3),
       t=st.floats(1e-3, 0.45))
def test_random_spec_window_certified(flat, A, B, v, quads, t):
    # specs drawn as perfbench/specgen.py draws them (A > 0 holds the
    # domain triple; a, b > 0, d >= 0 hold the quad constraints), or on the
    # flat branch A = v = 0 < B, with S of either sign, so that the integral
    # can come out below the largest term and take the widened window: its
    # certified left-out mass is at most 1e-18 of its value, and a window
    # that raises fails the case
    if flat:
        A, B, v = 0.0, abs(B) + 0.05, 0.0
    series, _ = normalize(ProductSpec.make(
        A, B, v, [(a, b, c, d, sign * s) for a, b, c, d, s, sign in quads]))
    r = integral(series, t)
    assert r.cut_mass_log <= r.log_value + LN_EPS
