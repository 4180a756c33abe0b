import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qasym.quad as quad
from oracles import integral_whole_ladder
from qasym.errors import ConvergenceError, DomainError
from qasym.expansion import analyse
from qasym.logvalue import LogValue
from qasym.presets import PRESETS, get_preset
from qasym.quad import integral
from qasym.qseries import (LN_EPS, ProductSpec, SeriesSpec, log_summand, mass_ladder,
                           normalize, series_sum)

GAUSS = SeriesSpec(1.0, 0.0, 0.0, ())
EULER = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])
RAM = SeriesSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, -2)])
S_POSITIVE = SeriesSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 1)])  # largest at u = 0


class TestClosedForm:
    @pytest.mark.parametrize("t", [0.1, 0.01])
    def test_gaussian(self, t):
        r = integral(analyse(GAUSS), t, 1e-10)
        exact = 0.5 * math.sqrt(math.pi / t)
        assert r.value.to_float() == pytest.approx(exact, rel=1e-10)

    def test_error_estimate_is_a_bound_marker(self):
        r = integral(analyse(GAUSS), 0.1, 1e-10)
        assert r.abs_error_log <= r.value.log_abs + math.log(1e-10) + 1e-9


class TestStability:
    def test_halving_tolerance_consistent(self):
        # tightening never moves the value by more than the two error bounds
        a = integral(analyse(RAM), 0.05, 1e-8)
        b = integral(analyse(RAM), 0.05, 5e-9)
        diff = abs(a.value.to_float() - b.value.to_float())
        bound = math.exp(a.abs_error_log) + math.exp(b.abs_error_log)
        assert diff <= bound + 1e-300

    def test_rel_tol_floor(self):
        with pytest.raises(DomainError):
            integral(analyse(RAM), 0.05, 1e-13)


class TestSumIntegralAgreement:
    def test_euler_near_one(self):
        r = integral(analyse(EULER), 0.05, 1e-10)
        assert r.value.to_float() == pytest.approx(1.0, abs=1e-3)

    @pytest.mark.parametrize("spec", [EULER, RAM], ids=["euler", "ramanujan"])
    def test_deviation_shrinks(self, spec):
        devs = []
        for t in (0.1, 0.05, 0.025):
            s = series_sum(spec, t).value
            r = integral(analyse(spec), t, 1e-10)
            devs.append(abs(math.exp(s.log_abs - r.value.log_abs) - 1.0))
        assert devs[0] <= 1e-4
        for d0, d1 in zip(devs, devs[1:]):
            assert d1 < d0 or (d1 == 0.0 and d0 == 0.0)


class TestNearZeroCut:
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_cut_keeps_bits(self, name):
        # a panel's nodes keep their bits whichever panels share the call,
        # so the panels cut away move no kept value; at t = 1e-4 the window
        # starts above u = 0, leaves out at most 1e-18 of the value and
        # needs fewer panels than the ladder from u = 0
        p = get_preset(name)
        an = analyse(p.series, p.prefactor)
        for t in (0.1, 0.01, 1e-3, 1e-4):
            edges = quad._breakpoints(an, t, 0.0, 2.0)
            f = lambda u: log_summand(p.series, u / t, t)
            vals, errs = quad._gk15(f, edges[:-1], edges[1:])
            for i in range(len(vals)):
                one = quad._gk15(f, edges[i:i + 1], edges[i + 1:i + 2])
                assert (one[0][0], one[1][0]) == (vals[i], errs[i])
        r = integral(an, 1e-4)
        assert r.u_cut > 0.0
        assert r.subdivisions < integral_whole_ladder(an, 1e-4)[2]
        assert r.cut_mass_log <= r.value.log_abs + LN_EPS

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_whole_ladder(self, name):
        # the window leaves out at most 1e-18 of the value, so against the
        # integral over the whole ladder from u = 0 the log moves by at
        # most that share plus both error estimates and round-off
        p = get_preset(name)
        an = analyse(p.series, p.prefactor)
        for t in (0.2, 0.03, 0.01, 1e-3):
            r = integral(an, t)
            want, want_err, _ = integral_whole_ladder(an, t)
            got = r.value.log_abs
            assert r.cut_mass_log <= got + LN_EPS
            bound = (math.exp(r.cut_mass_log - got) + math.exp(r.abs_error_log - got)
                     + math.exp(want_err - got) + 4 * math.ulp(max(abs(got), 1.0)))
            assert abs(got - want) <= bound

    @pytest.mark.parametrize("spec", [GAUSS, S_POSITIVE], ids=["gauss", "s-positive"])
    def test_boundary_hugging_mass_not_cut(self, spec):
        # largest at u = 0, with a width of order sqrt(t) or t: the window
        # starts at u = 0
        an = analyse(spec)
        for t in (1e-2, 1e-3, 1e-4):
            r = integral(an, t)
            assert r.u_cut == 0.0
            assert r.cut_mass_log <= r.value.log_abs + LN_EPS

    def test_window_widened_to_the_integral(self):
        # the S > 0 symbol makes the integral over x smaller than the
        # largest term, and the window at 1e-18 of that term leaves out
        # more than 1e-18 of the integral: it is widened once
        t = 0.01
        r = integral(analyse(S_POSITIVE), t)
        lad = mass_ladder(S_POSITIVE, t)
        _, _, left = lad.window(lad.probe_log)
        by_term = left[np.flatnonzero(left <= lad.probe_log + LN_EPS)[0]]
        assert r.value.log_abs < lad.probe_log
        assert by_term > r.value.log_abs + LN_EPS
        assert r.cut_mass_log <= r.value.log_abs + LN_EPS

    def test_window_never_accepted_uncertified(self, monkeypatch):
        # an integral that keeps coming out smaller than its window's
        # certificate allows raises instead of returning
        calls = []
        adaptive = quad._adaptive

        def shrinking(*args):
            value, err, panels = adaptive(*args)
            calls.append(1)
            return LogValue(1, value.log_abs - 200.0 * len(calls)), err, panels

        monkeypatch.setattr(quad, "_adaptive", shrinking)
        with pytest.raises(ConvergenceError, match="leaves out more than 1e-18"):
            integral(analyse(RAM), 0.01)
        assert len(calls) == 2


@settings(max_examples=60, deadline=None)
@given(A=st.floats(0.25, 1.5), B=st.floats(-0.5, 1.0), v=st.floats(-0.5, 0.5),
       quads=st.lists(st.tuples(st.floats(0.2, 1.5), st.floats(0.75, 1.25),
                                st.floats(1.1, 1.9), st.floats(0.0, 1.0),
                                st.floats(0.25, 1.5), st.sampled_from((1.0, -1.0))),
                      min_size=1, max_size=3),
       t=st.floats(1e-3, 0.45))
def test_random_spec_window_certified(A, B, v, quads, t):
    # specs drawn as perfbench/specgen.py draws them (A > 0 holds the
    # domain triple; a, b > 0, d >= 0 hold the quad constraints), with S of
    # either sign, so that the integral can come out below the largest term
    # and take the widened window: its certified left-out mass is at most
    # 1e-18 of its value, and a window that raises fails the case
    series, _ = normalize(ProductSpec.make(
        A, B, v, [(a, b, c, d, sign * s) for a, b, c, d, s, sign in quads]))
    r = integral(analyse(series), t)
    assert r.cut_mass_log <= r.value.log_abs + LN_EPS
