import json
import math
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import qasym.phase as phase
from qasym.cli import load_spec
from qasym.errors import ConvergenceError, DomainError, QasymError
from qasym.phase import (check_hypothesis, phase_deriv, phase_value,
                         search_upper_bound, stationary_points)
from qasym.presets import PRESETS, get_preset
from qasym.qseries import SeriesSpec, log_summand, log_summand_deriv

RAM = SeriesSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, -2)])
F0 = SeriesSpec.make(1.0, 0.0, 0.0, [(2, 1, 1, -1), (1, 1, 1, 1)])
EULER = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])

DATA = Path(__file__).parent / "data"
DATA_SPECS = sorted(DATA.glob("*.json"))

GOLDEN_U = 2.0 * math.log((1.0 + math.sqrt(5.0)) / 2.0)


class TestFalpha:
    def test_sign_convention_ramanujan(self):
        assert RAM.falpha == ((1.0, 2.0),)

    def test_f0_coefficients(self):
        assert F0.falpha == ((1.0, -1.0), (2.0, 1.0))

    def test_merge_same_alpha(self):
        spec = SeriesSpec.make(1.0, 0.0, 0.0, [(1, 1, 1, 1.0), (1, 2, 1, 2.0)])
        assert spec.falpha == ((1.0, -2.0),)


class TestPhaseValue:
    def test_golden_ratio_value(self):
        # Landen value: leading phase at the golden-ratio point is -2 pi^2/15
        assert phase_value(RAM, -1, GOLDEN_U) == pytest.approx(
            -2.0 * math.pi ** 2 / 15.0, abs=1e-14)

    def test_level0_vanishes_at_peak(self):
        assert abs(phase_value(RAM, 0, GOLDEN_U)) <= 1e-14

    def test_large_u_tail(self):
        # polynomial part survives, dilogarithms die off
        spec = SeriesSpec.make(1.0, 2.0, -0.5, [(1, 1, 1, 1)])
        u = 60.0
        assert phase_value(spec, -1, u) == pytest.approx(-0.5 * u - u * u, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            phase_value(RAM, -1, 0.0)


class TestPhaseDeriv:
    def test_slope_zero_at_golden_point(self):
        assert abs(phase_deriv(RAM, 1, GOLDEN_U)) <= 1e-12

    def test_curvature_minus_sqrt5(self):
        assert phase_deriv(RAM, 2, GOLDEN_U) == pytest.approx(
            -math.sqrt(5.0), rel=1e-13)

    def test_finite_difference_cross_check(self):
        u = 0.7
        f = lambda x: phase_value(F0, -1, x)

        def stencil(k, h):
            if k == 1:
                return (f(u + h) - f(u - h)) / (2 * h)
            if k == 2:
                return (f(u + h) - 2 * f(u) + f(u - h)) / h ** 2
            return (f(u + 2 * h) - 2 * f(u + h) + 2 * f(u - h) - f(u - 2 * h)) \
                / (2 * h ** 3)

        # Richardson-extrapolated stencils; step balances truncation against
        # the h^-k roundoff blowup of the higher orders
        steps = {1: 1e-4, 2: 2e-3, 3: 8e-3}
        for k in (1, 2, 3):
            h = steps[k]
            fd = (4 * stencil(k, h / 2) - stencil(k, h)) / 3
            an = phase_deriv(F0, k, u)
            assert abs(an - fd) <= 1e-7 * max(1.0, abs(an))


class TestPhasePrecision:
    # Li_s taken at w = alpha u keeps every digit as u -> 0; taken at
    # x = e^-w, 1 - x keeps only those of w that survive the rounding of x
    @staticmethod
    def _li1(w):
        return -mp.log1p(-mp.exp(-w))

    @pytest.mark.parametrize("spec", [RAM, F0], ids=["ramanujan", "f0"])
    @pytest.mark.parametrize("u", [1e-4, 1e-8, 1e-12])
    def test_against_mpmath(self, spec, u):
        with mp.workdps(40):
            U = mp.mpf(u)
            slope = float(spec.v - 2 * mp.mpf(spec.A) * U + sum(
                mp.mpf(a) * f * self._li1(a * U) for a, f in spec.falpha))
            level0 = float(-sum((mp.mpf(p.gamma) / p.beta - mp.mpf(0.5)) * p.S
                                * self._li1(p.alpha * U) for p in spec.terms)
                           - spec.B * U)
        assert abs(phase_deriv(spec, 1, u) - slope) <= 2 * math.ulp(slope)
        assert abs(phase_value(spec, 0, u) - level0) <= 32 * math.ulp(level0)

    @pytest.mark.parametrize("spec", [RAM, F0, EULER], ids=["ramanujan", "f0", "euler"])
    def test_array_matches_scalars(self, spec):
        u = np.geomspace(1e-8, 800.0, 60)
        for k in (1, 2, 5, 16):
            got = phase_deriv(spec, k, u)
            for ui, gi in zip(u, got):
                want = phase_deriv(spec, k, float(ui))
                assert abs(gi - want) <= 2 * math.ulp(want)


class TestHypothesis:
    def test_ramanujan_limit_branch(self):
        rep = check_hypothesis(RAM)
        assert rep and rep.branch == "limit" and rep.slope_sum == pytest.approx(2.0)

    def test_f0_positive(self):
        rep = check_hypothesis(F0)
        assert rep and rep.slope_sum == pytest.approx(1.0)

    def test_rejection(self):
        spec = SeriesSpec.make(0.0, 0.0, -1.0, [(1, 1, 1, 1)])
        rep = check_hypothesis(spec)
        assert not rep

    @pytest.mark.parametrize("v", [0.3, -0.3])
    def test_balanced_case_partial_theta(self, v):
        # H(u) = v u - u^2/2: the slope's limit v at 0+ decides, though for
        # v = 0.3 it is negative from u = 0.3 on
        rep = check_hypothesis(SeriesSpec(0.5, 0.0, v, ()))
        assert bool(rep) == (v > 0) and rep.branch == "limit"

    def test_balanced_limit_with_terms(self):
        # alpha_j f_j = 2 - 2 cancels; the slope tends to v + 2 log 2 at 0+
        spec = SeriesSpec.make(0.5, 0.0, -1.0, [(1, 1, 1, -2), (2, 1, 1, 1)])
        limit = -1.0 + 2.0 * math.log(2.0)
        assert phase_deriv(spec, 1, 1e-9) == pytest.approx(limit, rel=1e-6)
        rep = check_hypothesis(spec)
        assert rep and rep.branch == "limit" and rep.slope_sum == 0.0

    def test_balanced_case_sampled(self):
        # no Pochhammer slope at all: pure Gaussian decreases from 0
        spec = SeriesSpec(1.0, 0.0, 0.0, ())
        rep = check_hypothesis(spec)
        assert not rep and rep.branch == "series" and "u^1" in rep.detail

    @staticmethod
    def _balanced(A):
        # alpha_j f_j = -2 + 2 and the limit v - 2 log 2 both vanish; the
        # slope is (1 - 2A) u - u^2/4 + O(u^4) at 0+
        return SeriesSpec.make(A, 0.0, 2.0 * math.log(2.0),
                               [(1, 1, 1, 2), (2, 1, 1, -1)])

    @pytest.mark.parametrize("A, increasing, power",
                             [(0.48, True, "u^1"), (0.5, False, "u^2"),
                              (0.52, False, "u^1")])
    def test_balanced_slope_series(self, A, increasing, power):
        # decided by the first coefficient of the slope's series at 0+, not
        # by samples: at A = 0.48 the slope is positive only below u = 0.16
        rep = check_hypothesis(self._balanced(A))
        assert bool(rep) == increasing and rep.branch == "series"
        assert f"{power} at 0+" in rep.detail

    @pytest.mark.parametrize("A", [0.48, 0.5, 0.52])
    def test_balanced_series_matches_slope(self, A):
        spec = self._balanced(A)
        for u in (1e-3, 1e-2):
            assert phase_deriv(spec, 1, u) == pytest.approx(
                (1.0 - 2.0 * A) * u - 0.25 * u * u, abs=1e-8)

    def test_flat_slope_passes(self):
        # A = v = 0 and no Pochhammer term: the phase is identically 0
        rep = check_hypothesis(SeriesSpec(0.0, 1.0, 0.0, ()))
        assert rep and rep.branch == "series" and "vanishes" in rep.detail


class TestStationaryPoints:
    def test_ramanujan_point(self):
        sps = stationary_points(RAM)
        assert len(sps) == 1
        sp = sps[0]
        assert sp.u == pytest.approx(GOLDEN_U, abs=1e-13)
        assert sp.order == 1
        assert sp.h2m == pytest.approx(-math.sqrt(5.0), rel=1e-12)
        assert sp.log_c_u == pytest.approx(0.5 * math.log(2 * math.pi / math.sqrt(5.0)),
                                           abs=1e-12)

    def test_f0_zeta(self):
        closed = -math.log((2.0 / 3.0) * math.sqrt(7.0)
                           * math.cos(math.acos(-1.0 / (2.0 * math.sqrt(7.0))) / 3.0)
                           - 2.0 / 3.0)
        sps = stationary_points(F0)
        assert len(sps) == 1
        assert sps[0].u == pytest.approx(closed, abs=1e-10)

    def test_euler_empty(self):
        assert stationary_points(EULER) == []

    def test_local_max_property(self):
        for spec in (RAM, F0):
            for sp in stationary_points(spec):
                d = 1e-6 * max(1.0, sp.u)
                assert (phase_deriv(spec, 1, sp.u - d) > 0
                        > phase_deriv(spec, 1, sp.u + d))

    def test_argmax_invariant_under_scaling(self):
        # scaling every S (and A, v) by lambda > 0 rescales the phase linearly
        lam = 3.0
        scaled = SeriesSpec.make(lam * 0.5, 0.5, 0.0, [(1, 1, 1, -2 * lam)])
        u0 = stationary_points(RAM)[0].u
        u1 = stationary_points(scaled)[0].u
        assert abs(u0 - u1) <= 1e-10


@st.composite
def decreasing_specs(draw):
    """1-3 terms of either sign on a branch whose slope ends negative:
    A > 0, or A = 0 and v < 0."""
    terms = draw(st.lists(st.tuples(
        st.floats(0.2, 4.0), st.floats(0.2, 3.0), st.floats(0.3, 2.0),
        st.floats(0.25, 5.0) | st.floats(-5.0, -0.25)), min_size=1, max_size=3))
    if draw(st.booleans()):
        A, v = draw(st.floats(0.01, 2.0)), draw(st.floats(-3.0, 3.0))
    else:
        A, v = 0.0, draw(st.floats(-3.0, -0.01))
    return SeriesSpec.make(A, draw(st.floats(-1.0, 1.0)), v, terms)


class TestSearchBound:
    @settings(max_examples=60, deadline=None)
    @given(spec=decreasing_specs())
    # two maxima on the v < 0 branch, at u = 0.75 and 1.64
    @example(spec=SeriesSpec.make(0.0, 0.0, -0.47, [(0.66, 1, 1, -2.7),
                                                    (2.0, 1, 1, 3.9),
                                                    (3.5, 1, 1, -2.9)]))
    def test_bound_is_a_bound(self, spec):
        # past the bound the slope is negative, which is all that
        # stationary_points needs; every + -> - sign change of a dense
        # sample below 4 u_hi brackets a maximum that it found
        u_hi = search_upper_bound(spec)
        slope = phase_deriv(spec, 1, np.geomspace(u_hi, 100.0 * u_hi, 64))
        assert np.all(slope < 0.0)
        u = np.r_[np.geomspace(1e-8, 1.0, 2000, endpoint=False),
                  np.linspace(1.0, 4.0 * u_hi, 4000)]
        s = phase_deriv(spec, 1, u)
        found = [sp.u for sp in stationary_points(spec)]
        for i in np.flatnonzero((s[:-1] > 0.0) & (s[1:] <= 0.0)):
            assert any(u[i] <= x <= u[i + 1] for x in found)

    @staticmethod
    def _assert_maxima_keep_their_bits(spec):
        # the bound before the |f|/u argument grew like 1/A: each maximum,
        # and each error, is the same under either
        def old_bound(s):
            return ((abs(s.v) + sum(abs(f) for _, f in s.falpha) * math.pi ** 2 / 6.0
                     + 1.0) / s.A + 1.0) if s.A > 0 else search_upper_bound(s)

        def maxima():
            try:
                return repr(stationary_points(spec))
            except QasymError as e:
                return repr(e)
        new = maxima()
        with mock.patch.object(phase, "search_upper_bound", old_bound):
            assert maxima() == new

    @settings(max_examples=30, deadline=None)
    @given(spec=decreasing_specs())
    def test_maxima_keep_their_bits(self, spec):
        self._assert_maxima_keep_their_bits(spec)

    @pytest.mark.parametrize("name", [*sorted(PRESETS), *(p.name for p in DATA_SPECS)])
    def test_maxima_keep_their_bits_on_presets_and_data(self, name):
        self._assert_maxima_keep_their_bits(
            get_preset(name).series if name in PRESETS else load_spec(str(DATA / name))[0])

    def test_small_A_is_quick_or_refused(self):
        # the old bound's grid took 1.4 s and 439 MB at A = 1e-5 on this
        # spec, and ran out of memory at A = 1e-8
        start = time.perf_counter()
        assert len(stationary_points(SeriesSpec.make(1e-5, 0, 0, [(1, 1, 1, -1)]))) == 1
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ConvergenceError, match=r"over 2\^22 points to the bound u = 707108$"):
            stationary_points(SeriesSpec.make(1e-12, 0, 0, [(1, 1, 1, -1)]))

    def test_v_negative_bound(self):
        # A = 0, v = -1 and f = 2 at alpha = 1: the one part is below |v|
        # past log1p(2), and the bound adds 1
        spec = SeriesSpec.make(0.0, 0.0, -1.0, [(1, 1, 1, -2)])
        assert search_upper_bound(spec) == math.log1p(2.0) + 1.0


def _sources():
    return ([get_preset(name).series for name in sorted(PRESETS)]
            + [load_spec(str(path))[0] for path in DATA_SPECS])


@st.composite
def grid_bounds(draw):
    # one term of drawn alpha, and a bound u_hi from below 1 up to 2^20 steps
    alpha = draw(st.floats(0.05, 20.0))
    step = 0.05 * min(1.0, 1.0 / alpha)
    return (SeriesSpec.make(0.5, 0.0, 0.0, [(alpha, 1.0, 1.0, -1.0)]),
            draw(st.floats(0.3, 1.0 + step * (1 << 20))))


class TestGridAndBisection:
    """``_grid`` and ``_bisect`` against the loops they replaced
    (``oracles.grid_loop`` and ``oracles.bisect_loop``): the same floats."""

    @staticmethod
    def _assert_maxima_are_the_loops(spec):
        def maxima():
            try:
                return repr(stationary_points(spec))
            except QasymError as e:
                return repr(e)
        new = maxima()
        with mock.patch.object(phase, "_bisect", oracles.bisect_loop):
            assert maxima() == new

    @pytest.mark.parametrize("spec", [*_sources(), *(
        SeriesSpec.make(A, 0.0, 0.0, [(1, 1, 1, -1)]) for A in (1e-3, 1e-5, 1e-7))])
    def test_grid_is_the_loops(self, spec):
        u_hi = search_upper_bound(spec)
        assert phase._grid(spec, 1e-8, u_hi).tolist() == oracles.grid_loop(spec, 1e-8, u_hi)

    @settings(max_examples=100, deadline=None)
    @given(bounds=grid_bounds())
    @example(bounds=(RAM, 1.0))
    @example(bounds=(RAM, 0.5))
    def test_grid_is_the_loops_on_drawn_bounds(self, bounds):
        spec, u_hi = bounds
        assert phase._grid(spec, 1e-8, u_hi).tolist() == oracles.grid_loop(spec, 1e-8, u_hi)

    def test_large_grid_is_quick(self):
        # A = 1.5e-11 on one quad: bound u = 182,575, 3.65M points, built in
        # a child process; the list loop took 0.5-1.0 s and 140 MB for the list
        code = ("import json, resource, time\n"
                "from qasym.phase import _grid, search_upper_bound\n"
                "from qasym.qseries import SeriesSpec\n"
                "spec = SeriesSpec.make(1.5e-11, 0, 0, [(1, 1, 1, -1)])\n"
                "u_hi = search_upper_bound(spec)\n"
                "rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
                "start = time.perf_counter()\n"
                "n = len(_grid(spec, 1e-8, u_hi))\n"
                "print(json.dumps([time.perf_counter() - start, n, (resource.getrusage(\n"
                "    resource.RUSAGE_SELF).ru_maxrss - rss) / 1024]))\n")
        cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            timeout=120)
        assert cp.returncode == 0, cp.stderr
        seconds, points, rss_mb = json.loads(cp.stdout)
        assert points == 3651758
        assert seconds < 0.4 and rss_mb < 100

    @pytest.mark.parametrize("spec", _sources())
    def test_maxima_are_the_loops(self, spec):
        self._assert_maxima_are_the_loops(spec)

    @settings(max_examples=300, deadline=None)
    @given(spec=decreasing_specs())
    def test_maxima_are_the_loops_on_drawn_specs(self, spec):
        self._assert_maxima_are_the_loops(spec)

    @pytest.mark.parametrize("spec", [*_sources(), SeriesSpec.make(
        0.0, 0.0, -0.47, [(0.66, 1, 1, -2.7), (2.0, 1, 1, 3.9), (3.5, 1, 1, -2.9)])])
    def test_bracket_costs_few_slope_calls(self, spec):
        # slope calls per bracket's bisection; the loop made about 46
        calls, per_bracket, slope, bisect = [0], [], phase.phase_deriv, phase._bisect

        def spy(*args):
            calls[0] += 1
            return slope(*args)

        def spy_bisect(*args):
            before = calls[0]
            u = bisect(*args)
            per_bracket.append(calls[0] - before)
            return u

        with mock.patch.object(phase, "phase_deriv", spy), \
                mock.patch.object(phase, "_bisect", spy_bisect):
            try:
                found = len(stationary_points(spec))
            except QasymError:      # a bracket that bisects to a degenerate point
                found = 1
        assert len(per_bracket) == found and all(n <= 10 for n in per_bracket), per_bracket


class TestScalingConsistency:
    def test_leading_term(self):
        # t * log_summand(u/t) -> phase(-1); error ~ t * phase(0), halving
        u = 0.7
        target = phase_value(F0, -1, u)
        errs = [abs(t * log_summand(F0, u / t, t) - target)
                for t in (0.1, 0.05, 0.025)]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(1.5 < r < 2.5 for r in ratios)

    def test_first_derivative_second_order(self):
        # log_summand' = phase' + t * (d/du)phase(0) + O(t^2)
        s = F0
        u = 0.7

        def h0prime(uu):
            out = -s.B
            for p in s.terms:
                out += ((p.gamma / p.beta - 0.5) * p.S * p.alpha
                        * math.exp(-p.alpha * uu) / (1 - math.exp(-p.alpha * uu)))
            return out

        base = phase_deriv(F0, 1, u)
        errs = [abs(log_summand_deriv(s, 1, u / t, t) - base - t * h0prime(u))
                for t in (0.1, 0.05, 0.025)]
        ratios = [errs[0] / errs[1], errs[1] / errs[2]]
        assert all(3.0 < r < 5.0 for r in ratios)   # O(t^2) Richardson signature
