import math

import pytest

import qasym.quad as quad
from oracles import integral_whole_ladder
from qasym.errors import DomainError
from qasym.expansion import analyse
from qasym.presets import PRESETS, get_preset
from qasym.quad import integral
from qasym.qseries import SeriesSpec, series_sum

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
    def test_cut_keeps_bits(self, name, monkeypatch):
        # an infinite bound certifies nothing, so the whole ladder is summed
        p = get_preset(name)
        an = analyse(p.series, p.prefactor)
        ts = (0.1, 0.01, 1e-3, 1e-4)
        cut = [integral(an, t) for t in ts]
        monkeypatch.setattr(quad, "log_summand_sup", lambda *args: math.inf)
        for t, r in zip(ts, cut):
            full = integral(an, t)
            assert full.u_cut == 0.0 and full.cut_mass_log == -math.inf
            assert r.value.log_abs == full.value.log_abs
        assert cut[-1].u_cut > 0.0
        assert cut[-1].subdivisions < full.subdivisions
        assert cut[-1].cut_mass_log < cut[-1].value.log_abs + math.log(1e-18)

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_matches_whole_ladder(self, name):
        # the kept panels are summed bottom-up and gmax reads the same
        # edges as the whole ladder did, so the bits match
        p = get_preset(name)
        an = analyse(p.series, p.prefactor)
        for t in (0.2, 0.03, 0.01, 1e-3):
            assert integral(an, t).value.log_abs == integral_whole_ladder(an, t)

    @pytest.mark.parametrize("spec", [GAUSS, S_POSITIVE], ids=["gauss", "s-positive"])
    def test_boundary_hugging_mass_not_cut(self, spec, monkeypatch):
        # largest at u = 0, with a width of order sqrt(t) or t: every rung
        # of the ladder carries mass
        an = analyse(spec)
        ts = (1e-2, 1e-3, 1e-4)
        cut = [integral(an, t) for t in ts]
        monkeypatch.setattr(quad, "log_summand_sup", lambda *args: math.inf)
        for t, r in zip(ts, cut):
            assert r.u_cut == 0.0
            assert r.value.log_abs == integral(an, t).value.log_abs
