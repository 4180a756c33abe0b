import math

import pytest

from qasym.errors import DomainError
from qasym.expansion import analyse
from qasym.quad import integral
from qasym.qseries import SeriesSpec, series_sum

GAUSS = SeriesSpec(1.0, 0.0, 0.0, ())
EULER = SeriesSpec.make(0.0, 1.0, 0.0, [(1, 1, 1, -1)])
RAM = SeriesSpec.make(0.5, 0.5, 0.0, [(1, 1, 1, -2)])


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
            s = series_sum(spec, t)
            r = integral(analyse(spec), t, 1e-10)
            devs.append(abs(math.exp(s.log_abs - r.value.log_abs) - 1.0))
        assert devs[0] <= 1e-4
        for d0, d1 in zip(devs, devs[1:]):
            assert d1 < d0 or (d1 == 0.0 and d0 == 0.0)
