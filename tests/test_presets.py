import math

import pytest

from oracles import dilog, qpoch_inf
from qasym.cli import grid_rows
from qasym.expansion import analyse
from qasym.phase import check_hypothesis, phase_value, stationary_points
from qasym.presets import (F0_ZETA, get_preset, preset_rphis, preset_simple_r)
from qasym.qseries import normalize

ALL = ["ramanujan", "f0", "phi-minus", "rphis", "simple-r", "euler", "euler-b2"]


def _row(p, t, *routes):
    # preset p's (total log, record) per route at t, from the CLI's grid driver
    an = analyse(p.series, p.prefactor) if "asym" in routes else None
    return next(grid_rows(p.series, p.prefactor, p.q_power, [t], routes, an=an))


@pytest.mark.parametrize("name", ALL)
def test_hypothesis_holds(name):
    p = get_preset(name)
    assert check_hypothesis(p.series)


@pytest.mark.parametrize("name", ALL)
def test_engine_matches_reference_law(name):
    p = get_preset(name)
    [(_, r)] = _row(p, 0.02, "asym")
    assert r.rate == pytest.approx(p.reference.rate, abs=1e-10)
    assert r.t_power == pytest.approx(p.reference.t_power, abs=1e-12)
    assert r.log_constant == pytest.approx(p.reference.log_constant, abs=1e-9)


@pytest.mark.parametrize("name", ALL)
def test_asym_approaches_series(name):
    p = get_preset(name)
    devs = []
    for t in (0.05, 0.025):
        [(s, _), (_, a)] = _row(p, t, "sum", "asym")
        devs.append(abs(math.exp(s - a.log_value) - 1.0))
    # exact-zero ties mean both routes agree to every bit (euler)
    assert devs[1] < devs[0] or devs == [0.0, 0.0]


def _log_sum_exp(logs):
    mx = max(logs)
    return mx + math.log(sum(math.exp(v - mx) for v in logs))


class TestRamanujan:
    def test_definition_series_matches_brute_force(self):
        # brute force on q^(m(m+1)/2)/(q;q)_m^2; its terms fall like
        # e^(-m^2 t/2), so 20/t of them leave nothing a double can hold.
        # Measured gap: 1.9e-13 at t = 0.02, 1.0e-12 at t = 0.01.
        p = get_preset("ramanujan")
        for t in (0.02, 0.01):
            q = math.exp(-t)
            logpoch = 0.0
            logs = []
            for m in range(math.ceil(20 / t)):
                if m:
                    logpoch += math.log1p(-q ** m)
                logs.append(-0.5 * m * (m + 1) * t - 2.0 * logpoch)
            assert _row(p, t, "sum")[0][0] == pytest.approx(_log_sum_exp(logs), abs=1e-11)

    def test_normalization(self):
        p = get_preset("ramanujan")
        term = p.series.terms[0]
        assert (term.alpha, term.beta, term.gamma, term.S) == (1, 1, 1, -2.0)

    def test_total_rate_decomposition(self):
        # pi^2/3 from the prefactor, -2 pi^2/15 from the peak
        p = get_preset("ramanujan")
        sp = stationary_points(p.series)[0]
        assert math.pi ** 2 / 3.0 + sp.h_value == pytest.approx(
            math.pi ** 2 / 5.0, abs=1e-13)


class TestF0:
    def test_zeta_closed_form(self):
        p = get_preset("f0")
        sp = stationary_points(p.series)[0]
        assert abs(sp.u - F0_ZETA) <= 1e-10

    def test_cubic_residual(self):
        x = math.exp(-F0_ZETA)
        assert abs(x ** 3 + 2 * x ** 2 - x - 1) <= 1e-12

    def test_phase_identity_pointwise(self):
        # -u^2 - Li2(e^{-2u}) + Li2(e^{-u})
        p = get_preset("f0")
        for u in (0.1, 0.5, 1.0, 2.0):
            direct = -u * u - dilog(math.exp(-2 * u)) + dilog(math.exp(-u))
            assert abs(phase_value(p.series, -1, u) - direct) <= 1e-13

    def test_empty_prefactor(self):
        assert get_preset("f0").prefactor == ()


class TestPhiMinus:
    def test_leading_phase_identity(self):
        # (Li2(e^{-4u}) - 3 Li2(e^{-2u}))/2
        p = get_preset("phi-minus")
        for u in (0.2, 0.7, 1.5):
            direct = (dilog(math.exp(-4 * u)) - 3 * dilog(math.exp(-2 * u))) / 2
            assert abs(phase_value(p.series, -1, u) - direct) <= 1e-13

    def test_no_interior_peak(self):
        p = get_preset("phi-minus")
        assert stationary_points(p.series) == []

    def test_definition_series_matches_rewrite(self):
        # brute force on q^m (-q;q)_{2m-1}/(q;q^2)_m; its terms fall like
        # q^m = e^(-mt) once the products settle, so 50/t of them (at least
        # 2000) leave a tail below e^(-40) of the sum.
        p = get_preset("phi-minus")
        for t in (0.05, 0.02, 0.01):
            q = math.exp(-t)
            lognum = logden = 0.0
            logs = []
            for m in range(1, max(2000, math.ceil(50 / t))):
                if m == 1:
                    lognum = math.log1p(q)
                    logden = math.log1p(-q)
                else:
                    lognum += math.log1p(q ** (2 * m - 2)) + math.log1p(q ** (2 * m - 1))
                    logden += math.log1p(-q ** (2 * m - 1))
                logs.append(-m * t + lognum - logden)
            assert _row(p, t, "sum")[0][0] == pytest.approx(_log_sum_exp(logs), abs=1e-11)


class TestRphis:
    def test_stationary_point_v0(self):
        p = get_preset("rphis")
        sp = stationary_points(p.series)[0]
        assert sp.u == pytest.approx(math.log(2.0), abs=1e-13)

    def test_stationary_point_general_v(self):
        p = preset_rphis((1.0,), (1.0, 1.0), 0.5)
        sp = stationary_points(p.series)[0]
        assert sp.u == pytest.approx(math.log1p(math.exp(0.5)), abs=1e-12)

    def test_identity_two_qpochhammer(self):
        # sum q^(k(k-1)/2)/(q;q)_k = (-1;q)_inf = 2 (-q;q)_inf
        p = get_preset("rphis")
        t = 0.05
        q = math.exp(-t)
        ref = (math.log(2.0) + qpoch_inf(q * q, q * q)
               - qpoch_inf(q, q))   # (-q;q)_inf = (q^2;q^2)/(q;q)
        assert _row(p, t, "sum")[0][0] == pytest.approx(ref, abs=1e-10)

    def test_v0_constant_sqrt2(self):
        p = get_preset("rphis")
        assert math.exp(p.reference.log_constant) == pytest.approx(
            math.sqrt(2.0), rel=1e-14)

    def test_nonzero_t_power_instance(self):
        # lower parameters (1, 2): the law picks up (2t)^1, i.e. constant
        # 2 sqrt 2 and t_power 1
        p = preset_rphis((1.0,), (1.0, 2.0), 0.0)
        assert p.reference.t_power == pytest.approx(1.0)
        assert math.exp(p.reference.log_constant) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-13)
        [(_, r)] = _row(p, 0.02, "asym")
        assert r.t_power == pytest.approx(1.0)
        assert r.log_constant == pytest.approx(p.reference.log_constant,
                                               abs=1e-10)
        [(s, _)] = _row(p, 0.02, "sum")
        assert math.exp(s - r.log_value) == pytest.approx(1.0,
                                                                      abs=0.02)


class TestSimpleR:
    def test_stationary_equation_residual(self):
        p = get_preset("simple-r")
        sp = stationary_points(p.series)[0]
        x = math.exp(-sp.u)
        # default parameters: exponents 2A/(EG) = 2 and DE = 1
        assert abs(x ** 2 + x - 1.0) <= 1e-12

    def test_rogers_ramanujan_rate(self):
        assert get_preset("simple-r").reference.rate == pytest.approx(
            math.pi ** 2 / 15.0, abs=1e-14)

    def test_reduces_to_ramanujan(self):
        red = preset_simple_r(0.5, 0.5, 1, 1, 1, 0, 2)
        ram = get_preset("ramanujan")
        sp_red = stationary_points(red.series)[0]
        sp_ram = stationary_points(ram.series)[0]
        assert sp_red.u == pytest.approx(sp_ram.u, abs=1e-12)
        assert red.reference.rate == pytest.approx(ram.reference.rate, abs=1e-12)
        assert red.reference.log_constant == pytest.approx(
            ram.reference.log_constant, abs=1e-12)

    def test_t_power_formula(self):
        A, B, C, D, E, F, G = 1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 2
        p = preset_simple_r(A, B, C, D, E, F, G)
        assert p.reference.t_power == pytest.approx(C * G / D - (G + 1) / 2.0)

    def test_modulus_two_instance_consistent(self):
        # engine vs reference for D = 2 exercises the modulus-power constant
        p = preset_simple_r(1.0, 0.0, 1.0, 2.0, 1.0, 0.0, 1)
        [(_, r)] = _row(p, 0.02, "asym")
        assert r.rate == pytest.approx(p.reference.rate, abs=1e-12)
        assert r.log_constant == pytest.approx(p.reference.log_constant, abs=1e-9)
        [(s, _)] = _row(p, 0.02, "sum")
        assert math.exp(s - r.log_value) == pytest.approx(1.0, abs=0.02)


class TestNormalizeConsistency:
    @pytest.mark.parametrize("name", ["ramanujan", "f0", "rphis", "simple-r"])
    def test_product_normalizes_to_series(self, name):
        p = get_preset(name)
        assert p.product is not None
        series, pref = normalize(p.product)
        assert series == p.series
        assert pref == p.prefactor
