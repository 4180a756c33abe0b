import math
import random

from qasym.logvalue import LogValue


def test_zero_one():
    assert LogValue.zero().is_zero()
    assert LogValue.one().to_float() == 1.0
    assert LogValue.from_float(0.0).sign == 0


def test_roundtrip_exp_consistency():
    # converting to a plain real and back moves log_abs by <= 1e-12
    rng = random.Random(1234)
    for _ in range(500):
        log = rng.uniform(-690, 690)
        sign = rng.choice([-1, 1])
        lv = LogValue.from_log(log, sign)
        back = LogValue.from_float(lv.to_float())
        assert back.sign == sign
        assert abs(back.log_abs - log) <= 1e-12 * max(1.0, abs(log))


def test_arithmetic_matches_floats():
    rng = random.Random(99)
    for _ in range(500):
        x = rng.uniform(-50.0, 50.0)
        y = rng.uniform(-50.0, 50.0)
        if x == 0.0 or y == 0.0:
            continue
        lx, ly = LogValue.from_float(x), LogValue.from_float(y)
        assert math.isclose((lx * ly).to_float(), x * y, rel_tol=1e-13)
        if x + y != 0.0:
            s = (lx + ly).to_float()
            assert math.isclose(s, x + y, rel_tol=1e-10, abs_tol=1e-12)
        d = (lx - ly).to_float()
        if x - y != 0.0:
            assert math.isclose(d, x - y, rel_tol=1e-10, abs_tol=1e-12)


def test_add_beyond_float_range():
    # e^1000 + e^999 stays finite in log space
    a = LogValue.from_log(1000.0)
    b = LogValue.from_log(999.0)
    s = a + b
    assert s.sign == 1
    assert math.isclose(s.log_abs, 1000.0 + math.log1p(math.exp(-1.0)),
                        rel_tol=1e-15)


def test_cancellation_to_zero():
    a = LogValue.from_log(3.5)
    assert (a - a).is_zero()
    assert (a + (-a)).is_zero()

