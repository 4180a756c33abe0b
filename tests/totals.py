"""A preset's totals through the same functions the CLI's routes call, for
tests that check a preset end to end without a subprocess."""

from qasym.cli import _total
from qasym.expansion import DEFAULT_L, DEFAULT_M, analyse, asym_from_parts
from qasym.qseries import prefactor_exact, series_sum


def series_total(p, t: float):
    """Log of preset p at t by direct summation, as `qasym eval` gives it."""
    return _total(series_sum(p.series, t).log_value, prefactor_exact(p.prefactor, t),
                  p.q_power, t)


def asym(p, t: float, L: int = DEFAULT_L, M: int = DEFAULT_M):
    """AsymptoticResult of preset p at t, as `qasym asym` computes it."""
    return asym_from_parts(analyse(p.series, p.prefactor, M), (t,), L, p.q_power)[0]
