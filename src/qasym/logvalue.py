"""Sign + log-magnitude representation of real numbers.

Series values in this package reach exp(pi^2/(5t)) and beyond, which
overflows binary64 long before the interesting t range ends, so every
externally visible value is carried as a LogValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .specfun import polylog


def _sign(x: float) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


@dataclass(frozen=True)
class LogValue:
    """A real number r stored as (sign(r), log|r|)."""

    sign: int
    log_abs: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0, -math.inf)

    @staticmethod
    def one() -> "LogValue":
        return LogValue(1, 0.0)

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if x == 0.0:
            return LogValue.zero()
        return LogValue(_sign(x), math.log(abs(x)))

    @staticmethod
    def from_log(log_abs: float, sign: int = 1) -> "LogValue":
        if sign == 0:
            return LogValue.zero()
        return LogValue(sign, log_abs)

    def is_zero(self) -> bool:
        return self.sign == 0

    def to_float(self) -> float:
        """Plain binary64 value; overflows to +-inf past ~1e308."""
        if self.sign == 0:
            return 0.0
        if self.log_abs > 709.0:
            return math.inf * self.sign
        return self.sign * math.exp(self.log_abs)

    def __neg__(self) -> "LogValue":
        return LogValue(-self.sign, self.log_abs)

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0 or other.sign == 0:
            return LogValue.zero()
        return LogValue(self.sign * other.sign, self.log_abs + other.log_abs)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        big, small = (self, other) if self.log_abs >= other.log_abs else (other, self)
        d = small.log_abs - big.log_abs  # <= 0
        if self.sign == other.sign:
            return LogValue(big.sign, big.log_abs + math.log1p(math.exp(d)))
        # opposite signs: |big| - |small|
        if d == 0.0:
            return LogValue.zero()
        return LogValue(big.sign, big.log_abs - polylog(1, -d))   # log(1 - e^d)

    def __sub__(self, other: "LogValue") -> "LogValue":
        return self + (-other)
