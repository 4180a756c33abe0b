"""Exception taxonomy shared by every qasym module.

The CLI maps these onto exit statuses: SpecError -> 1, HypothesisError -> 2,
everything else derived from QasymError -> 3.
"""

from __future__ import annotations


class QasymError(Exception):
    """Base class for all qasym errors."""


class DomainError(QasymError):
    """Argument outside the mathematical domain of an operation."""


class IndexOverflowError(QasymError):
    """Requested order exceeds a precomputed table's size."""


class ConvergenceError(QasymError):
    """A series, product or quadrature failed (or would fail) to converge."""


class SpecError(QasymError):
    """Invalid series description: violated invariant or unparseable input."""


class HypothesisError(QasymError):
    """The increasing-near-zero hypothesis fails; asymptotics are refused."""


class DegenerateError(QasymError):
    """A stationary point (or expansion branch) could not be classified."""


class SignError(QasymError):
    """Peak-width normalizer undefined: even derivative has the wrong sign."""
