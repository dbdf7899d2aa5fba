"""Exception hierarchy for cartanq, and the text of the errors about a number
with more digits than the limit."""

import sys


def int_digit_limit() -> int:
    """CPython's limit on the digits of an integer string; 0 means no limit,
    as on CPython before 3.10.7, which has no such limit."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def digit_limit_message(digits: int) -> str:
    return (
        f"value has {digits} digits, more than the limit of {int_digit_limit()}; "
        "set PYTHONINTMAXSTRDIGITS to raise it"
    )


class CartanQError(Exception):
    """Base class for all cartanq errors."""


class OrderMismatchError(CartanQError):
    """A series' truncation order would be raised, or an order-0 series
    differentiated: both would claim coefficients that are not known."""


class SeriesDomainError(CartanQError):
    """Constant-term requirement of an elementary function violated."""


class NotStrictlyPseudoconvexError(CartanQError):
    """An h or e^{2phi} that is not real or not positive at the chart center,
    or a curvature -D Dbar log h that is not positive there."""


class MalformedDefiningFunctionError(CartanQError):
    """Rigid defining series is not of the shape z*zb + (degree >= 4 terms)."""


class NormalFormViolationError(MalformedDefiningFunctionError):
    """Defining series holds a term that normal form removes: a harmonic
    term, a trace term, or a term z^k zbar or z zbar^k with k >= 3."""


class InvalidFiberPointError(CartanQError):
    """Fiber point with lambda = 0."""


class InsufficientOrderError(CartanQError):
    """Requested verification order exceeds the available exact order."""


class InsufficientProbesError(CartanQError):
    """Calibration probes that are fewer than 3, repeated or zero."""


class CalibrationError(CartanQError):
    """Calibration request for an unknown family, or a probe whose Q;11(0)
    breaks the weight law Q;11(0) = c * eps."""


class ExpressionSyntaxError(CartanQError):
    """Syntax error in an input expression; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class CoefficientFileError(CartanQError):
    """Malformed coefficient file; carries the offending line number."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class QuadratureEvaluationError(CartanQError):
    """Non-finite integrand sample, which carries the offending node, a
    closed-form coefficient outside the float range, or a positive integral
    that rounds to 0.0."""

    def __init__(self, message, node=None):
        super().__init__(message)
        self.node = node
