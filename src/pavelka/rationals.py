"""Helpers around exact rationals, and the canonical text they travel
in.

All truth values, distances, and constants in this package are
``fractions.Fraction`` instances; floats are never accepted.  A report
or a file is canonical JSON (``dump_json``) with its rationals as
lowest-terms strings (``format_rational``).
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import EvaluationError, ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


# The most digits a rational's text may hold, counting an exponent's
# magnitude as that many digits: ``1e999999`` would build a million-digit
# integer before anything could refuse it.
RATIONAL_DIGITS = 1000


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, a decimal with finite expansion (an exponent such
    as ``25e-2`` allowed), or an integer, written as a string.  A text
    whose digits and exponent's magnitude add up to more than
    ``RATIONAL_DIGITS`` is refused before any integer is built."""
    if not isinstance(text, str):
        raise ParseError(f"not a rational: {text!r} is not a string")
    if _size(text) > RATIONAL_DIGITS:
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise ParseError(f"rational too large: {shown!r} has more than "
                         f"{RATIONAL_DIGITS} digits, counting its exponent")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def _size(text: str) -> int:
    """The digits of ``text`` before any exponent plus the exponent's
    magnitude, or more than ``RATIONAL_DIGITS`` when the exponent is too
    long to read; a text with no readable exponent, which ``Fraction``
    refuses if it has one, counts its digits only."""
    mantissa, _, exponent = text.lower().partition("e")
    size = sum(map(str.isdecimal, mantissa))
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not exponent.isdecimal():
        return size
    if len(exponent) > len(str(RATIONAL_DIGITS)):
        return RATIONAL_DIGITS + 1
    return size + int(exponent)


def format_rational(value: Fraction) -> str:
    """Lowest-terms text form: ``p/q``, or ``p`` when the denominator is 1.
    A value whose numerator or denominator has more digits than the
    interpreter converts to text raises ``EvaluationError``."""
    value = Fraction(value)
    try:
        return str(value)
    except ValueError as exc:  # past sys.get_int_max_str_digits()
        raise EvaluationError(
            f"rational too large to print: its numerator or denominator "
            f"has more than {sys.get_int_max_str_digits()} digits") from exc


def dump_json(payload) -> str:
    """Canonical JSON text: sorted keys, two-space indent, newline end."""
    import json  # here, so that importing this module loads no json
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def as_fraction(value) -> Fraction:
    """Coerce an int or Fraction; reject floats (no silent rounding).  A
    Fraction comes back as itself: it is immutable."""
    if type(value) is Fraction:
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"exact rational required, got {type(value).__name__}")
    return Fraction(value)


def in_unit_interval(value: Fraction) -> bool:
    """For a ``Fraction``, whose denominator is positive."""
    return 0 <= value.numerator <= value.denominator


def is_dyadic(value: Fraction) -> bool:
    """True when the lowest-terms denominator is a power of two."""
    den = Fraction(value).denominator
    return den & (den - 1) == 0
