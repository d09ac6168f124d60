"""Helpers around exact rationals.

All truth values, distances, and constants in this package are
``fractions.Fraction`` instances; floats are never accepted.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q``, a decimal with finite expansion, or an integer,
    written as a string."""
    if not isinstance(text, str):
        raise ParseError(f"not a rational: {text!r} is not a string")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def format_rational(value: Fraction) -> str:
    """Lowest-terms text form: ``p/q``, or ``p`` when the denominator is 1."""
    return str(Fraction(value))


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
