"""Exact rational parsing, formatting and coercion.

Every number in this library is a ``fractions.Fraction``.  Floats are
rejected everywhere: the library's claims are exact set equalities and a
single rounded value would silently turn them into approximations.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable

from .errors import RationalFormatError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*[1-9]\d*)?$")


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal like ``3``, ``-5/7`` or ``1/2``.

    Decimal notation (``0.5``, ``1e-3``) is rejected: exact rationals required.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise RationalFormatError(
            f"exact rationals required (got {text!r}); write p/q or an integer"
        )
    return Fraction(s.replace(" ", ""))


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``p/q`` in lowest terms, or a bare integer."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or strict rational string to Fraction.

    Floats are refused rather than converted: passing one is always a bug.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise RationalFormatError(f"cannot use {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise RationalFormatError(
        f"cannot use {type(value).__name__} {value!r} as an exact rational"
    )


def frac_tuple(values: Iterable[int | str | Fraction]) -> tuple[Fraction, ...]:
    """Coerce each value through :func:`frac` into a tuple.

    A tuple that already holds only Fractions is returned itself, so
    objects built from one another's values share one tuple.
    """
    if type(values) is tuple and all(isinstance(v, Fraction) for v in values):
        return values
    return tuple(map(frac, values))
