"""Exact rational parsing, formatting, coercion and product kernels.

Every number in this library is a ``fractions.Fraction``.  Floats are
rejected everywhere: the library's claims are exact set equalities and a
single rounded value would silently turn them into approximations.

:func:`product` and :func:`dot` compute ``a * b`` and ``sum(a * b)`` on the
numerators and denominators as integers and normalise the result once,
where the ``Fraction`` operators normalise every product and every partial
sum (deferred gcds, Knuth, TAOCP vol. 2, sec. 4.5.1).  They return the same
normalised ``Fraction`` as the operators.  They do not coerce: their inputs
are Fractions that have already passed :func:`frac`.

They run wherever values are multiplied or summed: the process and
random-variable calculus, block and path probabilities, the polar rows and
objectives, the seeded samplers, and the market layer's wealth, wealth-map
objectives, consumption, density processes and system right-hand sides.  A
difference there is a :func:`dot` with a ``-1`` weight.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
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


def product(a: Fraction, b: Fraction) -> Fraction:
    """``a * b``, normalised once."""
    return Fraction(a.numerator * b.numerator, a.denominator * b.denominator)


def dot(pairs: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """``sum(a * b for a, b in pairs)``, 0 when there are none.

    The numerator is kept over a running lcm of the term denominators and
    the sum is normalised once, at the end."""
    num, den = 0, 1
    for a, b in pairs:
        d = a.denominator * b.denominator
        common = lcm(den, d)
        num = num * (common // den) + a.numerator * b.numerator * (common // d)
        den = common
    return Fraction(num, den)
