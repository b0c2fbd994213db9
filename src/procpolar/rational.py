"""Exact rational parsing, formatting, coercion and the one rational kernel.

Every number in this library is a ``fractions.Fraction``.  Floats are
rejected everywhere: the library's claims are exact set equalities and a
single rounded value would silently turn them into approximations.

This is the one module that builds ``Fraction`` objects from their parts
and reads their ``_numerator`` and ``_denominator`` slots.  :func:`fraction`
is ``Fraction(n, d)`` for two ints: one ``gcd``, the sign moved to the
numerator, and the two slots set on a bare ``object.__new__(Fraction)``,
which is how the standard library's own arithmetic builds its results
(``Fraction._from_coprime_ints`` since Python 3.12).  That is safe because
a ``Fraction`` is nothing but those two slots, and a value is the same
value, hash and repr whichever way its slots were set, as long as they
hold the normalised pair (coprime, positive denominator) that
``Fraction(n, d)`` would hold; ``tests/test_rational.py`` checks that
against the constructor on every interpreter the project supports.
:func:`negate` flips the sign of a value already normalised, with no
``gcd``.

:func:`product`, :func:`quotient` and :func:`dot` compute ``a * b``,
``a / b`` and ``sum(a * b)`` on the numerators and denominators as
integers and normalise the result once, where the ``Fraction`` operators
normalise every product and every partial sum (deferred gcds, Knuth,
TAOCP vol. 2, sec. 4.5.1); :func:`dot_sides` brings a sum of products and
one value to integers over one common denominator, so comparing them
compares the rationals.  They return the same normalised ``Fraction`` as
the operators.  They do not coerce: their inputs are Fractions that have
already passed :func:`frac`.

They run wherever values are multiplied, divided, summed or negated: the
process and random-variable calculus and its nonnegativity checks, block
and path probabilities, the polar rows and objectives, the seeded
samplers, the market layer's wealth, wealth-map objectives, solvency
rows, consumption, density processes and system right-hand sides, and the
points, rays and values the exact LP reads off its integer tableau.  A
difference is a :func:`dot` with a ``-1`` weight.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import RationalFormatError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*[1-9]\d*)?$")
_new = object.__new__


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


def format_rational(value: int | str | Fraction) -> str:
    """Canonical text form: ``p/q`` in lowest terms, or a bare integer.

    The value is coerced through :func:`frac`, so a float or a bool is
    refused."""
    value = frac(value)
    if value._denominator == 1:
        return str(value._numerator)
    return f"{value._numerator}/{value._denominator}"


def frac(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction or strict rational string to Fraction.

    Floats are refused rather than converted: passing one is always a bug.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise RationalFormatError(f"cannot use {value!r} as a rational")
    if isinstance(value, int):
        return fraction(value, 1)
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


def fraction(n: int, d: int) -> Fraction:
    """``Fraction(n, d)`` of two ints, built without the constructor;
    ``d == 0`` raises ``ZeroDivisionError`` as the constructor does."""
    g = gcd(n, d)
    if d <= 0:
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        g = -g
    x = _new(Fraction)
    x._numerator = n // g
    x._denominator = d // g
    return x


def negate(x: Fraction) -> Fraction:
    """``-x``: its parts are already coprime, so no ``gcd``."""
    y = _new(Fraction)
    y._numerator = -x._numerator
    y._denominator = x._denominator
    return y


def nonnegative(values: Iterable[Fraction]) -> bool:
    """Whether no value is below 0."""
    for v in values:
        if v._numerator < 0:
            return False
    return True


def product(a: Fraction, b: Fraction) -> Fraction:
    """``a * b``, normalised once."""
    return fraction(a._numerator * b._numerator, a._denominator * b._denominator)


def quotient(a: Fraction, b: Fraction) -> Fraction:
    """``a / b``, normalised once; ``b == 0`` raises ``ZeroDivisionError``."""
    return fraction(a._numerator * b._denominator, a._denominator * b._numerator)


def dot(pairs: Iterable[tuple[Fraction, Fraction]]) -> Fraction:
    """``sum(a * b for a, b in pairs)``, 0 when there are none.

    The numerator is kept over a running lcm of the term denominators and
    the sum is normalised once, at the end."""
    num, den = 0, 1
    for a, b in pairs:
        d = a._denominator * b._denominator
        common = lcm(den, d)
        num = num * (common // den) + a._numerator * b._numerator * (common // d)
        den = common
    return fraction(num, den)


def dot_sides(
    pairs: Iterable[tuple[Fraction, Fraction]], value: Fraction
) -> tuple[int, int]:
    """``dot(pairs)`` and ``value`` as two integers over one common
    denominator, the lcm of ``value``'s and every product's: comparing the
    integers compares the two rationals."""
    terms = [
        (a._numerator * b._numerator, a._denominator * b._denominator)
        for a, b in pairs
    ]
    den = value._denominator
    common = lcm(den, *(d for _, d in terms))
    return (
        sum(n * (common // d) for n, d in terms),
        value._numerator * (common // den),
    )
