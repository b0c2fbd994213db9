"""Exact rational parsing, formatting, coercion and the one rational kernel.

Every number in this library is a ``fractions.Fraction``.  Floats are
rejected everywhere: the library's claims are exact set equalities and a
single rounded value would silently turn them into approximations.

This is the one module that turns rationals into integers and back: it
alone builds a ``Fraction`` from its parts, reads its parts and calls its
arithmetic operators.  :func:`fraction` is ``Fraction(n, d)`` for two
ints: one ``gcd``, the sign moved to the numerator, and the two slots set
on a bare ``object.__new__(Fraction)``, which is how the standard
library's own arithmetic builds its results (``Fraction._from_coprime_ints``
since Python 3.12).  That is safe because a ``Fraction`` is nothing but
those two slots, and a value is the same value, hash and repr whichever way
its slots were set, as long as they hold the normalised pair (coprime,
positive denominator) that ``Fraction(n, d)`` would hold;
``tests/test_rational.py`` checks that against the constructor on every
interpreter the project supports.  :func:`negate` and :func:`complement`
(``-x`` and ``1 - x``) need no ``gcd``.

:func:`product`, :func:`quotient`, :func:`scaled`, :func:`mix`,
:func:`differences` and :func:`dot` compute on the numerators and
denominators as integers and normalise the result once, where the
``Fraction`` operators normalise every product and every partial sum
(deferred gcds, Knuth, TAOCP vol. 2, sec. 4.5.1); :func:`differences`
takes its first side as the integer numerator and denominator that
:func:`integers` gives, so a value already in that form is never built
into a ``Fraction``.  :func:`less` compares cross-multiplied integers,
and :func:`nonnegative` and :func:`zero_mask` read the signs of
numerators, with no ``Fraction`` comparison or truth test dispatch.  They
return what the operators return and take Fractions that have passed
:func:`frac`.  A sum or a difference is a :func:`dot` with ``ONE`` and
``MINUS_ONE`` weights.

:func:`parts`, :func:`integers` and :func:`integer_form` take values
apart under the exact LP core's type rule: a ``Fraction`` or an ``int``;
anything else is refused with ``PreconditionError``.  :func:`integers`
brings a sequence to integer numerators over the lcm of its
denominators; a caller that compares such values, or sums of their
products, compares those integers instead (the one-step checks of
:mod:`procpolar.processes` do).  :func:`integer_form` brings a row or an
objective to integers with no intermediate list: the lcm of the
denominators, then the scaled numerators of the nonzero terms.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import PreconditionError, RationalFormatError

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:\s*/\s*[1-9]\d*)?$")
_new = object.__new__

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)


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
        raise RationalFormatError(f"cannot use bool {value!r} as a rational")
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


def complement(x: Fraction) -> Fraction:
    """``1 - x``: ``d - n`` and ``d`` are coprime when ``n`` and ``d`` are,
    so no ``gcd``."""
    y = _new(Fraction)
    y._numerator = x._denominator - x._numerator
    y._denominator = x._denominator
    return y


def nonnegative(values: Iterable[Fraction]) -> bool:
    """Whether no value is below 0."""
    for v in values:
        if v._numerator < 0:
            return False
    return True


def zero_mask(values: Iterable[Fraction]) -> list[bool]:
    """Whether each value is 0, in order."""
    return [not v._numerator for v in values]


def product(a: Fraction, b: Fraction) -> Fraction:
    """``a * b``, normalised once."""
    return fraction(a._numerator * b._numerator, a._denominator * b._denominator)


def less(a: Fraction, b: Fraction) -> bool:
    """``a < b``, by cross-multiplied parts."""
    return a._numerator * b._denominator < b._numerator * a._denominator


def scaled(a: Fraction, b: Fraction, c: Fraction) -> Fraction:
    """``a * b / c``, normalised once; ``c == 0`` raises ``ZeroDivisionError``."""
    return fraction(
        a._numerator * b._numerator * c._denominator,
        a._denominator * b._denominator * c._numerator,
    )


def mix(w: Fraction, a: Fraction, b: Fraction) -> Fraction:
    """``w * a + (1 - w) * b``, normalised once."""
    wn, wd = w._numerator, w._denominator
    an, ad = a._numerator, a._denominator
    bn, bd = b._numerator, b._denominator
    return fraction(wn * an * bd + (wd - wn) * bn * ad, wd * ad * bd)


def differences(n: int, d: int, xs: Iterable[Fraction]) -> list[Fraction]:
    """``n / d - x`` for each ``x`` in order, for ints ``n`` and ``d > 0``:
    one cross product and one ``gcd`` each, the first side read as the
    integers :func:`integers` gives, never as a ``Fraction``."""
    if d <= 0:
        raise PreconditionError(f"differences over a denominator of {d}")
    out = []
    for x in xs:
        q = x._denominator
        num, den = n * q - x._numerator * d, d * q
        g = gcd(num, den)  # den > 0, so g > 0 and no sign moves
        y = _new(Fraction)
        y._numerator = num // g
        y._denominator = den // g
        out.append(y)
    return out


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


def parts(value: int | Fraction) -> tuple[int, int]:
    """The numerator and denominator of a ``Fraction`` or an ``int``; a
    bool is not a number here, however Python counts it."""
    if isinstance(value, Fraction):
        return value._numerator, value._denominator
    if isinstance(value, int) and not isinstance(value, bool):
        return value, 1
    raise PreconditionError(
        f"cannot use {type(value).__name__} {value!r} as an exact rational"
    )


def integers(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """The numerators of ``values`` over the lcm of their denominators (1
    when there are none), and that lcm; each value as :func:`parts` reads it."""
    try:  # the common case, Fractions only, reads the slots directly
        den = 1
        for x in values:  # an lcm only where a denominator does not divide
            if den % x._denominator:
                den = lcm(den, x._denominator)
        return [x._numerator * (den // x._denominator) for x in values], den
    except AttributeError:  # an int, or a value parts refuses
        pairs = [parts(x) for x in values]
        den = lcm(*[d for _, d in pairs])
        return [n * (den // d) for n, d in pairs], den


def integer_form(
    terms: Sequence[tuple[int, int | Fraction]], rhs: int | Fraction
) -> tuple[tuple[tuple[int, int], ...], int, int]:
    """A row ``sum(a * x[j] for j, a in terms) relation rhs`` times the lcm
    of its denominators: its nonzero ``(j, integer)`` terms in the given
    order, its integer rhs and that lcm.

    Two passes over the terms: the lcm of the denominators, taken only
    where a denominator does not already divide it, then the scaled
    numerators of the nonzero terms.  A value is taken as :func:`parts`
    reads it, so a float or a bool is refused with ``PreconditionError``."""
    try:  # the common case, Fractions only, reads the slots directly
        den = rhs._denominator
        for _, a in terms:
            if den % a._denominator:
                den = lcm(den, a._denominator)
        nonzero = [
            (j, a._numerator * (den // a._denominator))
            for j, a in terms
            if a._numerator
        ]
        return tuple(nonzero), rhs._numerator * (den // rhs._denominator), den
    except AttributeError:  # an int, or a value parts refuses
        nums, den = integers([rhs, *[a for _, a in terms]])
        return tuple([(t[0], v) for t, v in zip(terms, nums[1:]) if v]), nums[0], den
