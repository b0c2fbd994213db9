"""The rational kernel against the ``Fraction`` constructor and operators.

``fraction`` and ``negate`` set a ``Fraction``'s slots directly, so each
value they build must be indistinguishable from the constructor's: same
type, numerator, denominator, hash and repr.  The arithmetic kernels must
return the value the operators return, normalised the same way.
"""

from __future__ import annotations

import re
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procpolar.errors import RationalFormatError
from procpolar.rational import (
    dot,
    dot_sides,
    format_rational,
    frac,
    fraction,
    negate,
    nonnegative,
    product,
    quotient,
)

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "procpolar"

BIG = 10**30
integers = st.integers(-BIG, BIG)
nonzero = integers.filter(bool)
rationals = st.builds(F, integers, nonzero)


def _parts(x):
    """Everything a caller can tell two values apart by."""
    return type(x), x.numerator, x.denominator, hash(x), repr(x), str(x)


@settings(max_examples=2000, deadline=None)
@given(integers, nonzero)
def test_fraction_and_negate_match_the_constructor(n, d):
    expected = F(n, d)
    got = fraction(n, d)
    assert _parts(got) == _parts(expected)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert _parts(fraction(n, -d)) == _parts(F(n, -d))
    assert _parts(negate(got)) == _parts(-expected)
    assert _parts(negate(negate(got))) == _parts(expected)
    assert got == expected and {got: 1}[expected] == 1


@given(integers)
def test_fraction_over_zero_raises_like_the_constructor(n):
    with pytest.raises(ZeroDivisionError):
        F(n, 0)
    with pytest.raises(ZeroDivisionError):
        fraction(n, 0)


@settings(max_examples=500, deadline=None)
@given(rationals, rationals, st.lists(st.tuples(rationals, rationals), max_size=6))
def test_kernels_match_the_operators(a, b, pairs):
    assert _parts(product(a, b)) == _parts(a * b)
    if b:
        assert _parts(quotient(a, b)) == _parts(a / b)
    else:
        with pytest.raises(ZeroDivisionError):
            quotient(a, b)
    assert _parts(dot(pairs)) == _parts(sum((x * y for x, y in pairs), F(0)))
    # both sides over the lcm of a's and every product's denominators
    common = lcm(a.denominator, *(x.denominator * y.denominator for x, y in pairs))
    expected, value = dot_sides(pairs, a)
    assert F(expected, common) == dot(pairs) and F(value, common) == a
    values = [x for pair in pairs for x in pair] + [a]
    assert nonnegative(values) is all(v >= 0 for v in values)
    assert nonnegative(abs(v) for v in values)


def test_frac_of_an_int_matches_the_constructor():
    for n in (0, 1, -1, 7, -BIG, BIG):
        assert _parts(frac(n)) == _parts(F(n))


def test_format_rational_refuses_floats_bools_and_decimals():
    assert [format_rational(v) for v in (3, "-5/7", F(4, 2), F(-6, 4), " 2 / 8 ")] == [
        "3",
        "-5/7",
        "2",
        "-3/2",
        "1/4",
    ]
    for bad in (0.1, 1.0, True, False, "0.5", "1e-3", None):
        with pytest.raises(RationalFormatError):
            format_rational(bad)


def test_only_the_kernel_reads_fraction_slots():
    slot = re.compile(r"\b_(?:numerator|denominator)\b")
    readers = sorted(
        path.name for path in PACKAGE.glob("*.py") if slot.search(path.read_text())
    )
    assert readers == ["rational.py"]
