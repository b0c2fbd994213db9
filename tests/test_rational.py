"""The rational kernel against the ``Fraction`` constructor and operators.

``fraction``, ``negate`` and ``complement`` set a ``Fraction``'s slots
directly, so each value they build must be indistinguishable from the
constructor's: same type, numerator, denominator, hash and repr.  The
arithmetic kernels must return the value the operators return, normalised
the same way, and the kernels that take values apart must follow the one
type rule: a ``Fraction`` or an ``int``, nothing else.  No other library
module takes a rational apart or calls a ``Fraction`` operator, which the
last two tests check in the source and at run time.
"""

from __future__ import annotations

import io
import re
import sys
from contextlib import redirect_stdout
from fractions import Fraction as F
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procpolar import cli
from procpolar.errors import PreconditionError, RationalFormatError
from procpolar.rational import (
    complement,
    dot,
    dot_sides,
    format_rational,
    frac,
    fraction,
    integers,
    less,
    mix,
    negate,
    nonnegative,
    parts,
    product,
    quotient,
    scaled,
    zero_mask,
)
from procpolar.instances import load_instance
from procpolar.process_polar import envelope_process
from procpolar.tree import RandomVariable, level_space

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "procpolar"
FIXTURES = ROOT / "fixtures"

BIG = 10**30
ints = st.integers(-BIG, BIG)
nonzero = ints.filter(bool)
rationals = st.builds(F, ints, nonzero)
exacts = st.one_of(rationals, ints)  # the values the type rule accepts


def _parts(x):
    """Everything a caller can tell two values apart by."""
    return type(x), x.numerator, x.denominator, hash(x), repr(x), str(x)


@settings(max_examples=2000, deadline=None)
@given(ints, nonzero)
def test_fraction_and_negate_match_the_constructor(n, d):
    expected = F(n, d)
    got = fraction(n, d)
    assert _parts(got) == _parts(expected)
    assert type(got.numerator) is int and type(got.denominator) is int
    assert _parts(fraction(n, -d)) == _parts(F(n, -d))
    assert _parts(negate(got)) == _parts(-expected)
    assert _parts(negate(negate(got))) == _parts(expected)
    assert got == expected and {got: 1}[expected] == 1


@given(ints)
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
    assert zero_mask(values + [F(0)]) == [v == 0 for v in values] + [True]


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


@settings(max_examples=500, deadline=None)
@given(rationals, rationals, rationals)
def test_new_kernels_match_the_operators(a, b, c):
    assert less(a, b) is (a < b) and less(b, a) is (b < a) and not less(a, a)
    assert _parts(complement(a)) == _parts(1 - a)
    assert _parts(complement(complement(a))) == _parts(a)
    assert _parts(mix(a, b, c)) == _parts(a * b + (1 - a) * c)
    if c:  # a zero c raises on both sides, as the case below checks
        assert _parts(scaled(a, b, c)) == _parts(a * b / c)
    with pytest.raises(ZeroDivisionError):
        scaled(a, b, F(0))


@settings(max_examples=500, deadline=None)
@given(exacts, st.lists(exacts, max_size=8))
def test_parts_and_integers_take_fractions_and_ints_apart(x, values):
    expected = F(x)
    n, d = parts(x)
    assert (n, d) == (expected.numerator, expected.denominator)
    assert type(n) is int and type(d) is int
    nums, den = integers(values)
    assert den == lcm(*(F(v).denominator for v in values))
    assert [F(n, den) for n in nums] == [F(v) for v in values]
    assert all(type(n) is int for n in nums) and type(den) is int
    # a Fraction-only sequence takes the slot path, an int the parts path:
    # both give the one answer
    assert integers([F(v) for v in values]) == (nums, den)


@pytest.mark.parametrize("bad", [0.5, 1.0, True, False, "1/2", None])
def test_the_type_rule_refuses_all_but_fractions_and_ints(bad):
    name = type(bad).__name__
    with pytest.raises(PreconditionError, match=name):
        parts(bad)
    for values in ([bad], [F(1, 2), bad], [bad, 3]):
        with pytest.raises(PreconditionError, match=name):
            integers(values)


def test_only_the_kernel_reads_fraction_slots():
    """No module but rational.py reads a Fraction's slots or its numerator
    and denominator properties."""
    parts_read = re.compile(
        r"\b_(?:numerator|denominator)\b|\.(?:numerator|denominator)\b"
    )
    readers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if parts_read.search(path.read_text(encoding="utf-8"))
    )
    assert readers == ["rational.py"]


ARITHMETIC = (
    "__new__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__floordiv__",
    "__rfloordiv__",
    "__mod__",
    "__rmod__",
    "__divmod__",
    "__rdivmod__",
    "__pow__",
    "__rpow__",
    "__neg__",
    "__pos__",
    "__abs__",
)


# every check battery, on the fixtures the CI steps run it on
CHECKS = (
    *(("tree", name) for name in ("t1", "t2", "m1", "m2")),
    *((what, "t1") for what in ("supermartingale", "polar", "bipolar", "fbt")),
    ("cbt", "t2"),
    ("market", "m1"),
    ("budget", "m2", "--x", "1"),
)


def test_the_suites_call_no_fraction_operator_outside_the_kernel(monkeypatch):
    """Instances of each fuzz suite, every check battery and
    ``envelope_process`` on the fixtures, run with counting wrappers on the
    ``Fraction`` constructor, its arithmetic operators and its numerator and
    denominator properties: no call comes from a library frame other than
    rational.py's."""
    calls: dict[tuple[str, str], int] = {}
    library = str(Path(cli.__file__).parent)  # as the frames name the files

    def record(name: str) -> None:
        frame = sys._getframe(2)  # the caller of the wrapped operator
        path = frame.f_code.co_filename
        if path.startswith(library) and not path.endswith("rational.py"):
            key = (name, f"{Path(path).name}:{frame.f_lineno}")
            calls[key] = calls.get(key, 0) + 1

    def counted(name, operator):
        def wrapper(*args, **kwargs):
            record(name)
            return operator(*args, **kwargs)

        return wrapper

    def counted_property(name):
        slot = f"_{name}"

        def getter(self):
            record(name)
            return getattr(self, slot)

        return property(getter)

    for name in ARITHMETIC:
        monkeypatch.setattr(F, name, counted(name, getattr(F, name)))
    for name in ("numerator", "denominator"):
        monkeypatch.setattr(F, name, counted_property(name))
    # the wrappers are live: a call from this frame is not counted, and one
    # from a library frame is, here code compiled under tree.py's file name
    assert F(1, 2) + F(1, 3) == F(5, 6) and F(3, 4).numerator == 3
    assert calls == {}
    source = "F(1, 3) * 3 + F(2, 3) * F(3, 2)"
    assert eval(compile(source, str(Path(library, "tree.py")), "eval")) == F(2)
    assert {name for name, _ in calls} >= {"__add__", "__mul__"}
    calls.clear()
    commands = [
        ["fuzz", suite, "--count", str(count), "--seed", str(seed)]
        for suite, count, seed in (("cbt", 4, 42), ("fbt", 4, 7), ("market", 2, 11))
    ]
    commands += (
        ["check", what, str(FIXTURES / f"{name}.instance"), *extra]
        for what, name, *extra in CHECKS
    )
    for command in commands:
        with redirect_stdout(io.StringIO()) as out:
            assert cli.main(command) == 0, (command, out.getvalue())
    for name in ("t1", "t2"):
        c = load_instance(str(FIXTURES / f"{name}.instance")).process_set()
        for t_to in range(c.tree.horizon + 1):
            space = level_space(c.tree, t_to)
            # a payoff in [0, 1] meets the envelope hypothesis
            g = RandomVariable(space, tuple(F(i % 3, 2) for i in range(space.size)))
            envelope_process(c, g, 0, t_to)
    assert calls == {}
