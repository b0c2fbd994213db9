from fractions import Fraction as F

import pytest

from procpolar.instances import (
    Instance,
    InstanceError,
    load_instance,
    parse_instance,
)

T1_TEXT = """\
version 1

[tree]
node root - -
node u root 1/2
node d root 1/2

[process one]
root 1
u 1
d 1

[process X]
root 1
u 2
d 0

[generators]
one X
"""

FULL_TEXT = """\
# everything at once
version 1

[tree]
node root - -
node u root 1/2
node d root 1/2

[process S]
root 4
u 8
d 2

[market]
assets S

[partition]
block u
block d

[rv f]
u 1
d 2

[rvset]
f

[claim]
u 3
d 0

[consumption]
node root 0
node u 3
node d 0
mu 0 0
mu 1 1
"""


def test_parse_tree_and_generators():
    inst = parse_instance(T1_TEXT)
    assert inst.tree.labels == ("root", "u", "d")
    assert inst.tree_valid
    assert inst.generators == ("one", "X")
    c = inst.process_set()
    assert c.far_reaching
    assert inst.probe_processes() == {}


def test_parse_full_document():
    inst = parse_instance(FULL_TEXT)
    assert inst.market_assets == ("S",)
    market = inst.market()
    assert market.d == 1
    assert inst.partition is not None and len(inst.partition.blocks) == 2
    assert inst.rv_set().generators[0].values == (F(1), F(2))
    assert inst.claim is not None and inst.claim.values == (F(3), F(0))
    assert inst.consumption is not None
    assert inst.consumption.cumulative().cumulative.values == (F(0), F(3), F(0))


def test_decimal_probability_rejected():
    text = "version 1\n[tree]\nnode root - -\nnode u root 0.5\nnode d root 0.5\n"
    with pytest.raises(InstanceError, match="exact rationals required"):
        parse_instance(text)


def test_missing_version_rejected():
    with pytest.raises(InstanceError):
        parse_instance("[tree]\nnode root - -\n")


def test_unknown_parent_rejected():
    with pytest.raises(InstanceError, match="not defined above"):
        parse_instance("version 1\n[tree]\nnode root - -\nnode u ghost 1/2\n")


def test_incomplete_process_rejected():
    text = T1_TEXT.replace("root 1\nu 1\nd 1", "root 1\nu 1")
    with pytest.raises(InstanceError, match="missing nodes"):
        parse_instance(text)


def test_unknown_generator_rejected():
    text = T1_TEXT.replace("one X", "one X ghost")
    with pytest.raises(InstanceError, match="unknown process"):
        parse_instance(text)


def test_invalid_tree_parses_but_is_flagged():
    text = "version 1\n[tree]\nnode root - -\nnode u root 1/4\nnode d root 1/2\n"
    inst = parse_instance(text)
    assert not inst.tree_valid


def test_rv_sections_need_valid_tree():
    text = (
        "version 1\n[tree]\nnode root - -\nnode u root 1/4\nnode d root 1/2\n"
        "[rv f]\nu 1\nd 0\n"
    )
    with pytest.raises(InstanceError, match="valid tree"):
        parse_instance(text)


def test_duplicate_section_rejected():
    text = T1_TEXT + "\n[generators]\none\n"
    with pytest.raises(InstanceError, match="duplicate section"):
        parse_instance(text)


def test_consumption_needs_all_weights():
    text = FULL_TEXT.replace("mu 0 0\n", "")
    with pytest.raises(InstanceError, match="missing mu weights"):
        parse_instance(text)


def test_load_fixture_files():
    for name in ("t1", "t2", "m1", "m2"):
        inst = load_instance(f"fixtures/{name}.instance")
        assert inst.tree_valid


@pytest.mark.parametrize("time", ["one", "-1", "1/2", "+1", "2"])
def test_bad_mu_time_rejected_with_line_number(time):
    # the tree has horizon 1: 2 is out of range, the rest are not integers
    text = FULL_TEXT.replace("mu 1 1\n", f"mu {time} 1\n")
    with pytest.raises(InstanceError, match=r"line \d+: mu time"):
        parse_instance(text)


@pytest.mark.parametrize(
    "old, new",
    [
        ("root 4\nu 8\n", "root 4\nu 8\nu 9\n"),  # [process S]
        ("[rv f]\nu 1\n", "[rv f]\nu 1\nu 5\n"),
        ("u 3\nd 0\n", "u 3\nd 0\nd 1\n"),  # [claim]
        ("node u 3\n", "node u 3\nnode u 0\n"),  # [consumption]
        ("mu 1 1\n", "mu 1 1\nmu 1 0\n"),
        ("assets S\n", "assets S\nassets S S\n"),  # [market]
    ],
)
def test_repeated_line_in_a_section_rejected(old, new):
    assert FULL_TEXT.count(old) == 1
    with pytest.raises(InstanceError, match=r"line \d+: duplicate"):
        parse_instance(FULL_TEXT.replace(old, new))


def test_repeated_process_node_does_not_keep_the_last_value():
    text = T1_TEXT.replace("u 2\nd 0", "u 2\nu 0\nd 0")
    with pytest.raises(InstanceError, match="line 16: duplicate node 'u'"):
        parse_instance(text)
