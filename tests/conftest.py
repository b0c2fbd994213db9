import gc
from fractions import Fraction as F

import pytest

from procpolar.market import Market
from procpolar.processes import AdaptedProcess
from procpolar.tree import EventTree


@pytest.fixture
def gc_off():
    """The cyclic garbage collector switched off for one test: an owner is
    then freed by reference counting alone, and a memo that refers back to
    its owner keeps it alive."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture
def t1():
    """One-step binary tree, probabilities (1/2, 1/2)."""
    return EventTree.build([None, 0, 0], [None, "1/2", "1/2"], ["root", "u", "d"])


@pytest.fixture
def t2():
    """Two-step binary tree, all edges 1/2."""
    return EventTree.build(
        [None, 0, 0, 1, 1, 2, 2],
        [None, "1/2", "1/2", "1/2", "1/2", "1/2", "1/2"],
        ["root", "u", "d", "uu", "ud", "du", "dd"],
    )


@pytest.fixture
def t3():
    """One-step trinomial tree with the uniform reference measure."""
    return EventTree.build(
        [None, 0, 0, 0], [None, "1/3", "1/3", "1/3"], ["root", "a", "b", "c"]
    )


@pytest.fixture
def m1(t1):
    """Complete binomial market: S = (4; 8, 2)."""
    return Market.of(t1, [AdaptedProcess.from_mapping(t1, {0: 4, 1: 8, 2: 2})])


@pytest.fixture
def m2(t3):
    """Incomplete trinomial market: S = (4; 8, 4, 2)."""
    return Market.of(t3, [AdaptedProcess.from_mapping(t3, {0: 4, 1: 8, 2: 4, 3: 2})])
