#!/usr/bin/env python3
"""Walk through the two reference markets: measures, hedges, budgets.

    python3 scripts/superhedge_demo.py
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from procpolar.market import (  # noqa: E402
    ConsumptionDensity,
    Market,
    budget_check,
    density_process,
    emm_polytope,
    superhedge_value,
    y_enlargement_membership,
)
from procpolar.processes import AdaptedProcess  # noqa: E402
from procpolar.rational import format_rational as fr  # noqa: E402
from procpolar.tree import EventTree, RandomVariable, terminal_space  # noqa: E402


def show(title: str) -> None:
    print(f"\n== {title}")


def main() -> None:
    show("binomial market: S = (4; 8, 2), reference measure (1/2, 1/2)")
    t1 = EventTree.build([None, 0, 0], [None, "1/2", "1/2"], ["root", "u", "d"])
    m1 = Market.of(t1, [AdaptedProcess.from_mapping(t1, {0: 4, 1: 8, 2: 2})])
    q = emm_polytope(m1).interior
    print("unique martingale measure:", tuple(map(fr, q)))
    y = density_process(m1, q)
    print("density process:", tuple(map(fr, y.values)))
    print("density is a deflator:", bool(y_enlargement_membership(m1, y)))
    claim = RandomVariable(terminal_space(t1), (F(3), F(0)))
    res = superhedge_value(m1, claim)
    print(
        f"claim (3, 0): superhedge value {fr(res.value)}, "
        f"holdings {fr(res.strategy.at(0)[0])}, residual "
        f"{tuple(map(fr, res.residual.values))} (complete market: exact replication)"
    )

    show("trinomial market: S = (4; 8, 4, 2), uniform reference measure")
    t3 = EventTree.build(
        [None, 0, 0, 0], [None, "1/3", "1/3", "1/3"], ["root", "a", "b", "c"]
    )
    m2 = Market.of(t3, [AdaptedProcess.from_mapping(t3, {0: 4, 1: 8, 2: 4, 3: 2})])
    print("an interior measure:", tuple(map(fr, emm_polytope(m2).interior)))
    claim2 = RandomVariable(terminal_space(t3), (F(3), F(0), F(0)))
    res2 = superhedge_value(m2, claim2)
    print(
        f"call-like claim (3, 0, 0): superhedge value {fr(res2.value)}, "
        f"attained at boundary measure {tuple(map(fr, res2.argmax_measure))}"
    )
    dens = ConsumptionDensity(
        AdaptedProcess.from_mapping(t3, {0: 0, 1: 3, 2: 0, 3: 0}), (F(0), F(1))
    )
    for x in (F(1), F(99, 100)):
        outcome = budget_check(m2, dens, x)
        verdict = "admissible" if outcome.admissible else "NOT admissible"
        print(f"consume that payoff from capital {fr(x)}: {verdict}")
        if not outcome.admissible:
            print(
                "  violating measure:",
                tuple(map(fr, outcome.violating_measure)),
            )


if __name__ == "__main__":
    main()
