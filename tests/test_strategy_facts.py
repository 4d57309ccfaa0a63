"""Each strategy id's facts, pinned by behaviour, and a guard that keeps
them in one place.

``TestStrategyFacts`` asks the monitors, the command line, the outcome
rules and the policy factory what they do for every id, and compares
the answers with a literal table. It goes through those public paths
only, so it holds whichever way the package stores the facts.

``test_no_strategy_id_tests_outside_the_table`` parses the package and
fails on any comparison of a strategy-id string literal with anything
but a literal or a goal: such a test states a strategy's fact outside
its spec.
"""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

from conftest import build_state

import walkergames
from walkergames import cli
from walkergames.engine import Player
from walkergames.monitors import MonitorSuite
from walkergames.runner import deduce_outcome
from walkergames.strategies import BREAKER_IDS, MAKER_IDS, ScriptError, make_policy
from walkergames.transcript import Header

SIZES = range(3, 41)

# id: (monitors armed, n - pursuit_move_limit, connectivity bound - n,
#      hamilton bound - n, a Hamilton cycle found by search, scripted)
MAKER_FACTS = {
    "chase": (True, 3, None, None, True, False),
    "connectivity": (True, 4, 1, None, True, False),
    "hamilton": (True, 4, None, 6, False, False),
    "random": (False, 4, None, None, True, False),
    "scripted": (False, 4, None, None, True, True),
}
# id: (initial memory.designated, scripted)
BREAKER_FACTS = {
    "random": ({}, False),
    "greedy": ({}, False),
    "delaying": ({}, False),
    "delaying-greedy": ({}, False),
    "camper": ({}, False),
    "isolating": ({}, False),
    "scripted": (None, True),
}


def _plus(n, slack):
    return None if slack is None else n + slack


def _header(maker, n, n0=20):
    """A Hamilton game's header, Breaker first at (1:1)."""
    return Header(n=n, bias=(1, 1), first_player="breaker", maker=maker,
                  breaker="random", goal="hamilton", seed=0, move_cap=10 * n,
                  n0=n0, monitors=True, strict=False)


def _searched(maker, n):
    """Does the outcome rule call a Maker-owned Hamilton cycle a goal
    when no certificate is recorded?"""
    cycle = [(v, (v + 1) % n) for v in range(n)]
    state = build_state(n, maker_edges=cycle, maker_pos=0)
    return deduce_outcome(_header(maker, n), state, None, False,
                          False) == ("maker", "goal")


class TestStrategyFacts:
    def test_ids_and_order(self):
        assert MAKER_IDS == tuple(MAKER_FACTS)
        assert BREAKER_IDS == tuple(BREAKER_FACTS)

    @pytest.mark.parametrize("maker", list(MAKER_FACTS))
    def test_maker_facts(self, maker):
        armed, left, conn, ham, searched, _ = MAKER_FACTS[maker]
        for n in SIZES:
            suite = MonitorSuite(_header(maker, n, n0=3))
            assert suite.armed is armed
            assert suite.report()["pursuit_move_limit"] == n - left
            assert cli._resolve_bound("auto", "connectivity", maker, n) \
                == _plus(n, conn)
            assert cli._resolve_bound("auto", "hamilton", maker, n) \
                == _plus(n, ham)
            if n <= 20:
                assert _searched(maker, n) is searched

    @pytest.mark.parametrize("side,flag,facts", [
        ("maker", "--makers", {m: f[-1] for m, f in MAKER_FACTS.items()}),
        ("breaker", "--breakers", {b: f[-1] for b, f in BREAKER_FACTS.items()}),
    ])
    def test_scripted_ids_need_a_script_and_cannot_be_swept(self, capsys,
                                                            side, flag, facts):
        player = Player(side)
        for name, scripted in facts.items():
            code = cli.main(["verify", flag, name, "--games", "0"])
            capsys.readouterr()
            assert (code == 4) is scripted
            if scripted:
                with pytest.raises(ScriptError):
                    make_policy(player, name, 0)
            else:
                make_policy(player, name, 0)

    def test_initial_memory(self):
        for maker, facts in MAKER_FACTS.items():
            if not facts[-1]:
                assert make_policy(Player.MAKER, maker, 0).memory.designated == {}
        for breaker, (designated, scripted) in BREAKER_FACTS.items():
            if not scripted:
                policy = make_policy(Player.BREAKER, breaker, 0)
                assert policy.memory.designated == designated


# ---------------------------------------------------------------------------
# Guard: strategy-id tests live only in the spec tables
# ---------------------------------------------------------------------------

def _is_id_literal(node, ids) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_id_literal(e, ids) for e in node.elts)
    return isinstance(node, ast.Constant) and node.value in ids


def _is_goal_operand(node) -> bool:
    # "connectivity" and "hamilton" are goal names as well as Maker ids.
    return ((isinstance(node, ast.Name) and node.id == "goal")
            or (isinstance(node, ast.Attribute) and node.attr == "goal"))


def strategy_id_tests(source: str) -> list:
    """Line numbers of comparisons of a strategy-id literal with any
    operand but a literal or a goal: a name, an attribute, a call or
    any other expression."""
    ids = set(MAKER_IDS) | set(BREAKER_IDS)
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        for a, b in zip(operands, operands[1:]):
            for literal, other in ((a, b), (b, a)):
                if (_is_id_literal(literal, ids)
                        and not isinstance(other, ast.Constant)
                        and not _is_goal_operand(other)):
                    lines.append(node.lineno)
    return sorted(set(lines))


def test_guard_flags_an_id_test():
    source = ('if maker == "chase" or spec.name in ("random", "x"):\n'
              '    pass\n'
              'if goal == "hamilton" and named.get("phase1") == "greedy":\n'
              '    pass\n')
    assert strategy_id_tests(source) == [1, 3]


def test_no_strategy_id_tests_outside_the_table():
    package = Path(walkergames.__file__).parent
    found = [f"{path.name}:{line}"
             for path in sorted(package.glob("*.py"))
             for line in strategy_id_tests(path.read_text(encoding="utf-8"))]
    assert found == []
