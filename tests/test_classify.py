"""classify against the pairwise loop it replaces, and what it may skip.

classify gives each name its told subsumers without a test, and reads the
root of each satisfiable test's complete goal graph, when no node there is
blocked, as a model that settles the other names it leaves out.  The
reference here is the loop that tests every ordered pair of names; both
must give the same taxonomy."""

from pathlib import Path

import pytest
from hypothesis import event, given, settings, strategies as st

from ontomesh import tableau
from ontomesh.io import load_kb, load_kb_paths
from ontomesh.model import (
    INTO, ONTO, Atom, BridgeRule, Coupling, DistributedKB, Property, UnitKB,
)
from ontomesh.peer import (
    InconclusiveError, LoopbackSession, PeerConfig, _build_taxonomy,
)
from ontomesh.protocol import ProtocolError

from figures import (
    articles_linked_kb, articles_overlap_kb, chain_kb, conference_square_kb,
    conference_triangle_kb, transitive_abox_kb,
)
from strategies import ATOMS, NAMES, concepts

KB_DIR = Path(__file__).resolve().parent.parent / "perfbench" / "kbs"

CONFIGS = [{}, {"use_cache": False}, {"reverse_updates": False}]
CONFIG_IDS = ["default", "no-cache", "no-reverse"]


def pairwise(kb, unit, config):
    """The taxonomy from one is_subsumed task per ordered pair of names."""
    s = LoopbackSession(kb, PeerConfig(**config))
    names = sorted(kb.units[unit].concept_names)
    below = {a: {b for b in names if b != a
                 and s.is_subsumed(Atom(unit, a), Atom(unit, b))}
             for a in names}
    return _build_taxonomy(unit, names, below)


def outcome(run, *args):
    """run's result, or the type of the error it raised: an inconsistent
    KB or a holed unit raises ProtocolError on both sides."""
    try:
        return run(*args)
    except ProtocolError as e:
        return type(e)


def _classify(kb, unit, config):
    return LoopbackSession(kb, PeerConfig(**config)).classify(unit)


def _perfbench_kb(name):
    folder = KB_DIR / name
    return load_kb_paths(sorted(folder.glob("*.unit")),
                         sorted(folder.glob("*.coupling.json")))


KBS = {
    "linked": articles_linked_kb,
    "overlap": articles_overlap_kb,
    "triangle": conference_triangle_kb,
    "square": conference_square_kb,
    "abox-consistent": lambda: transitive_abox_kb(None),
    "abox-inconsistent": lambda: transitive_abox_kb(2),
    "chain": chain_kb,
}
KBS.update({f"perfbench-{name}": (lambda name=name: _perfbench_kb(name))
            for name in sorted(p.name for p in KB_DIR.iterdir() if p.is_dir())})
CASES = [(name, unit) for name, make in KBS.items()
         for unit in make().unit_order]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("name, unit", CASES,
                         ids=[f"{n}-{u}" for n, u in CASES])
def test_classify_equals_the_pairwise_loop(name, unit, config):
    kb = KBS[name]()
    assert outcome(_classify, kb, unit, config) \
        == outcome(pairwise, kb, unit, config)


# -- differential: random TBoxes and couplings ----------------------------------

def budgeted_outcomes(kb, units):
    """classify and the pairwise loop on each unit, under small node and
    branch budgets; None when a budget runs out on either side."""
    saved = tableau.MAX_NODES, tableau.MAX_BRANCHES
    tableau.MAX_NODES, tableau.MAX_BRANCHES = 60, 1000
    try:
        return [(outcome(_classify, kb, u, {}), outcome(pairwise, kb, u, {}))
                for u in units]
    except InconclusiveError:
        event("inconclusive")
        return None
    finally:
        tableau.MAX_NODES, tableau.MAX_BRANCHES = saved


def _assert_same(pairs):
    if pairs is not None:
        for classified, reference in pairs:
            assert classified == reference


_R = Property("r", "u1", "u1")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.one_of(ATOMS, concepts(1, numbers=True)),
                          concepts(2, numbers=True)),
                min_size=1, max_size=3))
def test_classify_differential_one_unit(gcis):
    """Roles and number restrictions make goal graphs with blocked nodes,
    whose roots classify must not read as models."""
    kb = DistributedKB.build({"u1": UnitKB(
        unit="u1", concept_names=set(NAMES), role_names={"r"}, gcis=gcis)})
    _assert_same(budgeted_outcomes(kb, ["u1"]))


_U1 = st.sampled_from([Atom("u1", n) for n in ("A", "B", "C")])
_U2 = st.sampled_from([Atom("u2", n) for n in ("X", "Y")])
_S = Property("s", "u2", "u2")


def _bridges(sources, targets):
    return st.lists(st.builds(BridgeRule, st.sampled_from([ONTO, INTO]),
                              sources, targets), max_size=2)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.one_of(_U1, concepts(1, _U1, _R)),
                          concepts(1, _U1, _R)), max_size=3),
       st.lists(st.tuples(concepts(1, _U2, _S), concepts(1, _U2, _S)),
                max_size=2),
       _bridges(_U2, _U1), _bridges(_U1, _U2))
def test_classify_differential_two_units(gcis1, gcis2, rules_u1, rules_u2):
    """Two units coupled by onto/into bridge rules both ways, so that the
    goal graphs of classify's tests send projections."""
    kb = DistributedKB.build(
        {"u1": UnitKB(unit="u1", concept_names={"A", "B", "C"},
                      role_names={"r"}, gcis=gcis1),
         "u2": UnitKB(unit="u2", concept_names={"X", "Y"}, role_names={"s"},
                      gcis=gcis2)},
        {"u1": Coupling("u1", bridge_rules=rules_u1),
         "u2": Coupling("u2", bridge_rules=rules_u2)})
    _assert_same(budgeted_outcomes(kb, ["u1", "u2"]))


# -- what classify skips --------------------------------------------------------

def _spy_tests(monkeypatch) -> list[tuple[str, str]]:
    """The (sub, sup) pair of every is_subsumed call, each of which must
    run exactly one is_satisfiable test."""
    tests: list[tuple[str, str]] = []
    sat_calls = []
    is_subsumed = LoopbackSession.is_subsumed
    is_satisfiable = LoopbackSession.is_satisfiable

    def spied_subsumed(self, sub, sup, *args, **kwargs):
        tests.append((sub.name, sup.name))
        return is_subsumed(self, sub, sup, *args, **kwargs)

    def spied_satisfiable(self, *args, **kwargs):
        sat_calls.append(None)
        assert len(sat_calls) == len(tests)
        return is_satisfiable(self, *args, **kwargs)

    monkeypatch.setattr(LoopbackSession, "is_subsumed", spied_subsumed)
    monkeypatch.setattr(LoopbackSession, "is_satisfiable", spied_satisfiable)
    return tests


def test_a_blocked_node_keeps_the_root_from_serving_as_a_model(monkeypatch):
    """A and not B completes with a blocked r-successor, so A's row tests
    C too; B and not A, and C and not A, complete with no blocked node,
    and their roots settle the third name."""
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(concept C)\n"
                  "(role r)\n(sub A (some r A))"])
    tests = _spy_tests(monkeypatch)
    taxonomy = LoopbackSession(kb).classify("u1")
    assert tests == [("A", "B"), ("A", "C"), ("B", "A"), ("C", "A")]
    assert taxonomy.subsumptions == set()
    assert taxonomy == pairwise(kb, "u1", {})


@pytest.mark.parametrize("axioms, tests, subsumptions", [
    (["(sub B A)"], [("A", "B"), ("B", "C"), ("C", "A")], {("B", "A")}),
    (["(sub C (and A B))"], [("A", "B"), ("B", "A")],
     {("C", "A"), ("C", "B")}),
    (["(sub C B)", "(sub B (and A (some r A)))"], [("A", "B"), ("B", "C")],
     {("B", "A"), ("C", "A"), ("C", "B")}),
], ids=["atom", "and", "through-a-told-subsumer"])
def test_told_subsumers_cost_no_test(axioms, tests, subsumptions,
                                     monkeypatch):
    """No row tests a name its GCIs already reach; the rows of the other
    names test only what no earlier model of theirs settled."""
    kb = load_kb(["\n".join(["(unit u1)", "(concept A)", "(concept B)",
                             "(concept C)", "(role r)"] + axioms)])
    seen = _spy_tests(monkeypatch)
    taxonomy = LoopbackSession(kb).classify("u1")
    assert seen == tests
    assert taxonomy.subsumptions == subsumptions
    assert taxonomy == pairwise(kb, "u1", {})
