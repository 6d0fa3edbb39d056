"""Dependency-directed backjumping: a clash jumps over the branch points it
does not rest on, and the verdicts stay those of an exhaustive search.

The regressions count branch points on KBs where every choice before the
clash is independent of it.  The differential tests draw random KBs with
number restrictions (merges, at-most clashes) and with onto/into bridge
rules (projection clashes and additions).  They compare the verdict with
chronological backtracking, and with the oracle in the sound direction: a
model within the bound makes the goal satisfiable."""

from hypothesis import given, settings, strategies as st

from ontomesh import protocol
from ontomesh.io import load_kb, parse_concept
from ontomesh.model import (
    INTO, ONTO, Atom, BridgeRule, Coupling, DistributedKB, Property, UnitKB,
)
from ontomesh.oracle import oracle_satisfiable
from ontomesh.peer import LoopbackSession
from ontomesh.tableau import expand_to_completion, init_graph

from strategies import ATOMS, NAMES, budgeted_verdict, concepts


# -- regressions ------------------------------------------------------------------

def test_independent_disjunctions_are_jumped_over():
    """n disjunctions, then a clash on a last one that rests on none of
    them: each branch point opens once, and the last one's two
    alternatives close the goal, so the graph takes n + 2 branches where
    chronological backtracking takes 2^(n+2) - 2."""
    for n in (1, 4, 8):
        names = [f"{p}{i}" for p in "AB" for i in range(n)] + ["Y", "Z"]
        kb = load_kb(["(unit u1)\n" + "\n".join(
            f"(concept {x})" for x in names)], [])
        goal = parse_concept("(and " + " ".join(
            [f"(or A{i} B{i})" for i in range(n)]
            + ["(or Y Z)", "(not Y)", "(not Z)"]) + ")", "u1")
        g = init_graph(kb, "u1", goal)
        assert expand_to_completion(g) is False
        assert g.branch_count == n + 2


def test_value_rule_rests_on_the_successor_creation():
    """The disjunction's first alternative makes an r-successor, where two
    value restrictions of the goal clash.  Neither restriction rests on a
    branch point, but the edge they cross does: the clash must reach the
    disjunction, whose second alternative is a model."""
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(concept C)\n"
                  "(concept D)\n(role r)"], [])
    goal = parse_concept(
        "(and (or (some r A) (and B C)) (all r D) (all r (not D)))", "u1")
    g = init_graph(kb, "u1", goal)
    assert expand_to_completion(g) is True
    assert g.branch_count == 2
    assert oracle_satisfiable(kb, goal, domain_bound=1)


def test_reverse_update_rests_on_the_fragment():
    """The disjunction's first alternative puts u2:X at the root, and u2's
    answer to that fragment adds u1:C back, which clashes with the goal's
    (not C).  The addition rests on the fragment's branch point, so the
    second alternative is tried, and it is a model."""
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(concept C)",
                  "(unit u2)\n(concept X)\n(sub X u1:C)"], [])
    goal = parse_concept("(and (or u2:X (and A B)) (not C))", "u1")
    assert LoopbackSession(kb).is_satisfiable(goal)
    assert oracle_satisfiable(kb, goal, domain_bound=2)


def _serve_root_kb(k: int):
    """u1's B and C are unsatisfiable.  In u2, P needs an e-link into u1:B
    or into u1:C, and k non-absorbable GCIs give every node k
    disjunctions.  A serve of u1's fragment {u2:P} opens them at its root,
    then at the projected node, whose e-successors' projections to u1
    clash."""
    u1 = "\n".join(["(unit u1)", "(concept A)", "(concept B)", "(concept C)",
                    "(sub B (not B))", "(sub C (not C))"])
    u2 = ["(unit u2)", "(concept P)",
          "(sub P (or (some e u1:B) (some e u1:C)))"]
    for i in range(k):
        u2 += [f"(concept D{i})", f"(concept E{i})", f"(concept F{i})",
               f"(sub (and D{i} E{i}) F{i})"]
    return load_kb([u1, "\n".join(u2)],
                   [{"unit": "u2", "links": [{"name": "e",
                                              "target_unit": "u1"}]}])


def test_serve_copy_jumps_over_its_root_disjunctions(monkeypatch):
    """The projection clashes rest on the projected node's choice between
    its two links, not on any root disjunction of the serve copy: each
    branch point of the copy opens once, plus the second link, so its
    branch points grow as 4k + 2 (chronological backtracking: 38, 330 and
    26258 for k = 1, 2, 4).  The verdict stays unsatisfiable."""
    served = []
    expand = protocol.expand_to_completion

    def counting(g, *args, **kwargs):
        try:
            return expand(g, *args, **kwargs)
        finally:
            served.append((g.unit, g.branch_count))

    monkeypatch.setattr(protocol, "expand_to_completion", counting)
    for k in (1, 2, 4):
        served.clear()
        session = LoopbackSession(_serve_root_kb(k))
        assert not session.is_satisfiable(parse_concept("(and A u2:P)", "u1"))
        assert sum(n for unit, n in served if unit == "u2") == 4 * k + 2


# -- differential ------------------------------------------------------------------

_R = Property("r", "u1", "u1")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.one_of(ATOMS, concepts(1, numbers=True)),
                          concepts(2, numbers=True)),
                min_size=1, max_size=3),
       concepts(2, numbers=True))
def test_number_restrictions_differential(gcis, goal):
    """Random single-unit TBoxes with at-least and at-most restrictions,
    which run the merge, choose and at-most clash paths, audited."""
    kb = DistributedKB.build({"u1": UnitKB(
        unit="u1", concept_names=set(NAMES), role_names={"r"}, gcis=gcis)})
    sat = budgeted_verdict(kb, goal)
    chronological = budgeted_verdict(kb, goal, chronological=True)
    assert None in (sat, chronological) or sat == chronological
    assert sat is not False or not oracle_satisfiable(kb, goal,
                                                      domain_bound=2)


_U1 = st.sampled_from([Atom("u1", n) for n in ("A", "B")])
_U2 = st.sampled_from([Atom("u2", n) for n in ("X", "Y")])
_S = Property("s", "u2", "u2")


def _bridges(sources, targets):
    return st.lists(st.builds(BridgeRule, st.sampled_from([ONTO, INTO]),
                              sources, targets), max_size=2)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.lists(st.tuples(concepts(1, _U1, _R), concepts(1, _U1, _R)),
                max_size=2),
       st.lists(st.tuples(concepts(1, _U2, _S), concepts(1, _U2, _S)),
                max_size=2),
       _bridges(_U2, _U1), _bridges(_U1, _U2), concepts(2, _U1, _R))
def test_bridge_rules_differential(gcis1, gcis2, rules_u1, rules_u2, goal):
    """Random two-unit KBs coupled by onto/into bridge rules both ways,
    whose projections answer with clashes and additions, audited.  The
    oracle is consulted only without into rules: a negated into source asks
    for a correspondent that the semantics leaves optional, a wrong verdict
    of its own (test_negated_into_source_needs_no_correspondent)."""
    kb = DistributedKB.build(
        {"u1": UnitKB(unit="u1", concept_names={"A", "B"}, role_names={"r"},
                      gcis=gcis1),
         "u2": UnitKB(unit="u2", concept_names={"X", "Y"}, role_names={"s"},
                      gcis=gcis2)},
        {"u1": Coupling("u1", bridge_rules=rules_u1),
         "u2": Coupling("u2", bridge_rules=rules_u2)})
    sat = budgeted_verdict(kb, goal)
    chronological = budgeted_verdict(kb, goal, chronological=True)
    assert None in (sat, chronological) or sat == chronological
    if all(br.kind == ONTO for br in rules_u1 + rules_u2):
        assert sat is not False or not oracle_satisfiable(kb, goal,
                                                          domain_bound=2)
