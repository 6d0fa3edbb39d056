import json
from dataclasses import replace

import pytest

import ontomesh.protocol
from ontomesh.io import load_kb
from ontomesh.model import (
    And, Atom, AtLeast, AtMost, Bottom, Exists, ForAll, Not, Or, Property, Top,
)
from ontomesh.protocol import (
    CacheOverflow, ProjectionCache, ProjectionPackage, ProtocolError,
    serve_package,
)
from ontomesh.tableau import ADDITIONS, CLASH, Obligation, init_graph


B, D = Atom("u2", "B"), Atom("u2", "D")
R = Property("r", "u2", "u2")
E = Property("e", "u2", "u1")


def test_package_payload_is_pinned():
    # every concept constructor, an inverted role, a link relation and a
    # named target individual; each member travels as its concept key, and
    # the encoding is what gets counted as bytes
    pkg = ProjectionPackage(id="u1-7", frm="u1", to="u2", origin="u1", items=(
        Obligation(0, "u2", (B, Not(D)), "b"),
        Obligation(3, "u2", (
            Or(Top("u2"), Bottom("u2"), "u2"),
            And(Exists(R.inverse(), B), ForAll(E, Atom("u1", "A")), "u2"),
            And(AtLeast(2, R, B), AtMost(1, R, Not(D)), "u2"),
        ), None),
    ))
    expected = (
        '{"id": "u1-7", "from": "u1", "to": "u2", "origin": "u1", "items": ['
        '{"source_node": 0, "fragment": ["u2:B", "(not u2:D)"], '
        '"target_individual": "b"}, '
        '{"source_node": 3, "fragment": ["(or@u2 u2:*top* u2:*bot*)", '
        '"(and@u2 (some inv u2:r u2:B) (all u2:e->u1 u1:A))", '
        '"(and@u2 (min 2 u2:r u2:B) (max 1 u2:r (not u2:D)))"], '
        '"target_individual": null}]}'
    )
    assert json.dumps(pkg.to_payload()) == expected


# -- projection cache --------------------------------------------------------------

def _u1_root(*label, named=None):
    """A u1 graph whose root carries label, with an optional named
    projection target in u2; returns (graph, root id)."""
    kb = load_kb(["(unit u1)\n(concept A)",
                  "(unit u2)\n(concept B)\n(concept D)",
                  "(unit u3)\n(concept F)"])
    g = init_graph(kb, "u1")
    for c in label:
        g.add_label(0, c)
    if named is not None:
        g.set_corr(0, "u2", target_individual=named)
    return g, 0


def test_known_clash_hits_a_superset_foreign_label():
    cache = ProjectionCache()
    cache.record_clash("u2", (B,), None)
    assert cache.known_clash(*_u1_root(Atom("u1", "A"), B)) is not None
    assert cache.known_clash(*_u1_root(Atom("u1", "A"), B, Not(D))) == \
        "projection to u2 is known to clash"
    assert cache.known_clash(*_u1_root(Atom("u1", "A"), D)) is None


def test_known_clash_misses_when_the_named_target_differs():
    cache = ProjectionCache()
    cache.record_clash("u2", (B,), "b")
    assert cache.known_clash(*_u1_root(B, named="b")) is not None
    assert cache.known_clash(*_u1_root(B, named="c")) is None
    assert cache.known_clash(*_u1_root(B)) is None
    # nor does an anonymous entry condemn a node that names its target
    cache.record_clash("u2", (D,), None)
    assert cache.known_clash(*_u1_root(D, named="b")) is None


def test_known_clash_skips_a_destination_neither_home_nor_named():
    # the fragment is covered and no target is named on either side, but
    # nothing in the label lives in u3 and nothing names a u3 individual
    cache = ProjectionCache()
    cache.record_clash("u3", (B,), None)
    assert cache.known_clash(*_u1_root(B)) is None
    assert cache.known_clash(*_u1_root(B, Atom("u3", "F"))) is not None


def test_store_raises_cache_overflow_past_the_byte_budget(monkeypatch):
    pkg = ProjectionPackage(id="u1-1", frm="u1", to="u2", origin="u1",
                            items=(Obligation(0, "u2", (B,), None),))
    answer = (("additions", ()),)
    size = len(pkg.content_bytes) + 64
    monkeypatch.setattr(ontomesh.protocol, "BYTE_BUDGET", size)
    to_u3 = replace(pkg, to="u3")
    cache = ProjectionCache()
    cache.store(pkg, answer)
    assert cache.lookup(pkg) == answer
    cache.store(pkg, answer)   # stored once, counted once
    with pytest.raises(CacheOverflow):
        cache.store(to_u3, answer)
    assert cache.lookup(to_u3) is None


# -- serving -----------------------------------------------------------------------

def test_serve_ships_forced_literals_derived_after_a_choice():
    """The u2 copy branches on its GCI's disjunction at every node before
    u3 answers the first item's u3:Q with u2:R, whose unfolding forces u1:Z
    at that item's node.  Z rests on no choice and goes back to u1.  The
    second item's node chooses u1:V of (or u1:V u1:W), which is held back."""
    kb = load_kb(["(unit u1)\n(concept V)\n(concept W)\n(concept Z)",
                  "\n".join(["(unit u2)", "(concept D)", "(concept E)",
                             "(concept F)", "(concept P)", "(concept R)",
                             "(concept S)", "(sub (and D E) F)",
                             "(sub P u3:Q)", "(sub R u1:Z)",
                             "(sub S (or u1:V u1:W))"]),
                  "(unit u3)\n(concept Q)"])
    P, S = Atom("u2", "P"), Atom("u2", "S")
    pkg = ProjectionPackage(id="u1-1", frm="u1", to="u2", origin="u1",
                            items=(Obligation(0, "u2", (P,), None),
                                   Obligation(1, "u2", (S,), None)))
    asked = []

    def u3_answers_r(obligations):
        asked.extend(ob.dest_unit for ob in obligations)
        return [(ADDITIONS, (Atom("u2", "R"),)) for _ in obligations]

    outcomes = serve_package(pkg, init_graph(kb, "u2").clone, u3_answers_r)
    assert asked and set(asked) == {"u3"}
    assert outcomes == ((ADDITIONS, (Atom("u1", "Z"), Atom("u3", "Q"))),
                        (ADDITIONS, ()))


@pytest.mark.parametrize("target,outcome", [
    ("b", ((CLASH, None),)),        # lands on b, which is not B
    (None, ((ADDITIONS, ()),)),     # a new node
])
def test_serve_places_a_named_item_on_its_individual(target, outcome):
    kb = load_kb(["(unit u1)\n(concept A)",
                  "(unit u2)\n(concept B)\n(individual b)\n"
                  "(instance b (not B))"])
    pkg = ProjectionPackage(id="u1-1", frm="u1", to="u2", origin="u1",
                            items=(Obligation(0, "u2", (B,), target),))
    assert serve_package(pkg, init_graph(kb, "u2").clone) == outcome


def test_serve_rejects_an_individual_the_unit_lacks():
    kb = load_kb(["(unit u1)\n(concept A)",
                  "(unit u2)\n(concept B)\n(individual b)"])
    pkg = ProjectionPackage(id="u1-1", frm="u1", to="u2", origin="u1",
                            items=(Obligation(0, "u2", (B,), "c"),))
    with pytest.raises(ProtocolError, match=(
            r"^projection names unknown individual 'c' of u2$")):
        serve_package(pkg, init_graph(kb, "u2").clone)


# -- holes ---------------------------------------------------------------------

def test_hole_rewrite_is_pinned():
    # every rule of drop_holes, with u4 holed
    from ontomesh.model import DistributedKB, Coupling, UnitKB
    from ontomesh.protocol import handle_hole

    A, X = Atom("u1", "A"), Atom("u4", "X")
    r, f = Property("r", "u1", "u1"), Property("f", "u1", "u2")
    to_hole, in_hole = Property("e", "u1", "u4"), Property("s", "u4", "u4")
    bot2 = Bottom("u2")
    rhs = [
        Top("u4"), Bottom("u4"), X, Not(X), Not(B),
        Exists(to_hole, X), AtMost(0, to_hole, X), Exists(in_hole, X),
        And(X, B, "u1"), And(B, X, "u1"), And(X, bot2, "u1"),
        And(bot2, A, "u1"), And(A, bot2, "u1"), And(A, B, "u1"),
        Or(X, A, "u1"), Or(A, X, "u1"), Or(bot2, X, "u1"),
        Or(bot2, A, "u1"), Or(A, bot2, "u1"), Or(A, B, "u1"),
        Exists(f, bot2), Exists(f, B), AtLeast(2, f, bot2),
        AtLeast(1, f, B), ForAll(f, Top("u2")), ForAll(r, Or(A, X, "u1")),
        ForAll(r, A), AtMost(1, r, And(A, X, "u1")),
        And(Or(bot2, A, "u1"), ForAll(r, X), "u1"),
    ]
    units = {
        "u1": UnitKB(unit="u1", gcis=[(A, c) for c in rhs],
                     concept_assertions=[("a", Or(X, A, "u1"))]),
        "u2": UnitKB(unit="u2", gcis=[(B, Or(X, D, "u2"))]),
        "u4": UnitKB(unit="u4", gcis=[(X, Top("u4"))]),
    }
    couplings = {"u1": Coupling("u1", links=[])}
    kb = handle_hole(DistributedKB.build(units, couplings), {"u4"})
    assert sorted(kb.units) == ["u1", "u2"]
    assert [r.key() for _, r in kb.units["u1"].gcis] == [
        "u4:*top*", "u4:*top*", "u4:*top*", "u4:*top*", "(not u2:B)",
        "u1:*top*", "u1:*top*", "u4:*top*",
        "u2:B", "u2:B", "u2:*bot*",
        "u1:*bot*", "u1:*bot*", "(and@u1 u1:A u2:B)",
        "u1:*top*", "u1:*top*", "u1:*top*",
        "u1:A", "u1:A", "(or@u1 u1:A u2:B)",
        "u1:*bot*", "(some u1:f->u2 u2:B)", "u1:*bot*",
        "(min 1 u1:f->u2 u2:B)", "u1:*top*", "u1:*top*",
        "(all u1:r u1:A)", "(max 1 u1:r u1:A)",
        "u1:A",
    ]
    assert {l.key() for l, _ in kb.units["u1"].gcis} == {"u1:A"}
    assert [(i, c.key()) for i, c in kb.units["u1"].concept_assertions] == [
        ("a", "u1:*top*")]
    assert [(l.key(), r.key()) for l, r in kb.units["u2"].gcis] == [
        ("u2:B", "u2:*top*")]
