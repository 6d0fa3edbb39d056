import json

import pytest

import ontomesh.protocol
from ontomesh.io import load_kb
from ontomesh.model import (
    And, Atom, AtLeast, AtMost, Bottom, Exists, ForAll, Not, Or, Property, Top,
)
from ontomesh.protocol import (
    CacheOverflow, ProjectionCache, ProjectionPackage, serve_package,
)
from ontomesh.tableau import ADDITIONS, Obligation, init_graph


B, D = Atom("u2", "B"), Atom("u2", "D")
R = Property("r", "u2", "u2")
E = Property("e", "u2", "u1")

R_JSON = '{"name": "r", "home": "u2", "target": "u2", "inverted": false}'
INV_R_JSON = '{"name": "r", "home": "u2", "target": "u2", "inverted": true}'
E_JSON = '{"name": "e", "home": "u2", "target": "u1", "inverted": false}'
B_JSON = '{"op": "atom", "unit": "u2", "name": "B"}'
NOT_D_JSON = '{"op": "not", "arg": {"op": "atom", "unit": "u2", "name": "D"}}'


def test_package_payload_is_pinned():
    # every concept constructor, an inverted role, a link relation and a
    # named target individual; the encoding is what gets counted as bytes
    pkg = ProjectionPackage(id="u1-7", frm="u1", to="u2", origin="u1", items=(
        Obligation(0, "u2", (B, Not(D)), "b"),
        Obligation(3, "u2", (
            Or(Top("u2"), Bottom("u2"), "u2"),
            And(Exists(R.inverse(), B), ForAll(E, Atom("u1", "A")), "u2"),
            And(AtLeast(2, R, B), AtMost(1, R, Not(D)), "u2"),
        ), None),
    ))
    expected = (
        '{"id": "u1-7", "from": "u1", "to": "u2", "items": ['
        '{"source_node": 0, "fragment": ['
        f'{B_JSON}, {NOT_D_JSON}], '
        '"target_individual": "b", "trigger_origin": "u1"}, '
        '{"source_node": 3, "fragment": ['
        '{"op": "or", "unit": "u2", "left": {"op": "top", "unit": "u2"}, '
        '"right": {"op": "bot", "unit": "u2"}}, '
        '{"op": "and", "unit": "u2", '
        f'"left": {{"op": "some", "prop": {INV_R_JSON}, "filler": {B_JSON}}}, '
        f'"right": {{"op": "all", "prop": {E_JSON}, '
        '"filler": {"op": "atom", "unit": "u1", "name": "A"}}}, '
        '{"op": "and", "unit": "u2", '
        f'"left": {{"op": "min", "prop": {R_JSON}, "filler": {B_JSON}, '
        '"n": 2}, '
        f'"right": {{"op": "max", "prop": {R_JSON}, "filler": {NOT_D_JSON}, '
        '"n": 1}}], '
        '"target_individual": null, "trigger_origin": "u1"}]}'
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
    size = len(pkg.content_bytes()) + 64
    monkeypatch.setattr(ontomesh.protocol, "BYTE_BUDGET", size)
    cache = ProjectionCache()
    cache.store("u2", pkg, answer)
    assert cache.lookup("u2", pkg) == answer
    cache.store("u2", pkg, answer)   # stored once, counted once
    with pytest.raises(CacheOverflow):
        cache.store("u3", pkg, answer)
    assert cache.lookup("u3", pkg) is None


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
