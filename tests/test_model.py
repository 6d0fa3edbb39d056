import pytest
from hypothesis import given, settings, strategies as st

from ontomesh.model import (
    And, Atom, AtLeast, AtMost, Bottom, Concept, DistributedKB, Exists,
    ForAll, ModelError, Not, Or, Property, Top, UnitKB, Coupling, BridgeRule,
    IndividualCorrespondence, LinkAssertion, LinkDecl, make_and, make_or, neg, nnf, is_nnf, subconcepts,
)
from ontomesh.io import LoadError, load_kb, parse_concept, parse_unit

from figures import conference_square_kb, conference_triangle_kb


A = Atom("u1", "A")
B = Atom("u1", "B")
R = Property("r", "u1", "u1")


def test_nnf_de_morgan():
    c = Not(And(A, B, "u1"))
    assert nnf(c) == Or(Not(A), Not(B), "u1")


def test_nnf_forall_duality():
    c = Not(ForAll(R, B))
    assert nnf(c) == Exists(R, Not(B))


def test_nnf_number_duality():
    c = Not(AtMost(2, R, A))
    assert nnf(c) == AtLeast(3, R, A)
    c2 = Not(AtLeast(1, R, A))
    assert nnf(c2) == AtMost(0, R, A)


@pytest.mark.parametrize("negated,golden", [
    (Top("u1"), "u1:*bot*"),
    (Bottom("u1"), "u1:*top*"),
    (A, "(not u1:A)"),
    (Not(A), "u1:A"),
    (And(A, Not(B), "u1"), "(or@u1 (not u1:A) u1:B)"),
    (Or(Not(A), B, "u1"), "(and@u1 u1:A (not u1:B))"),
    (Exists(R, Not(A)), "(all u1:r u1:A)"),
    (ForAll(R.inverse(), B), "(some inv u1:r (not u1:B))"),
    (AtLeast(1, R, Not(A)), "(max 0 u1:r (not u1:A))"),
    (AtMost(2, Property("e", "u1", "u2"), Not(Atom("u2", "D"))),
     "(min 3 u1:e->u2 (not u2:D))"),
], ids=["top", "bot", "atom", "not", "and", "or", "some", "all", "min",
        "max"])
def test_nnf_of_each_negated_constructor(negated, golden):
    assert nnf(Not(negated)).key() == golden
    assert neg(negated).key() == golden


def test_atleast_zero_rejected():
    with pytest.raises(ModelError):
        AtLeast(0, R, A)


# random concept trees for the idempotence property
def _concepts(depth):
    atoms = st.sampled_from([A, B, Top("u1"), Bottom("u1")])
    if depth == 0:
        return atoms
    sub = _concepts(depth - 1)
    return st.one_of(
        atoms,
        st.builds(Not, sub),
        st.builds(lambda l, r: And(l, r, "u1"), sub, sub),
        st.builds(lambda l, r: Or(l, r, "u1"), sub, sub),
        st.builds(lambda f: Exists(R, f), sub),
        st.builds(lambda f: ForAll(R, f), sub),
        st.builds(lambda n, f: AtLeast(n, R, f), st.integers(1, 3), sub),
        st.builds(lambda n, f: AtMost(n, R, f), st.integers(0, 3), sub),
    )


@settings(max_examples=200, deadline=None)
@given(_concepts(4))
def test_nnf_idempotent(c):
    once = nnf(c)
    assert is_nnf(once)
    assert nnf(once) == once


def test_make_and_canonical():
    one = make_and([B, A], "u1")
    two = make_and([A, B, A], "u1")
    assert one == two
    assert make_and([], "u1") == Top("u1")
    assert make_or([], "u1") == Bottom("u1")


# the label closure: DistributedKB.label_universe

def test_closure_single_atom():
    kb = DistributedKB.build({"u1": UnitKB(unit="u1", concept_names={"A"})})
    # the empty internalization is top; complements close the set
    assert kb.label_universe(A) == {A, Not(A), Top("u1"), Bottom("u1")}


def test_closure_contains_filler_and_restriction():
    kb = DistributedKB.build({"u1": UnitKB(unit="u1", concept_names={"A", "G"})})
    c = Exists(R, Atom("u1", "G"))
    cl = kb.label_universe(c)
    assert c in cl and Atom("u1", "G") in cl
    assert ForAll(R, Not(Atom("u1", "G"))) in cl


def test_closure_covers_other_units_tboxes():
    kb = conference_square_kb()
    goal = parse_concept("(and MedicalArticle (not Article))", "u1")
    cl = kb.label_universe(goal)
    # an absorbed right side, and a bridge rule of another unit
    assert parse_concept("(all presentedAt MedicalConference)", "u1") in cl
    assert parse_concept("(or (not PediatricConference) u1:MedicalConference)",
                         "u3") in cl


def test_closure_size_bound():
    # no role is transitive, so forall-plus adds nothing: each member is a
    # sub-expression of the goal, an internalization or an absorbed GCI,
    # or the complement of one
    kb = conference_square_kb()
    goal = parse_concept("(and MedicalArticle (not Article))", "u1")
    cl = kb.label_universe(goal)

    def size(c):
        return len(subconcepts(c))

    parts = [nnf(goal)] + [kb.internalization(u) for u in kb.unit_order]
    parts += [c for u in kb.unit_order
              for a, rhs in kb.absorbed(u).items() for c in (a, *rhs)]
    assert len(cl) <= 2 * sum(size(c) for c in parts)


def test_internalization_empty_unit_is_top():
    kb = DistributedKB.build({"u1": UnitKB(unit="u1")})
    assert kb.internalization("u1") == Top("u1")


def test_internalization_triangle_u3():
    kb = conference_triangle_kb()
    ck = kb.internalization("u3")
    parts = set(subconcepts(ck))
    onto = make_or([Not(Atom("u3", "PediatricConference")),
                    Atom("u2", "MedicalConference")], "u3")
    into = make_or([Not(Atom("u4", "Event")),
                    Atom("u3", "HumanActivity")], "u3")
    assert onto in parts and into in parts
    assert ck == make_and([onto, into], "u3")


def test_internalization_triangle_u2():
    # MedicalConference subsumed-by Conference has an atomic left side, so
    # it is absorbed; only the onto rule stays a disjunction
    kb = conference_triangle_kb()
    ck = kb.internalization("u2")
    onto = make_or([Not(Atom("u2", "Conference")), Atom("u4", "Event")], "u2")
    assert ck == onto
    assert kb.absorbed("u2") == {
        Atom("u2", "MedicalConference"): (Atom("u2", "Conference"),)}


def test_internalization_built_on_first_use():
    kb = conference_triangle_kb()
    assert kb._internalizations == {}
    ck = kb.internalization("u3")
    assert kb._internalizations == {"u3": ck}
    assert kb.internalization("u3") is ck
    with pytest.raises(KeyError):
        kb.internalization("u9")


def test_internalization_is_pure_function_of_kb():
    kb1 = conference_triangle_kb()
    kb2 = conference_triangle_kb()
    for u in kb1.unit_order:
        assert kb1.internalization(u) == kb2.internalization(u)


def test_sub_properties_reflexive():
    kb = DistributedKB.build({"u1": UnitKB(unit="u1", role_names={"r"})})
    p = Property("r", "u1", "u1")
    assert kb.sub_properties(p) == {p}


def test_sub_properties_transitive_chain():
    ukb = UnitKB(unit="u1", role_names={"e1", "e2", "e3"},
                 role_inclusions=[("e1", "e2"), ("e2", "e3")])
    kb = DistributedKB.build({"u1": ukb})
    e3 = Property("e3", "u1", "u1")
    names = {p.name for p in kb.sub_properties(e3) if not p.inverted}
    assert names == {"e1", "e2", "e3"}


def test_inverse_inclusions_follow_role_inclusions():
    ukb = UnitKB(unit="u1", role_names={"r", "s"}, role_inclusions=[("r", "s")])
    kb = DistributedKB.build({"u1": ukb})
    r = Property("r", "u1", "u1", inverted=True)
    s = Property("s", "u1", "u1", inverted=True)
    assert s in kb.subsumers(r)


def test_validate_non_simple_number_restriction():
    u1 = UnitKB(unit="u1", concept_names={"C"}, role_names={"e"},
                gcis=[(Atom("u1", "C"),
                       AtMost(2, Property("e", "u1", "u2"), Atom("u2", "D")))])
    u2 = UnitKB(unit="u2", concept_names={"D"})
    coup = Coupling(holder="u1",
                    links=[LinkDecl("e", "u2", transitive=True)])
    kb = DistributedKB.build({"u1": u1, "u2": u2}, {"u1": coup})
    codes = {v.code for v in kb.validate()}
    assert "non-simple" in codes


def test_validate_transitive_link_needs_role_pun():
    coup = Coupling(holder="u1", links=[LinkDecl("e", "u2", transitive=True)])
    kb = DistributedKB.build(
        {"u1": UnitKB(unit="u1"), "u2": UnitKB(unit="u2")}, {"u1": coup})
    codes = {v.code for v in kb.validate()}
    assert "transitive-link" in codes


def test_validate_filler_home_mismatch():
    u1 = UnitKB(unit="u1", concept_names={"C"}, role_names={"r"},
                gcis=[(Atom("u1", "C"),
                       Exists(Property("r", "u1", "u1"), Atom("u2", "D")))])
    u2 = UnitKB(unit="u2", concept_names={"D"})
    kb = DistributedKB.build({"u1": u1, "u2": u2})
    codes = {v.code for v in kb.validate()}
    assert "filler-home" in codes


@pytest.mark.parametrize("coupling, code", [
    ({"unit": "u1", "mappings": [{"source_unit": "u1",
                                  "individual_correspondences": [
                                      {"foreign": "u1:b", "local": "u1:a"}]}]},
     "correspondence-source"),
    ({"unit": "u1", "links": [{"name": "r", "target_unit": "u1"}]},
     "link-target"),
], ids=["correspondence", "link"])
def test_validate_rejects_couplings_toward_their_holder(coupling, code):
    u1 = "(unit u1)\n(role r)\n(individual a)\n(individual b)"
    with pytest.raises(LoadError) as exc:
        load_kb([u1, "(unit u2)"], [coupling])
    assert [p.split(" ")[0] for p in exc.value.problems] == [code]


def test_validate_names_the_unknown_atoms_of_a_bridge_rule():
    u1 = UnitKB(unit="u1", concept_names={"B"})
    u2 = UnitKB(unit="u2", concept_names={"A"})
    coup = Coupling(holder="u1", bridge_rules=[
        BridgeRule("onto", Atom("u2", "Nope"), Atom("u1", "B")),
        BridgeRule("into", Atom("u9", "X"), Atom("u1", "B"))])
    kb = DistributedKB.build({"u1": u1, "u2": u2}, {"u1": coup})
    assert [str(v) for v in kb.validate()] == [
        "unknown-concept [u1]: u2:Nope is not declared",
        "unknown-unit [u1]: u9:X names unit u9",
    ]


@pytest.mark.parametrize("axiom, problem", [
    ("(sub A (not Typo))", "unknown-concept [u1]: u1:Typo is not declared"),
    ("(sub A (not u9:X))", "unknown-unit [u1]: u9:X names unit u9"),
    ("(instance a (not Typo))",
     "unknown-concept [u1]: u1:Typo is not declared"),
], ids=["gci", "unit", "assertion"])
def test_validate_checks_the_operand_of_a_negation(axiom, problem):
    with pytest.raises(LoadError) as exc:
        load_kb([f"(unit u1)\n(concept A)\n(individual a)\n{axiom}"])
    assert exc.value.problems == [problem]


def test_validate_names_each_violation_of_a_concept_once_in_one_order():
    with pytest.raises(LoadError) as exc:
        load_kb(["(unit u1)\n(concept A)\n(sub A (and T1 (or (not T4) "
                 "(and (not T1) (and T3 (some zz (or T2 T4)))))))"])
    assert exc.value.problems == [
        "unknown-concept [u1]: u1:T1 is not declared",
        "unknown-concept [u1]: u1:T2 is not declared",
        "unknown-concept [u1]: u1:T3 is not declared",
        "unknown-concept [u1]: u1:T4 is not declared",
        "unknown-property [u1]: u1:zz is not declared",
    ]


_U2 = "(unit u2)\n(concept A)\n(concept B)\n(individual x)"


@pytest.mark.parametrize("u1, coupling, violation", [
    ("(concept A)\n(sub A (some r A))", {},
     "unknown-property [u1]: u1:r is not declared"),
    ("(role r)\n(subrole r s)", {},
     "unknown-property [u1]: role s is not declared"),
    ("(transitive t)", {},
     "unknown-property [u1]: transitive role t is not declared"),
    ("(individual a)\n(related a t a)", {},
     "unknown-property [u1]: role t is not declared"),
    ("(concept A)\n(instance z A)", {}, "unknown-individual [u1]: z"),
    ("(concept B)", {"bridge_rules": [BridgeRule("onto", Atom("u2", "A"),
                                                  Atom("u2", "B"))]},
     "bridge-target [u1]: (onto u2:A u2:B) target is not local"),
    ("(concept A)\n(concept B)",
     {"bridge_rules": [BridgeRule("into", Atom("u1", "A"), Atom("u1", "B"))]},
     "bridge-source [u1]: (into u1:A u1:B) source is not foreign"),
    ("", {"links": [LinkDecl("e", "u9")]},
     "unknown-unit [u1]: link e targets u9"),
    ("(individual a)", {"individual_correspondences": [
        IndividualCorrespondence("u9", "x", "a")]},
     "unknown-unit [u1]: correspondence names unit u9"),
    ("(individual a)", {"individual_correspondences": [
        IndividualCorrespondence("u2", "nope", "a")]},
     "unknown-individual [u1]: u2:nope"),
    ("(individual a)", {"link_assertions": [
        LinkAssertion("a", "e", "u2", "x")]},
     "unknown-property [u1]: link e is not declared"),
    ("(individual a)", {"links": [LinkDecl("e", "u2")], "link_assertions": [
        LinkAssertion("a", "e", "u9", "x")]},
     "unknown-unit [u1]: link assertion names unit u9"),
    ("(individual a)", {"links": [LinkDecl("e", "u2")], "link_assertions": [
        LinkAssertion("a", "e", "u2", "nope")]},
     "unknown-individual [u1]: u2:nope"),
], ids=["restriction-property", "role-inclusion", "transitive-role",
        "role-assertion", "asserted-individual", "bridge-target",
        "bridge-source", "link-target-unit", "correspondence-unit",
        "correspondence-individual", "assertion-link",
        "assertion-unit", "assertion-individual"])
def test_validate_names_each_violation(u1, coupling, violation):
    # coupling values that parse_coupling would reject go through build
    units = {u.unit: u for u in map(parse_unit, [f"(unit u1)\n{u1}", _U2])}
    kb = DistributedKB.build(units, {"u1": Coupling(holder="u1", **coupling)})
    assert [str(v) for v in kb.validate()] == [violation]


def test_validate_names_a_coupling_without_its_unit():
    kb = DistributedKB.build({"u1": UnitKB(unit="u1")},
                             {"u9": Coupling(holder="u9")})
    assert [str(v) for v in kb.validate()] == [
        "unknown-unit: coupling held by undeclared unit u9"]


def test_validate_square_kb_clean():
    assert conference_square_kb().validate() == []
    assert conference_triangle_kb().validate() == []


def test_punned_variants():
    kb = conference_square_kb()
    role = Property("presentedAt", "u1", "u1")
    link = Property("presentedAt", "u1", "u4")
    assert kb.is_punned(role) and kb.is_punned(link)
    assert kb.punned_variants(role) == {role, link}


# -- hash-consing ---------------------------------------------------------------

def _fresh(s):
    """An equal string built at run time rather than a shared literal
    (CPython still shares one-character strings)."""
    return "".join(list(s))


E = Property("e", "u1", "u2")
D = Atom("u2", "D")

# (builder, golden key) for one sample of each constructor; the builder is
# called twice so that each call allocates its own field values
_SAMPLES = [
    (lambda: Property(_fresh("r"), "u1", "u1", True), "inv u1:r"),
    (lambda: Property(_fresh("e"), "u1", _fresh("u2")), "u1:e->u2"),
    (lambda: Top(_fresh("u1")), "u1:*top*"),
    (lambda: Bottom(_fresh("u2")), "u2:*bot*"),
    (lambda: Atom(_fresh("u1"), _fresh("A")), "u1:A"),
    (lambda: Not(Atom("u1", _fresh("A"))), "(not u1:A)"),
    (lambda: And(A, Atom("u1", _fresh("B")), "u1"), "(and@u1 u1:A u1:B)"),
    (lambda: Or(B, Not(Atom("u1", "C")), _fresh("u1")),
     "(or@u1 u1:B (not u1:C))"),
    (lambda: Exists(Property("r", "u1", "u1"), B), "(some u1:r u1:B)"),
    (lambda: ForAll(R.inverse(), A), "(all inv u1:r u1:A)"),
    (lambda: AtLeast(2, R, Atom("u1", "A")), "(min 2 u1:r u1:A)"),
    (lambda: AtMost(0, Property("e", "u1", "u2"), Atom("u2", "D")),
     "(max 0 u1:e->u2 u2:D)"),
]


@pytest.mark.parametrize("build,golden", _SAMPLES, ids=[g for _, g in _SAMPLES])
def test_equal_values_are_one_object(build, golden):
    one, two = build(), build()
    assert one is two
    assert hash(one) == hash(two)
    assert one.key() == repr(one) == golden


def test_property_construction_forms_intern_together():
    p = Property("r", "u1", "u1")
    assert Property("r", "u1", "u1", False) is p
    assert Property(name="r", home="u1", target="u1", inverted=False) is p
    inv = Property("r", "u1", "u1", inverted=True)
    assert Property("r", "u1", "u1", True) is inv
    assert p.inverse() is inv and inv.inverse() is p
    assert inv is not p


def test_model_errors_still_raised():
    with pytest.raises(ModelError):
        AtLeast(0, R, A)
    with pytest.raises(ModelError):
        AtMost(-1, R, A)
    with pytest.raises(ModelError):
        Property("e", "u1", "u2", inverted=True)
    with pytest.raises(ModelError):
        E.inverse()


@pytest.mark.parametrize("value,attr", [
    (A, "name"), (Not(A), "operand"), (And(A, B, "u1"), "unit"),
    (AtMost(1, R, A), "n"), (R, "inverted"), (A, "extra"),
])
def test_interned_values_are_immutable(value, attr):
    before = value.key()
    with pytest.raises(AttributeError):
        setattr(value, attr, "x")
    with pytest.raises(AttributeError):
        delattr(value, attr)
    assert value.key() == before


def test_copy_and_pickle_keep_identity():
    import copy
    import pickle

    c = make_or([ForAll(R, B), AtLeast(2, E, D)], "u1")
    for value in [build() for build, _ in _SAMPLES] + [c]:
        assert copy.copy(value) is value
        assert copy.deepcopy(value) is value
        assert pickle.loads(pickle.dumps(value)) is value


def test_unreferenced_values_leave_the_table():
    import gc
    import weakref

    ref = weakref.ref(Atom("u1", "OnlyHere"))
    gc.collect()
    assert ref() is None


def test_role_keeps_its_inverse_alive():
    import gc
    import weakref

    role = Property("onlyHere", "u1", "u1")
    ref = weakref.ref(role.inverse())
    gc.collect()
    assert ref() is role.inverse()
    assert ref().inverse() is role


def test_make_and_make_or_canonical_nesting():
    C = Atom("u1", "C")
    assert make_and([C, A, B, A], "u1").key() == \
        "(and@u1 u1:A (and@u1 u1:B u1:C))"
    assert make_and([C, A, B, A], "u1") is make_and([A, B, C], "u1")
    assert make_or([Or(C, B, "u1"), A, Not(A)], "u1").key() == \
        "(or@u1 (not u1:A) (or@u1 u1:A (or@u1 u1:B u1:C)))"
    assert make_and([And(B, A, "u1"), Exists(R, C)], "u1").key() == \
        "(and@u1 (some u1:r u1:C) (and@u1 u1:A u1:B))"
    assert sorted([C, Not(A), A, Top("u1"), Exists(R, B)]) == \
        [Not(A), Exists(R, B), Top("u1"), A, C]


def test_concurrent_interning_yields_one_object():
    import sys
    import threading

    rounds, workers = 200, 4
    got = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def build(out):
        start.wait()
        for i in range(rounds):
            out.append(Exists(Property(f"race{i}", "u1", "u1"),
                              Atom("u1", f"Race{i}")))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for i in range(rounds):
        assert all(out[i] is got[0][i] for out in got)
