import json

import pytest

from ontomesh.io import (
    LoadError, ParseError, SchemaError, load_kb, load_kb_paths,
    parse_concept, parse_coupling, parse_unit, serialize_coupling,
    serialize_unit,
)
from ontomesh.model import (
    Atom, Exists, ForAll, Or, Property, UnitKB, ONTO,
)

from figures import (
    articles_linked_kb, articles_overlap_kb, conference_square_kb,
    conference_triangle_kb,
)


def test_parse_simple_gci():
    ukb = parse_unit("""
(unit u2)
(concept MedicalConference)
(concept Conference)
(sub MedicalConference Conference)
""")
    assert ukb.gcis == [(Atom("u2", "MedicalConference"),
                         Atom("u2", "Conference"))]


def test_parse_equiv_gives_two_gcis():
    ukb = parse_unit("""
(unit u1)
(concept Article)
(equiv Article (all presentedAt u4:Event))
""")
    assert len(ukb.gcis) == 2
    rhs = ForAll(Property("presentedAt", "u1", "u4"), Atom("u4", "Event"))
    assert (Atom("u1", "Article"), rhs) in ukb.gcis
    assert (rhs, Atom("u1", "Article")) in ukb.gcis


def test_restriction_property_resolved_by_filler():
    ukb = parse_unit("""
(unit u1)
(concept A)
(concept B)
(role p)
(sub A (some p B))
(sub A (some p u2:C))
""")
    props = [rhs.prop for _, rhs in ukb.gcis]
    assert props[0] == Property("p", "u1", "u1")
    assert props[1] == Property("p", "u1", "u2")


def test_parse_empty_document_rejected_without_unit():
    with pytest.raises(ParseError):
        parse_unit("")


def test_parse_empty_unit():
    ukb = parse_unit("(unit u9)")
    assert ukb.unit == "u9"
    assert not ukb.gcis and not ukb.concept_names


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_unit("(unit u1)\n(sub A")
    assert "line 2" in str(err.value)


@pytest.mark.parametrize("line, message", [
    ("(sub A (some (inv) A))", "(inv ROLE)"),
    ("(sub A (some (r) A))", "expected a property name or (inv ROLE)"),
    ("(sub A ())", "bad concept expression"),
    ("foo", "expected a (...) form"),
    ("(subrole (r) r)", "expected a role name"),
    ("(different (a) b)", "expected an individual name"),
    ("(different a ())", "expected an individual name"),
], ids=["inv-without-role", "role-in-parens", "empty-concept", "bare-name",
        "form-as-role-name", "form-as-individual", "empty-form-as-individual"])
def test_malformed_forms_carry_position(line, message):
    with pytest.raises(ParseError) as err:
        parse_unit(f"(unit u1)\n(concept A) (role r)\n{line}\n")
    assert err.value.line == 3 and err.value.col > 0
    assert str(err.value).endswith(message)


def test_trailing_concept_tokens_carry_position():
    with pytest.raises(ParseError) as err:
        parse_concept("(not A) B", "u1")
    assert (err.value.line, err.value.col) == (1, 9)


@pytest.mark.parametrize("parse, at", [
    (lambda: parse_unit("; no forms\n"), (1, 1)),
    (lambda: parse_unit("\n  (concept A)\n(role r)"), (2, 3)),
    (lambda: parse_unit("(unit u1)\n(concept A)\n (unit u2)"), (3, 2)),
    (lambda: parse_concept("", "u1"), (1, 1)),
], ids=["no-forms", "no-unit-form", "second-unit-form", "empty-concept"])
def test_document_errors_carry_position(parse, at):
    with pytest.raises(ParseError) as err:
        parse()
    assert (err.value.line, err.value.col) == at


def test_duplicate_declaration_rejected():
    with pytest.raises(ParseError):
        parse_unit("(unit u1)\n(concept A)\n(concept A)")


def test_min_zero_rejected():
    with pytest.raises(ParseError):
        parse_unit("(unit u1)\n(concept A)\n(role r)\n(sub A (min 0 r A))")


def test_inverse_only_for_local_roles():
    ukb = parse_unit("""
(unit u1)
(concept A)
(role r)
(sub A (some (inv r) A))
""")
    ((_, rhs),) = ukb.gcis
    assert rhs.prop.inverted


def test_abox_forms():
    ukb = parse_unit("""
(unit u1)
(concept C)
(role r)
(individual a)
(individual b)
(instance a C)
(related a r b)
(different a b)
""")
    assert ukb.concept_assertions == [("a", Atom("u1", "C"))]
    assert ukb.role_assertions == [("a", Property("r", "u1", "u1"), "b")]
    assert ukb.inequalities == [("a", "b")]


def test_unit_round_trip_is_fixpoint():
    text = """
(unit u1)
(concept Article)
(concept MedicalArticle)
(role presentedAt)
(individual a)
(sub MedicalArticle (all presentedAt u2:MedicalConference))
(equiv Article (all presentedAt u2:Conference))
(instance a Article)
(transitive presentedAt)
"""
    once = serialize_unit(parse_unit(text))
    twice = serialize_unit(parse_unit(once))
    assert once == twice


def test_coupling_round_trip():
    doc = {"unit": "u1",
           "mappings": [{"source_unit": "u2", "bridge_rules": [
               {"kind": "onto", "source": "u2:Conference",
                "target": "u1:MedicalConference"}],
               "individual_correspondences": [
                   {"foreign": "u2:x", "local": "u1:y"}]}],
           "links": [{"name": "presentedAt", "target_unit": "u4",
                      "transitive": False, "parents": []}],
           "link_assertions": [{"from": "u1:a", "link": "presentedAt",
                                "to": "u4:e"}]}
    coup = parse_coupling(doc)
    assert coup.bridge_rules[0].kind == ONTO
    assert coup.links[0].target_unit == "u4"
    assert coup.link_assertions[0].foreign_ind == "e"
    text = serialize_coupling(coup)
    again = parse_coupling(text)
    assert serialize_coupling(again) == text


def test_coupling_empty_document():
    coup = parse_coupling({"unit": "u1"})
    assert coup.is_empty()


def test_coupling_bad_kind():
    with pytest.raises(SchemaError):
        parse_coupling({"unit": "u1", "mappings": [
            {"source_unit": "u2", "bridge_rules": [
                {"kind": "equal", "source": "u2:A", "target": "u1:B"}]}]})


def test_coupling_unknown_field():
    with pytest.raises(SchemaError):
        parse_coupling({"unit": "u1", "bridges": []})


_TWO_UNITS = ["(unit u1)\n(concept B)\n(individual y)",
              "(unit u2)\n(concept A)\n(individual x)"]


@pytest.mark.parametrize("coupling, named", [
    ({"mappings": [{"source_unit": "u2", "bridge_rules": [
        {"kind": "onto", "target": "u1:B"}]}]}, "bridge rule"),
    ({"mappings": [{"source_unit": "u2", "individual_correspondences": [
        {"local": "u1:y"}]}]}, "correspondence"),
    ({"links": [{"name": "r", "target_unit": "u2"}],
      "link_assertions": [{"from": "u1:y", "to": "u2:x"}]}, "link assertion"),
    ({"mappings": [{"source_unit": "u2", "bridge_rules": [
        "onto u2:A u1:B"]}]}, "bridge rule 'onto u2:A u1:B'"),
    ({"mappings": 5}, "mappings 5 is not a list"),
    ({"links": [{"name": "r", "target_unit": "u2", "parents": 5}]},
     "parents 5 is not a list"),
    ({"links": [{"name": "e", "target_unit": "u2", "parents": ["nosuch"]}]},
     "link e has undeclared parent nosuch toward u2"),
    ({"links": [{"name": "e", "target_unit": "u2", "parents": [1]}]},
     r"link parents \[1\] are not all names"),
], ids=["rule-without-source", "correspondence-without-foreign",
        "assertion-without-link", "rule-as-string", "mappings-not-a-list",
        "parents-not-a-list", "undeclared-parent", "parent-not-a-name"])
def test_malformed_coupling_entry_fails_to_load(coupling, named):
    with pytest.raises(LoadError, match=named):
        load_kb(_TWO_UNITS, [{"unit": "u1", **coupling}])


def test_load_kb_square_matches_expectation():
    kb = conference_square_kb()
    assert set(kb.unit_order) == {"u1", "u2", "u3", "u4"}
    assert len(kb.couplings["u3"].bridge_rules) == 3


def test_load_single_unit_kb():
    kb = load_kb(["(unit solo)\n(concept A)"])
    assert kb.unit_order == ["solo"]


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_kb_paths_reads_what_load_kb_reads(tmp_path):
    coupling = json.dumps({"unit": "u1", "mappings": [{
        "source_unit": "u2",
        "bridge_rules": [{"kind": "onto", "source": "u2:A", "target": "u1:B"}],
        "individual_correspondences": [{"foreign": "u2:x", "local": "u1:y"}]}]})
    units = [_write(tmp_path, f"unit{i}.txt", text)
             for i, text in enumerate(_TWO_UNITS)]
    kb = load_kb_paths(units, [_write(tmp_path, "u1.json", coupling)])
    assert kb == load_kb(_TWO_UNITS, [coupling])
    assert kb.couplings["u1"].bridge_rules


@pytest.mark.parametrize("unit, coupling, named", [
    ("(unit u1)\n(frobnicate A)", None, "line 2, col 2: unknown form"),
    ("(unit u1)", "{", "invalid JSON"),
], ids=["unit-form", "coupling-json"])
def test_load_kb_paths_bad_file_fails_to_load(tmp_path, unit, coupling,
                                              named):
    couplings = [] if coupling is None else [
        _write(tmp_path, "u1.json", coupling)]
    with pytest.raises(LoadError, match=named):
        load_kb_paths([_write(tmp_path, "u1.txt", unit)], couplings)


def test_load_dangling_unit_reference_fails():
    with pytest.raises(LoadError):
        load_kb(["(unit u1)\n(concept A)"],
                [{"unit": "u1", "mappings": [{"source_unit": "ghost",
                                              "bridge_rules": [
                    {"kind": "onto", "source": "ghost:X", "target": "u1:A"}]}]}])


def test_canonical_serialization_is_deterministic():
    kb1 = conference_triangle_kb()
    kb2 = conference_triangle_kb()
    for u in kb1.unit_order:
        assert serialize_unit(kb1.units[u]) == serialize_unit(kb2.units[u])
        assert (serialize_coupling(kb1.couplings[u])
                == serialize_coupling(kb2.couplings[u]))


def test_parse_concept_in_context():
    c = parse_concept("(and PediatricConference (not HumanActivity))", "u3")
    assert c.home == "u3"


def test_fixture_kbs_validate():
    for build in (articles_linked_kb, articles_overlap_kb,
                  conference_triangle_kb, conference_square_kb):
        assert build().validate() == []
