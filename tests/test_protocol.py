import json

from ontomesh.model import (
    And, Atom, AtLeast, AtMost, Bottom, Exists, ForAll, Not, Or, Property, Top,
)
from ontomesh.protocol import ProjectionItem, ProjectionPackage


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
    pkg = ProjectionPackage(id="u1-7", frm="u1", to="u2", items=(
        ProjectionItem(source_node=0, fragment=(B, Not(D)),
                       target_individual="b", trigger_origin="u1"),
        ProjectionItem(source_node=3, fragment=(
            Or(Top("u2"), Bottom("u2"), "u2"),
            And(Exists(R.inverse(), B), ForAll(E, Atom("u1", "A")), "u2"),
            And(AtLeast(2, R, B), AtMost(1, R, Not(D)), "u2"),
        ), trigger_origin="u1"),
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
