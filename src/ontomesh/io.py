"""Parsers and serializers for unit documents and coupling documents.

A unit document is a line-oriented s-expression DSL; a coupling document is
JSON.  Parsing is strict: unknown forms, bad arities and malformed names
raise ParseError with line and column.  serialize_unit(parse_unit(x)) is a
fixpoint and its output is byte-deterministic for a given unit.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path

from .model import (
    INTO,
    ONTO,
    Atom,
    AtLeast,
    AtMost,
    BridgeRule,
    Concept,
    Coupling,
    DistributedKB,
    Exists,
    ForAll,
    IndividualCorrespondence,
    LinkAssertion,
    LinkDecl,
    ModelError,
    Not,
    Or,
    And,
    Property,
    Top,
    Bottom,
    UnitKB,
    nnf,
)

NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.-]*$")


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}, col {col}: {message}" if line else message)
        self.line = line
        self.col = col


class SchemaError(Exception):
    """Coupling document does not match the expected JSON structure."""


class LoadError(Exception):
    """Aggregate of parse and validation failures while assembling a KB."""

    def __init__(self, problems: list[str]):
        super().__init__("; ".join(problems))
        self.problems = problems


# ---------------------------------------------------------------------------
# s-expression reader
# ---------------------------------------------------------------------------

@dataclass
class _Tok:
    text: str
    line: int
    col: int


class _Form(list):
    """A parenthesized form: its items, at the position of its "("."""

    __slots__ = ("line", "col")

    def __init__(self, tok: _Tok):
        self.line, self.col = tok.line, tok.col


def _tokenize_line(text: str, line_no: int) -> list[_Tok]:
    toks = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == ";":
            break
        if ch.isspace():
            i += 1
            continue
        if ch in "()":
            toks.append(_Tok(ch, line_no, i + 1))
            i += 1
            continue
        j = i
        while j < len(text) and not text[j].isspace() and text[j] not in "();":
            j += 1
        toks.append(_Tok(text[i:j], line_no, i + 1))
        i = j
    return toks


def _read_form(toks: list[_Tok], pos: int):
    tok = toks[pos]
    if tok.text == "(":
        items = _Form(tok)
        pos += 1
        while True:
            if pos >= len(toks):
                raise ParseError("missing )", tok.line, tok.col)
            if toks[pos].text == ")":
                return items, pos + 1
            item, pos = _read_form(toks, pos)
            items.append(item)
    if tok.text == ")":
        raise ParseError("unexpected )", tok.line, tok.col)
    return tok, pos + 1


# ---------------------------------------------------------------------------
# unit DSL
# ---------------------------------------------------------------------------

def _qname(tok: _Tok, current: str) -> tuple[str, str]:
    text = tok.text
    if ":" in text:
        unit, name = text.split(":", 1)
    else:
        unit, name = current, text
    if not unit or not NAME_RE.match(name):
        raise ParseError(f"bad name {text!r}", tok.line, tok.col)
    return unit, name


class _UnitParser:
    def __init__(self):
        self.kb: UnitKB | None = None

    def parse(self, text: str) -> UnitKB:
        forms = []
        for ln, raw in enumerate(text.splitlines(), start=1):
            toks = _tokenize_line(raw, ln)
            pos = 0
            while pos < len(toks):
                form, pos = _read_form(toks, pos)
                forms.append(form)
        unit_forms = [f for f in forms
                      if isinstance(f, list) and f and _head(f) == "unit"]
        if len(unit_forms) != 1:
            # at the second (unit form, else at the first form, else at 1:1
            at = (unit_forms[1:] or forms or [_Tok("", 1, 1)])[0]
            raise ParseError("a unit document needs exactly one (unit NAME) form",
                             at.line, at.col)
        unit_name = self._name_arg(unit_forms[0], "unit")
        self.kb = UnitKB(unit=unit_name)
        # declarations first so axioms can reference them in any line order
        for f in forms:
            if _head(f) in ("concept", "role", "individual"):
                self._declaration(f)
        for f in forms:
            head = _head(f)
            if head in ("unit", "concept", "role", "individual"):
                continue
            self._statement(f)
        return self.kb

    def _name_arg(self, form: list, head: str) -> str:
        if len(form) != 2 or not isinstance(form[1], _Tok):
            raise ParseError(f"({head} NAME) takes one name",
                             form[0].line, form[0].col)
        name = form[1].text
        if not NAME_RE.match(name):
            raise ParseError(f"bad name {name!r}", form[1].line, form[1].col)
        return name

    def _declaration(self, form: list):
        head = _head(form)
        name = self._name_arg(form, head)
        pool = {"concept": self.kb.concept_names,
                "role": self.kb.role_names,
                "individual": self.kb.individual_names}[head]
        if name in pool:
            raise ParseError(f"duplicate {head} declaration {name!r}",
                             form[0].line, form[0].col)
        pool.add(name)

    def _statement(self, form):
        if not isinstance(form, list) or not form or not isinstance(form[0], _Tok):
            raise ParseError("expected a (...) form", form.line, form.col)
        head = _head(form)
        tok = form[0]
        if head == "sub":
            lhs, rhs = self._two_concepts(form)
            self.kb.gcis.append((lhs, rhs))
        elif head == "equiv":
            lhs, rhs = self._two_concepts(form)
            self.kb.gcis.append((lhs, rhs))
            self.kb.gcis.append((rhs, lhs))
        elif head == "subrole":
            if len(form) != 3:
                raise ParseError("(subrole P P)", tok.line, tok.col)
            sub = self._local_role_name(form[1])
            sup = self._local_role_name(form[2])
            self.kb.role_inclusions.append((sub, sup))
        elif head == "transitive":
            if len(form) != 2:
                raise ParseError("(transitive P)", tok.line, tok.col)
            self.kb.transitive_roles.add(self._local_role_name(form[1]))
        elif head == "instance":
            if len(form) != 3 or not isinstance(form[1], _Tok):
                raise ParseError("(instance IND CEXPR)", tok.line, tok.col)
            ind = self._local_individual(form[1])
            self.kb.concept_assertions.append(
                (ind, nnf(self._concept(form[2]))))
        elif head == "related":
            if len(form) != 4 or not isinstance(form[1], _Tok) \
                    or not isinstance(form[3], _Tok):
                raise ParseError("(related IND P IND)", tok.line, tok.col)
            a = self._local_individual(form[1])
            p = self._property(form[2])
            b = self._local_individual(form[3])
            self.kb.role_assertions.append((a, p, b))
        elif head == "different":
            if len(form) != 3:
                raise ParseError("(different IND IND)", tok.line, tok.col)
            a = self._local_individual(form[1])
            b = self._local_individual(form[2])
            self.kb.inequalities.append((a, b))
        else:
            raise ParseError(f"unknown form {head!r}", tok.line, tok.col)

    def _two_concepts(self, form):
        if len(form) != 3:
            raise ParseError(f"({_head(form)} CEXPR CEXPR)",
                             form[0].line, form[0].col)
        return nnf(self._concept(form[1])), nnf(self._concept(form[2]))

    def _local_role_name(self, tok) -> str:
        if not isinstance(tok, _Tok):
            raise ParseError("expected a role name", tok.line, tok.col)
        unit, name = _qname(tok, self.kb.unit)
        if unit != self.kb.unit:
            raise ParseError(f"role {tok.text!r} must be local", tok.line, tok.col)
        return name

    def _local_individual(self, tok) -> str:
        if not isinstance(tok, _Tok):
            raise ParseError("expected an individual name", tok.line, tok.col)
        unit, name = _qname(tok, self.kb.unit)
        if unit != self.kb.unit:
            raise ParseError(f"individual {tok.text!r} must be local",
                             tok.line, tok.col)
        return name

    def _property(self, form) -> Property:
        """A role or link name; (inv NAME) is legal for local roles only.
        Whether a bare name is a role or a link is decided by the filler
        at the restriction site, so here we only handle the role cases."""
        if isinstance(form, list):
            if _head(form) != "inv":
                raise ParseError("expected a property name or (inv ROLE)",
                                 form.line, form.col)
            if len(form) != 2:
                raise ParseError("(inv ROLE)", form.line, form.col)
            name = self._local_role_name(form[1])
            return Property(name, self.kb.unit, self.kb.unit, inverted=True)
        name = self._local_role_name(form)
        return Property(name, self.kb.unit, self.kb.unit)

    def _restriction_property(self, form, filler: Concept) -> Property:
        """Resolve the property of a restriction.  The filler's home unit
        decides between the role and the link reading of a punned name."""
        if isinstance(form, list):
            return self._property(form)  # (inv R), always a role
        unit, name = _qname(form, self.kb.unit)
        if unit != self.kb.unit:
            raise ParseError(f"property {form.text!r} must be local",
                             form.line, form.col)
        return Property(name, self.kb.unit, filler.home)

    def _concept(self, form) -> Concept:
        u = self.kb.unit
        if isinstance(form, _Tok):
            if form.text == "top":
                return Top(u)
            if form.text == "bot":
                return Bottom(u)
            unit, name = _qname(form, u)
            return Atom(unit, name)
        if not form or not isinstance(form[0], _Tok):
            raise ParseError("bad concept expression", form.line, form.col)
        head = _head(form)
        tok = form[0]
        if head == "not":
            if len(form) != 2:
                raise ParseError("(not CEXPR)", tok.line, tok.col)
            return Not(self._concept(form[1]))
        if head in ("and", "or"):
            if len(form) < 3:
                raise ParseError(f"({head} CEXPR CEXPR+)", tok.line, tok.col)
            parts = [self._concept(f) for f in form[1:]]
            homes = {c.home for c in parts}
            home = homes.pop() if len(homes) == 1 else u
            out = parts[-1]
            for c in reversed(parts[:-1]):
                out = (And if head == "and" else Or)(c, out, home)
            return out
        if head in ("some", "all"):
            if len(form) != 3:
                raise ParseError(f"({head} P CEXPR)", tok.line, tok.col)
            filler = self._concept(form[2])
            prop = self._restriction_property(form[1], filler)
            return (Exists if head == "some" else ForAll)(prop, filler)
        if head in ("min", "max"):
            if len(form) != 4 or not isinstance(form[1], _Tok):
                raise ParseError(f"({head} INT P CEXPR)", tok.line, tok.col)
            try:
                n = int(form[1].text)
            except ValueError:
                raise ParseError(f"bad number {form[1].text!r}",
                                 form[1].line, form[1].col)
            filler = self._concept(form[3])
            prop = self._restriction_property(form[2], filler)
            try:
                return (AtLeast if head == "min" else AtMost)(n, prop, filler)
            except ModelError as exc:
                raise ParseError(str(exc), tok.line, tok.col)
        raise ParseError(f"unknown constructor {head!r}", tok.line, tok.col)


def _head(form) -> str:
    if isinstance(form, list) and form and isinstance(form[0], _Tok):
        return form[0].text
    return ""


def parse_unit(text: str) -> UnitKB:
    return _UnitParser().parse(text)


def parse_concept(text: str, unit: str) -> Concept:
    """Parse a single concept expression in the context of one unit."""
    toks = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        toks.extend(_tokenize_line(raw, ln))
    if not toks:
        raise ParseError("empty concept expression", 1, 1)
    form, pos = _read_form(toks, 0)
    if pos != len(toks):
        raise ParseError("trailing tokens after concept expression",
                         toks[pos].line, toks[pos].col)
    parser = _UnitParser()
    parser.kb = UnitKB(unit=unit)
    return nnf(parser._concept(form))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _concept_text(c: Concept, current: str) -> str:
    def q(atom_unit: str, name: str) -> str:
        return name if atom_unit == current else f"{atom_unit}:{name}"

    if isinstance(c, Top):
        return "top"
    if isinstance(c, Bottom):
        return "bot"
    if isinstance(c, Atom):
        return q(c.unit, c.name)
    if isinstance(c, Not):
        return f"(not {_concept_text(c.operand, current)})"
    if isinstance(c, (And, Or)):
        head = "and" if isinstance(c, And) else "or"
        return (f"({head} {_concept_text(c.left, current)} "
                f"{_concept_text(c.right, current)})")
    prop = c.prop
    ptext = f"(inv {prop.name})" if prop.inverted else prop.name
    if isinstance(c, Exists):
        return f"(some {ptext} {_concept_text(c.filler, current)})"
    if isinstance(c, ForAll):
        return f"(all {ptext} {_concept_text(c.filler, current)})"
    if isinstance(c, AtLeast):
        return f"(min {c.n} {ptext} {_concept_text(c.filler, current)})"
    if isinstance(c, AtMost):
        return f"(max {c.n} {ptext} {_concept_text(c.filler, current)})"
    raise ModelError(f"cannot serialize {c!r}")


def serialize_unit(kb: UnitKB) -> str:
    u = kb.unit
    lines = [f"(unit {u})"]
    for name in sorted(kb.concept_names):
        lines.append(f"(concept {name})")
    for name in sorted(kb.role_names):
        lines.append(f"(role {name})")
    for name in sorted(kb.individual_names):
        lines.append(f"(individual {name})")
    axioms = sorted(f"(sub {_concept_text(l, u)} {_concept_text(r, u)})"
                    for l, r in kb.gcis)
    axioms += sorted(f"(subrole {a} {b})" for a, b in kb.role_inclusions)
    axioms += sorted(f"(transitive {r})" for r in kb.transitive_roles)
    axioms += sorted(f"(instance {i} {_concept_text(c, u)})"
                     for i, c in kb.concept_assertions)
    axioms += sorted(
        f"(related {a} {('(inv ' + p.name + ')') if p.inverted else p.name} {b})"
        for a, p, b in kb.role_assertions)
    axioms += sorted(f"(different {a} {b})" for a, b in kb.inequalities)
    return "\n".join(lines + axioms) + "\n"


# ---------------------------------------------------------------------------
# coupling documents (JSON)
# ---------------------------------------------------------------------------

def parse_coupling(document: str | dict) -> Coupling:
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}")
    else:
        doc = document
    if not isinstance(doc, dict) or "unit" not in doc:
        raise SchemaError("coupling document must be an object with a 'unit'")
    holder = str(doc["unit"])
    allowed = {"unit", "mappings", "links", "link_assertions"}
    unknown = set(doc) - allowed
    if unknown:
        raise SchemaError(f"unknown coupling fields {sorted(unknown)}")
    coup = Coupling(holder=holder)

    def split_q(ref: str, default_unit: str | None = None) -> tuple[str, str]:
        if ":" in str(ref):
            unit, name = str(ref).split(":", 1)
            return unit, name
        if default_unit is None:
            raise SchemaError(f"{ref!r} must be unit-qualified")
        return default_unit, str(ref)

    def entry(what: str, obj, *required: str) -> dict:
        if not isinstance(obj, dict):
            raise SchemaError(f"{what} {obj!r} is not an object")
        missing = [k for k in required if k not in obj]
        if missing:
            raise SchemaError(f"{what} {obj!r} needs {', '.join(missing)}")
        return obj

    def section(obj: dict, key: str) -> list:
        value = obj.get(key, [])
        if not isinstance(value, list):
            raise SchemaError(f"{key} {value!r} is not a list")
        return value

    for m in section(doc, "mappings"):
        entry("mapping", m, "source_unit")
        src_unit = str(m["source_unit"])
        for rule in section(m, "bridge_rules"):
            kind = entry("bridge rule", rule, "kind", "source", "target")["kind"]
            if kind not in (ONTO, INTO):
                raise SchemaError(f"bridge rule kind must be onto/into, got {kind!r}")
            su, sn = split_q(rule["source"], src_unit)
            tu, tn = split_q(rule["target"], holder)
            if su != src_unit:
                raise SchemaError(f"bridge source {rule['source']!r} is not "
                                  f"in mapping source unit {src_unit}")
            if tu != holder:
                raise SchemaError(f"bridge target {rule['target']!r} is not local")
            coup.bridge_rules.append(
                BridgeRule(kind, Atom(su, sn), Atom(tu, tn)))
        for ic in section(m, "individual_correspondences"):
            entry("correspondence", ic, "foreign", "local")
            fu, fn = split_q(ic["foreign"], src_unit)
            lu, ln = split_q(ic["local"], holder)
            if lu != holder:
                raise SchemaError(f"correspondence local side {ic['local']!r} "
                                  "is not local")
            coup.individual_correspondences.append(
                IndividualCorrespondence(fu, fn, ln))

    for ld in section(doc, "links"):
        entry("link", ld, "name", "target_unit")
        parents = tuple(section(ld, "parents"))
        if not all(isinstance(p, str) for p in parents):
            raise SchemaError(f"link parents {list(parents)!r} are not all names")
        coup.links.append(LinkDecl(
            name=str(ld["name"]),
            target_unit=str(ld["target_unit"]),
            transitive=bool(ld.get("transitive", False)),
            parents=parents))

    for la in section(doc, "link_assertions"):
        link = str(entry("link assertion", la, "from", "link", "to")["link"])
        target = next((l.target_unit for l in coup.links if l.name == link), None)
        if target is None:
            raise SchemaError(f"link assertion uses undeclared link {link!r}")
        lu, ln = split_q(la["from"], holder)
        fu, fn = split_q(la["to"], target)
        if lu != holder:
            raise SchemaError(f"link assertion source {la['from']!r} is not local")
        coup.link_assertions.append(LinkAssertion(ln, link, fu, fn))
    return coup


def serialize_coupling(coup: Coupling) -> str:
    by_source: dict[str, dict] = {}
    for br in sorted(coup.bridge_rules, key=BridgeRule.key):
        entry = by_source.setdefault(br.source.unit, {
            "source_unit": br.source.unit,
            "bridge_rules": [], "individual_correspondences": []})
        entry["bridge_rules"].append({
            "kind": br.kind,
            "source": f"{br.source.unit}:{br.source.name}",
            "target": f"{br.target.unit}:{br.target.name}"})
    for ic in sorted(coup.individual_correspondences,
                     key=lambda c: (c.foreign_unit, c.foreign_name, c.local_name)):
        entry = by_source.setdefault(ic.foreign_unit, {
            "source_unit": ic.foreign_unit,
            "bridge_rules": [], "individual_correspondences": []})
        entry["individual_correspondences"].append({
            "foreign": f"{ic.foreign_unit}:{ic.foreign_name}",
            "local": f"{coup.holder}:{ic.local_name}"})
    doc = {
        "unit": coup.holder,
        "mappings": [by_source[k] for k in sorted(by_source)],
        "links": [{"name": ld.name, "target_unit": ld.target_unit,
                   "transitive": ld.transitive, "parents": list(ld.parents)}
                  for ld in sorted(coup.links, key=lambda l: (l.name, l.target_unit))],
        "link_assertions": [
            {"from": f"{coup.holder}:{la.local_ind}", "link": la.link,
             "to": f"{la.target_unit}:{la.foreign_ind}"}
            for la in sorted(coup.link_assertions,
                             key=lambda a: (a.local_ind, a.link, a.foreign_ind))],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# whole-KB assembly
# ---------------------------------------------------------------------------

def load_kb(unit_texts: list[str],
            coupling_docs: list[str | dict] | None = None) -> DistributedKB:
    """Parse, assemble and validate a distributed KB; fail fast on any
    violation."""
    problems: list[str] = []
    units: dict[str, UnitKB] = {}
    for text in unit_texts:
        try:
            ukb = parse_unit(text)
        except ParseError as exc:
            problems.append(str(exc))
            continue
        if ukb.unit in units:
            problems.append(f"duplicate unit {ukb.unit}")
        units[ukb.unit] = ukb
    couplings: dict[str, Coupling] = {}
    for doc in coupling_docs or []:
        try:
            coup = parse_coupling(doc)
        except SchemaError as exc:
            problems.append(str(exc))
            continue
        if coup.holder in couplings:
            problems.append(f"duplicate coupling document for {coup.holder}")
        couplings[coup.holder] = coup
    if problems:
        raise LoadError(problems)
    kb = DistributedKB.build(units, couplings)
    violations = kb.validate()
    if violations:
        raise LoadError([str(v) for v in violations])
    return kb


def load_kb_paths(unit_paths: list[str], coupling_paths: list[str]) -> DistributedKB:
    unit_texts = [Path(p).read_text(encoding="utf-8") for p in unit_paths]
    coupling_docs = [Path(p).read_text(encoding="utf-8")
                     for p in coupling_paths]
    return load_kb(unit_texts, coupling_docs)
