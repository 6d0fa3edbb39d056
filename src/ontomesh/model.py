"""Core model of a distributed knowledge base built from coupled ontology units.

Every concept and property name is owned by exactly one unit.  A unit couples
itself to neighbors through subjective concept correspondences (onto/into
bridge rules), through cross-unit link relations, and through individual
correspondences.  All of that, plus the usual TBox/RBox/ABox content, lives
here as immutable data, together with the derived machinery the reasoner
needs: negation normal form, sub-expression closures, per-unit
internalization concepts with their absorbed GCIs, and the property
hierarchy.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import dataclass, field
from operator import attrgetter

UnitId = str

ONTO = "onto"
INTO = "into"


class ModelError(Exception):
    """Raised for malformed concepts or KB construction errors."""


# ---------------------------------------------------------------------------
# Hash-consing
# ---------------------------------------------------------------------------

class _Interned:
    """Immutable hash-consed value (Filliâtre & Conchon, "Type-safe modular
    hash-consing", 2006).

    Each concrete class names its constructor arguments, in order, in
    ``_fields`` and calls ``_intern`` from ``__new__``.  Structurally equal
    values are one object, so equality and hash are both identity, the
    defaults of ``object``.  The canonical key string and the ``home`` unit
    are stored when the value is first made.  Copies and pickles rebuild a
    value from its fields, which gives back the interned object.  The table
    holds its values weakly: a value lives as long as something outside
    the table refers to it.
    """

    __slots__ = ("_key", "home", "__weakref__")
    _fields: tuple[str, ...] = ()
    _table: weakref.WeakValueDictionary = weakref.WeakValueDictionary()
    # a miss builds a candidate, then inserts it unless another thread
    # has inserted an equal value in the meantime
    _insert_lock = threading.Lock()

    @classmethod
    def _intern(cls, fields: tuple, home: UnitId):
        ident = (cls, fields)
        obj = _Interned._table.get(ident)
        if obj is not None:
            return obj
        obj = object.__new__(cls)
        for name, value in zip(cls._fields, fields):
            object.__setattr__(obj, name, value)
        object.__setattr__(obj, "home", home)
        object.__setattr__(obj, "_key", obj._make_key())
        with _Interned._insert_lock:
            return _Interned._table.setdefault(ident, obj)

    def _make_key(self) -> str:
        raise NotImplementedError

    def key(self) -> str:
        return self._key

    def __repr__(self):
        return self._key

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


# sort key for concepts and properties: the cached canonical key string
by_key = attrgetter("_key")


# ---------------------------------------------------------------------------
# Properties (roles and link relations)
# ---------------------------------------------------------------------------

class Property(_Interned):
    """A role (home == target) or a link relation (home != target).

    The same name may be declared both as a role of a unit and as a link
    from that unit to another; occurrences are told apart by the filler's
    home unit.  Only roles have inverses.
    """

    # _inverse keeps a role's inverse alive with it: the tableau asks for
    # it on every successor lookup, and a weakly interned inverse would
    # be rebuilt each time
    __slots__ = ("name", "target", "inverted", "_inverse")
    _fields = ("name", "home", "target", "inverted")

    def __new__(cls, name: str, home: UnitId, target: UnitId,
                inverted: bool = False):
        if inverted and home != target:
            raise ModelError(f"link relation {name} cannot be inverted")
        return cls._intern((name, home, target, inverted), home)

    @property
    def is_role(self) -> bool:
        return self.home == self.target

    def inverse(self) -> "Property":
        if not self.is_role:
            raise ModelError(f"no inverse for link relation {self.name}")
        try:
            return self._inverse
        except AttributeError:
            inv = Property(self.name, self.home, self.target, not self.inverted)
            object.__setattr__(self, "_inverse", inv)
            object.__setattr__(inv, "_inverse", self)
            return inv

    def _make_key(self) -> str:
        inv = "inv " if self.inverted else ""
        if self.is_role:
            return f"{inv}{self.home}:{self.name}"
        return f"{self.home}:{self.name}->{self.target}"


# ---------------------------------------------------------------------------
# Concepts
# ---------------------------------------------------------------------------

class Concept(_Interned):
    """Base class of the concept constructors; every concrete concept is
    interned, so two equal concepts are the same object.

    ``op`` names the constructor: its head in the unit DSL and in the wire
    form.  ``home`` is the unit whose vocabulary the concept speaks: the
    unit of a constant, atom or connective, the operand's home for a
    negation, and the property's home for a restriction.  Each family of
    constructors says once which of its fields are sub-concepts, through
    ``children`` and ``map``; literals (constants, atoms and negations)
    have none.
    """

    # _order caches the tableau's branch_order of the concept, made on
    # first use, as an atom keeps its negation
    __slots__ = ("_order",)
    op: str

    def children(self) -> tuple["Concept", ...]:
        """The sub-concepts that NNF, closures and rewrites descend into."""
        return ()

    def map(self, f, cls=None) -> "Concept":
        """This constructor, or its sibling cls, over f of each child."""
        return self

    def __lt__(self, other: "Concept"):
        return self._key < other._key


class Constant(Concept):
    """Top and Bottom of one unit."""

    __slots__ = _fields = ("unit",)

    def __new__(cls, unit: UnitId):
        return cls._intern((unit,), unit)

    def map(self, f, cls=None):
        return self if cls is None else cls(self.unit)

    def _make_key(self):
        return f"{self.unit}:*{self.op}*"


class Top(Constant):
    __slots__ = ()
    op = "top"


class Bottom(Constant):
    __slots__ = ()
    op = "bot"


class Atom(Concept):
    __slots__ = ("unit", "name", "_negation")
    _fields = ("unit", "name")
    op = "atom"

    def __new__(cls, unit: UnitId, name: str):
        return cls._intern((unit, name), unit)

    def negation(self) -> "Not":
        """Not(self), kept alive with the atom, as a role keeps its inverse:
        the tableau asks for it at every insert of the atom."""
        if not hasattr(self, "_negation"):
            object.__setattr__(self, "_negation", Not(self))
        return self._negation

    def _make_key(self):
        return f"{self.unit}:{self.name}"


class Not(Concept):
    __slots__ = _fields = ("operand",)
    op = "not"

    def __new__(cls, operand: Concept):
        return cls._intern((operand,), operand.home)

    def _make_key(self):
        return f"(not {self.operand._key})"


class Connective(Concept):
    """And and Or: two operands, and the unit the connective belongs to."""

    __slots__ = _fields = ("left", "right", "unit")

    def __new__(cls, left: Concept, right: Concept, unit: UnitId):
        return cls._intern((left, right, unit), unit)

    def children(self):
        return self.left, self.right

    def map(self, f, cls=None):
        return (cls or type(self))(f(self.left), f(self.right), self.unit)

    def _make_key(self):
        return f"({self.op}@{self.unit} {self.left._key} {self.right._key})"


class And(Connective):
    __slots__ = ()
    op = "and"


class Or(Connective):
    __slots__ = ()
    op = "or"


class Restriction(Concept):
    """Exists and ForAll: a property and a filler in its target unit."""

    __slots__ = _fields = ("prop", "filler")

    def __new__(cls, prop: Property, filler: Concept):
        return cls._intern((prop, filler), prop.home)

    def children(self):
        return (self.filler,)

    def map(self, f, cls=None):
        return (cls or type(self))(self.prop, f(self.filler))

    def _make_key(self):
        return f"({self.op} {self.prop._key} {self.filler._key})"


class Exists(Restriction):
    __slots__ = ()
    op = "some"


class ForAll(Restriction):
    __slots__ = ()
    op = "all"


class NumberRestriction(Restriction):
    """AtLeast and AtMost: a bound n >= least, a property and a filler."""

    __slots__ = ("n",)
    _fields = ("n", "prop", "filler")
    least = 0

    def __new__(cls, n: int, prop: Property, filler: Concept):
        if n < cls.least:
            raise ModelError(f"{cls.op} restriction needs n >= {cls.least}")
        return cls._intern((n, prop, filler), prop.home)

    def map(self, f, cls=None):
        return (cls or type(self))(self.n, self.prop, f(self.filler))

    def _make_key(self):
        return f"({self.op} {self.n} {self.prop._key} {self.filler._key})"


class AtLeast(NumberRestriction):
    __slots__ = ()
    op = "min"
    least = 1


class AtMost(NumberRestriction):
    __slots__ = ()
    op = "max"


# each constructor by its op
CONSTRUCTORS = {cls.op: cls for cls in (Top, Bottom, Atom, Not, And, Or,
                                        Exists, ForAll, AtLeast, AtMost)}


def make_and(operands: list[Concept], unit: UnitId) -> Concept:
    """Canonical right-nested conjunction; flattens and sorts operands."""
    return _nest(And, Top, operands, unit)


def make_or(operands: list[Concept], unit: UnitId) -> Concept:
    """Canonical right-nested disjunction; flattens and sorts operands."""
    return _nest(Or, Bottom, operands, unit)


def _nest(cls, empty, operands: list[Concept], unit: UnitId) -> Concept:
    flat: list[Concept] = []
    for c in operands:
        if isinstance(c, cls):
            flat.extend(_flatten(c, cls))
        else:
            flat.append(c)
    flat = sorted(set(flat), key=by_key)
    if not flat:
        return empty(unit)
    out = flat[-1]
    for c in reversed(flat[:-1]):
        out = cls(c, out, unit)
    return out


def _flatten(c: Concept, cls) -> list[Concept]:
    out = []
    stack = [c]
    while stack:
        cur = stack.pop()
        if isinstance(cur, cls):
            stack.append(cur.right)
            stack.append(cur.left)
        else:
            out.append(cur)
    return out


# ---------------------------------------------------------------------------
# Negation normal form
# ---------------------------------------------------------------------------

# the constructor of the complement, for the constructors whose complement
# keeps their fields
_DUAL = {Top: Bottom, Bottom: Top, And: Or, Or: And,
         Exists: ForAll, ForAll: Exists}


def nnf(c: Concept) -> Concept:
    """Push negation down to atoms; idempotent."""
    if type(c) is not Not:
        return c.map(nnf)
    inner = c.operand
    kind = type(inner)
    if kind is Atom:
        return c
    if kind is Not:
        return nnf(inner.operand)
    if kind is AtLeast:
        # n >= 1 is enforced, so n-1 >= 0 is a legal at-most bound
        return AtMost(inner.n - 1, inner.prop, nnf(inner.filler))
    if kind is AtMost:
        return AtLeast(inner.n + 1, inner.prop, nnf(inner.filler))
    return inner.map(neg, _DUAL[kind])


def neg(c: Concept) -> Concept:
    """NNF of the complement of c."""
    return nnf(Not(c))


def is_nnf(c: Concept) -> bool:
    if type(c) is Not:
        return type(c.operand) is Atom
    return all(map(is_nnf, c.children()))


def subconcepts(c: Concept) -> set[Concept]:
    """The sub-expression set of c: c itself, the operands of any boolean
    connective, and the fillers of any restriction, recursively."""
    out: set[Concept] = set()
    stack = [c]
    while stack:
        cur = stack.pop()
        if cur in out:
            continue
        out.add(cur)
        stack += cur.children()
    return out


# ---------------------------------------------------------------------------
# Unit content and couplings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BridgeRule:
    """A subjective concept correspondence held by one unit.

    kind onto: source-onto-target, every instance of the local target atom
    has a correspondent inside the foreign source atom.  kind into: the
    correspondents of the foreign source atom all fall inside the local
    target atom.  Both sides are atoms.
    """

    kind: str  # ONTO | INTO
    source: Atom  # foreign
    target: Atom  # local to the holder

    def key(self):
        return f"({self.kind} {self.source.key()} {self.target.key()})"


@dataclass(frozen=True)
class LinkDecl:
    name: str
    target_unit: UnitId
    transitive: bool = False
    parents: tuple[str, ...] = ()


@dataclass(frozen=True)
class IndividualCorrespondence:
    """foreign_unit:foreign_name corresponds-equally to local_name, held locally."""

    foreign_unit: UnitId
    foreign_name: str
    local_name: str


@dataclass(frozen=True)
class LinkAssertion:
    local_ind: str
    link: str
    target_unit: UnitId
    foreign_ind: str


@dataclass
class Coupling:
    holder: UnitId
    bridge_rules: list[BridgeRule] = field(default_factory=list)
    links: list[LinkDecl] = field(default_factory=list)
    individual_correspondences: list[IndividualCorrespondence] = field(default_factory=list)
    link_assertions: list[LinkAssertion] = field(default_factory=list)

    def is_empty(self) -> bool:
        return not (self.bridge_rules or self.links
                    or self.individual_correspondences or self.link_assertions)


@dataclass
class UnitKB:
    unit: UnitId
    concept_names: set[str] = field(default_factory=set)
    role_names: set[str] = field(default_factory=set)
    individual_names: set[str] = field(default_factory=set)
    gcis: list[tuple[Concept, Concept]] = field(default_factory=list)
    role_inclusions: list[tuple[str, str]] = field(default_factory=list)  # sub, super
    transitive_roles: set[str] = field(default_factory=set)
    concept_assertions: list[tuple[str, Concept]] = field(default_factory=list)
    role_assertions: list[tuple[str, Property, str]] = field(default_factory=list)
    inequalities: list[tuple[str, str]] = field(default_factory=list)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str
    unit: UnitId | None = None

    def __str__(self):
        where = f" [{self.unit}]" if self.unit else ""
        return f"{self.code}{where}: {self.message}"


# ---------------------------------------------------------------------------
# The distributed KB
# ---------------------------------------------------------------------------

@dataclass
class DistributedKB:
    """All units plus all couplings, with derived lookup tables.

    Immutable after construction, apart from the internalizations with
    their absorbed GCIs and the forall-plus role lists, which are built on
    first use; threads that race build the same interned value.  Share
    freely between threads.
    """

    units: dict[UnitId, UnitKB]
    couplings: dict[UnitId, Coupling]
    unit_order: list[UnitId] = field(default_factory=list)
    # derived
    _subsumers: dict[Property, frozenset[Property]] = field(default_factory=dict)
    _transitive: set[Property] = field(default_factory=set)
    _trans_subroles: dict[Property, tuple[Property, ...]] = field(
        default_factory=dict, compare=False)
    _internalizations: dict[UnitId, Concept] = field(default_factory=dict,
                                                     compare=False)
    _absorbed: dict[UnitId, dict[Atom, tuple[Concept, ...]]] = field(
        default_factory=dict, compare=False)

    @classmethod
    def build(cls, units: dict[UnitId, UnitKB],
              couplings: dict[UnitId, Coupling] | None = None) -> "DistributedKB":
        couplings = dict(couplings or {})
        for u in units:
            couplings.setdefault(u, Coupling(holder=u))
        kb = cls(units=units, couplings=couplings,
                 unit_order=sorted(units))
        kb._index(units, couplings)
        return kb

    def _index(self, units, couplings):
        # property hierarchy: reflexive-transitive closure per (home, target)
        # pair, with role inclusions mirrored onto inverses
        direct: dict[Property, set[Property]] = {}

        def add_incl(sub: Property, sup: Property):
            direct.setdefault(sub, set()).add(sup)

        for u, ukb in units.items():
            for sub_name, sup_name in ukb.role_inclusions:
                sub = Property(sub_name, u, u)
                sup = Property(sup_name, u, u)
                add_incl(sub, sup)
                add_incl(sub.inverse(), sup.inverse())
        for u, coup in couplings.items():
            for ld in coup.links:
                child = Property(ld.name, u, ld.target_unit)
                for parent in ld.parents:
                    add_incl(child, Property(parent, u, ld.target_unit))

        self._subsumers = {}
        all_props = set(direct)
        for sups in direct.values():
            all_props |= sups
        for p in all_props:
            seen = {p}
            frontier = [p]
            while frontier:
                q = frontier.pop()
                for r in direct.get(q, ()):
                    if r not in seen:
                        seen.add(r)
                        frontier.append(r)
            self._subsumers[p] = frozenset(seen)

        # transitivity: Trans(R) on roles, Trans(E,(i,j)) on punned links.
        # a transitive punned link also makes its role side transitive,
        # because the union of the two extensions must be transitive
        self._transitive = set()
        for u, ukb in units.items():
            for r in ukb.transitive_roles:
                self._transitive.add(Property(r, u, u))
        for u, coup in couplings.items():
            for ld in coup.links:
                if ld.transitive:
                    self._transitive.add(Property(ld.name, u, ld.target_unit))
                    self._transitive.add(Property(ld.name, u, u))

    # -- queries ------------------------------------------------------------

    def subsumers(self, p: Property) -> frozenset[Property]:
        """All Q with p included in Q under the reflexive-transitive closure
        of the property hierarchy, restricted to p's (home, target) pair.
        The stored set itself, not a copy."""
        sups = self._subsumers.get(p)
        return frozenset((p,)) if sups is None else sups

    def sub_properties(self, p: Property) -> set[Property]:
        """All Q included in p, reflexively."""
        out = {p}
        for q, sups in self._subsumers.items():
            if p in sups:
                out.add(q)
        return out

    def is_transitive(self, p: Property) -> bool:
        if p.inverted:
            p = p.inverse()
        return p in self._transitive

    def transitive_subroles(self, p: Property) -> tuple[Property, ...]:
        """The roles R of the forall-plus rule for forall p.C, in key order:
        each transitive R included in p, or for a link p the role side of
        each transitive link included in it.  Built once per p."""
        if not self._transitive:
            return ()
        out = self._trans_subroles.get(p)
        if out is None:
            out = self._trans_subroles[p] = tuple(sorted(
                {q if q.is_role else Property(q.name, q.home, q.home)
                 for q in self.sub_properties(p) if self.is_transitive(q)},
                key=by_key))
        return out

    def is_simple(self, p: Property) -> bool:
        """No transitive property below p in the hierarchy."""
        return not any(self.is_transitive(q) for q in self.sub_properties(p))

    def is_punned(self, p: Property) -> bool:
        """True when p's name doubles as role and link for its home unit."""
        home = self.units.get(p.home)
        if home is None:
            return False
        as_role = p.name in home.role_names
        as_link = any(ld.name == p.name
                      for ld in self.couplings[p.home].links)
        return as_role and as_link

    def punned_variants(self, p: Property) -> set[Property]:
        """All properties sharing p's name and home unit (role and links)."""
        if p.inverted:
            return {p}
        out = {p}
        home = self.units.get(p.home)
        if home is not None and p.name in home.role_names:
            out.add(Property(p.name, p.home, p.home))
        for ld in self.couplings.get(p.home, Coupling(p.home)).links:
            if ld.name == p.name:
                out.add(Property(ld.name, p.home, ld.target_unit))
        return out

    def link_property(self, unit: UnitId, name: str) -> Property | None:
        for ld in self.couplings[unit].links:
            if ld.name == name:
                return Property(name, unit, ld.target_unit)
        return None

    def internalization(self, unit: UnitId) -> Concept:
        """The single conjunction encoding what absorption leaves of a
        unit's TBox, plus its bridge rules.

        A GCI whose left side is an atom A of the unit is absorbed: it goes
        to absorbed(unit), and the tableau adds its right side wherever A
        is (lazy unfolding).  Every other GCI C subsumed-by D contributes
        (not C) or D.  Bridge rules all stay.  An onto rule with foreign
        source F and local target E contributes (not E) or F: an E instance
        must have a correspondent in F.  An into rule with foreign source H
        and local target G contributes (not H) or G: a node whose
        correspondent falls in H must itself be in G.

        Built on the first call for each unit, together with absorbed(unit),
        and kept.
        """
        try:
            return self._internalizations[unit]
        except KeyError:
            ck, self._absorbed[unit] = self._internalize(unit)
            self._internalizations[unit] = ck
            return ck

    def absorbed(self, unit: UnitId) -> dict[Atom, tuple[Concept, ...]]:
        """The unit's absorbed GCIs: each atom A of the unit that is the
        left side of a GCI, mapped to the NNF right sides of its GCIs.
        Atoms and right sides are in key order."""
        try:
            return self._absorbed[unit]
        except KeyError:
            self.internalization(unit)
            return self._absorbed[unit]

    def _internalize(self, unit: UnitId) -> tuple[
            Concept, dict[Atom, tuple[Concept, ...]]]:
        disjunctions = []
        absorbed: dict[Atom, set[Concept]] = {}
        for lhs, rhs in self.units[unit].gcis:
            lhs = nnf(lhs)
            if isinstance(lhs, Atom) and lhs.unit == unit:
                absorbed.setdefault(lhs, set()).add(nnf(rhs))
            else:
                disjunctions.append(make_or([neg(lhs), nnf(rhs)], unit))
        for br in self.couplings[unit].bridge_rules:
            if br.kind == ONTO:
                disjunctions.append(make_or([neg(br.target), br.source], unit))
            else:
                disjunctions.append(make_or([neg(br.source), br.target], unit))
        return make_and(disjunctions, unit), {
            a: tuple(sorted(absorbed[a], key=by_key))
            for a in sorted(absorbed, key=by_key)}

    def label_universe(self, goal: Concept | None = None) -> set[Concept]:
        """What a node label may hold: every sub-expression of the goal, of
        each unit's internalization (bridges included), of its absorbed
        GCIs and of its concept assertions, the value restrictions the
        forall-plus rule adds, and the NNF complements of every member.
        Used by the audit."""
        out: set[Concept] = set()
        for u in self.unit_order:
            out |= subconcepts(self.internalization(u))
            for _, c in self.units[u].concept_assertions:
                out |= subconcepts(nnf(c))
            for a, rhs in self.absorbed(u).items():
                out.add(a)
                for c in rhs:
                    out |= subconcepts(c)
        if goal is not None:
            out |= subconcepts(nnf(goal))
        # forall R.C of the forall-plus rule, and what it adds in turn at
        # each role side R of a link
        for c in [c for c in out if isinstance(c, ForAll)]:
            for r in self.transitive_subroles(c.prop):
                out |= {ForAll(q, c.filler) for q in self.transitive_subroles(r)}
        out |= {neg(c) for c in list(out)}
        return out

    # -- validation ----------------------------------------------------------

    def check_concept(self, c: Concept, unit: UnitId) -> list[Violation]:
        """The violations of concept c where unit uses it, as validate
        finds them in the KB's own axioms."""
        out: list[Violation] = []
        for sc in subconcepts(nnf(c)):
            if sc.op == "not":  # an NNF negation's atom is not its child
                sc = sc.operand
            if isinstance(sc, Atom):
                if sc.unit not in self.units:
                    out.append(Violation("unknown-unit",
                                         f"{sc.key()} names unit {sc.unit}",
                                         unit))
                elif sc.name not in self.units[sc.unit].concept_names:
                    out.append(Violation("unknown-concept",
                                         f"{sc.key()} is not declared", unit))
            elif isinstance(sc, Restriction):
                p = sc.prop
                if sc.filler.home != p.target:
                    out.append(Violation(
                        "filler-home",
                        f"filler of {sc.key()} lives in {sc.filler.home}, "
                        f"property targets {p.target}", unit))
                if not self._property_declared(p):
                    out.append(Violation("unknown-property",
                                         f"{p.key()} is not declared", unit))
                if isinstance(sc, NumberRestriction) and not self.is_simple(p):
                    out.append(Violation(
                        "non-simple",
                        f"non-simple property in number restriction {sc.key()}",
                        unit))
        # an atom and its negation name it once; one order in every process
        return sorted(set(out), key=str) if len(out) > 1 else out

    def validate(self) -> list[Violation]:
        """Structural checks; reasoning never starts on a KB with violations."""
        out: list[Violation] = []

        for u, ukb in self.units.items():
            for lhs, rhs in ukb.gcis:
                out += self.check_concept(lhs, u) + self.check_concept(rhs, u)
            for sub_name, sup_name in ukb.role_inclusions:
                for nm in (sub_name, sup_name):
                    if nm not in ukb.role_names:
                        out.append(Violation("unknown-property",
                                             f"role {nm} is not declared", u))
            for r in ukb.transitive_roles:
                if r not in ukb.role_names:
                    out.append(Violation("unknown-property",
                                         f"transitive role {r} is not declared", u))
            for ind, c in ukb.concept_assertions:
                self._check_individual(ind, u, out)
                out += self.check_concept(c, u)
            for a, p, b in ukb.role_assertions:
                self._check_individual(a, u, out)
                self._check_individual(b, u, out)
                if p.name not in ukb.role_names:
                    out.append(Violation("unknown-property",
                                         f"role {p.name} is not declared", u))
            for a, b in ukb.inequalities:
                self._check_individual(a, u, out)
                self._check_individual(b, u, out)

        for u, coup in self.couplings.items():
            if u not in self.units:
                out.append(Violation("unknown-unit",
                                     f"coupling held by undeclared unit {u}"))
                continue
            for br in coup.bridge_rules:
                if br.target.unit != u:
                    out.append(Violation("bridge-target",
                                         f"{br.key()} target is not local", u))
                if br.source.unit == u:
                    out.append(Violation("bridge-source",
                                         f"{br.key()} source is not foreign", u))
                out += self.check_concept(br.source, u)
                out += self.check_concept(br.target, u)
            declared = {(l.name, l.target_unit) for l in coup.links}
            for ld in coup.links:
                if ld.target_unit == u:
                    out.append(Violation("link-target",
                                         f"link {ld.name} targets its holder", u))
                elif ld.target_unit not in self.units:
                    out.append(Violation("unknown-unit",
                                         f"link {ld.name} targets {ld.target_unit}", u))
                if ld.transitive and ld.name not in self.units[u].role_names:
                    out.append(Violation(
                        "transitive-link",
                        f"Trans({ld.name},({u},{ld.target_unit})) needs {ld.name} "
                        f"declared as a role of {u} as well", u))
                for parent in ld.parents:
                    if (parent, ld.target_unit) not in declared:
                        out.append(Violation(
                            "unknown-property", f"link {ld.name} has undeclared "
                            f"parent {parent} toward {ld.target_unit}", u))
            for ic in coup.individual_correspondences:
                if ic.foreign_unit == u:
                    out.append(Violation(
                        "correspondence-source",
                        f"{u}:{ic.foreign_name} = {u}:{ic.local_name} "
                        "is not foreign", u))
                elif ic.foreign_unit not in self.units:
                    out.append(Violation("unknown-unit",
                                         f"correspondence names unit {ic.foreign_unit}", u))
                elif ic.foreign_name not in self.units[ic.foreign_unit].individual_names:
                    out.append(Violation("unknown-individual",
                                         f"{ic.foreign_unit}:{ic.foreign_name}", u))
                self._check_individual(ic.local_name, u, out)
            for la in coup.link_assertions:
                self._check_individual(la.local_ind, u, out)
                if self.link_property(u, la.link) is None:
                    out.append(Violation("unknown-property",
                                         f"link {la.link} is not declared", u))
                if la.target_unit not in self.units:
                    out.append(Violation("unknown-unit",
                                         f"link assertion names unit {la.target_unit}", u))
                elif la.foreign_ind not in self.units[la.target_unit].individual_names:
                    out.append(Violation("unknown-individual",
                                         f"{la.target_unit}:{la.foreign_ind}", u))
        return out

    def _check_individual(self, name: str, unit: UnitId, out: list[Violation]):
        if name not in self.units[unit].individual_names:
            out.append(Violation("unknown-individual", name, unit))

    def _property_declared(self, p: Property) -> bool:
        home = self.units.get(p.home)
        if home is None:
            return False
        if p.is_role:
            return p.name in home.role_names
        return self.link_property(p.home, p.name) is not None
