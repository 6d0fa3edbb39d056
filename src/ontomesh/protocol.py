"""Collaboration layer between tableau engines.

Carries label fragments between peers as packaged projection requests,
serves inbound packages against a working copy of the local graph, caches
responses for byte-identical packages and the fragments whose projection
clashed, and rewrites the vocabulary of holed units away.

Serving is one synchronous call: a package's outcomes are the return value
of its serve, and every package the serve sends downstream is answered
before it returns, so nothing is cancelled and nothing is decoded.  The
payload encoding gives the wire form of a package, which measures its
size.

Peers are identified by the unit they own, so peer ids and unit ids
coincide throughout.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass

from .model import (
    And,
    Atom,
    AtLeast,
    AtMost,
    Bottom,
    Concept,
    Coupling,
    DistributedKB,
    Exists,
    ForAll,
    Not,
    Or,
    Top,
    UnitKB,
    by_key,
    nnf,
)
from .tableau import (
    ADDITIONS,
    CLASH,
    JOINT,
    CompletionGraph,
    Obligation,
    Outcome,
    expand_to_completion,
)


class ProtocolError(Exception):
    pass


class CacheOverflow(ProtocolError):
    """The projection cache hit its byte budget; it never evicts."""


BYTE_BUDGET = 64 * 1024 * 1024  # of exact answers, per projection cache


# ---------------------------------------------------------------------------
# wire-able concept encoding
# ---------------------------------------------------------------------------

def concept_to_obj(c: Concept):
    if isinstance(c, Top):
        return {"op": "top", "unit": c.unit}
    if isinstance(c, Bottom):
        return {"op": "bot", "unit": c.unit}
    if isinstance(c, Atom):
        return {"op": "atom", "unit": c.unit, "name": c.name}
    if isinstance(c, Not):
        return {"op": "not", "arg": concept_to_obj(c.operand)}
    if isinstance(c, (And, Or)):
        return {"op": "and" if isinstance(c, And) else "or", "unit": c.unit,
                "left": concept_to_obj(c.left), "right": concept_to_obj(c.right)}
    prop = {"name": c.prop.name, "home": c.prop.home,
            "target": c.prop.target, "inverted": c.prop.inverted}
    ops = {Exists: "some", ForAll: "all", AtLeast: "min", AtMost: "max"}
    obj = {"op": ops[type(c)], "prop": prop, "filler": concept_to_obj(c.filler)}
    if isinstance(c, (AtLeast, AtMost)):
        obj["n"] = c.n
    return obj


# ---------------------------------------------------------------------------
# message types
# ---------------------------------------------------------------------------

def content_key(item: Obligation) -> str:
    """An item's payload without provenance."""
    frag = ",".join(c.key() for c in item.fragment)
    return f"{item.target_individual or ''}|{frag}"


@dataclass(frozen=True)
class ProjectionPackage:
    """The obligations of one peer toward one neighbor, as items.  origin
    is the peer whose task set off the request: frm itself, or the origin
    of the package whose serve made these obligations."""

    id: str
    frm: str
    to: str
    origin: str
    items: tuple[Obligation, ...]

    def content_bytes(self) -> bytes:
        """Cache and dedup key: the item payload without provenance."""
        return ";".join(sorted(map(content_key, self.items))).encode()

    def to_payload(self):
        return {"id": self.id, "from": self.frm, "to": self.to,
                "items": [{"source_node": i.node,
                           "fragment": [concept_to_obj(c) for c in i.fragment],
                           "target_individual": i.target_individual,
                           "trigger_origin": self.origin}
                          for i in self.items]}


# ---------------------------------------------------------------------------
# projection cache
# ---------------------------------------------------------------------------

class ProjectionCache:
    """What a peer learned from its projections: a write-once store of
    packaged requests and their responses, and per destination the
    (fragment, named target) pairs whose projection clashed there.  No
    eviction: a byte budget aborts loudly instead, keeping runs repeatable."""

    def __init__(self):
        self._store: dict[tuple[str, bytes], tuple] = {}
        self._clashes: dict[str, set[tuple[frozenset, str | None]]] = {}
        self._bytes = 0
        self._lock = threading.Lock()

    def lookup(self, to: str, pkg: ProjectionPackage):
        key = (to, pkg.content_bytes())
        with self._lock:
            return self._store.get(key)

    def store(self, to: str, pkg: ProjectionPackage, outcomes: tuple):
        key = (to, pkg.content_bytes())
        with self._lock:
            if key in self._store:
                return
            self._bytes += len(key[1]) + 64 * len(outcomes)
            if self._bytes > BYTE_BUDGET:
                raise CacheOverflow("projection cache exceeded its byte budget")
            self._store[key] = outcomes

    def record_clash(self, to: str, fragment, target: str | None):
        with self._lock:
            self._clashes.setdefault(to, set()).add((frozenset(fragment),
                                                     target))

    def known_clash(self, graph: CompletionGraph, node_id) -> str | None:
        """Labels only grow: a node covering a clashed fragment cannot stand."""
        with self._lock:
            if not self._clashes:
                return None
            node = graph.nodes[node_id]
            foreign = set()
            homes = set()
            for c in node.label:
                if c.home != graph.unit:
                    foreign.add(c)
                    homes.add(c.home)
            if not foreign:
                return None
            for dest, entries in self._clashes.items():
                st = node.corr.get(dest)
                named = st.target_individual if st is not None else None
                if dest not in homes and named is None:
                    continue
                for frag, target in entries:
                    if target == named and frag <= foreign:
                        return f"projection to {dest} is known to clash"
        return None


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------

def build_packages(obligations: list[Obligation], frm: str, origin: str,
                   id_counter: itertools.count,
                   holes: set[str] = frozenset()) -> list[ProjectionPackage]:
    """One package per destination peer, in destination order, whose items
    are the obligations toward it in content order.  Obligations toward
    holed peers are dropped: a holed unit's vocabulary has already been
    rewritten away."""
    by_dest: dict[str, list[Obligation]] = {}
    for ob in obligations:
        if ob.dest_unit not in holes:
            by_dest.setdefault(ob.dest_unit, []).append(ob)
    out = []
    for dest in sorted(by_dest):
        out.append(ProjectionPackage(
            id=f"{frm}-{next(id_counter)}", frm=frm, to=dest, origin=origin,
            items=tuple(sorted(by_dest[dest], key=content_key))))
    return out


def response_literals(graph: CompletionGraph, node: int,
                      sent: tuple[Concept, ...]) -> tuple[Concept, ...]:
    """What flows back to the requester: the foreign literals of the
    served node's final label that the request did not already carry."""
    out = []
    known = set(sent)
    for c in graph.nodes[node].label:
        if c.home == graph.unit or c in known:
            continue
        if isinstance(c, Atom) or (isinstance(c, Not)
                                   and isinstance(c.operand, Atom)):
            out.append(c)
    return tuple(sorted(out, key=by_key))


# ---------------------------------------------------------------------------
# serving
# ---------------------------------------------------------------------------

def serve_package(pkg: ProjectionPackage, new_copy,
                  downstream_hook=None) -> tuple:
    """Serve one package against a fresh working copy of the local graph,
    as new_copy() returns it.

    Each item either updates the node of its named target individual or
    opens a new node labelled with the fragment.  The copy is expanded to
    completion; downstream obligations leave through the hook.  Per item
    the outcome is a clash or the foreign literals to add back at the
    requester: those of the served node whose dependency set is empty, so
    that they rest on no choice of the copy.  The copy is discarded
    afterwards.  A copy that runs out of budget raises BudgetExceeded: a
    serve never answers an open question.

    When the joint expansion closes every branch and the package has
    several items, items are retried individually so the requester can
    close exactly the branches that are truly doomed; if no single item
    clashes on its own, the joint clash is reported on all of them.
    """
    outcome = _serve_items(pkg.items, pkg.frm, new_copy, downstream_hook)
    if outcome is not None:
        return outcome
    if len(pkg.items) == 1:
        return ((CLASH, None),)
    singles = []
    any_clash = False
    for item in pkg.items:
        one = _serve_items((item,), pkg.frm, new_copy, downstream_hook)
        if one is None:
            singles.append((CLASH, None))
            any_clash = True
        else:
            singles.append(one[0])
    if not any_clash:
        return tuple((CLASH, JOINT) for _ in pkg.items)
    return tuple(singles)


def _serve_items(items, requester: str, new_copy, downstream_hook):
    copy = new_copy()
    placed: list[int] = []
    for item in items:
        node_id = None
        if item.target_individual is not None:
            for x, node in sorted(copy.nodes.items()):
                if node.origin == ("abox", item.target_individual):
                    node_id = x
                    break
            if node_id is None:
                raise ProtocolError(
                    f"projection names unknown individual "
                    f"{item.target_individual!r} of {copy.unit}")
        if node_id is None:
            node_id = copy.new_node(("projected", requester, item.node)).id
        copy.set_corr(node_id, requester, requester=(requester, item.node))
        for c in item.fragment:
            copy.add_label(node_id, c)
        placed.append(node_id)
    result = expand_to_completion(copy, downstream_hook)
    if result is Outcome.UNSATISFIABLE:
        return None
    # a literal with a non-empty dependency set rests on a choice, which
    # the requester would take as a fact: keep it back
    outcomes = []
    for item, node_id in zip(items, placed):
        label = copy.nodes[node_id].label
        outcomes.append((ADDITIONS, tuple(
            c for c in response_literals(copy, node_id, item.fragment)
            if not label[c])))
    return tuple(outcomes)


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------

def substitute_holes(c: Concept, holed: set[str]) -> Concept:
    """Rewrite every constraint that talks about a holed unit into the
    universal concept.  A full hole interprets every concept of the unit,
    negations included, as the whole domain, so the literal as a whole
    trivializes rather than flipping polarity."""
    if isinstance(c, (Top, Bottom, Atom)):
        return Top(c.unit) if c.unit in holed and not isinstance(c, Top) else c
    if isinstance(c, Not):
        if c.operand.home in holed:
            return Top(c.operand.home)
        return Not(substitute_holes(c.operand, holed))
    if isinstance(c, (And, Or)):
        cls = And if isinstance(c, And) else Or
        return cls(substitute_holes(c.left, holed),
                   substitute_holes(c.right, holed), c.unit)
    if c.prop.target in holed or c.prop.home in holed:
        return Top(c.prop.home)
    cls = type(c)
    if isinstance(c, (AtLeast, AtMost)):
        return cls(c.n, c.prop, substitute_holes(c.filler, holed))
    return cls(c.prop, substitute_holes(c.filler, holed))


def simplify(c: Concept) -> Concept:
    """Boolean identity simplification, used after hole substitution."""
    if isinstance(c, And):
        l, r = simplify(c.left), simplify(c.right)
        if isinstance(l, Top):
            return r
        if isinstance(r, Top):
            return l
        if isinstance(l, Bottom) or isinstance(r, Bottom):
            return Bottom(c.unit)
        return And(l, r, c.unit)
    if isinstance(c, Or):
        l, r = simplify(c.left), simplify(c.right)
        if isinstance(l, Top) or isinstance(r, Top):
            return Top(c.unit)
        if isinstance(l, Bottom):
            return r
        if isinstance(r, Bottom):
            return l
        return Or(l, r, c.unit)
    if isinstance(c, (Exists, AtLeast)):
        filler = simplify(c.filler)
        if isinstance(filler, Bottom):
            return Bottom(c.prop.home)
        if isinstance(c, Exists):
            return Exists(c.prop, filler)
        return AtLeast(c.n, c.prop, filler)
    if isinstance(c, ForAll):
        filler = simplify(c.filler)
        if isinstance(filler, Top):
            return Top(c.prop.home)
        return ForAll(c.prop, filler)
    if isinstance(c, AtMost):
        return AtMost(c.n, c.prop, simplify(c.filler))
    return c


def handle_hole(kb: DistributedKB, holed: set[str]) -> DistributedKB:
    """The KB as seen once the holed peers dropped out: their units are
    gone, every mention of their vocabulary is the universal concept, and
    couplings toward them vanish."""
    if not holed:
        return kb

    def rewrite(c: Concept) -> Concept:
        return simplify(substitute_holes(nnf(c), holed))

    units = {}
    for u, ukb in kb.units.items():
        if u in holed:
            continue
        units[u] = UnitKB(
            unit=u,
            concept_names=set(ukb.concept_names),
            role_names=set(ukb.role_names),
            individual_names=set(ukb.individual_names),
            gcis=[(rewrite(l), rewrite(r)) for l, r in ukb.gcis],
            role_inclusions=list(ukb.role_inclusions),
            transitive_roles=set(ukb.transitive_roles),
            concept_assertions=[(i, rewrite(c))
                                for i, c in ukb.concept_assertions],
            role_assertions=list(ukb.role_assertions),
            inequalities=list(ukb.inequalities),
        )
    couplings = {}
    for u, coup in kb.couplings.items():
        if u in holed:
            continue
        couplings[u] = Coupling(
            holder=u,
            bridge_rules=[br for br in coup.bridge_rules
                          if br.source.unit not in holed],
            links=[ld for ld in coup.links if ld.target_unit not in holed],
            individual_correspondences=[
                ic for ic in coup.individual_correspondences
                if ic.foreign_unit not in holed],
            link_assertions=[la for la in coup.link_assertions
                             if la.target_unit not in holed],
        )
    return DistributedKB.build(units, couplings)
