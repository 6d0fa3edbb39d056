"""Collaboration layer between tableau engines.

Carries label fragments between peers as packaged projection requests,
serves inbound packages against a working copy of the local graph, and
caches responses for byte-identical packages and the fragments whose
projection clashed.

The hole set is the session's: it rewrites the holed units' vocabulary out
of the KB once, through handle_hole, and every ready peer reasons over that
view, so packaging and serving never meet a holed unit.

Serving is one synchronous call: a package's outcomes are the return value
of its serve, and every package the serve sends downstream is answered
before it returns, so nothing is cancelled and nothing is decoded.  The
payload encoding gives the wire form of a package, which measures its
size: each fragment member travels as its concept key, the interned form
that also keys the cache, and the package names its origin once.

Peers are identified by the unit they own, so peer ids and unit ids
coincide throughout.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, replace
from functools import cached_property

from .model import (
    Bottom,
    Concept,
    DistributedKB,
    Restriction,
    Top,
    nnf,
)
from .tableau import (
    ADDITIONS,
    CLASH,
    JOINT,
    NO_CORR,
    CompletionGraph,
    Obligation,
    expand_to_completion,
)


class ProtocolError(Exception):
    pass


class CacheOverflow(ProtocolError):
    """The projection cache hit its byte budget; it never evicts."""


BYTE_BUDGET = 64 * 1024 * 1024  # of exact answers, per projection cache


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

    @cached_property
    def content_bytes(self) -> bytes:
        """Cache and dedup key: the item payload without provenance,
        computed once per package."""
        return ";".join(sorted(map(content_key, self.items))).encode()

    def to_payload(self):
        return {"id": self.id, "from": self.frm, "to": self.to,
                "origin": self.origin,
                "items": [{"source_node": i.node,
                           "fragment": [c.key() for c in i.fragment],
                           "target_individual": i.target_individual}
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

    def lookup(self, pkg: ProjectionPackage):
        key = (pkg.to, pkg.content_bytes)
        with self._lock:
            return self._store.get(key)

    def store(self, pkg: ProjectionPackage, outcomes: tuple):
        key = (pkg.to, pkg.content_bytes)
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
        """Labels only grow: a node covering a clashed fragment cannot stand.
        An entry's fragment is all foreign, so the label covers it when the
        foreign part does; an anonymous one needs a member homed at dest."""
        with self._lock:
            if not self._clashes:
                return None
            node = graph.nodes[node_id]
            label = node.label.keys()
            for dest, entries in self._clashes.items():
                named = node.corr.get(dest, NO_CORR).target_individual
                for frag, target in entries:
                    if target == named and frag <= label and (
                            named is not None
                            or any(c.home == dest for c in label)):
                        return f"projection to {dest} is known to clash"
        return None


# ---------------------------------------------------------------------------
# packaging
# ---------------------------------------------------------------------------

def build_packages(obligations: list[Obligation], frm: str, origin: str,
                   id_counter: itertools.count) -> list[ProjectionPackage]:
    """One package per destination peer, in destination order, whose items
    are the obligations toward it in content order."""
    by_dest: dict[str, list[Obligation]] = {}
    for ob in obligations:
        by_dest.setdefault(ob.dest_unit, []).append(ob)
    out = []
    for dest in sorted(by_dest):
        out.append(ProjectionPackage(
            id=f"{frm}-{next(id_counter)}", frm=frm, to=dest, origin=origin,
            items=tuple(sorted(by_dest[dest], key=content_key))))
    return out


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
        if item.target_individual is None:
            node_id = copy.new_node("projected").id
        else:
            node_id = copy.individuals.get(item.target_individual)
            if node_id is None:
                raise ProtocolError(
                    f"projection names unknown individual "
                    f"{item.target_individual!r} of {copy.unit}")
        copy.set_corr(node_id, requester, requester=(requester, item.node))
        copy.add_labels(node_id, item.fragment)
        placed.append(node_id)
    if not expand_to_completion(copy, downstream_hook):
        return None
    # what flows back: the served node's foreign literals (in an NNF label
    # a "not" wraps an atom) that the item did not carry and that rest on
    # no choice, which the requester would take as a fact
    outcomes = []
    for item, node_id in zip(items, placed):
        label = copy.nodes[node_id].label
        outcomes.append((ADDITIONS, tuple(
            c for c in copy.fragment(node_id)
            if c.op in ("atom", "not") and not label[c]
            and c not in item.fragment)))
    return tuple(outcomes)


# ---------------------------------------------------------------------------
# holes
# ---------------------------------------------------------------------------

def drop_holes(c: Concept, holed: set[str]) -> Concept:
    """Rewrite every constraint of an NNF concept that talks about a holed
    unit into the universal concept, and apply the Boolean identities on
    the way up.  A full hole interprets every concept of the unit,
    negations included, as the whole domain, so the literal as a whole
    trivializes rather than flipping polarity."""
    if isinstance(c, Restriction) and (c.prop.target in holed
                                       or c.home in holed):
        return Top(c.home)
    if not c.children():
        return Top(c.home) if c.home in holed and c.op != "top" else c
    c = c.map(lambda sub: drop_holes(sub, holed))
    op = c.op
    if op == "and":
        l, r = c.left, c.right
        if l.op == "top":
            return r
        if r.op == "top":
            return l
        if "bot" in (l.op, r.op):
            return Bottom(c.unit)
    elif op == "or":
        l, r = c.left, c.right
        if "top" in (l.op, r.op):
            return Top(c.unit)
        if l.op == "bot":
            return r
        if r.op == "bot":
            return l
    elif op in ("some", "min") and c.filler.op == "bot":
        return Bottom(c.home)
    elif op == "all" and c.filler.op == "top":
        return Top(c.home)
    return c


def handle_hole(kb: DistributedKB, holed: set[str]) -> DistributedKB:
    """The KB as seen once the holed peers dropped out: their units are
    gone, every mention of their vocabulary is the universal concept, and
    couplings toward them vanish.  What the rewrite leaves alone is shared
    with kb."""
    if not holed:
        return kb

    def rewrite(c: Concept) -> Concept:
        return drop_holes(nnf(c), holed)

    units = {u: replace(
        ukb, gcis=[(rewrite(l), rewrite(r)) for l, r in ukb.gcis],
        concept_assertions=[(i, rewrite(c))
                            for i, c in ukb.concept_assertions])
        for u, ukb in kb.units.items() if u not in holed}
    couplings = {u: replace(
        coup,
        bridge_rules=[br for br in coup.bridge_rules
                      if br.source.unit not in holed],
        links=[ld for ld in coup.links if ld.target_unit not in holed],
        individual_correspondences=[
            ic for ic in coup.individual_correspondences
            if ic.foreign_unit not in holed],
        link_assertions=[la for la in coup.link_assertions
                         if la.target_unit not in holed])
        for u, coup in kb.couplings.items() if u not in holed}
    return DistributedKB.build(units, couplings)
