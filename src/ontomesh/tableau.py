"""One peer's chunk of the distributed completion graph.

The graph holds this unit's nodes and edges, expands them with rules,
detects clashes, blocks, and backjumps through recorded branch points.
Cross-peer work is emitted as projection obligations: the caller decides
how they are shipped and feeds the outcomes back in.

A step sweeps the nodes once in id order, computing each node's blocked
status and checking it for a clash; a clash sends the engine back to the
newest branch point that the clash depends on.  Otherwise the step applies
the first action of the rules, in this order:
- ce: the unit's internalization joins every unblocked node's label;
- local: and, unfold, then the value rule and forall-plus;
- generate: exists and at-least create successors;
- branch: or, choose, and at-most merges, each a branch point.
An action is ("add", x, [concepts], deps) for a label addition,
("generate", x, property, filler, n, deps) for n successors holding the
filler, pairwise distinct, ("merge", keep, gone), or ("branch",
alternatives), whose alternatives are "add" or "merge" actions.

Dependency-directed backjumping (Horrocks & Patel-Schneider, JLC 1999;
Baader & Sattler, Studia Logica 2001).  A dependency set is an int bitmask
over branch-stack depth: bit k names the open branch point at depth k.
A node's label maps each member to the set it was derived under (every
member maps to its set; 0 means none), and the first derivation of a
member wins.  An addition depends on what its rule read:
and and unfold on the triggering member, or and choose alternatives on the
disjunction (choose also on both nodes' creation) plus their own branch
point, the ce rule on nothing.  A generated node keeps, as its creation
set, the set of the concept that made it; the value, forall-plus and
choose rules add the creation sets of both endpoints, since the edge they
cross exists only with its successor.  A merge depends on every open
branch point, and so do the members it moves and the creation sets of the
nodes whose edges it moves.  Projection answers depend on the fragments
they answer (see expand_to_completion).  A clash depends on its Bottom, on
both members of a complement pair, on the foreign members of a node the
clash oracle condemns, or, for an at-most clash, on every open branch
point.  The engine jumps to the newest branch point in the clash's set,
adds the set to that point's failures, and takes the next alternative; a
point without one passes its failures, less its own bit, further down, and
an empty set means no branch can succeed.

The or rule tries a disjunction's alternatives in the order (refuted,
needs projection, branch_order) of disjunct_order.  A literal whose
complement is a member is refuted and goes last.  Trying it first would
clash at once and jump straight back, so the other alternative carries
the same set, the disjunction's plus bit k, in either order; and if that
one fails, the refuted one then adds the same set, the disjunction's, its
complement's and bit k, to the point's failures.  So the order changes no
dependency set, only the branch points and backtracks taken.  A disjunct
whose home is another unit needs a projection, unless the node's state
toward that unit names a requester, since a projected node sends nothing
back to the unit it mirrors; one that needs none goes first, so a peer
asks a neighbour only for a choice that no local one can stand for.  The
choose rule orders its fillers by branch_order alone: they share a home,
and neither can be refuted, since the rule fires only while both are out.

Unfold is lazy unfolding (Baader et al. 1994; Horrocks & Tobies, KR 2000):
a GCI A subsumed-by C with an atom A of the unit is absorbed, not
internalized, and an atom A in an unblocked node's label adds every such C
the label lacks, in one step.  The other GCIs and every bridge rule stay
disjunctions of the internalization.

Transitivity is the forall-plus rule of SHIQ (Horrocks, Sattler & Tobies,
LPAR 1999): forall S.C at x puts forall R.C on each R-neighbour of x, for
every transitive R included in S.  For a transitive punned link, R is the
link's role side, and the value rule then carries C across the link edge.
No edge is added for a chain, so the graph stays a tree plus the ABox.

Link successors are created locally in this chunk (the foreign filler goes
into the foreign part of the new node's label) and reach the neighbor peer
through projection, so a branch expands entirely locally before any
message leaves.

Undo runs on a trail, after MiniSat (Een & Sorensson 2003).  Every change
to the graph (a node, the label members that one call adds with their
dependency sets, an edge, a distinct pair, a correspondence state, a
creation set, a version, each step of a merge) appends one undo record
holding the old value.  A branch point keeps the trail length as its mark;
jumping back to it pops records and undoes them in reverse order until the
trail is that long again, which also undoes every branch point above it.
Nothing is copied: a jump costs the work done since the mark.

Expansion is incremental.  Every node carries a version drawn from a
per-graph counter that never goes back (clones share it); any change that a
rule or clash check at the node can see (its own label, edges, distinct
set or correspondences, or those of a neighbor) gives it a fresh one, and
the trail puts old versions back, so a (node, version) pair always names
one state of the node's one-hop neighbourhood, which is all that any rule
reads.  The engine remembers the (node, version, blocked kind) keys at
which a rule phase or the clash check found nothing and skips them, which
keeps the firing order of a full rescan.  A clone starts with its source's
rule memos: clones share the clock, so a key names the same state in both.
What the rules and the clash check read of a label is kept current as
members arrive (add_labels), not rebuilt when it is read: the count of
clash pairs (Bottoms, and negations whose operand is a member), with one
lookup per member; the count of foreign members; and the views, the
members of each constructor in key order, into which each new member is
inserted.  So the clash check scans a label only when its clash count is
not zero and asks the clash oracle only when its foreign count is not
zero, and each rule reads only its own constructors' members.  Views have
one writer, add_labels, and one undo, _unlabel; clones share them, since
an insertion copies the groups it changes.  The members one action adds
take one undo record, which puts back the views and counts from before
them, and one version bump.  The and rule adds the whole conjunction tree
below an And in one action, and branch_order is computed once per
interned concept.  The graph caches successor and value-restriction
target lists as tuples, cleared at every edge-set change and every
restore; a clone starts with none.

A skeleton is closed once (close_deterministic): the ce rule and the local
phase run at every node until nothing changes, with no clash check,
generation or branching.  Its copies then fire the same rules as copies of
the bare skeleton: skeleton nodes never block, so their ce/local closure is
unique; the engine reaches it on every copy before its first generate or
branch action; and a clash found before the first branch point has an empty
set, so it means UNSAT either way.  One difference remains: a projected
node whose fragment an earlier node's closed label covers is blocked from
the start, so it never receives the internalization, an And, Or or Top of
the unit and never a response literal.  An isolated check closes its graph
too: it is an ABox skeleton without projected nodes.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .model import (
    And,
    Atom,
    AtLeast,
    AtMost,
    Bottom,
    Concept,
    DistributedKB,
    Exists,
    ForAll,
    Not,
    Or,
    Property,
    Top,
    UnitId,
    by_key,
    neg,
    nnf,
    subconcepts,
)

NodeId = int


class BudgetExceeded(Exception):
    """A node or branch budget ran out; inconclusive, never a verdict."""


# projection outcome verdicts, one per obligation or package item.  A
# budget that runs out raises instead of answering
CLASH = "clash"
ADDITIONS = "additions"

# payload marker on a clash outcome that was attributed to a whole package
# rather than confirmed for the item alone
JOINT = "joint"

MAX_BRANCHES = 100_000  # branch alternatives one graph may take
MAX_NODES = 4000  # nodes one graph may hold


@dataclass
class ClashInfo:
    node: NodeId
    reason: str
    deps: int  # the branch points the clash rests on


class CorrState(NamedTuple):
    """Projection bookkeeping of one node toward one foreign unit; a value,
    which set_corr replaces, so clones share it."""

    target_individual: str | None = None  # named individual at the far side
    requester: tuple[str, object] | None = None  # (peer, remote node) for projected nodes
    sent_fragment: tuple[Concept, ...] | None = None


NO_CORR = CorrState()  # a node's state toward a unit it has none toward


class Node:
    __slots__ = ("id", "label", "kind", "parent", "distinct", "corr", "ver",
                 "cdeps", "clashes", "foreign", "views")

    def __init__(self, id: NodeId, kind: str, parent: NodeId | None = None):
        self.id = id
        # each member -> the dependency set it was derived under
        self.label: dict[Concept, int] = {}
        # "root", "abox" (a named individual), "foreign" (a link
        # placeholder), "generated" or "projected"
        self.kind = kind
        self.parent = parent
        self.distinct: set[NodeId] = set()
        self.corr: dict[UnitId, CorrState] = {}
        self.ver = 0
        self.cdeps = 0  # the dependency set of the node's creation
        self.clashes = 0  # Bottoms, and negations whose operand is a member
        self.foreign = 0  # members whose home is another unit
        # the label grouped by op, each group in key order.  add_labels
        # inserts into copies of the groups it changes, so a clone and an
        # undo record share the views they hold and never see them change
        self.views: dict[str, list[Concept]] = {}

    def clone(self) -> "Node":
        n = Node(self.id, self.kind, self.parent)
        n.label = dict(self.label)
        n.distinct = set(self.distinct)
        n.corr = dict(self.corr)
        n.ver = self.ver
        n.cdeps = self.cdeps
        n.clashes = self.clashes
        n.foreign = self.foreign
        n.views = self.views
        return n

    def members(self, op: str) -> Sequence[Concept]:
        """The label's members of one op, in key order."""
        return self.views.get(op, ())


@dataclass(frozen=True)
class Obligation:
    """A projection request, and the item of a projection package: the
    node's foreign fragment, for dest_unit's named individual or a new node."""

    node: NodeId
    dest_unit: UnitId
    fragment: tuple[Concept, ...]
    target_individual: str | None


@dataclass
class BranchPoint:
    alternatives: list  # remaining actions, canonical order
    snapshot: int  # trail mark
    failed: int = 0  # union of the clash sets of its failed alternatives


# undo records are (fn, a, b), undone by fn(a, b); fn None sets the graph
# attribute named a back to b.  Records hold the graph's dicts and sets,
# never the graph itself, so a dropped graph is freed by reference counting


def _set_ver(node: Node, ver: int) -> None:
    node.ver = ver


def _unlabel(node: Node, item: tuple) -> None:
    """Undo one add_labels: drop its members and put back the views and
    counts from before it."""
    members, node.views, node.clashes, node.foreign = item
    label = node.label
    for c in members:
        del label[c]


def _set_attr(obj, pair: tuple) -> None:
    setattr(obj, *pair)


def _put(d: dict, item: tuple) -> None:
    d[item[0]] = item[1]


class CompletionGraph:
    def __init__(self, kb: DistributedKB, unit: UnitId):
        self.kb = kb
        self.unit = unit
        self.nodes: dict[NodeId, Node] = {}
        # named individual -> its node; filled once by init_graph and
        # shared by clones, since a named node is never merged away
        self.individuals: dict[str, NodeId] = {}
        self.out_e: dict[NodeId, dict[NodeId, set[Property]]] = {}
        self.in_e: dict[NodeId, dict[NodeId, set[Property]]] = {}
        self.next_id = 0
        self.branch_stack: list[BranchPoint] = []
        self.branch_count = 0
        # optional early-clash callback: (graph, node) -> reason or None,
        # asked only at an unblocked node with a foreign member.  Used by
        # the peer layer to fail branches whose projection is already
        # known to clash, before completing them.
        self.clash_oracle = None
        self._trail: list[tuple] = []
        # node versions; see the module docstring
        self._clock = itertools.count(1)
        # per _find_action phase after the ce rule, the keys at which its
        # rules found nothing: (node, ver, blocked kind)
        self._rule_memo = (set(), set(), set())
        # successors and forall_targets by (x, p) and (x, p, "all"), read
        # only from edge sets: cleared when one changes and at every restore
        self._succ: dict[tuple, tuple[NodeId, ...]] = {}

    # -- construction and mutation -------------------------------------------

    def new_node(self, kind: str, parent: NodeId | None = None) -> Node:
        if len(self.nodes) >= MAX_NODES:
            raise BudgetExceeded(f"more than {MAX_NODES} nodes")
        x = self.next_id
        node = Node(x, kind, parent)
        node.ver = next(self._clock)
        self.nodes[x] = node
        self.out_e[x] = {}
        self.in_e[x] = {}
        self.next_id = x + 1
        self._trail += ((None, "next_id", x), (dict.__delitem__, self.nodes, x),
                        (dict.__delitem__, self.out_e, x),
                        (dict.__delitem__, self.in_e, x))
        return node

    def add_label(self, node: NodeId, c: Concept, deps: int = 0) -> bool:
        """add_labels of the one member c."""
        return self.add_labels(node, (c,), deps)

    def add_labels(self, node: NodeId, concepts, deps: int = 0) -> bool:
        """Add to the node's label each of concepts that it lacks, in
        order, depending on the branch points in deps; a member already
        there keeps its own set.  One lookup per member counts the clash
        pair it makes, if any, and one comparison its foreign home.  One
        undo record and one version bump cover every member added, and each
        is inserted into a copy of its op's view.  True if any member was
        added."""
        n = self.nodes[node]
        label = n.label
        unit = self.unit
        clashes, foreign = n.clashes, n.foreign
        added = []
        for c in concepts:
            if c in label:
                continue
            label[c] = deps
            added.append(c)
            op = c.op
            if (op == "bot" or op == "not" and c.operand in label
                    or op == "atom" and c.negation() in label):
                clashes += 1
            if c.home != unit:
                foreign += 1
        if not added:
            return False
        old = n.views
        self._trail.append((_unlabel, n, (added, old, n.clashes, n.foreign)))
        n.clashes, n.foreign = clashes, foreign
        self._bump_around(node)
        views = old.copy()
        for c in added:
            op = c.op
            group = views.get(op)
            if group is None:
                views[op] = [c]
                continue
            if group is old.get(op):  # not yet copied
                group = views[op] = group.copy()
            insort(group, c, key=by_key)
        n.views = views
        return True

    def add_edge(self, a: NodeId, b: NodeId, prop: Property) -> bool:
        if prop.inverted:
            a, b, prop = b, a, prop.inverse()
        trail = self._trail
        out = self.out_e[a]
        labels = out.get(b)
        if labels is None:
            labels = out[b] = set()
            trail.append((dict.__delitem__, out, b))
        elif prop in labels:
            return False
        labels.add(prop)
        trail.append((set.discard, labels, prop))
        self._succ.clear()
        inc = self.in_e[b]
        labels = inc.get(a)
        if labels is None:
            labels = inc[a] = set()
            trail.append((dict.__delitem__, inc, a))
        labels.add(prop)
        trail.append((set.discard, labels, prop))
        na, nb = self.nodes[a], self.nodes[b]
        trail += ((_set_ver, na, na.ver), (_set_ver, nb, nb.ver))
        na.ver = nb.ver = next(self._clock)
        return True

    def set_distinct(self, a: NodeId, b: NodeId):
        if a != b:
            for x, y in ((a, b), (b, a)):
                distinct = self.nodes[x].distinct
                if y not in distinct:
                    distinct.add(y)
                    self._trail.append((set.discard, distinct, y))
            self._bump_around(a, b)

    def set_corr(self, node: NodeId, unit: UnitId, **fields) -> None:
        """Replace the node's correspondence state toward unit by one with
        these fields changed, creating it if needed.  Every corr write goes
        through here, because rules at the node and its neighbors read corr."""
        corr = self.nodes[node].corr
        old = corr.get(unit)
        if old is None:
            old = CorrState()
            self._trail.append((dict.__delitem__, corr, unit))
        else:
            self._trail.append((_put, corr, (unit, old)))
        corr[unit] = old._replace(**fields)
        self._bump_around(node)

    def _bump_around(self, *xs: NodeId) -> None:
        """Fresh version for each node in xs and for its neighbors."""
        v = next(self._clock)
        nodes = self.nodes
        trail = self._trail
        for x in xs:
            for y in itertools.chain((x,), self.out_e[x], self.in_e[x]):
                n = nodes[y]
                trail.append((_set_ver, n, n.ver))
                n.ver = v

    # -- trailed steps of a merge ----------------------------------------------

    def _pop(self, d: dict, key) -> None:
        """Remove key from one of the graph's dicts, if there."""
        if key in d:
            self._trail.append((_put, d, (key, d.pop(key))))
            self._succ.clear()

    def _discard(self, s: set, item) -> None:
        if item in s:
            s.discard(item)
            self._trail.append((set.add, s, item))

    def _reparent(self, node: Node, parent: NodeId) -> None:
        self._trail.append((_set_attr, node, ("parent", node.parent)))
        node.parent = parent

    def _bump_all(self) -> None:
        """One fresh version for every node."""
        trail = self._trail
        v = next(self._clock)
        for n in self.nodes.values():
            trail.append((_set_ver, n, n.ver))
            n.ver = v

    # -- snapshots -------------------------------------------------------------

    def open_deps(self) -> int:
        """The set of every open branch point."""
        return (1 << len(self.branch_stack)) - 1

    def snapshot(self) -> int:
        """A mark to come back to: the current length of the trail."""
        return len(self._trail)

    def restore(self, mark: int) -> None:
        """Undo every change made since snapshot() returned mark."""
        trail = self._trail
        self._succ.clear()
        while len(trail) > mark:
            fn, a, b = trail.pop()
            if fn is None:
                setattr(self, a, b)
            else:
                fn(a, b)

    def clone(self) -> "CompletionGraph":
        """An independent copy with an empty trail; only a graph without
        open branch points can be cloned."""
        if self.branch_stack:
            raise ValueError("cannot clone a graph with open branch points")
        g = CompletionGraph(self.kb, self.unit)
        g.nodes = {i: n.clone() for i, n in self.nodes.items()}
        g.individuals = self.individuals
        g.out_e = {i: {j: set(s) for j, s in d.items()}
                   for i, d in self.out_e.items()}
        g.in_e = {i: {j: set(s) for j, s in d.items()}
                  for i, d in self.in_e.items()}
        g.next_id = self.next_id
        g._clock = self._clock
        g._rule_memo = tuple(set(m) for m in self._rule_memo)
        g.branch_count = self.branch_count
        return g

    # -- label parts ------------------------------------------------------------

    def fragment(self, node: NodeId) -> tuple[Concept, ...]:
        """The foreign members of the node's label, in key order."""
        n = self.nodes[node]
        if not n.foreign:
            return ()
        return tuple(sorted((c for c in n.label if c.home != self.unit),
                            key=by_key))

    # -- successor machinery ------------------------------------------------------

    def successors(self, x: NodeId, p: Property) -> tuple[NodeId, ...]:
        """Nodes reachable from x over p: p-successors for links, and
        p-neighbors (inverse traversal included) for roles."""
        found = self._succ.get((x, p))
        if found is not None:
            return found
        out = set()
        for y, labels in self.out_e[x].items():
            for q in labels:
                if p in self.kb.subsumers(q):
                    out.add(y)
        if p.is_role:
            for y, labels in self.in_e[x].items():
                for q in labels:
                    if q.is_role and p in self.kb.subsumers(q.inverse()):
                        out.add(y)
        return self._succ.setdefault((x, p), tuple(sorted(out)))

    def forall_targets(self, x: NodeId, p: Property) -> tuple[NodeId, ...]:
        """Targets of a value restriction on p.  A name punned as role and
        link propagates across both edge kinds; the filler lands in the
        part of the target label matching its own home unit."""
        found = self._succ.get((x, p, "all"))
        if found is not None:
            return found
        out = set()
        for v in self.kb.punned_variants(p):
            out.update(self.successors(x, v))
        return self._succ.setdefault((x, p, "all"), tuple(sorted(out)))

    # -- blocking ------------------------------------------------------------------

    def blocked(self, x: NodeId) -> str:
        """The node's blocked kind: "direct", "indirect" or "" for none."""
        node = self.nodes[x]
        if node.parent is None and node.kind != "projected":
            return ""  # roots, individuals and placeholders never block
        anc = node.parent
        while anc is not None:
            if self._directly_blocked(anc):
                return "indirect"
            anc = self.nodes[anc].parent
        return "direct" if self._directly_blocked(x) else ""

    def _directly_blocked(self, x: NodeId) -> bool:
        node = self.nodes[x]
        if node.kind == "projected":
            for y, other in self.nodes.items():
                if y < x and node.label.keys() <= other.label.keys():
                    return True
            return False
        if node.kind != "generated" or node.parent is None:
            return False
        xp = node.parent
        x_edge = self._edge_labels(xp, x)
        y = self.nodes[xp].parent
        while y is not None:
            yp = self.nodes[y].parent
            if yp is not None:
                if (self.nodes[y].label.keys() == node.label.keys()
                        and self.nodes[yp].label.keys()
                        == self.nodes[xp].label.keys()
                        and self._edge_labels(yp, y) == x_edge):
                    return True
            y = self.nodes[y].parent
        return False

    def _edge_labels(self, a: NodeId, b: NodeId) -> frozenset[Property]:
        """The properties of the edges from a to b, an edge stored from b
        to a counting as its role's inverse."""
        return frozenset(self.out_e[a].get(b, ())).union(
            p.inverse() for p in self.in_e[a].get(b, ()) if p.is_role)

    # -- clash detection ---------------------------------------------------------

    def detect_clash(self, x: NodeId, b: str) -> ClashInfo | None:
        """A clash at x, whose blocked kind is b, if any.  The label is
        scanned for a Bottom or complement pair only when its count says
        one is there, and for an at-most clash only when it holds one.
        The clash oracle is asked only when the label holds a foreign
        member: the peer's oracle matches clash entries, each of whose
        fragments is non-empty and all foreign."""
        node = self.nodes[x]
        return self._clash(node, b, node.clashes, node.foreign,
                           node.members("max"))

    def first_clash(self) -> ClashInfo | None:
        """The first clash in node order, by full scans that read neither
        the counts nor the views: the reference for detect_clash."""
        for x in sorted(self.nodes):
            info = self._clash(self.nodes[x], self.blocked(x), True, True,
                               True)
            if info:
                return info
        return None

    def _clash(self, node: Node, b: str, pairs, foreign,
               atmost) -> ClashInfo | None:
        """Of several Bottom and complement clashes the one with the
        smallest set is taken, which jumps furthest; ties go to the earliest
        member in insertion order, which is the same in every process (a
        set's hash order is not).  pairs, foreign and atmost say which
        scans run and whether the clash oracle is asked."""
        x, label = node.id, node.label
        found = None
        for c, d in label.items() if pairs else ():
            if c.op == "not" and c.operand in label:
                d |= label[c.operand]
            elif c.op != "bot":
                continue
            if found is None or d < found.deps:
                reason = ("bottom in label" if c.op == "bot"
                          else f"{c.operand.key()} and its negation")
                found = ClashInfo(x, reason, d)
                if not d:
                    break
        if found is not None:
            return found
        if foreign and self.clash_oracle is not None and not b:
            reason = self.clash_oracle(self, x)
            if reason:
                return ClashInfo(x, reason,
                                 _fragment_deps(label, self.fragment(x)))
        for c in label if atmost else ():
            if c.op == "max" and _has_distinct(
                    self, _witnesses(self, x, c), c.n + 1):
                return ClashInfo(
                    x, f"{c.key()} with {c.n + 1} distinct witnesses",
                    self.open_deps())
        return None

    # -- diagnostics ------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for x in sorted(self.nodes):
            n = self.nodes[x]
            mark = ""
            b = self.blocked(x)
            if b:
                mark = f" [{b}ly blocked]"
            lines.append(f"node {x} ({n.kind}){mark}")
            for c in sorted(n.label, key=by_key):
                lines.append(f"  {c.key()}")
            for j in sorted(n.corr):
                st = n.corr[j]
                tgt = st.target_individual or "?"
                lines.append(f"  corr {j}:{tgt}")
        for x in sorted(self.out_e):
            for y in sorted(self.out_e[x]):
                props = ", ".join(sorted(p.key() for p in self.out_e[x][y]))
                lines.append(f"edge {x} -> {y}: {props}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def init_graph(kb: DistributedKB, unit: UnitId,
               goal: Concept | None = None) -> CompletionGraph:
    """Root node plus the unit's ABox skeleton.

    The goal concept, if any, labels the root.  Link assertions produce a
    local placeholder for the foreign individual wired up for projection;
    individual correspondences pre-name the projection target of the local
    node."""
    if goal is not None and goal.home != unit:
        raise ValueError(f"goal lives in {goal.home}, graph belongs to {unit}")
    g = CompletionGraph(kb, unit)
    root = g.new_node("root")
    if goal is not None:
        g.add_label(root.id, nnf(goal))
    ukb = kb.units[unit]
    by_name = g.individuals
    for ind in sorted(ukb.individual_names):
        by_name[ind] = g.new_node("abox").id
    told: dict[NodeId, list[Concept]] = {}
    for ind, c in ukb.concept_assertions:
        told.setdefault(by_name[ind], []).append(nnf(c))
    for x, concepts in told.items():
        g.add_labels(x, concepts)
    for a, p, b in ukb.role_assertions:
        g.add_edge(by_name[a], by_name[b], p)
    for a, b in ukb.inequalities:
        if a == b:  # (different a a): a local contradiction
            g.add_label(by_name[a], Bottom(unit))
        else:
            g.set_distinct(by_name[a], by_name[b])
    coup = kb.couplings[unit]
    for ic in sorted(coup.individual_correspondences,
                     key=lambda c: (c.local_name, c.foreign_unit, c.foreign_name)):
        g.set_corr(by_name[ic.local_name], ic.foreign_unit,
                   target_individual=ic.foreign_name)
    for la in sorted(coup.link_assertions,
                     key=lambda a: (a.local_ind, a.link, a.target_unit,
                                    a.foreign_ind)):
        prop = kb.link_property(unit, la.link)
        placeholder = g.new_node("foreign")
        g.set_corr(placeholder.id, la.target_unit,
                   target_individual=la.foreign_ind)
        g.add_edge(by_name[la.local_ind], placeholder.id, prop)
    return g


# ---------------------------------------------------------------------------
# the expansion rules
# ---------------------------------------------------------------------------

def _and_rule(g: CompletionGraph, x: NodeId):
    """The first And in key order that lacks an operand adds, in one
    action, every missing member of the conjunction tree below it, on its
    set.  An And that is already a member is not descended into: it is a
    tree of its own, on its own set."""
    node = g.nodes[x]
    label = node.label
    for c in node.members("and"):
        if c.left not in label or c.right not in label:
            missing = {}
            todo = [c]
            for a in todo:
                for d in (a.left, a.right):
                    if d not in label and d not in missing:
                        missing[d] = None
                        if d.op == "and":
                            todo.append(d)
            return ("add", x, list(missing), label[c])
    return None


def _unfold_rule(g: CompletionGraph, x: NodeId):
    """Lazy unfolding of the GCIs absorbed into the label's atoms, read
    from the label's atom view in key order, the order of absorbed."""
    node = g.nodes[x]
    label = node.label
    absorbed = g.kb.absorbed(g.unit)
    for a in node.members("atom"):
        rhs = absorbed.get(a)
        if rhs:
            missing = [c for c in rhs if c not in label]
            if missing:
                return ("add", x, missing, label[a])
    return None


def branch_order(d: Concept) -> tuple:
    """Canonical exploration order for alternatives: cheapest commitment
    first (literals before anything that can spawn structure), ties broken
    by serialization.  Deterministic, so runs and cache keys reproduce.
    The choose rule orders its fillers by it alone.  The or rule puts two
    costs before it (disjunct_order): a refuted disjunct goes last, which
    keeps every dependency set (module docstring), and one that needs a
    projection goes after those that need none.  Computed once per
    interned concept and kept on it."""
    try:
        return d._order
    except AttributeError:
        order = (len(subconcepts(d)), d.key())
        object.__setattr__(d, "_order", order)
        return order


def disjunct_order(g: CompletionGraph, node: Node, d: Concept) -> tuple:
    """The or rule's sort key for a disjunct d at node: (refuted, needs
    projection, branch_order).  Refuted: d is a literal whose complement
    is a member, found with one lookup.  Needs projection: d's home is
    another unit, and the node's state toward it names no requester.  It
    reads only the node's label and correspondences, whose changes bump
    the node's version, so the rule memo stays exact."""
    label = node.label
    op = d.op
    refuted = (op == "atom" and d.negation() in label
               or op == "not" and d.operand in label)
    home = d.home
    remote = (home != g.unit
              and node.corr.get(home, NO_CORR).requester is None)
    return refuted, remote, branch_order(d)


def _or_rule(g: CompletionGraph, x: NodeId):
    node = g.nodes[x]
    label = node.label
    for c in node.members("or"):
        if c.left not in label and c.right not in label:
            alts = sorted({c.left, c.right},
                          key=lambda d: disjunct_order(g, node, d))
            return ("branch", [("add", x, [d], label[c]) for d in alts])
    return None


def _forall_rule(g: CompletionGraph, x: NodeId):
    """The value rule, then the forall-plus rule, per value restriction."""
    node = g.nodes[x]
    for c in node.members("all"):
        for y in g.forall_targets(x, c.prop):
            target = g.nodes[y]
            if c.filler not in target.label:
                return ("add", y, [c.filler], node.label[c]
                        | node.cdeps | target.cdeps)
        for r in g.kb.transitive_subroles(c.prop):
            d = ForAll(r, c.filler)
            for y in g.successors(x, r):
                target = g.nodes[y]
                if d not in target.label:
                    return ("add", y, [d], node.label[c]
                            | node.cdeps | target.cdeps)
    return None


def _exists_rule(g: CompletionGraph, x: NodeId):
    node = g.nodes[x]
    for c in node.members("some"):
        if not _witnesses(g, x, c):
            return ("generate", x, c.prop, c.filler, 1, node.label[c])
    return None


def _atleast_rule(g: CompletionGraph, x: NodeId):
    node = g.nodes[x]
    for c in node.members("min"):
        if not _has_distinct(g, _witnesses(g, x, c), c.n):
            return ("generate", x, c.prop, c.filler, c.n, node.label[c])
    return None


def _witnesses(g: CompletionGraph, x: NodeId, c: Concept) -> list[NodeId]:
    """The neighbors of x over the restriction c's property whose label
    holds its filler."""
    return [y for y in g.successors(x, c.prop)
            if c.filler in g.nodes[y].label]


def _has_distinct(g: CompletionGraph, nodes: list[NodeId], k: int) -> bool:
    """Some k of nodes are pairwise distinct."""
    return any(all(b in g.nodes[a].distinct
                   for a, b in itertools.combinations(combo, 2))
               for combo in itertools.combinations(nodes, k))


def _choose_rule(g: CompletionGraph, x: NodeId):
    node = g.nodes[x]
    # at-most before at-least, which is key order
    for c in itertools.chain(node.members("max"), node.members("min")):
        f, nf = c.filler, neg(c.filler)
        for y in g.successors(x, c.prop):
            target = g.nodes[y]
            if f not in target.label and nf not in target.label:
                alts = sorted((f, nf), key=branch_order)
                deps = node.label[c] | node.cdeps | target.cdeps
                return ("branch", [("add", y, [d], deps) for d in alts])
    return None


def _atmost_rule(g: CompletionGraph, x: NodeId):
    for c in g.nodes[x].members("max"):
        witnesses = _witnesses(g, x, c)
        if len(witnesses) <= c.n:
            continue
        # only a generated node with no projection partner yet merges away
        pairs = [(keep, gone)
                 for keep, gone in itertools.permutations(witnesses, 2)
                 if gone not in g.nodes[keep].distinct
                 and g.nodes[gone].kind == "generated"
                 and not g.nodes[gone].corr]
        pairs.sort(key=lambda p: (-p[1], p[0]))
        if pairs:
            return ("branch", [("merge", k, m) for k, m in pairs])
    return None


def _merge(g: CompletionGraph, keep: NodeId, gone: NodeId):
    """Fold gone into keep.  What the merge moves, and the creation sets of
    keep and of gone's neighbours, depend on every open branch point."""
    deps = g.open_deps()
    gnode = g.nodes[gone]
    g.add_labels(keep, gnode.label, deps)
    for y in {keep, *g.out_e[gone], *g.in_e[gone]} - {gone}:
        n = g.nodes[y]
        g._trail.append((_set_attr, n, ("cdeps", n.cdeps)))
        n.cdeps |= deps
    for z in list(gnode.distinct):
        g._discard(g.nodes[z].distinct, gone)
        g.set_distinct(z, keep)
    for y, labels in list(g.out_e[gone].items()):
        for p in labels:
            if y != gone:
                g.add_edge(keep, y, p)
    for y, labels in list(g.in_e[gone].items()):
        for p in labels:
            if y != gone:
                g.add_edge(y, keep, p)
    for child in g.nodes.values():
        if child.parent == gone:
            g._reparent(child, keep)
    for y in list(g.out_e[gone]):
        g._pop(g.in_e[y], gone)
    for y in list(g.in_e[gone]):
        g._pop(g.out_e[y], gone)
    for d in (g.out_e, g.in_e, g.nodes):
        g._pop(d, gone)
    g._bump_all()


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------

def _local_phase(g: CompletionGraph, x: NodeId, b: str):
    act = None if b else _and_rule(g, x) or _unfold_rule(g, x)
    if not act and b != "indirect":
        act = _forall_rule(g, x)
    return act


def _generate_phase(g: CompletionGraph, x: NodeId, b: str):
    return None if b else _exists_rule(g, x) or _atleast_rule(g, x)


def _branch_phase(g: CompletionGraph, x: NodeId, b: str):
    act = None if b else _or_rule(g, x) or _choose_rule(g, x)
    if not act and b != "indirect":
        act = _atmost_rule(g, x)
    return act


def _scan(g: CompletionGraph, keyed: list, memo: set, phase):
    """First action of one phase over keyed, (node, blocked status, memo
    key) in node-id order.  Nodes whose key is in memo are skipped; keys
    where the phase finds nothing are added to it."""
    for x, b, key in keyed:
        if key in memo:
            continue
        act = phase(g, x, b)
        if act:
            return act
        memo.add(key)
    return None


def _sweep(g: CompletionGraph, clash_memo: set):
    """One walk over the nodes in id order: each node's blocked status and
    (node, ver, blocked kind) key, checked for a clash unless its key is in
    clash_memo.  Returns (the first clash or None, [(node, blocked, key)]);
    the list is complete only when no clash was found."""
    nodes = g.nodes
    keyed = []
    for x in sorted(nodes):
        b = g.blocked(x)
        key = (x, nodes[x].ver, b)
        if key not in clash_memo:
            clash = g.detect_clash(x, b)
            if clash is not None:
                return clash, keyed
            clash_memo.add(key)
        keyed.append((x, b, key))
    return None, keyed


def _find_action(g: CompletionGraph, keyed: list):
    """The first action over the sweep's keyed list: the ce rule, then the
    local, generate and branch phases."""
    ck = g.kb.internalization(g.unit)
    for x, b, _ in keyed:
        if not b and ck not in g.nodes[x].label:  # one lookup: no memo
            return ("add", x, [ck], 0)
    local, generate, branch = g._rule_memo
    return (_scan(g, keyed, local, _local_phase)
            or _scan(g, keyed, generate, _generate_phase)
            or _scan(g, keyed, branch, _branch_phase))


def close_deterministic(g: CompletionGraph) -> None:
    """Apply the ce rule and then the local phase until nothing changes,
    with no clash check, generation or branching, and drop the trail.  A
    worklist: each walk in id order runs the local phase at a node until
    its (node, ver, "") key is in the phase's memo, and the walks repeat
    until one applies nothing.  The memo keeps those keys, so a clone
    starts past them.  Meant for a skeleton, whose nodes never block: see
    the module docstring for why its copies then fire the same rules."""
    ck = g.kb.internalization(g.unit)
    for x in sorted(g.nodes):
        g.add_label(x, ck)
    local = g._rule_memo[0]
    changed = True
    while changed:
        changed = False
        for x in sorted(g.nodes):
            while (key := (x, g.nodes[x].ver, "")) not in local:
                action = _local_phase(g, x, "")
                if action is None:
                    local.add(key)
                else:
                    _apply_action(g, action)
                    changed = True
    g._trail.clear()


def _apply_action(g: CompletionGraph, action, bit: int = 0) -> None:
    """Apply one action; bit is the set of the branch point whose
    alternative it is, if any."""
    kind = action[0]
    if kind == "add":
        _, x, concepts, deps = action
        g.add_labels(x, concepts, deps | bit)
    elif kind == "generate":
        _, x, prop, filler, n, deps = action
        if len(g.nodes) + n > MAX_NODES:
            raise BudgetExceeded(f"more than {MAX_NODES} nodes")
        created = []
        for _ in range(n):
            node = g.new_node("generated", parent=x)
            node.cdeps = deps
            g.add_label(node.id, filler, deps)
            g.add_edge(x, node.id, prop)
            created.append(node.id)
        for a, b in itertools.combinations(created, 2):
            g.set_distinct(a, b)
    elif kind == "merge":
        _merge(g, action[1], action[2])
    elif kind == "branch":
        g.branch_stack.append(BranchPoint(list(action[1]), g.snapshot()))
        _take_branch(g, len(g.branch_stack) - 1)
    else:
        raise AssertionError(f"unknown action {kind}")


def _take_branch(g: CompletionGraph, k: int) -> None:
    """Apply the next alternative of the branch point at depth k."""
    g.branch_count += 1
    if g.branch_count > MAX_BRANCHES:
        raise BudgetExceeded(f"more than {MAX_BRANCHES} branches")
    _apply_action(g, g.branch_stack[k].alternatives.pop(0), 1 << k)


def _backtrack(g: CompletionGraph, deps: int) -> bool:
    """Jump to the newest branch point in deps, a clash's set, and take its
    next alternative; True if one was taken.  A branch point with none left
    passes its failures, less itself, on down; an empty set closes every
    branch and returns False."""
    stack = g.branch_stack
    while deps:
        k = deps.bit_length() - 1
        del stack[k + 1:]
        bp = stack[k]
        bp.failed |= deps
        if bp.alternatives:
            g.restore(bp.snapshot)
            _take_branch(g, k)
            return True
        stack.pop()
        deps = bp.failed & ~(1 << k)
    stack.clear()
    return False


def expand_local(g: CompletionGraph) -> bool:
    """Apply rules to fixpoint with dependency-directed backjumping.  True
    when a clash-free, locally complete state is reached; False when every
    branch closes.

    A branch point takes the trail mark before its first alternative.  A
    clash jumps to the newest branch point in its dependency set that has
    alternatives left, skipping the newer ones it does not depend on (see
    the module docstring); one restore undoes the trail back to that
    point's mark, and the next alternative applies, so a jump costs the
    changes made since that mark, not the size of the graph.

    Each step is one sweep over the nodes, which checks them for a clash,
    and then, if none clashes, a search for the first action.  Both find
    what a full rescan would, but skip nodes whose (node, version, blocked
    kind) key says that nothing they can see changed since a check there
    found nothing.  The rule memo lives on the graph and survives
    backtracking, since undoing the trail puts back the versions that went
    with the restored state.  The clash memo starts empty at every call,
    because the clash oracle may learn between calls (never during one)."""
    clash_memo: set = set()
    while True:
        clash, keyed = _sweep(g, clash_memo)
        if clash is not None:
            if not _backtrack(g, clash.deps):
                return False
            continue
        action = _find_action(g, keyed)
        if action is None:
            return True
        _apply_action(g, action)


def collect_obligations(g: CompletionGraph) -> list[Obligation]:
    """Projection duties of the current branch: any unblocked node whose
    label grew a foreign part since the last send.  A named correspondence
    ships the full foreign fragment; an anonymous projection to unit j
    needs a nonempty j-part.  Each obligation carries the full fragment."""
    out = []
    for x in sorted(g.nodes):
        node = g.nodes[x]
        if g.blocked(x):
            continue
        fragment = g.fragment(x)
        if not fragment:
            continue
        # a unit the KB does not hold, such as one the session's view
        # dropped as a hole, has no peer to ask
        dests = {c.home for c in fragment if c.home in g.kb.units} | {
            u for u, st in node.corr.items() if st.target_individual is not None}
        for j in sorted(dests):
            st = node.corr.get(j, NO_CORR)
            if st.requester is not None:
                continue  # this node mirrors a remote node of unit j already
            if st.sent_fragment == fragment:
                continue
            out.append(Obligation(x, j, fragment, st.target_individual))
    return out


def mark_sent(g: CompletionGraph, ob: Obligation):
    g.set_corr(ob.node, ob.dest_unit, sent_fragment=ob.fragment)


def expand_to_completion(g: CompletionGraph, projection_hook=None) -> bool:
    """Local fixpoint, then flush projection obligations through the hook
    and fold the responses back in, until nothing changes anywhere.  True
    when a clash-free completion is reached; False when every branch
    closes, like expand_local.

    The hook takes a list of Obligations and returns a list of
    (CLASH, payload) or (ADDITIONS, tuple-of-literals) outcomes aligned
    with it, applied in place: each marks its fragment sent, additions join
    the node's label, and the first clash puts Bottom there and ends the
    round: the next local step backjumps past the round, and the trail
    undoes its marks, or finds the graph closed.

    A clash confirmed for the item alone depends on the item's fragment; a
    JOINT clash, on every open branch point.  Additions depend on the
    fragments and nodes of every obligation toward the same unit, since
    the package that answered them carried them all."""
    while True:
        if not expand_local(g):
            return False
        obligations = collect_obligations(g)
        if not obligations or projection_hook is None:
            return True
        package: dict[UnitId, int] = {}
        for ob in obligations:
            node = g.nodes[ob.node]
            package[ob.dest_unit] = (package.get(ob.dest_unit, 0)
                                     | _fragment_deps(node.label, ob.fragment)
                                     | node.cdeps)
        for ob, (verdict, payload) in zip(obligations,
                                          projection_hook(obligations)):
            mark_sent(g, ob)
            if verdict == CLASH:
                g.add_label(ob.node, Bottom(g.unit),
                            g.open_deps() if payload == JOINT
                            else _fragment_deps(g.nodes[ob.node].label,
                                                ob.fragment))
                break
            g.add_labels(ob.node, payload, package[ob.dest_unit])


def _fragment_deps(label: dict[Concept, int],
                   fragment: tuple[Concept, ...]) -> int:
    """The union of the label's sets of the fragment's members."""
    out = 0
    for c in fragment:
        out |= label[c]
    return out


# ---------------------------------------------------------------------------
# the tableau-property audit
# ---------------------------------------------------------------------------

def audit_complete_graph(g: CompletionGraph, goal: Concept | None = None) -> list[str]:
    """Mechanical check of the distributed-tableau properties on one
    locally complete, clash-free chunk.  Returns human-readable failures;
    empty means the audit passed.

    The cross-peer sharing property is checked against the projection
    bookkeeping: every node with a foreign fragment must have flushed
    exactly its current fragment.  Property 12 is lazy unfolding: an
    unblocked node holding an atom holds the right sides absorbed into it."""
    kb = g.kb
    problems: list[str] = []
    universe = kb.label_universe(goal)
    absorbed = kb.absorbed(g.unit)

    def complain(prop: str, msg: str):
        problems.append(f"property {prop}: {msg}")

    for x in sorted(g.nodes):
        label = g.nodes[x].label.keys()
        blocked = g.blocked(x)
        for c in label:
            if c not in universe and not isinstance(c, (Top, Bottom)):
                complain("universe", f"{c.key()} outside the label universe")
        for c in label:
            if isinstance(c, Atom) and Not(c) in label:
                complain("1", f"node {x} holds {c.key()} and its negation")
            if isinstance(c, And) and not blocked:
                if not {c.left, c.right} <= label:
                    complain("2", f"node {x}: unexpanded conjunction {c.key()}")
            if isinstance(c, Or) and not blocked:
                if not {c.left, c.right} & label:
                    complain("3", f"node {x}: unexpanded disjunction {c.key()}")
            if c in absorbed and not blocked:
                for d in absorbed[c]:
                    if d not in label:
                        complain("12", f"node {x}: {c.key()} not unfolded "
                                 f"into {d.key()}")
            if isinstance(c, ForAll) and blocked != "indirect":
                for y in g.forall_targets(x, c.prop):
                    if c.filler not in g.nodes[y].label:
                        complain("4", f"node {x}: {c.key()} missed node {y}")
                for r in kb.transitive_subroles(c.prop):
                    d = ForAll(r, c.filler)
                    for y in g.successors(x, r):
                        if d not in g.nodes[y].label:
                            complain("6", f"node {x}: {d.key()} missed node {y}")
            if isinstance(c, Exists) and not blocked:
                if not _witnesses(g, x, c):
                    complain("5", f"node {x}: no witness for {c.key()}")
            if isinstance(c, AtLeast) and not blocked:
                if not _has_distinct(g, _witnesses(g, x, c), c.n):
                    complain("9", f"node {x}: too few witnesses for {c.key()}")
            if isinstance(c, AtMost) and blocked != "indirect":
                if len(_witnesses(g, x, c)) > c.n:
                    complain("8", f"node {x}: at-most bound exceeded for {c.key()}")
            if isinstance(c, (AtLeast, AtMost)) and not blocked:
                for y in g.successors(x, c.prop):
                    if not {c.filler, neg(c.filler)} & g.nodes[y].label.keys():
                        complain("10", f"node {x}: choose missed node {y}")
    # property 7: edge labels upward closed under the hierarchy, by
    # construction of `successors`; verify on a sample
    for x in sorted(g.out_e):
        for y, labels in g.out_e[x].items():
            for p in labels:
                for sup in kb.subsumers(p):
                    if y not in g.successors(x, sup):
                        complain("7", f"edge {x}->{y}: {sup.key()} not visible")
    # property 11: foreign fragments flushed
    for x in sorted(g.nodes):
        node = g.nodes[x]
        if g.blocked(x):
            continue
        fragment = g.fragment(x)
        if not fragment:
            continue
        for j in sorted({c.home for c in fragment}):
            st = node.corr.get(j)
            if st is None:
                complain("11", f"node {x}: no correspondence toward {j}")
            elif st.requester is None and st.sent_fragment != fragment:
                complain("11", f"node {x}: stale fragment toward {j}")
    return problems
