"""Peers and the distributed reasoning services.

Each unit is first checked in isolation, everything foreign read as the
universal concept (isolated_check); a unit that fails drops out as a hole.
The session owns the hole set: it rewrites the holed units out of the KB
once and builds one peer per ready unit over that view, so a peer exists
only once its unit is ready, and it freezes its ABox skeleton as it is
built.  Reasoning tasks run a goal graph at the goal's home peer;
projection packages flow between peers through a router, are answered
against working copies, and are cached by the sender.  The skeleton is
closed under the deterministic rules the first time a task or serve needs
it, so no copy repeats that work.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass

from .model import And, Atom, Concept, DistributedKB, UnitId, neg, nnf
from .protocol import (
    JOINT,
    ProjectionCache,
    ProjectionPackage,
    ProtocolError,
    build_packages,
    drop_holes,
    handle_hole,
    serve_package,
)
from .tableau import (
    ADDITIONS,
    CLASH,
    BudgetExceeded,
    Obligation,
    audit_complete_graph,
    close_deterministic,
    expand_to_completion,
    init_graph,
)

SERVE_DEPTH_LIMIT = 64  # nested serves one peer may have open


class InconclusiveError(Exception):
    """A budget ran out; the question is open, not answered."""


@dataclass
class PeerConfig:
    # on: each peer's projection cache lives as long as the session;
    # off: no package's answer is looked up or stored, and each task
    # starts with no clash entries
    use_cache: bool = True
    # off: the projection hook hands back no answer's literals
    reverse_updates: bool = True
    audit: bool = False


@dataclass
class Metrics:
    projections_triggered: int = 0
    packages_sent: int = 0
    cache_hits: int = 0
    branch_count: int = 0


@dataclass
class Taxonomy:
    unit: UnitId
    classes: dict[str, tuple[str, ...]]       # representative -> members
    edges: set[tuple[str, str]]               # reduced (sub rep, sup rep)
    subsumptions: set[tuple[str, str]]        # (sub rep, sup rep), transitive
    rep_of: dict[str, str]                    # name -> its representative

    def is_below(self, sub: str, sup: str) -> bool:
        """sub is subsumed by sup; either may be any member of its class."""
        sub, sup = self.rep_of.get(sub, sub), self.rep_of.get(sup, sup)
        return sub == sup or (sub, sup) in self.subsumptions

    def roots(self) -> list[str]:
        non_roots = {a for a, _ in self.edges}
        return sorted(r for r in self.classes if r not in non_roots)


def isolated_check(kb: DistributedKB, unit: UnitId) -> bool:
    """A unit's consistency check on its own, every other unit read as a
    hole.  True when the unit is ready, False when it is a hole; raises
    InconclusiveError when the check runs out of budget.  Its graph, an ABox
    skeleton, is closed first (see the tableau module docstring)."""
    isolated = handle_hole(kb, set(kb.unit_order) - {unit})
    try:
        graph = init_graph(isolated, unit)
        close_deterministic(graph)
        return expand_to_completion(graph)
    except BudgetExceeded as e:
        raise InconclusiveError(
            f"peer {unit} failed to initialize: {e}") from e


class Peer:
    """The reasoner of one ready unit.  A peer exists only once its unit
    has passed its isolated check: the session builds it over its
    hole-adjusted view, and it freezes its skeleton as it is built, raising
    InconclusiveError when the skeleton outgrows the budget."""

    def __init__(self, view: DistributedKB, unit: UnitId,
                 config: PeerConfig, router: "LoopbackRouter"):
        self.unit = unit
        self.config = config
        try:
            self.skeleton = init_graph(view, unit)
        except BudgetExceeded as e:
            raise InconclusiveError(
                f"peer {unit} failed to build its skeleton: {e}") from e
        self._skeleton_closed = False
        self.metrics = Metrics()
        self.cache = ProjectionCache()
        self.router = router
        self._pkg_counter = itertools.count(1)
        self._serving: set[tuple[str, bytes]] = set()  # the open serves
        self._lock = threading.RLock()

    def doom_oracle(self, graph, node_id) -> str | None:
        """Early-clash check for each working copy of this peer's skeleton."""
        return self.cache.known_clash(graph, node_id)

    def working_copy(self):
        """A clone of the skeleton with doom_oracle as its early-clash
        check: what every task and serve expands.  The skeleton is closed
        under the deterministic rules on first use, not when the peer
        is built, so that setup does not pay for it."""
        with self._lock:
            if not self._skeleton_closed:
                close_deterministic(self.skeleton)
                self._skeleton_closed = True
        graph = self.skeleton.clone()
        graph.clash_oracle = self.doom_oracle
        return graph

    # -- outbound projections ----------------------------------------------------

    def projection_hook(self, origin: str):
        """The hook a graph expansion uses to flush its obligations.  It
        packages them per neighbor, consults the cache, ships what is left
        through the router and hands each item's outcome to its obligation,
        which is the item itself.  After the first package that reports a
        clash, the round's remaining packages are never sent and their
        items get no additions: the clash puts a Bottom into the graph, and
        the next step jumps back to a mark taken before the round or closes
        the graph, so no other answer of the round would stand.  With
        reverse updates off, additions come back empty, after the cache
        stored them whole.  A budget that runs out in a serve raises
        through the hook."""

        def hook(obligations: list[Obligation]):
            results = dict.fromkeys(obligations, (ADDITIONS, ()))
            clashed = False
            for pkg in build_packages(obligations, self.unit, origin,
                                      self._pkg_counter):
                if clashed:
                    self.router.notify_skip(self.unit, pkg)
                    continue
                for ob, (verdict, payload) in zip(pkg.items,
                                                  self._send_package(pkg)):
                    if verdict == CLASH:
                        clashed = True
                        if payload != JOINT:
                            self.cache.record_clash(ob.dest_unit, ob.fragment,
                                                    ob.target_individual)
                    elif not self.config.reverse_updates:
                        payload = ()
                    results[ob] = (verdict, payload)
            return [results[ob] for ob in obligations]

        return hook

    def _send_package(self, pkg: ProjectionPackage):
        if self.config.use_cache:
            cached = self.cache.lookup(pkg)
            if cached is not None:
                self.metrics.cache_hits += 1
                return cached
        self.metrics.packages_sent += 1
        outcomes, final = self.router.dispatch(pkg)
        if self.config.use_cache and final:
            self.cache.store(pkg, outcomes)
        return outcomes

    # -- inbound serving ------------------------------------------------------------

    def serve(self, pkg: ProjectionPackage) -> tuple[tuple, bool]:
        """Answer one projection package.  Returns (outcomes, final):
        non-final answers are provisional snapshots given to re-entrant
        copies of a request this peer is already serving, and must not be
        cached.  Raises InconclusiveError at SERVE_DEPTH_LIMIT open serves,
        and BudgetExceeded when the serve's copy runs out."""
        key = (pkg.frm, pkg.content_bytes)
        with self._lock:
            if len(self._serving) >= SERVE_DEPTH_LIMIT:
                raise InconclusiveError(
                    f"peer {self.unit} has {SERVE_DEPTH_LIMIT} serves open")
            if key in self._serving:
                return tuple((ADDITIONS, ()) for _ in pkg.items), False
            self._serving.add(key)
        hook = self.projection_hook(pkg.origin)
        try:
            outcomes = serve_package(pkg, self.working_copy, hook)
        finally:
            with self._lock:
                self._serving.discard(key)
        return outcomes, True


class LoopbackRouter:
    """Direct in-process routing between peers; deterministic and
    synchronous.  Records a transcript of reasoning messages.  It holds
    its session weakly: peers hold the router, so a strong reference
    would make a cycle that keeps a dropped session alive until the
    cyclic collector runs."""

    def __init__(self, session: "LoopbackSession"):
        self.session = weakref.proxy(session)

    def dispatch(self, pkg: ProjectionPackage):
        session = self.session
        session.log.append(("projection_request", pkg.frm, pkg.to, pkg.id,
                            len(pkg.items)))
        session.peers[pkg.origin].metrics.projections_triggered += len(pkg.items)
        receiver = session.peers[pkg.to]
        outcomes, final = receiver.serve(pkg)
        session.log.append(("projection_response", pkg.to, pkg.frm, pkg.id,
                            "final" if final else "provisional"))
        return outcomes, final

    def notify_skip(self, frm: str, pkg: ProjectionPackage):
        self.session.log.append(("stop", frm, pkg.to, pkg.id, "skipped"))


class LoopbackSession:
    """All peers in one process, talking through direct calls.

    The task API mirrors the wire task payloads: consistency, concept
    satisfiability, subsumption and per-unit classification.  The KB is
    taken as validated (DistributedKB.validate, which load_kb runs): a link
    or correspondence toward its own holder would be sent to that peer."""

    def __init__(self, kb: DistributedKB, config: PeerConfig | None = None):
        self.kb = kb
        self.config = config or PeerConfig()
        self.peers: dict[UnitId, Peer] = {}  # one per ready unit
        self.log: list[tuple] = []
        self.holes: set[str] | None = None   # decided by initialize
        self._consistency: tuple | None = None

    # -- lifecycle ------------------------------------------------------------

    def initialize(self) -> set[str]:
        """Check every unit in isolation, then build one peer per ready
        unit over the KB with the holes rewritten out; returns the hole
        set."""
        if self.holes is None:
            holes = set()
            for u in self.kb.unit_order:
                if not isolated_check(self.kb, u):
                    holes.add(u)
                    self.log.append(("hole", u, "*", "-", 0))
            view = handle_hole(self.kb, holes)
            router = LoopbackRouter(self)
            self.peers = {u: Peer(view, u, self.config, router)
                          for u in self.kb.unit_order if u not in holes}
            self.holes = holes
        return set(self.holes)

    def _begin_task(self):
        self.initialize()
        for p in self.peers.values():
            p.metrics = Metrics()
            if not self.config.use_cache:
                p.cache = ProjectionCache()

    def _ready_peer(self, unit: UnitId) -> Peer:
        peer = self.peers.get(unit)
        if peer is None:
            raise ProtocolError(f"unit {unit} is not available for reasoning")
        return peer

    def _expand(self, peer: Peer, goal: Concept | None = None,
                models: list | None = None) -> bool:
        """Expand a working copy of the peer's skeleton, goal at the root if
        given, with the projection machinery live; audit a complete goal
        graph when the config asks.  A budget that runs out here or in a
        serve it causes raises InconclusiveError.  True when the graph
        completes, False when every branch closes.  Given models, a
        complete graph in which no node is blocked appends its root's
        label to it."""
        graph = peer.working_copy()
        if goal is not None:
            graph.add_label(0, goal)
        hook = peer.projection_hook(origin=peer.unit)
        try:
            complete = expand_to_completion(graph, hook)
        except BudgetExceeded as e:
            raise InconclusiveError(
                f"task at peer {peer.unit} ran out: {e}") from e
        peer.metrics.branch_count += graph.branch_count
        if goal is not None and complete and self.config.audit:
            problems = audit_complete_graph(graph, goal)
            if problems:
                raise AssertionError("tableau property audit failed: "
                                     + "; ".join(problems))
        if (models is not None and complete
                and not any(map(graph.blocked, graph.nodes))):
            models.append(graph.nodes[0].label)
        return complete

    # -- tasks -----------------------------------------------------------------

    def check_consistency(self):
        """Every ready peer expands its ABox skeleton with the projection
        machinery live.  Returns ('consistent', None) or
        ('inconsistent', (peer, detail))."""
        self._begin_task()
        verdict = ("consistent", None)
        for peer in self.peers.values():
            if not self._expand(peer):
                verdict = ("inconsistent",
                           (peer.unit, "no clash-free completion"))
                break
        self._consistency = verdict
        return verdict

    def ensure_consistent(self):
        if self._consistency is None:
            self.check_consistency()
        if self._consistency[0] != "consistent":
            raise ProtocolError(
                f"distributed KB is inconsistent: {self._consistency[1]}")

    def is_satisfiable(self, goal: Concept, _task: bool = True,
                       _models: list | None = None) -> bool:
        """Whether goal has a model.  A caller's goal is first checked against
        the full KB (check_concept), and a violation raises ProtocolError."""
        if _task and (problems := self.kb.check_concept(goal, goal.home)):
            raise ProtocolError(f"goal {goal.key()} is not valid: "
                                + "; ".join(map(str, problems)))
        self.ensure_consistent()
        if _task:
            self._begin_task()
        goal = drop_holes(nnf(goal), self.holes)
        return self._expand(self._ready_peer(goal.home), goal, _models)

    def is_subsumed(self, sub: Atom, sup: Atom, _task: bool = True,
                    _models: list | None = None) -> bool:
        if sub.unit != sup.unit:
            raise ProtocolError("subsumption queries stay within one unit")
        goal = And(sub, neg(sup), sub.unit)
        return not self.is_satisfiable(goal, _task=_task, _models=_models)

    def classify(self, unit: UnitId) -> Taxonomy:
        """The subsumptions between the unit's named concepts, reduced to
        a hierarchy with equivalence classes collapsed.

        Each name A first gets its told subsumers (_told_subsumers), which
        need no test.  Every other name B is tested, in name order, by
        is_subsumed, unless a model of A's row already settled it: when
        sat(A and not B) holds and no node of its complete goal graph is
        blocked, A is below no name C whose atom is missing from the
        root's label.  The direct test of A and not C can reach that same
        graph, with not C added at the root and not B taken wherever it
        satisfied a disjunction: not C is a local literal, so no rule fires
        on it, no fragment carries it and nothing in the graph clashes with
        it, and with no node blocked a changed root label cannot unblock
        one.  So the result is the pairwise loop's."""
        self.ensure_consistent()
        self._begin_task()
        peer = self._ready_peer(unit)
        names = sorted(self.kb.units[unit].concept_names)
        atoms = {a: Atom(unit, a) for a in names}
        below = _told_subsumers(peer.skeleton.kb.absorbed(unit), atoms)
        for a in names:
            settled = below[a] | {a}
            for b in names:
                if b in settled:
                    continue
                models: list = []
                if self.is_subsumed(atoms[a], atoms[b], _task=False,
                                    _models=models):
                    below[a].add(b)
                elif models:
                    settled.update(c for c in names
                                   if atoms[c] not in models[0])
        return _build_taxonomy(unit, names, below)

    def metrics_snapshot(self) -> dict[str, dict]:
        """Each peer's metrics of the current task, by unit.  Peers exist
        only for ready units, the only ones that can send anything; the
        snapshot is empty before initialize.  Metrics holds only flat
        counts, so a copy of its attributes is dataclasses.asdict without
        the deep copy, at a twentieth of the cost."""
        return {u: vars(p.metrics).copy() for u, p in self.peers.items()}


def _told_subsumers(absorbed: dict[Atom, tuple[Concept, ...]],
                    atoms: dict[str, Atom]) -> dict[str, set[str]]:
    """Each name's told subsumers: the names whose atoms its absorbed GCIs
    reach through their right sides, conjunctions included, and theirs in
    turn."""
    names = {atom: a for a, atom in atoms.items()}
    told: dict[str, set[str]] = {}
    for a, atom in atoms.items():
        reached: set[str] = set()
        todo: list[Concept] = list(absorbed.get(atom, ()))
        while todo:
            c = todo.pop()
            if c.op == "and":
                todo += (c.left, c.right)
            elif c in names and names[c] not in reached:
                reached.add(names[c])
                todo += absorbed.get(c, ())
        told[a] = reached - {a}
    return told


def _build_taxonomy(unit: UnitId, names: list[str],
                    below: dict[str, set[str]]) -> Taxonomy:
    # equivalence classes by mutual subsumption, lexicographic representative
    rep_of: dict[str, str] = {}
    classes: dict[str, tuple[str, ...]] = {}
    for a in names:
        if a in rep_of:
            continue
        members = sorted({a} | {b for b in below[a] if a in below[b]})
        rep = members[0]
        for m in members:
            rep_of[m] = rep
        classes[rep] = tuple(members)
    strict: set[tuple[str, str]] = set()
    for a in names:
        for b in below[a]:
            ra, rb = rep_of[a], rep_of[b]
            if ra != rb:
                strict.add((ra, rb))
    # transitive reduction: drop (a, c) when (a, b) and (b, c) exist
    reduced = set(strict)
    for a, c in strict:
        for b in classes:
            if b not in (a, c) and (a, b) in strict and (b, c) in strict:
                reduced.discard((a, c))
                break
    return Taxonomy(unit=unit, classes=classes, edges=reduced,
                    subsumptions=strict, rep_of=rep_of)
