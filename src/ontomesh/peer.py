"""Peer lifecycle and the distributed reasoning services.

A peer owns one unit.  It initializes by checking its own knowledge in
isolation (everything foreign read as the universal concept); consistent
peers freeze their ABox skeleton and join the communication phase, while
inconsistent ones declare a hole and drop out.  Reasoning tasks run a goal
graph at the goal's home peer; projection packages flow between peers
through a router, are answered against working copies, and are cached by
the sender.  The skeleton is closed under the deterministic rules the first
time a task or serve needs it, so no copy repeats that work.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import asdict, dataclass

from .model import And, Atom, Concept, DistributedKB, UnitId, neg, nnf
from .protocol import (
    JOINT,
    ProjectionCache,
    ProjectionPackage,
    ProtocolError,
    build_packages,
    handle_hole,
    serve_package,
    substitute_holes,
    simplify,
)
from .tableau import (
    ADDITIONS,
    CLASH,
    SKIPPED,
    BudgetExceeded,
    Obligation,
    Outcome,
    audit_complete_graph,
    close_deterministic,
    expand_to_completion,
    init_graph,
)

READY = "ready"
HOLED = "holed"

SERVE_DEPTH_LIMIT = 64  # nested serves one peer may have open


class InconclusiveError(Exception):
    """A budget ran out; the question is open, not answered."""


class PhaseError(Exception):
    """An operation arrived in the wrong lifecycle phase."""


@dataclass
class PeerConfig:
    # on: each peer's projection cache lives as long as the session;
    # off: every task starts with a new one
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
    subsumptions: set[tuple[str, str]]        # full, reflexive closure left out

    def is_below(self, sub: str, sup: str) -> bool:
        return sub == sup or (sub, sup) in self.subsumptions

    def roots(self) -> list[str]:
        non_roots = {a for a, _ in self.edges}
        return sorted(r for r in self.classes if r not in non_roots)


class Peer:
    def __init__(self, kb: DistributedKB, unit: UnitId,
                 config: PeerConfig | None = None):
        self.kb_full = kb
        self.unit = unit
        self.config = config or PeerConfig()
        self.phase: str | None = None        # READY or HOLED once initialized
        self.holes: set[str] = set()
        self.skeleton = None                 # hole-adjusted, frozen at init
        self._skeleton_closed = False
        self.metrics = Metrics()
        self.cache = ProjectionCache()
        self.router = None                   # injected by the session
        self._pkg_counter = itertools.count(1)
        self._serving: set[tuple[str, bytes]] = set()  # the open serves
        self._lock = threading.RLock()

    def doom_oracle(self, graph, node_id) -> str | None:
        """Early-clash check for each working copy of this peer's skeleton."""
        return self.cache.known_clash(graph, node_id)

    # -- lifecycle -------------------------------------------------------------

    def initialize(self) -> str:
        """Isolated consistency check: every other unit is read as a hole.
        Returns the resulting phase, READY or HOLED; raises
        InconclusiveError when the check runs out of budget."""
        others = set(self.kb_full.unit_order) - {self.unit}
        isolated = handle_hole(self.kb_full, others)
        try:
            outcome = expand_to_completion(init_graph(isolated, self.unit))
        except BudgetExceeded as e:
            raise InconclusiveError(
                f"peer {self.unit} failed to initialize: {e}") from e
        self.phase = HOLED if outcome is Outcome.UNSATISFIABLE else READY
        return self.phase

    def adopt_holes(self, holed: set[str]):
        """Freeze the working view and skeleton once the hole set is known;
        raises InconclusiveError when the skeleton outgrows the budget."""
        if self.phase != READY:
            return
        self.holes = set(holed)
        try:
            self.skeleton = init_graph(handle_hole(self.kb_full, self.holes),
                                       self.unit)
        except BudgetExceeded as e:
            raise InconclusiveError(
                f"peer {self.unit} failed to build its skeleton: {e}") from e
        self._skeleton_closed = False

    def working_copy(self):
        """A clone of the skeleton with doom_oracle as its early-clash
        check: what every task and serve expands.  The skeleton is closed
        under the deterministic rules on first use, not in adopt_holes, so
        that setup does not pay for it."""
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
        which is the item itself.  Obligations toward holed peers are not
        packaged and get no additions.  After a clash for some node, that
        node's remaining packages are never sent: the branch is closing
        anyway, so their answers could not change it.  With reverse updates
        off, additions come back empty, after the cache stored them whole.
        A budget that runs out in a serve raises through the hook."""

        def hook(obligations: list[Obligation]):
            results = dict.fromkeys(obligations, (ADDITIONS, ()))
            clashed_nodes: set[int] = set()
            for pkg in build_packages(obligations, self.unit, origin,
                                      self._pkg_counter, self.holes):
                if any(ob.node in clashed_nodes for ob in pkg.items):
                    results.update(dict.fromkeys(pkg.items, (SKIPPED, None)))
                    self.router.notify_skip(self.unit, pkg)
                    continue
                for ob, (verdict, payload) in zip(pkg.items,
                                                  self._send_package(pkg)):
                    if verdict == CLASH:
                        clashed_nodes.add(ob.node)
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
            cached = self.cache.lookup(pkg.to, pkg)
            if cached is not None:
                self.metrics.cache_hits += 1
                return cached
        self.metrics.packages_sent += 1
        outcomes, final = self.router.dispatch(pkg)
        if self.config.use_cache and final:
            self.cache.store(pkg.to, pkg, outcomes)
        return outcomes

    # -- inbound serving ------------------------------------------------------------

    def serve(self, pkg: ProjectionPackage) -> tuple[tuple, bool]:
        """Answer one projection package.  Returns (outcomes, final):
        non-final answers are provisional snapshots given to re-entrant
        copies of a request this peer is already serving, and must not be
        cached.  Raises InconclusiveError at SERVE_DEPTH_LIMIT open serves,
        and BudgetExceeded when the serve's copy runs out."""
        if self.phase != READY:
            raise PhaseError(f"peer {self.unit} cannot serve in phase {self.phase}")
        key = (pkg.frm, pkg.content_bytes())
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

    def broadcast_hole(self, peer_id: str):
        self.session.log.append(("hole", peer_id, "*", "-", 0))


class LoopbackSession:
    """All peers in one process, talking through direct calls.

    The task API mirrors the wire task payloads: consistency, concept
    satisfiability, subsumption and per-unit classification."""

    def __init__(self, kb: DistributedKB, config: PeerConfig | None = None):
        self.kb = kb
        self.config = config or PeerConfig()
        self.peers = {u: Peer(kb, u, self.config) for u in kb.unit_order}
        router = LoopbackRouter(self)
        for p in self.peers.values():
            p.router = router
        self.log: list[tuple] = []
        self.holes: set[str] = set()
        self._initialized = False
        self._consistency: tuple | None = None

    # -- lifecycle ------------------------------------------------------------

    def initialize(self) -> set[str]:
        """Run every peer's isolated initialization; returns the hole set."""
        if self._initialized:
            return set(self.holes)
        for u in self.kb.unit_order:
            if self.peers[u].initialize() == HOLED:
                self.holes.add(u)
                self.peers[u].router.broadcast_hole(u)
        for u in self.kb.unit_order:
            self.peers[u].adopt_holes(self.holes)
        self._initialized = True
        return set(self.holes)

    def _begin_task(self):
        self.initialize()
        for p in self.peers.values():
            p.metrics = Metrics()
            if not self.config.use_cache:
                p.cache = ProjectionCache()

    def _ready_peers(self):
        return [self.peers[u] for u in self.kb.unit_order
                if self.peers[u].phase == READY]

    def _expand(self, peer: Peer, goal: Concept | None = None) -> Outcome:
        """Expand a working copy of the peer's skeleton, goal at the root if
        given, with the projection machinery live; audit a complete goal
        graph when the config asks.  A budget that runs out here or in a
        serve it causes raises InconclusiveError."""
        graph = peer.working_copy()
        if goal is not None:
            graph.add_label(0, goal)
        hook = peer.projection_hook(origin=peer.unit)
        try:
            outcome = expand_to_completion(graph, hook)
        except BudgetExceeded as e:
            raise InconclusiveError(
                f"task at peer {peer.unit} ran out: {e}") from e
        peer.metrics.branch_count += graph.branch_count
        if goal is not None and outcome is Outcome.COMPLETE \
                and self.config.audit:
            problems = audit_complete_graph(graph, goal)
            if problems:
                raise AssertionError("tableau property audit failed: "
                                     + "; ".join(problems))
        return outcome

    # -- tasks -----------------------------------------------------------------

    def check_consistency(self):
        """Every ready peer expands its ABox skeleton with the projection
        machinery live.  Returns ('consistent', None) or
        ('inconsistent', (peer, detail))."""
        self._begin_task()
        verdict = ("consistent", None)
        for peer in self._ready_peers():
            if self._expand(peer) is Outcome.UNSATISFIABLE:
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

    def is_satisfiable(self, goal: Concept, _task: bool = True) -> bool:
        self.ensure_consistent()
        if _task:
            self._begin_task()
        goal = simplify(substitute_holes(nnf(goal), self.holes))
        home = goal.home
        if home in self.holes or home not in self.peers \
                or self.peers[home].phase != READY:
            raise ProtocolError(f"unit {home} is not available for reasoning")
        return self._expand(self.peers[home], goal) is Outcome.COMPLETE

    def is_subsumed(self, sub: Atom, sup: Atom, _task: bool = True) -> bool:
        if sub.unit != sup.unit:
            raise ProtocolError("subsumption queries stay within one unit")
        goal = And(sub, neg(sup), sub.unit)
        return not self.is_satisfiable(goal, _task=_task)

    def classify(self, unit: UnitId) -> Taxonomy:
        """Pairwise subsumption over the unit's named concepts, reduced to
        a hierarchy with equivalence classes collapsed."""
        self.ensure_consistent()
        self._begin_task()
        if unit in self.holes:
            raise ProtocolError(f"unit {unit} is holed")
        names = sorted(self.kb.units[unit].concept_names)
        below: dict[str, set[str]] = {a: set() for a in names}
        for a in names:
            for b in names:
                if a != b and self.is_subsumed(Atom(unit, a), Atom(unit, b),
                                               _task=False):
                    below[a].add(b)
        return _build_taxonomy(unit, names, below)

    def metrics_snapshot(self) -> dict[str, dict]:
        return {u: asdict(self.peers[u].metrics)
                for u in self.kb.unit_order}


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
                    subsumptions=strict)
