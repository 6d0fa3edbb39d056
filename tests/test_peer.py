import dataclasses
import gc
import weakref

import pytest

from ontomesh import peer, protocol, tableau
from ontomesh.io import load_kb, parse_concept
from ontomesh.model import Atom, Bottom, Not, nnf
from ontomesh.oracle import oracle_satisfiable
from ontomesh.peer import InconclusiveError, LoopbackSession, Peer, PeerConfig
from ontomesh.protocol import ProjectionCache, ProjectionPackage, ProtocolError
from ontomesh.tableau import ADDITIONS, CLASH, JOINT, Obligation

from figures import (
    articles_linked_kb, articles_overlap_kb, chain_kb, conference_square_kb,
    conference_triangle_kb, transitive_abox_kb,
)


def _session(kb, **kw):
    return LoopbackSession(kb, PeerConfig(**kw))


# -- lifecycle -----------------------------------------------------------------

def test_initialize_empty_units_ready():
    kb = conference_triangle_kb()
    s = _session(kb)
    assert s.peers == {} and s.metrics_snapshot() == {}
    assert s.initialize() == set()
    assert sorted(s.peers) == ["u2", "u3", "u4"]


def test_local_inconsistency_becomes_hole():
    u1 = """
(unit u1)
(concept C)
(concept D)
(individual a)
(sub C (not D))
(instance a (and C D))
"""
    kb = load_kb([u1, "(unit u2)\n(concept X)"])
    s = _session(kb)
    holes = s.initialize()
    assert holes == {"u1"}
    assert sorted(s.peers) == ["u2"]
    assert any(entry[0] == "hole" for entry in s.log)


def test_self_inequality_becomes_hole():
    """(different a a) is a local contradiction: a's node holds a Bottom
    that rests on no branch point, so the isolated check fails."""
    u1 = """
(unit u1)
(concept C)
(individual a)
(individual b)
(instance a C)
(different a a)
(different a b)
"""
    kb = load_kb([u1, "(unit u2)\n(concept X)"])
    for bound in (1, 2):
        assert oracle_satisfiable(kb, None, domain_bound=bound) is False
    g = tableau.init_graph(kb, "u1")
    a, b = g.individuals["a"], g.individuals["b"]
    assert g.nodes[a].label[Bottom("u1")] == 0
    assert g.nodes[a].distinct == {b} and g.nodes[b].distinct == {a}
    s = _session(kb)
    holes = s.initialize()
    assert holes == {"u1"}
    assert sorted(s.peers) == ["u2"]
    assert any(entry[0] == "hole" for entry in s.log)


def test_consistency_on_empty_aboxes():
    s = _session(conference_square_kb())
    assert s.check_consistency() == ("consistent", None)


def test_inconsistent_correspondence():
    u1 = """
(unit u1)
(concept D)
(individual b)
(instance b D)
(sub D (not u2:C))
"""
    u2 = """
(unit u2)
(concept C)
(individual a)
(instance a C)
"""
    c1 = {"unit": "u1", "mappings": [{"source_unit": "u2",
                                      "individual_correspondences": [
                                          {"foreign": "u2:a", "local": "u1:b"}]}]}
    kb = load_kb([u1, u2], [c1])
    assert oracle_satisfiable(kb, None, domain_bound=2) is False
    s = _session(kb)
    verdict = s.check_consistency()
    assert verdict[0] == "inconsistent"


# -- distributed satisfiability and subsumption -----------------------------------

def test_triangle_goal_unsatisfiable():
    s = _session(conference_triangle_kb())
    goal = parse_concept("(and PediatricConference (not HumanActivity))", "u3")
    assert s.is_satisfiable(goal) is False


def test_triangle_positive_goal_satisfiable():
    s = _session(conference_triangle_kb())
    goal = parse_concept("(and PediatricConference HumanActivity)", "u3")
    assert s.is_satisfiable(goal) is True


def test_square_entailments():
    s = _session(conference_square_kb())
    assert s.is_subsumed(Atom("u1", "MedicalArticle"), Atom("u1", "Article"))
    assert s.is_subsumed(Atom("u3", "PediatricConference"),
                         Atom("u3", "HumanActivity"))
    # non-entailments stay open
    assert not s.is_subsumed(Atom("u1", "Article"), Atom("u1", "MedicalArticle"))


def test_reflexive_subsumption():
    s = _session(conference_square_kb())
    assert s.is_subsumed(Atom("u1", "Article"), Atom("u1", "Article"))


def test_fresh_atom_satisfiable_over_empty_kb():
    kb = load_kb(["(unit u1)\n(concept A)"])
    s = _session(kb)
    assert s.is_satisfiable(parse_concept("A", "u1")) is True


def test_cross_unit_subsumption_rejected():
    s = _session(conference_square_kb())
    with pytest.raises(ProtocolError):
        s.is_subsumed(Atom("u1", "Article"), Atom("u3", "PublishedMaterial"))


# -- classification -----------------------------------------------------------------

def test_classification_linked_articles():
    s = _session(articles_linked_kb())
    tax = s.classify("u1")
    assert ("MedicalArticle", "Article") in tax.subsumptions
    assert ("MathArticle", "Article") in tax.subsumptions
    assert ("CSArticle", "Article") in tax.subsumptions
    assert len(tax.subsumptions) == 3


def test_classification_overlap_articles():
    s = _session(articles_overlap_kb())
    tax = s.classify("u1")
    wanted = {("MedicalArticle", "Article"), ("MathArticle", "Article"),
              ("CSArticle", "Article")}
    assert wanted <= tax.subsumptions
    article_edges = {(a, b) for a, b in tax.subsumptions if b == "Article"}
    assert article_edges == wanted


def test_classification_flat_without_axioms():
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(concept C)"])
    s = _session(kb)
    tax = s.classify("u1")
    assert tax.subsumptions == set()
    assert sorted(tax.classes) == ["A", "B", "C"]
    assert tax.roots() == ["A", "B", "C"]


def test_classification_equivalence_classes():
    kb = load_kb(["""
(unit u1)
(concept A)
(concept B)
(concept C)
(equiv A B)
(sub A C)
"""])
    s = _session(kb)
    tax = s.classify("u1")
    assert tax.classes["A"] == ("A", "B")
    assert ("A", "C") in tax.edges


def test_classification_reduces_a_chain_to_its_covering_edges():
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(concept C)\n"
                  "(sub A B)\n(sub B C)"])
    tax = _session(kb).classify("u1")
    assert tax.edges == {("A", "B"), ("B", "C")}
    assert tax.subsumptions == {("A", "B"), ("B", "C"), ("A", "C")}
    assert tax.roots() == ["C"]
    assert all(tax.is_below(a, a) for a in "ABC")
    assert tax.is_below("A", "C")
    assert not tax.is_below("C", "A")


def test_is_below_reads_any_member_of_a_class():
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(concept C)\n"
                  "(equiv A B)\n(sub B C)"])
    tax = _session(kb).classify("u1")
    assert tax.classes == {"A": ("A", "B"), "C": ("C",)}
    below = {(a, b) for a in "ABC" for b in "ABC" if tax.is_below(a, b)}
    assert below == {("A", "A"), ("A", "B"), ("B", "A"), ("B", "B"),
                     ("A", "C"), ("B", "C"), ("C", "C")}


# -- hole fallback ---------------------------------------------------------------

def test_hole_releases_constraint():
    # unit u4 made inconsistent: its constraint on u3 vanishes
    u2 = """
(unit u2)
(concept Conference)
(concept MedicalConference)
(sub MedicalConference Conference)
"""
    u3 = "(unit u3)\n(concept PediatricConference)\n(concept HumanActivity)"
    u4 = """
(unit u4)
(concept Event)
(concept Broken)
(individual e)
(sub Broken (not Event))
(instance e (and Broken Event))
"""
    c3 = {"unit": "u3", "mappings": [
        {"source_unit": "u2", "bridge_rules": [
            {"kind": "onto", "source": "u2:MedicalConference",
             "target": "u3:PediatricConference"}]},
        {"source_unit": "u4", "bridge_rules": [
            {"kind": "into", "source": "u4:Event",
             "target": "u3:HumanActivity"}]}]}
    c2 = {"unit": "u2", "mappings": [{"source_unit": "u4", "bridge_rules": [
        {"kind": "onto", "source": "u4:Event", "target": "u2:Conference"}]}]}
    kb = load_kb([u2, u3, u4], [c3, c2])
    s = _session(kb)
    assert s.initialize() == {"u4"}
    goal = parse_concept("(and PediatricConference (not HumanActivity))", "u3")
    assert s.is_satisfiable(goal) is True

    # oracle agrees on the substituted KB
    from ontomesh.protocol import handle_hole
    sub_kb = handle_hole(kb, {"u4"})
    assert oracle_satisfiable(sub_kb, goal, domain_bound=2) is True


@pytest.mark.parametrize("u1,holes", [
    ("(concept C)\n(concept D)\n(sub C (not D))\n(instance a (and C D))",
     {"u1"}),
    ("(concept C)\n(concept D)\n(instance a (or C D))\n"
     "(instance a (not C))\n(instance a (not D))", {"u1"}),
    ("(concept C)\n(role r)\n(individual b)\n(related a r b)\n"
     "(instance a (all r (not C)))\n(instance b (or C u2:X))", set()),
    ("(concept C)\n(role r)\n(instance a (some r C))\n"
     "(instance a (all r (not C)))", {"u1"}),
], ids=["deterministic", "branching", "consistent", "generated"])
def test_closed_isolated_check_keeps_the_holes_and_the_log(u1, holes,
                                                          monkeypatch):
    """isolated_check closes its graph before expanding it; the hole set
    and the log are those of the bare graph."""
    kb = load_kb([f"(unit u1)\n(individual a)\n{u1}",
                  "(unit u2)\n(concept X)"])
    s = _session(kb)
    assert s.initialize() == holes
    monkeypatch.setattr(peer, "close_deterministic", lambda g: None)
    bare = _session(kb)
    assert bare.initialize() == holes
    assert bare.log == s.log


def test_goal_in_holed_unit_rejected():
    kb = load_kb(["""
(unit u1)
(concept C)
(individual a)
(sub C (not C))
(instance a C)
""", "(unit u2)\n(concept X)"])
    s = _session(kb)
    s.initialize()
    with pytest.raises(ProtocolError):
        s.is_satisfiable(parse_concept("C", "u1"))


@pytest.mark.parametrize("unit", ["u1", "nope"], ids=["holed", "unknown"])
def test_classify_needs_a_ready_unit(unit):
    kb = load_kb(["""
(unit u1)
(concept C)
(individual a)
(sub C (not C))
(instance a C)
""", "(unit u2)\n(concept X)"])
    s = _session(kb)
    with pytest.raises(ProtocolError):
        s.classify(unit)
    with pytest.raises(ProtocolError):
        s.is_satisfiable(Atom(unit, "C"))


def _sat(text):
    return lambda s: s.is_satisfiable(parse_concept(text, "u1"))


@pytest.mark.parametrize("ask, problem", [
    (lambda s: s.is_subsumed(Atom("u1", "A"), Atom("u1", "Typo")),
     "unknown-concept [u1]: u1:Typo is not declared"),
    (_sat("(some zz A)"), "unknown-property [u1]: u1:zz is not declared"),
    (_sat("(and A u9:X)"), "unknown-unit [u1]: u9:X names unit u9"),
    (_sat("(max 1 r A)"), "non-simple [u1]: non-simple property in number "
                          "restriction (max 1 u1:r u1:A)"),
], ids=["subsumer", "role", "unit", "non-simple"])
def test_a_task_goal_is_validated_against_the_kb(ask, problem):
    kb = load_kb(["(unit u1)\n(concept A)\n(role r)\n(transitive r)"])
    s = _session(kb)
    with pytest.raises(ProtocolError) as exc:
        ask(s)
    assert str(exc.value).endswith(f" is not valid: {problem}")
    assert s.is_satisfiable(parse_concept("(and A (some r A))", "u1"))
    assert not s.is_satisfiable(parse_concept("(and A (not A))", "u1"))


# -- metrics and cache -------------------------------------------------------------

def test_metrics_fresh_peer_all_zero():
    s = _session(conference_triangle_kb())
    s.initialize()
    snap = s.metrics_snapshot()
    assert all(v == 0 for d in snap.values() for v in d.values())


def test_metrics_snapshot_is_a_copy():
    s = _session(conference_triangle_kb())
    assert s.is_satisfiable(parse_concept("PediatricConference", "u3"))
    snap = s.metrics_snapshot()
    assert snap == {u: dataclasses.asdict(p.metrics)
                    for u, p in s.peers.items()}
    assert snap["u3"]["packages_sent"] > 0
    for d in snap.values():
        for k in d:
            d[k] += 1
    assert s.metrics_snapshot() == {u: {k: v - 1 for k, v in d.items()}
                                    for u, d in snap.items()}


def test_cache_hit_on_identical_goal():
    # a satisfiable goal whose expansion projects; the second run answers
    # from the cache without touching the wire
    s = _session(conference_triangle_kb())
    goal = parse_concept("PediatricConference", "u3")
    assert s.is_satisfiable(goal) is True
    first = s.metrics_snapshot()["u3"]["packages_sent"]
    assert first > 0
    assert s.is_satisfiable(goal) is True
    second = s.metrics_snapshot()["u3"]
    assert second["cache_hits"] > 0
    assert second["packages_sent"] == 0


def test_cache_disabled_sends_every_time():
    s = _session(conference_triangle_kb(), use_cache=False)
    goal = parse_concept("PediatricConference", "u3")
    s.is_satisfiable(goal)
    first = s.metrics_snapshot()["u3"]["packages_sent"]
    assert first > 0
    s.is_satisfiable(goal)
    assert s.metrics_snapshot()["u3"]["packages_sent"] == first
    assert s.metrics_snapshot()["u3"]["cache_hits"] == 0


def test_cache_disabled_keeps_clash_memo_within_task():
    # with the cache off the clash memo still prunes branches inside one
    # task; without it this classification runs for over a minute
    taxonomies = []
    for flag in (True, False):
        s = _session(articles_linked_kb(), use_cache=flag)
        taxonomies.append(s.classify("u1"))
    assert taxonomies[0] == taxonomies[1]
    assert s.peers["u1"].cache._clashes


def _watch_clashes(monkeypatch) -> list[str]:
    """Log every clash-entry hit and every recorded clash, in order."""
    events = []
    known, record = ProjectionCache.known_clash, ProjectionCache.record_clash

    def watched_known(self, graph, node):
        reason = known(self, graph, node)
        if reason is not None:
            events.append("hit")
        return reason

    def watched_record(self, *args):
        events.append("record")
        return record(self, *args)

    monkeypatch.setattr(ProjectionCache, "known_clash", watched_known)
    monkeypatch.setattr(ProjectionCache, "record_clash", watched_record)
    return events


def test_cache_on_prunes_the_next_task_with_earlier_clashes(monkeypatch):
    s = _session(conference_square_kb())
    assert s.is_subsumed(Atom("u1", "MedicalArticle"), Atom("u1", "Article"))
    cache = s.peers["u1"].cache
    assert cache._clashes
    events = _watch_clashes(monkeypatch)
    assert s.is_subsumed(Atom("u3", "PediatricConference"),
                         Atom("u3", "HumanActivity"))
    # the same cache, and it prunes before this task records any clash
    assert s.peers["u1"].cache is cache
    assert events[0] == "hit"


def test_cache_off_starts_each_task_with_a_new_empty_cache(monkeypatch):
    s = _session(articles_linked_kb(), use_cache=False)
    begin = LoopbackSession._begin_task
    at_start = []   # (cache, empty) per peer at each task start

    def watched_begin(self):
        begin(self)
        at_start.extend((p.cache, not (p.cache._clashes or p.cache._store))
                        for p in self.peers.values())

    monkeypatch.setattr(LoopbackSession, "_begin_task", watched_begin)
    events = _watch_clashes(monkeypatch)
    at_end = []
    for sub in ("CSArticle", "MathArticle"):
        events.clear()
        s.is_subsumed(Atom("u1", sub), Atom("u1", "Article"))
        # nothing carried over: this task's first clash is its own
        assert events[0] == "record"
        at_end.append(s.peers["u1"].cache)
        assert at_end[-1]._clashes
    assert all(empty for _, empty in at_start)
    assert len({id(c) for c, _ in at_start}) == len(at_start)
    assert at_end[0] is not at_end[1]


def test_outcomes_identical_with_and_without_cache():
    goal = parse_concept("(and PediatricConference (not HumanActivity))", "u3")
    verdicts = []
    for flag in (True, False):
        s = _session(conference_triangle_kb(), use_cache=flag)
        verdicts.append(s.is_satisfiable(goal))
    assert verdicts[0] == verdicts[1]


def test_triggered_attribution_goes_to_initiator():
    s = _session(conference_square_kb())
    s.is_subsumed(Atom("u1", "MedicalArticle"), Atom("u1", "Article"))
    snap = s.metrics_snapshot()
    assert snap["u1"]["projections_triggered"] > 0
    # peripheral peers that only served do not get the attribution
    assert snap["u3"]["projections_triggered"] == 0


# -- budget ----------------------------------------------------------------------

def test_budget_exhaustion_is_inconclusive(monkeypatch):
    monkeypatch.setattr(tableau, "MAX_NODES", 2)
    kb = load_kb(["(unit u1)\n(concept A)\n(role r)\n(sub A (some r A))"])
    s = _session(kb)
    with pytest.raises(InconclusiveError):
        s.is_satisfiable(parse_concept("A", "u1"))


def test_budget_exhausted_by_the_isolated_abox_is_inconclusive(monkeypatch):
    # root, a and b: one node more than the budget
    monkeypatch.setattr(tableau, "MAX_NODES", 2)
    kb = load_kb(["(unit u1)\n(individual a)\n(individual b)"])
    with pytest.raises(InconclusiveError, match="failed to initialize"):
        _session(kb).initialize()


def test_budget_exhausted_by_the_skeleton_is_inconclusive(monkeypatch):
    # the isolated graph is root and a, as u2 is read as a hole there; the
    # skeleton adds a placeholder for u2:b
    monkeypatch.setattr(tableau, "MAX_NODES", 2)
    c1 = {"unit": "u1", "links": [{"name": "e", "target_unit": "u2"}],
          "link_assertions": [{"from": "u1:a", "link": "e", "to": "u2:b"}]}
    kb = load_kb(["(unit u1)\n(individual a)", "(unit u2)\n(individual b)"],
                 [c1])
    with pytest.raises(InconclusiveError, match="skeleton"):
        _session(kb).initialize()


def test_budget_exhausted_in_a_serve_is_not_an_answer(monkeypatch):
    # u1's goal graph is one node; u2's copy for the projected u2:B needs
    # four: root, the projected node and the r-successors for C and D
    u2 = """
(unit u2)
(concept B)
(concept C)
(concept D)
(role r)
(sub B (some r C))
(sub C (some r D))
"""
    s = _session(load_kb(["(unit u1)\n(concept A)", u2]))
    goal = parse_concept("(and A u2:B)", "u1")
    monkeypatch.setattr(tableau, "MAX_NODES", 3)
    with pytest.raises(InconclusiveError):
        s.is_satisfiable(goal)
    assert [e[0] for e in s.log] == ["projection_request"]
    assert all(not p._serving for p in s.peers.values())
    monkeypatch.undo()
    # nothing of the failed serve was kept as an answer
    assert s.is_satisfiable(goal) is True
    assert s.metrics_snapshot()["u1"]["packages_sent"] == 1


# -- reverse updates ---------------------------------------------------------------

def _reverse_cycle_kb():
    u1 = "(unit u1)\n(concept A)\n(concept C)"
    u2 = "(unit u2)\n(concept B)\n(concept D)"
    u3 = "(unit u3)\n(concept E)"
    c1 = {"unit": "u1", "mappings": [{"source_unit": "u2", "bridge_rules": [
        {"kind": "onto", "source": "u2:B", "target": "u1:A"}]}]}
    c2 = {"unit": "u2", "mappings": [
        {"source_unit": "u1", "bridge_rules": [
            {"kind": "into", "source": "u1:A", "target": "u2:D"}]},
        {"source_unit": "u3", "bridge_rules": [
            {"kind": "onto", "source": "u3:E", "target": "u2:D"}]}]}
    c3 = {"unit": "u3", "mappings": [{"source_unit": "u1", "bridge_rules": [
        {"kind": "into", "source": "u1:A", "target": "u3:E"}]}]}
    return load_kb([u1, u2, u3], [c1, c2, c3])


def test_reverse_cycle_satisfiable_without_reverse_updates():
    # the model {a}/{b}/{e} with every pair corresponding satisfies u1:A
    kb = _reverse_cycle_kb()
    goal = Atom("u1", "A")
    assert oracle_satisfiable(kb, goal, domain_bound=2) is True
    assert _session(kb, reverse_updates=False).is_satisfiable(goal)


def test_reverse_cycle_satisfiable_with_reverse_updates():
    # the u2 serve picks not u1:A in the into rule's disjunction; that
    # choice must not flow back as a fact
    assert _session(_reverse_cycle_kb()).is_satisfiable(Atom("u1", "A"))


def test_served_node_prefers_its_requesters_literal_to_a_projecting_one():
    # u2 holds (or (not u1:A) u2:D) and (or (not u2:D) u3:E).  A node that
    # mirrors u1 sends nothing back to u1, so (not u1:A) costs no
    # projection; u2:D would force u3:E and a projection to u3
    g = tableau.init_graph(_reverse_cycle_kb(), "u2")
    x = g.new_node("projected").id
    g.set_corr(x, "u1", requester=("u1", 0))
    g.add_label(x, Atom("u2", "B"))
    assert tableau.expand_local(g)
    label = g.nodes[x].label
    assert Not(Atom("u1", "A")) in label and Atom("u2", "D") not in label
    assert [ob for ob in tableau.collect_obligations(g) if ob.node == x] == []


def test_reverse_updates_off_hook_answers_no_literals():
    # u2's serve of u2:B unfolds it to u1:Z, which it answers back
    kb = load_kb(["(unit u1)\n(concept Z)",
                  "(unit u2)\n(concept B)\n(sub B u1:Z)"])
    ob = Obligation(0, "u2", (Atom("u2", "B"),), None)
    answers = []
    for reverse_updates in (True, False):
        s = _session(kb, reverse_updates=reverse_updates)
        s.initialize()
        answers.append(s.peers["u1"].projection_hook("u1")([ob]))
    assert answers == [[(ADDITIONS, (Atom("u1", "Z"),))], [(ADDITIONS, ())]]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: an into rule's negated foreign source is projected as "
    "an anonymous fragment, which asks for a correspondent; a correspondent "
    "is optional, and a node without one satisfies every negated foreign "
    "atom"))
def test_negated_into_source_needs_no_correspondent():
    # every u2 element is in Y, so the u2 side of u1's into rule holds
    # only for a node with no correspondent, which the oracle allows
    kb = load_kb(["(unit u1)\n(concept A)",
                  "(unit u2)\n(concept X)\n(concept Y)\n"
                  "(sub (or X (not X)) Y)"],
                 [{"unit": "u1", "mappings": [{
                     "source_unit": "u2", "bridge_rules": [
                         {"kind": "into", "source": "u2:Y",
                          "target": "u1:A"}]}]}])
    goal = parse_concept("(not A)", "u1")
    assert oracle_satisfiable(kb, goal, domain_bound=2) is True
    assert _session(kb).is_satisfiable(goal)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 1: u2's serve chooses (not u1:A) on the projected node, "
    "which mirrors its requester, so it sends nothing back and holds the "
    "choice back from its answer; the requester's u1:A never meets it"))
def test_served_choice_about_the_requesters_vocabulary_is_checked():
    # the goal element needs a correspondent in X, which is in Y since its
    # correspondent is in A, and then needs a correspondent in B: the one
    # correspondence per unit pair leads back to the goal element
    kb = load_kb(["(unit u1)\n(concept A)\n(concept B)\n(role r)",
                  "(unit u2)\n(concept X)\n(concept Y)\n(role s)"],
                 [{"unit": "u1", "mappings": [{
                     "source_unit": "u2", "bridge_rules": [
                         {"kind": "onto", "source": "u2:X",
                          "target": "u1:A"}]}]},
                  {"unit": "u2", "mappings": [{
                      "source_unit": "u1", "bridge_rules": [
                          {"kind": "into", "source": "u1:A",
                           "target": "u2:Y"},
                          {"kind": "onto", "source": "u1:B",
                           "target": "u2:Y"}]}]}])
    goal = parse_concept("(and A (not B))", "u1")
    assert oracle_satisfiable(kb, goal, domain_bound=1) is False
    assert _session(kb).is_satisfiable(goal) is False


def test_consistent_abox_chooses_without_projecting():
    # every a{i} takes the local A, which its correspondent's X forces
    # anyway; a{2} in (not A) refutes A, so (not u2:Y) goes alone
    s = _session(transitive_abox_kb(None))
    assert s.check_consistency() == ("consistent", None)
    assert not any(e[0] == "projection_request" for e in s.log)
    s = _session(transitive_abox_kb(2))
    assert s.check_consistency()[0] == "inconsistent"
    assert [e[-1] for e in s.log if e[0] == "projection_request"] == [1]


# -- re-entrant serving --------------------------------------------------------------

def _reentrant_kb():
    # u1's root chooses (not A), so it projects (not u2:B) to u2.  u2 maps
    # u1:A onto and into B too, so u2's root chooses B, which refutes
    # (not u2:B) and leaves u1:A, and it projects back to u1, whose serve
    # projects the same package to u2 again while u2 still serves it
    u1 = "(unit u1)\n(concept A)\n(concept C)"
    u2 = "(unit u2)\n(concept B)\n(concept D)"
    c1 = {"unit": "u1", "mappings": [{"source_unit": "u2", "bridge_rules": [
        {"kind": "onto", "source": "u2:B", "target": "u1:A"},
        {"kind": "into", "source": "u2:B", "target": "u1:A"}]}]}
    c2 = {"unit": "u2", "mappings": [{"source_unit": "u1", "bridge_rules": [
        {"kind": "onto", "source": "u1:A", "target": "u2:B"},
        {"kind": "into", "source": "u1:A", "target": "u2:B"}]}]}
    return load_kb([u1, u2], [c1, c2])


@pytest.mark.parametrize("use_cache", [True, False])
def test_reentrant_serve_answers_provisionally(use_cache):
    kb = _reentrant_kb()
    goal = Atom("u1", "A")
    assert oracle_satisfiable(kb, goal, domain_bound=2) is True
    s = _session(kb, use_cache=use_cache)
    assert s.is_satisfiable(goal) is True
    assert any(e[0] == "projection_response" and e[-1] == "provisional"
               for e in s.log)


def test_reentrant_serve_respects_depth_limit(monkeypatch):
    goal = Atom("u1", "A")
    monkeypatch.setattr(peer, "SERVE_DEPTH_LIMIT", 1)
    with pytest.raises(InconclusiveError):
        _session(_reentrant_kb()).is_satisfiable(goal)
    monkeypatch.setattr(peer, "SERVE_DEPTH_LIMIT", 2)
    assert _session(_reentrant_kb()).is_satisfiable(goal)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 2, the first task of a session undercounts packages: "
    "_begin_task resets Metrics after the implicit consistency check has "
    "sent packages"))
def test_first_task_counts_every_package_it_sends():
    s = _session(_reentrant_kb())
    assert s.is_satisfiable(Atom("u1", "A"))
    sent = [e for e in s.log if e[0] == "projection_request" and e[1] == "u1"]
    assert s.metrics_snapshot()["u1"]["packages_sent"] == len(sent)


# -- mapping package answers back to obligations ------------------------------------

def _record_hooks(monkeypatch) -> list[dict]:
    """Per projection hook call: the peer, its obligations, the packages it
    built, the answer to each package it sent, and what it returned."""
    calls, open_calls = [], []
    make_hook, send = Peer.projection_hook, Peer._send_package
    build = peer.build_packages

    def recorded_make_hook(self, origin):
        hook = make_hook(self, origin)

        def recorded_hook(obligations):
            call = {"peer": self.unit, "obligations": list(obligations),
                    "packages": [], "answers": {}}
            calls.append(call)
            open_calls.append(call)
            try:
                call["results"] = hook(obligations)
            finally:
                open_calls.pop()
            return call["results"]
        return recorded_hook

    def recorded_build(*args):
        packages = build(*args)
        open_calls[-1]["packages"].extend(packages)
        return packages

    def recorded_send(self, pkg):
        outcomes = send(self, pkg)
        open_calls[-1]["answers"][pkg.id] = outcomes
        return outcomes

    monkeypatch.setattr(Peer, "projection_hook", recorded_make_hook)
    monkeypatch.setattr(Peer, "_send_package", recorded_send)
    monkeypatch.setattr(peer, "build_packages", recorded_build)
    return calls


def test_hook_maps_each_package_answer_to_its_obligation(monkeypatch):
    calls = _record_hooks(monkeypatch)
    s = _session(conference_triangle_kb())
    s.classify("u3")
    stops = [e for e in s.log if e[0] == "stop"]
    assert [e[:3] + e[4:] for e in stops] == [("stop", "u3", "u4", "skipped")]
    skipped = stops[0][3]
    verdicts = set()
    for call in calls:
        obligations = call["obligations"]
        want = [None] * len(obligations)
        for pkg in call["packages"]:
            for k, item in enumerate(pkg.items):
                i, = [i for i, ob in enumerate(obligations)
                      if (ob.dest_unit, ob.node) == (pkg.to, item.node)]
                want[i] = ((ADDITIONS, ()) if pkg.id == skipped
                           else call["answers"][pkg.id][k])
        assert call["results"] == want
        verdicts.update(v for v, _ in want)
    assert verdicts == {ADDITIONS, CLASH}


def test_hook_answers_by_item():
    broken = """
(unit u1)
(concept C)
(individual a)
(sub C (not C))
(instance a C)
"""
    kb = load_kb([broken, "(unit u2)\n(concept X)", "(unit u3)\n(concept Y)"])
    s = _session(kb)
    assert s.initialize() == {"u1"}
    y = Atom("u3", "Y")
    # the package to u3 sorts node 1's item before node 0's; only node 1's
    # fragment clashes there
    obligations = [Obligation(0, "u3", (y,), None),
                   Obligation(1, "u3", (Not(y), y), None)]
    hook = s.peers["u2"].projection_hook("u2")
    assert hook(obligations) == [(ADDITIONS, ()), (CLASH, None)]
    assert [e[:3] for e in s.log if e[0] == "projection_request"] == [
        ("projection_request", "u2", "u3")]


# -- paths no workload runs, against the oracle ------------------------------------

CONFIGS = [{}, {"use_cache": False}, {"reverse_updates": False}]
CONFIG_IDS = ["default", "no-cache", "no-reverse"]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_joint_clash_answers_every_item_and_records_no_clash(config,
                                                             monkeypatch):
    # a and c both correspond to u2:b: each item stands alone, together
    # they put b in X and in (not X)
    u1 = ("(unit u1)\n(individual a)\n(individual c)\n"
          "(instance a u2:X)\n(instance c (not u2:X))")
    c1 = {"unit": "u1", "mappings": [{"source_unit": "u2",
                                      "individual_correspondences": [
                                          {"foreign": "u2:b", "local": "u1:a"},
                                          {"foreign": "u2:b", "local": "u1:c"}]}]}
    kb = load_kb([u1, "(unit u2)\n(concept X)\n(individual b)"], [c1])
    assert oracle_satisfiable(kb, None, domain_bound=2) is False
    answers, serve = [], peer.serve_package

    def recorded_serve(*args):
        answers.append(serve(*args))
        return answers[-1]

    monkeypatch.setattr(peer, "serve_package", recorded_serve)
    s = _session(kb, **config)
    assert s.check_consistency()[0] == "inconsistent"
    assert answers == [((CLASH, JOINT), (CLASH, JOINT))]
    assert not s.peers["u1"].cache._clashes


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_a_clash_skips_the_rest_of_the_round(config):
    # a's package to u2 clashes; c's package to u3 is about another node,
    # but the Bottom closes the graph, so it is never sent
    u1 = ("(unit u1)\n(individual a)\n(individual c)\n"
          "(instance a u2:X)\n(instance c u3:Y)")
    u2 = "(unit u2)\n(concept X)\n(individual b)\n(instance b (not X))"
    u3 = "(unit u3)\n(concept Y)\n(individual d)"
    c1 = {"unit": "u1", "mappings": [
        {"source_unit": "u2", "individual_correspondences": [
            {"foreign": "u2:b", "local": "u1:a"}]},
        {"source_unit": "u3", "individual_correspondences": [
            {"foreign": "u3:d", "local": "u1:c"}]}]}
    kb = load_kb([u1, u2, u3], [c1])
    assert oracle_satisfiable(kb, None, domain_bound=2) is False
    s = _session(kb, **config)
    assert s.check_consistency()[0] == "inconsistent"
    assert [e[2] for e in s.log if e[0] == "projection_request"] == ["u2"]
    assert [e[:3] + e[4:] for e in s.log if e[0] == "stop"] == [
        ("stop", "u1", "u3", "skipped")]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("assertion, verdict", [
    ("(instance b (not X))", "inconsistent"),
    ("(instance b X)", "consistent"),
    ("", "consistent"),
], ids=["not-X", "X", "none"])
def test_link_assertion_reaches_the_foreign_individual(assertion, verdict,
                                                       config):
    u1 = "(unit u1)\n(individual a)\n(instance a (all e u2:X))"
    u2 = f"(unit u2)\n(concept X)\n(individual b)\n{assertion}"
    c1 = {"unit": "u1", "links": [{"name": "e", "target_unit": "u2"}],
          "link_assertions": [{"from": "u1:a", "link": "e", "to": "u2:b"}]}
    kb = load_kb([u1, u2], [c1])
    consistent = verdict == "consistent"
    assert oracle_satisfiable(kb, None, domain_bound=2) is consistent
    assert _session(kb, **config).check_consistency()[0] == verdict


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("different", [True, False], ids=["different", "same"])
def test_abox_inequality_meets_a_bridged_at_most(different, config):
    # c corresponds to u2:d in Y, so c is in B and has at most one
    # r-successor: a and b must be one
    u1 = ("(unit u1)\n(concept B)\n(role r)\n(individual a)\n"
          "(individual b)\n(individual c)\n(related c r a)\n"
          "(related c r b)\n(sub B (max 1 r top))\n"
          + ("(different a b)" if different else ""))
    u2 = "(unit u2)\n(concept Y)\n(individual d)\n(instance d Y)"
    c1 = {"unit": "u1", "mappings": [{
        "source_unit": "u2",
        "bridge_rules": [{"kind": "into", "source": "u2:Y",
                          "target": "u1:B"}],
        "individual_correspondences": [{"foreign": "u2:d", "local": "u1:c"}]}]}
    kb = load_kb([u1, u2], [c1])
    assert oracle_satisfiable(kb, None, domain_bound=2) is not different
    assert _session(kb, **config).check_consistency()[0] == (
        "inconsistent" if different else "consistent")


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
def test_goal_loses_the_vocabulary_of_a_holed_unit(config):
    broken = ("(unit u1)\n(concept C)\n(individual a)\n(sub C (not C))\n"
              "(instance a C)")
    kb = load_kb([broken, "(unit u2)\n(concept X)"])
    s = _session(kb, **config)
    assert s.initialize() == {"u1"}
    view = protocol.handle_hole(kb, {"u1"})
    for text, rewritten in [("(and X u1:C)", "u2:X"),
                            ("(and X (not u1:C))", "u2:X"),
                            ("(and (not X) (or X u1:C))", "(not u2:X)")]:
        goal = parse_concept(text, "u2")
        dropped = protocol.drop_holes(nnf(goal), {"u1"})
        assert dropped.key() == rewritten
        assert oracle_satisfiable(view, dropped, domain_bound=2) is True
        assert s.is_satisfiable(goal) is True
    assert s.log == [("hole", "u1", "*", "-", 0)]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("axiom", ["(instance a u2:X)", "(sub A u2:X)"],
                         ids=["assertion", "gci"])
def test_ready_unit_naming_a_holed_concept_asks_no_holed_peer(axiom, config):
    # the rewrite leaves u2's universal concept in a's label: no package
    # may go to u2, which is holed
    u1 = f"(unit u1)\n(concept A)\n(individual a)\n(instance a A)\n{axiom}"
    broken = ("(unit u2)\n(concept X)\n(individual b)\n(sub X (not X))\n"
              "(instance b X)")
    kb = load_kb([u1, broken])
    s = _session(kb, **config)
    assert s.initialize() == {"u2"}
    view = protocol.handle_hole(kb, {"u2"})
    assert oracle_satisfiable(view, None, domain_bound=2) is True
    assert s.check_consistency()[0] == "consistent"
    assert s.log == [("hole", "u2", "*", "-", 0)]


# -- session lifetime ------------------------------------------------------------

def test_dropped_session_is_freed_by_reference_counting(monkeypatch):
    """No reference cycle keeps a session, its peers or their skeletons
    alive once the caller drops it; serving copies still consult the
    doom oracle, now set per working copy instead of on the skeleton."""
    calls = {"serving": 0, "in_serve": 0}
    doom_oracle, serve = Peer.doom_oracle, Peer.serve

    def counted_oracle(self, graph, node):
        calls["in_serve"] += calls["serving"] > 0
        return doom_oracle(self, graph, node)

    def counted_serve(self, pkg):
        calls["serving"] += 1
        try:
            return serve(self, pkg)
        finally:
            calls["serving"] -= 1

    monkeypatch.setattr(Peer, "doom_oracle", counted_oracle)
    monkeypatch.setattr(Peer, "serve", counted_serve)
    gc.disable()
    try:
        session = _session(conference_triangle_kb())
        session.classify("u3")
        assert session.metrics_snapshot()["u3"]["packages_sent"] > 0
        assert calls["in_serve"] > 0
        peer = session.peers["u2"]
        assert all(p.skeleton.clash_oracle is None
                   for p in session.peers.values())
        refs = [weakref.ref(session), weakref.ref(peer),
                weakref.ref(peer.skeleton)]
        del session, peer
        assert [r() is None for r in refs] == [True, True, True]
    finally:
        gc.enable()


# -- the closed skeleton -----------------------------------------------------------

def _classify_every_unit(s):
    return [s.classify(u) for u in s.kb.unit_order]


def _chain_subsumptions(s):
    return [s.is_subsumed(Atom("u3", f"C{a}"), Atom("u3", f"C{b}"))
            for a in (1, 2, 3) for b in (1, 2, 3) if a != b]


def _run_tasks(make_kb, tasks):
    """Verdicts with the metrics after each task, the transcript, and
    whether every skeleton ended up holding its unit's internalization."""
    s = _session(make_kb())
    results = [(verdict, s.metrics_snapshot()) for verdict in tasks(s)]
    closed = all(s.kb.internalization(u) in p.skeleton.nodes[0].label
                 for u, p in s.peers.items())
    return results, s.log, closed


# every unit of the figures classified, both transitive ABoxes checked, and
# the chain's subsumptions
figure_tasks = pytest.mark.parametrize("make_kb, tasks", [
    (articles_linked_kb, _classify_every_unit),
    (articles_overlap_kb, _classify_every_unit),
    (conference_square_kb, _classify_every_unit),
    (conference_triangle_kb, _classify_every_unit),
    (lambda: transitive_abox_kb(None),
     lambda s: [s.check_consistency()]),
    (lambda: transitive_abox_kb(2), lambda s: [s.check_consistency()]),
    (chain_kb, _chain_subsumptions),
], ids=["linked", "overlap", "square", "triangle", "abox-consistent",
        "abox-inconsistent", "chain"])


@figure_tasks
def test_closed_skeleton_changes_no_verdict_metric_or_message(
        make_kb, tasks, monkeypatch):
    results, log, closed = _run_tasks(make_kb, tasks)
    monkeypatch.setattr(peer, "close_deterministic", lambda g: None)
    bare_results, bare_log, bare_closed = _run_tasks(make_kb, tasks)
    assert closed and not bare_closed
    assert results == bare_results
    assert log == bare_log


@figure_tasks
def test_plain_branch_order_gives_the_same_verdicts(make_kb, tasks,
                                                    monkeypatch):
    """Another order of the or rule's alternatives, the same verdicts."""
    verdicts = tasks(_session(make_kb()))
    monkeypatch.setattr(tableau, "disjunct_order",
                        lambda g, node, d: tableau.branch_order(d))
    assert tasks(_session(make_kb())) == verdicts


def test_fragment_covered_by_the_closed_skeleton_gets_the_same_answer(
        monkeypatch):
    """u2's b closes to (X, Y), so a served node holding u2:Y is blocked
    from the start and never receives u2's internalization, which it does
    receive on a bare copy before b's label grows.  The answers agree."""
    kb = load_kb(["(unit u1)",
                  "(unit u2)\n(concept X)\n(concept Y)\n(individual b)\n"
                  "(instance b X)\n(sub X Y)"])
    pkg = ProjectionPackage("u1-1", "u1", "u2", "u1", (
        Obligation(0, "u2", (Atom("u2", "Y"),), None),))
    copies = []
    expand = protocol.expand_to_completion

    def kept(g, *args, **kw):
        copies.append(g)
        return expand(g, *args, **kw)

    def serve():
        s = _session(kb)
        s.initialize()
        return s.peers["u2"].serve(pkg)

    monkeypatch.setattr(protocol, "expand_to_completion", kept)
    answer = serve()
    monkeypatch.setattr(peer, "close_deterministic", lambda g: None)
    assert serve() == answer
    ck = kb.internalization("u2")
    served = [g.nodes[2] for g in copies]
    assert [g.blocked(2) for g in copies] == ["direct", "direct"]
    assert [ck in n.label for n in served] == [False, True]
