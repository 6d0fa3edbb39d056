"""Absorption of atomic-left GCIs (lazy unfolding) against the plain
internalization: the same KB with each atomic left side A written as
(and A top) keeps every GCI a disjunction, so both forms must give the
same verdicts."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ontomesh.model import Atom, DistributedKB, Top, UnitKB, make_and, nnf
from ontomesh.oracle import oracle_satisfiable
from ontomesh.peer import LoopbackSession

from figures import (
    articles_linked_kb, articles_overlap_kb, conference_square_kb,
    conference_triangle_kb,
)
from strategies import ATOMS, NAMES, concepts, verdict


def unabsorbed(kb: DistributedKB) -> DistributedKB:
    """kb with each atomic left side A of a GCI written (and A top)."""
    units = {}
    for u, ukb in kb.units.items():
        gcis = [(make_and([nnf(lhs), Top(u)], u)
                 if isinstance(nnf(lhs), Atom) else lhs, rhs)
                for lhs, rhs in ukb.gcis]
        units[u] = dataclasses.replace(ukb, gcis=gcis)
    out = DistributedKB.build(units, kb.couplings)
    for u, ukb in out.units.items():
        assert not any(isinstance(nnf(lhs), Atom) for lhs, _ in ukb.gcis)
        assert out.absorbed(u) == {}
    return out


@pytest.mark.parametrize("make_kb", [
    articles_linked_kb, articles_overlap_kb, conference_triangle_kb,
    conference_square_kb,
])
def test_classify_same_with_and_without_absorption(make_kb):
    kb = make_kb()
    plain = unabsorbed(kb)
    assert any(kb.absorbed(u) for u in kb.unit_order)
    for u in kb.unit_order:
        assert LoopbackSession(kb).classify(u) \
            == LoopbackSession(plain).classify(u)


# -- differential: random single-unit TBoxes -------------------------------------

# at most three GCIs over three atoms.  Even so, a few random draws in a
# thousand run for minutes in either form: backjumping skips the choices a
# clash does not rest on, but some TBoxes still make every choice matter
# (see CHANGES.md), so the examples are derandomized
_GCIS = st.lists(st.tuples(st.one_of(ATOMS, concepts(1)), concepts(2)),
                 min_size=1, max_size=3)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_GCIS, concepts(1))
def test_absorption_differential(gcis, goal):
    """The tableau gives the same verdict with and without absorption, and a
    model within bound 2 makes it say satisfiable."""
    kb = DistributedKB.build({"u1": UnitKB(
        unit="u1", concept_names=set(NAMES), role_names={"r"}, gcis=gcis)})
    sat = verdict(kb, goal)
    assert sat == verdict(unabsorbed(kb), goal)
    assert sat or not oracle_satisfiable(kb, goal, domain_bound=2)
