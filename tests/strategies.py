"""Hypothesis strategies for random concepts over one unit, shared by the
differential tests, and the audited verdict they compare."""

import dataclasses

from hypothesis import event, strategies as st

from ontomesh import tableau
from ontomesh.model import (
    AtLeast, AtMost, Atom, Exists, ForAll, Not, Property, make_and, make_or,
)
from ontomesh.peer import InconclusiveError, LoopbackSession, PeerConfig
from ontomesh.protocol import ProtocolError

NAMES = ("A", "B", "C")
ATOMS = st.sampled_from([Atom("u1", n) for n in NAMES])


def concepts(depth, atoms=ATOMS, role=Property("r", "u1", "u1"),
             numbers=False):
    """Concepts nested at most depth deep over atoms, their negations and
    one role; with numbers, at-least 1-2 and at-most 0-1 restrictions too."""
    literals = st.one_of(atoms, st.builds(Not, atoms))
    if depth == 0:
        return literals
    sub = concepts(depth - 1, atoms, role, numbers)
    unit = role.home
    options = [
        literals,
        st.builds(lambda l, r: make_and([l, r], unit), sub, sub),
        st.builds(lambda l, r: make_or([l, r], unit), sub, sub),
        st.builds(lambda f: Exists(role, f), sub),
        st.builds(lambda f: ForAll(role, f), sub),
    ]
    if numbers:
        options += [
            st.builds(lambda n, f: AtLeast(n, role, f), st.integers(1, 2), sub),
            st.builds(lambda n, f: AtMost(n, role, f), st.integers(0, 1), sub),
        ]
    return st.one_of(*options)


def verdict(kb, goal) -> bool:
    """The audited verdict on goal; False when the goal's unit is itself
    inconsistent."""
    try:
        return LoopbackSession(kb, PeerConfig(audit=True)).is_satisfiable(goal)
    except ProtocolError:
        return False


def budgeted_verdict(kb, goal, chronological=False, max_nodes=60,
                     max_branches=1000):
    """verdict() with smaller node and branch budgets, or None when one
    runs out: a budget must end in InconclusiveError, never in a verdict.

    With chronological, every clash is made to depend on every open branch
    point, so that backjumping takes the branch points one by one, newest
    first: chronological backtracking, as a reference for the verdict."""
    saved = tableau.MAX_NODES, tableau.MAX_BRANCHES, tableau._sweep
    sweep = tableau._sweep

    def every_branch_point(g, clash_memo):
        clash, keyed = sweep(g, clash_memo)
        if clash is not None:
            clash = dataclasses.replace(clash, deps=g.open_deps())
        return clash, keyed

    tableau.MAX_NODES, tableau.MAX_BRANCHES = max_nodes, max_branches
    if chronological:
        tableau._sweep = every_branch_point
    try:
        sat = verdict(kb, goal)
    except InconclusiveError:
        sat = None
    finally:
        tableau.MAX_NODES, tableau.MAX_BRANCHES, tableau._sweep = saved
    if not chronological:
        event(f"verdict {sat}")
    return sat
