"""Benchmark workloads: the KB documents, the tasks run on them, and the
verdict each task must give.

Every expected verdict comes from outside the tableau: the hand-written
taxonomies in kbs/expected.json, or the construction of the generated
families.  The seed fixes the random draws of the generators and the task
order of every pass only; it never changes what a verdict should be.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

KB_DIR = Path(__file__).resolve().parent / "kbs"

FIGURE_KBS = ("articles-linked", "articles-overlap", "conference-triangle",
              "conference-square", "reverse-cycle")

CHAIN_UNITS = 4
CHAIN_CONCEPTS = 3
ABOX_INDIVIDUALS = 10
ABOX_KBS = 8

DEFAULT_SEED = 1
_DEFAULT = f"default seed {DEFAULT_SEED}"

# name -> the one-line reason recorded in BENCHMARK.json, with the generator
# parameters and the default seed
WORKLOADS = {
    "figures-classify":
        "4 tests/figures.py KBs + reverse-cycle, 14 classify tasks/pass; "
        "links, punning, onto/into; time in local expansion and the n(n-1) "
        f"classify loop; {_DEFAULT}",
    "chain-subsumption":
        f"chain n={CHAIN_UNITS} units x k={CHAIN_CONCEPTS}, k(k-1) "
        "is_subsumed at u_n; every entailment crosses n-1 peers: packaging, "
        f"serving, retries, cache; {_DEFAULT}",
    "abox-consistency":
        f"{ABOX_KBS} two-unit ABoxes, m={ABOX_INDIVIDUALS} individuals, half "
        "inconsistent; rule rescans, snapshots, one wide named package; no "
        f"classify; {_DEFAULT}",
}


@dataclass(frozen=True)
class KbSpec:
    name: str
    units: tuple[str, ...]        # unit documents
    couplings: tuple[str, ...]    # coupling documents (JSON text)


@dataclass(frozen=True)
class Task:
    kb: str
    kind: str                     # "classify" | "subsumed" | "consistency"
    args: tuple
    expected: str                 # canonical verdict, see verdict_text

    @property
    def label(self) -> str:
        return f"{self.kb}:{self.kind}({','.join(self.args)})"


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    kbs: tuple[KbSpec, ...]
    tasks: tuple[Task, ...]       # canonical order

    def orders(self):
        """The task order of each pass: KBs in a seeded order, and the
        tasks of each KB in a seeded order.  Pass k of any run with the
        same seed gets the same order."""
        rng = random.Random(f"order:{self.seed}")
        names = [kb.name for kb in self.kbs]
        while True:
            rng.shuffle(names)
            order = []
            for name in names:
                group = [t for t in self.tasks if t.kb == name]
                rng.shuffle(group)
                order += group
            yield tuple(order)


def verdict_text(kind: str, value) -> str:
    """Canonical text of a verdict, as compared and hashed."""
    if kind == "classify":
        return ";".join(f"{a}<{b}" for a, b in sorted(value)) or "-"
    if kind == "subsumed":
        return "yes" if value else "no"
    return value


# -- figures-classify ------------------------------------------------------------

def _load_figure(name: str) -> KbSpec:
    folder = KB_DIR / name
    units = tuple(p.read_text(encoding="utf-8")
                  for p in sorted(folder.glob("*.unit")))
    couplings = tuple(p.read_text(encoding="utf-8")
                      for p in sorted(folder.glob("*.coupling.json")))
    return KbSpec(name, units, couplings)


def figures_classify(seed: int) -> Workload:
    expected = json.loads((KB_DIR / "expected.json").read_text(encoding="utf-8"))
    kbs = [_load_figure(name) for name in FIGURE_KBS]
    tasks = []
    for kb in kbs:
        for u in sorted(u for u in expected[kb.name] if not u.startswith("_")):
            pairs = [tuple(p) for p in expected[kb.name][u]]
            tasks.append(Task(kb.name, "classify", (u,),
                              verdict_text("classify", pairs)))
    return Workload("figures-classify", seed, tuple(kbs), tuple(tasks))


# -- chain-subsumption -----------------------------------------------------------

def chain_kb(n: int, k: int) -> KbSpec:
    """n units of k concepts.  (sub C{j+1} C{j}) holds in u1 only; unit u{i}
    maps u{i-1}:Cj onto and into its own Cj, so an entailment at u{n}
    crosses n-1 peers.  By construction Ca is below Cb iff a > b."""
    units, couplings = [], []
    for i in range(1, n + 1):
        lines = [f"(unit u{i})"] + [f"(concept C{j})" for j in range(1, k + 1)]
        if i == 1:
            lines += [f"(sub C{j + 1} C{j})" for j in range(1, k)]
        units.append("\n".join(lines) + "\n")
        if i > 1:
            rules = [{"kind": kind, "source": f"u{i - 1}:C{j}",
                      "target": f"u{i}:C{j}"}
                     for j in range(1, k + 1) for kind in ("onto", "into")]
            couplings.append(json.dumps({"unit": f"u{i}", "mappings": [
                {"source_unit": f"u{i - 1}", "bridge_rules": rules}]}))
    return KbSpec(f"chain{n}x{k}", tuple(units), tuple(couplings))


def chain_tasks(kb: KbSpec, n: int, k: int) -> list[Task]:
    return [Task(kb.name, "subsumed", (f"u{n}", f"C{a}", f"C{b}"),
                 verdict_text("subsumed", a > b))
            for a in range(1, k + 1) for b in range(1, k + 1) if a != b]


def chain_subsumption(seed: int) -> Workload:
    kb = chain_kb(CHAIN_UNITS, CHAIN_CONCEPTS)
    tasks = chain_tasks(kb, CHAIN_UNITS, CHAIN_CONCEPTS)
    return Workload("chain-subsumption", seed, (kb,), tuple(tasks))


# -- abox-consistency --------------------------------------------------------------

def abox_kb(name: str, m: int, transitive: bool, bad: int | None) -> KbSpec:
    """u1 chains a0..a{m-1} by r, each in (or A B), a0 also in
    (all r (or A B)); u2 has b0..b{m-1} in X with (sub X Y); u1 maps u2:Y
    into A and corresponds bi to ai.  Every ai is therefore in A, so giving
    a{bad} (not A) makes the KB inconsistent by construction; without it the
    KB is consistent (all ai in A, all bi in X and Y)."""
    u1 = ["(unit u1)", "(concept A)", "(concept B)", "(role r)"]
    u1 += [f"(individual a{i})" for i in range(m)]
    if transitive:
        u1.append("(transitive r)")
    for i in range(m):
        u1.append(f"(instance a{i} (or A B))")
        if i + 1 < m:
            u1.append(f"(related a{i} r a{i + 1})")
    u1.append("(instance a0 (all r (or A B)))")
    if bad is not None:
        u1.append(f"(instance a{bad} (not A))")
    u2 = ["(unit u2)", "(concept X)", "(concept Y)", "(sub X Y)"]
    u2 += [f"(individual b{i})" for i in range(m)]
    u2 += [f"(instance b{i} X)" for i in range(m)]
    coupling = {"unit": "u1", "mappings": [{
        "source_unit": "u2",
        "bridge_rules": [{"kind": "into", "source": "u2:Y", "target": "u1:A"}],
        "individual_correspondences": [
            {"foreign": f"u2:b{i}", "local": f"u1:a{i}"} for i in range(m)]}]}
    return KbSpec(name, ("\n".join(u1) + "\n", "\n".join(u2) + "\n"),
                  (json.dumps(coupling),))


def abox_consistency(seed: int) -> Workload:
    """ABOX_KBS KBs; odd ones declare r transitive.  A seeded half of each
    of the two groups is made inconsistent at a seeded individual, so every
    seed runs the same mix of shapes."""
    rng = random.Random(seed)
    groups = ([i for i in range(ABOX_KBS) if i % 2 == 0],
              [i for i in range(ABOX_KBS) if i % 2 == 1])
    inconsistent = set()
    for group in groups:
        inconsistent.update(rng.sample(group, len(group) // 2))
    kbs, tasks = [], []
    for i in range(ABOX_KBS):
        bad = rng.randrange(ABOX_INDIVIDUALS) if i in inconsistent else None
        name = f"abox{i}"
        kbs.append(abox_kb(name, ABOX_INDIVIDUALS, i % 2 == 1, bad))
        tasks.append(Task(name, "consistency", (),
                          "inconsistent" if bad is not None else "consistent"))
    return Workload("abox-consistency", seed, tuple(kbs), tuple(tasks))


GENERATORS = {
    "figures-classify": figures_classify,
    "chain-subsumption": chain_subsumption,
    "abox-consistency": abox_consistency,
}
