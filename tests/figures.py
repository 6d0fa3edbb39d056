"""Shared KB fixtures: the small conference/article networks used across
the test suite, built through the document formats so loading is exercised
everywhere."""

from ontomesh.io import load_kb


def articles_linked_kb():
    """Two units coupled by a pure link relation: articles in unit u1 are
    presented at conferences in unit u2.  Implies that every specialised
    article kind falls under Article."""
    u1 = """
(unit u1)
(concept Article)
(concept MedicalArticle)
(concept MathArticle)
(concept CSArticle)
(equiv Article (all presentedAt u2:Conference))
(sub MedicalArticle (all presentedAt u2:MedicalConference))
(sub MathArticle (all presentedAt u2:MathConference))
(sub CSArticle (all presentedAt u2:CSConference))
"""
    u2 = """
(unit u2)
(concept Conference)
(concept MedicalConference)
(concept MathConference)
(concept CSConference)
(sub MedicalConference Conference)
(sub MathConference Conference)
(sub CSConference Conference)
"""
    c1 = {"unit": "u1",
          "links": [{"name": "presentedAt", "target_unit": "u2"}]}
    return load_kb([u1, u2], [c1])


def articles_overlap_kb():
    """Variant with overlapping domains: MathConference lives in u1 itself,
    presentedAt puns as a u1-role and a u1-u2 link, and u1 subjectively
    holds that u2:Conference covers its MathConference instances."""
    u1 = """
(unit u1)
(concept Article)
(concept MedicalArticle)
(concept MathArticle)
(concept CSArticle)
(concept MathConference)
(role presentedAt)
(equiv Article (all presentedAt u2:Conference))
(sub MedicalArticle (all presentedAt u2:MedicalConference))
(sub MathArticle (all presentedAt MathConference))
(sub CSArticle (all presentedAt u2:CSConference))
"""
    u2 = """
(unit u2)
(concept Conference)
(concept MedicalConference)
(concept CSConference)
(sub MedicalConference Conference)
(sub CSConference Conference)
"""
    c1 = {"unit": "u1",
          "mappings": [{"source_unit": "u2", "bridge_rules": [
              {"kind": "onto", "source": "u2:Conference",
               "target": "u1:MathConference"}]}],
          "links": [{"name": "presentedAt", "target_unit": "u2"}]}
    return load_kb([u1, u2], [c1])


def conference_triangle_kb():
    """Three units coupled by correspondences only.  u3 subjectively maps
    u2:MedicalConference onto its PediatricConference and u4:Event into its
    HumanActivity; u2 maps u4:Event onto Conference.  Entails, from u3's
    point of view, PediatricConference below HumanActivity."""
    u2 = """
(unit u2)
(concept Conference)
(concept MedicalConference)
(sub MedicalConference Conference)
"""
    u3 = """
(unit u3)
(concept PediatricConference)
(concept HumanActivity)
"""
    u4 = """
(unit u4)
(concept Event)
"""
    c3 = {"unit": "u3",
          "mappings": [
              {"source_unit": "u2", "bridge_rules": [
                  {"kind": "onto", "source": "u2:MedicalConference",
                   "target": "u3:PediatricConference"}]},
              {"source_unit": "u4", "bridge_rules": [
                  {"kind": "into", "source": "u4:Event",
                   "target": "u3:HumanActivity"}]}]}
    c2 = {"unit": "u2",
          "mappings": [{"source_unit": "u4", "bridge_rules": [
              {"kind": "onto", "source": "u4:Event",
               "target": "u2:Conference"}]}]}
    return load_kb([u2, u3, u4], [c3, c2])


def conference_square_kb():
    """Four units: articles (u1), conferences (u2), activities (u3) and
    events (u4), coupled by correspondences plus a punned presentedAt.
    Entails MedicalArticle below Article in u1 and PediatricConference
    below HumanActivity in u3."""
    u1 = """
(unit u1)
(concept Article)
(concept MedicalArticle)
(concept MedicalConference)
(role presentedAt)
(sub MedicalArticle (all presentedAt MedicalConference))
(equiv Article (all presentedAt u4:Event))
"""
    u2 = """
(unit u2)
(concept Conference)
"""
    u3 = """
(unit u3)
(concept PediatricConference)
(concept HumanActivity)
(concept PublishedMaterial)
"""
    u4 = """
(unit u4)
(concept Event)
"""
    c1 = {"unit": "u1",
          "mappings": [{"source_unit": "u2", "bridge_rules": [
              {"kind": "onto", "source": "u2:Conference",
               "target": "u1:MedicalConference"}]}],
          "links": [{"name": "presentedAt", "target_unit": "u4"}]}
    c2 = {"unit": "u2",
          "mappings": [{"source_unit": "u4", "bridge_rules": [
              {"kind": "onto", "source": "u4:Event",
               "target": "u2:Conference"}]}]}
    c3 = {"unit": "u3",
          "mappings": [
              {"source_unit": "u1", "bridge_rules": [
                  {"kind": "onto", "source": "u1:MedicalConference",
                   "target": "u3:PediatricConference"},
                  {"kind": "into", "source": "u1:Article",
                   "target": "u3:PublishedMaterial"}]},
              {"source_unit": "u4", "bridge_rules": [
                  {"kind": "into", "source": "u4:Event",
                   "target": "u3:HumanActivity"}]}]}
    return load_kb([u1, u2, u3, u4], [c1, c2, c3])


def transitive_abox_kb(bad: int | None, m: int = 4,
                       hedge: int | None = None):
    """a0..a{m-1} chained by the transitive role r, each in (or A B); u2:Y
    maps into u1:A and every b{i} in u2:X, below Y, corresponds to a{i}.
    So every a{i} is in A, and a{bad} in (not A) makes the KB
    inconsistent.  a{hedge}, if given, is also in (or (not u2:X) u2:Y),
    whose first disjunct its correspondent refutes through a projection."""
    u1 = ["(unit u1)", "(concept A)", "(concept B)", "(role r)",
          "(transitive r)"]
    u1 += [f"(individual a{i})" for i in range(m)]
    for i in range(m):
        u1.append(f"(instance a{i} (or A B))")
        if i + 1 < m:
            u1.append(f"(related a{i} r a{i + 1})")
    u1.append("(instance a0 (all r (or A B)))")
    if bad is not None:
        u1.append(f"(instance a{bad} (not A))")
    if hedge is not None:
        u1.append(f"(instance a{hedge} (or (not u2:X) u2:Y))")
    u2 = ["(unit u2)", "(concept X)", "(concept Y)", "(sub X Y)"]
    u2 += [f"(individual b{i})" for i in range(m)]
    u2 += [f"(instance b{i} X)" for i in range(m)]
    coupling = {"unit": "u1", "mappings": [{
        "source_unit": "u2",
        "bridge_rules": [{"kind": "into", "source": "u2:Y", "target": "u1:A"}],
        "individual_correspondences": [
            {"foreign": f"u2:b{i}", "local": f"u1:a{i}"} for i in range(m)]}]}
    return load_kb(["\n".join(u1), "\n".join(u2)], [coupling])


def chain_kb(n: int = 3, k: int = 3):
    """n units of k concepts.  (sub C{j+1} C{j}) holds in u1 only, and unit
    u{i} maps u{i-1}:Cj onto and into its own Cj, so C{a} is below C{b} in
    every unit iff a > b, and an entailment at u{n} crosses n-1 peers."""
    units, couplings = [], []
    for i in range(1, n + 1):
        lines = [f"(unit u{i})"] + [f"(concept C{j})" for j in range(1, k + 1)]
        if i == 1:
            lines += [f"(sub C{j + 1} C{j})" for j in range(1, k)]
        units.append("\n".join(lines))
        if i > 1:
            couplings.append({"unit": f"u{i}", "mappings": [{
                "source_unit": f"u{i - 1}", "bridge_rules": [
                    {"kind": kind, "source": f"u{i - 1}:C{j}",
                     "target": f"u{i}:C{j}"}
                    for j in range(1, k + 1) for kind in ("onto", "into")]}]})
    return load_kb(units, couplings)
