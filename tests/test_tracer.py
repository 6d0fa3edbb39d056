"""The benchmark's tracer still fits the package, and its counts hold.

perfbench/spans.py patches wrappers around functions and methods of
ontomesh by name.  A rename or removal there makes `--trace 1` runs fail,
so this checks that every name it patches exists and is put back.  A
golden traced pass per workload pins the verdicts and every count that
must repeat for a fixed seed, so a refactor that claims to keep them is
checked here.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch=None):
    """A perfbench module, read from its file without touching sys.path.
    With monkeypatch it is also importable by name for the test's length,
    as its dataclasses and other perfbench modules need."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:
        monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it():
    tracer = _load("spans").Tracer()
    try:
        tracer.install()  # KeyError when a patched name is gone
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original
    finally:
        tracer.uninstall()
    assert not tracer._saved
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original


def test_tracer_counts_the_work_of_a_classify():
    """The tracer's counts see the calls that do the work, so a change
    that routes work around a patched name shows up here.  articles-linked
    u1 has 4 names; its told subsumers and the models of its satisfiable
    tests leave 7 of the 12 ordered pairs to test."""
    from figures import articles_linked_kb
    from ontomesh.peer import LoopbackSession

    tracer = _load("spans").Tracer()
    tracer.install()
    try:
        session = LoopbackSession(articles_linked_kb())
        session.check_consistency()
        first = tracer.mark()
        session.classify("u1")
        counts = tracer.pass_metrics(first, [session.kb])
    finally:
        tracer.uninstall()
    sent = sum(m["packages_sent"]
               for m in session.metrics_snapshot().values())
    assert counts["peer.sat_tests"] == 7
    assert sent > 0
    assert counts["protocol.cache_lookups"] - counts["protocol.cache_hits"] \
        == sent
    assert counts["protocol.serves"] == counts["peer.serves"] > 0
    assert counts["tableau.expand_calls"] > 0


# one traced pass of the first seed-7 order of each workload: its verdict
# digest, the packages sent per task, and every spans.DETERMINISTIC count,
# each tuple in GOLDEN_WORKLOADS order
GOLDEN_SEED = 7
GOLDEN_WORKLOADS = ("figures-classify", "chain-subsumption", "abox-consistency")
GOLDEN_DIGESTS = (
    "55c0ced95542fb6d64fd16dacbf8a4ef5ae6e823a43cf6186e63218a3601ff9b",
    "78ba8ab41b3146da0b1f2d47b6edf664dfcca6dc0d9906f7ff3f52bcab60c863",
    "fdd50146412cde8aa6a6f32c9f2c948a5f577ae23fcc435711dd943c2125de55",
)
GOLDEN_PACKAGES = (
    [0, 1, 1, 0, 3, 1, 0, 1, 0, 3, 4, 0, 4, 0],
    [6, 3, 3, 3, 3, 0],
    [0, 1, 0, 0, 0, 1, 1, 1],
)
GOLDEN_COUNTS = {
    "peer.sat_tests": (38, 6, 0),
    "peer.serves": (19, 21, 4),
    "peer.provisional": (0, 0, 0),
    "tableau.expand_calls": (107, 79, 36),
    "tableau.branch_points": (123, 286, 176),
    "tableau.backtracks": (19, 55, 4),
    "tableau.snapshots": (104, 231, 172),
    "tableau.snapshot_nodes": (149, 465, 1892),
    "tableau.clones": (71, 47, 16),
    "tableau.clone_nodes": (71, 47, 176),
    "tableau.obligations": (28, 40, 4),
    "protocol.packages": (27, 28, 4),
    "protocol.items": (28, 40, 4),
    "protocol.cache_lookups": (24, 28, 4),
    "protocol.cache_hits": (5, 7, 0),
    "protocol.doom_hits": (1, 7, 0),
    "protocol.serves": (19, 21, 4),
    "protocol.serve_retries": (0, 16, 0),
    "protocol.skipped": (3, 0, 0),
    "protocol.payload_bytes": (3045, 4475, 568),
    "model.internalization_size": (61, 70, 32),
}


@pytest.mark.parametrize("k, name", enumerate(GOLDEN_WORKLOADS),
                         ids=GOLDEN_WORKLOADS)
def test_golden_traced_pass_at_seed_7(k, name, monkeypatch):
    spans = _load("spans")
    workloads = _load("workloads", monkeypatch)
    run = _load("run")
    workload = workloads.GENERATORS[name](GOLDEN_SEED)
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run.run_pass(workload, next(workload.orders()), tracer)
    finally:
        tracer.uninstall()
    assert result["wrong"] == []
    assert result["digest"] == GOLDEN_DIGESTS[k]
    assert result["packages"] == GOLDEN_PACKAGES[k]
    assert set(GOLDEN_COUNTS) == set(spans.DETERMINISTIC)
    assert {m: result["layers"][m] for m in spans.DETERMINISTIC} == {
        m: counts[k] for m, counts in GOLDEN_COUNTS.items()}
