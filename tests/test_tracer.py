"""The benchmark's tracer still fits the package.

perfbench/spans.py patches wrappers around functions and methods of
ontomesh by name.  A rename or removal there makes `--trace 1` runs fail,
so this checks that every name it patches exists and is put back.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_every_name_and_restores_it():
    tracer = _load_spans().Tracer()
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
    that routes work around a patched name shows up here."""
    from figures import conference_triangle_kb
    from ontomesh.peer import LoopbackSession

    tracer = _load_spans().Tracer()
    tracer.install()
    try:
        session = LoopbackSession(conference_triangle_kb())
        session.check_consistency()
        first = tracer.mark()
        session.classify("u3")
        counts = tracer.pass_metrics(first, [session.kb])
    finally:
        tracer.uninstall()
    n = len(session.kb.units["u3"].concept_names)
    sent = sum(m["packages_sent"]
               for m in session.metrics_snapshot().values())
    assert counts["peer.sat_tests"] == n * (n - 1)
    assert sent > 0
    assert counts["protocol.cache_lookups"] - counts["protocol.cache_hits"] \
        == sent
    assert counts["protocol.serves"] == counts["peer.serves"] > 0
    assert counts["tableau.expand_calls"] > 0
