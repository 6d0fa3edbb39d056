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
