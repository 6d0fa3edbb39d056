"""Self-test of the benchmark, outside the Tier-1 suite:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_selftest.py

It checks the generated families' ground truth against the brute-force
oracle at tiny sizes, the hand-written taxonomies against the KB documents,
BENCHMARK.json against the metric tables, and that counts and verdicts
repeat across processes.  The oracle is never called inside a timed run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from ontomesh.io import load_kb  # noqa: E402
from ontomesh.model import And, Atom, neg  # noqa: E402
from ontomesh.oracle import oracle_satisfiable  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _load(spec):
    return load_kb(list(spec.units), list(spec.couplings))


def test_chain_ground_truth_matches_oracle():
    spec = workloads.chain_kb(2, 2)
    kb = _load(spec)
    tasks = workloads.chain_tasks(spec, 2, 2)
    assert len(tasks) == 2
    for task in tasks:
        unit, sub, sup = task.args
        goal = And(Atom(unit, sub), neg(Atom(unit, sup)), unit)
        satisfiable = oracle_satisfiable(kb, goal, domain_bound=2)
        assert task.expected == ("no" if satisfiable else "yes"), task.label


@pytest.mark.parametrize("bad", [None, 1])
def test_abox_ground_truth_matches_oracle(bad):
    kb = _load(workloads.abox_kb("tiny", 2, False, bad))
    assert oracle_satisfiable(kb, None, domain_bound=2) is (bad is None)


def test_abox_mix_is_half_inconsistent():
    for seed in range(5):
        wl = workloads.abox_consistency(seed)
        verdicts = [t.expected for t in wl.tasks]
        assert verdicts.count("inconsistent") == workloads.ABOX_KBS // 2


def test_expected_taxonomies_name_declared_concepts():
    wl = workloads.figures_classify(0)
    assert len(wl.tasks) == 14
    kbs = {spec.name: _load(spec) for spec in wl.kbs}
    for task in wl.tasks:
        names = kbs[task.kb].units[task.args[0]].concept_names
        if task.expected != "-":
            for pair in task.expected.split(";"):
                assert set(pair.split("<")) <= names, task.label


def test_orders_repeat_for_a_seed_and_keep_every_task():
    wl = workloads.chain_subsumption(7)
    first = [next(wl.orders()) for _ in range(2)]
    assert first[0] == first[1]
    orders = wl.orders()
    for _ in range(5):
        assert sorted(next(orders), key=lambda t: t.label) == \
            sorted(wl.tasks, key=lambda t: t.label)


def test_benchmark_json_matches_metric_tables():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in bench["workloads"]} == \
        workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {m: spec[0] for m, spec in run.END_TO_END.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == {m: spec[:2] for m, spec in spans.LAYER_METRICS.items()}


def _summary(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload",
         "chain-subsumption", "--seed", "5", "--seconds", "0",
         "--trace", "1"],
        capture_output=True, text=True, env=env, timeout=300, check=True)
    lines = proc.stdout.splitlines()
    assert json.loads(lines[-1])["correct"] is True
    return json.loads(lines[-2].removeprefix("summary "))


def test_counts_and_verdicts_repeat_across_processes():
    a, b = _summary("1"), _summary("2")
    assert a["digest"] == b["digest"]
    assert a["packages"] == b["packages"]
    assert a["counts"] == b["counts"]
