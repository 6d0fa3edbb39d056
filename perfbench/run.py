"""The ontomesh benchmark: time to verdict on three task mixes.

One process, one thread, a closed loop: each task is called only after the
previous verdict is back.  A run repeats passes of its workload until
--seconds have gone by (and at least MIN_TASKS tasks ran).  A pass sets up a
fresh session per KB (load_kb, LoopbackSession, initialize), then runs the
workload's tasks in the pass's seeded order and checks every verdict
against its expected value.  Wrong verdicts and errors are counted and
listed, never fatal.

    python3 perfbench/run.py --workload chain-subsumption --seed 1 \\
        --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

With --trace 0 the run prints the end-to-end numbers (END_TO_END and
REPORTED).  With --trace 1 it runs every task order twice, untraced then
traced, and prints the per-layer metrics taken from wrappers installed
around ontomesh's public functions (see spans.py), plus the tracing
overhead.  --workload all runs every workload in its own process, untraced
and traced, and prints one row per workload.

The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics: the END_TO_END metrics with
--trace 0, the per-layer ones with --trace 1.  `failed` counts wrong
verdicts and errors.  `correct` is false when the run failed its own
checks: a pass whose verdicts differ from the first pass, or a traced pass
whose packages differ from the untraced pass of the same order.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_TASKS = 100          # so that ten task samples lie beyond the p90

# the end-to-end metrics of BENCHMARK.json: name -> (unit, definition)
END_TO_END = {
    "setup_s": ("s", "per pass: load_kb + LoopbackSession + initialize, "
                "summed over the pass's KBs; median over passes"),
    "wall_s": ("s", "per pass: first task call to last verdict; the "
               "fastest pass of the run"),
    "packages_sent": ("count/pass", "packages_sent from metrics_snapshot(), "
                      "read after each task, summed over the pass"),
    "peak_rss_mb": ("MB", "ru_maxrss of the process that ran the workload"),
}
# printed next to them, but not gated: on a host whose speed drifts by a
# fifth, ten runs of the latency percentiles spread by up to the largest
# bound a metric may have
REPORTED = {
    "task_ms.p50": ("ms", "median latency of one task over the run"),
    "task_ms.p90": ("ms", "90th percentile latency of one task over the run"),
    "failed_ratio": ("ratio", "(wrong verdicts + exceptions) / tasks"),
}
UNITS = {m: spec[0] for m, spec in {**END_TO_END, **REPORTED}.items()}


def run_task(session, task, atom):
    """The task's call into the public API; its result is read outside
    the timed region by verdict_of."""
    if task.kind == "classify":
        return session.classify(task.args[0])
    if task.kind == "subsumed":
        unit, sub, sup = task.args
        return session.is_subsumed(atom(unit, sub), atom(unit, sup))
    return session.check_consistency()[0]


def verdict_of(task, result) -> str:
    from workloads import verdict_text

    if task.kind == "classify":
        rep = {m: r for r, members in result.classes.items() for m in members}
        result = [(a, b) for a in rep for b in rep
                  if a != b and result.is_below(rep[a], rep[b])]
    return verdict_text(task.kind, result)


def run_pass(workload, order, tracer=None) -> dict:
    """One pass: set up every KB, then run the tasks in the given order."""
    from ontomesh.io import load_kb
    from ontomesh.model import Atom
    from ontomesh.peer import LoopbackSession

    first_span = tracer.mark() if tracer is not None else 0
    sessions = {}
    setup = 0.0
    for spec in workload.kbs:
        started = perf_counter()
        try:
            session = LoopbackSession(load_kb(list(spec.units),
                                              list(spec.couplings)))
            session.initialize()
        except Exception as exc:  # counted against each task of the KB
            session = exc
        setup += perf_counter() - started
        sessions[spec.name] = session

    latencies, packages, outcomes = [], [], []
    wall_start = perf_counter()
    for i, task in enumerate(order):
        session = sessions[task.kb]
        if tracer is not None:
            tracer.task = i
        started = perf_counter()
        try:
            if isinstance(session, Exception):
                raise session
            answer = run_task(session, task, Atom)
        except Exception as exc:
            answer = exc
        latencies.append(perf_counter() - started)
        got = (f"error:{type(answer).__name__}"
               if isinstance(answer, Exception) else verdict_of(task, answer))
        if tracer is not None:
            tracer.task = None
        sent = 0
        if not isinstance(session, Exception):
            sent = sum(d["packages_sent"]
                       for d in session.metrics_snapshot().values())
        packages.append(sent)
        outcomes.append((task.label, got, task.expected))
    wall = perf_counter() - wall_start

    digest = hashlib.sha256("\n".join(
        f"{label}={got}" for label, got, _ in sorted(outcomes)
    ).encode()).hexdigest()
    result = {
        "setup_s": setup,
        "wall_s": wall,
        "latencies": latencies,
        "packages": packages,
        "digest": digest,
        "wrong": [(label, got, want) for label, got, want in outcomes
                  if got != want],
        "layers": None,
    }
    if tracer is not None:
        kbs = [s.kb for s in sessions.values()
               if not isinstance(s, Exception)]
        result["layers"] = tracer.pass_metrics(first_span, kbs)
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Passes until the time is up.  With trace, each order runs untraced
    and then traced, so the overhead is measured on the same work in one
    process."""
    from workloads import GENERATORS

    workload = GENERATORS[name](seed)
    tracer = None
    if trace:
        from spans import Tracer
        tracer = Tracer()
    passes = []
    orders = workload.orders()
    deadline = perf_counter() + seconds
    while (perf_counter() < deadline
           or sum(len(p["latencies"]) for p in passes) < MIN_TASKS):
        order = next(orders)
        passes.append(run_pass(workload, order))
        passes[-1]["traced"] = False
        if trace:
            tracer.install()
            try:
                passes.append(run_pass(workload, order, tracer))
            finally:
                tracer.uninstall()
            passes[-1]["traced"] = True
    if tracer is not None:
        tracer.write(OUT / f"spans-{name}-seed{seed}.json")
    return summarize(workload, passes)


def summarize(workload, passes) -> dict:
    from spans import DETERMINISTIC

    problems = []
    ref = passes[0]
    for k, p in enumerate(passes):
        if p["digest"] != ref["digest"]:
            problems.append(f"pass {k} gave other verdicts than pass 0")
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    for k, (off, on) in enumerate(zip(untraced, traced)):
        if on["packages"] != off["packages"]:
            problems.append(f"order {k}: traced and untraced packages differ")
    counts = [{m: p["layers"][m] for m in DETERMINISTIC} for p in traced]

    latencies_ms = [x * 1000 for p in untraced for x in p["latencies"]]
    p90 = statistics.quantiles(latencies_ms, n=10, method="inclusive")[8]
    beyond = sum(1 for x in latencies_ms if x > p90)
    attempted = sum(len(p["latencies"]) for p in passes)
    failed = sum(len(p["wrong"]) for p in passes)
    wrong = sorted({w for p in passes for w in p["wrong"]})

    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in untraced),
        # every pass does the same work, and the host's speed drifts for
        # tens of seconds at a time: the fastest pass is the steadiest
        # estimate of the pass time across runs
        "wall_s": min(p["wall_s"] for p in untraced),
        "task_ms.p50": statistics.median(latencies_ms),
        "task_ms.p90": p90,
        "packages_sent": statistics.median(sum(p["packages"])
                                           for p in untraced),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_ratio": failed / attempted,
    }
    samples = {"setup_s": len(untraced), "wall_s": len(untraced),
               "task_ms.p50": len(latencies_ms),
               "task_ms.p90": len(latencies_ms),
               "packages_sent": len(untraced), "peak_rss_mb": 1,
               "failed_ratio": attempted}
    layers = None
    if traced:
        layers = {m: statistics.median(p["layers"][m] for p in traced)
                  for m in traced[0]["layers"]}
        layers["trace.wall_s"] = min(p["wall_s"] for p in traced)
        # each traced pass repeats the order of the untraced pass before it
        layers["trace.overhead_s"] = statistics.median(
            on["wall_s"] - off["wall_s"] for off, on in zip(untraced, traced))
    return {
        "workload": workload.name, "seed": workload.seed,
        "passes": len(passes), "traced_passes": len(traced),
        "attempted": attempted, "failed": failed,
        "wrong": wrong, "digest": ref["digest"],
        "packages": [p["packages"] for p in untraced],
        "counts": counts,
        "p90_beyond": beyond,
        "e2e": e2e, "samples": samples, "layers": layers,
        "problems": problems,
    }


def print_single(summary: dict, trace: bool):
    from spans import LAYER_METRICS

    s = summary
    print(f"workload {s['workload']} seed {s['seed']}: {s['passes']} passes "
          f"({s['traced_passes']} traced), {s['attempted']} tasks, "
          f"{s['failed']} failed")
    for label, got, want in s["wrong"]:
        print(f"  wrong verdict: {label} gave {got!r}, expected {want!r}")
    print(f"verdict digest {s['digest']}")
    if not trace and s["p90_beyond"] < 10:
        print(f"warning: only {s['p90_beyond']} task samples beyond the p90")
    for problem in s["problems"]:
        print(f"benchmark check failed: {problem}")
    print(f"{'metric':28} {'value':>14} {'unit':12} samples")
    if trace:
        for m, v in s["layers"].items():
            print(f"{m:28} {v:14.6g} {LAYER_METRICS[m][0]:12} "
                  f"{s['traced_passes']}")
    else:
        for m, v in s["e2e"].items():
            print(f"{m:28} {v:14.6g} {UNITS[m]:12} {s['samples'][m]}")
    print("summary " + json.dumps({k: s[k] for k in (
        "workload", "seed", "digest", "packages", "counts",
        "attempted", "failed", "samples", "e2e", "layers")}))
    if trace:
        metrics = {m: {"value": v, "unit": LAYER_METRICS[m][0]}
                   for m, v in s["layers"].items()}
    else:
        metrics = {m: {"value": s["e2e"][m], "unit": UNITS[m]}
                   for m in END_TO_END}
    print(json.dumps({
        "correct": not s["problems"],
        "attempted": s["attempted"],
        "failed": s["failed"],
        "metrics": metrics,
    }))


def run_all(seed: int, seconds: int) -> int:
    """Every workload in its own process, untraced then traced; one row per
    workload, and a cross-process check that both agree."""
    from spans import DETERMINISTIC, LAYER_METRICS
    from workloads import GENERATORS

    rows = {}
    for trace in (0, 1):
        for name in GENERATORS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stdout + proc.stderr)
                return 1
            for line in lines:
                if line.startswith(("  wrong verdict", "benchmark check")):
                    print(f"{name} trace={trace}: {line.strip()}")
            summary = json.loads(lines[-2].removeprefix("summary "))
            summary["correct"] = json.loads(lines[-1])["correct"]
            rows[name, trace] = summary

    ok = all(r["correct"] for r in rows.values())
    print("\nend-to-end, tracing off (value [samples])")
    print(f"{'workload':20}" + "".join(
        f"{m + ' ' + UNITS[m]:>27}" for m in UNITS))
    for name in GENERATORS:
        r = rows[name, 0]
        print(f"{name:20}" + "".join(
            f"{r['e2e'][m]:.5g} [{r['samples'][m]}]".rjust(27)
            for m in UNITS))

    print("\nper layer, traced run (median over traced passes)")
    print(f"{'metric':28} {'unit':11}" + "".join(
        f"{n:>20}" for n in GENERATORS))
    for m, spec in LAYER_METRICS.items():
        print(f"{m:28} {spec[0]:11}" + "".join(
            f"{rows[n, 1]['layers'][m]:20.6g}" for n in GENERATORS))
    for name in GENERATORS:
        off, on = rows[name, 0], rows[name, 1]
        print(f"tracing overhead {name}: "
              f"{on['layers']['trace.overhead_s']:+.4f} s/pass paired within "
              f"the traced run, "
              f"{on['layers']['trace.wall_s'] - off['e2e']['wall_s']:+.4f} "
              f"s/pass against the untraced run's wall_s")

    print("\nverdict check and determinism")
    for name in GENERATORS:
        off, on = rows[name, 0], rows[name, 1]
        same = (off["digest"] == on["digest"] and all(
            a == b for a, b in zip(off["packages"], on["packages"])))
        ok = ok and same
        print(f"{name:20} digest {off['digest'][:16]} failed "
              f"{off['failed']}/{off['attempted']}; traced run "
              f"{'agrees' if same else 'DISAGREES'}")
    print(f"deterministic counts: {', '.join(DETERMINISTIC)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="figures-classify, chain-subsumption, "
                             "abox-consistency or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ontomesh" / "__init__.py").is_file():
        sys.stderr.write(f"ontomesh sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import DEFAULT_SEED, GENERATORS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        return run_all(seed, args.seconds or 10)
    if args.workload not in GENERATORS:
        parser.error(f"unknown workload {args.workload!r}")
    seconds = 40 if args.seconds is None else args.seconds
    summary = run_workload(args.workload, seed, seconds, bool(args.trace))
    print_single(summary, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
