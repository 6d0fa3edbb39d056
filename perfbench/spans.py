"""Per-layer tracing from outside the program.

The tracer patches wrappers around the public functions of each ontomesh
module, at the place where each name is looked up, and records one span per
call: name, start, end, parent span and the task id of the top-level call.
Spans stay in memory; layer metrics are derived from them after each pass
and the spans are written out when the run ends.  A layer's self time is
its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

import ontomesh.io
import ontomesh.peer
import ontomesh.protocol
import ontomesh.tableau
from ontomesh.model import DistributedKB, subconcepts
from ontomesh.peer import LoopbackRouter, LoopbackSession, Peer
from ontomesh.protocol import ProjectionCache
from ontomesh.tableau import CompletionGraph

# per-layer metric -> (unit, better, the end-to-end metric it should move,
# the workloads it should move on).  BENCHMARK.json lists the same metrics.
LAYER_METRICS = {
    "io.parse_s": ("s/pass", "lower", "setup_s", "all, largest on abox-consistency"),
    "model.build_s": ("s/pass", "lower", "setup_s", "all"),
    "model.validate_s": ("s/pass", "lower", "setup_s", "all"),
    "model.internalization_size": ("count/pass", "lower", "wall_s via branch points", "chain-subsumption"),
    "peer.init_s": ("s/pass", "lower", "setup_s", "abox-consistency"),
    "peer.sat_tests": ("count/pass", "lower", "wall_s", "figures-classify, no change on abox-consistency"),
    "peer.taxonomy_s": ("s/pass", "lower", "wall_s", "figures-classify"),
    "peer.serves": ("count/pass", "lower", "packages_sent", "chain-subsumption"),
    "peer.provisional": ("count/pass", "lower", "packages_sent", "chain-subsumption"),
    "tableau.expand_s": ("s/pass", "lower", "wall_s, task_ms", "figures-classify, abox-consistency"),
    "tableau.expand_calls": ("count/pass", "lower", "wall_s, task_ms", "figures-classify, abox-consistency"),
    "tableau.branch_points": ("count/pass", "lower", "wall_s", "chain-subsumption"),
    "tableau.backtracks": ("count/pass", "lower", "wall_s", "abox-consistency, chain-subsumption"),
    "tableau.restore_s": ("s/pass", "lower", "wall_s", "abox-consistency, chain-subsumption"),
    "tableau.snapshots": ("count/pass", "lower", "wall_s, peak_rss_mb", "abox-consistency"),
    "tableau.snapshot_nodes": ("count/pass", "lower", "wall_s, peak_rss_mb", "abox-consistency"),
    "tableau.snapshot_s": ("s/pass", "lower", "wall_s, peak_rss_mb", "abox-consistency"),
    "tableau.clones": ("count/pass", "lower", "wall_s", "chain-subsumption, abox-consistency"),
    "tableau.clone_nodes": ("count/pass", "lower", "wall_s", "chain-subsumption, abox-consistency"),
    "tableau.clone_s": ("s/pass", "lower", "wall_s", "chain-subsumption, abox-consistency"),
    "tableau.obligations": ("count/pass", "lower", "packages_sent", "chain-subsumption"),
    "protocol.packages": ("count/pass", "lower", "packages_sent", "chain-subsumption"),
    "protocol.items": ("count/pass", "lower", "packages_sent", "chain-subsumption"),
    "protocol.cache_lookups": ("count/pass", "lower", "packages_sent, task_ms.p50", "chain-subsumption"),
    "protocol.cache_hits": ("count/pass", "higher", "packages_sent, task_ms.p50", "chain-subsumption"),
    "protocol.cache_hit_ratio": ("ratio", "higher", "packages_sent, task_ms.p50", "chain-subsumption"),
    "protocol.doom_hits": ("count/pass", "higher", "wall_s", "chain-subsumption"),
    "protocol.serves": ("count/pass", "lower", "wall_s", "chain-subsumption"),
    "protocol.serve_s": ("s/pass", "lower", "wall_s", "chain-subsumption"),
    "protocol.serve_retries": ("count/pass", "lower", "wall_s", "chain-subsumption, abox-consistency (inconsistent KBs)"),
    "protocol.hook_s": ("s/pass", "lower", "wall_s", "chain-subsumption"),
    "protocol.skipped": ("count/pass", "higher", "packages_sent", "chain-subsumption"),
    "protocol.payload_bytes": ("bytes/pass", "lower", "packages_sent cost", "chain-subsumption, abox-consistency"),
    "trace.wall_s": ("s/pass", "lower", "wall_s of the traced passes", "all"),
    "trace.overhead_s": ("s/pass", "lower", "none: traced minus untraced wall_s of the same order, median", "all"),
}

# self-time metrics and the spans they sum
SELF_TIMES = {
    "io.parse_s": ("io.parse_unit", "io.parse_coupling"),
    "model.build_s": ("model.build",),
    "model.validate_s": ("model.validate",),
    "peer.init_s": ("peer.initialize",),
    "peer.taxonomy_s": ("peer.classify",),
    "tableau.expand_s": ("tableau.expand_local",),
    "tableau.restore_s": ("tableau.restore",),
    "tableau.snapshot_s": ("tableau.snapshot",),
    "tableau.clone_s": ("tableau.clone",),
    "protocol.serve_s": ("protocol.serve_package",),
    "protocol.hook_s": ("protocol.hook",),
}

# counts that must repeat exactly for a fixed seed
DETERMINISTIC = ("peer.sat_tests", "peer.serves", "peer.provisional",
                 "tableau.expand_calls", "tableau.branch_points",
                 "tableau.backtracks", "tableau.snapshots",
                 "tableau.snapshot_nodes", "tableau.clones",
                 "tableau.clone_nodes", "tableau.obligations",
                 "protocol.packages", "protocol.items",
                 "protocol.cache_lookups", "protocol.cache_hits",
                 "protocol.doom_hits", "protocol.serves",
                 "protocol.serve_retries", "protocol.skipped",
                 "protocol.payload_bytes", "model.internalization_size")


class Tracer:
    """Spans in flat lists: span i is (names[i], starts[i], ends[i],
    parents[i], tasks[i]); a parent of -1 marks a top-level span."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tasks: list = []
        self.stack: list[int] = []
        self.task = None
        self.counts: Counter = Counter()
        self.dispatched: list = []      # packages, encoded after the pass
        self._saved: list[tuple] = []

    # -- wrappers ----------------------------------------------------------------

    def _span(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            idx = len(tracer.names)
            tracer.names.append(name)
            tracer.parents.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.tasks.append(tracer.task)
            tracer.ends.append(0.0)
            tracer.stack.append(idx)
            tracer.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.ends[idx] = perf_counter()
                tracer.stack.pop()
            if after is not None:
                after(args, result, token)
            return result

        return wrapper

    def _count(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result, None)
            return result

        return wrapper

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, classmethod):
            setattr(owner, attr, classmethod(make(original.__func__)))
        else:
            setattr(owner, attr, make(original))

    def install(self):
        """Patch every wrapper in.  Peer.doom_oracle is bound onto the
        skeleton in adopt_holes, so sessions must be built afterwards."""
        c = self.counts

        def count(key, amount):
            def after(args, result, token):
                c[key] += amount(args, result)
            return after

        def span(name, before=None, after=None):
            return lambda fn: self._span(name, fn, before, after)

        def branch_growth(args, result, token):
            c["tableau.branch_points"] += args[0].branch_count - token

        def packaged(args, result, token):
            c["protocol.packages"] += len(result)
            c["protocol.items"] += sum(len(p.items) for p in result)

        def wrap_hook(fn):
            def projection_hook(*args, **kwargs):
                return self._span("protocol.hook", fn(*args, **kwargs))
            return projection_hook

        patches = [
            (ontomesh.io, "parse_unit", span("io.parse_unit")),
            (ontomesh.io, "parse_coupling", span("io.parse_coupling")),
            (DistributedKB, "build", span("model.build")),
            (DistributedKB, "validate", span("model.validate")),
            (LoopbackSession, "initialize", span("peer.initialize")),
            (LoopbackSession, "classify", span("peer.classify")),
            (LoopbackSession, "is_subsumed", span("peer.is_subsumed")),
            (LoopbackSession, "is_satisfiable", span("peer.is_satisfiable")),
            (LoopbackSession, "check_consistency",
             span("peer.check_consistency")),
            (Peer, "serve", span("peer.serve", after=count(
                "peer.provisional", lambda a, r: not r[1]))),
            (Peer, "projection_hook", wrap_hook),
            (Peer, "doom_oracle", lambda fn: self._count(fn, count(
                "protocol.doom_hits", lambda a, r: r is not None))),
            (ontomesh.tableau, "expand_local", span("tableau.expand_local")),
            (ontomesh.tableau, "collect_obligations", span(
                "tableau.collect_obligations",
                after=count("tableau.obligations", lambda a, r: len(r)))),
            (CompletionGraph, "snapshot", span(
                "tableau.snapshot",
                after=count("tableau.snapshot_nodes",
                            lambda a, r: len(a[0].nodes)))),
            (CompletionGraph, "restore", span("tableau.restore")),
            (CompletionGraph, "clone", span(
                "tableau.clone",
                after=count("tableau.clone_nodes",
                            lambda a, r: len(a[0].nodes)))),
            (ProjectionCache, "lookup", span(
                "protocol.cache_lookup",
                after=count("protocol.cache_hits",
                            lambda a, r: r is not None))),
            (LoopbackRouter, "dispatch", span(
                "protocol.dispatch", before=self.dispatched.append)),
            (LoopbackRouter, "notify_skip", span("protocol.notify_skip")),
            (ontomesh.peer, "build_packages", span(
                "protocol.build_packages", after=packaged)),
            (ontomesh.peer, "serve_package", span("protocol.serve_package")),
        ]
        for module in (ontomesh.peer, ontomesh.protocol):
            patches.append((module, "expand_to_completion", span(
                "tableau.expand_to_completion",
                before=lambda args: args[0].branch_count,
                after=branch_growth)))
        for owner, attr, make in patches:
            self._patch(owner, attr, make)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per-pass metrics -----------------------------------------------------------

    def mark(self) -> int:
        """Start of a pass: the index of its first span."""
        self.counts.clear()
        self.dispatched.clear()
        return len(self.names)

    def pass_metrics(self, first: int, kbs) -> dict[str, float]:
        """Layer metrics of the spans recorded since `first`, plus the
        counts gathered by the wrappers; computed outside any span."""
        n = len(self.names)
        names, parents = self.names, self.parents
        span_count = Counter(names[first:n])
        child_time = [0.0] * (n - first)
        for i in range(first, n):
            p = parents[i]
            if p >= first:
                child_time[p - first] += self.ends[i] - self.starts[i]
        self_time = Counter()
        for i in range(first, n):
            self_time[names[i]] += (self.ends[i] - self.starts[i]
                                    - child_time[i - first])
        # clones made directly by a serve beyond its first are retries
        clones_per_serve = Counter()
        for i in range(first, n):
            if names[i] != "tableau.clone":
                continue
            p = parents[i]
            while p >= first and names[p] != "protocol.serve_package":
                p = parents[p]
            if p >= first:
                clones_per_serve[p] += 1
        c = self.counts
        out = {metric: sum(self_time[s] for s in spans)
               for metric, spans in SELF_TIMES.items()}
        lookups = span_count["protocol.cache_lookup"]
        out.update({
            "model.internalization_size": sum(
                len(subconcepts(kb.internalization(u)))
                for kb in kbs for u in kb.unit_order),
            "peer.sat_tests": span_count["peer.is_satisfiable"],
            "peer.serves": span_count["peer.serve"],
            "peer.provisional": c["peer.provisional"],
            "tableau.expand_calls": span_count["tableau.expand_local"],
            "tableau.branch_points": c["tableau.branch_points"],
            "tableau.backtracks": span_count["tableau.restore"],
            "tableau.snapshots": span_count["tableau.snapshot"],
            "tableau.snapshot_nodes": c["tableau.snapshot_nodes"],
            "tableau.clones": span_count["tableau.clone"],
            "tableau.clone_nodes": c["tableau.clone_nodes"],
            "tableau.obligations": c["tableau.obligations"],
            "protocol.packages": c["protocol.packages"],
            "protocol.items": c["protocol.items"],
            "protocol.cache_lookups": lookups,
            "protocol.cache_hits": c["protocol.cache_hits"],
            "protocol.cache_hit_ratio": (c["protocol.cache_hits"] / lookups
                                         if lookups else 0.0),
            "protocol.doom_hits": c["protocol.doom_hits"],
            "protocol.serves": span_count["protocol.serve_package"],
            "protocol.serve_retries": sum(max(0, k - 1)
                                          for k in clones_per_serve.values()),
            "protocol.skipped": span_count["protocol.notify_skip"],
            "protocol.payload_bytes": sum(
                len(json.dumps(pkg.to_payload()))
                for _router, pkg, *_rest in self.dispatched),
        })
        return out

    def write(self, path):
        """All spans of the run as JSON: a name table and one
        [name, start, end, parent, task] row per span."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        rows = [[index[nm], s, e, p, t] for nm, s, e, p, t in zip(
            self.names, self.starts, self.ends, self.parents, self.tasks)]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows}, fh,
                      separators=(",", ":"))
