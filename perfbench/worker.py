"""Benchmark worker: runs one workload's ops in a single process.

Started by ``run.py`` with one JSON argument (workload, seed,
seconds, trace, trace_file).  Each finished op is reported at once
as a ``@perfbench {json}`` line on stdout, so ``run.py`` keeps every
completed op even if it has to stop the worker.

Untraced run (``trace`` false): the workload's ops for ``seconds``
(``ops.op_count``), one after another.

Traced run: one untimed op of each kind first, so one-time set-up
inside the libraries lands in no timed op.  Then each op of half that
count runs under the tracer and at once again untraced (and, for
``sharded_yield``, a third time on the serial executor).  The twins
see the same machine state, so their ratio isolates the tracing cost
on a host whose speed drifts.  The shard result cache is emptied
before each run of an op, so a twin never replays its sibling.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import sys
import time
from collections import Counter
from itertools import islice
from pathlib import Path
from typing import Any, Dict, List, Tuple

import ops
from repro.exec import SHARD_CACHE, PartialResult
from repro.perf import cache_stats, clear_caches
from repro.robust.errors import ExecBudgetError
from spans import NullTracer, Tracer, self_times

DIGESTS = Path(__file__).with_name("digests.json")

#: An in-process op that runs longer than this counts as failed.
OP_TIMEOUT_S = 60.0

#: Caches whose hit rates the traced run reports.
CACHES = ("technology.get_node", "injection.characterize_cell",
          "exec.shards")

Op = Tuple[int, str, Dict[str, Any]]


def emit(record: Dict[str, Any]) -> None:
    print("@perfbench " + json.dumps(record), flush=True)


def run_op(workload: str, op: Op, tracer, digests, backend: str
           ) -> Dict[str, Any]:
    """Run and time one op, then check its output outside the timing."""
    i, kind, entry = op
    status, detail, result = "ok", "", None
    # Start every op from the same heap state, so garbage left by the
    # previous op is not collected inside this op's timing.
    gc.collect()
    start = time.perf_counter()
    try:
        with tracer.span("op", op=i, kind=kind):
            if kind.startswith("yield"):
                result = ops.sharded_yield(entry, tracer, backend)
            else:
                result = ops.OP_BODIES[kind](entry, tracer)
    except ExecBudgetError as error:
        status, detail = "exec_budget", str(error)
    except Exception as error:  # an op failure is a counted outcome
        status, detail = "error", f"{type(error).__name__}: {error}"
    wall = time.perf_counter() - start
    if status == "ok":
        if isinstance(result, PartialResult):
            status, detail = "partial", result.summary()
        elif kind.startswith("yield"):
            detail = ops.check_yield(entry, result)
        else:
            expected = digests[workload].get(ops.entry_key(entry))
            detail = ("no recorded digest" if expected is None
                      else ops.check_digest(expected, result))
        if detail:
            status = "mismatch"
        elif wall > OP_TIMEOUT_S:
            status, detail = "timeout", f"op took {wall:.1f} s"
    return {"type": "op", "i": i, "kind": kind, "wall_s": wall,
            "status": status, "detail": detail[:300]}


def _cache_counts() -> Dict[str, Tuple[int, int]]:
    return {name: (s.hits, s.misses) for name, s in cache_stats().items()}


def _add_delta(total: Dict[str, List[int]], before, after) -> None:
    for cache, (hits, misses) in after.items():
        old_hits, old_misses = before.get(cache, (0, 0))
        row = total.setdefault(cache, [0, 0])
        row[0] += hits - old_hits
        row[1] += misses - old_misses


def warm_up(workload: str, seed: int, digests) -> None:
    """Run the first op of each kind, untimed and unreported.

    One-time lazy set-up inside the libraries then lands in no timed
    op, so the traced/untraced comparison sees only tracing.
    """
    kinds = set(ops.PATTERNS[workload])
    for op in ops.op_sequence(workload, seed):
        if op[1] in kinds:
            kinds.discard(op[1])
            run_op(workload, op, NullTracer(), digests, "process")
        if not kinds:
            return


def layer_metrics(spans, walls: Dict[str, List[float]], caches
                  ) -> Dict[str, float]:
    """Per-layer metrics of a traced run: per-op means and rates."""
    untraced, traced, serial = (walls["untraced"], walls["traced"],
                                walls["serial"])
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def mean_s(name):
        group = by_name.get(name, [])
        return (statistics.fmean(s["end"] - s["start"] for s in group)
                if group else 0.0)

    def mean_attr(name, attr):
        group = by_name.get(name, [])
        return (statistics.fmean(s["attrs"][attr] for s in group)
                if group else 0.0)

    def rate(name, attr):
        group = by_name.get(name, [])
        busy = sum(s["end"] - s["start"] for s in group)
        return sum(s["attrs"][attr] for s in group) / busy if busy else 0.0

    own = self_times(spans)
    ops_self = [own[s["id"]] for s in by_name.get("op", [])]
    shards = by_name.get("exec.run_sharded", [])
    attempts = sum(s["attrs"]["attempts"] for s in shards)
    metrics = {
        "digital.netlist_s": mean_s("digital.netlist"),
        "digital.lower_s": mean_s("digital.lower"),
        "digital.simulate_s": mean_s("digital.simulate"),
        "digital.events": mean_attr("digital.simulate", "events"),
        "digital.events_per_s": rate("digital.simulate", "events"),
        "digital.ssta_s": mean_s("digital.ssta"),
        "digital.ssta_samples_per_s": rate("digital.ssta", "samples"),
        "substrate.swan_init_s": mean_s("substrate.swan_init"),
        "substrate.stream_s": mean_s("substrate.stream"),
        "substrate.events_per_s": rate("substrate.stream", "events"),
        "variability.sampler_init_s": mean_s("variability.sampler_init"),
        "analog.chain_s": mean_s("analog.chain"),
        "analog.dies_per_s": rate("analog.chain", "dies"),
        "synthesis.ota_s": mean_s("synthesis.ota"),
        "synthesis.evaluations": mean_attr("synthesis.ota", "evaluations"),
        "thermal.sweep_s": mean_s("thermal.sweep"),
        "thermal.points_per_s": rate("thermal.sweep", "points"),
        "thermal.iterations": mean_attr("thermal.sweep", "iterations"),
        "exec.run_sharded_s": mean_s("exec.run_sharded"),
        "exec.overhead_s": (statistics.fmean(
            p - s for p, s in zip(untraced, serial)) if serial else 0.0),
        "exec.shard_attempts": mean_attr("exec.run_sharded", "attempts"),
        "exec.shard_ok_ratio": (sum(s["attrs"]["ok"] for s in shards)
                                / attempts if attempts else 0.0),
        "exec.timeouts": mean_attr("exec.run_sharded", "timeouts"),
        "op.self_s": statistics.fmean(ops_self) if ops_self else 0.0,
        "trace.overhead_ratio": sum(untraced) / sum(traced),
    }
    for cache in CACHES:
        hits, misses = caches.get(cache, (0, 0))
        metrics[f"perf.{cache}.hit_rate"] = (hits / (hits + misses)
                                             if hits + misses else 0.0)
    return metrics


def shard_report(spans) -> Dict[str, int]:
    """ShardOutcome totals over the traced sharded ops."""
    totals: Counter = Counter()
    for span in spans:
        if span["name"] == "exec.run_sharded":
            attrs = span["attrs"]
            totals["shards"] += ops.N_SHARDS
            totals["ok"] += attrs["ok"]
            totals["attempts"] += attrs["attempts"]
            totals["timed_out"] += attrs["timeouts"]
    return dict(totals)


def main(config: Dict[str, Any]) -> int:
    workload, seed = config["workload"], config["seed"]
    digests = json.loads(DIGESTS.read_text())
    tracer = Tracer() if config["trace"] else None
    if tracer is not None:
        warm_up(workload, seed, digests)
        clear_caches()  # the timed ops start as a fresh session would
    walls: Dict[str, List[float]] = {"untraced": [], "traced": [],
                                     "serial": []}
    caches: Dict[str, List[int]] = {}

    def send(op, name, op_tracer, backend="process"):
        record = run_op(workload, op, op_tracer, digests, backend)
        record["pass"] = name
        emit(record)
        walls[name].append(record["wall_s"])

    # A fixed op count, not a deadline, ends the run: a run's op mix
    # then does not depend on how fast the host happened to be.
    n_ops = ops.op_count(workload, config["seconds"])
    if tracer is not None:  # each op runs twice or three times
        n_ops = ops.op_count(workload, config["seconds"] / 2)
    for op in islice(ops.op_sequence(workload, seed), n_ops):
        before = _cache_counts()
        if tracer is None:
            send(op, "untraced", NullTracer())
            _add_delta(caches, before, _cache_counts())
            continue
        SHARD_CACHE.clear()
        send(op, "traced", tracer)
        _add_delta(caches, before, _cache_counts())
        SHARD_CACHE.clear()
        send(op, "untraced", NullTracer())
        if workload == "sharded_yield":
            SHARD_CACHE.clear()
            send(op, "serial", NullTracer(), backend="serial")
    emit({"type": "caches", "caches": caches})
    if tracer is not None:
        own = self_times(tracer.spans)
        layers: Counter = Counter()
        for span in tracer.spans:
            layer = span["name"].split(".")[0]
            layers["benchmark" if layer == "op" else layer] += own[span["id"]]
        report = {"layers": layer_metrics(tracer.spans, walls, caches),
                  "self_s": dict(layers), "shards": shard_report(tracer.spans)}
        Path(config["trace_file"]).write_text(json.dumps(
            {"workload": workload, "seed": seed, "spans": tracer.spans,
             **report}, indent=1))
        emit({"type": "trace", **report})
    emit({"type": "end",
          "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          "rss_children_kb": resource.getrusage(
              resource.RUSAGE_CHILDREN).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
