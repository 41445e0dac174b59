"""End-to-end benchmark of repro's analysis flows.

Run from the repository root::

    python3 perfbench/run.py --workload soc_noise --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                # every workload

Each workload is one client in one process sending analysis requests
(ops) through ``repro``'s public API and waiting for each result (a
closed loop).  ``--seconds`` sets the number of ops a run sends.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` is the separate traced run that reports the per-layer metrics.
Every op's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# The names of ``ops.PATTERNS``; this process does not import ``ops``,
# which needs ``repro``, so that it can fail cleanly without it.
WORKLOADS = ("soc_noise", "logic_closure", "analog_signoff", "sharded_yield")

#: The modules of each workload's entry points; importing them in a
#: fresh interpreter is the set-up a CLI user waits for.
ENTRY_MODULES = {
    "soc_noise": ("repro.technology", "repro.digital",
                  "repro.digital.simulator_compiled", "repro.substrate"),
    "logic_closure": ("repro.technology", "repro.digital.generators",
                      "repro.digital.simulator_compiled",
                      "repro.digital.ssta"),
    "analog_signoff": ("repro.technology", "repro.variability.statistical",
                       "repro.analog.chain", "repro.synthesis.sizing",
                       "repro.thermal"),
    "sharded_yield": ("repro.technology", "repro.exec",
                      "repro.variability.statistical"),
}

COLD_STARTS = 3
IMPORTTIME_STARTS = 3
IMPORT_PACKAGES = ("numpy", "scipy", "networkx", "repro")

#: Wall-clock allowance of one worker, so a run always ends well
#: inside three minutes even if an op never returns.
WORKER_BUDGET_S = 150.0

END_TO_END = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s",
              "ops_per_s": "1/s", "peak_rss_mb": "MB",
              "ok_rate": "fraction"}

PER_LAYER = {
    **{f"import.{p}_s": "s" for p in IMPORT_PACKAGES},
    "digital.netlist_s": "s", "digital.lower_s": "s",
    "digital.simulate_s": "s", "digital.events": "count",
    "digital.events_per_s": "1/s", "digital.ssta_s": "s",
    "digital.ssta_samples_per_s": "1/s",
    "substrate.swan_init_s": "s", "substrate.stream_s": "s",
    "substrate.events_per_s": "1/s",
    "variability.sampler_init_s": "s", "analog.chain_s": "s",
    "analog.dies_per_s": "1/s",
    "synthesis.ota_s": "s", "synthesis.evaluations": "count",
    "thermal.sweep_s": "s", "thermal.points_per_s": "1/s",
    "thermal.iterations": "count",
    "exec.run_sharded_s": "s", "exec.overhead_s": "s",
    "exec.shard_attempts": "count", "exec.shard_ok_ratio": "fraction",
    "exec.timeouts": "count",
    "perf.technology.get_node.hit_rate": "fraction",
    "perf.injection.characterize_cell.hit_rate": "fraction",
    "perf.exec.shards.hit_rate": "fraction",
    "op.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: Metrics the end-to-end set was specified with that the JSON result
#: leaves out, and why.
DROPPED = {
    "error_rate": "can read 0, which the benchmark contract forbids for a "
                  "gated metric; reported here and as failed/attempted, "
                  "and gated as ok_rate = 1 - error_rate",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_CHAOS_SEED", None)  # no injected faults
    return env


def _import_code(workload: str) -> str:
    return ("import " + ", ".join(ENTRY_MODULES[workload])
            + "\nimport sys\nsys.stdout.write('ready\\n')\nsys.stdout.flush()")


def cold_start(workload: str, env) -> float:
    """Seconds from launching an interpreter until the imports finish."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", _import_code(workload)],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode:
        raise BenchError(f"cold start of {workload} failed "
                         f"(exit {proc.returncode})")
    return elapsed


def import_split(workload: str, env) -> Dict[str, float]:
    """Cumulative import seconds per package from ``-X importtime``.

    A package's time is the summed cumulative time of its outermost
    entries, i.e. of every import of it not already nested in it.
    """
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", _import_code(workload)],
        capture_output=True, env=env, cwd=ROOT, text=True, timeout=60)
    if proc.returncode:
        raise BenchError(f"-X importtime cold start of {workload} failed")
    entries = []
    for line in proc.stderr.splitlines():
        match = re.match(r"import time:\s*\d+ \|\s*(\d+) \|( +)(\S+)", line)
        if match:
            entries.append(((len(match.group(2)) - 1) // 2,
                            match.group(3), int(match.group(1))))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    stack: List[str] = []
    # Importtime prints children before parents; reversed, each entry's
    # ancestors are the open entries of lower depth.
    for depth, name, cumulative_us in reversed(entries):
        del stack[depth:]
        top = name.split(".")[0]
        if top in totals and all(a.split(".")[0] != top for a in stack):
            totals[top] += cumulative_us / 1e6
        stack.append(name)
    return totals


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               env) -> Tuple[List[Dict[str, Any]], List[str]]:
    """Run the worker; returns its records and any problems seen."""
    trace_file = ROOT / ".perfbench" / f"trace-{workload}-seed{seed}.json"
    trace_file.parent.mkdir(exist_ok=True)
    config = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "trace_file": str(trace_file)}
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(config)],
        stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        start_new_session=True)
    lines: "queue.Queue[Optional[str]]" = queue.Queue()

    def pump() -> None:
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    records: List[Dict[str, Any]] = []
    problems: List[str] = []
    deadline = time.perf_counter() + WORKER_BUDGET_S
    last = time.perf_counter()
    while True:
        try:
            line = lines.get(timeout=max(deadline - time.perf_counter(), 0))
        except queue.Empty:
            os.killpg(proc.pid, signal.SIGKILL)
            problems.append(f"worker stopped after {WORKER_BUDGET_S:.0f} s")
            break
        if line is None:
            break
        if line.startswith("@perfbench "):
            records.append(json.loads(line[len("@perfbench "):]))
            last = time.perf_counter()
    proc.wait()
    reader.join(10)
    if proc.returncode:
        problems.append(f"worker exited with {proc.returncode}")
    if problems and records and records[-1]["type"] == "op":
        # The op in flight when the worker stopped counts as failed.
        records.append({"type": "op", "pass": records[-1]["pass"],
                        "i": records[-1]["i"] + 1, "kind": "?",
                        "wall_s": time.perf_counter() - last,
                        "status": "killed", "detail": problems[-1]})
    return records, problems


def tail(walls: List[float]) -> Tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 ops
    beyond it; the fastest op when a run has 10 ops or fewer."""
    ordered = sorted(walls)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    env = child_env()
    if trace:
        splits = [import_split(workload, env)
                  for _ in range(IMPORTTIME_STARTS)]
    else:
        setups = [cold_start(workload, env) for _ in range(COLD_STARTS)]
    records, problems = run_worker(workload, seed, seconds, trace, env)
    op_records = [r for r in records if r["type"] == "op"]
    if not op_records:
        raise BenchError(f"{workload}: no op completed; "
                         + "; ".join(problems))
    failed = [r for r in op_records if r["status"] != "ok"]
    mismatched = [r for r in op_records if r["status"] == "mismatch"]
    caches = next((r["caches"] for r in records if r["type"] == "caches"),
                  {})
    replayed = caches.get("exec.shards", [0, 0])[0]
    untraced = [r["wall_s"] for r in op_records if r["pass"] == "untraced"]
    result = {"workload": workload, "seed": seed, "records": op_records,
              "failed": failed, "problems": problems,
              "correct": not mismatched and not replayed,
              "caches": caches}
    if replayed:
        problems.append("exec.shards cache replayed a shard")
    if trace:
        found = [r for r in records if r["type"] == "trace"]
        if not found:
            raise BenchError(f"{workload}: traced run produced no report; "
                             + "; ".join(problems))
        layers = dict(found[0]["layers"])
        for package in IMPORT_PACKAGES:
            layers[f"import.{package}_s"] = statistics.median(
                s[package] for s in splits)
        result.update(metrics={name: layers[name] for name in PER_LAYER},
                      units=PER_LAYER, self_s=found[0]["self_s"],
                      shards=found[0]["shards"])
        return result
    end = [r for r in records if r["type"] == "end"]
    rss_kb = (end[0]["rss_self_kb"] + end[0]["rss_children_kb"]
              if end else 0)
    tail_value, tail_pct = tail(untraced)
    result.update(
        metrics={"setup_s": statistics.median(setups),
                 "op_p50_s": statistics.median(untraced),
                 "op_tail_s": tail_value,
                 "ops_per_s": len(untraced) / sum(untraced),
                 "peak_rss_mb": rss_kb / 1024.0,
                 "ok_rate": 1.0 - len(failed) / len(untraced)},
        units=END_TO_END, tail_pct=tail_pct, n_ops=len(untraced))
    return result


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines for one workload (stdout, before the JSON)."""
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"(closed loop, 1 client)")
    for name, value in result["metrics"].items():
        note = ""
        if name == "op_tail_s":
            note = (f"   p{result['tail_pct']:.1f} of {result['n_ops']} "
                    f"ops (highest percentile with >= 10 ops beyond)")
        elif name == "setup_s":
            note = f"   median of {COLD_STARTS} cold starts"
        print(f"  {name:<44} {value:>14.6g} {result['units'][name]}{note}")
    ops_total = len(result["records"])
    print(f"  {'error_rate':<44} {len(result['failed']) / ops_total:>14.6g}"
          f" fraction   ({len(result['failed'])} of {ops_total} ops failed)")
    if "self_s" in result:
        traced = sum(r["wall_s"] for r in result["records"]
                     if r["pass"] == "traced")
        print("  layer self time over the traced ops:")
        for layer, own in sorted(result["self_s"].items(),
                                 key=lambda item: -item[1]):
            print(f"    {layer:<14} {own:10.4f} s  "
                  f"{100.0 * own / traced:5.1f} %")
        if result["shards"]:
            print(f"  shard outcomes: {result['shards']}")
        print(f"  cache (hits, misses) added by the traced ops: "
              f"{result['caches']}")
    for name, why in DROPPED.items():
        print(f"  not in the JSON metrics: {name}: {why}")
    kinds = Counter((r["kind"], r["status"]) for r in result["failed"])
    for (kind, status), count in sorted(kinds.items()):
        detail = next(r["detail"] for r in result["failed"]
                      if (r["kind"], r["status"]) == (kind, status))
        print(f"  failed: {count} x {kind} {status}: {detail[:160]}")
    for problem in result["problems"]:
        print(f"  problem: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="work per run: the ops the workload sends in "
                             "this many seconds at its reference rate")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}; run from the "
              f"repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [measure(name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    metrics = {}
    for result in results:
        report(result)
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, value in result["metrics"].items():
            metrics[prefix + name] = {"value": value,
                                      "unit": result["units"][name]}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(len(r["records"]) for r in results),
        "failed": sum(len(r["failed"]) for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
