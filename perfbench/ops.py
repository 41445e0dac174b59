"""Workload definitions: op sequences, op bodies and output checks.

An op is one analysis request a designer's sweep script would make
through ``repro``'s public API.  Each workload issues its ops from
one client in one process, waiting for each result before sending
the next (a closed loop).

Op inputs come from the workload seed and the op index only.  Three
workloads draw their ops from fixed catalogs whose outputs were
recorded once (``digests.json``, written by ``record_digests.py``);
the seed picks the order in which a run walks each catalog, and a
run never revisits an entry.  ``sharded_yield`` draws its inputs
freely and checks every merged result against the in-process
single-shard computation instead.

Every call into a ``repro`` layer runs inside a tracer span named
``<layer>.<step>``, so the traced run can split op time by layer.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.analog.chain import chain_signoff_batch
from repro.digital import random_stimulus, soc_netlist
from repro.digital.generators import (array_multiplier, fir_filter,
                                      kogge_stone_adder, random_logic,
                                      ripple_adder)
from repro.digital.simulator_compiled import CompiledEventEngine
from repro.digital.ssta import StatisticalTimingAnalyzer
from repro.exec import (YIELD_METRICS, ExecResult, RetryPolicy,
                        YieldWorkload, run_sharded)
from repro.robust.errors import ExecBudgetError
from repro.substrate import SwanSimulator
from repro.synthesis.sizing import default_ota_spec, ota_synthesizer
from repro.technology import all_nodes, get_node
from repro.thermal import electrothermal_rth_sweep
from repro.variability.statistical import (MonteCarloSampler,
                                           monte_carlo_yield_batch)

NODES = [node.name for node in all_nodes()]

#: Float digests must agree to this relative tolerance; integer
#: digests (event counts, evaluation counts) must agree exactly.
DIGEST_RTOL = 1e-9

# --- catalogs ----------------------------------------------------------
#
# Each catalog is ordered by op size and has a power-of-two length.  A
# run walks it from the largest entry down in bit-reversed order, which
# spreads sizes evenly over any prefix of the run and puts the largest
# input (which sets peak memory) first, however many ops the run gets
# through.  The seed shifts the walk by one entry or none, so seeds
# send different inputs with nearly the same size mix.

#: Seeded shifts of a catalog walk: 0 or 1 entry.
MAX_SHIFT = 2


def _geo(low: float, high: float, j: int, n: int) -> float:
    return low * (high / low) ** (j / (n - 1))


def _catalogs() -> Dict[str, List[Dict[str, Any]]]:
    # 10k-40k gates, concentrated around the CLI default of 20k.
    soc = [{"gates": round(20_000 * 2.0 ** math.copysign(u * u, u)),
            "seed": j} for j, u in enumerate(np.linspace(-1.0, 1.0, 64))]
    rand = [{"gen": "random_logic", "size": round(_geo(200, 2000, j, 32)),
             "cycles": 40 - (20 * j) // 31, "seed": j} for j in range(32)]
    ripple = [{"gen": "ripple_adder", "size": 8 + round(56 * j / 31),
               "cycles": 40 - (20 * j) // 31, "seed": j} for j in range(32)]
    kogge = [{"gen": "kogge_stone_adder", "size": 8 + round(56 * j / 31),
              "cycles": 40 - (20 * j) // 31, "seed": j} for j in range(32)]
    mult = [{"gen": "array_multiplier", "size": 4 + (8 * j) // 31,
             "cycles": 40 - (20 * j) // 31, "seed": j} for j in range(32)]
    fir = [{"gen": "fir_filter", "size": 2 + (6 * j) // 31,
            "width": 4 + (4 * j) // 31, "cycles": 40 - (20 * j) // 31,
            "seed": j} for j in range(32)]
    chain = [{"node": NODES[j % len(NODES)],
              "dies": round(_geo(250, 2000, j, 64)), "seed": j}
             for j in range(64)]
    ota = [{"node": NODES[j % len(NODES)],
            "load_f": _geo(0.5e-12, 5e-12, j, 16), "seed": j}
           for j in range(16)]
    sweep = [{"rth_min": 0.5 + 0.1 * j, "rth_max": 100.0 + 10.0 * j,
              "points": 2000 + 125 * j} for j in range(16)]
    return {"soc": soc, "random_logic": rand, "ripple_adder": ripple,
            "kogge_stone_adder": kogge, "array_multiplier": mult,
            "fir_filter": fir, "chain": chain, "ota": ota,
            "sweep": sweep}


CATALOGS = _catalogs()

#: Op-kind rotation of each workload: op ``i`` has kind
#: ``PATTERNS[w][i % len]``; one pass through a pattern is a round.
PATTERNS: Dict[str, Tuple[str, ...]] = {
    "soc_noise": ("soc",),
    "logic_closure": ("random_logic", "ripple_adder", "kogge_stone_adder",
                      "array_multiplier", "fir_filter"),
    # Every 5th op is synthesis or an electrothermal sweep.  Eight chain
    # ops a round take one entry from each eighth of the catalog.
    "analog_signoff": ("chain", "chain", "chain", "chain", "ota",
                       "chain", "chain", "chain", "chain", "sweep"),
    # One op in eight has a trigger size (140k-200k dies), whose
    # 2-shard payload exceeds the 64 KiB pipe buffer of the process
    # backend; the other seven span 500-120k dies.
    "sharded_yield": ("yield",) * 7 + ("yield_big",),
}


#: Ops per second of measuring, at the commit that added the benchmark
#: on a 2-core x86 container.  ``--seconds`` times this rate, in whole
#: rounds, is the number of ops a run sends: both sides of a comparison
#: then do the same work, and a run lasts about ``--seconds`` there.
REFERENCE_RATES = {"soc_noise": 0.7, "logic_closure": 1.35,
                   "analog_signoff": 1.5, "sharded_yield": 4.8}


def op_count(workload: str, seconds: float) -> int:
    """Ops a run of ``seconds`` sends: at least one whole round."""
    round_length = len(PATTERNS[workload])
    rounds = round(seconds * REFERENCE_RATES[workload] / round_length)
    return max(rounds, 1) * round_length


def entry_key(entry: Dict[str, Any]) -> str:
    """Stable identity of a catalog entry (the digest file's key)."""
    return ",".join(f"{k}={entry[k]!r}" for k in sorted(entry))


def _radical_inverse(c: int) -> float:
    """Base-2 van der Corput point ``c`` in [0, 1)."""
    return int(format(c, "032b")[::-1], 2) / 2.0 ** 32


def _yield_entry(kind: str, c: int, i: int, seed: int,
                 shift: float) -> Dict[str, Any]:
    q = 1.0 - (_radical_inverse(c) + shift) % 1.0   # in (0, 1]
    if kind == "yield_big":
        dies = round(140_000 + 60_000 * q)
    else:
        dies = round(500 * 240 ** q)   # log-uniform, 500..120k
    metric = sorted(YIELD_METRICS)[i % len(YIELD_METRICS)]
    base = {"length-shift": 0.065, "tox-shift": 0.033,
            "vth-shift": 0.024}[metric]
    return {"node": NODES[c % len(NODES)], "metric": metric,
            "limit": round(base * (0.8 + 0.4 * q), 6), "dies": dies,
            "seed": int(np.random.SeedSequence([seed, i])
                        .generate_state(1)[0])}


def op_sequence(workload: str, seed: int
                ) -> Iterator[Tuple[int, str, Dict[str, Any]]]:
    """Yield ``(op index, kind, inputs)`` in the order a run sends them.

    Stops when a catalog kind is exhausted, so no op repeats an
    earlier op's inputs.
    """
    pattern = PATTERNS[workload]
    rng = np.random.default_rng(seed)
    kinds = sorted(set(pattern))
    shifts = {kind: int(rng.integers(MAX_SHIFT)) for kind in kinds}
    used = dict.fromkeys(kinds, 0)
    i = 0
    while True:
        kind = pattern[i % len(pattern)]
        c = used[kind]
        used[kind] += 1
        if kind.startswith("yield"):
            entry = _yield_entry(kind, c, i, seed, shifts[kind] / 64)
        else:
            catalog = CATALOGS[kind]
            if c >= len(catalog):
                return
            slot = int(_radical_inverse(c) * len(catalog)) + shifts[kind]
            entry = catalog[-1 - slot % len(catalog)]
        yield i, kind, entry
        i += 1


# --- op bodies -------------------------------------------------------
#
# Each returns the op's digest: the output values the checks compare.


def _soc(entry, tracer) -> Dict[str, Any]:
    node = get_node("65nm")
    frequency, cycles, blocks = 50e6, 10, 8
    with tracer.span("digital.netlist", gates=entry["gates"]):
        netlist = soc_netlist(node, target_gates=entry["gates"],
                              n_blocks=blocks, seed=entry["seed"])
    with tracer.span("digital.lower"):
        engine = CompiledEventEngine(netlist, clock_period=1.0 / frequency,
                                     event_budget=10_000_000)
    with tracer.span("digital.stimulus"):
        stimulus = random_stimulus(
            netlist, cycles, seed=entry["seed"],
            held_high=["en"] + [f"blk{b}_en" for b in range(blocks)])
    with tracer.span("digital.simulate") as span:
        trace = engine.run(stimulus, cycles)
        span["events"] = trace.n_events
    with tracer.span("substrate.swan_init"):
        swan = SwanSimulator(netlist, clock_frequency=frequency,
                             seed=entry["seed"])
    with tracer.span("substrate.stream", events=trace.n_events):
        wave = swan.stream_noise(trace, chunk_events=100_000)
    return {"events": trace.n_events, "rms_V": float(wave.rms),
            "p2p_V": float(wave.peak_to_peak)}


_GENERATORS = {
    "random_logic": lambda node, e: random_logic(node, n_gates=e["size"],
                                                 seed=e["seed"]),
    "ripple_adder": lambda node, e: ripple_adder(node, width=e["size"]),
    "kogge_stone_adder": lambda node, e: kogge_stone_adder(
        node, width=e["size"]),
    "array_multiplier": lambda node, e: array_multiplier(
        node, width=e["size"]),
    "fir_filter": lambda node, e: fir_filter(node, n_taps=e["size"],
                                             data_width=e["width"]),
}

SSTA_SAMPLES = 256


def _logic(entry, tracer) -> Dict[str, Any]:
    node = get_node("65nm")
    with tracer.span("digital.netlist"):
        netlist = _GENERATORS[entry["gen"]](node, entry)
    with tracer.span("digital.lower"):
        engine = CompiledEventEngine(netlist, clock_period=4e-9)
    with tracer.span("digital.stimulus"):
        stimulus = random_stimulus(netlist, entry["cycles"],
                                   seed=entry["seed"])
    with tracer.span("digital.simulate") as span:
        trace = engine.run(stimulus, entry["cycles"])
        span["events"] = trace.n_events
    with tracer.span("digital.ssta", samples=SSTA_SAMPLES):
        ssta = StatisticalTimingAnalyzer(netlist, seed=entry["seed"]).run(
            SSTA_SAMPLES)
    p50, p99 = np.quantile(ssta.samples, [0.5, 0.99])
    return {"events": trace.n_events, "gates": len(netlist.instances),
            "ssta_nominal_s": float(ssta.nominal_delay),
            "ssta_p50_s": float(p50), "ssta_p99_s": float(p99)}


def _chain(entry, tracer) -> Dict[str, Any]:
    with tracer.span("variability.sampler_init"):
        sampler = MonteCarloSampler(get_node(entry["node"]),
                                    seed=entry["seed"])
    with tracer.span("analog.chain", dies=entry["dies"]):
        signoff = chain_signoff_batch(sampler, n_dies=entry["dies"])
    return {"yield_fraction": float(np.mean(signoff.passed)),
            "enob_mean": float(np.mean(signoff.spectral.enob))}


def _ota(entry, tracer) -> Dict[str, Any]:
    with tracer.span("synthesis.ota") as span:
        result = ota_synthesizer(get_node(entry["node"]), entry["load_f"],
                                 default_ota_spec()).run(
            seed=entry["seed"], popsize=30, maxiter=60)
        span["evaluations"] = result.n_evaluations
    return {"cost": float(result.cost),
            "evaluations": int(result.n_evaluations),
            "feasible": bool(result.feasible)}


def _sweep(entry, tracer) -> Dict[str, Any]:
    nodes = all_nodes()
    rth = np.geomspace(entry["rth_min"], entry["rth_max"],
                       entry["points"])
    with tracer.span("thermal.sweep",
                     points=len(nodes) * entry["points"]) as span:
        rows = electrothermal_rth_sweep(nodes, rth)
        span["iterations"] = sum(int(r["n_iterations"]) for r in rows)
    tj = [float(r["junction_K"]) for r in rows]
    return {"tj_mean_K": float(np.mean(tj)), "tj_max_K": max(tj),
            "runaway": sum(bool(r["runaway"]) for r in rows)}


#: Shards per sharded op and the retry policy under which they run:
#: a finite timeout turns the process-backend pipe deadlock into a
#: counted failure instead of a hang.
N_SHARDS = 2
POLICY = RetryPolicy(max_retries=1, timeout_s=0.25, backoff_initial_s=0.05)

_FAILED_SHARD = re.compile(r"#(\d+) (\w+)")


def shard_accounting(result: Any = None,
                     error: Optional[ExecBudgetError] = None
                     ) -> Dict[str, int]:
    """Shard attempts, ok shards and timed-out shards of one op.

    A shard that never completed used every attempt of the policy;
    when no shard completed, ``run_sharded`` reports the shards only
    in its error message, so their last error types are read there.
    """
    if error is not None:
        failed = _FAILED_SHARD.findall(str(error))
        return {"attempts": POLICY.max_attempts * len(failed), "ok": 0,
                "timeouts": sum(kind == "ShardTimeoutError"
                                for _, kind in failed)}
    outcomes = result.outcomes
    return {"attempts": sum(o.attempts for o in outcomes),
            "ok": sum(o.ok for o in outcomes),
            "timeouts": sum(o.error_type == "ShardTimeoutError"
                            for o in outcomes)}


def sharded_yield(entry, tracer, backend: str = "process") -> Any:
    """One ``run_sharded`` call; returns the ExecResult or PartialResult
    (raises ``ExecBudgetError`` when no shard completed)."""
    with tracer.span("exec.run_sharded", dies=entry["dies"]) as span:
        try:
            workload = YieldWorkload(
                node_name=entry["node"], metric=entry["metric"],
                limit=entry["limit"], n_dies=entry["dies"],
                seed=entry["seed"])
            result = run_sharded(workload, n_shards=N_SHARDS,
                                 policy=POLICY, backend=backend)
        except ExecBudgetError as error:
            span.update(shard_accounting(error=error))
            raise
        span.update(shard_accounting(result))
    return result


OP_BODIES = {"soc": _soc, "chain": _chain, "ota": _ota, "sweep": _sweep,
             **{kind: _logic for kind in _GENERATORS}}


def check_digest(expected: Dict[str, Any], got: Dict[str, Any]) -> str:
    """Empty string when ``got`` matches ``expected``, else the reason."""
    if set(expected) != set(got):
        return f"digest fields {sorted(got)} != {sorted(expected)}"
    for field, want in expected.items():
        have = got[field]
        if isinstance(want, float):
            if not math.isclose(have, want, rel_tol=DIGEST_RTOL,
                                abs_tol=0.0):
                return f"{field}: {have!r} != recorded {want!r}"
        elif have != want:
            return f"{field}: {have!r} != recorded {want!r}"
    return ""


def check_yield(entry, result: ExecResult) -> str:
    """Merged ``n_pass`` must equal the in-process single-shard run."""
    reference = monte_carlo_yield_batch(
        MonteCarloSampler(get_node(entry["node"]), seed=entry["seed"]),
        YIELD_METRICS[entry["metric"]], entry["limit"],
        n_dies=entry["dies"])
    value = result.value
    if (value.n_samples, value.n_pass) != (entry["dies"],
                                          reference.n_pass):
        return (f"n_pass {value.n_pass}/{value.n_samples} != in-process "
                f"{reference.n_pass}/{entry['dies']}")
    return ""
