"""Performance benchmarks of the mixed-signal sign-off chain.

Acceptance gates:

* ``chain_signoff_batch`` at 32 dies (65 nm) is >= 2x faster than the
  per-die scalar path, with identical fixed-seed pass/fail vectors;
* ``SarAdc.convert`` from transition levels is >= 3x faster than the
  MSB-first bit loop (``tests/oracles/sar.py``) on the sign-off's
  4096-point ramp across 2000 dies, with identical codes.

As in the other perf benchmarks the speedups are asserted with our own
``perf_counter`` measurement so they also hold under
``--benchmark-disable`` (the CI mode); bit-level equivalence lives in
the tier-1 suite (``tests/analog/test_chain_batch.py``,
``tests/analog/test_sar_transition_levels.py``).
"""

import time

import numpy as np
import pytest

from conftest import record_bench
from repro.analog import ChainDesign, SignalChain, chain_signoff, \
    chain_signoff_batch
from repro.analog.chain import _draws_per_die, _midstep_ramp
from repro.technology import get_node
from repro.variability import MonteCarloSampler
from tests.oracles.sar import sar_convert_bitloop

N_DIES = 32
RAMP_DIES = 2000


def best_of(fn, repeats=3):
    """Best wall time of ``fn`` over ``repeats`` runs [s]."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def node():
    return get_node("65nm")


@pytest.mark.benchmark(group="perf_chain")
def test_batched_chain_signoff_speedup(benchmark, node):
    """Acceptance: batched sign-off >= 2x scalar at 32 dies."""

    def batched():
        return chain_signoff_batch(MonteCarloSampler(node, seed=1),
                                   n_dies=N_DIES)

    def scalar():
        sampler = MonteCarloSampler(node, seed=1)
        return [chain_signoff(node, die=sampler.sample_die())
                for _ in range(N_DIES)]

    result = benchmark(batched)
    oracle = scalar()
    np.testing.assert_array_equal(
        np.asarray(result.passed),
        np.array([r.passed for r in oracle]))
    np.testing.assert_allclose(
        np.asarray(result.spectral.enob),
        np.array([r.spectral.enob for r in oracle]), atol=1e-9)
    t_scalar = best_of(scalar, repeats=2)
    t_batch = best_of(batched, repeats=3)
    print(f"\nchain sign-off n_dies={N_DIES}: "
          f"scalar {t_scalar * 1e3:.1f} ms, "
          f"batched {t_batch * 1e3:.1f} ms, "
          f"speedup {t_scalar / t_batch:.1f}x")
    assert t_scalar / t_batch >= 2.0


@pytest.mark.benchmark(group="perf_chain")
def test_transition_level_convert_speedup(benchmark, node):
    """Acceptance: transition-level SAR convert >= 3x the bit loop."""
    sampler = MonteCarloSampler(node, seed=1)
    batch = sampler.sample_dies_batch(RAMP_DIES)
    draws = np.stack([child.standard_normal(_draws_per_die(8))
                      for child in sampler.rng.spawn(RAMP_DIES)])
    adc = SignalChain._from_draws(node, ChainDesign(), batch.vth_global,
                                  draws).adc
    ramp = _midstep_ramp(8, 16)

    codes = benchmark(adc.convert, ramp)
    np.testing.assert_array_equal(codes, sar_convert_bitloop(adc, ramp))
    t_loop = best_of(lambda: sar_convert_bitloop(adc, ramp), repeats=2)
    t_levels = best_of(lambda: adc.convert(ramp), repeats=3)
    speedup = t_loop / t_levels
    print(f"\nSAR convert {RAMP_DIES} dies x {ramp.size} points: "
          f"bit loop {t_loop * 1e3:.1f} ms, "
          f"transition levels {t_levels * 1e3:.1f} ms, "
          f"speedup {speedup:.1f}x")
    record_bench("analog.sar_convert", {
        "n_dies": RAMP_DIES, "n_points": int(ramp.size), "seed": 1,
        "bit_loop_s": t_loop, "transition_levels_s": t_levels,
        "speedup": speedup, "gate": 3.0, "identical_codes": True,
    })
    assert speedup >= 3.0
