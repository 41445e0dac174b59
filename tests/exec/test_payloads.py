"""The packed pass/fail wire format of the yield-style workloads.

A pass/fail vector travels (pipe, shard cache, checkpoint) as
``np.packbits(passed, bitorder="little").tobytes().hex()``: one JSON
string at one bit per die.  Validation must reject every string the
packer could not have produced, and merging must rebuild the exact
boolean vector for any length and any shard plan.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exec import (ChainSignoffWorkload, ExecResult,
                        ShardCheckpoint, YieldWorkload, plan_shards,
                        poison_payload, run_key, run_sharded)
from repro.perf import clear_caches
from repro.robust import PoisonedResultError


def pack(passed):
    """The documented wire format, written out independently."""
    return np.packbits(np.asarray(passed, dtype=bool),
                       bitorder="little").tobytes().hex()


def yield_payload(passed, start=0):
    passed = np.asarray(passed, dtype=bool)
    return {"start": start, "stop": start + passed.size,
            "n_pass": int(passed.sum()), "passed": pack(passed)}


def chain_payload(passed, start=0):
    size = len(passed)
    return {"start": start, "stop": start + size,
            "passed": pack(passed), "enob": [7.5] * size,
            "dnl_max": [0.1] * size, "inl_max": [0.2] * size}


YIELD = YieldWorkload(node_name="65nm", metric="vth-shift",
                      limit=0.03, n_dies=40, seed=7)
CHAIN = ChainSignoffWorkload(node_name="65nm", n_dies=8, seed=3)


@given(passed=st.integers(min_value=1, max_value=300).flatmap(
           lambda n: st.lists(st.booleans(), min_size=n, max_size=n)),
       n_shards=st.integers(min_value=1, max_value=3))
@settings(max_examples=80, deadline=None)
def test_pack_validate_merge_round_trip(passed, n_shards):
    passed = np.asarray(passed, dtype=bool)
    shards = plan_shards(passed.size, min(n_shards, passed.size))
    yields, chains = [], []
    for shard in shards:
        part = passed[shard.start:shard.stop]
        yields.append(yield_payload(part, shard.start))
        chains.append(chain_payload(part, shard.start))
        YIELD.validate_payload(yields[-1], shard.start, shard.stop)
        CHAIN.validate_payload(chains[-1], shard.start, shard.stop)
        counts = (int(part.sum()), int(part.size))
        assert YIELD.pass_counts(yields[-1]) == counts
        assert CHAIN.pass_counts(chains[-1]) == counts
    merged = YIELD.merge(yields)
    assert merged.passed.dtype == bool
    assert np.array_equal(merged.passed, passed)
    assert merged.n_pass == int(passed.sum())
    assert CHAIN.merge(chains)["yield_fraction"] \
        == int(passed.sum()) / passed.size


def test_run_shard_emits_the_documented_format():
    payload = YIELD.run_shard(3, 16)
    assert set(payload) == {"start", "stop", "n_pass", "passed"}
    assert isinstance(payload["passed"], str)
    passed = np.unpackbits(
        np.frombuffer(bytes.fromhex(payload["passed"]), np.uint8),
        count=13, bitorder="little").astype(bool)
    assert payload["passed"] == pack(passed)
    assert payload["n_pass"] == int(passed.sum())


GOOD = [True, False, True, True, False]   # 5 dies: 3 padding bits


@pytest.mark.parametrize("field, value", [
    ("passed", GOOD),                   # the old list-of-bools format
    ("passed", 13),                     # not a string
    ("passed", ""),                     # too short
    ("passed", "0d00"),                 # too long
    ("passed", "zz"),                   # not hex
    ("passed", " d"),                   # whitespace is not a byte
    ("passed", "2d"),                   # padding bit 5 set
    ("passed", "8d"),                   # padding bit 7 set
    ("n_pass", "3"),                    # not an int
    ("n_pass", 3.0),
    ("n_pass", True),                   # bool is not a count
    ("n_pass", 2),                      # disagrees with the popcount
    ("n_pass", 4),
])
def test_yield_validation_rejects(field, value):
    payload = yield_payload(GOOD)
    assert payload == {"start": 0, "stop": 5, "n_pass": 3,
                       "passed": "0d"}
    YIELD.validate_payload(payload, 0, 5)
    payload[field] = value
    with pytest.raises(PoisonedResultError):
        YIELD.validate_payload(payload, 0, 5)


def test_yield_validation_requires_n_pass():
    payload = yield_payload(GOOD)
    del payload["n_pass"]
    with pytest.raises(PoisonedResultError):
        YIELD.validate_payload(payload, 0, 5)


@pytest.mark.parametrize("value", [GOOD, "0d00", "zz", "2d"])
def test_chain_validation_rejects_bad_packing(value):
    payload = chain_payload(GOOD)
    CHAIN.validate_payload(payload, 0, 5)
    payload["passed"] = value
    with pytest.raises(PoisonedResultError):
        CHAIN.validate_payload(payload, 0, 5)


@pytest.mark.parametrize("size", [1, 8, 9, 40])
def test_poisoned_packed_payload_is_rejected(size):
    payload = YIELD.run_shard(0, size)
    with pytest.raises(PoisonedResultError):
        YIELD.validate_payload(poison_payload(payload), 0, size)


def test_list_format_checkpoint_is_rerun(tmp_path):
    """Checkpoints written before the packed format are re-run as
    poisoned, never loaded, and the resumed run equals a fresh one."""
    clear_caches()
    path = str(tmp_path / "ck.json")
    store = ShardCheckpoint(path)
    key = run_key(YIELD.name, list(YIELD.key()), 2)
    for shard in plan_shards(YIELD.n_dies, 2):
        fresh = YIELD.run_shard(shard.start, shard.stop)
        old = np.unpackbits(
            np.frombuffer(bytes.fromhex(fresh["passed"]), np.uint8),
            count=shard.size, bitorder="little").astype(bool)
        store.store(key, shard.start, shard.stop,
                    {"start": shard.start, "stop": shard.stop,
                     "passed": [bool(ok) for ok in old]})
    resumed = run_sharded(YIELD, n_shards=2, checkpoint=path,
                          resume=True, env_chaos=False,
                          use_cache=False)
    fresh = run_sharded(YIELD, n_shards=2, env_chaos=False,
                        use_cache=False)
    clear_caches()
    assert isinstance(resumed, ExecResult)
    assert all(o.source == "worker" for o in resumed.outcomes)
    assert np.array_equal(resumed.value.passed, fresh.value.passed)
    assert resumed.value.n_pass == fresh.value.n_pass
    # The re-run replaced the stale entries with packed ones.
    rerun = ShardCheckpoint(path).shard_payload(key, 0, 20)
    assert isinstance(rerun["passed"], str)
