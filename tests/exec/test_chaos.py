"""The deterministic chaos harness."""

import math

import pytest

from repro.exec import (CHAOS_ENV_VAR, FAULT_KINDS, ChaosPlan,
                        ChaosSpec, RetryPolicy, chaos_from_env,
                        poison_payload)
from repro.robust import ModelDomainError


class TestChaosSpec:
    def test_rates_validated(self):
        with pytest.raises(ModelDomainError):
            ChaosSpec(seed=1, crash_rate=1.5)
        with pytest.raises(ModelDomainError):
            ChaosSpec(seed=1, crash_rate=float("nan"))
        with pytest.raises(ModelDomainError):
            ChaosSpec(seed=1, crash_rate=0.6, hang_rate=0.3,
                      poison_rate=0.3)
        with pytest.raises(ModelDomainError):
            ChaosSpec(seed=-1)

    def test_zero_rates_allowed(self):
        spec = ChaosSpec(seed=1, crash_rate=0.0, hang_rate=0.0,
                         poison_rate=0.0)
        assert spec.total_rate == 0.0


class TestSchedule:
    def test_pure_function_of_seed_shard_attempt(self):
        plan = ChaosPlan(ChaosSpec(seed=7, crash_rate=0.3,
                                   hang_rate=0.3, poison_rate=0.3))
        grid = [(s, a) for s in range(8) for a in range(4)]
        first = [plan.fault_for(s, a) for s, a in grid]
        # Query order must not matter: re-query reversed.
        second = [plan.fault_for(s, a) for s, a in reversed(grid)]
        assert first == list(reversed(second))
        assert any(fault is not None for fault in first)
        assert all(fault in FAULT_KINDS
                   for fault in first if fault is not None)

    def test_different_seeds_differ(self):
        spec = dict(crash_rate=0.3, hang_rate=0.3, poison_rate=0.3)
        a = ChaosPlan(ChaosSpec(seed=1, **spec))
        b = ChaosPlan(ChaosSpec(seed=2, **spec))
        grid = [(s, a_) for s in range(16) for a_ in range(4)]
        assert [a.fault_for(*g) for g in grid] \
            != [b.fault_for(*g) for g in grid]

    def test_recoverable_plan_spares_final_attempt(self):
        policy = RetryPolicy(max_retries=2, timeout_s=1.0)
        plan = ChaosPlan(ChaosSpec(seed=3, crash_rate=0.5,
                                   hang_rate=0.25, poison_rate=0.25),
                         policy=policy, recoverable=True)
        for shard in range(32):
            assert plan.fault_for(shard, policy.max_retries) is None

    def test_recoverable_plan_with_no_retries_injects_nothing(self):
        policy = RetryPolicy(max_retries=0)
        plan = ChaosPlan(ChaosSpec(seed=3, crash_rate=1.0,
                                   hang_rate=0.0, poison_rate=0.0),
                         policy=policy, recoverable=True)
        assert all(plan.fault_for(s, 0) is None for s in range(32))

    def test_recoverable_hang_remapped_without_timeout(self):
        spec = ChaosSpec(seed=5, crash_rate=0.0, hang_rate=1.0,
                         poison_rate=0.0)
        timed = ChaosPlan(spec, policy=RetryPolicy(
            max_retries=3, timeout_s=1.0), recoverable=True)
        untimed = ChaosPlan(spec, policy=RetryPolicy(
            max_retries=3), recoverable=True)
        assert timed.fault_for(0, 0) == "hang"
        assert untimed.fault_for(0, 0) == "crash"

    def test_recoverable_requires_policy(self):
        with pytest.raises(ModelDomainError):
            ChaosPlan(ChaosSpec(seed=1), recoverable=True)

    def test_bad_indices_are_typed(self):
        plan = ChaosPlan(ChaosSpec(seed=1))
        with pytest.raises(ModelDomainError):
            plan.fault_for(-1, 0)
        with pytest.raises(ModelDomainError):
            plan.fault_for(0, -1)


class TestChaosFromEnv:
    def test_absent_means_off(self):
        assert chaos_from_env(RetryPolicy(), environ={}) is None
        assert chaos_from_env(RetryPolicy(),
                              environ={CHAOS_ENV_VAR: ""}) is None

    def test_present_arms_recoverable_plan(self):
        plan = chaos_from_env(RetryPolicy(max_retries=2),
                              environ={CHAOS_ENV_VAR: "42"})
        assert plan is not None
        assert plan.recoverable
        assert plan.spec.seed == 42

    def test_malformed_is_typed(self):
        with pytest.raises(ModelDomainError):
            chaos_from_env(RetryPolicy(),
                           environ={CHAOS_ENV_VAR: "not-an-int"})
        with pytest.raises(ModelDomainError):
            chaos_from_env(RetryPolicy(),
                           environ={CHAOS_ENV_VAR: "-3"})


class TestPoison:
    def test_poisons_first_float_list_with_nan(self):
        payload = {"start": 0, "stop": 2, "samples": [1.0, 2.0]}
        poisoned = poison_payload(payload)
        assert math.isnan(poisoned["samples"][0])
        # original untouched
        assert payload["samples"][0] == 1.0

    def test_truncates_when_no_float_list(self):
        payload = {"passed": [True, False, True]}
        poisoned = poison_payload(payload)
        assert len(poisoned["passed"]) == 2

    def test_truncates_packed_string_when_no_list(self):
        payload = {"start": 0, "stop": 16, "n_pass": 4,
                   "passed": "0f00"}
        poisoned = poison_payload(payload)
        assert poisoned["passed"] == "0f"   # one byte shorter
        assert poisoned["n_pass"] == 4
        assert payload["passed"] == "0f00"

    def test_unpoisonable_payload_is_typed(self):
        with pytest.raises(ModelDomainError):
            poison_payload({"n": 3})
        with pytest.raises(ModelDomainError):
            poison_payload({"n": 3, "passed": "", "items": []})
        with pytest.raises(ModelDomainError):
            poison_payload([1.0])
