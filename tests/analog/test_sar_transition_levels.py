"""SAR conversion from transition levels against the bit-loop reference.

``SarAdc.convert`` answers each input with one ``searchsorted`` over
the die's sorted transition levels, and ``SarAdc.ramp_counts`` builds
the ramp histogram without converting the ramp at all.  Both must
equal the MSB-first bit loop in ``tests/oracles/sar.py`` exactly: on
comparator ties, shorted legs, missing codes, out-of-range inputs and
nonzero offsets, for one die and for a batch.  The invariant tests at
the end check properties no second implementation shares.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analog import (ChainDesign, R2rDac, SarAdc, SignalChain,
                          chain_signoff_batch, count_linearity,
                          histogram_linearity, histogram_linearity_batch,
                          spectral_metrics, spectral_metrics_batch,
                          transfer_linearity, transfer_linearity_batch)
from repro.analog.chain import _draws_per_die, _midstep_ramp, _sine_codes
from repro.robust import ReproError
from repro.technology import get_node
from repro.variability import MonteCarloSampler
from tests.oracles.sar import sar_convert_bitloop, sar_tree_thresholds


@st.composite
def weight_arrays(draw, n_bits, shape):
    """Non-negative leg weights around ``2**i``, some legs zeroed.

    ``integer`` rounds them to whole units, so distinct tree paths
    land on equal thresholds (ties between comparisons).
    """
    seed = draw(st.integers(0, 2 ** 32 - 1))
    sigma = draw(st.sampled_from([0.0, 0.01, 0.1, 0.5]))
    rng = np.random.default_rng(seed)
    weights = 2.0 ** np.arange(n_bits) * np.abs(
        1.0 + sigma * rng.standard_normal(shape + (n_bits,)))
    if draw(st.booleans()):
        weights = np.round(weights)
    shorted = draw(st.lists(st.integers(0, n_bits - 1), max_size=2))
    weights[..., shorted] = 0.0
    return weights


@st.composite
def sar_adcs(draw, batched=None):
    """A random SAR ADC: 1-D weights, or ``(n_dies, n_bits)``."""
    n_bits = draw(st.integers(2, 8))
    if batched is None:
        batched = draw(st.booleans())
    shape = (draw(st.integers(1, 4)),) if batched else ()
    weights = draw(weight_arrays(n_bits, shape))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    termination = np.abs(1.0 + 0.2 * rng.standard_normal(shape)) + 1e-3
    offset_kind = draw(st.sampled_from(["zero", "random", "dyadic"]))
    if offset_kind == "zero":
        offset = np.zeros(shape)
    elif offset_kind == "random":
        offset = 0.05 * rng.standard_normal(shape)
    else:
        offset = rng.integers(-4, 5, size=shape) / 2.0 ** n_bits
    if not batched:
        termination, offset = float(termination), float(offset)
    return SarAdc(n_bits=n_bits, weights=weights,
                  termination=termination, offset=offset)


def probe_inputs(adc, seed):
    """Inputs that hit every hard case, sorted, shared by all dies.

    Random points inside and far outside [0, 1], the infinities, the
    dyadic grid (exact ideal thresholds), and for every die every tree
    threshold minus the offset plus its float neighbours.
    """
    rng = np.random.default_rng(seed)
    thresholds = sar_tree_thresholds(adc)
    held_ties = thresholds - np.asarray(adc.offset, dtype=float)[
        ..., None]
    parts = [
        rng.uniform(-0.25, 1.25, 64),
        np.array([-np.inf, -1e9, -1.0, 2.0, 1e9, np.inf]),
        np.arange(2 ** (adc.n_bits + 1) + 1) / 2.0 ** (adc.n_bits + 1),
        held_ties.ravel(), np.nextafter(held_ties, -np.inf).ravel(),
        np.nextafter(held_ties, np.inf).ravel(), thresholds.ravel(),
    ]
    return np.sort(np.concatenate(parts))


def oracle_counts(adc, values):
    """Per-die ``np.bincount`` of the bit loop's codes."""
    codes = sar_convert_bitloop(adc, values)
    rows = codes.reshape(-1, codes.shape[-1])
    counts = np.stack([np.bincount(row, minlength=2 ** adc.n_bits)
                       for row in rows])
    return counts.reshape(codes.shape[:-1] + (2 ** adc.n_bits,))


class TestExactAgainstBitLoop:
    @settings(max_examples=80, deadline=None)
    @given(adc=sar_adcs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_convert_equals_bit_loop(self, adc, seed):
        values = probe_inputs(adc, seed)
        np.testing.assert_array_equal(
            adc.convert(values), sar_convert_bitloop(adc, values))

    @settings(max_examples=40, deadline=None)
    @given(adc=sar_adcs(batched=True), seed=st.integers(0, 2 ** 32 - 1))
    def test_per_die_inputs_equal_bit_loop(self, adc, seed):
        """``(n_dies, n_points)`` inputs, unsorted, one row per die."""
        rng = np.random.default_rng(seed)
        values = probe_inputs(adc, seed)
        rows = np.stack([rng.permutation(values)
                         for _ in range(len(adc.weights))])
        np.testing.assert_array_equal(
            adc.convert(rows), sar_convert_bitloop(adc, rows))

    @settings(max_examples=80, deadline=None)
    @given(adc=sar_adcs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_ramp_counts_equal_bincount_of_bit_loop(self, adc, seed):
        values = probe_inputs(adc, seed)
        np.testing.assert_array_equal(adc.ramp_counts(values),
                                      oracle_counts(adc, values))

    @settings(max_examples=40, deadline=None)
    @given(dac_weights=st.integers(2, 8).flatmap(
               lambda n: weight_arrays(n, ())),
           adc_seed=st.integers(0, 2 ** 32 - 1),
           leg=st.integers(0, 7), gain=st.floats(0.9, 1.1))
    def test_shorted_dac_leg_sweep(self, dac_weights, adc_seed, leg,
                                   gain):
        """Shorting a DAC leg repeats sweep levels; codes still match."""
        n_bits = dac_weights.shape[-1]
        rng = np.random.default_rng(adc_seed)
        adc = SarAdc(n_bits=n_bits,
                     weights=2.0 ** np.arange(n_bits)
                     * (1.0 + 0.05 * rng.standard_normal(n_bits)),
                     termination=1.0,
                     offset=0.01 * rng.standard_normal())
        chain = SignalChain(
            node=get_node("65nm"), design=ChainDesign(n_bits=n_bits),
            dac=R2rDac(n_bits=n_bits, weights=dac_weights,
                       termination=1.0),
            adc=adc, sc_gain_eff=gain).with_shorted_leg(leg % n_bits)
        sweep = chain.through_filter(chain.dac.levels())
        np.testing.assert_array_equal(chain.adc.convert(sweep),
                                      sar_convert_bitloop(adc, sweep))

    def test_scalar_input_keeps_its_shape(self):
        adc = SarAdc.ideal(8)
        codes = adc.convert(0.3)
        assert codes.shape == () and codes == 76
        grid = np.linspace(-0.1, 1.1, 12).reshape(3, 4)
        np.testing.assert_array_equal(adc.convert(grid),
                                      sar_convert_bitloop(adc, grid))

    def test_nan_input_rejected(self):
        with pytest.raises(ReproError, match="NaN"):
            SarAdc.ideal(4).convert(np.array([0.5, np.nan]))

    def test_unsorted_ramp_rejected(self):
        with pytest.raises(ReproError, match="non-decreasing"):
            SarAdc.ideal(4).ramp_counts(np.array([0.5, 0.25]))


def bit_loop_signoff(chain, n_ramp_per_code=16, n_fft=1024, cycles=67,
                     amplitude_fraction=0.9):
    """The sign-off measurements as computed before transition levels:
    every ramp, sweep and sine sample converted by the bit loop."""
    n_bits = chain.design.n_bits
    batched = np.asarray(chain.dac.weights).ndim > 1
    dac_levels = chain.dac.levels()
    ramp_codes = sar_convert_bitloop(
        chain.adc, _midstep_ramp(n_bits, n_ramp_per_code))
    sweep_codes = sar_convert_bitloop(chain.adc,
                                      chain.through_filter(dac_levels))
    sine_in = dac_levels[..., _sine_codes(n_bits, n_fft, cycles,
                                          amplitude_fraction)]
    sine_out = sar_convert_bitloop(
        chain.adc, chain.through_filter(sine_in)).astype(float)
    full_scale = float(2 ** n_bits - 1)
    if batched:
        return (transfer_linearity_batch(dac_levels),
                histogram_linearity_batch(ramp_codes, n_bits),
                spectral_metrics_batch(sine_out, cycles,
                                       full_scale=full_scale),
                np.all(np.diff(sweep_codes, axis=-1) >= 0, axis=-1))
    return (transfer_linearity(dac_levels),
            histogram_linearity(ramp_codes, n_bits),
            spectral_metrics(sine_out, cycles, full_scale=full_scale),
            bool(np.all(np.diff(sweep_codes) >= 0)))


def assert_reports_identical(new, old):
    for field in ("dnl", "inl", "dnl_max", "inl_max", "monotonic"):
        np.testing.assert_array_equal(getattr(new, field),
                                      getattr(old, field))
        assert type(getattr(new, field)) is type(getattr(old, field))


class TestSignoffUnchanged:
    """The sign-off built on transition levels reports bit for bit what
    the bit-loop pipeline reported, at a mismatch-heavy node."""

    @pytest.mark.parametrize("node_name", ["65nm", "32nm"])
    def test_batch_signoff_equals_bit_loop_pipeline(self, node_name):
        node = get_node(node_name)
        sampler = MonteCarloSampler(node, seed=3)
        result = chain_signoff_batch(sampler, n_dies=24)
        replay = MonteCarloSampler(node, seed=3)
        batch = replay.sample_dies_batch(24)
        draws = np.stack([child.standard_normal(_draws_per_die(8))
                          for child in replay.rng.spawn(24)])
        chain = SignalChain._from_draws(node, ChainDesign(),
                                        batch.vth_global, draws)
        dac, adc, spectral, monotonic = bit_loop_signoff(chain)
        assert_reports_identical(result.dac, dac)
        assert_reports_identical(result.adc, adc)
        for field in ("sndr_db", "sfdr_db", "enob", "enob_full_scale"):
            np.testing.assert_array_equal(
                getattr(result.spectral, field), getattr(spectral, field))
        np.testing.assert_array_equal(result.monotonic, monotonic)

    def test_scalar_shorted_chain_equals_bit_loop_pipeline(self):
        chain = SignalChain.ideal(get_node("65nm")).with_shorted_leg(5)
        result = chain.signoff()
        dac, adc, spectral, monotonic = bit_loop_signoff(chain)
        assert_reports_identical(result.adc, adc)
        assert result.spectral.enob == spectral.enob
        assert result.monotonic is monotonic


class TestInvariants:
    """Properties of an ideal or any binary search, not of a twin."""

    @settings(max_examples=60, deadline=None)
    @given(adc=sar_adcs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_codes_non_decreasing_along_sorted_input(self, adc, seed):
        values = probe_inputs(adc, seed)
        for codes in (adc.convert(values),
                      sar_convert_bitloop(adc, values)):
            assert np.all(np.diff(codes, axis=-1) >= 0)

    @settings(max_examples=60, deadline=None)
    @given(adc=sar_adcs(), seed=st.integers(0, 2 ** 32 - 1))
    def test_ramp_counts_sum_to_ramp_length(self, adc, seed):
        values = probe_inputs(adc, seed)
        counts = adc.ramp_counts(values)
        assert counts.shape[-1] == 2 ** adc.n_bits
        assert np.all(counts >= 0)
        assert np.all(counts.sum(axis=-1) == values.size)

    @pytest.mark.parametrize("n_bits", [2, 5, 8, 10])
    @pytest.mark.parametrize("n_per_code", [1, 4, 16])
    def test_ideal_sar_midstep_ramp_is_exactly_uniform(self, n_bits,
                                                       n_per_code):
        counts = SarAdc.ideal(n_bits).ramp_counts(
            _midstep_ramp(n_bits, n_per_code))
        np.testing.assert_array_equal(
            counts, np.full(2 ** n_bits, n_per_code))
        report = count_linearity(counts)
        assert report.dnl_max == 0.0 and report.inl_max == 0.0

    def test_ideal_levels_are_the_dyadic_grid(self):
        np.testing.assert_array_equal(
            SarAdc.ideal(6).transition_levels(),
            np.arange(1, 64) / 64.0)
