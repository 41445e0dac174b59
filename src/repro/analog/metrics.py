"""Code-domain converter sign-off metrics: DNL, INL, ENOB, SFDR.

The paper's system-level question -- does a converter chain still meet
spec under nanometre mismatch? -- is answered with exactly three
classical measurements:

* **DNL/INL from a DC sweep** of the transfer levels (DACs) or from a
  **ramp histogram** (ADCs): the per-code step error and its running
  sum, in LSB;
* **monotonicity** of the transfer;
* **ENOB/SNDR/SFDR from a coherent sine FFT**: the dynamic bits the
  chain actually delivers.

Every metric ships in two forms sharing one arithmetic core:

* a **scalar per-die oracle** (``transfer_linearity``,
  ``histogram_linearity``, ``spectral_metrics``) operating on one
  die's 1-D data, and
* a **vectorized batch path** (``*_batch``) operating on
  ``(n_dies, ...)`` arrays in one numpy pass.

The batch twins apply the identical elementwise operations along the
trailing axis, so under a fixed seed their per-die rows agree with the
scalar oracle to float64 round-off -- and an *ideal* converter reports
exactly zero DNL/INL (the ideal transfer's level spacings and the
measured LSB are the same dyadic rational, so the quotient is exactly
1.0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from ..robust.errors import ModelDomainError
from ..robust.validate import (check_count, check_finite,
                               check_non_negative, validated)

__all__ = [
    "LinearityReport", "SpectralReport",
    "transfer_linearity", "transfer_linearity_batch",
    "histogram_linearity", "histogram_linearity_batch", "count_linearity",
    "spectral_metrics", "spectral_metrics_batch",
]

#: SNDR/SFDR ceiling [dB] reported when the noise-plus-distortion (or
#: spur) power underflows to zero -- an ideal digital sine has no
#: noise bins at all, and ``log10(x/0)`` must not escape as inf.
SNDR_CAP_DB = 150.0


@dataclass(frozen=True)
class LinearityReport:
    """Static linearity of one converter (or a batch of them).

    From the scalar oracles the array fields are 1-D over codes and
    the summary fields are floats; from the ``*_batch`` twins they
    gain a leading ``n_dies`` axis (summaries become 1-D arrays).

    ``dnl`` is the per-step error in LSB (``n_codes - 1`` steps for a
    level sweep, interior codes for a histogram), ``inl`` the running
    integral (endpoint-corrected for level sweeps).  ``monotonic`` is
    the DC-sweep check: no step of the transfer goes backwards.
    """

    dnl: np.ndarray
    inl: np.ndarray
    dnl_max: Union[float, np.ndarray]     # max |DNL| [LSB]
    inl_max: Union[float, np.ndarray]     # max |INL| [LSB]
    monotonic: Union[bool, np.ndarray]


@dataclass(frozen=True)
class SpectralReport:
    """Coherent-sine FFT dynamic test of one converter (or a batch).

    ``enob`` refers the noise to the *measured* carrier;
    ``enob_full_scale`` refers it to a full-scale carrier, which makes
    it invariant under the test amplitude (the quantization floor does
    not move with the input).  Scalar from ``spectral_metrics``,
    per-die arrays from ``spectral_metrics_batch``.
    """

    sndr_db: Union[float, np.ndarray]
    sfdr_db: Union[float, np.ndarray]
    enob: Union[float, np.ndarray]
    enob_full_scale: Union[float, np.ndarray]
    n_samples: int


def _enob_from_sndr(sndr_db):
    """The 6.02 dB/bit conversion, elementwise."""
    return (np.asarray(sndr_db, dtype=float) - 1.76) / 6.02


# --- DC-sweep linearity ----------------------------------------------------


def _levels_linearity(levels: np.ndarray) -> LinearityReport:
    """Core DNL/INL of measured transfer levels, trailing axis = codes.

    The LSB is the endpoint-fit step ``(top - bottom) / (n - 1)``;
    DNL is each measured step against it, INL the deviation of each
    level from the endpoint line.  For an ideal uniform transfer both
    are *exactly* zero in float64: every step, the LSB and the line
    points are the same dyadic value, so the normalized errors are
    exactly 0.0.
    """
    n_codes = levels.shape[-1]
    span = levels[..., -1] - levels[..., 0]
    if not np.all(span > 0):
        raise ModelDomainError(
            "transfer levels must span a positive full-scale range "
            "(top level above bottom level)")
    lsb = span / (n_codes - 1)
    steps = np.diff(levels, axis=-1)
    dnl = steps / lsb[..., None] - 1.0
    line = levels[..., :1] + lsb[..., None] * np.arange(n_codes)
    inl = (levels - line) / lsb[..., None]
    return LinearityReport(
        dnl=dnl, inl=inl,
        dnl_max=np.max(np.abs(dnl), axis=-1),
        inl_max=np.max(np.abs(inl), axis=-1),
        monotonic=np.all(steps >= 0.0, axis=-1),
    )


@validated(_result_finite=True)
def transfer_linearity(levels: np.ndarray) -> LinearityReport:
    """DNL/INL/monotonicity of one DC-swept transfer (scalar oracle).

    ``levels`` holds the measured output per input code (a DAC's
    analog levels, or a chain's output codes), lowest code first.
    """
    levels = np.asarray(check_finite("levels", levels), dtype=float)
    if levels.ndim != 1 or levels.size < 4:
        raise ModelDomainError(
            "levels must be a 1-D sweep of at least 4 codes, got "
            f"shape {levels.shape}")
    report = _levels_linearity(levels)
    return LinearityReport(dnl=report.dnl, inl=report.inl,
                           dnl_max=float(report.dnl_max),
                           inl_max=float(report.inl_max),
                           monotonic=bool(report.monotonic))


@validated(_result_finite=True)
def transfer_linearity_batch(levels: np.ndarray) -> LinearityReport:
    """Vectorized twin of :func:`transfer_linearity`.

    ``levels`` is ``(n_dies, n_codes)``; every die's row gets the
    identical elementwise arithmetic, so row ``d`` matches the scalar
    oracle on die ``d`` to float64 round-off.
    """
    levels = np.asarray(check_finite("levels", levels), dtype=float)
    if levels.ndim != 2 or levels.shape[-1] < 4:
        raise ModelDomainError(
            "levels must be (n_dies, n_codes) with n_codes >= 4, got "
            f"shape {levels.shape}")
    return _levels_linearity(levels)


# --- ramp-histogram linearity ----------------------------------------------


def _histogram_linearity(counts: np.ndarray) -> LinearityReport:
    """Core histogram DNL/INL; trailing axis = codes (all ``2**n``).

    The two end codes are dropped (their bins are unbounded under
    offset/gain error, the standard histogram-method convention); DNL
    of each interior code is its hit count against the interior mean,
    INL the cumulative sum.  A uniform histogram (ideal converter on
    an exact-span ramp) gives exactly zero for both: the mean of
    identical integer counts is that count, exactly.
    """
    interior = counts[..., 1:-1].astype(float)
    mean = interior.mean(axis=-1)
    if not np.all(mean > 0):
        raise ModelDomainError(
            "ramp histogram has no interior-code hits; the ramp does "
            "not exercise the converter's transfer range")
    dnl = interior / mean[..., None] - 1.0
    inl = np.cumsum(dnl, axis=-1)
    return LinearityReport(
        dnl=dnl, inl=inl,
        dnl_max=np.max(np.abs(dnl), axis=-1),
        inl_max=np.max(np.abs(inl), axis=-1),
        monotonic=np.ones(counts.shape[:-1], dtype=bool)
        if counts.ndim > 1 else True,
    )


def _ramp_monotonic(codes: np.ndarray) -> np.ndarray:
    """Whether ramp-response codes never step backwards (last axis)."""
    return np.all(np.diff(codes, axis=-1) >= 0, axis=-1)


@validated(_result_finite=True)
def count_linearity(counts: np.ndarray) -> LinearityReport:
    """ADC DNL/INL from per-code ramp hit counts.

    ``counts`` is one die's ``(2**n,)`` histogram, giving the scalar
    report (float summaries), or ``(n_dies, 2**n)``, giving per-die
    arrays.  Counts carry no code order, so ``monotonic`` is True: the
    caller that knows the ramp response replaces it (a SAR's response
    to a sorted ramp is non-decreasing by construction).
    """
    counts = np.asarray(check_non_negative("counts", counts))
    if counts.ndim not in (1, 2) or counts.shape[-1] < 4:
        raise ModelDomainError(
            "counts must be (n_codes,) or (n_dies, n_codes) with "
            f"n_codes >= 4, got shape {counts.shape}")
    report = _histogram_linearity(counts)
    if counts.ndim == 2:
        return report
    return LinearityReport(dnl=report.dnl, inl=report.inl,
                           dnl_max=float(report.dnl_max),
                           inl_max=float(report.inl_max),
                           monotonic=True)


@validated(_result_finite=True)
def histogram_linearity(codes: np.ndarray,
                        n_bits: int = 8) -> LinearityReport:
    """ADC DNL/INL from a ramp histogram (scalar per-die oracle).

    ``codes`` is the converter's output-code sequence for a uniform
    full-scale input ramp; code hit counts measure the code bin
    widths, which is the classical ADC linearity test (the DC-sweep
    analog of the exemplar's ``r2r_dac`` 256-code sweep).
    """
    n_bits = check_count("n_bits", n_bits, minimum=2)
    codes = np.asarray(check_finite("codes", codes))
    if codes.ndim != 1 or codes.size < 2 ** n_bits:
        raise ModelDomainError(
            f"codes must be a 1-D ramp response with at least "
            f"2**{n_bits} samples, got shape {codes.shape}")
    index = codes.astype(np.int64)
    if np.any(index < 0) or np.any(index >= 2 ** n_bits):
        raise ModelDomainError(
            f"ramp codes must lie in [0, 2**{n_bits}), got range "
            f"[{index.min()}, {index.max()}]")
    report = count_linearity(np.bincount(index, minlength=2 ** n_bits))
    return replace(report, monotonic=bool(_ramp_monotonic(index)))


@validated(_result_finite=True)
def histogram_linearity_batch(codes: np.ndarray,
                              n_bits: int = 8) -> LinearityReport:
    """Vectorized twin of :func:`histogram_linearity`.

    ``codes`` is ``(n_dies, n_points)``; the per-die histograms are
    built in one flat ``bincount`` (integer counting, bit-identical
    to per-die counting).
    """
    n_bits = check_count("n_bits", n_bits, minimum=2)
    codes = np.asarray(check_finite("codes", codes))
    if codes.ndim != 2 or codes.shape[-1] < 2 ** n_bits:
        raise ModelDomainError(
            f"codes must be (n_dies, n_points) with n_points >= "
            f"2**{n_bits}, got shape {codes.shape}")
    index = codes.astype(np.int64)
    n_codes = 2 ** n_bits
    if np.any(index < 0) or np.any(index >= n_codes):
        raise ModelDomainError(
            f"ramp codes must lie in [0, 2**{n_bits}), got range "
            f"[{index.min()}, {index.max()}]")
    n_dies = index.shape[0]
    flat = index + n_codes * np.arange(n_dies, dtype=np.int64)[:, None]
    counts = np.bincount(flat.ravel(),
                         minlength=n_dies * n_codes
                         ).reshape(n_dies, n_codes)
    return replace(count_linearity(counts),
                   monotonic=_ramp_monotonic(index))


# --- coherent-sine spectral metrics ----------------------------------------


def _spectral(signal: np.ndarray, cycles: int,
              full_scale: Optional[float]) -> SpectralReport:
    """Core coherent FFT metrics; trailing axis = time samples.

    With ``cycles`` coprime to the record length the carrier lands in
    exactly one bin -- no window, no leakage (the satellite-task fix:
    integer, in-band bin counts are *enforced*, not assumed).  Noise
    and distortion is everything but DC and the carrier bin.
    """
    n_samples = signal.shape[-1]
    mean = signal.mean(axis=-1)
    spectrum = np.fft.rfft(signal - mean[..., None], axis=-1)
    power = np.abs(spectrum) ** 2
    signal_power = power[..., cycles]
    noise_power = power[..., 1:].sum(axis=-1) - signal_power
    spur = np.array(power[..., 1:], copy=True)
    spur[..., cycles - 1] = 0.0
    spur_power = spur.max(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sndr = np.where(
            noise_power > 0.0,
            10.0 * np.log10(np.where(noise_power > 0.0,
                                     signal_power / noise_power, 1.0)),
            SNDR_CAP_DB)
        sfdr = np.where(
            spur_power > 0.0,
            10.0 * np.log10(np.where(spur_power > 0.0,
                                     signal_power / spur_power, 1.0)),
            SNDR_CAP_DB)
    if full_scale is None:
        sndr_fs = sndr
    else:
        # A full-scale sine of peak-to-peak ``full_scale`` carries
        # (FS/2)^2 * n^2 / 4 of rfft bin power.
        fs_power = (full_scale * n_samples) ** 2 / 16.0
        with np.errstate(divide="ignore", invalid="ignore"):
            sndr_fs = np.where(
                noise_power > 0.0,
                10.0 * np.log10(np.where(noise_power > 0.0,
                                         fs_power / noise_power, 1.0)),
                SNDR_CAP_DB)
    # Round-off of an exact-zero noise floor leaves ~1e-28 bin powers
    # whose ratio exceeds any physical dynamic range; the cap is a
    # ceiling, not only a divide-by-zero guard.
    sndr = np.minimum(sndr, SNDR_CAP_DB)
    sfdr = np.minimum(sfdr, SNDR_CAP_DB)
    sndr_fs = np.minimum(sndr_fs, SNDR_CAP_DB)
    return SpectralReport(
        sndr_db=sndr, sfdr_db=sfdr,
        enob=_enob_from_sndr(sndr),
        enob_full_scale=_enob_from_sndr(sndr_fs),
        n_samples=n_samples)


def _check_coherent(name: str, cycles: int, n_samples: int) -> int:
    """Validate the coherent-sampling contract for a record length."""
    cycles = check_count(name, cycles)
    if math.gcd(cycles, n_samples) != 1:
        raise ModelDomainError(
            f"{name} must be coprime to n_samples for coherent "
            f"sampling, got {cycles} vs {n_samples}")
    if cycles >= n_samples // 2:
        raise ModelDomainError(
            f"{name} must stay below Nyquist (n_samples // 2 = "
            f"{n_samples // 2}), got {cycles}")
    return cycles


@validated(_result_finite=True, full_scale="positive")
def spectral_metrics(signal: np.ndarray, cycles: int = 67,
                     full_scale: Optional[float] = None
                     ) -> SpectralReport:
    """SNDR/SFDR/ENOB of one coherent sine record (scalar oracle).

    ``signal`` is the converter's output over an integer number
    (``cycles``, coprime to the record length and below Nyquist) of
    input-sine periods; ``full_scale`` (peak-to-peak, same units as
    ``signal``) additionally refers ENOB to a full-scale carrier.
    """
    signal = np.asarray(check_finite("signal", signal), dtype=float)
    if signal.ndim != 1 or signal.size < 64:
        raise ModelDomainError(
            "signal must be a 1-D record of at least 64 samples, got "
            f"shape {signal.shape}")
    cycles = _check_coherent("cycles", cycles, signal.size)
    report = _spectral(signal, cycles, full_scale)
    return SpectralReport(
        sndr_db=float(report.sndr_db), sfdr_db=float(report.sfdr_db),
        enob=float(report.enob),
        enob_full_scale=float(report.enob_full_scale),
        n_samples=report.n_samples)


@validated(_result_finite=True, full_scale="positive")
def spectral_metrics_batch(signals: np.ndarray, cycles: int = 67,
                           full_scale: Optional[float] = None
                           ) -> SpectralReport:
    """Vectorized twin of :func:`spectral_metrics`.

    ``signals`` is ``(n_dies, n_samples)``; all dies FFT in one
    batched ``rfft`` along the trailing axis.
    """
    signals = np.asarray(check_finite("signals", signals), dtype=float)
    if signals.ndim != 2 or signals.shape[-1] < 64:
        raise ModelDomainError(
            "signals must be (n_dies, n_samples) with n_samples >= "
            f"64, got shape {signals.shape}")
    cycles = _check_coherent("cycles", cycles, signals.shape[-1])
    return _spectral(signals, cycles, full_scale)
