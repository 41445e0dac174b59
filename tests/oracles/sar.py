"""Bit-loop SAR conversion: the reference for ``SarAdc.convert``.

This is the textbook MSB-first successive approximation, one pass per
bit over the whole input array: trial threshold
``(settled + w_j) / total`` against the held input ``values + offset``.
``SarAdc.convert`` answers from per-die transition levels instead and
must return exactly these codes.
"""

import numpy as np


def sar_convert_bitloop(adc, values) -> np.ndarray:
    """SAR-convert ``values`` with ``adc`` by the per-bit search.

    Broadcasting follows ``SarAdc.convert``: a shared 1-D input against
    ``(n_dies, n_bits)`` weights yields ``(n_dies, n_points)`` codes.
    """
    weights = np.asarray(adc.weights, dtype=float)
    batched = weights.ndim > 1
    total = weights.sum(axis=-1) + np.asarray(adc.termination,
                                              dtype=float)
    offset = np.asarray(adc.offset, dtype=float)
    values = np.asarray(values, dtype=float)
    if batched:
        held = values + offset[..., None]
        total = total[..., None]
    else:
        held = values + offset
    settled = np.zeros_like(held)
    codes = np.zeros(held.shape, dtype=np.int64)
    for j in range(adc.n_bits - 1, -1, -1):
        trial = settled + (weights[..., j:j + 1] if batched
                           else weights[j])
        keep = held >= trial / total
        settled = np.where(keep, trial, settled)
        codes += keep.astype(np.int64) * (1 << j)
    return codes


def sar_tree_thresholds(adc) -> np.ndarray:
    """Every trial threshold of the search tree, ``(..., 2**n - 1)``.

    Walks the tree node by node in plain Python with the bit loop's
    float operations, including nodes no input can reach; tests place
    inputs exactly on these values to exercise comparator ties.
    """
    weights = np.asarray(adc.weights, dtype=float)
    totals = weights.sum(axis=-1) + np.asarray(adc.termination,
                                               dtype=float)
    lead = np.broadcast_shapes(weights.shape[:-1], np.shape(totals))
    weights = np.broadcast_to(weights, lead + weights.shape[-1:])
    totals = np.broadcast_to(totals, lead)
    out = np.empty(lead + (2 ** adc.n_bits - 1,))
    for index in np.ndindex(*lead):
        found = []

        def walk(j, settled):
            if j < 0:
                return
            trial = settled + weights[index][j]
            found.append(trial / totals[index])
            walk(j - 1, settled)
            walk(j - 1, trial)

        walk(adc.n_bits - 1, np.float64(0.0))
        out[index] = found
    return out
