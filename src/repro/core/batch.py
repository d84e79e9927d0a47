"""Helpers for the batched detection data plane.

Fused ``produce_batch`` implementations want to run one vectorized NumPy
pass over ``N`` stacked signals, but a batch is allowed to mix signals of
different lengths (and therefore array shapes). The helpers here split a
batch into *shape groups* — maximal index sets whose arrays stack into one
``(n_group, ...)`` array — so a fused implementation vectorizes within
each group and reassembles the per-signal outputs in original batch order.

Bitwise parity note: stacking same-shaped signals and applying elementwise
ops, row-wise reductions along the per-signal axes, or pure indexing is
bitwise-identical to the per-signal computation (NumPy applies the same
kernels per row). Operations that would *reorder floating-point work
across signals* (e.g. reductions over the batch axis) must not be used in
fused implementations — the batch plane guarantees results identical to a
per-signal loop.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = ["shape_groups", "batched_ewma", "find_sequences_mask"]


def shape_groups(values: Sequence[np.ndarray],
                 keys: Sequence = None) -> List[Tuple[List[int], np.ndarray]]:
    """Split a batch into stackable groups of identical shape (and key).

    Args:
        values: one array per signal.
        keys: optional extra grouping keys (one per signal); signals only
            share a group when their key compares equal as well — used e.g.
            to group signals whose *timestamp grids* match, not just their
            shapes.

    Returns:
        ``[(indices, stacked)]`` where ``stacked[j]`` is
        ``values[indices[j]]``; the union of all ``indices`` lists is
        ``range(len(values))``. Groups preserve first-seen order.
    """
    groups: Dict[tuple, List[int]] = {}
    arrays = [np.asarray(value) for value in values]
    for index, array in enumerate(arrays):
        group_key = (array.shape, str(array.dtype))
        if keys is not None:
            group_key += (keys[index],)
        groups.setdefault(group_key, []).append(index)
    return [(indices, np.stack([arrays[i] for i in indices]))
            for indices in groups.values()]


def batched_ewma(errors: np.ndarray, smoothing_window: int) -> np.ndarray:
    """Exponentially-weighted moving average over axis 1 of ``(N, T)``.

    The recursion ``s[i] = alpha * e[i] + (1 - alpha) * s[i - 1]`` is
    inherently sequential; it runs per row on Python floats, which are
    IEEE doubles doing the same two multiplies and one add per step as
    NumPy float64 scalars — bitwise-identical, and several times faster
    than stepping NumPy arrays through time.
    """
    errors = np.asarray(errors, dtype=float)
    if smoothing_window <= 1 or errors.shape[1] == 0:
        return errors.copy()
    alpha = 2.0 / (smoothing_window + 1.0)
    keep = 1.0 - alpha
    rows = []
    for values in errors.tolist():
        level = values[0]
        row = [level]
        for value in values[1:]:
            level = alpha * value + keep * level
            row.append(level)
        rows.append(row)
    return np.array(rows, dtype=float)


def find_sequences_mask(above: np.ndarray) -> List[Tuple[int, int]]:
    """Vectorized equivalent of the scan in ``_find_sequences``.

    Returns the inclusive ``(start, end)`` index pairs of contiguous True
    runs, computed from the flag transitions instead of a Python scan —
    index-exact, so downstream severity arithmetic sees identical slices.
    """
    above = np.asarray(above, dtype=bool)
    if not above.size:
        return []
    edges = np.diff(above.astype(np.int8))
    starts = np.flatnonzero(edges == 1) + 1
    ends = np.flatnonzero(edges == -1)
    if above[0]:
        starts = np.concatenate(([0], starts))
    if above[-1]:
        ends = np.concatenate((ends, [len(above) - 1]))
    return list(zip(starts.tolist(), ends.tolist()))
