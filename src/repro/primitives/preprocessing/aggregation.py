"""Time-based aggregation primitives."""

from __future__ import annotations

import numpy as np

from repro.core.batch import shape_groups
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError

__all__ = ["TimeSegmentsAggregate"]


@register_primitive
class TimeSegmentsAggregate(Primitive):
    """Aggregate a raw ``(timestamp, values...)`` table into equal segments.

    This reproduces the ``time_segments_aggregate`` primitive from the
    paper's LSTM pipeline (Figure 2a): the raw signal is resampled so that
    consecutive samples are exactly ``interval`` apart, aggregating every
    sample falling in a segment with ``method`` and leaving NaNs for empty
    segments (to be imputed downstream).
    """

    name = "time_segments_aggregate"
    engine = "preprocessing"
    description = "Resample a raw signal into equally spaced segments."
    produce_args = ["data"]
    produce_output = ["X", "index"]
    fixed_hyperparameters = {"interval": None, "method": "mean"}
    tunable_hyperparameters = {}
    supports_batch = True
    fuse_category = "window"

    _METHODS = {
        "mean": np.nanmean,
        "median": np.nanmedian,
        "min": np.nanmin,
        "max": np.nanmax,
        "sum": np.nansum,
    }

    def produce(self, data):
        return self._produce_one(data=data)

    def produce_batch(self, data):
        """Aggregate a batch; a single signal is a batch of one.

        Signals with identical timestamp grids share one segment layout
        and are aggregated together by :meth:`_aggregate`, the primitive's
        only kernel.
        """
        if self.method not in self._METHODS:
            raise PrimitiveError(
                f"Unknown aggregation method {self.method!r}; "
                f"choose from {sorted(self._METHODS)}"
            )
        arrays = []
        for entry in data:
            array = np.asarray(entry, dtype=float)
            if array.ndim != 2 or array.shape[1] < 2:
                raise PrimitiveError(
                    "time_segments_aggregate expects a 2D "
                    "(timestamp, values...) array"
                )
            arrays.append(array)
        size = len(arrays)
        out = {"X": [None] * size, "index": [None] * size}
        keys = [array[:, 0].tobytes() for array in arrays]
        for indices, stacked in shape_groups(arrays, keys=keys):
            aggregated, index = self._aggregate(stacked[0, :, 0],
                                                stacked[:, :, 1:])
            for j, i in enumerate(indices):
                out["X"][i] = aggregated[j]
                out["index"][i] = index
        return out

    def _aggregate(self, timestamps, values):
        """Resample ``values`` ``(n_signals, rows, m)`` on shared timestamps.

        In time order, every segment's samples are consecutive rows, so
        ``bincount`` of the segment ids gives each segment's sample count
        and first row. Segments holding the same number of samples are
        gathered into one ``(n_signals, segments, count, m)`` stack and
        reduced in a single call along the count axis, which applies
        ``method`` to every segment's samples in their sorted order, exactly
        as one call per segment would. Empty segments stay NaN.
        """
        order = np.argsort(timestamps)
        timestamps = timestamps[order]

        interval = self.interval
        if interval is None:
            diffs = np.diff(timestamps)
            diffs = diffs[diffs > 0]
            interval = float(np.median(diffs)) if len(diffs) else 1.0
        interval = float(interval)
        if interval <= 0:
            raise PrimitiveError("interval must be positive")

        start = timestamps[0]
        n_segments = int(np.floor((timestamps[-1] - start) / interval)) + 1
        segment_ids = np.floor((timestamps - start) / interval).astype(int)
        counts = np.bincount(segment_ids, minlength=n_segments)
        first_rows = np.cumsum(counts) - counts
        aggregate = self._METHODS[self.method]
        aggregated = np.full((len(values), n_segments, values.shape[2]),
                             np.nan)
        for count in np.unique(counts[counts > 0]):
            segments = np.flatnonzero(counts == count)
            rows = order[first_rows[segments, np.newaxis] + np.arange(count)]
            # np.take lays the stack out C-contiguously, so each reduction
            # walks its (count, m) block as the per-segment call would.
            aggregated[:, segments] = aggregate(
                np.take(values, rows, axis=1), axis=2)
        index = start + interval * np.arange(n_segments)
        return aggregated, index.astype(np.int64)
