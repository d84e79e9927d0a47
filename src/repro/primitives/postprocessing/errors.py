"""Error-calculation primitives (post-processing engine)."""

from __future__ import annotations

import warnings

import numpy as np

from repro.core.batch import batched_ewma, shape_groups
from repro.core.primitive import Primitive, register_primitive
from repro.exceptions import PrimitiveError

__all__ = [
    "RegressionErrors",
    "ReconstructionErrors",
    "MultichannelRegressionErrors",
    "MultichannelReconstructionErrors",
    "smooth_errors",
]


def smooth_errors(errors: np.ndarray, smoothing_window: int) -> np.ndarray:
    """Smooth a 1D error array with an exponentially-weighted moving average."""
    errors = np.asarray(errors, dtype=float)
    return batched_ewma(errors[np.newaxis], smoothing_window)[0]


@register_primitive
class RegressionErrors(Primitive):
    """Point-wise absolute difference between the true and predicted signal.

    Reproduces ``regression_errors`` from the LSTM DT pipeline: the error at
    each target timestamp is ``|y - y_hat|``, optionally smoothed with an
    exponentially-weighted moving average so isolated prediction glitches do
    not dominate the dynamic threshold.
    """

    name = "regression_errors"
    engine = "postprocessing"
    description = "Absolute point-wise prediction errors with EWMA smoothing."
    produce_args = ["y", "y_hat"]
    produce_output = ["errors"]
    fixed_hyperparameters = {"smooth": True}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }
    supports_batch = True
    fuse_category = "elementwise"

    def produce(self, y, y_hat):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        if y.shape[0] != y_hat.shape[0]:
            raise PrimitiveError("y and y_hat must have the same number of samples")

        true = y.reshape(len(y), -1)[:, 0]
        pred = y_hat.reshape(len(y_hat), -1)[:, 0]
        errors = np.abs(true - pred)
        if self.smooth:
            errors = smooth_errors(errors, int(self.smoothing_window))
        return {"errors": errors}

    def produce_batch(self, y, y_hat):
        """Score a whole batch: stacked absolute errors + batched EWMA."""
        pairs = []
        for y_i, y_hat_i in zip(y, y_hat):
            y_i = np.asarray(y_i, dtype=float)
            y_hat_i = np.asarray(y_hat_i, dtype=float)
            if y_i.shape[0] != y_hat_i.shape[0]:
                raise PrimitiveError(
                    "y and y_hat must have the same number of samples")
            pairs.append((y_i.reshape(len(y_i), -1)[:, 0],
                          y_hat_i.reshape(len(y_hat_i), -1)[:, 0]))
        results = [None] * len(pairs)
        for indices, stacked in shape_groups(
                [np.stack(pair) for pair in pairs]):
            errors = np.abs(stacked[:, 0] - stacked[:, 1])
            if self.smooth:
                errors = batched_ewma(errors, int(self.smoothing_window))
            for j, i in enumerate(indices):
                results[i] = errors[j]
        return {"errors": results}


@register_primitive
class ReconstructionErrors(Primitive):
    """Point-wise reconstruction error aggregated over overlapping windows.

    Reconstruction pipelines (LSTM AE, Dense AE, TadGAN) reconstruct every
    rolling window; the error at a given time step is the median absolute
    difference across all windows covering that step, which is then smoothed.
    """

    name = "reconstruction_errors"
    engine = "postprocessing"
    description = "Median absolute reconstruction error per time step."
    produce_args = ["y", "y_hat", "index"]
    produce_output = ["errors", "index"]
    fixed_hyperparameters = {"step_size": 1, "smooth": True, "aggregation": "median"}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }
    supports_batch = True
    fuse_category = "elementwise"

    def produce(self, y, y_hat, index):
        return self._produce_one(y=y, y_hat=y_hat, index=index)

    def produce_batch(self, y, y_hat, index):
        """Score a batch; a single signal is a batch of one.

        Signals with equally shaped windows are stacked and aggregated
        together by :meth:`_aggregate`, the primitive's only kernel.
        """
        normalized = []
        for y_i, y_hat_i, index_i in zip(y, y_hat, index):
            y_i = np.asarray(y_i, dtype=float)
            y_hat_i = np.asarray(y_hat_i, dtype=float)
            index_i = np.asarray(index_i)
            if y_i.shape != y_hat_i.shape:
                y_hat_i = y_hat_i.reshape(y_i.shape)
            if y_i.ndim == 2:
                y_i = y_i[..., np.newaxis]
                y_hat_i = y_hat_i[..., np.newaxis]
            if y_i.ndim != 3:
                raise PrimitiveError("reconstruction_errors expects windowed inputs")
            if len(index_i) != len(y_i):
                raise PrimitiveError("index must have one entry per window")
            normalized.append((y_i, y_hat_i, index_i))

        size = len(normalized)
        out = {"errors": [None] * size, "index": [None] * size}
        step = int(self.step_size)
        pairs = [np.stack((entry[0][..., 0], entry[1][..., 0]))
                 for entry in normalized]
        for indices, stacked in shape_groups(pairs):
            errors = self._aggregate(np.abs(stacked[:, 0] - stacked[:, 1]),
                                     step)
            if self.smooth:
                errors = batched_ewma(errors, int(self.smoothing_window))
            for j, i in enumerate(indices):
                out["errors"][i] = errors[j]
                out["index"][i] = self._point_index(
                    normalized[i][2], errors.shape[1], step)
        return out

    def _aggregate(self, abs_error: np.ndarray, step: int) -> np.ndarray:
        """Per-position aggregate of ``(n_signals, n_windows, window)`` errors.

        Position ``w * step + t`` collects window ``w``'s error at offset
        ``t``. A stable sort of the positions lists every position's errors
        contiguously, in window order; positions covered by the same number
        of windows are gathered into one ``(n_signals, positions, count)``
        stack and aggregated in a single call along the count axis —
        exactly the per-position ``np.median`` (or ``np.mean``) over the
        same values in the same order, NaN propagation included.
        Uncovered positions (``step > window``) read 0.
        """
        n_signals, n_windows, window_size = abs_error.shape
        length = (n_windows - 1) * step + window_size
        positions = (np.arange(n_windows)[:, np.newaxis] * step
                     + np.arange(window_size)).ravel()
        flat = abs_error.reshape(n_signals, -1)
        order = np.argsort(positions, kind="stable")
        coverage = np.bincount(positions, minlength=length)
        first = np.cumsum(coverage) - coverage
        aggregate = np.mean if self.aggregation == "mean" else np.median
        errors = np.zeros((n_signals, length))
        for count in np.unique(coverage[coverage > 0]):
            covered = np.flatnonzero(coverage == count)
            columns = order[first[covered, np.newaxis] + np.arange(count)]
            # np.take lays the stack out C-contiguously: every reduction
            # runs over one contiguous row, like the 1D per-position call.
            errors[:, covered] = aggregate(np.take(flat, columns, axis=1),
                                           axis=2)
        return errors

    def _point_index(self, index: np.ndarray, length: int,
                     step: int) -> np.ndarray:
        """Timestamp of every reconstructed point.

        Window starts are spaced by ``step`` samples; the sampling interval
        is inferred from the window index.
        """
        if len(index) > 1:
            interval = (index[1] - index[0]) / step
        else:
            interval = 1
        return (index[0] + np.arange(length) * interval).astype(np.int64)


@register_primitive
class MultichannelRegressionErrors(Primitive):
    """Per-channel and joint prediction errors for multivariate signals.

    The multivariate counterpart of :class:`RegressionErrors`: ``y`` holds
    every channel's true next values (``(k, target_size, m)``, produced by
    ``rolling_window_sequences`` with ``target_column="all"``) and
    ``y_hat`` the model's flat predictions. The primitive scores the first
    target step of every channel — exactly what the univariate primitive
    does for its single column — yielding:

    * ``channel_errors`` — ``(k, m)`` smoothed per-channel absolute errors,
      consumed downstream by the channel-attribution step;
    * ``errors`` — the joint 1D error (mean across channels), which the
      thresholding primitives consume unchanged.
    """

    name = "multichannel_regression_errors"
    engine = "postprocessing"
    description = "Per-channel + joint absolute prediction errors."
    produce_args = ["y", "y_hat"]
    produce_output = ["errors", "channel_errors"]
    fixed_hyperparameters = {"smooth": True}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }

    def produce(self, y, y_hat):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        if y.shape[0] != y_hat.shape[0]:
            raise PrimitiveError("y and y_hat must have the same number of samples")
        if y.ndim == 2:
            # (k, m): a single target step per channel.
            y = y[:, np.newaxis, :]
        if y.ndim != 3:
            raise PrimitiveError(
                "multichannel_regression_errors expects (k, target_size, m) "
                "targets; use regression_errors for univariate pipelines"
            )
        y_hat = y_hat.reshape(y.shape)

        # First target step of every channel, |true - predicted|: (k, m).
        channel_errors = np.abs(y[:, 0, :] - y_hat[:, 0, :])
        if self.smooth:
            window = int(self.smoothing_window)
            channel_errors = np.column_stack([
                smooth_errors(channel_errors[:, c], window)
                for c in range(channel_errors.shape[1])
            ])
        errors = channel_errors.mean(axis=1)
        return {"errors": errors, "channel_errors": channel_errors}


@register_primitive
class MultichannelReconstructionErrors(Primitive):
    """Per-channel and joint reconstruction errors for multivariate signals.

    The multivariate counterpart of :class:`ReconstructionErrors`: every
    channel's point-wise error is the median absolute reconstruction
    difference across all windows covering that time step, and the joint
    error (mean across channels) feeds the thresholding step.
    """

    name = "multichannel_reconstruction_errors"
    engine = "postprocessing"
    description = "Per-channel + joint median reconstruction errors."
    produce_args = ["y", "y_hat", "index"]
    produce_output = ["errors", "channel_errors", "index"]
    fixed_hyperparameters = {"step_size": 1, "smooth": True}
    tunable_hyperparameters = {
        "smoothing_window": {"type": "int", "default": 10, "range": [1, 200]},
    }

    def produce(self, y, y_hat, index):
        y = np.asarray(y, dtype=float)
        y_hat = np.asarray(y_hat, dtype=float)
        index = np.asarray(index)
        if y.shape != y_hat.shape:
            y_hat = y_hat.reshape(y.shape)
        if y.ndim != 3:
            raise PrimitiveError(
                "multichannel_reconstruction_errors expects (k, window, m) "
                "inputs; use reconstruction_errors for univariate pipelines"
            )
        if len(index) != len(y):
            raise PrimitiveError("index must have one entry per window")

        n_windows, window_size, n_channels = y.shape
        step = int(self.step_size)
        length = (n_windows - 1) * step + window_size
        abs_error = np.abs(y - y_hat)  # (k, window, m)

        # Scatter every window error into a NaN-padded (length, window, m)
        # matrix and take the median over the window axis — the vectorized
        # per-position median (order-invariant) per channel.
        windows = np.arange(n_windows)[:, np.newaxis]
        offsets = np.arange(window_size)[np.newaxis, :]
        collected = np.full((length, window_size, n_channels), np.nan)
        collected[windows * step + offsets, offsets] = abs_error
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", category=RuntimeWarning)
            channel_errors = np.nanmedian(collected, axis=1)  # (length, m)
        channel_errors[np.all(np.isnan(collected), axis=1)] = 0.0

        if self.smooth:
            window = int(self.smoothing_window)
            channel_errors = np.column_stack([
                smooth_errors(channel_errors[:, c], window)
                for c in range(n_channels)
            ])
        errors = channel_errors.mean(axis=1)

        if len(index) > 1:
            interval = (index[1] - index[0]) / step
        else:
            interval = 1
        point_index = (index[0] + np.arange(length) * interval).astype(np.int64)
        return {"errors": errors, "channel_errors": channel_errors,
                "index": point_index}
