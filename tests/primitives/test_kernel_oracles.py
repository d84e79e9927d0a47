"""Bitwise oracles for the vectorized primitive kernels.

``time_segments_aggregate`` and ``reconstruction_errors`` each run one
vectorized kernel, shared by ``produce`` and ``produce_batch``, and
``find_anomalies`` selects the thresholds of all its windows in one
``_select_epsilons`` call. The straightforward per-segment, per-position,
per-window and per-``z`` loops they replaced are kept below as the
reference; generated inputs must give byte-identical results (NaN
payloads and the sign of zero included).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.batch import find_sequences_mask
from repro.core.primitive import get_primitive
from repro.primitives.postprocessing.anomalies import (
    _merge_overlapping,
    _prune_anomalies,
    _select_epsilons,
)

METHODS = {
    "mean": np.nanmean,
    "median": np.nanmedian,
    "min": np.nanmin,
    "max": np.nanmax,
    "sum": np.nansum,
}


# ---------------------------------------------------------------------- #
# reference loops
# ---------------------------------------------------------------------- #
def reference_aggregate(data, interval=None, method="mean"):
    """One masked reduction per segment."""
    data = np.asarray(data, dtype=float)
    timestamps = data[:, 0]
    values = data[:, 1:]
    order = np.argsort(timestamps)
    timestamps = timestamps[order]
    values = values[order]
    if interval is None:
        diffs = np.diff(timestamps)
        diffs = diffs[diffs > 0]
        interval = float(np.median(diffs)) if len(diffs) else 1.0
    interval = float(interval)
    start = timestamps[0]
    n_segments = int(np.floor((timestamps[-1] - start) / interval)) + 1
    index = start + interval * np.arange(n_segments)
    aggregated = np.full((n_segments, values.shape[1]), np.nan)
    segment_ids = np.floor((timestamps - start) / interval).astype(int)
    segment_ids = np.clip(segment_ids, 0, n_segments - 1)
    for segment in np.unique(segment_ids):
        mask = segment_ids == segment
        aggregated[segment] = METHODS[method](values[mask], axis=0)
    return {"X": aggregated, "index": index.astype(np.int64)}


def reference_smooth(errors, smoothing_window):
    """Element-by-element EWMA on NumPy scalars."""
    errors = np.asarray(errors, dtype=float)
    if smoothing_window <= 1 or len(errors) == 0:
        return errors.copy()
    alpha = 2.0 / (smoothing_window + 1.0)
    smoothed = np.empty_like(errors)
    smoothed[0] = errors[0]
    for i in range(1, len(errors)):
        smoothed[i] = alpha * errors[i] + (1.0 - alpha) * smoothed[i - 1]
    return smoothed


def reference_reconstruction(y, y_hat, index, step_size=1, smooth=True,
                             smoothing_window=10, aggregation="median"):
    """Per-position lists of window errors, one aggregate call each."""
    y = np.asarray(y, dtype=float)
    y_hat = np.asarray(y_hat, dtype=float).reshape(y.shape)
    if y.ndim == 2:
        y = y[..., np.newaxis]
        y_hat = y_hat[..., np.newaxis]
    n_windows, window_size, _ = y.shape
    length = (n_windows - 1) * step_size + window_size
    abs_error = np.abs(y[..., 0] - y_hat[..., 0])
    collected = [[] for _ in range(length)]
    for w in range(n_windows):
        for t in range(window_size):
            collected[w * step_size + t].append(abs_error[w, t])
    aggregate = np.mean if aggregation == "mean" else np.median
    errors = np.array([aggregate(values) if values else 0.0
                       for values in collected])
    if smooth:
        errors = reference_smooth(errors, smoothing_window)
    interval = (index[1] - index[0]) / step_size if len(index) > 1 else 1
    point_index = (index[0] + np.arange(length) * interval).astype(np.int64)
    return {"errors": errors, "index": point_index}


def reference_select_epsilon(errors, z_range):
    """Score every ``z`` of the range on its own."""
    mean = float(np.mean(errors))
    std = float(np.std(errors))
    if std == 0.0:
        return mean
    best_epsilon = mean + float(z_range[1]) * std
    best_score = -np.inf
    for z in np.arange(z_range[0], z_range[1] + 0.5, 0.5):
        epsilon = mean + z * std
        above = errors > epsilon
        n_above = int(np.sum(above))
        if n_above == 0:
            continue
        below = errors[~above]
        if len(below) == 0:
            continue
        delta_mean = mean - float(np.mean(below))
        delta_std = std - float(np.std(below))
        n_sequences = len(find_sequences_mask(above))
        score = (delta_mean / mean + delta_std / std) / (n_above + n_sequences ** 2)
        if score > best_score:
            best_score = score
            best_epsilon = epsilon
    return best_epsilon


def assert_bitwise(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes(), (actual, expected)


# ---------------------------------------------------------------------- #
# strategies
# ---------------------------------------------------------------------- #
# A small pool makes ties, duplicate timestamps, NaN and both zeros common.
values_pool = st.sampled_from(
    [np.nan, -0.0, 0.0, 1.0, -1.5, 2.25, 1e6, -3e-7, 7.0, 0.1])
free_values = st.one_of(
    values_pool,
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False,
              allow_infinity=False))


@st.composite
def raw_tables(draw, rows=None, timestamps=None):
    """A ``(timestamp, values...)`` table with unsorted, repeated stamps."""
    if timestamps is None:
        n_rows = draw(st.integers(1, 60)) if rows is None else rows
        scale = draw(st.sampled_from([1.0, 0.5, 3.0, 1e9]))
        offsets = draw(st.lists(st.integers(0, 40), min_size=n_rows,
                                max_size=n_rows))
        timestamps = scale * np.asarray(offsets, dtype=float)
        if scale == 1e9:
            timestamps = timestamps / 1e9 + 1.6e9
    m = draw(st.integers(1, 3))
    cells = draw(st.lists(free_values, min_size=len(timestamps) * m,
                          max_size=len(timestamps) * m))
    values = np.asarray(cells, dtype=float).reshape(len(timestamps), m)
    return np.column_stack([timestamps, values])


intervals = st.one_of(st.none(), st.sampled_from([0.5, 1.0, 2.5, 4.0, 25.0]))


# ---------------------------------------------------------------------- #
# time_segments_aggregate
# ---------------------------------------------------------------------- #
class TestAggregationOracle:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(table=raw_tables(), interval=intervals,
           method=st.sampled_from(sorted(METHODS)))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_produce_matches_segment_loop(self, table, interval, method):
        primitive = get_primitive("time_segments_aggregate",
                                  {"interval": interval, "method": method})
        out = primitive.produce(data=table)
        expected = reference_aggregate(table, interval, method)
        assert_bitwise(out["X"], expected["X"])
        assert_bitwise(out["index"], expected["index"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(data=st.data(), interval=intervals,
           method=st.sampled_from(sorted(METHODS)))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_batch_mixing_grids_matches_segment_loop(self, data, interval,
                                                     method):
        """Signals on two grids, interleaved: each equals its own loop."""
        first = data.draw(raw_tables())
        second = data.draw(raw_tables())
        signals = [first, second,
                   data.draw(raw_tables(timestamps=first[:, 0])),
                   data.draw(raw_tables(timestamps=second[:, 0]))]
        primitive = get_primitive("time_segments_aggregate",
                                  {"interval": interval, "method": method})
        out = primitive.produce_batch(data=signals)
        for i, table in enumerate(signals):
            expected = reference_aggregate(table, interval, method)
            assert_bitwise(out["X"][i], expected["X"])
            assert_bitwise(out["index"][i], expected["index"])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method", sorted(METHODS))
    @pytest.mark.parametrize("m", [1, 2])
    def test_large_segments(self, method, m):
        """Segments of 7 to 300 samples cross NumPy's pairwise blocks."""
        rng = np.random.default_rng(3)
        timestamps = np.sort(rng.uniform(0, 3000, size=3000))
        values = rng.normal(size=(len(timestamps), m)) * 1e3
        values[rng.random(values.shape) < 0.05] = np.nan
        table = np.column_stack([timestamps, values])
        for interval in (7.0, 50.0, 300.0):
            primitive = get_primitive("time_segments_aggregate",
                                      {"interval": interval,
                                       "method": method})
            out = primitive.produce_batch(data=[table, table[::-1]])
            expected = reference_aggregate(table, interval, method)
            for X in out["X"]:
                assert_bitwise(X, expected["X"])


# ---------------------------------------------------------------------- #
# reconstruction_errors
# ---------------------------------------------------------------------- #
@st.composite
def windowed(draw, n_signals=1):
    """``n_signals`` ``(y, y_hat)`` pairs of equally shaped windows."""
    shape = (draw(st.integers(1, 25)), draw(st.integers(1, 40))) + draw(
        st.sampled_from([(), (1,), (2,)]))
    arrays = hnp.arrays(float, shape, elements=free_values)
    return [(draw(arrays), draw(arrays)) for _ in range(n_signals)]


class TestReconstructionOracle:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(pairs=windowed(n_signals=3), step=st.integers(1, 3),
           smooth=st.booleans(), smoothing_window=st.integers(1, 12),
           aggregation=st.sampled_from(["median", "mean"]))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_batch_and_produce_match_position_loop(
            self, pairs, step, smooth, smoothing_window, aggregation):
        primitive = get_primitive("reconstruction_errors", {
            "step_size": step, "smooth": smooth,
            "smoothing_window": smoothing_window,
            "aggregation": aggregation})
        index = np.arange(len(pairs[0][0])) * 5 * step
        expected = [reference_reconstruction(
            y, y_hat, index, step, smooth, smoothing_window, aggregation)
            for y, y_hat in pairs]
        batch = primitive.produce_batch(
            y=[y for y, _ in pairs], y_hat=[y_hat for _, y_hat in pairs],
            index=[index] * len(pairs))
        for i, (y, y_hat) in enumerate(pairs):
            single = primitive.produce(y=y, y_hat=y_hat, index=index)
            for out in (single, {key: batch[key][i] for key in batch}):
                assert_bitwise(out["errors"], expected[i]["errors"])
                assert_bitwise(out["index"], expected[i]["index"])

    @pytest.mark.parametrize("aggregation", ["median", "mean"])
    def test_coverage_beyond_pairwise_block(self, aggregation):
        """150-sample windows: positions covered by up to 150 windows."""
        rng = np.random.default_rng(5)
        y = rng.normal(size=(200, 150, 1)) * 1e3
        y_hat = rng.normal(size=(200, 150, 1))
        index = np.arange(200)
        primitive = get_primitive("reconstruction_errors",
                                  {"aggregation": aggregation})
        out = primitive.produce(y=y, y_hat=y_hat, index=index)
        expected = reference_reconstruction(y, y_hat, index,
                                            aggregation=aggregation)
        assert_bitwise(out["errors"], expected["errors"])

    def test_gaps_between_windows_read_zero(self):
        y = np.ones((4, 2, 1))
        primitive = get_primitive("reconstruction_errors",
                                  {"step_size": 3, "smooth": False})
        out = primitive.produce(y=y, y_hat=np.zeros_like(y),
                                index=np.arange(4))
        assert_bitwise(out["errors"],
                       np.array([1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1.0]))


# ---------------------------------------------------------------------- #
# find_anomalies threshold selection
# ---------------------------------------------------------------------- #
z_ranges = st.sampled_from([(2.0, 12.0), (0.0, 3.0), (0.5, 4.0), (1.0, 1.0)])


def assert_rows_match_loop(windows, z_range):
    selected = _select_epsilons(windows, z_range)
    assert len(selected) == len(windows)
    for epsilon, errors in zip(selected, windows):
        assert_bitwise(np.float64(epsilon),
                       np.float64(reference_select_epsilon(errors, z_range)))


def reference_find_anomalies(errors, index, window_size_portion,
                             window_step_size_portion, min_percent=0.1,
                             padding=5, z_range=(2.0, 12.0)):
    """``find_anomalies`` with one threshold selection per window."""
    length = len(errors)
    window_size = max(10, int(length * window_size_portion))
    window_step = max(1, int(length * window_step_size_portion))
    flagged = np.zeros(length, dtype=bool)
    thresholds = np.full(length, np.inf)
    for start in range(0, max(1, length - window_size + 1), window_step):
        end = min(start + window_size, length)
        window_errors = errors[start:end]
        epsilon = reference_select_epsilon(window_errors, z_range)
        flagged[start:end] |= window_errors > epsilon
        thresholds[start:end] = np.minimum(thresholds[start:end], epsilon)
        if end == length:
            break
    sequences = _prune_anomalies(errors, find_sequences_mask(flagged),
                                 min_percent)
    anomalies = []
    for start, end in sequences:
        threshold = thresholds[start] if np.isfinite(thresholds[start]) \
            else 0.0
        anomalies.append((float(index[max(0, start - padding)]),
                          float(index[min(length - 1, end + padding)]),
                          float(np.mean(errors[start:end + 1]) - threshold)))
    return np.asarray(_merge_overlapping(anomalies)).reshape(-1, 3)


class TestSelectEpsilonOracle:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(windows=hnp.arrays(
        float, st.tuples(st.integers(1, 6), st.integers(1, 80)),
        elements=free_values), absolute=st.booleans(), z_range=z_ranges)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_per_z_loop(self, windows, absolute, z_range):
        assert_rows_match_loop(np.abs(windows) if absolute else windows,
                               z_range)

    @given(base=st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=2,
                         max_size=40),
           spikes=st.lists(st.integers(0, 39), max_size=4),
           z_range=z_ranges)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_ties_and_spikes(self, base, spikes, z_range):
        errors = np.asarray(base, dtype=float)
        for position in spikes:
            errors[position % len(errors)] = 50.0
        assert_rows_match_loop(np.stack([errors, errors[::-1]]), z_range)

    def test_constant_and_nan_windows(self):
        windows = np.array([
            np.full(4, 0.25),
            np.zeros(4),
            [1.0, np.nan, 3.0, 100.0],
            [np.nan] * 4,
            [0.0, -0.0, 0.0, 9.0],
            [1.0, 1.0, 1.0, 40.0],
        ])
        with np.errstate(invalid="ignore"):
            assert_rows_match_loop(windows, (2.0, 12.0))
            assert_rows_match_loop(windows, (0.0, 3.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @given(errors=hnp.arrays(float, st.integers(1, 250),
                             elements=free_values),
           absolute=st.booleans(),
           window_size_portion=st.sampled_from([0.05, 0.1, 0.33, 1.0]),
           window_step_size_portion=st.sampled_from([0.05, 0.1, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_find_anomalies_matches_window_loop(
            self, errors, absolute, window_size_portion,
            window_step_size_portion):
        errors = np.abs(errors) if absolute else errors
        index = np.arange(len(errors)) * 3 + 100
        primitive = get_primitive("find_anomalies", {
            "window_size_portion": window_size_portion,
            "window_step_size_portion": window_step_size_portion})
        out = primitive.produce(errors=errors, index=index)["anomalies"]
        assert_bitwise(out, reference_find_anomalies(
            errors, index, window_size_portion, window_step_size_portion))
