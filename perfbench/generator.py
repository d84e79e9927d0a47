"""Seeded input generator for the benchmark workloads.

Every input the program sees is built here, from the ``--seed`` argument,
before any timing starts: labeled univariate signals (periodic base plus
noise, with collective level-shift anomalies), training signals, and the
request schedules of the open-loop workloads. Only NumPy is used, so the
inputs do not depend on the code under test.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Seconds between two samples of every generated signal.
STEP = 60.0
#: Level added from ``shift_at`` on (a persistent regime shift).
SHIFT_LEVEL = 2.5
#: Samples per period of the base waveform. Fixed, like the amplitude and
#: the noise level, so that the work a signal costs does not depend on the
#: seed; the seed moves phases, noise and anomaly positions and signs.
PERIOD = 50.0


class WorkloadGenerator:
    """Deterministic inputs keyed by ``(seed, stream...)``.

    Each call draws from its own ``default_rng([seed, *key])`` stream, so
    adding a new input never changes the ones already generated.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def rng(self, *key) -> np.random.Generator:
        """The generator of one input; ``key`` parts are ints or strings."""
        parts = [part if isinstance(part, int)
                 else zlib.crc32(str(part).encode()) for part in key]
        return np.random.default_rng([self.seed, *parts])

    def training_signal(self, key: tuple, length: int):
        """An anomaly-free training signal that is the same for every seed.

        The hub's NN primitives stop training early on a validation-loss
        plateau, so their fit time depends on the training data; a fixed
        training set keeps fit times comparable across seeds. The signals
        scored vary with the seed.
        """
        return WorkloadGenerator(0).signal(("train", *key), length)[0]

    def signal(self, key: tuple, length: int, n_anomalies: int = 0,
               start_index: int = 0, margin: int = 150,
               shift_at: int = None):
        """One labeled signal: ``(rows, labels)``.

        ``rows`` is a ``(length, 2)`` float array of ``(timestamp, value)``;
        ``labels`` lists the ``(start, end)`` timestamps of the injected
        anomalies. ``shift_at`` (a row index) starts a persistent regime
        shift: the level moves by ``SHIFT_LEVEL`` from there on.
        """
        rng = self.rng(1, *key)
        index = np.arange(start_index, start_index + length, dtype=float)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        values = np.sin(2.0 * np.pi * index / PERIOD + phase)
        values += 0.3 * np.sin(6.0 * np.pi * index / PERIOD + 2.0 * phase)
        values += rng.normal(0.0, 0.05, length)
        labels = []
        if n_anomalies:
            usable = length - 2 * margin
            slot = usable // n_anomalies
            for number in range(n_anomalies):
                width = int(rng.integers(20, 30))
                offset = margin + number * slot + int(
                    rng.integers(0, max(1, slot - width)))
                sign = 1.0 if rng.random() < 0.5 else -1.0
                values[offset:offset + width] += sign * rng.uniform(2.5, 3.0)
                labels.append((float((start_index + offset) * STEP),
                               float((start_index + offset + width - 1)
                                     * STEP)))
        if shift_at is not None:
            values[shift_at:] += SHIFT_LEVEL
        rows = np.column_stack([index * STEP, values])
        return rows, labels
