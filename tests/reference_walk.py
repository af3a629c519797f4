"""Test oracle: the plain per-epoch shape walk and the cost accounting over it.

Each epoch draws the ``n // min(batch) + 2`` entries no epoch can outrun,
one epoch per call, and the accounting sums each epoch's volumes as a float.
``test_walk.py`` checks the blocked walk of ``batchforge.samplers`` and the
counts of ``batchforge.analysis`` against it.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from batchforge.core import SamplerConfig
from batchforge.rng import choice_at, derive_seed
from batchforge.samplers import batch_table, shape_table, unit_volume


def reference_epoch_shapes(config: SamplerConfig, epoch: int, n_active: int) -> tuple[np.ndarray, np.ndarray]:
    """(shape indices, batch sizes) of one epoch."""
    sizes = batch_table(config)
    if n_active <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    bound = n_active // int(sizes.min()) + 2
    if len(sizes) == 1:
        draws = np.zeros(bound, dtype=np.int64)
    else:
        draws = choice_at(config.seed, epoch, np.arange(bound), shape_table(config)[1], len(sizes))
    batches = sizes[draws]
    served = np.cumsum(batches)
    if config.drop_last:
        count = int(np.searchsorted(served, n_active, side="right"))
        batches = batches[:count]
    else:
        count = int(np.searchsorted(served, n_active, side="left")) + 1
        batches = np.diff(np.minimum(served[:count], n_active), prepend=0)
    return draws[:count], batches


def reference_cost(config: SamplerConfig, channels: int = 3) -> tuple[int, int, float | None]:
    """(updates, peak, mean) input volume over every epoch of the whole dataset; no mean without updates."""
    unit = np.array([unit_volume(shape) for shape in shape_table(config)[0]], dtype=np.int64)
    count, peak, total = 0, 0, 0.0
    for epoch in range(config.epochs):
        shape_idx, batches = reference_epoch_shapes(config, epoch, config.dataset_size)
        volumes = batches * unit[shape_idx] * channels
        if len(volumes):
            count += len(volumes)
            peak = max(peak, int(volumes.max()))
            total += float(volumes.sum())
    return count, peak, total / count if count else None


def reference_simulation(config: SamplerConfig, trials: int) -> tuple[float, float | None]:
    """(mean, stderr) of the update counts over ``trials`` derived seeds."""
    counts = np.array(
        [reference_cost(replace(config, seed=derive_seed(config.seed, trial)))[0] for trial in range(trials)],
        dtype=np.float64,
    )
    stderr = float(counts.std(ddof=1) / math.sqrt(trials)) if trials > 1 else None
    return float(counts.mean()), stderr
