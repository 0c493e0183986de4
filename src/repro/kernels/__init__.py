"""Sequential building blocks: partitioning, selection, weighted median,
bucket preprocessing — each with a simulated-cost companion.

Ranks run them through :class:`CostedKernels`, which charges each pass
from the cost formulas. The 3-way split gathers each side only when it is
read (:class:`~repro.kernels.partition.Partition3`).
"""

from .buckets import BucketScan, LocalBuckets, build_cost, default_n_buckets
from .costed import CostedKernels
from .partition import (
    Partition2,
    Partition3,
    count3,
    partition2,
    partition3,
    partition_band,
    partition_cost,
)
from .select import (
    SelectMethod,
    local_median,
    median_rank,
    select_cost,
    select_deterministic,
    select_introselect,
    select_kth,
    select_randomized,
)
from .weighted_median import weighted_median, weighted_median_cost

__all__ = [
    "BucketScan",
    "LocalBuckets",
    "build_cost",
    "default_n_buckets",
    "CostedKernels",
    "Partition2",
    "Partition3",
    "count3",
    "partition2",
    "partition3",
    "partition_band",
    "partition_cost",
    "SelectMethod",
    "local_median",
    "median_rank",
    "select_cost",
    "select_deterministic",
    "select_introselect",
    "select_kth",
    "select_randomized",
    "weighted_median",
    "weighted_median_cost",
]
