"""Partitioning a multimedia network into O(√n) low-radius fragments.

The partition is the "divide" stage of every algorithm in the paper: it
produces a spanning forest whose trees are small enough in radius that the
local (point-to-point) stage finishes in O(√n) time, and few enough in number
that the global (channel) stage finishes in Õ(√n) slots.
"""

from repro.core.partition.forest import SpanningForest
from repro.core.partition.deterministic import (
    DeterministicPartitioner,
    DeterministicPartitionResult,
    PhaseRecord,
)
from repro.core.partition.randomized import (
    RandomizedPartitioner,
    RandomizedPartitionResult,
)
from repro.core.partition.validation import (
    PartitionReport,
    validate_partition,
)

__all__ = [
    "SpanningForest",
    "DeterministicPartitioner",
    "DeterministicPartitionResult",
    "PhaseRecord",
    "RandomizedPartitioner",
    "RandomizedPartitionResult",
    "PartitionReport",
    "validate_partition",
]
