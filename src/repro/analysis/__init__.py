"""Complexity reference curves, summary statistics and report formatting."""

from repro.analysis.complexity import (
    det_partition_message_bound,
    det_partition_time_bound,
    log_star,
    ln_star,
    mst_time_bound,
    rand_partition_message_bound,
    rand_partition_time_bound,
)
from repro.analysis.statistics import mean
from repro.analysis.reporting import Table, format_table

__all__ = [
    "det_partition_message_bound",
    "det_partition_time_bound",
    "log_star",
    "ln_star",
    "mst_time_bound",
    "rand_partition_message_bound",
    "rand_partition_time_bound",
    "mean",
    "Table",
    "format_table",
]
