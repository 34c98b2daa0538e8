"""Tests for complexity curves, statistics and report formatting."""


import pytest

from repro.analysis.complexity import (
    det_partition_message_bound,
    det_partition_time_bound,
    global_det_time_bound,
    global_rand_time_bound,
    mst_time_bound,
    rand_partition_message_bound,
)
from repro.analysis.reporting import Table, format_table
from repro.analysis.statistics import mean

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


class TestComplexityCurves:
    def test_time_bounds_grow_sublinearly(self):
        assert det_partition_time_bound(400) < 400
        assert det_partition_time_bound(10_000) / det_partition_time_bound(100) < 100

    def test_message_bounds_include_m(self):
        assert det_partition_message_bound(100, 5000) >= 5000
        assert rand_partition_message_bound(100, 5000) >= 5000

    def test_global_bounds_ordering(self):
        # the deterministic bound is larger than the randomized one
        for n in (64, 256, 1024):
            assert global_det_time_bound(n) >= global_rand_time_bound(n) / 4

    def test_mst_bound(self):
        assert mst_time_bound(1024) == pytest.approx(32 * 10)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            det_partition_time_bound(0)
        with pytest.raises(ValueError):
            det_partition_message_bound(10, -1)


class TestStatistics:
    def test_mean(self):
        assert mean([2, 4, 6]) == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])

    @pytest.mark.skipif(np is None, reason="numpy unavailable")
    def test_matches_numpy(self):
        values = [1.5, 2.25, 8.0, -3.0, 0.5]
        assert mean(values) == pytest.approx(float(np.mean(values)))


class TestReporting:
    def test_table_rendering_contains_rows(self):
        table = Table(title="demo", columns=["n", "value"])
        table.add_row(64, 1.2345)
        table.add_row(128, 7)
        text = table.render()
        assert "demo" in text
        assert "1.23" in text
        assert "128" in text

    def test_row_arity_checked(self):
        table = Table(title="t", columns=["a", "b"])
        with pytest.raises(ValueError):
            table.add_row(1)

    def test_format_table_alignment(self):
        text = format_table("t", ["col"], [["x"], ["longer"]])
        lines = text.splitlines()
        assert len(lines) == 6
        assert lines[2].startswith("col")
