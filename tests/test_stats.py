"""Unit tests for histograms, percentiles, breakdowns."""

import pytest

from repro.common.stats import Histogram, LatencyBreakdown, percentile


class TestPercentile:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_pct(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_sample(self):
        assert percentile([7.0], 99) == 7.0

    def test_median_interpolation(self):
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5

    def test_extremes(self):
        data = list(range(101))
        assert percentile(data, 0) == 0
        assert percentile(data, 100) == 100
        assert percentile(data, 99) == 99

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 50) == 3.0


class TestHistogram:
    def test_basic_stats(self):
        h = Histogram()
        for v in [1.0, 2.0, 3.0, 4.0]:
            h.record(v)
        assert h.count == 4
        assert h.mean() == 2.5
        assert h.min() == 1.0
        assert h.max() == 4.0
        assert h.pct(50) == 2.5

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            Histogram().mean()


class TestLatencyBreakdown:
    def test_averages(self):
        b = LatencyBreakdown()
        b.record_fault({"fetch": 2.0, "sw": 1.0})
        b.record_fault({"fetch": 4.0})
        assert b.fault_count == 2
        avgs = b.averages()
        assert avgs["fetch"] == 3.0
        assert avgs["sw"] == 0.5
        assert b.average_total() == pytest.approx(3.5)

    def test_empty(self):
        b = LatencyBreakdown()
        assert b.averages() == {}
        with pytest.raises(ValueError):
            b.average_total()
