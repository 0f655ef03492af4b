"""The percentile helper reports no tail it cannot back with ten samples."""

import pytest

from calbench.stats import percentile, tail_level


@pytest.mark.parametrize(
    "n, level",
    [(1, 50.0), (39, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_level_has_ten_samples_beyond(n, level):
    assert tail_level(n) == level


def test_percentile_is_nearest_rank():
    samples = list(range(1, 1001))
    assert percentile(samples, 50.0) == 500
    assert percentile(samples, 99.0) == 990
    assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0


def test_percentile_refuses_a_tail_without_ten_samples_beyond():
    with pytest.raises(ValueError):
        percentile(list(range(999)), 99.0)
    with pytest.raises(ValueError):
        percentile([], 50.0)
