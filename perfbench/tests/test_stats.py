import pytest

import stats


@pytest.mark.parametrize("n, expected", [
    (5, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
    (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected
    if expected is not None:
        assert stats.beyond(n, expected) >= stats.MIN_BEYOND


def test_samples_for_is_the_smallest_count():
    assert stats.samples_for(90.0) == 100
    assert stats.samples_for(50.0) == 20
    assert stats.beyond(99, 90.0) == 9


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert stats.percentile(values, 50.0) == 50
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 100.0) == 100
    assert stats.percentile([7.0], 90.0) == 7.0


def test_relative_spread():
    assert stats.relative_spread([1.0] * 10) == 0.0
    assert stats.relative_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(0.15)


def test_local_speed_takes_the_probes_near_a_timing():
    speeds = [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (10.0, 9.0), (11.0, 9.0), (12.0, 9.0)]
    assert stats.local_speed(speeds, 1.0, 1.5, window=1.0) == 2.0
    assert stats.local_speed(speeds, 11.0, 11.0, window=1.0) == 9.0
    # Fewer than three probes in the window: the three nearest in time.
    assert stats.local_speed(speeds, 4.0, 4.0, window=0.5) == 2.0


def test_per_command_median_is_scaled_and_keeps_the_deadline():
    import run

    speeds = [(float(t), 2.0 * run.SPEED_REF_S) for t in range(10)]
    passes = [{"seconds": [0.4, run.DEADLINE_S], "start": [1.0, None]},
              {"seconds": [0.2, run.DEADLINE_S], "start": [5.0, None]},
              {"seconds": [0.3, run.DEADLINE_S], "start": [7.0, None]}]
    assert run.per_command(passes, "seconds") == [0.3, run.DEADLINE_S]
    assert run.per_command(passes, "seconds", speeds) == pytest.approx([0.15, run.DEADLINE_S])
