"""The benchmark's statistics: the tail rule and the residual arithmetic."""

import pytest

from common import Tracer, percentile, residual, tail, tail_percentile


def test_tail_leaves_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(50) == 80.0
    samples = list(range(1, 101))
    pct, value = tail(samples)
    assert (pct, value) == (90.0, 90)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_is_capped_at_p99():
    assert tail_percentile(100_000) == 99.0
    pct, value = tail(list(range(1, 10_001)))
    assert (pct, value) == (99.0, 9900)


def test_tail_of_few_samples_reads_as_the_median():
    assert tail_percentile(15) == 50.0
    assert tail_percentile(1) == 50.0
    assert tail([3.0, 1.0, 2.0]) == (50.0, 2.0)
    assert tail([8.0, 10.0]) == (50.0, 9.0)  # the median, as p50 reports it


def test_percentile_is_nearest_rank():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 100) == 5
    assert percentile([5, 1, 4, 2, 3], 1) == 1
    with pytest.raises(ValueError):
        percentile([], 50)


def test_residual_is_wall_minus_attributed_parts():
    unattributed, share = residual(10.0, [3.0, 4.0])
    assert unattributed == pytest.approx(3.0)
    assert share == pytest.approx(0.7)


def test_residual_goes_negative_when_parts_overrun_the_wall():
    unattributed, share = residual(2.0, [1.5, 1.0])
    assert unattributed == pytest.approx(-0.5)
    assert share == pytest.approx(1.25)
    with pytest.raises(ValueError):
        residual(0.0, [1.0])


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    tracer.spans = [
        ["solve", 0.0, 10.0, None],
        ["mis", 1.0, 4.0, 0],
        ["cds", 3.0, 6.0, 0],   # overlaps "mis": the union is 1..6
        ["leaf", 3.5, 4.5, 2],
        ["io", 12.0, 13.0, None],
    ]
    selfs = tracer.self_times()
    assert selfs["solve"] == pytest.approx(5.0)
    assert selfs["mis"] == pytest.approx(3.0)
    assert selfs["cds"] == pytest.approx(2.0)
    assert selfs["leaf"] == pytest.approx(1.0)
    assert tracer.top_level() == pytest.approx(11.0)
    assert tracer.durations(["solve", "absent"]) == {"solve": 10.0, "absent": 0.0}


def test_spans_nest_in_call_order():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    assert [s[0] for s in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0
    assert tracer.spans[0][1] <= tracer.spans[1][1] <= tracer.spans[1][2] \
        <= tracer.spans[0][2]


def test_speed_factor_brackets_the_timed_interval():
    from common import REFERENCE_S, Speed

    speed = Speed(ctx=None)
    speed.samples = [REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    speed.stamps = [1.0, 5.0, 9.0]
    # The last sample ended by the start and the first after the end.
    assert speed.factor(5.0, 8.0) == pytest.approx(3.0)
    assert speed.factor(1.5, 4.0) == pytest.approx(1.5)
    # Without a sample on one side, the other alone sets the factor.
    assert speed.factor(9.5, 10.0) == pytest.approx(4.0)
    assert speed.factor(0.0, 0.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        Speed(ctx=None).factor(0.0, 1.0)
