"""The p90 sample rule and failure accounting of the closed loop."""

import itertools

import pytest

from perfbench.stats import (
    CALIB_REF_S,
    OpFailure,
    beyond,
    closed_loop,
    host_factor,
    median,
    min_samples,
    percentile,
)


class FakeClock:
    """Advances by ``step`` seconds on every reading."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def test_p90_needs_100_samples_for_10_beyond():
    assert min_samples(0.9) == 100
    assert beyond(100, 0.9) == 10
    assert beyond(99, 0.9) == 9


def test_p90_refuses_too_few_samples():
    with pytest.raises(ValueError, match="need 10"):
        percentile([float(i) for i in range(99)], 0.9)
    with pytest.raises(ValueError):
        percentile([], 0.9)


def test_p90_nearest_rank():
    samples = [float(i) for i in range(1, 101)]
    assert percentile(samples, 0.9) == 90.0
    assert sum(1 for s in samples if s > 90.0) == 10
    assert median([3.0, 1.0, 2.0]) == 2.0


def _fails_some(item):
    if item % 7 == 3:
        raise OpFailure(f"wrong digest for {item}")
    if item % 11 == 5:
        raise ValueError("unexpected")
    return 2


def test_failures_are_counted_and_keep_their_latency():
    cleaned = []
    loop = closed_loop(_fails_some, itertools.count(), seconds=0,
                       deck_len=10, min_ops=30, after_op=cleaned.append,
                       clock=FakeClock())
    assert loop.attempted == 30
    failing = [i for i in range(30) if i % 7 == 3 or i % 11 == 5]
    assert loop.failed == len(failing)
    assert loop.error_rate == len(failing) / 30
    assert cleaned == list(range(30))          # cleanup after every op
    assert len(loop.latencies) == 30           # failed ops stay in the tail
    assert loop.instances == 2 * (30 - len(failing))
    assert any("OpFailure: wrong digest for 3" in f for f in loop.failures)
    assert any("ValueError: unexpected" in f for f in loop.failures)


def test_loop_runs_whole_decks_until_time_and_count():
    # three clock readings per op: op i starts 1.5 * i + 0.5 s in, so 25 s
    # pass during op 17 and the loop ends with the deck that op 19 closes
    loop = closed_loop(lambda item: 0, itertools.count(), seconds=25,
                       deck_len=4, min_ops=10, clock=FakeClock())
    assert loop.attempted == 20
    # the op count binds when time alone would stop earlier
    loop = closed_loop(lambda item: 0, itertools.count(), seconds=1,
                       deck_len=4, min_ops=10, clock=FakeClock())
    assert loop.attempted == 12


def test_loop_stops_mid_deck_at_its_time_limit():
    loop = closed_loop(lambda item: 0, itertools.count(), seconds=1,
                       deck_len=1000, min_ops=10, clock=FakeClock(),
                       max_s=20)
    assert 0 < loop.attempted < 1000


def test_host_factor_is_median_calibration_over_reference():
    assert host_factor([]) == 1.0
    assert host_factor([CALIB_REF_S * k for k in (3, 1, 2)]) == 2.0


def test_loop_calibrates_between_ops_at_most_every_quarter_second():
    # 0.15 s of fake time per op: a calibration after every second op
    loop = closed_loop(lambda item: 0, itertools.count(), seconds=0,
                       deck_len=1, min_ops=20, clock=FakeClock(0.05),
                       calibrate=lambda: 2 * CALIB_REF_S)
    assert loop.attempted == 20
    assert 8 <= len(loop.calibrations) <= 11
    assert loop.host_factor == 2.0
