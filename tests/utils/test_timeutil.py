"""Tests for clocks and time binning."""

from __future__ import annotations

import threading
import time

import pytest

from repro.utils.timeutil import SimulatedClock, SystemClock, bin_start, iter_bins


class TestSimulatedClock:
    def test_starts_at_given_time(self):
        clock = SimulatedClock(1_000)
        assert clock.now() == 1_000

    def test_sleep_advances(self):
        clock = SimulatedClock(0)
        clock.sleep(30)
        assert clock.now() == 30

    def test_negative_sleep_rejected(self):
        clock = SimulatedClock(0)
        with pytest.raises(ValueError):
            clock.sleep(-1)

    def test_set_forward_only(self):
        clock = SimulatedClock(100)
        clock.set(200)
        assert clock.now() == 200
        with pytest.raises(ValueError):
            clock.set(50)

    def test_wait_for_tests_the_predicate_then_advances_by_the_timeout(self):
        clock = SimulatedClock(100)
        condition = threading.Condition()
        assert clock.wait_for(condition, lambda: True, 30) is True
        assert clock.now() == 100  # nothing to wait for: no time passes
        started = time.perf_counter()
        assert clock.wait_for(condition, lambda: False, 30) is False
        assert clock.now() == 130
        assert time.perf_counter() - started < 1.0  # and no real time either


class TestSystemClock:
    def test_now_is_monotone_nondecreasing(self):
        clock = SystemClock()
        first = clock.now()
        second = clock.now()
        assert second >= first

    def test_wait_for_blocks_until_notified(self):
        clock = SystemClock()
        condition = threading.Condition()
        flag = []

        def fire():
            with condition:
                flag.append(True)
                condition.notify_all()

        timer = threading.Timer(0.05, fire)
        timer.start()
        try:
            started = time.perf_counter()
            assert clock.wait_for(condition, lambda: bool(flag), 5.0) is True
            assert time.perf_counter() - started < 1.0
        finally:
            timer.join(5)

    def test_wait_for_times_out(self):
        clock = SystemClock()
        started = time.perf_counter()
        assert clock.wait_for(threading.Condition(), lambda: False, 0.05) is False
        assert time.perf_counter() - started >= 0.04


class TestBinning:
    def test_bin_start_aligns_to_epoch(self):
        assert bin_start(1_438_415_400, 300) == 1_438_415_400
        assert bin_start(1_438_415_401, 300) == 1_438_415_400

    def test_bin_start_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bin_start(10, 0)

    def test_iter_bins_covers_range(self):
        bins = list(iter_bins(100, 700, 300))
        assert bins == [0, 300, 600]

    def test_iter_bins_empty_range(self):
        assert list(iter_bins(300, 300, 300)) == []

    def test_iter_bins_rejects_inverted(self):
        with pytest.raises(ValueError):
            list(iter_bins(10, 0, 5))
