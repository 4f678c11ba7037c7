"""Deterministic timing of the resilience toolkit under a fake clock.

Backoff schedules, seeded jitter and supervisor restart budgets are all
asserted with exact clock arithmetic on a :class:`SimulatedClock` — no
real sleeping, no wall-clock reads, no flakiness.
"""

from __future__ import annotations

import inspect
import threading

import pytest

from repro.core.resilience import RetryPolicy, Supervisor, TransientError
from repro.utils.timeutil import SimulatedClock

from tests.fault_injection import FaultPlan, InjectedFault, inject_faults


class TestRetryPolicy:
    def test_capped_exponential_schedule(self):
        policy = RetryPolicy(max_retries=6, base=0.5, cap=4.0)
        assert policy.delays() == [0.5, 1.0, 2.0, 4.0, 4.0, 4.0]

    def test_run_sleeps_the_schedule_on_the_injected_clock(self):
        clock = SimulatedClock(0.0)
        policy = RetryPolicy(max_retries=3, base=0.5, cap=30.0)
        calls = []

        def flaky():
            calls.append(clock.now())
            if len(calls) < 3:
                raise TransientError("transient")
            return "ok"

        assert policy.run(flaky, clock=clock) == "ok"
        # Attempts at t=0, t=0.5, t=1.5 (0.5 then 1.0 backoff).
        assert calls == [0.0, 0.5, 1.5]
        assert clock.now() == pytest.approx(1.5)

    def test_retries_exhausted_raises_the_last_error(self):
        clock = SimulatedClock(0.0)
        policy = RetryPolicy(max_retries=2, base=1.0, cap=30.0)
        attempts = []

        def always_fails():
            attempts.append(1)
            raise ConnectionError("down")

        with pytest.raises(ConnectionError):
            policy.run(always_fails, clock=clock)
        assert len(attempts) == 3  # initial + 2 retries
        assert clock.now() == pytest.approx(3.0)  # 1 + 2

    def test_non_retryable_errors_propagate_immediately(self):
        policy = RetryPolicy(max_retries=5, base=1.0)
        clock = SimulatedClock(0.0)

        def typo():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            policy.run(typo, clock=clock)
        assert clock.now() == 0.0  # no backoff was slept

    def test_on_retry_hook_sees_attempt_error_and_delay(self):
        clock = SimulatedClock(0.0)
        policy = RetryPolicy(max_retries=2, base=0.5, cap=30.0)
        seen = []

        def flaky():
            if len(seen) < 2:
                raise TransientError("boom")
            return 42

        policy.run(
            flaky,
            clock=clock,
            on_retry=lambda attempt, exc, delay: seen.append((attempt, type(exc), delay)),
        )
        assert seen == [(1, TransientError, 0.5), (2, TransientError, 1.0)]

    def test_seeded_jitter_is_deterministic_and_bounded(self):
        schedule_a = RetryPolicy(max_retries=8, base=1.0, cap=64.0, jitter=0.5, seed=7).delays()
        schedule_b = RetryPolicy(max_retries=8, base=1.0, cap=64.0, jitter=0.5, seed=7).delays()
        schedule_c = RetryPolicy(max_retries=8, base=1.0, cap=64.0, jitter=0.5, seed=8).delays()
        assert schedule_a == schedule_b  # same seed, same schedule
        assert schedule_a != schedule_c  # different seed, different schedule
        plain = RetryPolicy(max_retries=8, base=1.0, cap=64.0).delays()
        for jittered, nominal in zip(schedule_a, plain):
            assert nominal * 0.5 <= jittered <= nominal * 1.5

    def test_zero_jitter_means_no_rng(self):
        assert RetryPolicy(jitter=0.0).delays() == RetryPolicy(jitter=0.0).delays()

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)


class TestSupervisor:
    def test_clean_run_never_restarts(self):
        supervisor = Supervisor(lambda: None, max_restarts=3, clock=SimulatedClock(0.0))
        supervisor.supervise()
        assert supervisor.finished
        assert supervisor.crashes == 0
        assert supervisor.restarts == 0
        assert not supervisor.gave_up

    def test_restarts_with_backoff_until_success(self):
        clock = SimulatedClock(0.0)
        crashes = []

        def run():
            if len(crashes) < 2:
                crashes.append(clock.now())
                raise RuntimeError("bridge died")

        supervisor = Supervisor(
            run,
            max_restarts=5,
            backoff=RetryPolicy(max_retries=5, base=0.5, cap=30.0),
            clock=clock,
        )
        supervisor.supervise()
        assert supervisor.finished
        assert supervisor.crashes == 2
        assert supervisor.restarts == 2
        assert crashes == [0.0, 0.5]  # second attempt after the 0.5s backoff
        assert clock.now() == pytest.approx(1.5)  # 0.5 + 1.0 slept in total

    def test_budget_exhaustion_gives_up_cleanly_and_raises(self):
        clock = SimulatedClock(0.0)
        given_up = []

        def run():
            raise RuntimeError("always")

        supervisor = Supervisor(
            run,
            max_restarts=2,
            backoff=RetryPolicy(max_retries=2, base=1.0, cap=30.0),
            clock=clock,
            on_give_up=lambda exc: given_up.append(type(exc)),
        )
        with pytest.raises(RuntimeError):
            supervisor.supervise()
        assert supervisor.gave_up
        assert supervisor.crashes == 3  # initial + 2 restarts
        assert supervisor.restarts == 2
        assert given_up == [RuntimeError]
        assert supervisor.snapshot()["error"] == "RuntimeError"

    def test_on_crash_veto_stops_restarting(self):
        def run():
            raise RuntimeError("x")

        supervisor = Supervisor(
            run,
            max_restarts=10,
            clock=SimulatedClock(0.0),
            on_crash=lambda exc, n: False,
        )
        with pytest.raises(RuntimeError):
            supervisor.supervise()
        assert supervisor.crashes == 1
        assert supervisor.restarts == 0
        assert supervisor.gave_up

    def test_on_crash_sees_the_crash_number(self):
        seen = []

        def run():
            if len(seen) < 3:
                raise TransientError("x")

        supervisor = Supervisor(
            run,
            max_restarts=5,
            backoff=RetryPolicy(max_retries=5, base=0.0),
            clock=SimulatedClock(0.0),
            on_crash=lambda exc, n: seen.append(n) or True,
        )
        supervisor.supervise()
        assert seen == [1, 2, 3]

    def test_threaded_form_records_instead_of_raising(self):
        done = threading.Event()

        def run():
            try:
                raise ValueError("terminal")
            finally:
                done.set()

        supervisor = Supervisor(run, max_restarts=0, clock=SimulatedClock(0.0))
        thread = supervisor.start()
        assert done.wait(5.0)
        thread.join(5.0)
        assert not thread.is_alive()
        assert supervisor.gave_up
        assert isinstance(supervisor.last_error, ValueError)

    def test_single_use(self):
        supervisor = Supervisor(lambda: None)
        supervisor.start().join(5.0)
        with pytest.raises(RuntimeError):
            supervisor.start()


class TestFaultInjection:
    class Source:
        """A stand-in poll target with an introspectable signature."""

        def __init__(self):
            self.polls = 0

        def poll(self, max_messages=None, until_ts=None):
            self.polls += 1
            return ["msg"]

    def test_plan_fails_at_scripted_indices(self):
        plan = FaultPlan(fail_at=(1, 3))
        source = inject_faults(self.Source(), plan, ["poll"])
        results = []
        for _ in range(5):
            try:
                results.append(bool(source.poll()))
            except InjectedFault:
                results.append(False)
        assert results == [True, False, True, False, True]
        assert plan.calls == 5
        assert plan.injected == 2

    def test_fail_from_is_a_permanent_outage(self):
        plan = FaultPlan(fail_from=2)
        source = inject_faults(self.Source(), plan, ["poll"])
        assert source.poll() and source.poll()
        for _ in range(3):
            with pytest.raises(InjectedFault):
                source.poll()

    def test_injected_error_is_transient_by_default(self):
        plan = FaultPlan(fail_at=(0,))
        with pytest.raises(TransientError):
            inject_faults(self.Source(), plan, ["poll"]).poll()

    def test_custom_error_class(self):
        plan = FaultPlan(fail_at=(0,), error=OSError)
        with pytest.raises(OSError):
            inject_faults(self.Source(), plan, ["poll"]).poll()

    def test_fault_fires_before_the_call_reaches_the_target(self):
        inner = self.Source()
        source = inject_faults(inner, FaultPlan(fail_at=(0,)), ["poll"])
        with pytest.raises(InjectedFault):
            source.poll()
        assert inner.polls == 0  # all-or-nothing: no partial side effects

    def test_wrapper_preserves_signatures_and_reads(self):
        inner = self.Source()
        source = inject_faults(inner, FaultPlan(), ["poll"])
        # The live interface feature-detects until_ts via inspect.signature;
        # the wrapper must not hide it.
        assert "until_ts" in inspect.signature(source.poll).parameters
        assert source.polls == 0  # attribute reads pass through
        source.poll()
        assert source.polls == 1

    def test_one_plan_can_guard_several_objects(self):
        plan = FaultPlan(fail_at=(1,))
        a = inject_faults(self.Source(), plan, ["poll"])
        b = inject_faults(self.Source(), plan, ["poll"])
        a.poll()  # call 0: fine
        with pytest.raises(InjectedFault):
            b.poll()  # call 1 across the shared counter: fails

    def test_retry_policy_absorbs_transient_injected_faults(self):
        clock = SimulatedClock(0.0)
        plan = FaultPlan(fail_at=(0, 1))
        source = inject_faults(self.Source(), plan, ["poll"])
        policy = RetryPolicy(max_retries=3, base=0.5, cap=30.0)
        assert policy.run(source.poll, clock=clock) == ["msg"]
        assert clock.now() == pytest.approx(1.5)
        assert plan.injected == 2
