"""Sleep controller: PC6 state machine, wake latency accounting."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.server.sleep import SleepController, SleepState


@pytest.fixture()
def sleep(config):
    return SleepController(config)


class TestStateMachine:
    def test_starts_active(self, sleep):
        assert sleep.state is SleepState.ACTIVE
        assert not sleep.in_deep_sleep

    def test_enter_and_wake(self, sleep):
        sleep.enter_pc6(runnable_apps=0)
        assert sleep.in_deep_sleep
        sleep.wake()
        assert not sleep.in_deep_sleep

    def test_enter_with_running_apps_rejected(self, sleep):
        with pytest.raises(SimulationError):
            sleep.enter_pc6(runnable_apps=2)

    def test_reentry_is_idempotent(self, sleep, config):
        sleep.enter_pc6(0)
        sleep.enter_pc6(0)
        assert sleep.in_deep_sleep
        assert sleep.wake() == config.pc6_wake_latency_s
        assert not sleep.in_deep_sleep

    def test_wake_when_awake_is_free(self, sleep):
        assert sleep.wake() == 0.0
        assert sleep.consume_wake_penalty(0.1) == 1.0


class TestWakePenalty:
    def test_wake_returns_latency(self, sleep, config):
        sleep.enter_pc6(0)
        assert sleep.wake() == config.pc6_wake_latency_s

    def test_penalty_consumed_from_next_tick(self, sleep, config):
        sleep.enter_pc6(0)
        sleep.wake()
        dt = 0.1
        usable = sleep.consume_wake_penalty(dt)
        assert usable == pytest.approx(1.0 - config.pc6_wake_latency_s / dt)

    def test_penalty_consumed_only_once(self, sleep):
        sleep.enter_pc6(0)
        sleep.wake()
        sleep.consume_wake_penalty(0.1)
        assert sleep.consume_wake_penalty(0.1) == 1.0

    def test_long_penalty_spills_over_ticks(self, sleep, config):
        # A tick shorter than the wake latency: 2/3 of it per tick.
        tick = config.pc6_wake_latency_s * 2.0 / 3.0
        sleep.enter_pc6(0)
        sleep.wake()
        assert sleep.consume_wake_penalty(tick) == 0.0  # fully eaten
        assert sleep.consume_wake_penalty(tick) == pytest.approx(0.5)

    def test_invalid_tick_rejected(self, sleep):
        with pytest.raises(ConfigurationError):
            sleep.consume_wake_penalty(0.0)


class TestSteadyGate:
    def test_queued_wake_latency_is_not_steady(self, sleep):
        assert not sleep.waking
        sleep.enter_pc6(runnable_apps=0)
        sleep.wake()
        assert sleep.waking
        while sleep.consume_wake_penalty(1e-4) < 1.0:
            pass
        assert not sleep.waking
