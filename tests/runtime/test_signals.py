"""Graceful-shutdown coordinator (satellite of the service PR)."""

import signal
import threading

import pytest

from repro.runtime.signals import GracefulShutdown, default_coordinator


class TestFlag:
    def test_fresh_coordinator_is_clear(self):
        coordinator = GracefulShutdown()
        assert not coordinator.requested
        assert coordinator.reason is None

    def test_request_trips_flag_with_reason(self):
        coordinator = GracefulShutdown()
        coordinator.request("drain")
        assert coordinator.requested
        assert coordinator.reason == "drain"

    def test_request_is_idempotent_first_reason_wins(self):
        coordinator = GracefulShutdown()
        coordinator.request("first")
        coordinator.request("second")
        assert coordinator.reason == "first"

    def test_reset_clears_flag_and_reason(self):
        coordinator = GracefulShutdown()
        coordinator.request("x")
        coordinator.reset()
        assert not coordinator.requested
        assert coordinator.reason is None

    def test_wait_returns_immediately_once_tripped(self):
        coordinator = GracefulShutdown()
        coordinator.request()
        assert coordinator.wait(timeout=0.0)

    def test_wait_times_out_while_clear(self):
        coordinator = GracefulShutdown()
        assert not coordinator.wait(timeout=0.01)

    def test_wait_wakes_other_thread(self):
        coordinator = GracefulShutdown()
        woke = threading.Event()

        def waiter():
            if coordinator.wait(timeout=5.0):
                woke.set()

        thread = threading.Thread(target=waiter)
        thread.start()
        coordinator.request()
        thread.join(timeout=5.0)
        assert woke.is_set()


class TestSignalPlumbing:
    @pytest.fixture(autouse=True)
    def _restore_sigterm(self):
        previous = signal.getsignal(signal.SIGTERM)
        yield
        signal.signal(signal.SIGTERM, previous)

    def test_signal_trips_flag_with_signal_name(self):
        coordinator = GracefulShutdown()
        coordinator.install(signals=(signal.SIGTERM,))
        try:
            signal.raise_signal(signal.SIGTERM)
            assert coordinator.requested
            assert coordinator.reason == "SIGTERM"
        finally:
            coordinator.uninstall()

    def test_uninstall_restores_previous_handler(self):
        marker = signal.signal(signal.SIGTERM, signal.SIG_IGN)
        try:
            coordinator = GracefulShutdown()
            coordinator.install(signals=(signal.SIGTERM,))
            coordinator.uninstall()
            assert signal.getsignal(signal.SIGTERM) is signal.SIG_IGN
        finally:
            signal.signal(signal.SIGTERM, marker)

    def test_second_signal_escalates_to_previous_handler(self):
        escalated = []
        signal.signal(signal.SIGTERM,
                      lambda signum, frame: escalated.append(signum))
        coordinator = GracefulShutdown()
        coordinator.install(signals=(signal.SIGTERM,))
        try:
            signal.raise_signal(signal.SIGTERM)
            assert coordinator.requested
            assert not escalated
            # second signal: the original handler is restored and
            # re-delivered, so a wedged drain can still be killed
            signal.raise_signal(signal.SIGTERM)
            assert escalated == [int(signal.SIGTERM)]
        finally:
            coordinator.uninstall()


class TestModuleCoordinator:
    def test_default_coordinator_is_shared(self):
        assert default_coordinator() is default_coordinator()
