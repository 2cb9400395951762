"""Tests for the time-domain RTN driver."""

import numpy as np
import pytest

from repro.config import DEVICE_ORDER, TABLE_I
from repro.rtn.transient import RtnTransientDriver


@pytest.fixture()
def driver():
    return RtnTransientDriver(TABLE_I, alpha=0.0, duration=50.0, seed=1)


class TestConstruction:
    def test_trap_counts_are_poissonian_scale(self, driver):
        counts = driver.trap_counts()
        assert set(counts) == set(DEVICE_ORDER)
        assert all(c >= 0 for c in counts.values())
        # loads have twice the area of drivers -> typically more traps
        total = sum(counts.values())
        assert 0 <= total < 60  # ~2-4 mean per device

    def test_validation(self):
        with pytest.raises(ValueError):
            RtnTransientDriver(TABLE_I, alpha=0.5, duration=0.0)
        with pytest.raises(ValueError):
            RtnTransientDriver(TABLE_I, alpha=0.5, duration=1.0,
                               time_scale=0.0)

    def test_reproducible_with_seed(self):
        a = RtnTransientDriver(TABLE_I, alpha=0.3, duration=10.0, seed=7)
        b = RtnTransientDriver(TABLE_I, alpha=0.3, duration=10.0, seed=7)
        assert a.trap_counts() == b.trap_counts()
        assert a.shifts_at(3.3) == b.shifts_at(3.3)


class TestShifts:
    def test_shifts_non_negative_and_quantised(self, driver):
        shifts = driver.shifts_at(12.5)
        for name, value in shifts.items():
            assert value >= 0.0
            per_trap = driver.shift_per_trap[name]
            assert value / per_trap == pytest.approx(
                round(value / per_trap), abs=1e-9)

    def test_time_scale_maps_circuit_time(self):
        driver = RtnTransientDriver(TABLE_I, alpha=0.0, duration=10.0,
                                    time_scale=1e9, seed=2)
        # 1 ns of circuit time = 1e-9 RTN units: effectively frozen traps
        a = driver.shifts_at(0.0)
        b = driver.shifts_at(1e-9)
        assert a == b

    def test_shifts_wrap_around_duration(self, driver):
        assert driver.shifts_at(0.5) == driver.shifts_at(
            0.5 + driver.duration)

    def test_average_occupancy_tracks_stationary(self):
        """Time-averaged occupied-trap fraction approaches the stationary
        occupancy used by the analytic model."""
        name = "D1"  # always-ON at alpha=0: occupancy ~0.99
        # the first seed whose draw has a D1 trap to average over
        for seed in range(20):
            driver = RtnTransientDriver(TABLE_I, alpha=0.0,
                                        duration=3000.0, seed=seed)
            n_traps = driver.trap_counts()[name]
            if n_traps > 0:
                break
        else:
            pytest.fail("no seed in 0..19 draws a D1 trap")
        times = np.linspace(0.0, driver.duration * 0.999, 4000)
        occupied = [driver.shifts_at(t)[name] / driver.shift_per_trap[name]
                    for t in times]
        assert np.mean(occupied) / n_traps == pytest.approx(0.99, abs=0.05)


class TestBinding:
    def test_bind_updates_circuit(self, driver, paper_cell):
        circuit = paper_cell.read_circuit()
        hook = driver.bind(circuit)
        hook(0.0)
        values = {name: circuit.element(name).delta_vth
                  for name in DEVICE_ORDER}
        assert all(v >= 0.0 for v in values.values())

    def test_bind_adds_static_shifts(self, driver, paper_cell):
        circuit = paper_cell.read_circuit()
        static = np.full(6, 0.01)
        hook = driver.bind(circuit, static_shifts=static)
        hook(0.0)
        rtn = driver.shifts_at(0.0)
        for name in DEVICE_ORDER:
            assert circuit.element(name).delta_vth == pytest.approx(
                rtn[name] + 0.01)

    def test_bad_static_shape_rejected(self, driver, paper_cell):
        with pytest.raises(ValueError, match="static_shifts"):
            driver.bind(paper_cell.read_circuit(), static_shifts=np.ones(4))
