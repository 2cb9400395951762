"""Tests for the 6T cell netlists."""

import numpy as np
import pytest

from repro.config import DEVICE_ORDER
from repro.spice import DcSolver
from repro.spice.model import NMOS_PTM16, PMOS_PTM16
from repro.sram.cell import SramCell


class TestConstruction:
    def test_models_follow_geometry(self, paper_cell):
        assert paper_cell.model("L1").w_nm == 60.0
        assert paper_cell.model("D1").w_nm == 30.0
        assert paper_cell.model("A2").l_nm == 16.0

    def test_loads_are_pmos_rest_nmos(self, paper_cell):
        for name in DEVICE_ORDER:
            expected = name.startswith("L") is False
            assert paper_cell.model(name).params.is_nmos is expected

    def test_wrong_polarity_cards_rejected(self):
        with pytest.raises(ValueError, match="polarity"):
            SramCell(nmos=PMOS_PTM16, pmos=PMOS_PTM16)
        with pytest.raises(ValueError, match="polarity"):
            SramCell(nmos=NMOS_PTM16, pmos=NMOS_PTM16)

    def test_invalid_vdd_rejected(self):
        with pytest.raises(ValueError, match="vdd"):
            SramCell(vdd=0.0)

    def test_nan_vdd_rejected(self):
        with pytest.raises(ValueError, match="vdd"):
            SramCell(vdd=float("nan"))


class TestReadCircuit:
    def test_topology(self, paper_cell):
        ckt = paper_cell.read_circuit()
        assert sorted(e.name for e in ckt.mosfets()) == sorted(DEVICE_ORDER)
        assert set(ckt.nodes) >= {"q", "qb", "vdd", "wl", "bl", "blb"}

    def test_read_state_is_preserved_for_nominal_cell(self, paper_cell):
        """A mismatch-free cell must hold its state through a read."""
        ckt = paper_cell.read_circuit()
        op = DcSolver(ckt).solve(initial_guess={
            "q": 0.0, "qb": 0.7, "vdd": 0.7, "wl": 0.7, "bl": 0.7,
            "blb": 0.7})
        assert op["qb"] > 0.55
        assert op["q"] < op["qb"]

    def test_shift_vector_applied(self, paper_cell):
        shifts = np.arange(6) * 1e-3
        ckt = paper_cell.read_circuit(delta_vth=shifts)
        for name, value in zip(DEVICE_ORDER, shifts):
            assert ckt.element(name).delta_vth == pytest.approx(value)

    def test_wrong_shift_shape_rejected(self, paper_cell):
        with pytest.raises(ValueError, match="delta_vth"):
            paper_cell.read_circuit(delta_vth=np.zeros(5))


class TestHalfCircuit:
    def test_side_selection(self, paper_cell):
        half0 = paper_cell.read_half_circuit(0)
        half1 = paper_cell.read_half_circuit(1)
        assert {e.name for e in half0.mosfets()} == {"L1", "D1", "A1"}
        assert {e.name for e in half1.mosfets()} == {"L2", "D2", "A2"}

    def test_invalid_side_rejected(self, paper_cell):
        with pytest.raises(ValueError, match="side"):
            paper_cell.read_half_circuit(2)

    def test_half_cell_solves(self, paper_cell):
        ckt = paper_cell.read_half_circuit(0)
        op = DcSolver(ckt).solve()
        assert 0.0 <= op["out"] <= 0.7
