"""The 6T SRAM cell: device table and reference netlists.

Topology (paper Fig. 5a)::

           VDD                VDD
            |                  |
      L1 -o|                  |o- L2
            |                  |
   BL --[A1]-- Q ----+  +---- QB --[A2]-- BLB
            |        |  |      |
      D1 --|         x  x     |-- D2     (x = cross-coupling:
            |                  |          gate of L1/D1 = QB,
           GND                GND         gate of L2/D2 = Q)

Inverter A = (L1, D1) drives Q with input QB; inverter B = (L2, D2) drives
QB with input Q; A1/A2 connect Q/QB to the bitlines when the wordline is
high.  Storing "0" means Q low / QB high.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DEVICE_ORDER, CellGeometry
from repro.spice.elements import Mosfet, VoltageSource
from repro.spice.model import (
    NMOS_PTM16,
    PMOS_PTM16,
    MosfetModel,
    MosfetParams,
)
from repro.spice.netlist import Circuit


@dataclass
class SramCell:
    """A 6T cell: geometry plus transistor parameter cards.

    Parameters
    ----------
    geometry:
        Channel geometries (paper Table I defaults).
    nmos, pmos:
        Compact-model parameter cards shared by all n/p devices.
    vdd:
        Default supply [V] for circuits built from this cell.
    """

    geometry: CellGeometry = field(default_factory=CellGeometry)
    nmos: MosfetParams = NMOS_PTM16
    pmos: MosfetParams = PMOS_PTM16
    vdd: float = 0.7

    def __post_init__(self):
        if not self.vdd > 0:
            raise ValueError(f"vdd must be positive, got {self.vdd}")
        if not self.nmos.is_nmos or self.pmos.is_nmos:
            raise ValueError("nmos/pmos parameter cards have wrong polarity")
        self._models = {name: self._build_model(name) for name in DEVICE_ORDER}

    def _build_model(self, name: str) -> MosfetModel:
        params = self.pmos if name.startswith("L") else self.nmos
        dev = self.geometry.device(name)
        return MosfetModel(params, dev.w_nm, dev.l_nm)

    # ------------------------------------------------------------------
    def model(self, name: str) -> MosfetModel:
        """Compact model instance for device ``name``."""
        return self._models[name]

    def device_names(self) -> tuple[str, ...]:
        return DEVICE_ORDER

    # ------------------------------------------------------------------
    def read_circuit(self, delta_vth=None,
                     vdd: float | None = None) -> Circuit:
        """Full cross-coupled cell under read bias (WL high, bitlines high).

        ``delta_vth`` is a per-device shift vector [V] following
        :data:`DEVICE_ORDER`.  Used by the reference (MNA) evaluation path
        and by stability examples; the Monte-Carlo hot path uses
        :class:`repro.sram.butterfly.ReadButterflySolver` instead.
        """
        vdd = self.vdd if vdd is None else vdd
        shifts = self._shift_map(delta_vth)
        ckt = Circuit("sram6t_read")
        ckt.add(VoltageSource("vdd", "vdd", "0", vdd))
        ckt.add(VoltageSource("vwl", "wl", "0", vdd))
        ckt.add(VoltageSource("vbl", "bl", "0", vdd))
        ckt.add(VoltageSource("vblb", "blb", "0", vdd))
        ckt.add(Mosfet("L1", "q", "qb", "vdd", self._models["L1"],
                       shifts["L1"]))
        ckt.add(Mosfet("D1", "q", "qb", "0", self._models["D1"], shifts["D1"]))
        ckt.add(Mosfet("A1", "bl", "wl", "q", self._models["A1"],
                       shifts["A1"]))
        ckt.add(Mosfet("L2", "qb", "q", "vdd", self._models["L2"],
                       shifts["L2"]))
        ckt.add(Mosfet("D2", "qb", "q", "0", self._models["D2"], shifts["D2"]))
        ckt.add(Mosfet("A2", "blb", "wl", "qb", self._models["A2"],
                       shifts["A2"]))
        return ckt

    def read_half_circuit(self, side: int, delta_vth=None,
                          vdd: float | None = None) -> Circuit:
        """Half cell for butterfly tracing: cross-coupling broken.

        ``side=0`` builds inverter A (devices L1/D1 + access A1) with its
        input driven by an independent source ``vin`` and output ``out``;
        ``side=1`` builds inverter B (L2/D2 + A2).
        """
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side}")
        vdd = self.vdd if vdd is None else vdd
        shifts = self._shift_map(delta_vth)
        load, driver, access = (("L1", "D1", "A1") if side == 0
                                else ("L2", "D2", "A2"))
        ckt = Circuit(f"sram6t_half{side}")
        ckt.add(VoltageSource("vdd", "vdd", "0", vdd))
        ckt.add(VoltageSource("vwl", "wl", "0", vdd))
        ckt.add(VoltageSource("vbl", "bl", "0", vdd))
        ckt.add(VoltageSource("vin", "in", "0", 0.0))
        ckt.add(Mosfet(load, "out", "in", "vdd", self._models[load],
                       shifts[load]))
        ckt.add(Mosfet(driver, "out", "in", "0", self._models[driver],
                       shifts[driver]))
        ckt.add(Mosfet(access, "bl", "wl", "out", self._models[access],
                       shifts[access]))
        return ckt

    # ------------------------------------------------------------------
    def _shift_map(self, delta_vth) -> dict[str, float]:
        if delta_vth is None:
            return {name: 0.0 for name in DEVICE_ORDER}
        delta_vth = np.asarray(delta_vth, dtype=float)
        if delta_vth.shape != (len(DEVICE_ORDER),):
            raise ValueError(
                f"delta_vth must have shape ({len(DEVICE_ORDER)},), "
                f"got {delta_vth.shape}")
        return dict(zip(DEVICE_ORDER, delta_vth.tolist()))
