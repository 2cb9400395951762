"""EKV-style MOSFET compact model.

The model is a single-piece, infinitely differentiable I--V description that
covers subthreshold, triode and saturation without regional switching:

.. math::

    I_D = I_S \\left[ F(v_p - v_s) - F(v_p - v_d) \\right],
    \\qquad F(u) = \\ln^2\\!\\left(1 + e^{u/2}\\right)

with all voltages normalised by the thermal voltage, the pinch-off voltage
``v_p = (V_G - V_{TH})/n`` and the specific current
``I_S = 2 n \\beta V_t^2 (W/L)``.  Three second-order effects relevant at the
16 nm node are layered on top:

* **DIBL** -- the effective threshold drops by ``dibl * |V_DS|``;
* **mobility reduction / velocity saturation** -- the gain degrades as
  ``beta / (1 + theta * V_{ov})`` with overdrive ``V_ov``;
* **channel-length modulation** -- the saturated current grows as
  ``1 + lambda_clm * |V_DS|``.

Because the source/drain of a MOSFET are interchangeable, negative
``V_DS`` is handled by swapping the terminals, which keeps the model exactly
antisymmetric in drain--source reversal (required for pass-gate/access
transistors whose current direction flips during SRAM reads).

Terminal voltages are absolute node potentials; the slope-factor division
``(V_G - V_TH)/n`` is referenced to the global rail, which acts as an
implicit bulk terminal.  Consequently the model is *not* invariant under a
common shift of gate/drain/source -- a deliberate, crude body effect that
penalises source-elevated devices such as the SRAM access transistor
during reads.

Parameters named ``*_PTM16`` approximate the predictive technology model
16 nm high-performance node used in the paper: they were tuned so that a 6T
cell built per the paper's Table I shows a realistic read-noise-margin
(~80 mV) at ``V_DD = 0.7 V`` and a failure probability of the order of
1e-4 under the paper's Pelgrom mismatch.  See DESIGN.md, "Substitutions".

Everything in this module is numpy-vectorised: terminal voltages and
threshold shifts may be arrays of any broadcastable shape.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.constants import thermal_voltage


def exp_neg_abs(x, out=None):
    """``exp(-|x|)``, the intermediate shared by softplus and sigmoid.

    With ``out`` the value is built in place (abs, negate, exp) with no
    temporaries; the op sequence reproduces ``np.exp(-np.abs(x))``
    bit-for-bit (negation and abs are exact, exp sees the same input).
    """
    if out is None:
        x = np.asarray(x, dtype=float)
        return np.exp(-np.abs(x))
    np.abs(x, out=out)
    np.negative(out, out=out)
    np.exp(out, out=out)
    return out


def softplus(x):
    """Overflow-safe ``log(1 + exp(x))`` for scalars or arrays."""
    x = np.asarray(x, dtype=float)
    return np.maximum(x, 0.0) + np.log1p(exp_neg_abs(x))


def softplus_into(x, out, scratch):
    """Buffered :func:`softplus`: result into ``out``, no temporaries.

    ``scratch`` must be a float buffer of ``x``'s shape; ``x`` may alias
    ``out`` (the shared intermediate is finished in ``scratch`` before
    ``out`` is touched).
    """
    exp_neg_abs(x, out=scratch)
    np.log1p(scratch, out=scratch)
    np.maximum(x, 0.0, out=out)
    np.add(out, scratch, out=out)
    return out


def sigmoid(x):
    """Overflow-safe logistic function for scalars or arrays."""
    x = np.asarray(x, dtype=float)
    t = exp_neg_abs(x)
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


class IdsWorkspace:
    """Reusable scratch buffers for :meth:`MosfetModel.ids_into`.

    A linear pool of float ``shape`` buffers plus one bool buffer,
    reset at the start of every ``ids_into`` call and grown on demand
    (the high-water mark is ~10 buffers, reached on the general
    source/drain-swap path).
    """

    def __init__(self, shape: tuple[int, ...]):
        self.shape = tuple(int(s) for s in shape)
        self._pool: list[np.ndarray] = []
        self._next = 0
        self._bool = np.empty(self.shape, dtype=bool)

    def reset(self) -> None:
        self._next = 0

    def take(self) -> np.ndarray:
        if self._next == len(self._pool):
            self._pool.append(np.empty(self.shape))
        buf = self._pool[self._next]
        self._next += 1
        return buf

    def bool_buffer(self) -> np.ndarray:
        return self._bool


@dataclass(frozen=True)
class MosfetParams:
    """Parameter card for :class:`MosfetModel`.

    Attributes
    ----------
    polarity:
        ``+1`` for nMOS, ``-1`` for pMOS.
    vth0:
        Zero-bias threshold voltage magnitude [V] (positive for both
        polarities; the polarity flip is applied inside the model).
    n:
        Subthreshold slope factor (dimensionless, >= 1).
    beta:
        Process transconductance ``mu * C_ox`` [A/V^2] for a square device;
        scaled by W/L inside the model.
    theta:
        Mobility-reduction coefficient [1/V].
    dibl:
        Drain-induced barrier lowering [V/V].
    lambda_clm:
        Channel-length modulation [1/V].
    temperature:
        Device temperature [K].
    """

    polarity: int
    vth0: float
    n: float = 1.35
    beta: float = 3.0e-4
    theta: float = 1.2
    dibl: float = 0.08
    lambda_clm: float = 0.15
    temperature: float = 300.0

    def __post_init__(self):
        if self.polarity not in (+1, -1):
            raise ValueError(f"polarity must be +1 or -1, got {self.polarity}")
        if self.vth0 <= 0:
            raise ValueError(
                f"vth0 is a magnitude and must be > 0, got {self.vth0}")
        if self.n < 1.0:
            raise ValueError(
                f"subthreshold factor n must be >= 1, got {self.n}")
        if self.beta <= 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if min(self.theta, self.dibl, self.lambda_clm) < 0:
            raise ValueError("theta, dibl and lambda_clm must be non-negative")

    @property
    def is_nmos(self) -> bool:
        return self.polarity > 0

    def with_(self, **changes) -> "MosfetParams":
        """Return a copy with ``changes`` applied (dataclass ``replace``)."""
        return replace(self, **changes)


#: nMOS parameters behaviourally calibrated to the paper's operating point:
#: a Table-I cell built from these cards has a read-noise-margin
#: distribution whose RDF-only failure probability is ~1.5e-4 at
#: V_DD = 0.7 V and ~1.7e-3 at 0.5 V, matching the paper's reported
#: magnitudes (see DESIGN.md, "Substitutions", and
#: tests/integration/test_calibration.py).
NMOS_PTM16 = MosfetParams(polarity=+1, vth0=0.42, n=1.70, beta=3.2e-4,
                          theta=1.6, dibl=0.53, lambda_clm=0.55)

#: pMOS counterpart of :data:`NMOS_PTM16`.
PMOS_PTM16 = MosfetParams(polarity=-1, vth0=0.60, n=1.75, beta=0.30e-4,
                          theta=1.4, dibl=0.32, lambda_clm=0.55)


class MosfetModel:
    """Evaluate drain current for a given parameter card and geometry.

    Parameters
    ----------
    params:
        The :class:`MosfetParams` card.
    w_nm, l_nm:
        Channel width and length in nanometres.

    The model is stateless; a single instance can be shared between every
    device of the same geometry.
    """

    def __init__(self, params: MosfetParams, w_nm: float, l_nm: float):
        if w_nm <= 0 or l_nm <= 0:
            raise ValueError(
                f"geometry must be positive, got W={w_nm}, L={l_nm}")
        self.params = params
        self.w_nm = float(w_nm)
        self.l_nm = float(l_nm)
        self._vt = thermal_voltage(params.temperature)
        self._aspect = self.w_nm / self.l_nm

    # ------------------------------------------------------------------
    def ids(self, vg, vd, vs, delta_vth=0.0):
        """Drain current [A], positive flowing drain->source for nMOS.

        ``vg``, ``vd``, ``vs`` are node voltages referred to ground;
        ``delta_vth`` is an additional threshold shift *magnitude* (positive
        values weaken the device for both polarities, matching the RDF/RTN
        convention used in the rest of the package).  All arguments
        broadcast together.
        """
        p = self.params
        vg = np.asarray(vg, dtype=float)
        vd = np.asarray(vd, dtype=float)
        vs = np.asarray(vs, dtype=float)
        dvth = np.asarray(delta_vth, dtype=float)

        # Mirror voltages for pMOS so that the core works in nMOS
        # convention; mirror the current back at the end.
        sign = float(p.polarity)
        vg, vd, vs = sign * vg, sign * vd, sign * vs

        # Source/drain swap for negative Vds (model must be antisymmetric).
        swap = vd < vs
        vlo = np.where(swap, vd, vs)
        vhi = np.where(swap, vs, vd)
        vds = vhi - vlo

        vth = p.vth0 + dvth - p.dibl * vds
        vt = self._vt
        n = p.n

        vp = (vg - vth) / n
        forward = np.square(softplus((vp - vlo) / (2.0 * vt)))
        reverse = np.square(softplus((vp - vhi) / (2.0 * vt)))

        # Mobility reduction with overdrive (smooth max against 0).
        vov = vt * 2.0 * softplus((vg - vlo - vth) / (2.0 * vt))
        gain = p.beta / (1.0 + p.theta * vov)

        ispec = 2.0 * n * gain * vt * vt * self._aspect
        current = ispec * (forward - reverse) * (1.0 + p.lambda_clm * vds)

        current = np.where(swap, -current, current)
        return sign * current

    # ------------------------------------------------------------------
    def ids_into(self, vg, vd, vs, delta_vth, out, workspace,
                 assume_ordered=False):
        """Buffered :meth:`ids`: bit-identical, written into ``out``.

        This is the butterfly solver's hot path: every ufunc lands in a
        preallocated buffer (``out`` or a :class:`IdsWorkspace` slot),
        eliminating the ~15 temporaries the plain path allocates per
        call.  Each operation applies the same ufunc to the same values
        in the same order as :meth:`ids`, so the result is bit-identical
        -- asserted by ``tests/spice/test_model_buffered.py`` and the
        ``bench_butterfly`` gate.

        Parameters
        ----------
        out:
            Float buffer receiving the current; its shape is the
            broadcast shape of the inputs.
        workspace:
            :class:`IdsWorkspace` of ``out``'s shape.
        assume_ordered:
            Caller guarantees ``vd >= vs`` *after* polarity mirroring,
            i.e. the source/drain swap mask is provably all-False (true
            for every device of the read/hold butterfly solve, where the
            node bracket stays inside ``[0, vdd]``).  Skips the swap
            machinery; bit-identical because ``where(False, a, b) == b``
            and a nowhere-applied masked negation is a no-op.

        Scalar inputs may be Python floats; array inputs must broadcast
        against ``out`` and are never written to.
        """
        p = self.params
        ws = workspace
        ws.reset()
        sign = float(p.polarity)
        # Mirror to nMOS convention.  sign == +1 keeps the inputs as-is
        # (multiplying by 1.0 is the IEEE identity); sign == -1 mirrors
        # scalars in Python and arrays into small fresh buffers --
        # sub-(B, G) operands such as the (1, G) input-voltage row stay
        # small so later ufuncs broadcast them, exactly like the plain
        # path.
        shape = out.shape
        mvg = self._mirror(vg, sign, ws, shape)
        mvd = self._mirror(vd, sign, ws, shape)
        mvs = self._mirror(vs, sign, ws, shape)

        swap = None
        if assume_ordered:
            vlo, vhi = mvs, mvd
            vds = ws.take()
            np.subtract(vhi, vlo, out=vds)
        else:
            swap = ws.bool_buffer()
            np.less(mvd, mvs, out=swap)
            # copy-then-masked-copy is np.where(swap, x, y) without the
            # temporary (np.where has no out= parameter)
            vlo = ws.take()
            np.copyto(vlo, mvs)
            np.copyto(vlo, mvd, where=swap)
            vhi = ws.take()
            np.copyto(vhi, mvd)
            np.copyto(vhi, mvs, where=swap)
            vds = ws.take()
            np.subtract(vhi, vlo, out=vds)

        vt = self._vt
        n = p.n
        # vth = (vth0 + dvth) - dibl * vds; the (B, 1) shift column stays
        # narrow, as in the plain path.
        base_vth = p.vth0 + np.asarray(delta_vth, dtype=float)
        vth = ws.take()
        np.multiply(vds, p.dibl, out=vth)
        np.subtract(base_vth, vth, out=vth)

        vp = ws.take()
        np.subtract(mvg, vth, out=vp)
        np.divide(vp, n, out=vp)

        scratch = ws.take()
        two_vt = 2.0 * vt
        forward = ws.take()
        np.subtract(vp, vlo, out=forward)
        np.divide(forward, two_vt, out=forward)
        softplus_into(forward, forward, scratch)
        np.square(forward, out=forward)

        reverse = ws.take()
        np.subtract(vp, vhi, out=reverse)
        np.divide(reverse, two_vt, out=reverse)
        softplus_into(reverse, reverse, scratch)
        np.square(reverse, out=reverse)

        # vov = (vt * 2.0) * softplus((vg - vlo - vth) / (2 vt)); reuse
        # the vp buffer, which is dead from here on.
        vov = vp
        if isinstance(vlo, np.ndarray) and vlo.shape == shape:
            inner = ws.take()
            np.subtract(mvg, vlo, out=inner)
        else:
            # sub-batch operand ((1, G) row or scalar) stays narrow so
            # the next subtract broadcasts it, exactly like the plain
            # path
            inner = np.subtract(mvg, vlo)
        np.subtract(inner, vth, out=vov)
        np.divide(vov, two_vt, out=vov)
        softplus_into(vov, vov, scratch)
        np.multiply(vov, vt * 2.0, out=vov)

        gain = vov
        np.multiply(gain, p.theta, out=gain)
        np.add(gain, 1.0, out=gain)
        np.divide(p.beta, gain, out=gain)

        ispec = gain
        np.multiply(ispec, 2.0 * n, out=ispec)
        np.multiply(ispec, vt, out=ispec)
        np.multiply(ispec, vt, out=ispec)
        np.multiply(ispec, self._aspect, out=ispec)

        np.subtract(forward, reverse, out=out)
        np.multiply(ispec, out, out=out)
        clm = vth  # dead buffer
        np.multiply(vds, p.lambda_clm, out=clm)
        np.add(clm, 1.0, out=clm)
        np.multiply(out, clm, out=out)

        if swap is not None:
            np.negative(out, out=out, where=swap)
        # sign is the exact +/-1.0 polarity flag, never a computed float
        if sign != 1.0:  # repro: allow-float-eq
            np.multiply(out, sign, out=out)
        return out

    @staticmethod
    def _mirror(v, sign, ws=None, shape=None):
        if isinstance(v, np.ndarray):
            if sign == 1.0:  # repro: allow-float-eq (exact polarity flag)
                return v
            if ws is not None and v.shape == shape:
                out = ws.take()
                np.multiply(v, sign, out=out)
                return out
            return np.multiply(v, sign)
        return sign * float(v)

    # ------------------------------------------------------------------
    def conductances(self, vg, vd, vs, delta_vth=0.0, step: float = 1e-6):
        """Return ``(ids, gm, gds, gms)`` by central finite differences.

        ``gm = dI/dVg``, ``gds = dI/dVd`` and ``gms = dI/dVs``; used by the
        MNA solver to build the Jacobian.  The model is smooth so central
        differences with a 1 uV step are accurate to ~1e-9 relative.
        """
        i0 = self.ids(vg, vd, vs, delta_vth)
        gm = (self.ids(vg + step, vd, vs, delta_vth)
              - self.ids(vg - step, vd, vs, delta_vth)) / (2.0 * step)
        gds = (self.ids(vg, vd + step, vs, delta_vth)
               - self.ids(vg, vd - step, vs, delta_vth)) / (2.0 * step)
        gms = (self.ids(vg, vd, vs + step, delta_vth)
               - self.ids(vg, vd, vs - step, delta_vth)) / (2.0 * step)
        return i0, gm, gds, gms

    # ------------------------------------------------------------------
    def on_current(self, vdd: float, delta_vth=0.0):
        """Saturated on-current at Vgs=Vds=vdd (nMOS) or -vdd (pMOS)."""
        p = self.params
        if p.is_nmos:
            return self.ids(vdd, vdd, 0.0, delta_vth)
        return -self.ids(0.0, 0.0, vdd, delta_vth)

    def off_current(self, vdd: float, delta_vth=0.0):
        """Leakage at Vgs=0, Vds=vdd (magnitude)."""
        p = self.params
        if p.is_nmos:
            return self.ids(0.0, vdd, 0.0, delta_vth)
        return -self.ids(vdd, 0.0, vdd, delta_vth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "nmos" if self.params.is_nmos else "pmos"
        return f"MosfetModel({kind}, W={self.w_nm}nm, L={self.l_nm}nm)"
