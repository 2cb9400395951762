"""Buffered device-model path: ``ids_into``/``softplus_into`` must be
bit-identical to the plain allocating path (the batched solver's
licence), plus the :class:`IdsWorkspace` pool semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.spice.model import (NMOS_PTM16, PMOS_PTM16, IdsWorkspace,
                               MosfetModel, exp_neg_abs, softplus,
                               softplus_into)


@pytest.fixture()
def voltages(rng):
    shape = (64, 17)
    vg = rng.uniform(-0.2, 0.9, shape)
    vd = rng.uniform(-0.2, 0.9, shape)
    vs = rng.uniform(-0.2, 0.9, shape)
    dvth = rng.normal(scale=0.05, size=(shape[0], 1))
    return vg, vd, vs, dvth


class TestScalarsAndSoftplus:
    def test_exp_neg_abs_buffered_matches_plain(self, rng):
        x = rng.normal(scale=4.0, size=(32, 9))
        out = np.empty_like(x)
        assert np.array_equal(exp_neg_abs(x, out=out), exp_neg_abs(x))

    def test_softplus_into_matches_plain(self, rng):
        x = rng.normal(scale=6.0, size=(32, 9))
        out = np.empty_like(x)
        scratch = np.empty_like(x)
        assert np.array_equal(softplus_into(x, out, scratch),
                              softplus(x))

    def test_softplus_into_allows_aliased_input(self, rng):
        x = rng.normal(scale=6.0, size=(32, 9))
        want = softplus(x)
        buf = x.copy()
        scratch = np.empty_like(x)
        assert np.array_equal(softplus_into(buf, buf, scratch), want)


@pytest.mark.parametrize("params", [NMOS_PTM16, PMOS_PTM16],
                         ids=["nmos", "pmos"])
class TestIdsInto:
    def test_general_path_matches_ids(self, params, voltages):
        model = MosfetModel(params, 30, 16)
        vg, vd, vs, dvth = voltages
        out = np.empty(vg.shape)
        ws = IdsWorkspace(vg.shape)
        got = model.ids_into(vg, vd, vs, dvth, out=out, workspace=ws)
        assert got is out
        assert np.array_equal(got, model.ids(vg, vd, vs, dvth))

    def test_ordered_path_matches_ids(self, params, voltages, rng):
        # after polarity mirroring vd >= vs must hold; build it that way
        model = MosfetModel(params, 30, 16)
        vg, _, _, dvth = voltages
        node = rng.uniform(0.0, 0.7, vg.shape)
        if params.is_nmos:
            vd, vs = node, 0.0  # driver wiring: source at ground
        else:
            vd, vs = node, 0.7  # load wiring: source at vdd
        out = np.empty(vg.shape)
        ws = IdsWorkspace(vg.shape)
        got = model.ids_into(vg, vd, vs, dvth, out=out, workspace=ws,
                             assume_ordered=True)
        assert np.array_equal(got, model.ids(vg, vd, vs, dvth))

    def test_broadcast_row_inputs_match(self, params, voltages, rng):
        # the solver passes vin as a (1, G) row and scalars for rails
        model = MosfetModel(params, 30, 16)
        _, vd, _, dvth = voltages
        vin = rng.uniform(0.0, 0.7, (1, vd.shape[1]))
        out = np.empty(vd.shape)
        ws = IdsWorkspace(vd.shape)
        got = model.ids_into(vin, vd, 0.35, dvth, out=out, workspace=ws)
        assert np.array_equal(got, model.ids(vin, vd, 0.35, dvth))

    def test_workspace_reuse_across_calls(self, params, voltages):
        model = MosfetModel(params, 30, 16)
        vg, vd, vs, dvth = voltages
        ws = IdsWorkspace(vg.shape)
        out = np.empty(vg.shape)
        first = model.ids_into(vg, vd, vs, dvth, out=out,
                               workspace=ws).copy()
        again = model.ids_into(vg, vd, vs, dvth, out=out, workspace=ws)
        assert np.array_equal(first, again)


class TestIdsWorkspace:
    def test_reset_reuses_pool(self):
        ws = IdsWorkspace((4, 3))
        first = ws.take()
        ws.reset()
        assert ws.take() is first
