"""Stage-2 weight-clip guard: a weight above its defensive bound.

The defensive mixture bounds every importance weight by
``weight_bound = 1/defensive_fraction``.  No fault kind reaches this
guard, so each test wraps the run's ``clip_ratios`` to push one weight
of the first stage-2 batch to a chosen multiple of the bound, and also
records the batch number each stage-2 monitor receives.
"""

import pytest

from repro.errors import DegradationError
from repro.health import HealthConfig
from repro.health.monitor import WEIGHT_CLIP_FACTOR

from tests.health.conftest import make_estimator

pytestmark = pytest.mark.filterwarnings(
    "ignore::repro.errors.HealthyDegradation")


def forced_run(policy, factor):
    """Run with the first stage-2 batch's first weight set to
    ``factor * weight_bound``; return the estimate (or the raised
    error) plus what the stage-2 monitors saw."""
    estimator = make_estimator(health=HealthConfig(policy=policy))
    monitor = estimator.health
    seen = {"clip": [], "ess": []}
    clip, check = monitor.clip_ratios, monitor.check_stage2_batch

    def forced_clip(ratios, weight_bound, batch_index):
        if not seen["clip"]:
            ratios = ratios.copy()
            ratios[0] = factor * weight_bound
        out = clip(ratios, weight_bound, batch_index)
        seen["clip"].append((out.copy(), weight_bound, batch_index))
        return out

    def spied_check(ratios, batch_index):
        seen["ess"].append(batch_index)
        return check(ratios, batch_index)

    monitor.clip_ratios = forced_clip
    monitor.check_stage2_batch = spied_check
    try:
        result = estimator.run(target_relative_error=0.2)
    except DegradationError as exc:
        result = exc
    return result, seen


class TestWeightClip:
    def test_recover_clips_to_the_bound_and_flags_bias(self):
        estimate, seen = forced_run("recover", 2.0)
        out, weight_bound, batch_index = seen["clip"][0]
        assert out[0] == WEIGHT_CLIP_FACTOR * weight_bound
        assert estimate.health.biased
        (event,) = [e for e in estimate.health.events
                    if e.category == "is-weight"]
        assert event.recovered and event.details["clipped"] == 1
        # one batch, one number: the clip event and the ESS monitor
        # name the first batch alike
        assert event.details["batch"] == batch_index == seen["ess"][0] == 1

    def test_strict_raises_typed_error(self):
        error, _ = forced_run("strict", 2.0)
        assert isinstance(error, DegradationError)
        assert error.category == "is-weight"

    def test_weight_at_the_bound_is_not_clipped(self):
        estimate, seen = forced_run("strict", 1.0)
        out, weight_bound, _ = seen["clip"][0]
        assert out[0] == weight_bound
        assert not estimate.health.biased
        assert not [e for e in estimate.health.events
                    if e.category == "is-weight"]
