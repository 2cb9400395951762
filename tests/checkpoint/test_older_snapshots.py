"""Snapshot trees in the older format still load.

Older ECRIPSE and naive-MC snapshots carry a ``solve_cache`` entry (the
evaluator's cache state, or ``None`` without a cache), and naive-MC ones
a ``mode`` (``None``, ``"chunked"`` or ``"legacy"``).  The entries are
ignored and a resumed run finishes bit-identically -- except a
``"legacy"`` naive snapshot, which came from the removed single-stream
loop: its fingerprint still matches, so only the restore can refuse it.

Older naive-MC runs could also be chunked by the execution config
(``ExecutionConfig(chunk_size=c)``) instead of at ``batch_size``.  The
chunk never joined the fingerprint, so a snapshot chunked at
``c != batch_size`` must be refused by the restore.  One chunked at
``batch_size`` has the current format and resumes as above.
"""

import numpy as np
import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointStore,
    decode_state,
    encode_state,
    run_checkpointed,
)
from repro.core.ecripse import EcripseConfig, EcripseEstimator
from repro.core.indicator import FunctionIndicator
from repro.core.naive import NaiveMonteCarlo
from repro.errors import CheckpointError
from repro.perf import SolveCache
from repro.rtn.model import ZeroRtnModel
from repro.variability.space import VariabilitySpace

DIM = 4
SPACE = VariabilitySpace(np.ones(DIM))
NULL = ZeroRtnModel(SPACE)
TINY = EcripseConfig(n_particles=40, n_iterations=3, k_train=64,
                     stage2_batch=600, max_statistical_samples=50_000,
                     n_boundary_directions=24, n_bisections=8)


def two_lobes(x):
    return np.abs(x[:, 0]) > 3.5


def make_ecripse():
    return EcripseEstimator(SPACE, FunctionIndicator(two_lobes, dim=DIM),
                            NULL, config=TINY, seed=7)


def make_naive():
    return NaiveMonteCarlo(SPACE, FunctionIndicator(two_lobes, dim=DIM),
                           NULL, batch_size=500, seed=3)


ECRIPSE_RUN = {"target_relative_error": 0.2}
NAIVE_RUN = {"n_samples": 5000}


class Recorder:
    """Checkpoint stand-in keeping every snapshot as the codec wrote it."""

    def __init__(self):
        self.snapshots = []

    def maybe_save(self, estimator, n_simulations):
        self.snapshots.append(encode_state(estimator.state_snapshot()))


def warm_cache_state():
    cache = SolveCache("00000000deadbeef")
    rows = np.random.default_rng(0).normal(size=(8, 6))
    cache.store("exact", rows, rows[:, 0], rows[:, 1])
    return cache.state()


def older_tree(encoded, **older_keys):
    """A mid-run snapshot re-encoded with the older format's keys."""
    tree = decode_state(*encoded)
    tree.update(older_keys)
    return decode_state(*encode_state(tree))


def signature(estimate):
    return (estimate.pfail, estimate.ci_halfwidth, estimate.n_simulations,
            [point.as_dict() for point in estimate.trace])


def mid_run_snapshot(make, run_kwargs):
    recorder = Recorder()
    make().run(checkpoint=recorder, **run_kwargs)
    assert len(recorder.snapshots) >= 3
    return recorder.snapshots[len(recorder.snapshots) // 2]


@pytest.mark.parametrize("cache_state", [None, "warm"])
class TestSolveCacheEntryIgnored:
    def test_ecripse_resumes_bit_identically(self, cache_state):
        reference = make_ecripse().run(**ECRIPSE_RUN)
        snapshot = mid_run_snapshot(make_ecripse, ECRIPSE_RUN)
        resumed = make_ecripse()
        resumed.restore_state(older_tree(
            snapshot, solve_cache=cache_state and warm_cache_state()))
        assert signature(resumed.run(**ECRIPSE_RUN)) == \
            signature(reference)

    def test_chunked_naive_resumes_bit_identically(self, cache_state):
        reference = make_naive().run(**NAIVE_RUN)
        snapshot = mid_run_snapshot(make_naive, NAIVE_RUN)
        resumed = make_naive()
        resumed.restore_state(older_tree(
            snapshot, mode="chunked",
            solve_cache=cache_state and warm_cache_state()))
        assert signature(resumed.run(**NAIVE_RUN)) == signature(reference)


class TestLegacyNaiveSnapshot:
    def test_restore_names_the_removed_path(self):
        snapshot = mid_run_snapshot(make_naive, NAIVE_RUN)
        with pytest.raises(CheckpointError, match="single-stream"):
            make_naive().restore_state(
                older_tree(snapshot, mode="legacy", solve_cache=None))

    def test_resume_from_store_refused(self, tmp_path):
        """The fingerprint check passes, so the restore must refuse."""
        estimator = make_naive()
        payload, arrays = encode_state(older_tree(
            mid_run_snapshot(make_naive, NAIVE_RUN), mode="legacy",
            solve_cache=None))
        CheckpointStore(tmp_path / "run").save(
            payload, arrays, fingerprint=estimator.fingerprint(), step=1)
        resume = CheckpointConfig(directory=tmp_path,
                                  every_simulations=None, resume=True)
        with pytest.raises(CheckpointError, match="single-stream"):
            run_checkpointed(resume, "run", estimator, **NAIVE_RUN)


class TestExecutionChunkedNaiveSnapshot:
    def test_other_chunk_refused(self, tmp_path):
        """An older run chunked at 250 under ``batch_size=500`` drew one
        child stream per 250-sample chunk, as a ``batch_size=250`` run
        does now.  The fingerprint check passes, so the restore must
        refuse."""
        older = older_tree(mid_run_snapshot(
            lambda: NaiveMonteCarlo(
                SPACE, FunctionIndicator(two_lobes, dim=DIM), NULL,
                batch_size=250, seed=3),
            NAIVE_RUN))
        estimator = make_naive()
        payload, arrays = encode_state(older)
        CheckpointStore(tmp_path / "run").save(
            payload, arrays, fingerprint=estimator.fingerprint(), step=1)
        resume = CheckpointConfig(directory=tmp_path,
                                  every_simulations=None, resume=True)
        with pytest.raises(CheckpointError, match="chunked at 250"):
            run_checkpointed(resume, "run", estimator, **NAIVE_RUN)
