"""ECRIPSE: RTN-induced SRAM failure-probability estimation.

Reproduction of Awano, Hiromoto & Sato, *ECRIPSE: An Efficient Method for
Calculating RTN-Induced Failure Probability of an SRAM Cell*, DATE 2015.

Quick start::

    from repro import paper_setup, EcripseEstimator

    setup = paper_setup(vdd=0.7, alpha=0.5)     # Table-I cell + RTN model
    estimator = EcripseEstimator(setup.space, setup.indicator,
                                 setup.rtn_model, seed=0)
    result = estimator.run(target_relative_error=0.05)
    print(result.summary())

Packages:

* :mod:`repro.spice` -- transistor compact model and DC circuit solver;
* :mod:`repro.sram` -- the 6T cell, butterfly curves, noise margins;
* :mod:`repro.variability` -- Pelgrom mismatch, whitened spaces;
* :mod:`repro.rtn` -- RTN trap statistics and samplers;
* :mod:`repro.ml` -- polynomial-feature linear SVM and blockade;
* :mod:`repro.core` -- the estimators (ECRIPSE + baselines);
* :mod:`repro.runtime` -- parallel execution engine (serial/process);
* :mod:`repro.analysis` -- convergence/speedup analysis, tables;
* :mod:`repro.experiments` -- the paper's figures as runnable harnesses.
"""

from __future__ import annotations

from repro.config import (
    DEVICE_ORDER,
    MIRROR_PERMUTATION,
    TABLE_I,
    CellGeometry,
    PaperConditions,
    RtnTimeConstants,
)
from repro.core import (
    BiasSweep,
    ConventionalSisEstimator,
    CrossEntropyEstimator,
    EcripseConfig,
    EcripseEstimator,
    FailureEstimate,
    MeanShiftEstimator,
    NaiveMonteCarlo,
    StatisticalBlockadeEstimator,
)
from repro.experiments.setup import ExperimentSetup, paper_setup
from repro.rtn import RtnModel, ZeroRtnModel
from repro.runtime import ExecutionConfig, Executor, RunMetrics
from repro.runtime.blas import pin_blas_threads
from repro.sram import CellEvaluator, SramCell
from repro.variability import VariabilitySpace

# The imports above load numpy's OpenBLAS but no scipy module; scipy's
# copy is pinned when repro first uses scipy (blas.import_pinned).
pin_blas_threads()

__version__ = "1.0.0"

__all__ = [
    "DEVICE_ORDER",
    "MIRROR_PERMUTATION",
    "TABLE_I",
    "CellGeometry",
    "PaperConditions",
    "RtnTimeConstants",
    "BiasSweep",
    "ConventionalSisEstimator",
    "CrossEntropyEstimator",
    "EcripseConfig",
    "EcripseEstimator",
    "FailureEstimate",
    "MeanShiftEstimator",
    "NaiveMonteCarlo",
    "StatisticalBlockadeEstimator",
    "ExecutionConfig",
    "Executor",
    "RunMetrics",
    "ExperimentSetup",
    "paper_setup",
    "RtnModel",
    "ZeroRtnModel",
    "CellEvaluator",
    "SramCell",
    "VariabilitySpace",
    "__version__",
]
