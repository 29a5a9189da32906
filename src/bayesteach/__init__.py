"""Explanation engine built on a single selection rule: an explanation
is good exactly when a modelled learner would infer the right thing from
it. Everything here either evaluates that rule (core, learners, spaces),
realizes a known explanation method as an instance of it (explainers),
or measures what simulated explainees actually take away (studies).

Evaluation is single-threaded, numpy's BLAS included: numpy is first
imported here, before any submodule, with ``OMP_NUM_THREADS=1`` unless
the caller set it. OpenBLAS reads the variable once, when it loads, so
it starts no worker thread, and the variable is removed again so child
processes see the environment as the caller left it. A caller's
``OMP_NUM_THREADS`` (or ``OPENBLAS_NUM_THREADS``/``MKL_NUM_THREADS``,
which the BLAS prefers to it) still decides.
"""

import os

if "OMP_NUM_THREADS" not in os.environ:
    os.environ["OMP_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OMP_NUM_THREADS"]
del os

from .core import mh_sample, sample_posterior, select_max, teacher_posterior
from .errors import (
    AllZeroMass,
    BadSpec,
    DimensionMismatch,
    EngineError,
    IncompatibleCombination,
    MissingClass,
    NonFiniteResult,
    NonNumericFeature,
    NotEnumerable,
    NumericalError,
    ParseError,
    SingularCovariance,
    SingularSystem,
    StrategySpaceMismatch,
    ZeroStartMass,
    ZeroTotalWeight,
)
from .explainers import (
    DistillReport,
    ExampleSelectionReport,
    LimeReport,
    PrototypeReport,
    SaliencyReport,
    ShapReport,
    SoftTree,
    distill_tree,
    explain_by_examples,
    kernel_shap,
    lime_local,
    mmd_criticisms,
    mmd_prototypes,
    rise_saliency,
)
from .learners import (
    BiasConfig,
    KernelConfig,
    biased_learner,
    make_masked_prediction_learner,
    make_mmd_learner,
    make_nearest_class_learner,
    make_plda_learner,
    mmd2,
    witness,
)
from .models import (
    Dataset,
    TargetModel,
    fit_model,
    load_csv,
    load_model,
    make_synthetic,
    predict_proba,
    save_csv,
    save_model,
)
from .recombine import RecombinedExplainer, check_compatibility, recombine
from .spaces import EnumeratedSpace, MaskSpace, SubsetSpace
from .studies import (
    PopulationMember,
    SimulatedStudy,
    StudyReport,
    TwoAfcTask,
    bias_sensitivity_study,
    example_selection_study,
    plda_strategy_mismatch_study,
    simulate_2afc,
    strategy_mismatch_study,
)
from .teacher import StrategyResult, run_strategy
from .types import (
    Explanation,
    ExplanationKind,
    LearnerModel,
    TargetInference,
    TeacherPosterior,
    ThetaKind,
    example_set,
    feature_mask,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
