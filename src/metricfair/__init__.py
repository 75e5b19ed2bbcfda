"""Approximate metric-fairness: audits, constrained learners, bounds, and the
perfect-fairness hardness demonstration."""

from .audit import (
    FairnessReport,
    PopulationEstimate,
    all_pairs_mf_loss,
    audit_predictor,
    empirical_l1_loss,
    empirical_mf_loss,
    group_fairness_profile,
    hoeffding_half_width,
    is_perfectly_fair,
    population_mf_estimate,
    surrogate_ramp,
)
from .bounds import (
    RademacherDominatesError,
    RademacherEstimate,
    SampleComplexity,
    empirical_rademacher_kernel_ball,
    kernel_norm_bound_B,
    mf_generalization_delta,
    mf_generalization_delta_kernel,
    sample_complexity_inf_fpac,
    sample_complexity_kernel,
    sample_complexity_linear,
    uniform_convergence_rho,
)
from .core import (
    ConstantMetric,
    ConstantPredictor,
    Consecutive,
    DimensionMismatchError,
    KernelPredictor,
    LabeledDataset,
    LinearPredictor,
    LogisticPredictor,
    Matching,
    MatrixMetric,
    MetricFairError,
    MetricUndefinedError,
    MetricValidationReport,
    Predictor,
    RandomPermutation,
    ScaledEuclideanMetric,
    SimilarityMetric,
    ValidationError,
    VovkHalfKernel,
    build_matching,
    check_psd,
    default_matching,
    matching_edges,
    sigmoid_transfer,
    validate_metric,
)
from .datagen import SyntheticSpec, generate_dataset_with_meta
from .hardness import (
    HardnessMetric,
    HardnessMetricHandle,
    HardnessReport,
    HardPairedDataset,
    SignReferencePredictor,
    SignUndefinedError,
    absolute_error,
    averaged_fair_paired_error,
    expand_seed,
    run_hardness_experiment,
    sample_hardness_distribution,
)
from .learners import (
    KernelLearner,
    SampleTooSmallError,
    SolverDerivedParams,
    TrainConfig,
    derive_solver_params,
    gram_matrix,
    train_fair_kernel,
    train_fair_linear,
)
from .solver import (
    InfeasibleError,
    SolverConfig,
    TrainingReport,
    solve_annealed,
    solve_constrained,
    solve_pdhg,
)

__version__ = "0.1.0"
