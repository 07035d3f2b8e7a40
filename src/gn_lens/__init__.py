"""gn-lens: exact Gauss-Newton matrices of small neural networks, their
pseudo-condition numbers, and analytic condition-number bounds."""

from .bounds import (
    BoundReport,
    GaussianBound,
    LayerTerm,
    bound_deep_convex,
    bound_deep_max,
    bound_functional_hessian,
    bound_gaussian_asymptotic,
    bound_gaussian_nonasymptotic,
    bound_leaky,
    bound_one_hidden,
    bound_residual_convex,
    bound_residual_max,
    residual_product_bound,
)
from .data import (
    Dataset,
    WhitenReport,
    empirical_covariance,
    load_csv,
    load_idx,
    synthesize_gaussian,
    whiten,
    write_csv,
)
from .gauss_newton import (
    GnMatrix,
    functional_hessian_spectrum,
    gn_conv,
    gn_conv_shared,
    gn_from_jacobian,
    gn_leaky,
    gn_linear,
    gn_residual,
)
from .linalg import (
    RankPolicy,
    Spectrum,
    pseudo_condition_number,
    psd_sqrt,
    rank_sensitivity_sweep,
    sym_eigendecompose,
)
from .network import (
    NetworkSpec,
    Params,
    TeacherSpec,
    forward,
    init,
    init_aligned_svd,
    lift_conv,
    partial_product,
    prune_by_magnitude,
    toeplitz_from_filter,
    toeplitz_layer,
)
from .trainer import (
    Checkpoint,
    DataTerms,
    Metrics,
    PruneCell,
    TrainConfig,
    TrainTrace,
    checkpoint_metrics,
    data_terms,
    mse_gradient,
    mse_loss,
    pruning_experiment,
    train,
)

__version__ = "0.1.0"
