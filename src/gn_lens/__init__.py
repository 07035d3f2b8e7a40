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
    self_balancing_report,
)
from .data import (
    Dataset,
    WhitenReport,
    avg_pool_downsample,
    empirical_covariance,
    load_csv,
    load_idx,
    synthesize_gaussian,
    whiten,
    write_csv,
)
from .gauss_newton import (
    GnMatrix,
    UnitActivationPattern,
    functional_hessian_spectrum,
    gn_conv,
    gn_conv_shared,
    gn_from_jacobian,
    gn_leaky,
    gn_linear,
    gn_residual,
    unit_patterns,
)
from .linalg import (
    RankPolicy,
    Spectrum,
    kron,
    kron_extreme_eigs,
    pseudo_condition_number,
    psd_sqrt,
    rank_sensitivity_sweep,
    singular_values,
    sym_eigendecompose,
    weyl_sum_bounds,
)
from .network import (
    NetworkSpec,
    Params,
    TeacherSpec,
    forward,
    init,
    init_aligned_svd,
    lift_conv,
    load_params,
    partial_product,
    prune_by_magnitude,
    save_params,
    toeplitz_from_filter,
    toeplitz_layer,
)
from .trainer import (
    Checkpoint,
    Metrics,
    PruneCell,
    TrainConfig,
    TrainTrace,
    checkpoint_metrics,
    mse_gradient,
    mse_loss,
    pruning_experiment,
    train,
)

__version__ = "0.1.0"
