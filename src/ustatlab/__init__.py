"""U-statistic prefix processes, the jackknife closed-form variance
identity, self-normalized and Studentized U-processes, heavy-tailed
samplers, a degenerate-decomposition verification lab, and a seeded
Monte Carlo experiment harness."""

from .decomposition import (
    MomentBoundResult,
    ProductStatistic,
    TrendTable,
    VExpansion,
    VTerm,
    build_v_expansion,
    check_degeneracy,
    eval_product_statistic,
    degenerate_moment_bound,
    negligibility_trend,
    reconstruction_max_error,
)
from .distributions import (
    Distribution,
    EllEstimate,
    MomentDiagnostic,
    derive_seed,
    dist_from_name,
    estimate_ell,
    example_density,
    finite,
    moment_diagnostic,
    normal,
    pareto,
    sample,
    sample_grid,
)
from .engine import UPrefixValues, u_prefix_process, u_statistic
from .errors import (
    ConfigError,
    DegenerateNormalizerError,
    DomainError,
    InsufficientDataError,
    InvalidArgumentError,
    PreconditionViolationError,
    ResourceLimitError,
    UnsupportedOperationError,
    UStatError,
)
from .experiments import (
    ConvergenceReport,
    ExperimentConfig,
    ks_distance,
    normal_cdf,
    replication_seed,
    run_experiment,
    wiener_sup_cdf,
)
from .jackknife import (
    JackknifeSummary,
    jackknife_closed_form,
    leave_one_out,
)
from .kernels import (
    Kernel,
    TruncationMode,
    TruncationRule,
    constant_kernel,
    eval_kernel,
    identity_kernel,
    kernel_from_name,
    make_kernel,
    product_kernel,
    project_h1,
    theta_under,
    truncate_kernel,
    variance_kernel,
)
from .processes import (
    StepProcess,
    abs_sup_functional,
    pseudo_selfnormalized_path,
    studentized_path,
    studentized_value,
    sup_functional,
)

__version__ = "0.1.0"
