"""U-statistic prefix processes, the jackknife closed-form variance
identity, self-normalized and Studentized U-processes, heavy-tailed
samplers, a degenerate-decomposition verification lab, and a seeded
Monte Carlo experiment harness.

The exports are lazy (PEP 562): ``import ustatlab`` loads no submodule,
and the first use of a name imports only the module that defines it, so
a process that never touches the decomposition lab or the study driver
does not pay for them.
"""

import importlib

_EXPORTS = {
    "decomposition": (
        "MomentBoundResult",
        "ProductStatistic",
        "VExpansion",
        "VTerm",
        "build_v_expansion",
        "check_degeneracy",
        "eval_product_statistic",
        "degenerate_moment_bound",
        "reconstruction_max_error",
    ),
    "distributions": (
        "Distribution",
        "EllEstimate",
        "MomentDiagnostic",
        "derive_seed",
        "dist_from_name",
        "estimate_ell",
        "example_density",
        "finite",
        "moment_diagnostic",
        "normal",
        "pareto",
        "replication_seed",
        "sample",
        "sample_grid",
    ),
    "engine": ("UPrefixValues", "u_prefix_process", "u_statistic"),
    "errors": (
        "ConfigError",
        "DegenerateNormalizerError",
        "DomainError",
        "InsufficientDataError",
        "InvalidArgumentError",
        "PreconditionViolationError",
        "ResourceLimitError",
        "UnsupportedOperationError",
        "UStatError",
    ),
    "experiments": (
        "ConvergenceReport",
        "ExperimentConfig",
        "TrendTable",
        "negligibility_trend",
        "run_experiment",
    ),
    "jackknife": ("JackknifeSummary", "jackknife_closed_form", "leave_one_out"),
    "kernels": (
        "Kernel",
        "TruncationMode",
        "TruncationRule",
        "constant_kernel",
        "eval_kernel",
        "identity_kernel",
        "kernel_from_name",
        "make_kernel",
        "product_kernel",
        "project_h1",
        "theta_under",
        "truncate_kernel",
        "variance_kernel",
    ),
    "processes": (
        "StepProcess",
        "abs_sup_functional",
        "ks_distance",
        "normal_cdf",
        "pseudo_selfnormalized_path",
        "studentized_path",
        "studentized_value",
        "sup_functional",
        "wiener_sup_cdf",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the defining module on first use and keep the name here."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
