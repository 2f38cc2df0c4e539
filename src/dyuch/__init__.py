"""Verification and exploration toolkit for sliced dyadic martingales,
balanced Carleson-type measures, and the sharp embedding constant e.

Each layer module is imported on first use: `import dyuch` loads no layer,
and a name below, or a layer module itself, is resolved from its module
when it is first looked up (PEP 562), then kept in this module's globals.
"""
import importlib

# layer module -> the names the package exports from it
_EXPORTS = {
    "dyadic": (
        "DEFAULT_TOL", "REAL_LINE", "UNIT", "DyadicInterval", "PiecewiseConstant", "dyadic_length",
        "haar_inner_indicator", "interval_from_id", "tree_from_json", "tree_to_json", "unit_root",
        "window_root",
    ),
    "martingale": (
        "DyadicAnalytic", "SlicedMartingale", "SlicingViolation", "analytic_from_json",
        "analytic_projection", "analytic_to_json", "conjugate", "cr_residual", "random_analytic",
        "random_sliced", "s0",
    ),
    "carleson": (
        "DiscreteMeasure", "bellman_chain_slacks", "embedding_slack", "embedding_sum",
        "measure_from_json", "measure_to_json", "random_balanced_measure",
        "telescoped_weighted_slack", "weighted_embedding_slack",
    ),
    "bellman": (
        "BoundProfile", "bellman_value", "concavity_form_matrix", "derivative_gap",
        "det_closed_form", "dynamics_gap", "exponential_profile", "laplacian_step_gap",
        "lower_bound_certificate", "profile_residuals", "range_gaps", "scan_unsliced",
        "third_minor_closed_form", "unsliced_form_matrix", "unsliced_third_minor",
        "verify_sliced_psd",
    ),
    "kernel": (
        "KernelRep", "kernel_norm2", "normalized_testing_value", "reproducing_kernel",
        "testing_constant", "testing_embedding_slack", "testing_scan", "testing_sum",
        "testing_to_packing", "truncation_tail_bound",
    ),
    "extremal": ("Configuration", "search"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # importing a layer binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__getattr__(_SOURCE[name]), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
