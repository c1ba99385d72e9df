"""Conditional copula estimation with log-likelihood regression trees.

Pipeline: estimate pseudo-observations once (``margins``), grow a maximal
copula tree (``tree``), prune it by cross-validation (``pruning``), and
predict a covariate-dependent Kendall tau.  ``simulation`` replicates the
scenario study and ``compositional`` the influenza preprocessing.
"""

from .copulas import (
    CopulaSpec,
    Family,
    FitResult,
    cdf,
    fit_mle,
    log_density,
    sample,
    spec_for,
    tau_to_theta,
    theta_to_tau,
)
from .data import Column, Dataset, PseudoObservations, categorical_column, numeric_column
from .margins import (
    MarginTreeConfig,
    pseudo_discrete,
    pseudo_empirical,
    pseudo_kernel,
    pseudo_margin_tree,
    pseudo_parametric_normal,
)
from .pruning import CvReport, PrunePath, cross_validate, fit_pruned_tree, prune_path, select_penalized
from .tree import (
    CopulaTree,
    SplitRule,
    StoppingConfig,
    TreeNode,
    build_maximal_tree,
    find_optimal_split,
    order_modalities,
    tree_loglik,
)

__version__ = "0.1.0"

__all__ = [
    "CopulaSpec", "Family", "FitResult", "cdf", "fit_mle", "log_density",
    "sample", "spec_for", "tau_to_theta", "theta_to_tau",
    "Column", "Dataset", "PseudoObservations", "categorical_column", "numeric_column",
    "MarginTreeConfig", "pseudo_discrete", "pseudo_empirical",
    "pseudo_kernel", "pseudo_margin_tree", "pseudo_parametric_normal",
    "CvReport", "PrunePath", "cross_validate", "fit_pruned_tree", "prune_path",
    "select_penalized",
    "CopulaTree", "SplitRule", "StoppingConfig", "TreeNode", "build_maximal_tree",
    "find_optimal_split", "order_modalities", "tree_loglik",
    "__version__",
]
