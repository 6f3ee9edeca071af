"""Dyck paths, 321/231-avoiding permutations, ordered trees, and the
Monte Carlo harness exhibiting their common excursion scaling limit.

Quick tour:

    >>> import pav
    >>> path = pav.sample_uniform(6, seed=1)
    >>> pav.bij321.forward(path), pav.bij231.forward(path)

Core value types are immutable and safe to share across workers; all
sampling is pure in (n, seed).
"""

from . import bij231, bij321, dyck, experiments, perms, petrov, scaled, trees
from ._version import __version__
from .dyck import (
    DyckPath,
    ExcursionTable,
    RunDecomposition,
    enumerate_all,
    excursions,
    from_text,
    max_height,
    runs,
    sample_uniform,
)
from .errors import PavError
from .experiments import ExperimentConfig, ExperimentReport, run_experiment
from .perms import (
    Permutation,
    avoids_231,
    avoids_321,
    contains_pattern,
    exceedance_sets,
    inversions,
    max_deficit,
    scaled_function,
)
from .rng import substream
from .scaled import ScaledFunction
from .trees import (
    OrderedTree,
    catalan,
    expected_hat_xi,
    expected_xi,
    from_contour,
    hat_xi,
    stats,
    subtree_size_limit,
    to_contour,
)

__all__ = [
    "__version__",
    "DyckPath", "ExcursionTable", "RunDecomposition",
    "Permutation", "OrderedTree", "ScaledFunction",
    "ExperimentConfig", "ExperimentReport", "PavError",
    "from_text", "enumerate_all", "sample_uniform",
    "runs", "excursions", "max_height",
    "contains_pattern", "avoids_321", "avoids_231",
    "exceedance_sets", "scaled_function",
    "inversions", "max_deficit",
    "from_contour", "to_contour", "stats", "hat_xi",
    "catalan", "expected_xi", "expected_hat_xi", "subtree_size_limit",
    "run_experiment", "substream",
    "dyck", "perms", "trees", "scaled", "petrov", "experiments",
    "bij321", "bij231",
]
