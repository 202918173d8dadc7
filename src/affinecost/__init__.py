"""Affine-invariant cost functions on positive definite matrices.

A library and CLI for the determinant-factoring cost family: cost
construction and controls, randomized verification of the invariance
identities, constructive determinant-one group structure, kernel lattice
estimation, and the exhaustive minimum covariance determinant estimator.
The package namespace carries what the experiment scripts use; the rest
lives in the submodules (cost, harness, rng, groups, linalg, mcd, cli).
"""

__version__ = "0.1.0"

from .cost import KernelSpec, cost_from_selector, factored_cost
from .harness import TrialConfig, run_invariance_suite
from .linalg import random_gl
from .mcd import Dataset, check_equivariance

__all__ = [
    "Dataset",
    "KernelSpec",
    "TrialConfig",
    "check_equivariance",
    "cost_from_selector",
    "factored_cost",
    "random_gl",
    "run_invariance_suite",
]
