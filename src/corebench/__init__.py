"""Sparse nonnegative coreset construction for vector sums.

Greedy iterative geodesic ascent with optimal output scaling, plus
Frank-Wolfe / importance-sampling / uniform-subsampling baselines, Bayesian
model embeddings, and a benchmark CLI.
"""

from .baselines import fw_coreset, is_coreset, rnd_coreset, sampling_sweep
from .giga import GigaState
from .giga import finalize as giga_finalize
from .giga import run as giga_run
from .hilbert import (
    CoresetProblem,
    Run,
    Step,
    WeightVector,
    build_problem,
    relative_error,
    weighted_sum,
)
from .models import (
    GaussianMeanData,
    LaplaceApprox,
    RegressionData,
    coreset_posterior_variance,
    gaussian_embed,
    laplace,
    log_likelihood_grad,
    project,
)

__version__ = "0.1.0"

__all__ = [
    "CoresetProblem",
    "GaussianMeanData",
    "GigaState",
    "LaplaceApprox",
    "RegressionData",
    "Run",
    "Step",
    "WeightVector",
    "build_problem",
    "coreset_posterior_variance",
    "fw_coreset",
    "gaussian_embed",
    "giga_finalize",
    "giga_run",
    "is_coreset",
    "laplace",
    "log_likelihood_grad",
    "project",
    "relative_error",
    "rnd_coreset",
    "sampling_sweep",
    "weighted_sum",
]
