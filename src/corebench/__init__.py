"""Sparse nonnegative coreset construction for vector sums.

Greedy iterative geodesic ascent with optimal output scaling, plus
Frank-Wolfe / importance-sampling / uniform-subsampling baselines, Bayesian
model embeddings, and a benchmark CLI.
"""

from .baselines import fw_coreset, sampling_sweep
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
    "LaplaceApprox",
    "RegressionData",
    "Run",
    "Step",
    "WeightVector",
    "build_problem",
    "coreset_posterior_variance",
    "fw_coreset",
    "gaussian_embed",
    "giga_run",
    "laplace",
    "log_likelihood_grad",
    "project",
    "relative_error",
    "sampling_sweep",
    "weighted_sum",
]
