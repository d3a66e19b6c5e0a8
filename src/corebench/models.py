"""Bayesian model embeddings: turn per-datum log-likelihoods into vectors.

Supported models (all with a standard normal prior on the parameter):

* ``gaussian``  -- unknown-mean normal likelihood, unit variance. The
  posterior is conjugate, so the information-metric inner products
  E_pi[grad L_n . grad L_m] are available in closed form and the embedding
  (y_n - mu_hat, s_hat) is exact.
* ``logistic``  -- binary labels y in {-1, +1} on augmented features
  z_n = [x_n; 1].
* ``poisson``   -- counts with rate log(1 + exp(z_n^T theta)).

For the regression models the posterior is approximated by a Laplace fit
(Newton ascent with step halving) and the vectors are random-feature
projections: gradients of the per-datum log-likelihood evaluated at S
posterior samples, concatenated and scaled by 1/sqrt(S), so Euclidean inner
products are unbiased Monte Carlo estimates of the information inner
products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import CoresetProblem, WeightVector, _as_float64, _build_in_place

REGRESSION_MODELS = ("logistic", "poisson")
MODELS = ("gaussian", *REGRESSION_MODELS)

_TINY = np.finfo(np.float64).tiny

LAPLACE_MAX_ITER = 100       # Newton steps before LaplaceNotConverged
LAPLACE_GRAD_TOL = 1e-8      # log-posterior gradient norm that ends the fit


def expit(u):
    """The logistic sigmoid 1 / (1 + e^-u), elementwise.

    For u below about -709.78, e^-u overflows to inf and the result is 0;
    that overflow is exact in the limit, so it is silenced, not warned about.
    """
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-u))


@dataclass(frozen=True, eq=False)
class GaussianMeanData:
    """Observations y_n ~ N(mu, 1) with prior mu ~ N(0, 1)."""

    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", _as_float64(self.y, "invalid observation").ravel())
        if self.y.size < 1:
            raise ValueError("need at least one observation")
        if not np.isfinite(self.y).all():
            raise ValueError("non-finite observation")

    @property
    def n(self) -> int:
        return int(self.y.size)


@dataclass(frozen=True, eq=False)
class RegressionData:
    """Features x_n (N x D) and targets y_n; z_n = [x_n; 1] is augmented."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_float64(self.x, "invalid regression data")
        if x.ndim == 1:
            x = x[:, None]
        if x.ndim != 2:
            raise ValueError(f"features must form a 1-D or 2-D array, not shape {x.shape}")
        y = _as_float64(self.y, "invalid regression data").ravel()
        if x.shape[0] != y.size:
            raise ValueError("feature rows and targets disagree in length")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entry in regression data")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return int(self.y.size)

    @property
    def d(self) -> int:
        return int(self.x.shape[1])

    @property
    def z(self) -> np.ndarray:
        return np.hstack([self.x, np.ones((self.n, 1))])


@dataclass(frozen=True, eq=False)
class LaplaceApprox:
    """Posterior mode, covariance, and its lower-triangular Cholesky factor."""

    mode: np.ndarray
    covariance: np.ndarray
    factor: np.ndarray = field(init=False)

    def __post_init__(self):
        cov = self.covariance
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        # LinAlgError, a ValueError, when cov is not positive definite
        object.__setattr__(self, "factor", np.linalg.cholesky(cov))


def default_sample_count(param_dim: int) -> int:
    """Sample count giving an embedding dimension of about 500."""
    return max(1, round(500 / param_dim))


# --- likelihoods: values, per-datum gradients, negative-curvature weights ---

def _design(model: str, data) -> tuple[np.ndarray, np.ndarray]:
    """Design matrix and targets: ones for "gaussian", which takes
    ``GaussianMeanData``, and z_n = [x_n; 1] for the ``REGRESSION_MODELS``,
    which take ``RegressionData``."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    needs = GaussianMeanData if model == "gaussian" else RegressionData
    if not isinstance(data, needs):
        raise TypeError(f"{model} model needs {needs.__name__}")
    if model == "gaussian":
        return np.ones((data.n, 1)), data.y
    if model == "logistic" and not np.all(np.isin(data.y, (-1.0, 1.0))):
        raise ValueError("logistic labels must be -1 or +1")
    if model == "poisson" and (np.any(data.y < 0) or np.any(data.y != np.round(data.y))):
        raise ValueError("poisson counts must be nonnegative integers")
    return data.z, data.y


def log_likelihood(model: str, Z: np.ndarray, y: np.ndarray,
                   theta: np.ndarray) -> float:
    """Total log-likelihood (Poisson drops the constant -log y_n! term)."""
    u = Z @ theta
    if model == "logistic":
        return float(-np.logaddexp(0.0, -y * u).sum())
    if model == "poisson":
        lam = np.maximum(np.logaddexp(0.0, u), _TINY)
        return float((y * np.log(lam) - lam).sum())
    if model == "gaussian":
        return float(-0.5 * ((y - u) ** 2).sum())
    raise ValueError(f"unknown model {model!r}")


def log_likelihood_grad(model: str, Z: np.ndarray, y: np.ndarray,
                        theta: np.ndarray) -> np.ndarray:
    """Per-datum gradients, one row per observation.

    logistic: y_n s(-y_n u_n) z_n; poisson with rate lam(u) = log(1 + e^u):
    (y_n / lam - 1) s(u_n) z_n. Both are overflow-safe for |u| up to ~500.
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=np.float64))
    u = Z @ theta
    if model == "logistic":
        coeff = y * expit(-y * u)
    elif model == "poisson":
        lam = np.maximum(np.logaddexp(0.0, u), _TINY)
        coeff = (y / lam - 1.0) * expit(u)
    elif model == "gaussian":
        coeff = y - u
    else:
        raise ValueError(f"unknown model {model!r}")
    return coeff[:, None] * Z


def _curvature(model: str, y: np.ndarray, u: np.ndarray) -> np.ndarray:
    """c_n >= 0 with per-datum Hessian -c_n z_n z_n^T."""
    if model == "logistic":
        return expit(u) * expit(-u)
    if model == "poisson":
        lam = np.maximum(np.logaddexp(0.0, u), _TINY)
        s = expit(u)
        c = s * (1.0 - s) + y * (s / lam) ** 2 - y * (s * (1.0 - s) / lam)
        return np.maximum(c, 0.0)        # the y terms cancel to rounding at tiny s
    return np.ones_like(u)


class LaplaceNotConverged(RuntimeError):
    def __init__(self, message, last_iterate):
        super().__init__(message)
        self.last_iterate = last_iterate


def laplace(model: str, data) -> LaplaceApprox:
    """Laplace posterior approximation under a standard normal prior.

    Newton ascent with step halving on the log posterior until the gradient
    norm drops to LAPLACE_GRAD_TOL; the covariance is the inverse negative
    Hessian at the mode. Raises LaplaceNotConverged (with the last iterate
    attached) if the tolerance is not reached within LAPLACE_MAX_ITER steps,
    or as soon as step halving finds no acceptable step.
    """
    Z, y = _design(model, data)
    p = Z.shape[1]
    theta = np.zeros(p)

    def objective(th):
        return -0.5 * float(th @ th) + log_likelihood(model, Z, y, th)

    def neg_hessian(th):
        return np.eye(p) + (Z * _curvature(model, y, Z @ th)[:, None]).T @ Z

    def approx_at(th):
        cov = np.linalg.inv(neg_hessian(th))
        cov = 0.5 * (cov + cov.T)
        return LaplaceApprox(mode=th, covariance=cov)

    def grad_at(th):
        return -th + log_likelihood_grad(model, Z, y, th).sum(axis=0)

    f = objective(theta)
    for iteration in range(1, LAPLACE_MAX_ITER + 1):
        grad = grad_at(theta)
        if np.linalg.norm(grad) <= LAPLACE_GRAD_TOL:
            return approx_at(theta)
        step = np.linalg.solve(neg_hessian(theta), grad)
        # near the mode the per-step gain drops below float resolution of f,
        # so allow steps that are flat to within rounding noise
        slack = 1e-12 * (1.0 + abs(f))
        alpha = 1.0
        while alpha > 2.0 ** -40:
            cand = theta + alpha * step
            f_cand = objective(cand)
            if f_cand >= f - slack:
                theta, f = cand, max(f_cand, f)
                break
            alpha *= 0.5
        else:       # theta is unchanged, and its gradient failed above
            raise LaplaceNotConverged(
                f"Newton line search found no acceptable step at iteration {iteration} "
                f"(step halved to 2^-40)", last_iterate=theta)
    if np.linalg.norm(grad_at(theta)) <= LAPLACE_GRAD_TOL:
        return approx_at(theta)
    raise LaplaceNotConverged(
        f"Newton did not reach gradient norm {LAPLACE_GRAD_TOL:g} "
        f"in {LAPLACE_MAX_ITER} iterations",
        last_iterate=theta,
    )


# --- embeddings ---

def gaussian_embed(data: GaussianMeanData) -> CoresetProblem:
    """Exact 2-D embedding of the Gaussian-mean model.

    With posterior N(mu_hat, s2), mu_hat = sum(y)/(N+1), s2 = 1/(N+1), the
    vector (y_n - mu_hat, s_hat) satisfies
    <L_n, L_m> = (y_n - mu_hat)(y_m - mu_hat) + s2
               = E_post[(y_n - mu)(y_m - mu)] exactly.
    """
    n = data.n
    vectors = np.empty((n, 2))
    np.subtract(data.y, data.y.sum() / (n + 1), out=vectors[:, 0])     # y_n - mu_hat
    vectors[:, 1] = math.sqrt(posterior_variance(n))                   # s_hat
    return _build_in_place(vectors)


def posterior_variance(total_weight: float) -> float:
    """Variance 1 / (1+W) of the Gaussian-mean posterior under weights of
    total W; it reads no observation, so no index map either."""
    return 1.0 / (1.0 + total_weight)


def coreset_posterior_variance(data: GaussianMeanData,
                               w: WeightVector) -> tuple[float, float]:
    """Closed-form weighted posterior N(sum w_n y_n / (1+W), 1 / (1+W)) for
    weights w over the observations (input rows, see ``to_original``)."""
    wsum = w.total()
    wy = float(w.values @ data.y[w.indices])
    return wy / (1.0 + wsum), posterior_variance(wsum)


def project(model: str, data, lap: LaplaceApprox, S: int, seed: int) -> CoresetProblem:
    """Random-feature embedding from gradients at posterior samples.

    Draws theta_1..theta_S i.i.d. from N(mode, covariance), with the
    generator seeded by ``seed``, and embeds datum n as the concatenation
    over s of grad L_n(theta_s) / sqrt(S), so that Euclidean inner products
    are unbiased estimates of E[grad L_n . grad L_m] under the Laplace
    posterior. The embedding dimension is S * (D + 1).

    The N x S(D+1) embedding is written block by block into one array,
    which the problem takes over as its unit vectors, so one such array is
    alive from the first gradient to the returned problem.
    """
    if S < 1:
        raise ValueError("S must be >= 1")
    Z, y = _design(model, data)
    rng = np.random.default_rng(seed)
    thetas = lap.mode + rng.standard_normal((S, lap.mode.size)) @ lap.factor.T
    p = Z.shape[1]
    embedding = np.empty((Z.shape[0], S * p))
    for s, th in enumerate(thetas):
        embedding[:, s * p:(s + 1) * p] = log_likelihood_grad(model, Z, y, th)
    embedding /= np.sqrt(S)
    return _build_in_place(embedding)
