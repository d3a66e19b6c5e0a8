import warnings

import numpy as np
import pytest

from corebench import models
from corebench.bench import synth_regression_data
from corebench.hilbert import WeightVector, build_problem
from corebench.models import (
    LAPLACE_GRAD_TOL,
    REGRESSION_MODELS,
    GaussianMeanData,
    LaplaceApprox,
    LaplaceNotConverged,
    RegressionData,
    _curvature,
    _design,
    coreset_posterior_variance,
    default_sample_count,
    expit,
    gaussian_embed,
    laplace,
    log_likelihood,
    log_likelihood_grad,
    project,
)

from conftest import NOT_REAL, rows, traced_peak


class TestGaussianEmbed:
    def test_single_observation(self):
        p = gaussian_embed(GaussianMeanData([0.0]))
        # posterior N(0, 1/2): embedding (0, sqrt(1/2))
        np.testing.assert_allclose(rows(p)[0], [0.0, np.sqrt(0.5)], atol=1e-12)
        assert p.norms[0] ** 2 == pytest.approx(0.5)

    def test_pairwise_inner_product(self):
        p = gaussian_embed(GaussianMeanData([1.0, -1.0]))
        # mu_hat = 0, s2 = 1/3: <L_1, L_2> = -1 + 1/3 = -2/3
        L = rows(p)
        assert float(L[0] @ L[1]) == pytest.approx(-2.0 / 3.0)

    def test_identical_observations_identical_vectors(self):
        p = gaussian_embed(GaussianMeanData([2.5, 2.5, 2.5]))
        L = rows(p)
        np.testing.assert_array_equal(L[0], L[1])
        np.testing.assert_array_equal(L[1], L[2])

    def test_inner_products_match_posterior_expectation(self, rng):
        y = rng.normal(size=7)
        p = gaussian_embed(GaussianMeanData(y))
        mu_hat = y.sum() / 8
        s2 = 1.0 / 8
        gram = rows(p) @ rows(p).T
        expected = np.outer(y - mu_hat, y - mu_hat) + s2
        np.testing.assert_allclose(gram, expected, atol=1e-12)


class TestCoresetPosterior:
    def test_full_weights_recover_exact_posterior(self):
        y = np.array([0.3, -0.7, 1.2])
        w = WeightVector(np.arange(3), np.ones(3))
        mean, var = coreset_posterior_variance(GaussianMeanData(y), w)
        assert var == pytest.approx(1.0 / 4.0)
        assert mean == pytest.approx(y.sum() / 4.0)

    def test_empty_weights_give_prior(self):
        mean, var = coreset_posterior_variance(GaussianMeanData([1.0]),
                                               WeightVector.empty())
        assert (mean, var) == (0.0, 1.0)

    def test_total_mass_controls_variance(self):
        y = np.linspace(-1, 1, 10)
        w = WeightVector(np.array([4]), np.array([10.0]))
        mean, var = coreset_posterior_variance(GaussianMeanData(y), w)
        assert var == pytest.approx(1.0 / 11.0)   # same as the exact posterior
        assert mean != pytest.approx(y.sum() / 11.0)


class TestGradients:
    def test_logistic_at_zero(self):
        z = np.array([[2.0, -1.0, 1.0]])
        for label in (-1.0, 1.0):
            g = log_likelihood_grad("logistic", z, np.array([label]), np.zeros(3))
            np.testing.assert_allclose(g, 0.5 * label * z)

    def test_poisson_zero_count_saturates(self):
        z = np.array([[1.0, 1.0]])
        theta = np.array([-300.0, 0.0])
        g = log_likelihood_grad("poisson", z, np.array([0.0]), theta)
        np.testing.assert_allclose(g, 0.0, atol=1e-100)

    def test_overflow_safe_at_extreme_activations(self):
        # past exp's float64 limit (u = 709.78) e^-u overflows; the sigmoid
        # saturates to 0 or 1 without a warning
        z = np.array([[1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for model, y in (("logistic", 1.0), ("poisson", 3.0)):
                for u in (-800.0, -500.0, 500.0, 800.0):
                    g = log_likelihood_grad(model, z, np.array([y]), np.array([u, 0.0]))
                    c = _curvature(model, np.array([y]), np.array([u]))
                    assert np.all(np.isfinite(g)) and np.all(np.isfinite(c))

    def test_poisson_curvature_nonnegative_at_negative_activations(self):
        # s(1-s) + y(s/lam)^2 - y s(1-s)/lam cancels to rounding when s is tiny
        u = np.array([-40.0, -100.0, -500.0, -800.0])
        c = _curvature("poisson", np.full(u.size, 3.0), u)
        assert np.all(c >= 0.0), c

    @pytest.mark.parametrize("model", ["logistic", "poisson"])
    def test_matches_central_differences(self, model, rng):
        h = 1e-5
        for _ in range(100):
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(1, d))
            if model == "logistic":
                y = np.array([rng.choice([-1.0, 1.0])])
            else:
                y = np.array([float(rng.integers(0, 6))])
            data = RegressionData(x, y)
            Z = data.z
            theta = rng.normal(size=d + 1)
            grad = log_likelihood_grad(model, Z, y, theta)[0]
            fd = np.empty_like(theta)
            for j in range(theta.size):
                e = np.zeros_like(theta)
                e[j] = h
                fd[j] = (log_likelihood(model, Z, y, theta + e)
                         - log_likelihood(model, Z, y, theta - e)) / (2 * h)
            np.testing.assert_allclose(grad, fd, rtol=1e-6,
                                       atol=1e-6 * max(1.0, np.abs(grad).max()))


class TestExpit:
    def test_matches_scipy_within_4_ulp(self):
        from scipy.special import expit as reference

        rng = np.random.default_rng(8)
        scales = np.geomspace(1.0, 800.0, 8)
        u = (rng.standard_normal((scales.size, 125_000)) * scales[:, None]).ravel()
        want = reference(u)
        assert np.all(np.abs(expit(u) - want) <= 4 * np.spacing(want))
        special = np.array([np.inf, -np.inf, 0.0, -0.0, np.nan])
        np.testing.assert_array_equal(expit(special), reference(special))


class TestLaplace:
    def test_gaussian_mean_is_exact(self, rng):
        y = rng.normal(size=9)
        lap = laplace("gaussian", GaussianMeanData(y))
        assert lap.mode[0] == pytest.approx(y.sum() / 10.0, abs=1e-10)
        assert lap.covariance[0, 0] == pytest.approx(1.0 / 10.0, abs=1e-10)

    def test_label_symmetric_logistic_mode_is_zero(self, rng):
        x = rng.normal(size=(6, 2))
        data = RegressionData(np.vstack([x, x]),
                              np.concatenate([np.ones(6), -np.ones(6)]))
        lap = laplace("logistic", data)
        np.testing.assert_allclose(lap.mode, 0.0, atol=1e-8)

    @pytest.mark.parametrize("model", ["logistic", "poisson"])
    def test_gradient_norm_at_mode(self, model, rng):
        for _ in range(20):
            n = int(rng.integers(5, 40))
            d = int(rng.integers(1, 4))
            x = rng.normal(size=(n, d))
            if model == "logistic":
                y = rng.choice([-1.0, 1.0], size=n)
            else:
                y = rng.poisson(1.0, size=n).astype(float)
            data = RegressionData(x, y)
            lap = laplace(model, data)
            g = -lap.mode + log_likelihood_grad(model, data.z, y, lap.mode).sum(axis=0)
            assert np.linalg.norm(g) <= 1e-8

    def test_nonconvergence_reports_last_iterate(self):
        # the Hessian overflows to inf, so every Newton step is 0 and the
        # gradient stays at 1e300 for all of the default iterations
        data = RegressionData([[1e300], [-1e300]], [1.0, -1.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(LaplaceNotConverged) as err:
            laplace("logistic", data)
        assert str(err.value) == "Newton did not reach gradient norm 1e-08 in 100 iterations"
        np.testing.assert_array_equal(err.value.last_iterate, [0.0, 0.0])

    def test_covariance_is_spd(self, rng):
        data = RegressionData(rng.normal(size=(30, 2)),
                              rng.choice([-1.0, 1.0], size=30))
        lap = laplace("logistic", data)
        np.testing.assert_allclose(lap.covariance, lap.covariance.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(lap.covariance) > 0)
        np.testing.assert_allclose(lap.factor @ lap.factor.T, lap.covariance,
                                   atol=1e-12)

    def test_factor_is_the_cholesky_factor_of_the_covariance(self):
        cov = np.array([[2.0, 0.5], [0.5, 1.0]])
        lap = LaplaceApprox(mode=np.zeros(2), covariance=cov)
        np.testing.assert_array_equal(lap.factor, np.linalg.cholesky(cov))
        with pytest.raises(ValueError):             # numpy's LinAlgError
            LaplaceApprox(mode=np.zeros(2), covariance=np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError, match="covariance must be symmetric"):
            LaplaceApprox(mode=np.zeros(2), covariance=np.array([[1.0, 0.5], [0.0, 1.0]]))

    # No tested input rejects a full Newton step (the log posterior is
    # concave), so these two make the patched log-likelihood reject steps.
    def test_rejected_full_step_is_halved(self, rng, monkeypatch):
        data = synth_regression_data("logistic", 50, rng)
        want = laplace("logistic", data)
        thetas = []

        def first_step_rejected(model, Z, y, theta):
            thetas.append(theta)
            return -np.inf if len(thetas) == 2 else log_likelihood(model, Z, y, theta)

        monkeypatch.setattr(models, "log_likelihood", first_step_rejected)
        got = laplace("logistic", data).mode
        # from theta = 0, the second candidate is half of the first
        np.testing.assert_array_equal(thetas[2], 0.5 * thetas[1])
        # both fits stop within LAPLACE_GRAD_TOL of a zero gradient, so each
        # mode is within ||covariance|| times that of the exact one
        tol = 2 * LAPLACE_GRAD_TOL * np.linalg.norm(want.covariance, 2)
        np.testing.assert_allclose(got, want.mode, rtol=0, atol=tol)

    def test_no_acceptable_step_ends_the_fit(self, rng, monkeypatch):
        data = synth_regression_data("logistic", 50, rng)
        thetas = []

        def every_step_rejected(model, Z, y, theta):
            thetas.append(theta)
            return log_likelihood(model, Z, y, theta) if len(thetas) == 1 else -np.inf

        monkeypatch.setattr(models, "log_likelihood", every_step_rejected)
        with pytest.raises(LaplaceNotConverged,
                           match="no acceptable step at iteration 1 ") as err:
            laplace("logistic", data)
        np.testing.assert_array_equal(err.value.last_iterate, np.zeros(3))
        # the start, then the steps 1, 1/2, ..., 2^-39 of the first iteration only
        assert len(thetas) == 1 + 40


class TestProjection:
    def test_identical_rows_identical_embeddings(self, rng):
        x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        y = np.array([1.0, 1.0, -1.0])
        data = RegressionData(x, y)
        lap = laplace("logistic", data)
        p = project("logistic", data, lap, 16, seed=0)
        L = rows(p)
        np.testing.assert_array_equal(L[0], L[1])

    def test_embedding_dimension(self, rng):
        data = RegressionData(rng.normal(size=(5, 3)),
                              rng.choice([-1.0, 1.0], size=5))
        lap = laplace("logistic", data)
        p = project("logistic", data, lap, 1, seed=1)
        assert p.dimension == 4

    @pytest.mark.parametrize("S", [0, -1])
    def test_rejects_nonpositive_sample_count(self, rng, S):
        data = RegressionData(rng.normal(size=(5, 2)),
                              rng.choice([-1.0, 1.0], size=5))
        lap = laplace("logistic", data)
        with pytest.raises(ValueError, match="S must be >= 1"):
            project("logistic", data, lap, S, seed=0)

    def test_deterministic_given_seed(self, rng):
        data = RegressionData(rng.normal(size=(6, 2)),
                              rng.choice([-1.0, 1.0], size=6))
        lap = laplace("logistic", data)
        p1 = project("logistic", data, lap, 8, seed=5)
        p2 = project("logistic", data, lap, 8, seed=5)
        np.testing.assert_array_equal(rows(p1), rows(p2))

    @pytest.mark.parametrize("model", ["logistic", "poisson"])
    def test_same_bytes_as_stacked_gradient_blocks(self, model, rng):
        data = synth_regression_data(model, 300, rng)
        lap = laplace(model, data)
        S, seed = 12, 7
        draws = np.random.default_rng(seed).standard_normal((S, lap.mode.size))
        blocks = [log_likelihood_grad(model, data.z, data.y, theta)
                  for theta in lap.mode + draws @ lap.factor.T]
        expected = build_problem(np.hstack(blocks) / np.sqrt(S))
        p = project(model, data, lap, S, seed)
        assert p.norms.tobytes() == expected.norms.tobytes()
        assert p.unit_vectors.tobytes() == expected.unit_vectors.tobytes()

    def test_peak_memory_is_one_embedding(self, rng):
        # the embedding, which the problem takes over as its unit vectors
        data = synth_regression_data("logistic", 2000, rng)
        lap = laplace("logistic", data)
        S = default_sample_count(data.d + 1)
        p, peak = traced_peak(lambda: project("logistic", data, lap, S, seed=0))
        assert peak <= 1.5 * p.unit_vectors.nbytes

    def test_gaussian_gram_approaches_closed_form(self, rng):
        y = rng.normal(0.5, 1.0, size=10)
        data = GaussianMeanData(y)
        exact = gaussian_embed(data)
        exact_gram = rows(exact) @ rows(exact).T
        lap = laplace("gaussian", data)
        proj = project("gaussian", data, lap, 10_000, seed=2)
        gram = rows(proj) @ rows(proj).T
        rel = np.abs(gram - exact_gram) / np.maximum(np.abs(exact_gram), 1e-12)
        assert np.median(rel) <= 0.05

    def test_default_sample_count_targets_500(self):
        assert default_sample_count(1) == 500
        assert default_sample_count(3) == 167
        assert default_sample_count(501) == 1


class TestValidation:
    def test_logistic_labels_checked(self, rng):
        data = RegressionData(rng.normal(size=(4, 2)), np.array([0.0, 1.0, 1.0, 0.0]))
        with pytest.raises(ValueError, match="labels"):
            laplace("logistic", data)

    def test_poisson_counts_checked(self, rng):
        data = RegressionData(rng.normal(size=(3, 1)), np.array([1.0, -2.0, 0.0]))
        with pytest.raises(ValueError, match="counts"):
            laplace("poisson", data)

    @pytest.mark.parametrize("make", [
        GaussianMeanData,
        lambda v: RegressionData(v, [1.0]),
        lambda v: RegressionData([[1.0]], v),
    ], ids=["gaussian-y", "regression-x", "regression-y"])
    @NOT_REAL
    def test_string_and_complex_data_rejected(self, make, values, message):
        with pytest.raises(ValueError, match=f"^invalid (observation|regression data): "
                                             f"{message}$"):
            make(values)

    def test_observations_nonempty_and_finite(self):
        with pytest.raises(ValueError, match="at least one observation"):
            GaussianMeanData([])
        with pytest.raises(ValueError, match="non-finite observation"):
            GaussianMeanData([1.0, np.nan])

    def test_one_dimensional_features_are_one_column(self):
        data = RegressionData([0.5, -1.0, 2.0], [1.0, -1.0, 1.0])
        assert data.x.shape == (3, 1) and data.d == 1

    def test_rows_and_targets_agree_in_length(self):
        with pytest.raises(ValueError, match="disagree in length"):
            RegressionData(np.ones((3, 2)), [1.0, -1.0])

    def test_features_must_be_1d_or_2d(self):
        with pytest.raises(ValueError, match=r"1-D or 2-D array, not shape \(3, 2, 2\)"):
            RegressionData(np.ones((3, 2, 2)), [1.0, -1.0, 1.0])

    def test_each_model_takes_its_own_data(self, rng):
        regression = RegressionData(rng.normal(size=(3, 1)), np.array([1.0, -1.0, 1.0]))
        with pytest.raises(TypeError, match="gaussian model needs GaussianMeanData"):
            _design("gaussian", regression)
        for model in REGRESSION_MODELS:
            with pytest.raises(TypeError, match=f"{model} model needs RegressionData"):
                _design(model, GaussianMeanData([1.0, -1.0, 1.0]))

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            laplace("probit", GaussianMeanData([1.0]))
        for fn in (log_likelihood, log_likelihood_grad):
            with pytest.raises(ValueError, match="unknown model 'bogus'"):
                fn("bogus", np.ones((3, 2)), np.ones(3), np.zeros(2))
