"""Gaussian process meta-models for Bayesian optimization.

Two kernels are provided because the paper's second case study
(Section VI-C) compares tuners built from the squared exponential kernel
against the Matérn 5/2 kernel proposed by Snoek et al. (2012).  A Gaussian
Copula Process variant (the meta-model behind the paper's GCP-EI tuner) is
also included.

A tuner refits its meta-model after every observation on the same rows plus
one, so a refit reuses what the previous fit of the same instance computed:
the Gram matrix block of the rows both fits share.  The reuse is exact, not
an approximation — every refit returns bit for bit what a fresh instance
returns on the same data (see :class:`GaussianProcessRegressor`).
"""

import numpy as np
from scipy import linalg, stats

from repro.learners.base import BaseEstimator


def squared_exponential_kernel(X1, X2, length_scale=0.3, signal_variance=1.0):
    """Squared exponential (RBF) kernel matrix."""
    return _squared_exponential(_pairwise_sq_dists(X1, X2, length_scale), signal_variance)


def matern52_kernel(X1, X2, length_scale=0.3, signal_variance=1.0):
    """Matérn 5/2 kernel matrix (paper Section VI-C, Snoek et al. 2012).

    K(x, x') = theta0 (1 + sqrt(5 r^2) + 5/3 r^2) exp(-sqrt(5 r^2)),
    where r^2 is the length-scale-normalized squared distance.
    """
    return _matern52(_pairwise_sq_dists(X1, X2, length_scale), signal_variance)


def _squared_exponential(sq_dists, signal_variance=1.0):
    return signal_variance * np.exp(-0.5 * sq_dists)


def _matern52(sq_dists, signal_variance=1.0):
    root5_r = np.sqrt(5.0 * sq_dists)
    return signal_variance * (1.0 + root5_r + 5.0 * sq_dists / 3.0) * np.exp(-root5_r)


def _pairwise_sq_dists(X1, X2, length_scale):
    X1 = np.atleast_2d(np.asarray(X1, dtype=float))
    X2 = np.atleast_2d(np.asarray(X2, dtype=float))
    return _scaled_sq_dists(X1[:, None, :] - X2[None, :, :], length_scale)


def _scaled_sq_dists(diff, length_scale):
    return np.sum((diff / length_scale) ** 2, axis=-1)


#: Each kernel as a function of the length-scale-normalized squared distance.
KERNELS = {
    "se": _squared_exponential,
    "matern52": _matern52,
}


def _common_prefix(A, B):
    """Number of leading rows ``A`` and ``B`` share, compared by value."""
    limit = min(len(A), len(B))
    same = np.all(A[:limit] == B[:limit], axis=1)
    return limit if same.all() else int(same.argmin())


class GaussianProcessRegressor(BaseEstimator):
    """Gaussian process regression with a fixed kernel family.

    The kernel length scale is chosen by maximizing the log marginal
    likelihood over a small grid, which mirrors the paper's note that "the
    kernel hyperparameters are set by optimizing the marginal likelihood".

    Refitting one instance is incremental.  ``fit`` keeps its training rows
    and one Gram matrix per candidate length scale, noise already on the
    diagonal.  The next ``fit`` keeps the block of the leading rows that
    equal the previous ones by value (the longest common prefix) and
    computes kernel values for the other rows only, from one array of
    pairwise differences shared by the length-scale grid.  The Cholesky
    factorisations and solves still run in full for every length scale.

    This is exact: a Gram entry depends on its two rows alone and is
    evaluated by the same expression whichever block it lands in, and the
    mirrored block holds the same numbers as a direct evaluation because
    ``(-a) ** 2 == a ** 2``.  So a refit returns bit for bit what a fresh
    instance returns on the same data, whatever the previous fit saw.

    Parameters
    ----------
    kernel:
        ``"se"`` or ``"matern52"``.
    noise:
        Observation noise variance added to the kernel diagonal.
    normalize_y:
        Standardize the targets before fitting.
    """

    def __init__(self, kernel="se", noise=1e-6, normalize_y=True, length_scales=(0.1, 0.3, 1.0)):
        self.kernel = kernel
        self.noise = noise
        self.normalize_y = normalize_y
        self.length_scales = length_scales

    def _kernel_fn(self):
        try:
            return KERNELS[self.kernel]
        except KeyError:
            raise ValueError(
                "Unknown kernel {!r}; available kernels: {}".format(self.kernel, sorted(KERNELS))
            ) from None

    def _grams(self, X):
        """One Gram matrix (noise on the diagonal) per length scale, over the rows of ``X``."""
        kernel_fn = self._kernel_fn()
        noise = max(self.noise, 1e-10)
        key = (self.kernel, noise, tuple(self.length_scales), X.shape[1])
        kept, previous = 0, None
        cached = getattr(self, "_gram_cache", None)
        if cached is not None and cached[0] == key:
            _, rows, previous = cached
            kept = _common_prefix(rows, X)
        n_rows = len(X)
        diff = X[kept:, None, :] - X[None, :, :]
        new = np.arange(n_rows - kept)
        grams = []
        for index, length_scale in enumerate(self.length_scales):
            block = kernel_fn(_scaled_sq_dists(diff, length_scale))
            block[new, kept + new] += noise
            gram = np.empty((n_rows, n_rows))
            if kept:
                gram[:kept, :kept] = previous[index][:kept, :kept]
                gram[:kept, kept:] = block[:, :kept].T
            gram[kept:] = block
            grams.append(gram)
        self._gram_cache = (key, X.copy(), grams)
        return grams

    def fit(self, X, y):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != len(y):
            raise ValueError("X and y have inconsistent lengths")
        if self.normalize_y:
            self._y_mean = float(y.mean())
            self._y_std = float(y.std()) or 1.0
        else:
            self._y_mean, self._y_std = 0.0, 1.0
        targets = (y - self._y_mean) / self._y_std

        best = None
        for length_scale, gram in zip(self.length_scales, self._grams(X)):
            try:
                cho = linalg.cho_factor(gram, lower=True, check_finite=False)
            except linalg.LinAlgError:
                continue
            alpha = linalg.cho_solve(cho, targets, check_finite=False)
            log_likelihood = (
                -0.5 * targets @ alpha
                - np.sum(np.log(np.diag(cho[0])))
                - 0.5 * len(targets) * np.log(2.0 * np.pi)
            )
            if best is None or log_likelihood > best[0]:
                best = (log_likelihood, length_scale, cho, alpha)
        if best is None:
            raise RuntimeError("Gaussian process fit failed for every candidate length scale")
        self.log_marginal_likelihood_, self.length_scale_, self._cho, self._alpha = best
        self._X_train = X
        return self

    def predict(self, X, return_std=True):
        """Posterior mean (and standard deviation) at the query points."""
        self._check_fitted("_alpha")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        cross = self._kernel_fn()(_pairwise_sq_dists(X, self._X_train, self.length_scale_))
        mean = cross @ self._alpha
        mean = mean * self._y_std + self._y_mean
        if not return_std:
            return mean
        solved = linalg.cho_solve(self._cho, cross.T, check_finite=False)
        # the prior variance: both kernels are exactly 1.0 at distance zero
        variance = np.clip(1.0 - np.sum(cross * solved.T, axis=1), 1e-12, None)
        std = np.sqrt(variance) * self._y_std
        return mean, std


class GaussianCopulaProcessRegressor(BaseEstimator):
    """Gaussian copula process: GP regression on normal-scores of the targets.

    The observed scores are mapped through their empirical CDF onto
    standard normal quantiles before fitting the GP; predictions are mapped
    back through the empirical quantile function.  This is the meta-model
    primitive behind the GCP-EI tuner named in the paper (Section IV-B1).
    Refits go to one inner :class:`GaussianProcessRegressor`, so they reuse
    its Gram rows the same exact way.
    """

    def __init__(self, kernel="se", noise=1e-6):
        self.kernel = kernel
        self.noise = noise

    def fit(self, X, y):
        y = np.asarray(y, dtype=float).ravel()
        self._sorted_y = np.sort(y)
        ranks = stats.rankdata(y, method="average")
        uniform = ranks / (len(y) + 1.0)
        normal_scores = stats.norm.ppf(uniform)
        if not hasattr(self, "_gp"):
            self._gp = GaussianProcessRegressor(normalize_y=False)
        self._gp.set_params(kernel=self.kernel, noise=self.noise)
        self._gp.fit(X, normal_scores)
        return self

    def predict(self, X, return_std=True):
        """Posterior in the latent normal-score space, mean mapped back to score space."""
        self._check_fitted("_gp")
        mean, std = self._gp.predict(X, return_std=True)
        # map the latent mean back through the empirical quantile function
        uniform = stats.norm.cdf(mean)
        positions = uniform * (len(self._sorted_y) - 1)
        mapped_mean = np.interp(positions, np.arange(len(self._sorted_y)), self._sorted_y)
        if not return_std:
            return mapped_mean
        return mapped_mean, std

    def predict_latent(self, X):
        """Posterior mean and std in the latent (normal-score) space."""
        self._check_fitted("_gp")
        return self._gp.predict(X, return_std=True)
