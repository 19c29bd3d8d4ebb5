"""Base estimator API shared by every learner in the substrate.

The design deliberately mirrors the scikit-learn ``fit``/``predict``
paradigm referenced throughout the ML Bazaar paper so that primitive
annotations can wrap our learners exactly the way MLPrimitives wraps
scikit-learn estimators.
"""

import copy
import inspect

import numpy as np


class NotFittedError(RuntimeError):
    """Raised when ``predict``/``transform`` is called before ``fit``."""


class BaseEstimator:
    """Base class providing parameter introspection and cloning.

    Subclasses must accept all of their configuration through explicit
    keyword arguments in ``__init__`` and store each argument on an
    attribute of the same name.  This is the contract that makes
    ``get_params`` / ``set_params`` and therefore hyperparameter tuning
    work without any per-estimator glue code.
    """

    @classmethod
    def _param_names(cls):
        init = cls.__init__
        if init is object.__init__:
            return []
        signature = inspect.signature(init)
        names = [
            name
            for name, parameter in signature.parameters.items()
            if name != "self" and parameter.kind != inspect.Parameter.VAR_KEYWORD
        ]
        return sorted(names)

    def get_params(self):
        """Return the constructor parameters of this estimator as a dict."""
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        """Set constructor parameters on this estimator.

        Unknown parameter names raise ``ValueError`` so that tuners cannot
        silently misconfigure an estimator.
        """
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    "Invalid parameter {!r} for estimator {}".format(name, type(self).__name__)
                )
            setattr(self, name, value)
        return self

    def _check_fitted(self, attribute):
        if not hasattr(self, attribute):
            raise NotFittedError(
                "{} instance is not fitted yet; call 'fit' first".format(type(self).__name__)
            )

    def __repr__(self):
        params = ", ".join("{}={!r}".format(k, v) for k, v in self.get_params().items())
        return "{}({})".format(type(self).__name__, params)


def clone(estimator):
    """Return an unfitted copy of ``estimator`` with the same parameters."""
    params = {key: copy.deepcopy(value) for key, value in estimator.get_params().items()}
    return type(estimator)(**params)


class ClassifierMixin:
    """Mixin adding ``score`` (accuracy) for classifiers."""

    _estimator_type = "classifier"

    def score(self, X, y):
        from repro.learners.metrics import accuracy_score

        return accuracy_score(y, self.predict(X))


class RegressorMixin:
    """Mixin adding ``score`` (R^2) for regressors."""

    _estimator_type = "regressor"

    def score(self, X, y):
        from repro.learners.metrics import r2_score

        return r2_score(y, self.predict(X))


class TransformerMixin:
    """Mixin adding ``fit_transform`` for transformers."""

    _estimator_type = "transformer"

    def fit_transform(self, X, y=None):
        return self.fit(X, y).transform(X)


def check_seed(seed):
    """Raise the ``ValueError`` ``check_random_state(seed)`` would, seeding nothing.

    For callers that may never draw and so defer building the generator.
    """
    if isinstance(seed, (int, np.integer)):
        if not 0 <= seed < 2 ** 32:
            raise ValueError("Seed must be between 0 and 2**32 - 1")
    else:
        check_random_state(seed)


def check_random_state(seed):
    """Turn ``seed`` into a ``numpy.random.RandomState`` instance.

    ``None`` returns the process-global RandomState singleton (the sklearn
    convention), so unseeded components follow ``np.random.seed`` instead
    of drawing a fresh OS-entropy seed per component — without this, no
    ambient seeding can ever make an unseeded pipeline reproducible.
    """
    if seed is None:
        return np.random.mtrand._rand
    if isinstance(seed, np.random.RandomState):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.RandomState(int(seed))
    raise ValueError("Cannot use {!r} to seed a RandomState".format(seed))
