"""Hyperparameter types and the joint tunable space.

Each hyperparameter maps its values into the unit interval so that a
tuner's meta-model works on a fixed-size numeric vector regardless of the
mix of integer, float, boolean and categorical hyperparameters in a
template's configuration space Lambda.
"""

import numpy as np

from repro.learners.base import check_random_state


class BaseHyperparam:
    """Common interface of all hyperparameter types."""

    def sample(self, rng):
        """Draw a random value."""
        raise NotImplementedError

    def to_unit(self, value):
        """Map a value into [0, 1]."""
        raise NotImplementedError

    def from_unit(self, unit):
        """Map a number in [0, 1] back to a valid value."""
        raise NotImplementedError

    def to_units(self, values):
        """Map a sequence of values into [0, 1]: ``to_unit`` of each, as one array."""
        return np.asarray([self.to_unit(value) for value in values], dtype=float)

    def __repr__(self):
        return "{}({!r})".format(type(self).__name__, getattr(self, "name", None))


class _RangeHyperparam(BaseHyperparam):
    """A number on the inclusive range ``[low, high]``, mapped linearly onto [0, 1]."""

    def to_unit(self, value):
        if self.high == self.low:
            return 0.0
        return (float(value) - self.low) / (self.high - self.low)

    def to_units(self, values):
        if self.high == self.low:
            return np.zeros(len(values))
        # the same float operations as ``to_unit``, elementwise
        numbers = np.fromiter(map(float, values), dtype=float, count=len(values))
        return (numbers - self.low) / (self.high - self.low)


class IntHyperparam(_RangeHyperparam):
    """Integer hyperparameter on an inclusive range."""

    def __init__(self, name, low, high, default=None):
        if low > high:
            raise ValueError("low must not exceed high")
        self.name = name
        self.low = int(low)
        self.high = int(high)
        self.default = int(default) if default is not None else self.low

    def sample(self, rng):
        return int(rng.randint(self.low, self.high + 1))

    def from_unit(self, unit):
        value = int(round(self.low + float(np.clip(unit, 0.0, 1.0)) * (self.high - self.low)))
        return int(np.clip(value, self.low, self.high))


class FloatHyperparam(_RangeHyperparam):
    """Float hyperparameter on an inclusive range."""

    def __init__(self, name, low, high, default=None):
        if low > high:
            raise ValueError("low must not exceed high")
        self.name = name
        self.low = float(low)
        self.high = float(high)
        self.default = float(default) if default is not None else self.low

    def sample(self, rng):
        return float(rng.uniform(self.low, self.high))

    def from_unit(self, unit):
        value = self.low + float(np.clip(unit, 0.0, 1.0)) * (self.high - self.low)
        return float(np.clip(value, self.low, self.high))


class BooleanHyperparam(BaseHyperparam):
    """Boolean hyperparameter."""

    def __init__(self, name, default=False):
        self.name = name
        self.default = bool(default)

    def sample(self, rng):
        return bool(rng.randint(0, 2))

    def to_unit(self, value):
        return 1.0 if value else 0.0

    def from_unit(self, unit):
        return bool(unit >= 0.5)


class CategoricalHyperparam(BaseHyperparam):
    """Categorical hyperparameter over an explicit list of values.

    Values may be arbitrary hashable-or-not objects (tuples, ``None``,
    strings); equality is used to find a value's position.
    """

    def __init__(self, name, values, default=None):
        if not values:
            raise ValueError("Categorical hyperparameter requires at least one value")
        self.name = name
        self.values = list(values)
        self.default = default if default is not None else self.values[0]

    def _index(self, value):
        for position, candidate in enumerate(self.values):
            if candidate == value:
                return position
        raise ValueError(
            "Value {!r} is not among the categories of {!r}".format(value, self.name)
        )

    def sample(self, rng):
        return self.values[int(rng.randint(0, len(self.values)))]

    def to_unit(self, value):
        index = self._index(value)
        if len(self.values) == 1:
            return 0.0
        return index / (len(self.values) - 1)

    def from_unit(self, unit):
        position = int(round(float(np.clip(unit, 0.0, 1.0)) * (len(self.values) - 1)))
        return self.values[position]


def hyperparam_from_spec(name, spec):
    """Build a tuning hyperparameter from a core :class:`HyperparamSpec`."""
    if spec.type == "int":
        return IntHyperparam(name, spec.range[0], spec.range[1], default=spec.default)
    if spec.type == "float":
        return FloatHyperparam(name, spec.range[0], spec.range[1], default=spec.default)
    if spec.type == "bool":
        return BooleanHyperparam(name, default=spec.default)
    if spec.type == "categorical":
        return CategoricalHyperparam(name, spec.values, default=spec.default)
    raise ValueError("Unsupported hyperparameter type {!r}".format(spec.type))


class Tunable:
    """The joint hyperparameter configuration space of a template.

    Parameters
    ----------
    hyperparams:
        Mapping from hyperparameter key (any hashable, typically a
        ``(step_name, hyperparam_name)`` tuple) to a hyperparameter object.
    """

    def __init__(self, hyperparams):
        if not hyperparams:
            raise ValueError("A Tunable requires at least one hyperparameter")
        self.hyperparams = dict(hyperparams)
        self.keys = list(self.hyperparams)

    @classmethod
    def from_specs(cls, specs):
        """Build a Tunable from ``{key: HyperparamSpec}`` (template tunable space)."""
        hyperparams = {
            key: hyperparam_from_spec(str(key), spec)
            for key, spec in specs.items()
            if spec.tunable
        }
        if not hyperparams:
            raise ValueError("No tunable hyperparameters in the provided specs")
        return cls(hyperparams)

    @property
    def dimensions(self):
        """Dimensionality of the vectorized space."""
        return len(self.keys)

    def defaults(self):
        """Default value for every hyperparameter."""
        return {key: self.hyperparams[key].default for key in self.keys}

    def sample(self, rng=None):
        """Draw one random configuration."""
        rng = check_random_state(rng)
        return {key: self.hyperparams[key].sample(rng) for key in self.keys}

    def sample_many(self, n, rng=None):
        """Draw ``n`` random configurations."""
        rng = check_random_state(rng)
        return [self.sample(rng) for _ in range(n)]

    def to_vector(self, params):
        """Vectorize a configuration into the unit hypercube."""
        missing = [key for key in self.keys if key not in params]
        if missing:
            raise ValueError("Configuration is missing hyperparameters: {}".format(missing))
        return np.asarray(
            [self.hyperparams[key].to_unit(params[key]) for key in self.keys], dtype=float
        )

    def to_matrix(self, configs):
        """Vectorize configurations into the rows of one unit-hypercube matrix.

        Row ``i`` is :meth:`to_vector` of ``configs[i]`` bit for bit, built a
        column at a time.  A configuration :meth:`to_vector` rejects raises
        what it raises there (the first such configuration's error).
        """
        try:
            columns = [
                self.hyperparams[key].to_units([params[key] for params in configs])
                for key in self.keys
            ]
        except (ArithmeticError, LookupError, TypeError, ValueError):
            pass
        else:
            return np.column_stack(columns)
        # some configuration is invalid: let ``to_vector`` say which, and how
        return np.vstack([self.to_vector(params) for params in configs])

    def from_vector(self, vector):
        """Recover a configuration from a unit-hypercube vector."""
        vector = np.asarray(vector, dtype=float).ravel()
        if len(vector) != self.dimensions:
            raise ValueError(
                "Vector has {} entries but the space has {} dimensions".format(
                    len(vector), self.dimensions
                )
            )
        return {
            key: self.hyperparams[key].from_unit(component)
            for key, component in zip(self.keys, vector)
        }

    def __repr__(self):
        return "Tunable({} hyperparameters)".format(self.dimensions)
