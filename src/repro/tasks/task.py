"""The MLTask abstraction: raw data plus task and dataset metadata.

A task's data lives in a context dict (the same key-value structure the
pipeline execution engine consumes).  Keys listed in ``static_keys`` are
shared resources (a graph, an entity set) that are passed unchanged to
every split; every other key is sample-aligned with the target ``y`` and
is subset by row indices when splitting.
"""

import numpy as np

from repro.learners.base import check_random_state
from repro.learners.metrics import get_metric
from repro.tasks.types import TaskType, default_metric


class MLTask:
    """One ML task: dataset, task-type annotation and evaluation procedure.

    Parameters
    ----------
    name:
        Unique task name within a suite.
    data_modality, problem_type:
        The task type (paper Table II).
    context:
        Dict of ML data objects; must contain ``y`` plus whatever the
        templates for this task type expect (``X``, ``graph``,
        ``entityset``, ...).
    static_keys:
        Keys of ``context`` that are not sample-aligned.
    metric:
        Metric name from :mod:`repro.learners.metrics`; defaults to the
        problem type's standard metric.
    ordered:
        If True, splits preserve temporal order (no shuffling) — used by
        forecasting tasks.
    metadata:
        Free-form dataset metadata (source, difficulty parameters, ...).
    """

    def __init__(self, name, data_modality, problem_type, context, static_keys=(),
                 metric=None, ordered=False, metadata=None):
        if "y" not in context:
            raise ValueError("A task context must contain the target 'y'")
        self.name = name
        self.data_modality = data_modality
        self.problem_type = problem_type
        self.context = dict(context)
        self.static_keys = set(static_keys)
        self.metric = metric or default_metric(problem_type)
        self.ordered = ordered
        self.metadata = dict(metadata or {})
        self._validate_alignment()

    # -- basic properties ---------------------------------------------------------

    @property
    def task_type(self):
        """The ``(data_modality, problem_type)`` pair."""
        return TaskType(self.data_modality, self.problem_type)

    @property
    def n_samples(self):
        """Number of samples (length of the target)."""
        return len(self.context["y"])

    @property
    def sample_keys(self):
        """Context keys that are sample-aligned with the target."""
        return [key for key in self.context if key not in self.static_keys]

    @property
    def data_nbytes(self):
        """Total bytes of the ndarray context values.

        This is the amount of data a zero-copy transport has to publish
        (non-ndarray values cannot be shared and count as zero).
        """
        return sum(
            value.nbytes
            for value in self.context.values()
            if isinstance(value, np.ndarray)
        )

    def _validate_alignment(self):
        n = self.n_samples
        for key in self.sample_keys:
            if len(self.context[key]) != n:
                raise ValueError(
                    "Context key {!r} has length {} but the target has {} samples; "
                    "declare it in static_keys if it is not sample-aligned".format(
                        key, len(self.context[key]), n
                    )
                )

    # -- scoring ---------------------------------------------------------------------

    def score(self, y_true, y_pred):
        """Raw metric value for predictions against true targets."""
        metric_fn, _ = get_metric(self.metric)
        return float(metric_fn(y_true, y_pred))

    @property
    def higher_is_better(self):
        """Whether larger metric values are better."""
        return get_metric(self.metric)[1]

    def normalized_score(self, y_true, y_pred):
        """Metric value oriented so that higher is always better."""
        raw = self.score(y_true, y_pred)
        return raw if self.higher_is_better else -raw

    # -- splitting ---------------------------------------------------------------------

    def subset(self, indices, suffix="subset"):
        """A new task restricted to the given sample indices."""
        indices = np.asarray(indices)
        context = {}
        for key, value in self.context.items():
            if key in self.static_keys:
                context[key] = value
            else:
                context[key] = _take(value, indices)
        return MLTask(
            name="{}[{}]".format(self.name, suffix),
            data_modality=self.data_modality,
            problem_type=self.problem_type,
            context=context,
            static_keys=self.static_keys,
            metric=self.metric,
            ordered=self.ordered,
            metadata=self.metadata,
        )

    def pipeline_data(self, include_target=True):
        """The context as keyword arguments for ``MLPipeline.fit``/``predict``."""
        data = dict(self.context)
        if not include_target:
            data.pop("y", None)
        return data

    def __repr__(self):
        return "MLTask(name={!r}, task_type={}, n_samples={}, metric={!r})".format(
            self.name, self.task_type, self.n_samples, self.metric
        )


def _take(values, indices):
    if isinstance(values, np.ndarray):
        return values[indices]
    return [values[int(i)] for i in indices]


def holdout_count(task, test_size):
    """Number of test samples :func:`split_task` takes from ``task``.

    A float ``test_size`` is a fraction (at least one sample), anything
    else a count.  Raises ``ValueError`` when no training sample would be
    left.
    """
    n_samples = task.n_samples
    n_test = max(1, int(round(test_size * n_samples))) if isinstance(test_size, float) else int(test_size)
    if n_test >= n_samples:
        raise ValueError("test_size leaves no training samples")
    return n_test


def split_task(task, test_size=0.25, random_state=None):
    """Split a task into train and test tasks.

    Ordered tasks (forecasting) are split temporally: the last
    ``test_size`` fraction of samples becomes the test set.
    """
    n_samples = task.n_samples
    n_test = holdout_count(task, test_size)
    if task.ordered:
        train_indices = np.arange(n_samples - n_test)
        test_indices = np.arange(n_samples - n_test, n_samples)
    else:
        rng = check_random_state(random_state)
        permutation = rng.permutation(n_samples)
        test_indices = np.sort(permutation[:n_test])
        train_indices = np.sort(permutation[n_test:])
    return task.subset(train_indices, "train"), task.subset(test_indices, "test")


def task_cv_indices(task, n_splits=3, random_state=None):
    """Cross-validation folds of a task as ``(train_indices, val_indices)`` pairs.

    This is the index-level view behind :func:`task_cv_splits`.  The
    execution backends ship these index arrays (a few kilobytes) to the
    workers instead of materialized task subsets, so a worker holding the
    full task in its resident cache can rebuild any fold locally.

    Ordered tasks use expanding-window splits; unordered tasks use shuffled
    K-fold splits.
    """
    n_samples = task.n_samples
    if n_splits < 2:
        raise ValueError("n_splits must be at least 2")
    if n_samples < 2 * n_splits:
        n_splits = max(2, n_samples // 2)

    folds = []
    if task.ordered:
        # expanding window: train on [0, cut), validate on [cut, next_cut)
        fold_edges = np.linspace(n_samples // 2, n_samples, n_splits + 1, dtype=int)
        for i in range(n_splits):
            train_indices = np.arange(fold_edges[i])
            val_indices = np.arange(fold_edges[i], fold_edges[i + 1])
            if len(val_indices) == 0 or len(train_indices) == 0:
                continue
            folds.append((train_indices, val_indices))
    else:
        rng = check_random_state(random_state)
        indices = rng.permutation(n_samples)
        chunks = np.array_split(indices, n_splits)
        for i in range(n_splits):
            val_indices = np.sort(chunks[i])
            train_indices = np.sort(np.concatenate([chunks[j] for j in range(n_splits) if j != i]))
            folds.append((train_indices, val_indices))
    if not folds:
        raise ValueError("Could not build any cross-validation split for task {!r}".format(task.name))
    return folds


def materialize_cv_fold(task, train_indices, val_indices):
    """Build the ``(train_task, val_task)`` pair of one cross-validation fold."""
    return task.subset(train_indices, "cv-train"), task.subset(val_indices, "cv-val")


def task_cv_splits(task, n_splits=3, random_state=None):
    """Cross-validation splits of a task as ``(train_task, val_task)`` pairs.

    Ordered tasks use expanding-window splits; unordered tasks use shuffled
    K-fold splits.
    """
    return [
        materialize_cv_fold(task, train_indices, val_indices)
        for train_indices, val_indices in task_cv_indices(
            task, n_splits=n_splits, random_state=random_state
        )
    ]
