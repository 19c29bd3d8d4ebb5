"""Quickstart: compose, fit and tune an end-to-end pipeline from primitives.

This walks through the core ML Bazaar workflow from the paper:

1. browse the curated primitive catalog,
2. compose a pipeline from primitive names alone (no glue code),
3. fit it and predict,
4. wrap it in a template and tune it with a Bayesian-optimization tuner,
5. run a full AutoBazaar search on a parallel execution backend.

Run with:  python examples/quickstart.py

The same backend selection is available on the command line when solving
an on-disk task folder::

    python -m repro.automl path/to/task --backend process --workers 4

``--backend serial`` (the default) reproduces the classic single-threaded
loop record-for-record; ``process`` dispatches the cross-validation
folds of each candidate pipeline to a supervised pool of worker processes, with
``--pending N`` evaluations kept in flight by the sliding-window
scheduler.  Record-for-record reproducibility across backends
additionally requires deterministic pipelines (estimator
``random_state`` seeded via template ``init_params`` or
``estimator_seed``).

These are three of the 8 execution knobs.  Library and command line share
them — a flag ``--some-knob`` is the keyword ``some_knob`` (``--pending``
is ``n_pending``) — and ``repro.automl.config.ExecutionConfig``, described
in README's "Execution configuration" section, is where each one is
defaulted, validated and documented.
"""

import numpy as np

from repro import MLPipeline, Template, get_default_registry
from repro.automl import AutoBazaarSearch
from repro.learners.metrics import f1_score
from repro.learners.model_selection import train_test_split
from repro.tasks import synth
from repro.tuning import GPEiTuner


def main():
    # ------------------------------------------------------------------ catalog
    registry = get_default_registry()
    print("Curated catalog: {} primitives".format(len(registry)))
    for source, count in sorted(registry.count_by_source().items()):
        print("  {:25s} {}".format(source, count))

    # ------------------------------------------------------------------ data
    rng = np.random.RandomState(42)
    X = rng.normal(size=(300, 10))
    y = np.where(X[:, 0] + 0.5 * X[:, 1] * X[:, 2] > 0, "churn", "stay")
    X_train, X_test, y_train, y_test = train_test_split(X, y, test_size=0.3, random_state=0)

    # ------------------------------------------------------------------ pipeline
    # The pipeline description interface: just the ordered list of primitives.
    pipeline = MLPipeline([
        "mlprimitives.custom.preprocessing.ClassEncoder",
        "sklearn.impute.SimpleImputer",
        "sklearn.preprocessing.StandardScaler",
        "xgboost.XGBClassifier",
        "mlprimitives.custom.preprocessing.ClassDecoder",
    ])
    pipeline.fit(X=X_train, y=y_train)
    predictions = pipeline.predict(X=X_test)
    print("\nDefault pipeline macro-F1: {:.3f}".format(f1_score(y_test, predictions)))

    # The computational graph recovered from the description (paper Algorithm 1):
    graph = pipeline.graph()
    print("Recovered graph: {} nodes, {} edges".format(
        graph.number_of_nodes(), graph.number_of_edges()))

    # ------------------------------------------------------------------ tuning
    template = Template(
        name="quickstart_xgb",
        primitives=pipeline.primitives,
    )
    tuner = GPEiTuner(template.get_tunable_hyperparameters(), random_state=0)

    best_score = -np.inf
    best_params = None
    for iteration in range(10):
        params = tuner.propose()
        candidate = template.build_pipeline(params)
        candidate.fit(X=X_train, y=y_train)
        score = f1_score(y_test, candidate.predict(X=X_test))
        tuner.record(params, score)
        if score > best_score:
            best_score, best_params = score, params
        print("  iteration {:2d}  f1={:.3f}  best={:.3f}".format(iteration, score, best_score))

    print("\nBest tuned macro-F1: {:.3f}".format(best_score))
    print("Best hyperparameters:")
    for (step, name), value in sorted(best_params.items(), key=lambda kv: str(kv[0])):
        print("  {:55s} {} = {}".format(step, name, value))

    # ------------------------------------------------------------------ backends
    # A full AutoBazaar search on the process backend: cross-validation folds
    # are dispatched to a pool of worker processes, and n_pending > 1 keeps
    # that many candidates in flight (constant-liar proposals).  The
    # execution knobs are collected into one validated ExecutionConfig,
    # readable back as searcher.execution.
    task = synth.make_single_table_classification(n_samples=200, random_state=0)
    searcher = AutoBazaarSearch(
        n_splits=2, random_state=0, backend="process", workers=2, n_pending=2,
    )
    search_result = searcher.search(task, budget=6)
    print("\nAutoBazaar search on the process backend:")
    print("  best template : {}".format(search_result.best_template))
    print("  best cv score : {:.3f}".format(search_result.best_score))
    print("  throughput    : {:.2f} pipelines/sec".format(
        search_result.pipelines_per_second))


if __name__ == "__main__":
    main()
