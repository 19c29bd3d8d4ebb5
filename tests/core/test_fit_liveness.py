"""Oracle test for demand-driven pipeline fit.

``MLPipeline.fit`` calls ``produce`` only on steps whose output a later
step reads (:func:`repro.core.graph.live_produces`).  The reference
semantics it must preserve is the executor it replaced — every step fits
*and* produces — frozen here as :class:`_AllLiveReference`.  The fast path
is compared against that one reference, never against its neighbours:

(a) every template of the default catalog on its Table II task, default
    plus two sampled configurations: equal predictions, equal pickled
    fitted state, equal prefix-cache traffic on live steps, and the exact
    list of dead steps;
(b) synthetic wirings through a registry of probe primitives — overwrite
    chains, fit-only readers, readers that are dead themselves, optional
    readers, renames, a dead step inside the cacheable prefix — plus a
    seeded sweep of random wirings whose liveness is cross-checked by graph
    reachability, an algorithm that shares nothing with the production
    rule's backwards ``needed`` set;
(c) batched evaluation equals looped evaluation, including the error
    string that lists the keys available at fit time.
"""

import pickle
import zlib

import numpy as np
import pytest

from repro.automl import evaluate_pipeline
from repro.automl.batch_eval import evaluate_candidate_group
from repro.automl.catalog import default_template_catalog, seed_templates
from repro.automl.prefix_cache import FittedPrefixCache
from repro.core.annotations import PrimitiveAnnotation
from repro.core.context import Context
from repro.core.graph import live_produces
from repro.core.pipeline import MLPipeline
from repro.core.registry import PrimitiveRegistry
from repro.core.step import PipelineStep
from repro.core.template import Template
from repro.tasks import build_task_suite, synth
from repro.tasks.task import split_task
from repro.tuning.hyperparams import Tunable


# -- the frozen reference -----------------------------------------------------------


class _AllLiveReference:
    """The fit loop ``MLPipeline.fit`` ran before liveness, frozen.

    Every step fits and produces, every prefix step goes through the cache.
    ``cache_events`` keeps one ``(step index, "hit" | "miss", bytes written)``
    per cache interaction so the new counters can be checked on the steps
    that are still part of the protocol.
    """

    def __init__(self):
        self.cache_events = []

    def fit(self, pipeline, prefix_cache=None, data_key=None, **data):
        context = Context(data)
        caching = prefix_cache is not None
        prefix_length = pipeline._cacheable_prefix_length() if caching else 0
        fingerprints = pipeline.prefix_fingerprints(data_key) if caching else None
        for index, step in enumerate(pipeline.steps):
            cacheable = index < prefix_length
            if cacheable:
                artifacts = prefix_cache.get(fingerprints[index])
                if artifacts is not None:
                    self.cache_events.append((index, "hit", 0))
                    step.restore_fitted(artifacts["instance"])
                    outputs = artifacts["outputs"]
                    if outputs is not None:
                        context.record(step.name, outputs)
                    continue
            step.fit(context)
            outputs = step.produce(context, skip_if_missing=False)
            if cacheable:
                written = prefix_cache.put(
                    fingerprints[index], {"instance": step._instance, "outputs": outputs}
                )
                self.cache_events.append((index, "miss", written))
            if outputs is not None:
                context.record(step.name, outputs)
        pipeline.fitted = True
        pipeline._fit_context_keys = sorted(context.keys())
        return pipeline

    def cache_info(self, live):
        """The counters a fit that skips dead steps must report."""
        events = [event for event in self.cache_events if live[event[0]]]
        return {
            "hits": sum(kind == "hit" for _, kind, _ in events),
            "misses": sum(kind == "miss" for _, kind, _ in events),
            "bytes_written": sum(written for _, _, written in events),
        }


def _liveness_by_reachability(steps):
    """Fit-time liveness from the data-flow graph of an all-steps-produce run.

    Forward pass: resolve every declared read to the step that wrote the key
    last.  A step's ``produce`` is live iff it is reachable, backwards along
    produce-reads, from some step's ``fit``.
    """
    last_writer = {}
    fit_sources, produce_sources = [], []
    for index, step in enumerate(steps):
        fit_sources.append({last_writer[k] for k in step.fit_inputs() if k in last_writer})
        produce_sources.append(
            {last_writer[k] for k in step.produce_inputs() if k in last_writer})
        for key in step.produce_outputs():
            last_writer[key] = index
    live = set()
    frontier = set().union(*fit_sources)
    while frontier:
        index = frontier.pop()
        if index not in live:
            live.add(index)
            frontier |= produce_sources[index]
    return [index in live for index in range(len(steps))]


@pytest.fixture
def produce_log(monkeypatch):
    """Names of the steps whose ``produce`` ran, in call order."""
    log = []
    original = PipelineStep.produce

    def produce(self, context, skip_if_missing=False):
        log.append(self.name)
        return original(self, context, skip_if_missing=skip_if_missing)

    monkeypatch.setattr(PipelineStep, "produce", produce)
    return log


def _short(step):
    return step.name.split(".")[-1].split("#")[0]


def _fitted_state(pipeline):
    return [pickle.dumps(step._instance) for step in pipeline.steps]


def _assert_same_value(actual, expected):
    assert type(actual) is type(expected)
    if isinstance(expected, np.ndarray):
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert pickle.dumps(actual) == pickle.dumps(expected)


def _assert_fit_matches_reference(build, fit_data, predict_data, produce_log, cached=True):
    """Fit fresh pipelines from ``build`` both ways: uncached, then cache-cold and -warm."""
    reference_cache, new_cache = FittedPrefixCache(), FittedPrefixCache()
    rounds = [({}, {})]
    if cached:
        rounds += 2 * [(dict(prefix_cache=reference_cache, data_key="data"),
                        dict(prefix_cache=new_cache, data_key="data"))]
    for reference_options, new_options in rounds:
        reference_pipeline, pipeline = build(), build()
        live = live_produces(pipeline.steps)
        assert live == _liveness_by_reachability(pipeline.steps)

        np.random.seed(0)
        reference = _AllLiveReference()
        reference.fit(reference_pipeline, **reference_options, **fit_data)
        np.random.seed(0)
        produce_log.clear()
        lookups_before = new_cache.stats.hits + new_cache.stats.misses
        pipeline.fit(**new_options, **fit_data)
        produced = list(produce_log)

        live_names = [step.name for step, is_live in zip(pipeline.steps, live) if is_live]
        if new_options:
            # a cache hit replaces fit + produce; a dead step is never looked up
            assert pipeline.prefix_cache_info == reference.cache_info(live)
            assert set(produced) <= set(live_names)
            lookups = new_cache.stats.hits + new_cache.stats.misses - lookups_before
            assert lookups == sum(live[:pipeline._cacheable_prefix_length()])
        else:
            assert pipeline.prefix_cache_info is None
            assert produced == live_names

        # a fit-less class primitive is only instantiated by its first produce
        fitless = [step.annotation.fit is None for step in pipeline.steps]
        assert [state for state, skip in zip(_fitted_state(pipeline), fitless) if not skip] == [
            state for state, skip in zip(_fitted_state(reference_pipeline), fitless) if not skip]
        # the keys actually present: the inputs plus what live steps wrote
        present = set(fit_data)
        for step, is_live in zip(pipeline.steps, live):
            if is_live:
                present.update(step.produce_outputs())
        assert pipeline.fit_context_keys == sorted(present)
        assert present <= set(reference_pipeline.fit_context_keys)

        _assert_same_value(pipeline.predict(**predict_data),
                           reference_pipeline.predict(**predict_data))
        assert _fitted_state(pipeline) == _fitted_state(reference_pipeline)
    return live


# -- (a) the whole default catalog ---------------------------------------------------

ESTIMATOR_AND_DECODER = {
    "xgb": ["XGBClassifier", "ClassDecoder"],
    "rf": ["RandomForestClassifier", "ClassDecoder"],
    "logistic": ["LogisticRegression", "ClassDecoder"],
}

#: Steps whose fit-time ``produce`` no later step reads, per catalog template.
EXPECTED_DEAD = {
    "community_detection_louvain": ["best_partition"],
    "graph_matching_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "graph_matching_rf": ESTIMATOR_AND_DECODER["rf"],
    "link_prediction_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "link_prediction_rf": ESTIMATOR_AND_DECODER["rf"],
    "vertex_nomination_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "vertex_nomination_rf": ESTIMATOR_AND_DECODER["rf"],
    "image_classification_mobilenet_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "image_classification_hog_rf": ESTIMATOR_AND_DECODER["rf"],
    "image_classification_sobel_logistic": ESTIMATOR_AND_DECODER["logistic"],
    "image_regression_mobilenet_xgb": ["XGBRegressor"],
    "image_regression_hog_ridge": ["Ridge"],
    "multi_table_classification_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "multi_table_classification_rf": ESTIMATOR_AND_DECODER["rf"],
    "multi_table_classification_logistic": ESTIMATOR_AND_DECODER["logistic"],
    "multi_table_regression_xgb": ["XGBRegressor"],
    "multi_table_regression_rf": ["RandomForestRegressor"],
    "multi_table_regression_ridge": ["Ridge"],
    "single_table_classification_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "single_table_classification_rf": ESTIMATOR_AND_DECODER["rf"],
    "single_table_classification_logistic": ESTIMATOR_AND_DECODER["logistic"],
    "collaborative_filtering_lightfm": ["LightFM"],
    "collaborative_filtering_xgb": ["XGBRegressor"],
    "single_table_regression_xgb": ["XGBRegressor"],
    "single_table_regression_rf": ["RandomForestRegressor"],
    "single_table_regression_ridge": ["Ridge"],
    "single_table_timeseries_forecasting_xgb": ["XGBRegressor"],
    "single_table_timeseries_forecasting_rf": ["RandomForestRegressor"],
    "single_table_timeseries_forecasting_ridge": ["Ridge"],
    "single_table_timeseries_forecasting_ar": ["ARRegressor"],
    "text_classification_lstm": ["LSTMTextClassifier"],
    "text_classification_tfidf_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "text_classification_tfidf_rf": ESTIMATOR_AND_DECODER["rf"],
    "text_classification_embedding_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "text_regression_xgb": ["XGBRegressor"],
    "text_regression_ridge": ["Ridge"],
    "timeseries_classification_xgb": ESTIMATOR_AND_DECODER["xgb"],
    "timeseries_classification_rf": ESTIMATOR_AND_DECODER["rf"],
    "timeseries_classification_logistic": ESTIMATOR_AND_DECODER["logistic"],
}


@pytest.fixture(scope="module")
def catalog_cases():
    """``{template name: (seeded template, its Table II task)}`` for the whole catalog."""
    catalog = default_template_catalog()
    tasks = build_task_suite(total_tasks=15, random_state=0).by_task_type()
    cases = {}
    for task_type in catalog.task_types():
        for template in seed_templates(catalog.get(*task_type), 0):
            cases[template.name] = (template, tasks[task_type][0])
    return cases


def _configurations(template):
    """Default hyperparameters plus two draws from the template's space (pinned seed)."""
    configurations = [template.default_hyperparameters()]
    space = template.get_tunable_hyperparameters()
    if space:
        rng = np.random.RandomState(zlib.crc32(template.name.encode("utf-8")))
        configurations += Tunable.from_specs(space).sample_many(2, rng)
    return configurations


class TestCatalogAgainstAllLiveReference:
    def test_expectations_cover_the_catalog(self, catalog_cases):
        assert sorted(catalog_cases) == sorted(EXPECTED_DEAD)
        assert len(EXPECTED_DEAD) == 39
        assert sum(len(dead) for dead in EXPECTED_DEAD.values()) == 60

    @pytest.mark.parametrize("template_name", sorted(EXPECTED_DEAD))
    def test_template(self, template_name, catalog_cases, produce_log):
        template, task = catalog_cases[template_name]
        train, val = split_task(task, test_size=0.3, random_state=0)
        for hyperparameters in _configurations(template):
            live = _assert_fit_matches_reference(
                lambda: template.build_pipeline(hyperparameters),
                train.pipeline_data(), val.pipeline_data(include_target=False), produce_log,
                # the cache rounds only depend on the wiring: defaults suffice
                cached=hyperparameters == template.default_hyperparameters(),
            )
            steps = template.build_pipeline(hyperparameters).steps
            dead = [_short(step) for step, is_live in zip(steps, live) if not is_live]
            assert dead == EXPECTED_DEAD[template_name]

    def test_fit_less_one_step_template_does_no_fit_time_work(self, catalog_cases, produce_log):
        template, task = catalog_cases["community_detection_louvain"]
        pipeline = template.build_pipeline()
        pipeline.fit(**task.pipeline_data())
        assert produce_log == []
        assert pipeline.fit_context_keys == sorted(task.pipeline_data())
        pipeline.predict(**task.pipeline_data(include_target=False))
        assert produce_log == [pipeline.steps[0].name]


# -- (b) synthetic wirings ------------------------------------------------------------

_CALLS = []  # (probe tag, "fit" | "produce") in call order


class _Probe:
    """Synthetic primitive: deterministic arithmetic over whatever it is wired to.

    ``fit`` remembers the sum of each input; ``produce`` mixes its inputs —
    an optional input changes the result when present — with what ``fit``
    saw, so a skipped upstream ``produce`` that mattered shows in the output.
    """

    def __init__(self, tag="probe", weight=1.0, n_outputs=1):
        self.tag = tag
        self.weight = weight
        self.n_outputs = n_outputs

    def fit(self, **inputs):
        _CALLS.append((self.tag, "fit"))
        self.fitted_ = {key: float(np.sum(inputs[key])) for key in sorted(inputs)}

    def produce(self, **inputs):
        _CALLS.append((self.tag, "produce"))
        mixed = sum(getattr(self, "fitted_", {}).values()) + self.weight * sum(
            (rank + 1) * np.asarray(inputs[key], dtype=float)
            for rank, key in enumerate(sorted(inputs))
        )
        outputs = tuple(mixed + index for index in range(self.n_outputs))
        return outputs[0] if self.n_outputs == 1 else outputs


def _probe(name, reads, writes, fit_reads=(), optional=(), category="preprocessor"):
    def arguments(keys):
        return [
            {"name": key, "type": key, **({"optional": True} if key in optional else {})}
            for key in keys
        ]

    return PrimitiveAnnotation(
        name=name, primitive=_Probe, category=category, source="test",
        fit={"method": "fit", "args": arguments(fit_reads)} if fit_reads else None,
        produce={
            "method": "produce", "args": arguments(reads),
            "output": [{"name": key, "type": key} for key in writes],
        },
        hyperparameters={"fixed": {
            "tag": name, "weight": 1.0 + zlib.crc32(name.encode("utf-8")) % 7,
            "n_outputs": len(writes),
        }},
    )


def _estimator(name="estimator", reads=("X",), fit_reads=("X", "y"), writes=("y",)):
    return _probe(name, reads, writes, fit_reads=fit_reads, category="estimator")


FIT_DATA = {"X": np.arange(6.0), "y": 2.0 * np.arange(6.0) + 1.0}
PREDICT_DATA = {"X": np.arange(6.0) + 0.5}


def _pipeline_factory(annotations, **wiring):
    registry = PrimitiveRegistry("liveness-probes")
    for annotation in annotations:
        registry.register(annotation)
    names = [annotation.name for annotation in annotations]
    return lambda: MLPipeline(names, registry=registry, **wiring)


def _check_wiring(annotations, expected_live, produce_log, **wiring):
    build = _pipeline_factory(annotations, **wiring)
    assert live_produces(build().steps) == expected_live
    live = _assert_fit_matches_reference(build, FIT_DATA, PREDICT_DATA, produce_log)
    assert live == expected_live

    # fit runs on every step that has one; produce only where live
    del _CALLS[:]
    build().fit(**FIT_DATA)
    assert [tag for tag, call in _CALLS if call == "fit"] == [
        annotation.name for annotation in annotations if annotation.fit is not None]
    assert [tag for tag, call in _CALLS if call == "produce"] == [
        annotation.name for annotation, is_live in zip(annotations, expected_live) if is_live]


class TestSyntheticWirings:
    def test_overwrite_chain_keeps_every_link(self, produce_log):
        # X -> X -> X: each read resolves to the nearest upstream writer, so
        # a step's outputs leave the needed set before its own inputs join
        _check_wiring(
            [_probe("a", ["X"], ["X"]), _probe("b", ["X"], ["X"], fit_reads=["X"]),
             _probe("c", ["X"], ["X"]), _estimator()],
            [True, True, True, False], produce_log,
        )

    def test_overwrite_of_a_key_nobody_reads_again(self, produce_log):
        # b overwrites W before anyone reads a's W: a is dead, b is live
        _check_wiring(
            [_probe("a", ["X"], ["W"]), _probe("b", ["X"], ["W"]),
             _estimator(fit_reads=("X", "W", "y"))],
            [False, True, False], produce_log,
        )

    def test_output_read_only_by_a_later_fit(self, produce_log):
        _check_wiring(
            [_probe("a", ["X"], ["Z"]), _probe("b", ["X"], ["W"], fit_reads=["Z"]),
             _estimator()],
            [True, False, False], produce_log,
        )

    def test_output_read_only_by_a_dead_produce_is_dead_too(self, produce_log):
        _check_wiring(
            [_probe("a", ["X"], ["W"]), _probe("b", ["W"], ["V"]), _estimator()],
            [False, False, False], produce_log,
        )

    def test_output_read_by_a_live_produce_is_live(self, produce_log):
        _check_wiring(
            [_probe("a", ["X"], ["W"]), _probe("b", ["W"], ["V"]),
             _estimator(fit_reads=("V", "y"))],
            [True, True, False], produce_log,
        )

    def test_optional_reader_keeps_its_producer_live(self, produce_log):
        _check_wiring(
            [_probe("hint", ["X"], ["H"]),
             _probe("b", ["X", "H"], ["X"], optional=["H"]), _estimator()],
            [True, True, False], produce_log,
        )

    def test_optional_fit_reader_keeps_its_producer_live(self, produce_log):
        _check_wiring(
            [_probe("hint", ["X"], ["H"]),
             _probe("estimator", ["X"], ["y"], fit_reads=["X", "y", "H"], optional=["H"],
                    category="estimator")],
            [True, False], produce_log,
        )

    def test_multi_output_step_is_live_through_any_output(self, produce_log):
        _check_wiring(
            [_probe("split", ["X"], ["P", "Q"]), _probe("b", ["Q"], ["X"]), _estimator()],
            [True, True, False], produce_log,
        )

    def test_renamed_keys_are_what_counts(self, produce_log):
        # a writes X as X2, b reads its X from X2, c's X goes to a key nobody reads
        _check_wiring(
            [_probe("a", ["X"], ["X"]), _probe("b", ["X"], ["X"]),
             _probe("c", ["X"], ["X"]), _estimator()],
            [True, True, False, False], produce_log,
            output_names={"a": {"X": "X2"}, "c": {"X": "unused"}},
            input_names={"b": {"X": "X2"}},
        )

    def test_renamed_reader_of_the_final_estimator(self, produce_log):
        # a post-step that fits on the estimator's output makes that output live
        _check_wiring(
            [_estimator(writes=("y",)),
             _probe("calibrate", ["scores"], ["y"], fit_reads=["scores"],
                    category="postprocessor")],
            [True, False], produce_log,
            output_names={"estimator": {"y": "scores"}},
        )

    def test_dead_step_inside_the_cacheable_prefix(self, produce_log, tmp_path):
        annotations = [
            _probe("a", ["X"], ["X"], fit_reads=["X"]),
            _probe("audit", ["X"], ["report"], fit_reads=["X"]),
            _estimator(),
        ]
        _check_wiring(annotations, [True, False, False], produce_log)

        build = _pipeline_factory(annotations)
        cache = FittedPrefixCache(cache_dir=str(tmp_path / "cache"))
        cold = build().fit(prefix_cache=cache, data_key="k", **FIT_DATA)
        assert cold.prefix_cache_info["hits"] == 0
        assert cold.prefix_cache_info["misses"] == 1  # "audit" is never looked up
        assert cold.prefix_cache_info["bytes_written"] > 0
        assert len(cache) == 1
        assert "report" not in cold.fit_context_keys

        del _CALLS[:]
        warm = build().fit(prefix_cache=cache, data_key="k", **FIT_DATA)
        assert warm.prefix_cache_info == {"hits": 1, "misses": 0, "bytes_written": 0}
        # the hit replaced a's fit and produce; the dead step was fitted afresh
        assert _CALLS == [("audit", "fit"), ("estimator", "fit")]
        assert len(cache) == 1
        # the cache itself saw one lookup and one store per fit of "a", nothing else
        stats = cache.stats.snapshot()
        assert (stats["hits"], stats["misses"], stats["stores"]) == (1, 1, 1)
        # the fingerprint chain still runs through the dead step
        assert len(set(warm.prefix_fingerprints("k"))) == 3
        _assert_same_value(warm.predict(**PREDICT_DATA), cold.predict(**PREDICT_DATA))

    def test_dead_produce_error_cannot_fail_the_fit(self, produce_log):
        # the estimator's produce needs a key that only exists at predict time
        build = _pipeline_factory([_estimator(reads=("X", "extra"))])
        pipeline = build().fit(**FIT_DATA)
        assert pipeline.fit_context_keys == ["X", "y"]
        with pytest.raises(RuntimeError, match=r"keys available at fit time: \['X', 'y'\]"):
            pipeline.predict(**PREDICT_DATA)
        pipeline.predict(extra=np.ones(6), **PREDICT_DATA)

    def test_random_wirings(self, produce_log):
        rng = np.random.RandomState(20)
        n_dead = 0
        for _ in range(150):
            annotations = _random_wiring(rng)
            build = _pipeline_factory(annotations)
            live = _assert_fit_matches_reference(build, FIT_DATA, PREDICT_DATA, produce_log)
            n_dead += live.count(False)
        assert n_dead > 150  # the sweep is not vacuous


def _random_wiring(rng):
    """A random valid step list: every required read is satisfiable at predict time."""
    keys = ["X", "A", "B", "C"]
    available = {"X"}
    annotations = []
    for position in range(int(rng.randint(1, 7))):
        pool = sorted(available)
        reads = list(rng.choice(pool, size=int(rng.randint(1, min(2, len(pool)) + 1)),
                                replace=False))
        optional = []
        if rng.rand() < 0.3:
            # may name a key no step has written (yet): simply absent
            key = str(rng.choice(keys))
            if key not in reads:
                reads.append(key)
                optional.append(key)
        fit_reads = []
        if rng.rand() < 0.5:
            fit_pool = sorted(available | {"y"})
            fit_reads = list(rng.choice(
                fit_pool, size=int(rng.randint(1, min(2, len(fit_pool)) + 1)), replace=False))
        writes = list(rng.choice(keys, size=int(rng.randint(1, 3)), replace=False))
        annotations.append(_probe(
            "step{}".format(position), [str(key) for key in reads],
            [str(key) for key in writes], fit_reads=[str(key) for key in fit_reads],
            optional=optional,
        ))
        available.update(str(key) for key in writes)
    pool = sorted(available)
    reads = [str(key) for key in rng.choice(pool, size=min(2, len(pool)), replace=False)]
    annotations.append(_estimator(reads=reads, fit_reads=reads + ["y"]))
    return annotations


# -- (c) batched evaluation == looped evaluation ----------------------------------------

IMPUTER = "sklearn.impute.SimpleImputer"
SCALER = "sklearn.preprocessing.StandardScaler"
RIDGE = "sklearn.linear_model.Ridge"


def _alphas(*values):
    return [{(RIDGE + "#0", "alpha"): alpha} for alpha in values]


class TestBatchedEqualsLooped:
    def _tasks(self):
        task = synth.make_single_table_regression(n_samples=120, random_state=0)
        return split_task(task, test_size=0.3, random_state=0)

    def _assert_group_matches_loop(self, template, hyperparameters_list, **cache):
        train, val = self._tasks()
        payloads = evaluate_candidate_group(template, hyperparameters_list, train, val, **cache)
        assert len(payloads) == len(hyperparameters_list)
        for payload, hyperparameters in zip(payloads, hyperparameters_list):
            try:
                normalized, raw, _ = evaluate_pipeline(template, hyperparameters, train, val)
            except Exception as failure:  # noqa: BLE001 - the looped error is the reference
                assert payload["error"] == "{}: {}".format(type(failure).__name__, failure)
            else:
                assert payload["error"] is None
                assert (payload["score"], payload["raw_score"]) == (normalized, raw)
        return payloads

    def test_scores_and_a_failing_candidate(self):
        # Ridge is batch-fitted; alpha=-1 fails in fit, alone, with the looped message
        template = Template("ridge", [IMPUTER, SCALER, RIDGE])
        payloads = self._assert_group_matches_loop(template, _alphas(0.01, 1.0, -1.0, 10.0))
        assert [payload["error"] is None for payload in payloads] == [True, True, False, True]

    def test_error_string_lists_the_keys_present_at_fit_time(self):
        # the estimator writes a fresh key and the pipeline output is never
        # produced: every candidate fails in predict with the key list.  The
        # batch-fitted final estimator and the looped one must agree that
        # "y_hat" (a dead produce) was not there at fit time
        template = Template(
            "ridge_misrouted", [IMPUTER, RIDGE],
            output_names={RIDGE: {"y": "y_hat"}}, outputs="y",
        )
        payloads = self._assert_group_matches_loop(template, _alphas(0.1, 1.0, 10.0))
        for payload in payloads:
            assert payload["error"].startswith("RuntimeError: Pipeline did not produce")
            assert payload["error"].endswith("keys available at fit time: ['X', 'y']")

    def test_post_step_after_a_batch_fitted_estimator(self):
        # ClassDecoder-style tail: the estimator is batch-fitted and not last
        template = Template(
            "ridge_then_scale", [IMPUTER, RIDGE, SCALER],
            input_names={SCALER: {"X": "y"}}, output_names={SCALER: {"X": "y"}},
        )
        self._assert_group_matches_loop(template, _alphas(0.1, 1.0))

    def test_shared_prefix_cache_counts_only_live_steps(self):
        template = Template("ridge", [IMPUTER, SCALER, RIDGE])
        cache = FittedPrefixCache()
        payloads = self._assert_group_matches_loop(
            template, _alphas(0.1, 1.0), prefix_cache=cache, data_key="fold")
        assert payloads[0]["cache_misses"] == 2 and payloads[0]["cache_hits"] == 0
        payloads = self._assert_group_matches_loop(
            template, _alphas(0.3, 3.0), prefix_cache=cache, data_key="fold")
        assert payloads[0]["cache_misses"] == 0 and payloads[0]["cache_hits"] == 2
