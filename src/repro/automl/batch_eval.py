"""Fused evaluation of same-template candidate batches.

Same-template candidates co-submitted to a backend differ only in their
hyperparameter configurations; evaluating them one at a time repeats the
shared work per candidate: materializing the fold, fitting (or looking
up) the identical preprocessing prefix, and — for the closed-form
pure-NumPy learners — recomputing estimator intermediates (Gram matrix,
pairwise distances, one-hot targets) that do not depend on the
hyperparameters being tuned.

:func:`evaluate_candidate_group` runs the whole batch through one fold in
a single fused pass:

* the fold's preprocessing prefix is executed **once** per distinct
  prefix configuration (candidates are subgrouped by prefix fingerprint),
* amenable estimators — classes exposing ``supports_batch_fit`` and a
  ``fit_batch(configs, **data)`` classmethod — fit the whole
  hyperparameter batch in one call that shares the configuration-
  independent intermediates; estimators additionally exposing
  ``supports_batch_predict``/``batch_predict`` share the produce phase,
* everything else — non-amenable estimators, per-candidate post-steps,
  scoring — transparently loops.

Determinism contract: batching MUST NOT change any candidate's score or
error string.  ``fit_batch`` implementations are required to be
bit-identical to the sequential ``fit`` (they share *inputs*, never
approximate the computation), any exception from a batch path falls back
to the per-candidate loop so failures surface with the exact per-candidate
error, and the prefix sharing rests on the same determinism assumption as
the fitted-prefix cache (equal configured prefixes on equal data produce
equal artifacts).  Per-candidate ``elapsed`` becomes the amortized share
of the fused pass, and prefix-cache counters count the group's single
shared lookup (attributed to the group's first candidate) instead of one
lookup per candidate — scores and record order stay bit-identical, the
timing/counter telemetry reflects the work actually done.
"""

import inspect
import time
from collections import OrderedDict

from repro.core.context import Context
from repro.automl.prefix_cache import task_content_digest
from repro.telemetry.events import capture_event


def _format_error(failure):
    from repro.automl.backends import _format_error as format_error

    return format_error(failure)


def group_candidates(candidates):
    """Partition co-submitted candidates into fusable groups.

    Only candidates sharing the template object, the task object and the
    fold configuration may be evaluated as one batch.  Grouping never
    reorders: each group preserves submission order and groups appear in
    order of their first member.
    """
    groups = OrderedDict()
    for candidate in candidates:
        key = (
            id(candidate.task),
            id(candidate.template),
            candidate.n_splits,
            id(candidate.cache_config),
            id(candidate.pruner),
        )
        groups.setdefault(key, []).append(candidate)
    return list(groups.values())


def _error_payload(failure):
    return {
        "score": None,
        "raw_score": None,
        "error": _format_error(failure),
        "elapsed": None,
    }


def _supports_batch_fit(step):
    annotation = step.annotation
    primitive = annotation.primitive
    return (
        inspect.isclass(primitive)
        and getattr(primitive, "supports_batch_fit", False)
        and annotation.fit is not None
        and annotation.fit.get("method", "fit") == "fit"
    )


def _supports_batch_predict(step):
    primitive = step.annotation.primitive
    return (
        getattr(primitive, "supports_batch_predict", False)
        and step.annotation.produce.get("method") == "predict"
    )


def _estimator_config(step):
    """The constructor kwargs ``step`` would use — mirrors ``_build_instance``."""
    primitive = step.annotation.primitive
    accepted = set(inspect.signature(primitive.__init__).parameters)
    return {
        key: value for key, value in step.hyperparameters.items() if key in accepted
    }


def evaluate_candidate_group(template, hyperparameters_list, train_task, val_task,
                             prefix_cache=None, data_key=None):
    """Evaluate one fold for every configuration in ``hyperparameters_list``.

    Returns one fold payload dict (the :func:`evaluate_fold_indices` format) per
    configuration, in input order.  Scores and error strings are identical
    to evaluating each configuration alone; shared work is done once.
    """
    started = time.time()
    n_candidates = len(hyperparameters_list)
    results = [None] * n_candidates

    pipelines = [None] * n_candidates
    built = []
    for index, hyperparameters in enumerate(hyperparameters_list):
        try:
            pipelines[index] = template.build_pipeline(hyperparameters)
        except Exception as failure:  # noqa: BLE001 - per-candidate build failures are data
            results[index] = _error_payload(failure)
            continue
        built.append(index)

    if built:
        if prefix_cache is not None and data_key is None:
            data_key = task_content_digest(train_task)
        boundary = pipelines[built[0]]._cacheable_prefix_length()
        subgroups = OrderedDict()
        for index in built:
            prefix_key = tuple(
                step.fingerprint_payload() for step in pipelines[index].steps[:boundary]
            )
            subgroups.setdefault(prefix_key, []).append(index)
        # worker-side view of the fused pass (one per fold); the backend
        # emits the per-group dispatch event, this one carries the actual
        # prefix-sharing structure the fold resolved to
        capture_event(
            "batch_group_formed", size=len(built),
            n_prefix_subgroups=len(subgroups),
            reason="shared-template candidates fused over a common prefix",
        )
        for indices in subgroups.values():
            _evaluate_subgroup(
                pipelines, indices, boundary, train_task, val_task,
                prefix_cache, data_key, results,
            )

    share = (time.time() - started) / max(n_candidates, 1)
    for payload in results:
        if payload is not None and payload.get("elapsed") is None:
            payload["elapsed"] = share
    return results


def _evaluate_subgroup(pipelines, indices, boundary, train_task, val_task,
                       prefix_cache, data_key, results):
    """Fused pass over candidates sharing one prefix configuration."""
    lead = pipelines[indices[0]]

    # 1. fit/produce the shared prefix once on the training fold, through
    # the prefix cache exactly like MLPipeline.fit would
    train_context = Context(train_task.pipeline_data())
    try:
        cache_info = lead._fit_steps(
            train_context, stop=boundary, prefix_cache=prefix_cache, data_key=data_key
        )
    except Exception as failure:  # noqa: BLE001 - a prefix failure fails every member
        for index in indices:
            results[index] = _error_payload(failure)
        return

    # 2. run the shared prefix over the validation fold (the prefix part
    # of what MLPipeline.predict would do)
    val_context = Context(val_task.pipeline_data(include_target=False))
    try:
        for step in lead.steps[:boundary]:
            outputs = step.produce(val_context, skip_if_missing=True)
            if outputs is not None:
                val_context.record(step.name, outputs)
    except Exception as failure:  # noqa: BLE001
        for index in indices:
            results[index] = _error_payload(failure)
        return

    # 3. batch-fit the estimator axis where the primitive supports it
    last = len(lead.steps) - 1
    estimator_steps = {index: pipelines[index].steps[boundary] for index in indices}
    batched_instances = {}
    lead_estimator = estimator_steps[indices[0]]
    if len(indices) > 1 and _supports_batch_fit(lead_estimator):
        primitive = lead_estimator.annotation.primitive
        fit_kwargs = None
        try:
            fit_kwargs = lead_estimator._gather(
                train_context, lead_estimator.annotation.fit_args
            )
        except Exception:  # noqa: BLE001 - missing inputs: the loop raises it per candidate
            fit_kwargs = None
        if fit_kwargs is not None:
            configs = [_estimator_config(estimator_steps[index]) for index in indices]
            try:
                instances = primitive.fit_batch(configs, **fit_kwargs)
            except Exception:  # noqa: BLE001 - decline the batch, loop for exact errors
                instances = None
            if instances is not None and len(instances) == len(indices):
                batched_instances = dict(zip(indices, instances))

    # 3b. share the produce phase too when the primitive can (e.g. the KNN
    # distance matrix); only for a final-step estimator, where the
    # training-side produce is dead work anyway
    batched_val_predictions = {}
    if batched_instances and boundary == last and _supports_batch_predict(lead_estimator):
        primitive = lead_estimator.annotation.primitive
        produce_kwargs = lead_estimator._gather(
            val_context, lead_estimator.annotation.produce_args, allow_missing=True
        )
        if produce_kwargs is not None:
            try:
                predictions = primitive.batch_predict(
                    [batched_instances[index] for index in indices], **produce_kwargs
                )
            except Exception:  # noqa: BLE001 - decline, per-candidate produce is exact
                predictions = None
            if predictions is not None and len(predictions) == len(indices):
                batched_val_predictions = dict(zip(indices, predictions))

    # 4. finish each candidate individually: estimator (unless batch-
    # fitted), post-steps, validation produce and scoring
    for index in indices:
        try:
            results[index] = _finish_candidate(
                pipelines[index], boundary, train_context, val_context, val_task,
                prefitted=batched_instances.get(index),
                val_prediction=batched_val_predictions.get(index),
                has_val_prediction=index in batched_val_predictions,
            )
        except Exception as failure:  # noqa: BLE001 - failed candidates are data
            results[index] = _error_payload(failure)

    if prefix_cache is not None:
        counters = {
            "cache_hits": cache_info["hits"], "cache_misses": cache_info["misses"],
            "cache_bytes": cache_info["bytes_written"],
        }
        for index in indices:
            payload = results[index]
            if payload is not None and not payload.get("error"):
                payload.update(counters)
                break


def _finish_candidate(pipeline, boundary, train_context, val_context, val_task,
                      prefitted=None, val_prediction=None, has_val_prediction=False):
    """Per-candidate tail of the fused pass: estimator onward, then scoring.

    Runs ``MLPipeline``'s own fit-time step loop from the prefix boundary
    on, then mirrors ``predict``, over copy-on-write overlays of the
    shared contexts; a batch-fitted instance replaces the individual
    ``fit`` call, and a batch-computed prediction replaces the individual
    validation ``produce``.
    """
    context = train_context.copy()
    pipeline._fit_steps(context, start=boundary, prefitted=prefitted)

    val_overlay = val_context.copy()
    for position in range(boundary, len(pipeline.steps)):
        step = pipeline.steps[position]
        if position == boundary and has_val_prediction:
            outputs = step._map_outputs(val_prediction)
        else:
            outputs = step.produce(val_overlay, skip_if_missing=True)
        if outputs is not None:
            val_overlay.record(step.name, outputs)

    output_key = pipeline.outputs
    if output_key not in val_overlay:
        # the exact message MLPipeline.predict raises in the looped path
        message = (
            "Pipeline did not produce the expected output {!r}; context keys: {}".format(
                output_key, sorted(val_overlay.keys())
            )
        )
        message += "; keys available at fit time: {}".format(sorted(context.keys()))
        raise RuntimeError(message)
    predictions = val_overlay[output_key]
    y_true = val_task.context["y"]
    raw = val_task.score(y_true, predictions)
    normalized = raw if val_task.higher_is_better else -raw
    return {"score": normalized, "raw_score": raw, "error": None, "elapsed": None}
