"""ML pipelines: the pipeline description interface and execution engine.

This module reproduces MLBlocks (paper Section III-B): a pipeline is
specified as a topologically ordered list of primitive names (the PDI),
optionally with per-step hyperparameters and input/output renames, and can
then be fitted, used for prediction, tuned, serialized to JSON, and
analyzed as a computational graph.

The same per-step input/output declarations that recover the graph also
drive fitting: ``fit`` fits every step but calls ``produce`` only on steps
whose output a later step reads (one liveness rule,
:func:`repro.core.graph.live_produces`, applied by the single fit-time
step loop :meth:`MLPipeline._fit_steps`).  ``fit_context_keys`` therefore lists the keys actually present at
fit time, and a fit-time ``produce`` error on a dead step cannot fail a
candidate.
"""

import hashlib
import json

import networkx as nx

from repro.core.context import Context
from repro.core.graph import live_produces, recover_graph
from repro.core.registry import get_default_registry
from repro.core.step import PipelineStep


class MLPipeline:
    """An end-to-end machine learning pipeline.

    Parameters
    ----------
    primitives:
        Ordered list of fully-qualified primitive names (the pipeline
        description interface).
    init_params:
        Mapping from step name (or primitive name) to a dict of
        hyperparameter overrides applied at construction time.
    input_names, output_names:
        Mapping from step name to per-step input/output context-key
        renames, exactly like MLBlocks.
    outputs:
        Name of the context key holding the pipeline's final output.
        Defaults to the first declared output of the last step.
    registry:
        Primitive catalog to resolve names against (defaults to the
        curated catalog).
    """

    def __init__(self, primitives, init_params=None, input_names=None, output_names=None,
                 outputs=None, registry=None):
        if not primitives:
            raise ValueError("A pipeline requires at least one primitive")
        self.primitives = list(primitives)
        self.init_params = dict(init_params or {})
        self.input_names = dict(input_names or {})
        self.output_names = dict(output_names or {})
        self._registry = registry or get_default_registry()

        self.steps = []
        occurrences = {}
        for primitive_name in self.primitives:
            occurrences[primitive_name] = occurrences.get(primitive_name, 0)
            step_name = "{}#{}".format(primitive_name, occurrences[primitive_name])
            occurrences[primitive_name] += 1
            annotation = self._registry.get(primitive_name)
            hyperparameters = {}
            hyperparameters.update(self.init_params.get(primitive_name, {}))
            hyperparameters.update(self.init_params.get(step_name, {}))
            step = PipelineStep(
                annotation,
                name=step_name,
                hyperparameters=hyperparameters,
                input_names=self._lookup(self.input_names, primitive_name, step_name),
                output_names=self._lookup(self.output_names, primitive_name, step_name),
            )
            self.steps.append(step)

        if outputs is None:
            outputs = self.steps[-1].produce_outputs()[0]
        self.outputs = outputs
        self.fitted = False
        self._fit_context_keys = None
        self.prefix_cache_info = None

    @staticmethod
    def _lookup(mapping, primitive_name, step_name):
        merged = {}
        merged.update(mapping.get(primitive_name, {}))
        merged.update(mapping.get(step_name, {}))
        return merged

    # -- execution -------------------------------------------------------------

    def fit(self, prefix_cache=None, data_key=None, **data):
        """Fit every step in order, flowing data through the shared context.

        Keyword arguments seed the execution context (for example ``X=...``
        and ``y=...``, or ``graph=...`` and ``pairs=...`` for graph tasks).

        Fitting is demand-driven: ``fit`` is called on every step, but a
        step's ``produce`` runs only when it is *live* — one of its
        outputs is read by a later step's ``fit`` or by a later step's
        live ``produce`` (:func:`~repro.core.graph.live_produces`).  The
        final estimator's prediction over its own training data, for
        one, is never computed.  Consequently :attr:`fit_context_keys`
        lists the keys actually present after fitting (the inputs plus the
        outputs of live steps), and an error a dead step's ``produce``
        would have raised on the training data can no longer fail the
        fit; ``predict`` still runs every step.

        Parameters
        ----------
        prefix_cache:
            Optional :class:`~repro.automl.prefix_cache.FittedPrefixCache`.
            Each *preprocessing-prefix* step is addressed by its prefix
            fingerprint (see :meth:`prefix_fingerprints`); on a hit the
            step adopts the cached fitted instance and transformed
            outputs instead of refitting, on a miss it fits normally and
            publishes its artifacts.  A dead step (see above) is fitted
            but stays outside the cache protocol: no lookup, no entry, no
            hit or miss counted.  Caching stops at the first
            estimator-category step (and never covers the final step):
            the estimator is what candidates actually vary — and what may
            legitimately be stochastic — so only the deterministic
            preprocessing prefix in front of it is shared.  Per-call
            hit/miss counts land in :attr:`prefix_cache_info`.
        data_key:
            Content digest of the training data seeding the fingerprint
            chain (required with ``prefix_cache``): equal configured
            prefixes fitted on equal data — and only those — share
            fingerprints.
        """
        if prefix_cache is not None and data_key is None:
            raise ValueError("fit(prefix_cache=...) requires a data_key for the training data")
        context = Context(data)
        info = self._fit_steps(context, prefix_cache=prefix_cache, data_key=data_key)
        self.fitted = True
        self._fit_context_keys = sorted(context.keys())
        self.prefix_cache_info = info if prefix_cache is not None else None
        return self

    def _fit_steps(self, context, prefix_cache=None, data_key=None):
        """Fit every step over ``context``: the one fit-time step loop.

        Every step is fitted; ``produce`` runs, and the prefix cache is
        consulted, only where :func:`~repro.core.graph.live_produces` says
        a later step reads the output.  The fingerprint chain starts at
        ``data_key``.  Returns the prefix-cache counters of the call.
        """
        caching = prefix_cache is not None
        prefix_length = self._cacheable_prefix_length() if caching else 0
        live = live_produces(self.steps)
        fingerprint = data_key
        hits = misses = bytes_written = 0
        for index, step in enumerate(self.steps):
            in_prefix = index < prefix_length
            if in_prefix:
                fingerprint = _chain_fingerprint(fingerprint, step)
            cacheable = in_prefix and live[index]
            if cacheable:
                artifacts = prefix_cache.get(fingerprint)
                if artifacts is not None:
                    hits += 1
                    step.restore_fitted(artifacts["instance"])
                    context.record(step.name, artifacts["outputs"])
                    continue
            step.fit(context)
            if not live[index]:
                continue
            outputs = step.produce(context, skip_if_missing=False)
            if cacheable:
                misses += 1
                bytes_written += prefix_cache.put(
                    fingerprint, {"instance": step._instance, "outputs": outputs}
                )
            context.record(step.name, outputs)
        return {"hits": hits, "misses": misses, "bytes_written": bytes_written}

    def _cacheable_prefix_length(self):
        """Steps eligible for prefix caching: everything before the estimator.

        The boundary is the first estimator-category step, capped at the
        final step for estimator-free pipelines — the tail of a pipeline
        is never served from cache.
        """
        boundary = len(self.steps) - 1
        for index, step in enumerate(self.steps):
            if step.annotation.category == "estimator":
                boundary = min(boundary, index)
                break
        return boundary

    def prefix_fingerprints(self, data_key):
        """Deterministic fingerprint of every pipeline prefix on ``data_key``.

        Entry ``k`` identifies the fitted state of steps ``0..k`` on the
        data behind ``data_key``: a rolling SHA-256 of the data key
        chained with each step's :meth:`~repro.core.step.PipelineStep.fingerprint_payload`.
        Changing any step's primitive or hyperparameters changes the
        fingerprints of that step and everything after it, but leaves the
        untouched prefix — and therefore its cache entries — stable.
        """
        fingerprints = []
        fingerprint = data_key
        for step in self.steps:
            fingerprint = _chain_fingerprint(fingerprint, step)
            fingerprints.append(fingerprint)
        return fingerprints

    @property
    def fit_context_keys(self):
        """Context keys present after the last ``fit``, or ``None`` if unfitted."""
        return self._fit_context_keys

    def predict(self, **data):
        """Run the produce phase of every step and return the final output.

        Steps whose inputs are unavailable at prediction time (for example
        target encoders that consume ``y``) are skipped, mirroring the
        MLBlocks inference behaviour.
        """
        if not self.fitted:
            raise RuntimeError("Pipeline must be fitted before calling predict")
        context = Context(data)
        for step in self.steps:
            outputs = step.produce(context, skip_if_missing=True)
            if outputs is not None:
                context.record(step.name, outputs)
        if self.outputs not in context:
            message = "Pipeline did not produce the expected output {!r}; context keys: {}".format(
                self.outputs, sorted(context.keys())
            )
            if self.fit_context_keys is not None:
                message += "; keys available at fit time: {}".format(self.fit_context_keys)
            raise RuntimeError(message)
        return context[self.outputs]

    def fit_predict(self, **data):
        """Fit the pipeline and return its output on the training context."""
        self.fit(**data)
        return self.predict(**data)

    # -- hyperparameter management ----------------------------------------------

    def get_tunable_hyperparameters(self):
        """Tunable hyperparameter specs per step: ``{step_name: {name: spec}}``."""
        return {step.name: step.get_tunable_hyperparameters() for step in self.steps}

    def get_hyperparameters(self):
        """Currently resolved hyperparameter values per step."""
        return {step.name: step.get_hyperparameters() for step in self.steps}

    def set_hyperparameters(self, hyperparameters):
        """Set hyperparameter values.

        Accepts either ``{step_name: {name: value}}`` nested dicts or a flat
        ``{(step_name, name): value}`` mapping.
        """
        nested = {}
        for key, value in hyperparameters.items():
            if isinstance(key, tuple):
                step_name, hyperparam = key
                nested.setdefault(step_name, {})[hyperparam] = value
            else:
                nested[key] = dict(value)
        step_index = {step.name: step for step in self.steps}
        for step_name, values in nested.items():
            if step_name not in step_index:
                raise ValueError("Unknown pipeline step {!r}".format(step_name))
            step_index[step_name].set_hyperparameters(values)
        self.fitted = False
        return self

    # -- graph recovery -----------------------------------------------------------

    def graph(self, inputs=("X", "y")):
        """Recover the computational graph of this pipeline (paper Algorithm 1)."""
        return recover_graph(self.steps, inputs=list(inputs), outputs=[self.outputs])

    def validate(self, inputs=("X", "y")):
        """Validate the pipeline's acceptability constraints; raises if invalid."""
        self.graph(inputs=inputs)
        return True

    def describe(self, inputs=("X", "y")):
        """Human-readable rendering of the recovered computational graph.

        The pipeline description interface only lists step names; this
        accompanies it with the recovered data flow (paper Section III-B2),
        one line per edge, in topological order of the producers.
        """
        graph = self.graph(inputs=inputs)
        ordering = {name: position for position, name in enumerate(nx.topological_sort(graph))}
        edges = sorted(
            graph.edges(data=True),
            key=lambda edge: (ordering[edge[0]], ordering[edge[1]], edge[2]["data"]),
        )
        lines = ["Pipeline with {} steps (inputs: {})".format(len(self.steps), ", ".join(inputs))]
        for producer, consumer, attributes in edges:
            lines.append("  {} --[{}]--> {}".format(
                _short_name(producer), attributes["data"], _short_name(consumer)
            ))
        return "\n".join(lines)

    # -- serialization --------------------------------------------------------------

    def to_dict(self):
        """Serialize the pipeline specification (not the fitted state) to a dict."""
        return {
            "primitives": list(self.primitives),
            "init_params": {
                step.name: step.get_hyperparameters() for step in self.steps
            },
            "input_names": self.input_names,
            "output_names": self.output_names,
            "outputs": self.outputs,
        }

    def to_json(self, indent=2):
        """Serialize the pipeline specification to a JSON string."""
        return json.dumps(self.to_dict(), indent=indent, default=_jsonify)

    def save(self, path):
        """Write the pipeline specification to a JSON file."""
        with open(path, "w") as stream:
            stream.write(self.to_json())

    @classmethod
    def from_dict(cls, payload, registry=None):
        """Rebuild a pipeline from the output of :meth:`to_dict`."""
        return cls(
            primitives=payload["primitives"],
            init_params=payload.get("init_params"),
            input_names=payload.get("input_names"),
            output_names=payload.get("output_names"),
            outputs=payload.get("outputs"),
            registry=registry,
        )

    @classmethod
    def load(cls, path, registry=None):
        """Load a pipeline specification from a JSON file."""
        with open(path) as stream:
            payload = json.load(stream)
        return cls.from_dict(payload, registry=registry)

    def __repr__(self):
        return "MLPipeline({} steps: {})".format(
            len(self.steps), " -> ".join(p.split(".")[-1] for p in self.primitives)
        )


def _chain_fingerprint(previous, step):
    """One link of the rolling prefix hash: ``H(previous || step identity)``."""
    hasher = hashlib.sha256()
    hasher.update(str(previous).encode("utf-8"))
    hasher.update(b"\0")
    hasher.update(step.fingerprint_payload().encode("utf-8"))
    return hasher.hexdigest()


def _jsonify(value):
    if isinstance(value, tuple):
        return list(value)
    return str(value)


def _short_name(node_name):
    """Compact display name for a step or virtual node."""
    if node_name.startswith("__"):
        return node_name.strip("_")
    return node_name.split(".")[-1].split("#")[0]
