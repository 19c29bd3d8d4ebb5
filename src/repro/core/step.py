"""Pipeline steps: instantiated primitives inside a pipeline.

A :class:`PipelineStep` loads a primitive annotation, resolves its
hyperparameters, and exposes uniform ``fit(context)`` / ``produce(context)``
entry points that read their inputs from and write their outputs to the
shared key-value :class:`~repro.core.context.Context` — this is what makes
"no glue code" composition possible (paper Section III-B1).
"""

import functools
import inspect
import json

from repro.core.annotations import PrimitiveAnnotation


class StepExecutionError(RuntimeError):
    """Raised when a pipeline step fails while fitting or producing."""


@functools.lru_cache(maxsize=1024)
def _accepted_parameters(function):
    """The parameter names ``function`` declares, introspected once per callable.

    Every build of a class primitive and every produce of a function
    primitive filters the step's hyperparameters through this set;
    ``inspect.signature`` costs far more than the call it guards.
    """
    return frozenset(inspect.signature(function).parameters)


class PipelineStep:
    """One instantiated primitive inside a pipeline.

    Parameters
    ----------
    annotation:
        The :class:`~repro.core.annotations.PrimitiveAnnotation` to load.
    name:
        Unique step name within the pipeline (defaults to the primitive name).
    hyperparameters:
        Overrides applied on top of the annotation's fixed hyperparameters
        and tunable defaults.
    input_names:
        Mapping from declared ML data type to the context key to read it
        from, used to rewire steps without touching annotations.
    output_names:
        Mapping from declared output name to the context key to write to.
    """

    def __init__(self, annotation, name=None, hyperparameters=None, input_names=None,
                 output_names=None):
        if not isinstance(annotation, PrimitiveAnnotation):
            raise TypeError("PipelineStep requires a PrimitiveAnnotation")
        self.annotation = annotation
        self.name = name or annotation.name
        self.input_names = dict(input_names or {})
        self.output_names = dict(output_names or {})
        self.hyperparameters = dict(annotation.tunable_defaults())
        self.hyperparameters.update(annotation.fixed_hyperparameters)
        if hyperparameters:
            self.hyperparameters.update(hyperparameters)
        self._instance = None

    # -- hyperparameter management -------------------------------------------

    def get_tunable_hyperparameters(self):
        """Tunable hyperparameter specifications of the underlying primitive."""
        return {spec.name: spec for spec in self.annotation.tunable_hyperparameters}

    def get_hyperparameters(self):
        """Currently resolved hyperparameter values."""
        return dict(self.hyperparameters)

    def set_hyperparameters(self, values):
        """Update hyperparameter values (resets any fitted state)."""
        unknown = set(values) - self._accepted_hyperparameters()
        if unknown:
            raise ValueError(
                "Step {!r} does not accept hyperparameters {}".format(self.name, sorted(unknown))
            )
        self.hyperparameters.update(values)
        self._instance = None

    def _accepted_hyperparameters(self):
        accepted = set(self.annotation.fixed_hyperparameters)
        accepted.update(spec.name for spec in self.annotation.tunable_hyperparameters)
        accepted.update(self.hyperparameters)
        return accepted

    # -- data wiring -----------------------------------------------------------

    def fit_inputs(self):
        """Context keys consumed by the fit entry point (after renaming)."""
        return [self._input_key(arg["type"]) for arg in self.annotation.fit_args]

    def produce_inputs(self):
        """Context keys consumed by the produce entry point (after renaming)."""
        return [self._input_key(arg["type"]) for arg in self.annotation.produce_args]

    def optional_inputs(self):
        """Context keys whose absence the step tolerates (optional arguments)."""
        optional = set()
        for arg in self.annotation.fit_args + self.annotation.produce_args:
            if arg.get("optional"):
                optional.add(self._input_key(arg["type"]))
        return optional

    def produce_outputs(self):
        """Context keys written by the produce entry point (after renaming)."""
        return [
            self._output_key(out.get("type", out["name"]))
            for out in self.annotation.produce_output
        ]

    def _input_key(self, data_type):
        return self.input_names.get(data_type, data_type)

    def _output_key(self, output_name):
        return self.output_names.get(output_name, output_name)

    # -- fingerprinting ----------------------------------------------------------

    def fingerprint_payload(self):
        """Canonical JSON identity of this step for prefix fingerprinting.

        Captures everything that determines what the step *computes* on a
        given input: the primitive, the fully resolved hyperparameters
        (annotation defaults + fixed values + template init params +
        tuned overrides) and the context renames.  Two steps with equal
        payloads fitted on identical data produce identical artifacts,
        which is what makes fitted-prefix cache entries shareable across
        candidates and templates.
        """
        payload = {
            "primitive": self.annotation.name,
            "hyperparameters": self.hyperparameters,
            "input_names": self.input_names,
            "output_names": self.output_names,
        }
        return json.dumps(payload, sort_keys=True, default=repr)

    def restore_fitted(self, instance):
        """Adopt an already-fitted primitive instance (a prefix-cache hit).

        The instance replaces whatever this step would have built and
        fitted itself; ``produce`` and later ``predict`` calls use it
        directly.  Function (stateless) primitives cache ``None`` here.
        """
        self._instance = instance
        return self

    # -- execution -------------------------------------------------------------

    @property
    def is_class_primitive(self):
        """Whether the underlying implementation is a class (stateful) primitive."""
        return inspect.isclass(self.annotation.primitive)

    def _build_instance(self):
        primitive = self.annotation.primitive
        accepted = _accepted_parameters(primitive.__init__)
        kwargs = {
            key: value for key, value in self.hyperparameters.items() if key in accepted
        }
        return primitive(**kwargs)

    @property
    def instance(self):
        """The instantiated primitive object (class primitives only)."""
        if self._instance is None and self.is_class_primitive:
            self._instance = self._build_instance()
        return self._instance

    def _gather(self, context, args, allow_missing=False):
        kwargs = {}
        for arg in args:
            key = self._input_key(arg["type"])
            if key not in context:
                if arg.get("optional"):
                    continue  # optional inputs are simply omitted when absent
                if allow_missing:
                    return None
                raise StepExecutionError(
                    "Step {!r} requires {!r} which is not in the context "
                    "(available: {})".format(self.name, key, sorted(context.keys()))
                )
            kwargs[arg["name"]] = context[key]
        return kwargs

    def fit(self, context):
        """Fit the primitive on data gathered from the context (if it has a fit phase)."""
        if self.annotation.fit is None:
            return self
        kwargs = self._gather(context, self.annotation.fit_args)
        self._instance = None  # refit from scratch
        instance = self.instance
        method_name = self.annotation.fit.get("method", "fit")
        method = getattr(instance, method_name)
        try:
            method(**kwargs)
        except Exception as error:
            raise StepExecutionError(
                "Step {!r} failed during fit: {}".format(self.name, error)
            ) from error
        return self

    def produce(self, context, skip_if_missing=False):
        """Run the produce phase and return ``{context_key: value}`` outputs.

        Returns ``None`` when ``skip_if_missing`` is True and a required
        input is absent from the context (for example target-dependent
        steps at inference time).
        """
        kwargs = self._gather(context, self.annotation.produce_args, allow_missing=skip_if_missing)
        if kwargs is None:
            return None
        method_name = self.annotation.produce.get("method")
        try:
            if self.is_class_primitive:
                result = getattr(self.instance, method_name or "produce")(**kwargs)
            else:
                extra = self._function_hyperparameters(kwargs)
                result = self.annotation.primitive(**kwargs, **extra)
        except Exception as error:
            raise StepExecutionError(
                "Step {!r} failed during produce: {}".format(self.name, error)
            ) from error
        return self._map_outputs(result)

    def _function_hyperparameters(self, kwargs):
        accepted = _accepted_parameters(self.annotation.primitive)
        return {
            key: value
            for key, value in self.hyperparameters.items()
            if key in accepted and key not in kwargs
        }

    def _map_outputs(self, result):
        outputs = self.annotation.produce_output
        if len(outputs) == 1:
            values = (result,)
        else:
            if not isinstance(result, (tuple, list)) or len(result) != len(outputs):
                raise StepExecutionError(
                    "Step {!r} declared {} outputs but returned {!r}".format(
                        self.name, len(outputs), type(result).__name__
                    )
                )
            values = tuple(result)
        return {
            self._output_key(output.get("type", output["name"])): value
            for output, value in zip(outputs, values)
        }

    def __repr__(self):
        return "PipelineStep(name={!r}, primitive={!r})".format(self.name, self.annotation.name)
