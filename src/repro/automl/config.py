"""Execution configuration: the one declaration of AutoBazaar's execution knobs.

The paper's AutoBazaar has a single "configuration" component between the
user interfaces and the AutoML coordinator (Section IV-C).
:class:`ExecutionConfig` is that component for everything that decides
*how* a search executes: every entry point, library and command line
alike, collects the knobs as ``**execution`` keywords and builds the config
before it opens a store, a sink, a run directory or a pool — so a knob is
defaulted, normalised, validated and documented here and nowhere else.
"""

import os
from dataclasses import InitVar, dataclass, fields
from typing import Any, Optional

from repro.automl.backends import resolve_backend, resolve_workers
from repro.automl.prefix_cache import normalize_prefix_cache_mode
from repro.automl.supervisor import supervision_knobs
from repro.telemetry.sink import EVENTS_DIRNAME, TelemetrySink

#: Knobs that change which records a search emits: fixed in a run's manifest.
STREAM_SHAPING = ("n_pending",)


def fleet_backend(backend):
    """The pool a session-level fleet entry point runs ``backend`` on.

    Those entry points share the solo default, ``"serial"``, which on a
    fleet means the fleet's own default and only pool: ``"process"``.
    Anything else passes through for the fleet to refuse.
    """
    return "process" if backend in (None, "serial") else backend


@dataclass(frozen=True)
class ExecutionConfig:
    """How a search executes: 8 knobs, validated on construction.

    *Stream-shaping* knobs (:data:`STREAM_SHAPING`) change which records a
    search emits; a checkpointed run fixes them in its manifest.
    *Execution-only* knobs (:data:`EXECUTION_ONLY`) change where and how
    fast the same records are produced — the determinism guarantee makes
    the stream identical across them — so they are not part of a manifest
    and may differ between a run and its resume.  README's "Execution
    configuration" section is the long-form description of each knob.

    Parameters
    ----------
    backend:
        Execution-only.  ``"serial"`` (default) or ``"process"`` (see
        :mod:`repro.automl.backends`), or an
        :class:`~repro.automl.backends.ExecutionBackend` class or instance
        (an instance is caller-owned and outlives the search).
    workers:
        Execution-only.  Worker count of the process backend (default
        ``None``: the CPU count).
    n_pending:
        Stream-shaping.  Candidates kept in flight at once (default 1, also
        the minimum); above 1, proposals use the constant-liar strategy
        (:mod:`repro.tuning.tuners`).
    prefix_cache, cache_dir:
        Execution-only.  Fitted-prefix cache (:mod:`repro.automl.prefix_cache`):
        ``"off"`` (default, also ``None``), ``"mem"`` or ``"disk"``, the
        latter in ``cache_dir`` (default ``None``: a temporary directory
        per search or fleet).
    telemetry:
        Execution-only.  Event recording (:mod:`repro.telemetry`):
        ``None`` / ``False`` / ``"off"`` (default), a directory — whoever
        is configured with it opens a sink there and closes it when done
        (a search per ``search()`` call, a session once for all its tasks
        and fleet tenants) — or a caller-owned
        :class:`~repro.telemetry.sink.TelemetrySink`, never closed by the
        callee.  ``"run-dir"`` / ``True`` mean the ``events/`` stream of
        the run directory and are rejected where there is none.
    fold_timeout, max_fold_retries:
        Execution-only.  The process pool's supervision
        (:mod:`repro.automl.supervisor`): per-fold deadline in seconds
        (default ``None``: no deadline), and crash/timeout retries per fold
        before it is recorded as failed (default ``None``: 1).  Rejected
        for backends without worker processes and for backend instances.
    run_dir:
        Not a knob: the directory of the checkpointed run the config is
        used in, if any.
    """

    backend: Any = "serial"
    workers: Optional[int] = None
    n_pending: int = 1
    prefix_cache: str = "off"
    cache_dir: Optional[str] = None
    telemetry: Any = None
    fold_timeout: Optional[float] = None
    max_fold_retries: Optional[int] = None
    run_dir: InitVar[Optional[str]] = None

    def __post_init__(self, run_dir):
        backend = "serial" if self.backend is None else self.backend
        fold_timeout, max_fold_retries = supervision_knobs(
            self.fold_timeout, self.max_fold_retries
        )
        supervision = {"fold_timeout": fold_timeout, "max_fold_retries": max_fold_retries}
        resolve_backend(backend, supervised=[
            name for name, value in supervision.items() if value is not None
        ])
        workers = None if self.workers is None else resolve_workers(self.workers)
        telemetry = self.telemetry
        if telemetry in (None, False, "off"):
            telemetry = None
        elif telemetry in (True, "run-dir"):
            if run_dir is None:
                raise ValueError(
                    "telemetry 'run-dir' needs a checkpointed run (run_dir): there "
                    "is no run directory to put the event stream in; pass an "
                    "explicit path instead"
                )
            telemetry = os.path.join(run_dir, EVENTS_DIRNAME)
        elif not isinstance(telemetry, TelemetrySink):
            telemetry = os.fspath(telemetry)
        normalised = {
            "backend": backend,
            "workers": workers,
            "n_pending": max(1, int(self.n_pending)),
            "prefix_cache": normalize_prefix_cache_mode(self.prefix_cache),
            "telemetry": telemetry,
            **supervision,
        }
        for name, value in normalised.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_keywords(cls, execution, run_dir=None, **fixed):
        """Build the config of an entry point from its ``**execution`` keywords.

        ``fixed`` are knobs the entry point sets itself (a resumed run's
        manifest fixes the stream-shaping ones); they, like any name that
        is not a knob, are a ``TypeError`` when found in ``execution``.
        """
        unexpected = sorted(
            name for name in execution if name not in KNOBS or name in fixed
        )
        if unexpected:
            raise TypeError(
                "unexpected execution option(s): {}".format(", ".join(unexpected))
            )
        return cls(run_dir=run_dir, **fixed, **execution)

    def as_kwargs(self, names=None):
        """The knobs as a shallow keyword view (all of them, or ``names``).

        The values are the config's own objects — a ``TelemetrySink`` or a
        backend instance is shared with the receiver, never copied.
        """
        return {name: getattr(self, name) for name in (KNOBS if names is None else names)}


#: The 8 knob names, in declaration order.
KNOBS = tuple(field.name for field in fields(ExecutionConfig))

#: Knobs that only change where and how fast the records are produced: free
#: to differ between a checkpointed run and its resume.
EXECUTION_ONLY = tuple(name for name in KNOBS if name not in STREAM_SHAPING)
