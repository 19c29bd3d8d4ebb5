"""AutoBazaar: the end-to-end, multi-task AutoML system (paper Section IV-C).

The system combines ML primitives (templates from the curated catalog) and
AutoML primitives (tuners and selectors from :mod:`repro.tuning`) in the
search-and-evaluation loop of paper Algorithm 2.
"""

from repro.automl.backends import (
    BACKENDS,
    EvaluationCandidate,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    get_backend,
)
from repro.automl.catalog import TemplateCatalog, default_template_catalog, get_templates
from repro.automl.config import ExecutionConfig
from repro.automl.faultinject import FaultPlan
from repro.automl.checkpoint import (
    CheckpointError,
    CheckpointManager,
    ExperimentRun,
    resume_run,
)
from repro.automl.fleet import FleetCoordinator, TenantBackend
from repro.automl.prefix_cache import (
    FittedPrefixCache,
    fold_data_key,
    make_prefix_cache_config,
    task_content_digest,
)
from repro.automl.search import (
    AutoBazaarSearch,
    EvaluationRecord,
    ReplayMismatchError,
    SearchResult,
    evaluate_pipeline,
)
from repro.automl.session import (
    AutoBazaarSession,
    run_fleet_from_directories,
    run_from_directory,
)
from repro.automl.supervisor import (
    FoldTimeoutError,
    SupervisedWorkerPool,
    WorkerCrashError,
)

__all__ = [
    "TemplateCatalog",
    "default_template_catalog",
    "get_templates",
    "AutoBazaarSearch",
    "SearchResult",
    "EvaluationRecord",
    "evaluate_pipeline",
    "AutoBazaarSession",
    "ExecutionConfig",
    "run_from_directory",
    "run_fleet_from_directories",
    "FleetCoordinator",
    "TenantBackend",
    "CheckpointError",
    "CheckpointManager",
    "ExperimentRun",
    "resume_run",
    "ReplayMismatchError",
    "BACKENDS",
    "ExecutionBackend",
    "EvaluationCandidate",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "get_backend",
    "FittedPrefixCache",
    "make_prefix_cache_config",
    "task_content_digest",
    "fold_data_key",
    "SupervisedWorkerPool",
    "WorkerCrashError",
    "FoldTimeoutError",
    "FaultPlan",
]
