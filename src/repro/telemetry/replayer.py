"""Deterministic run replayer: event stream -> timeline + record stream.

Given a durable telemetry event stream (and optionally the record log it
was recorded alongside), :func:`replay_run` reconstructs the full run
timeline:

* every :class:`~repro.automl.search.EvaluationRecord` is **re-derived
  from its fold events** by replaying the coordinator's aggregation
  semantics (first error in fold order wins; otherwise the score is the
  mean of the per-fold scores; a prune decision overrides with a
  ``PrunedEvaluation`` failure; non-finite means become the
  ``NonFiniteScore`` failure) and checked against the ``record_reported``
  event — any divergence is a hard :class:`ReplayError`,
* per-tenant Gantt rows (fold start/elapsed/worker) and queue-depth-over-
  time curves are assembled from the fold and fleet scheduler events; the
  search's final refit is a bar of its own (``"refit": True``) and takes no
  part in the re-derivation of records,
* when the record log is supplied, the reconstructed stream is
  cross-checked against it.  Records present in the log but absent from
  the events are tolerated only as a *trailing suffix* per task — the
  window a ``SIGKILL`` can take from the asynchronous telemetry writer
  after the synchronous record append landed; a mid-stream gap means the
  streams genuinely diverged and raises :class:`ReplayError`.

CLI::

    python -m repro.telemetry <run-dir-or-events-dir> [--records DIR] [--json]
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from repro.explorer.persistence import SegmentLog
from repro.telemetry.events import SCHEMA_VERSION
from repro.telemetry.sink import EVENTS_DIRNAME


class ReplayError(RuntimeError):
    """The event stream is unusable or diverges from the record stream."""


#: Terminal per-fold events: exactly one per (candidate, fold) that ran.
_TERMINAL = ("fold_finished", "fold_cancelled")

#: Record fields the fold events must reproduce bit-identically.
_DERIVED_FIELDS = ("score", "raw_score", "error", "pruned")


def _resolve_events_dir(path):
    """Accept a run directory, an events directory, or a stream directory."""
    candidates = [path, os.path.join(path, EVENTS_DIRNAME)]
    for candidate in candidates:
        if os.path.isfile(os.path.join(candidate, SegmentLog.MANIFEST_NAME)):
            return candidate
    # a brand-new (never-rotated) stream may predate its manifest; fall
    # back to any directory that at least exists
    for candidate in candidates:
        if os.path.isdir(candidate):
            return candidate
    raise ReplayError("No telemetry event stream found at {!r}".format(path))


def load_events(path):
    """Load and validate the event stream at ``path`` (repairs a torn tail).

    ``path`` may be the events directory itself or a checkpointed run
    directory containing an ``events/`` stream.  Events are returned in
    append order; the schema version and the strict monotonicity of the
    sequence numbers are validated.
    """
    events_dir = _resolve_events_dir(path)
    log = SegmentLog(events_dir, compact_on_open=False)
    try:
        documents = log.open()
    finally:
        log.close()
    last_seq = None
    for event in documents:
        version = event.get("v")
        if not isinstance(version, int) or version > SCHEMA_VERSION:
            raise ReplayError(
                "Event schema version {!r} is newer than supported version {}".format(
                    version, SCHEMA_VERSION
                )
            )
        seq = event.get("seq")
        if not isinstance(seq, int) or (last_seq is not None and seq <= last_seq):
            raise ReplayError(
                "Event sequence numbers are not strictly increasing "
                "({!r} after {!r})".format(seq, last_seq)
            )
        last_seq = seq
    return documents


def load_record_documents(path):
    """Load the durable record log (a segment-log store directory)."""
    log = SegmentLog(path, compact_on_open=False)
    try:
        return log.open()
    finally:
        log.close()


class _Candidate:
    """Accumulated fold evidence for one proposed configuration."""

    __slots__ = ("tenant", "iteration", "folds", "prune_reason", "reported")

    def __init__(self, tenant, iteration):
        self.tenant = tenant
        self.iteration = iteration
        self.folds = []          # terminal fold events
        self.prune_reason = None
        self.reported = None     # the record_reported event, if it survived


def _derive(candidate):
    """Re-derive the record fields from fold events (coordinator semantics)."""
    folds = sorted(candidate.folds, key=lambda event: event.get("fold", 0))
    error = None
    score = raw_score = None
    pruned = False
    if candidate.prune_reason is not None:
        error = "PrunedEvaluation: {}".format(candidate.prune_reason)
        pruned = True
    else:
        for event in folds:
            if event.get("error") is not None:
                error = event["error"]
                break
        if error is None and folds:
            score = float(np.mean([event["score"] for event in folds]))
            raw_score = float(np.mean([event["raw_score"] for event in folds]))
    if error is None and (score is None or not math.isfinite(score)):
        # the coordinator's NonFiniteScore rule (degenerate folds)
        error = "NonFiniteScore: cross-validation produced {!r}".format(score)
        score = None
        raw_score = None
    return {"score": score, "raw_score": raw_score, "error": error, "pruned": pruned}


def _check_derivation(candidate, record, where):
    """A record's fields must be re-derivable from its fold events."""
    if not candidate.folds and record.get("error") is not None:
        # the evaluation failed before its first fold ran; there is no
        # fold evidence to check against
        return
    derived = _derive(candidate)
    for field in _DERIVED_FIELDS:
        if derived[field] != record.get(field):
            raise ReplayError(
                "{}: tenant {!r} iteration {} field {!r} is not derivable from "
                "its fold events: derived {!r} != recorded {!r}".format(
                    where, candidate.tenant, candidate.iteration, field,
                    derived[field], record.get(field)
                )
            )


def replay_run(events, record_documents=None):
    """Reconstruct the run from ``events``; returns the replay report dict.

    The report carries the reconstructed record stream (``records``, in
    reported order, validated fold-derivable), per-tenant timeline
    summaries (``tenants``) and stream-wide counters.  Supplying the
    durable ``record_documents`` additionally cross-checks the
    reconstruction against the record log.
    """
    run_of_tenant = {}    # tenant -> current run index
    candidates = {}       # (tenant, run, iteration) -> _Candidate
    tenants = {}          # tenant -> summary accumulator
    counters = {
        "cache_hits": 0, "cache_misses": 0, "cache_stores": 0,
        "shm_publish": 0, "shm_attach": 0, "shm_fallback": 0,
        "batch_groups": 0, "prune_decisions": 0,
    }
    reported = []         # (candidate, record dict) in reported order
    # (tenant, run, iteration, fold) -> fold_started event; a refit_started
    # carries neither iteration nor fold and sits under (tenant, run, None, None)
    fold_starts = {}

    def tenant_summary(tenant):
        return tenants.setdefault(tenant, {
            "task": None, "n_records": 0, "n_folds": 0,
            "busy_seconds": 0.0, "refit_seconds": 0.0,
            "first_wall": None, "last_wall": None,
            "gantt": [], "queue_depth": [],
            "per_iteration_seconds": {},
        })

    def candidate_for(event):
        tenant = event.get("tenant")
        iteration = event.get("iteration")
        key = (tenant, run_of_tenant.get(tenant, 0), iteration)
        if key not in candidates:
            candidates[key] = _Candidate(tenant, iteration)
        return candidates[key]

    for event in events:
        etype = event.get("event")
        tenant = event.get("tenant")
        if tenant is not None:
            summary = tenant_summary(tenant)
            wall = event.get("wall")
            if isinstance(wall, (int, float)):
                if summary["first_wall"] is None:
                    summary["first_wall"] = wall
                summary["last_wall"] = wall

        if etype == "search_started":
            run_of_tenant[tenant] = run_of_tenant.get(tenant, -1) + 1
            tenant_summary(tenant)["task"] = event.get("task")
        elif etype in ("fold_started", "refit_started"):
            key = (tenant, run_of_tenant.get(tenant, 0),
                   event.get("iteration"), event.get("fold"))
            fold_starts.setdefault(key, event)
        elif etype in _TERMINAL:
            candidate = candidate_for(event)
            candidate.folds.append(event)
            summary = tenant_summary(tenant)
            summary["n_folds"] += 1
            elapsed = event.get("elapsed") or 0.0
            summary["busy_seconds"] += elapsed
            per_iteration = summary["per_iteration_seconds"]
            iteration = event.get("iteration")
            per_iteration[iteration] = per_iteration.get(iteration, 0.0) + elapsed
            start_key = (tenant, run_of_tenant.get(tenant, 0),
                         iteration, event.get("fold"))
            started = fold_starts.get(start_key)
            start_wall = (started["wall"] if started is not None
                          else (event.get("wall") or 0.0) - elapsed)
            summary["gantt"].append({
                "iteration": iteration,
                "fold": event.get("fold"),
                "start": start_wall,
                "elapsed": elapsed,
                "pid": (started or event).get("pid"),
                "cancelled": etype == "fold_cancelled",
            })
        elif etype == "refit_finished":
            started = fold_starts.get((tenant, run_of_tenant.get(tenant, 0), None, None))
            elapsed = event.get("elapsed") or 0.0
            summary = tenant_summary(tenant)
            summary["refit_seconds"] += elapsed
            summary["gantt"].append({
                "iteration": None,
                "fold": None,
                "refit": True,
                "start": (started["wall"] if started is not None
                          else (event.get("wall") or 0.0) - elapsed),
                "elapsed": elapsed,
                "pid": event.get("worker"),
                "cancelled": False,
            })
        elif etype == "prune_decision":
            candidate_for(event).prune_reason = event.get("reason")
            counters["prune_decisions"] += 1
        elif etype == "record_reported":
            candidate = candidate_for(event)
            record = event.get("record") or {}
            candidate.reported = event
            _check_derivation(candidate, record, "record_reported")
            reported.append((candidate, record))
            tenant_summary(tenant)["n_records"] += 1
        elif etype == "fleet_queue_depth":
            tenant_summary(tenant)["queue_depth"].append({
                "wall": event.get("wall"), "depth": event.get("depth"),
            })
        elif etype == "cache_hit":
            counters["cache_hits"] += 1
        elif etype == "cache_miss":
            counters["cache_misses"] += 1
        elif etype == "cache_store":
            counters["cache_stores"] += 1
        elif etype == "shm_publish":
            counters["shm_publish"] += 1
        elif etype == "shm_attach":
            counters["shm_attach"] += 1
        elif etype == "shm_fallback":
            counters["shm_fallback"] += 1
        elif etype == "batch_group_formed":
            # the backend emits one dispatch-level event per fused group;
            # workers additionally capture a per-fold view, which carries
            # the fold context it was ingested under — count groups once
            if event.get("fold") is None:
                counters["batch_groups"] += 1

    if record_documents is not None:
        _cross_check(candidates, reported, record_documents)

    for summary in tenants.values():
        per_iteration = summary.pop("per_iteration_seconds")
        summary["critical_path_seconds"] = (
            max(per_iteration.values()) if per_iteration else 0.0
        )
        first, last = summary.pop("first_wall"), summary.pop("last_wall")
        summary["span_seconds"] = (last - first) if first is not None else 0.0
        summary["queue_depth_max"] = max(
            (point["depth"] for point in summary["queue_depth"]
             if isinstance(point.get("depth"), (int, float))),
            default=0,
        )
        summary["gantt"].sort(
            key=lambda row: (row["start"], row.get("refit", False), row["iteration"])
        )

    return {
        "n_events": len(events),
        "schema_version": SCHEMA_VERSION,
        "records": [record for _, record in reported],
        "tenants": tenants,
        "counters": counters,
    }


def _cross_check(candidates, reported, record_documents):
    """The reconstruction must match the durable record log.

    Every record in the log must either be fold-derivable from the event
    stream or belong to the task's trailing suffix (iterations past the
    last one the events know about — the ``SIGKILL`` window where the
    synchronous record append outlived the asynchronous event writer).
    """
    by_task_iteration = {}
    last_known = {}
    for (tenant, _run, iteration), candidate in candidates.items():
        if not candidate.folds and candidate.reported is None:
            continue
        task = None
        # reported events carry the task name inside the record
        if candidate.reported is not None:
            task = (candidate.reported.get("record") or {}).get("task_name")
        by_task_iteration.setdefault((task, iteration), []).append(candidate)
        if task is not None and iteration is not None:
            last_known[task] = max(last_known.get(task, -1), iteration)

    # records whose task/iteration the events never identified (e.g. the
    # record_reported event was lost to the kill) can still be matched by
    # fold evidence through their tenant's record order; keep the check
    # conservative: match by (task, iteration) where possible, tolerate
    # only trailing gaps otherwise
    for document in record_documents:
        task = document.get("task_name")
        iteration = document.get("iteration")
        matches = by_task_iteration.get((task, iteration))
        if not matches:
            if iteration is not None and iteration > last_known.get(task, -1):
                continue  # trailing suffix: lost to the kill window
            raise ReplayError(
                "Record log entry (task {!r}, iteration {!r}) has no telemetry "
                "events mid-stream: the streams diverged".format(task, iteration)
            )
        _check_derivation(matches[0], document, "record log")


def _load_records_for(path, records_dir):
    """Resolve and load the record log to cross-check against, if any."""
    if records_dir is not None:
        return load_record_documents(records_dir)
    store_dir = os.path.join(path, "store")
    if os.path.isfile(os.path.join(store_dir, SegmentLog.MANIFEST_NAME)):
        return load_record_documents(store_dir)
    return None


def _print_report(report, stream=None):
    stream = stream if stream is not None else sys.stdout
    print("events               : {}".format(report["n_events"]), file=stream)
    print("records reconstructed: {}".format(len(report["records"])), file=stream)
    counters = report["counters"]
    print("cache hit/miss/store : {}/{}/{}".format(
        counters["cache_hits"], counters["cache_misses"],
        counters["cache_stores"]), file=stream)
    print("shm pub/attach/fall  : {}/{}/{}".format(
        counters["shm_publish"], counters["shm_attach"],
        counters["shm_fallback"]), file=stream)
    print("pruned / batch groups: {}/{}".format(
        counters["prune_decisions"], counters["batch_groups"]), file=stream)
    for tenant in sorted(report["tenants"]):
        summary = report["tenants"][tenant]
        print("tenant {!r}: task={!r} records={} folds={} busy={:.2f}s "
              "refit={:.2f}s span={:.2f}s critical-path={:.2f}s "
              "queue-depth-max={}".format(
                  tenant, summary["task"], summary["n_records"],
                  summary["n_folds"], summary["busy_seconds"],
                  summary["refit_seconds"], summary["span_seconds"],
                  summary["critical_path_seconds"],
                  summary["queue_depth_max"]), file=stream)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Replay a run from its durable telemetry event stream.",
    )
    parser.add_argument("path", help="run directory (with an events/ stream) "
                                     "or the events directory itself")
    parser.add_argument("--records", default=None, metavar="DIR",
                        help="record-log directory to cross-check against "
                             "(default: <run-dir>/store when present)")
    parser.add_argument("--json", action="store_true",
                        help="emit the full replay report as JSON")
    arguments = parser.parse_args(argv)

    try:
        events = load_events(arguments.path)
        documents = _load_records_for(arguments.path, arguments.records)
        report = replay_run(events, record_documents=documents)
    except ReplayError as error:
        print("replay failed: {}".format(error), file=sys.stderr)
        return 1
    if arguments.json:
        json.dump(report, sys.stdout, indent=2, default=str)
        sys.stdout.write("\n")
    else:
        _print_report(report)
        if documents is not None:
            print("record-log cross-check: OK ({} records)".format(len(documents)))
    return 0
