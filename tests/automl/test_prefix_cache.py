"""Tests for the fitted-prefix cache.

The cache contract: enabling the prefix cache never changes what a search
records — cached evaluation produces bit-identical scores and records on
every backend, because entries are content-addressed by the fold's
training data and the full configured prefix.  A corrupt or aliased disk
entry must be detected and degrade to a miss, never to wrong data.
"""

import glob
import multiprocessing
import os
import pickle
import shutil

import pytest

from repro.automl import AutoBazaarSearch, AutoBazaarSession
from repro.automl import prefix_cache as prefix_cache_module
from repro.automl.backends import _format_error
from repro.automl.prefix_cache import (
    FittedPrefixCache,
    fold_data_key,
    make_prefix_cache_config,
    resolve_prefix_cache,
    task_content_digest,
)
from repro.automl.search import cross_validate_template
from repro.core.template import Template
from repro.tasks import synth
from repro.tasks.task import split_task

@pytest.fixture(autouse=True)
def _fresh_process_cache():
    """Reset the process-global cache so tests are order-independent.

    The resolved cache deliberately outlives a search (that is what makes
    the memory tier useful across candidates); for tests, that sharing
    would let one test's warm cache mask another's expected misses.
    """
    prefix_cache_module._PROCESS_CACHES.clear()
    yield
    prefix_cache_module._PROCESS_CACHES.clear()


ENCODER = "mlprimitives.custom.preprocessing.ClassEncoder"
DECODER = "mlprimitives.custom.preprocessing.ClassDecoder"
IMPUTER = "sklearn.impute.SimpleImputer"
SCALER = "sklearn.preprocessing.StandardScaler"
RF = "sklearn.ensemble.RandomForestClassifier"
XGB = "xgboost.XGBClassifier"
MAJORITY = "mlprimitives.custom.synthetic.TimedDummyClassifier"


def seeded_templates():
    return [
        Template(
            "cache_eq_xgb", [ENCODER, IMPUTER, SCALER, XGB, DECODER],
            init_params={XGB: {"random_state": 0}},
        ),
        Template(
            "cache_eq_rf", [ENCODER, IMPUTER, SCALER, RF, DECODER],
            init_params={RF: {"random_state": 0}},
        ),
    ]


def make_task():
    return synth.make_single_table_classification(n_samples=90, random_state=0)


def run_search(backend=None, workers=None, n_pending=1, budget=6, **kwargs):
    searcher = AutoBazaarSearch(
        templates=seeded_templates(), n_splits=2, random_state=0,
        backend=backend or "serial", workers=workers, n_pending=n_pending, **kwargs,
    )
    return searcher.search(make_task(), budget=budget)


def stripped_documents(result):
    documents = [record.to_dict() for record in result.records]
    for document in documents:
        document.pop("elapsed")
    return documents


class TestPrefixFingerprints:
    def _pipeline(self, hyperparameters=None):
        template = seeded_templates()[1]
        return template.build_pipeline(hyperparameters)

    def test_prefix_stable_under_estimator_changes(self):
        space = seeded_templates()[1].get_tunable_hyperparameters()
        estimator_key = next(key for key in space if key[0].startswith(RF))
        base = self._pipeline().prefix_fingerprints("data")
        tuned = self._pipeline(
            {estimator_key: space[estimator_key].default}
        ).prefix_fingerprints("data")
        # encoder/imputer/scaler prefix unchanged, estimator suffix may differ
        assert base[:3] == tuned[:3]

    def test_prefix_changes_with_prefix_hyperparameters(self):
        space = seeded_templates()[1].get_tunable_hyperparameters()
        imputer_key = next(key for key in space if key[0].startswith(IMPUTER))
        spec = space[imputer_key]
        changed_value = next(v for v in spec.values if v != spec.default)
        base = self._pipeline().prefix_fingerprints("data")
        changed = self._pipeline({imputer_key: changed_value}).prefix_fingerprints("data")
        assert base[0] == changed[0]  # encoder before the imputer: unchanged
        assert base[1] != changed[1]  # the imputer and everything after: changed
        assert base[2] != changed[2]

    def test_prefix_changes_with_data_key(self):
        pipeline = self._pipeline()
        assert pipeline.prefix_fingerprints("a") != pipeline.prefix_fingerprints("b")

    def test_fit_with_cache_requires_data_key(self):
        with pytest.raises(ValueError):
            self._pipeline().fit(prefix_cache=FittedPrefixCache(), X=[[1.0]], y=[0])

    def test_cached_refit_hits_prefix_and_matches_predictions(self):
        task = make_task()
        data_key = task_content_digest(task)
        cache = FittedPrefixCache()
        first = self._pipeline().fit(
            prefix_cache=cache, data_key=data_key, **task.pipeline_data()
        )
        assert first.prefix_cache_info["hits"] == 0
        assert first.prefix_cache_info["misses"] == 3  # encoder, imputer, scaler
        second = self._pipeline().fit(
            prefix_cache=cache, data_key=data_key, **task.pipeline_data()
        )
        assert second.prefix_cache_info["hits"] == 3
        assert second.prefix_cache_info["misses"] == 0
        X = task.context["X"]
        assert list(first.predict(X=X)) == list(second.predict(X=X))

    def test_estimator_step_is_never_cached(self):
        task = make_task()
        cache = FittedPrefixCache()
        pipeline = self._pipeline()
        pipeline.fit(prefix_cache=cache, data_key=task_content_digest(task),
                     **task.pipeline_data())
        cached_steps = pipeline.prefix_cache_info["misses"]
        assert cached_steps == pipeline._cacheable_prefix_length()
        assert cached_steps < len(pipeline.steps) - 1  # stops before the estimator


class TestFittedPrefixCache:
    def test_memory_lru_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(prefix_cache_module, "DEFAULT_MAX_ENTRIES", 2)
        cache = FittedPrefixCache()
        for name in ("a", "b", "c"):
            cache.put(name, {"instance": name, "outputs": None})
        assert cache.get("a") is None  # evicted
        assert cache.get("b")["instance"] == "b"
        assert cache.get("c")["instance"] == "c"
        assert len(cache) == 2  # three stores, the oldest evicted

    def test_disk_round_trip_across_instances(self, tmp_path):
        directory = str(tmp_path)
        writer = FittedPrefixCache(cache_dir=directory)
        written = writer.put("abc123", {"instance": {"w": 1.5}, "outputs": {"X": [1, 2]}})
        assert written > 0
        reader = FittedPrefixCache(cache_dir=directory)  # fresh process stand-in
        artifacts = reader.get("abc123")
        assert artifacts == {"instance": {"w": 1.5}, "outputs": {"X": [1, 2]}}
        assert len(reader) == 1  # the disk hit is remembered in memory

    def test_corrupt_disk_entry_is_a_miss_not_wrong_data(self, tmp_path):
        directory = str(tmp_path)
        writer = FittedPrefixCache(cache_dir=directory)
        writer.put("abc123", {"instance": 1, "outputs": None})
        (path,) = glob.glob(os.path.join(directory, "abc123.pkl"))
        with open(path, "wb") as stream:
            stream.write(b"\x80garbage")
        reader = FittedPrefixCache(cache_dir=directory)
        assert reader.get("abc123") is None
        assert not os.path.exists(path)  # the poisoned entry is dropped

    def test_unwritable_disk_tier_degrades_to_memory_only(self, tmp_path):
        # a full or read-only cache filesystem must never fail the
        # evaluation the cache was accelerating: put() degrades to the
        # memory tier and reports zero bytes written.  A regular file
        # blocking the directory path simulates the unwritable tier
        # (permission bits are ignored when the suite runs as root)
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory")
        cache = FittedPrefixCache(cache_dir=str(blocker / "cache"))
        written = cache.put("abc123", {"instance": 1, "outputs": None})
        assert written == 0
        assert cache.get("abc123") == {"instance": 1, "outputs": None}

    def test_aliased_disk_entry_fails_the_fingerprint_check(self, tmp_path):
        # a valid pickle filed under the wrong name (fingerprint mismatch)
        # must be detected as poison, not served as the requested prefix
        directory = str(tmp_path)
        writer = FittedPrefixCache(cache_dir=directory)
        writer.put("honest", {"instance": "honest-artifact", "outputs": None})
        shutil.copyfile(
            os.path.join(directory, "honest.pkl"),
            os.path.join(directory, "impostor.pkl"),
        )
        reader = FittedPrefixCache(cache_dir=directory)
        assert reader.get("impostor") is None
        # the poisoned entry is dropped, the honest one stays
        assert not os.path.exists(os.path.join(directory, "impostor.pkl"))
        assert os.path.exists(os.path.join(directory, "honest.pkl"))

    def test_disk_tier_sweeps_oldest_entries_past_the_cap(self, tmp_path, monkeypatch):
        monkeypatch.setattr(prefix_cache_module, "DEFAULT_MAX_DISK_ENTRIES", 10)
        cache = FittedPrefixCache(cache_dir=str(tmp_path))
        now = 1_000_000_000
        for index in range(prefix_cache_module._DISK_SWEEP_INTERVAL):
            name = "entry-{:03d}".format(index)
            cache.put(name, {"instance": index, "outputs": None})
            # deterministic ages without sleeping: older index = older mtime
            os.utime(os.path.join(str(tmp_path), name + ".pkl"), (now + index, now + index))
        remaining = sorted(glob.glob(os.path.join(str(tmp_path), "*.pkl")))
        assert len(remaining) <= 10
        # the survivors are the newest entries, the oldest were swept
        assert all(int(os.path.basename(path)[6:9]) >= 10 for path in remaining)

    def test_resolve_prefix_cache_keeps_configs_side_by_side(self, tmp_path):
        config = make_prefix_cache_config("mem")
        assert resolve_prefix_cache(None) is None
        first = resolve_prefix_cache(config)
        assert resolve_prefix_cache(config) is first
        other = resolve_prefix_cache(make_prefix_cache_config("disk", str(tmp_path)))
        assert other is not first
        assert other.cache_dir == str(tmp_path)
        # concurrent searches with different configs must not evict each
        # other: the first config still resolves to the same instance
        assert resolve_prefix_cache(config) is first

    def test_config_validation(self):
        assert make_prefix_cache_config("off") is None
        assert make_prefix_cache_config(None) is None
        with pytest.raises(ValueError):
            make_prefix_cache_config("disk")  # no directory
        with pytest.raises(ValueError):
            make_prefix_cache_config("turbo")
        with pytest.raises(ValueError):
            AutoBazaarSearch(prefix_cache="turbo")


class TestDataKeys:
    def test_content_digest_is_memoized_and_content_addressed(self):
        task = make_task()
        twin = make_task()
        assert task_content_digest(task) == task_content_digest(twin)
        assert task._content_digest == task_content_digest(task)
        task.context["y"] = task.context["y"].copy()
        task.context["y"][0] = 1 - task.context["y"][0]
        del task._content_digest
        assert task_content_digest(task) != task_content_digest(twin)

    def test_fold_key_depends_on_indices(self):
        task = make_task()
        assert fold_data_key(task, [0, 1, 2]) != fold_data_key(task, [0, 1, 3])
        assert fold_data_key(task, [0, 1, 2]) == fold_data_key(task, [0, 1, 2])


class TestCachedSearchEquivalence:
    """Cached and uncached evaluation produce identical records everywhere."""

    def test_serial_mem_and_disk_match_uncached(self, tmp_path):
        baseline = stripped_documents(run_search())
        assert stripped_documents(run_search(prefix_cache="mem")) == baseline
        assert stripped_documents(
            run_search(prefix_cache="disk", cache_dir=str(tmp_path))
        ) == baseline

    def test_concurrent_pool_cached_matches_uncached(self, in_process_pool):
        # concurrent folds of one process share its memory tier
        baseline = stripped_documents(run_search(in_process_pool, workers=2, n_pending=2))
        cached = stripped_documents(
            run_search(in_process_pool, workers=2, n_pending=2, prefix_cache="mem")
        )
        assert cached == baseline

    def test_process_backend_cached_matches_uncached_and_serial(self, tmp_path):
        baseline = stripped_documents(run_search())
        cached = stripped_documents(
            run_search("process", workers=2, prefix_cache="disk", cache_dir=str(tmp_path))
        )
        assert cached == baseline

    def test_cache_stats_surface_in_search_results(self):
        uncached = run_search()
        assert uncached.cache_stats is None
        cached = run_search(prefix_cache="mem")
        assert cached.cache_stats["mode"] == "mem"
        assert cached.cache_stats["hits"] > 0
        assert cached.cache_stats["misses"] > 0
        assert cached.cache_stats["bytes_written"] == 0  # no disk tier

    def test_disk_stats_count_bytes_and_poisoned_store_still_correct(self, tmp_path):
        directory = str(tmp_path)
        first = run_search(prefix_cache="disk", cache_dir=directory)
        assert first.cache_stats["bytes_written"] > 0
        # poison every on-disk entry between searches: the second search
        # must fall back to misses and still produce identical records
        for path in glob.glob(os.path.join(directory, "*.pkl")):
            with open(path, "wb") as stream:
                stream.write(b"not a pickle")
        second = run_search(prefix_cache="disk", cache_dir=directory)
        assert stripped_documents(second) == stripped_documents(first)

    def test_session_threads_cache_flags(self):
        session = AutoBazaarSession(budget=4, n_splits=2, random_state=0,
                                    prefix_cache="mem")
        result = session.solve(make_task())
        assert result.cache_stats is not None
        assert result.cache_stats["mode"] == "mem"


@pytest.mark.parametrize("prefix_cache", ["off", "mem", "disk"])
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_every_record_is_the_reference_loop_over_all_folds(backend, prefix_cache, tmp_path):
    """No candidate is discarded early: each record is the plain fold loop's result.

    ``cross_validate_template`` scores a configuration on every fold; a
    search's record of it, on any backend and with the cache on or off,
    is that score pair (or the error the loop raised).
    """
    result = run_search(
        backend, workers=None if backend == "serial" else 2, n_pending=2,
        prefix_cache=prefix_cache, cache_dir=str(tmp_path) if prefix_cache == "disk" else None,
    )
    templates = {template.name: template for template in seeded_templates()}
    task, _ = split_task(make_task(), test_size=0.25, random_state=0)  # the search's holdout
    assert len(result.records) == 6
    for record in result.records:
        try:
            expected = cross_validate_template(
                templates[record.template_name], record.hyperparameters, task,
                n_splits=2, random_state=0)
        except Exception as failure:  # noqa: BLE001 - the reference's outcome
            expected = _format_error(failure)
        assert (record.error or (record.score, record.raw_score)) == expected, record


class TestCliFlags:
    def test_parser_accepts_cache_flags(self):
        from repro.automl.__main__ import build_parser, build_resume_parser

        arguments = build_parser().parse_args([
            "some/task", "--prefix-cache", "disk", "--cache-dir", "/tmp/cache",
        ])
        assert arguments.prefix_cache == "disk"
        assert arguments.cache_dir == "/tmp/cache"
        defaults = build_parser().parse_args(["some/task"])
        assert defaults.prefix_cache == "off"
        resume = build_resume_parser().parse_args(["run", "--prefix-cache", "mem"])
        assert resume.prefix_cache == "mem"


# -- shared disk tier under concurrent multi-coordinator writers -------------------


def _hammer_shared_cache_dir(directory, barrier, rounds, fingerprints, failures):
    """One coordinator process racing others on the same disk cache tier.

    Each round re-publishes every fingerprint (periodically unlinking the
    entry so the tmp+rename publication actually re-races instead of
    short-circuiting on the existing file) and re-reads it through a fresh
    cache instance, so every read goes to disk.  Any read must be a clean
    miss or the exact artifacts — a torn or aliased entry is a failure.
    """
    cache = FittedPrefixCache(cache_dir=directory)
    barrier.wait()  # line both writers up so the first publications collide
    for round_number in range(rounds):
        for fingerprint in fingerprints:
            expected = {"weights": fingerprint * 200, "round_invariant": True}
            if round_number % 3 == 2:
                try:
                    os.unlink(os.path.join(directory, "{}.pkl".format(fingerprint)))
                except OSError:
                    pass
            cache.put(fingerprint, expected)
            reader = FittedPrefixCache(cache_dir=directory)  # bypass the memory tier
            loaded = reader.get(fingerprint)
            if loaded is not None and loaded != expected:
                failures.put(
                    "torn or aliased artifacts for {!r} in round {}".format(
                        fingerprint, round_number
                    )
                )
                return


class TestConcurrentDiskWriters:
    def test_racing_coordinators_never_publish_a_torn_entry(self, tmp_path):
        """Two processes fitting the same prefixes must both land on valid
        entries: the atomic tmp+rename publication means a concurrent
        reader sees either no entry or a complete one, never a torn one."""
        directory = str(tmp_path / "shared-cache")
        fingerprints = ["prefix-{}".format(index) for index in range(4)]
        barrier = multiprocessing.Barrier(2)
        failures = multiprocessing.Queue()
        workers = [
            multiprocessing.Process(
                target=_hammer_shared_cache_dir,
                args=(directory, barrier, 30, fingerprints, failures),
            )
            for _ in range(2)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
            assert worker.exitcode == 0
        assert failures.empty(), failures.get()
        # the surviving entries are complete and self-identifying, and no
        # half-published temp files leaked
        for fingerprint in fingerprints:
            path = os.path.join(directory, "{}.pkl".format(fingerprint))
            if not os.path.exists(path):
                continue
            with open(path, "rb") as stream:
                payload = pickle.load(stream)
            assert payload["fingerprint"] == fingerprint
            assert payload["artifacts"]["round_invariant"] is True
        assert glob.glob(os.path.join(directory, "*.tmp")) == []
