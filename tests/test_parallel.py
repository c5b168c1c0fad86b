"""The parallel sweep engine and the content-addressed result cache."""

import dataclasses
import hashlib
import json
import os
import struct
import threading
import time
from enum import Enum

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import (METRIC_NAMES, PtpBenchmarkConfig, ResultCache,
                        SweepStats, config_fingerprint, derive_cell_seed,
                        plan_cells, run_cells, run_ptp_benchmark, sweep_ptp)
from repro.core.config import COLD, HOT
from repro.core.parallel import (CACHE_SCHEMA_VERSION, FINGERPRINT_VERSION,
                                 _canonical_json)
from repro.core.runner import EXECUTIONS
from repro.errors import ConfigurationError
from repro.faults import DegradeWindow, FaultPlan, RetryPolicy
from repro.machine import NIAGARA_NODE, BindPolicy
from repro.mpi import DEFAULT_COSTS, ThreadingMode
from repro.network import INTRA_NODE, NIAGARA_EDR
from repro.noise import (ExponentialNoise, GaussianNoise, NoNoise,
                         SingleThreadNoise, UniformNoise)
from repro.partitioned import IMPL_MPIPCL, IMPL_NATIVE


def _base(**overrides):
    defaults = dict(message_bytes=64, partitions=1,
                    compute_seconds=1e-4, iterations=2)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


SIZES = [1024, 65536]
COUNTS = [1, 4]


# ---------------------------------------------------------------------------
# Fingerprinting
# ---------------------------------------------------------------------------

class TestFingerprint:
    def test_stable_across_instances(self):
        a = _base(noise=UniformNoise(4.0))
        b = _base(noise=UniformNoise(4.0))
        assert a is not b
        assert config_fingerprint(a) == config_fingerprint(b)

    def test_sensitive_to_every_behavioural_field(self):
        ref = config_fingerprint(_base())
        assert config_fingerprint(_base(message_bytes=128)) != ref
        assert config_fingerprint(_base(partitions=2)) != ref
        assert config_fingerprint(_base(compute_seconds=2e-4)) != ref
        assert config_fingerprint(_base(seed=99)) != ref
        assert config_fingerprint(_base(noise=UniformNoise(4.0))) != ref

    def test_noise_model_parameters_matter(self):
        a = config_fingerprint(_base(noise=UniformNoise(2.0)))
        b = config_fingerprint(_base(noise=UniformNoise(4.0)))
        c = config_fingerprint(_base(noise=GaussianNoise(4.0)))
        assert len({a, b, c}) == 3

    def test_is_hex_sha256(self):
        fp = config_fingerprint(_base())
        assert len(fp) == 64
        int(fp, 16)


class TestDerivedSeeds:
    def test_deterministic(self):
        assert derive_cell_seed(7, 1024, 4) == derive_cell_seed(7, 1024, 4)

    def test_decorrelates_cells_and_base_seeds(self):
        seeds = {derive_cell_seed(7, m, n)
                 for m in SIZES for n in COUNTS}
        seeds.add(derive_cell_seed(8, 1024, 4))
        assert len(seeds) == 5

    def test_plan_cells_uses_derived_seeds(self):
        base = _base(seed=7)
        cells = plan_cells(base, SIZES, COUNTS)
        for cell in cells:
            assert cell.seed == derive_cell_seed(
                7, cell.message_bytes, cell.partitions)

    def test_plan_cells_can_keep_base_seed(self):
        cells = plan_cells(_base(seed=7), SIZES, COUNTS,
                           derive_seeds=False)
        assert {c.seed for c in cells} == {7}

    def test_plan_cells_skips_unsplittable_and_rejects_empty(self):
        cells = plan_cells(_base(), [2], [1, 4])
        assert [(c.message_bytes, c.partitions) for c in cells] == [(2, 1)]
        with pytest.raises(ConfigurationError):
            plan_cells(_base(), [], COUNTS)


# ---------------------------------------------------------------------------
# Parallel vs serial equivalence
# ---------------------------------------------------------------------------

class TestParallelEquivalence:
    def test_jobs4_bit_identical_to_jobs1(self):
        base = _base(noise=UniformNoise(4.0), seed=11)
        serial = sweep_ptp(base, SIZES, COUNTS, jobs=1)
        parallel = sweep_ptp(base, SIZES, COUNTS, jobs=4)
        for metric in METRIC_NAMES:
            assert serial.series(metric) == parallel.series(metric)
        # Not just metric-identical: the *full instrumentation streams*
        # (every event, in order, with bit-exact timestamps) match.
        for m in SIZES:
            for n in COUNTS:
                s = serial.point(m, n).result
                p = parallel.point(m, n).result
                assert s.event_digest is not None
                assert s.event_digest == p.event_digest

    def test_parallel_samples_match_exactly(self):
        base = _base(noise=UniformNoise(4.0), seed=11)
        serial = sweep_ptp(base, SIZES, COUNTS, jobs=1)
        parallel = sweep_ptp(base, SIZES, COUNTS, jobs=2)
        for m in SIZES:
            for n in COUNTS:
                s = serial.point(m, n).result.samples
                p = parallel.point(m, n).result.samples
                assert [x.timeline for x in s] == [x.timeline for x in p]
                assert [x.metrics for x in s] == [x.metrics for x in p]

    def test_stats_attached(self):
        sweep = sweep_ptp(_base(), SIZES, COUNTS, jobs=2)
        assert isinstance(sweep.stats, SweepStats)
        assert sweep.stats.jobs == 2
        assert sweep.stats.total_cells == 4
        assert sweep.stats.executed == 4
        assert sweep.stats.cache_hits == 0
        assert "4 cells" in sweep.stats.describe()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_cells(plan_cells(_base(), SIZES, COUNTS), jobs=0)


# ---------------------------------------------------------------------------
# The result cache
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_hit_roundtrips_bit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [4])[0]
        fresh = run_ptp_benchmark(config)
        cache.put(config, fresh)
        loaded = cache.get(config)
        assert loaded is not None
        assert [s.timeline for s in loaded.samples] == \
            [s.timeline for s in fresh.samples]
        assert [s.metrics for s in loaded.samples] == \
            [s.metrics for s in fresh.samples]

    def test_cached_rerun_executes_zero_simulations(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = _base(seed=3)
        first = sweep_ptp(base, SIZES, COUNTS, cache=cache)
        assert first.stats.executed == 4
        assert first.stats.cache_hits == 0
        assert len(cache) == 4

        EXECUTIONS.reset()
        second = sweep_ptp(base, SIZES, COUNTS, cache=cache)
        assert EXECUTIONS.value == 0  # zero simulations ran
        assert second.stats.executed == 0
        assert second.stats.cache_hits == 4
        for metric in METRIC_NAMES:
            assert second.series(metric) == first.series(metric)
        for m in SIZES:
            for n in COUNTS:
                fresh = first.point(m, n).result
                cached = second.point(m, n).result
                assert fresh.event_digest is not None
                assert cached.event_digest == fresh.event_digest

    def test_config_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_ptp(_base(seed=3), SIZES, COUNTS, cache=cache)
        EXECUTIONS.reset()
        sweep_ptp(_base(seed=3, compute_seconds=2e-4), SIZES, COUNTS,
                  cache=cache)
        assert EXECUTIONS.value == 4  # every cell re-simulated
        assert len(cache) == 8

    def test_schema_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        path = cache._path(config_fingerprint(config))
        blob = bytearray(path.read_bytes())
        # The envelope is ``<4sHH``: magic, schema, label length.  Patch
        # the schema halfword to a future version; the entry must read
        # as a miss, never as a crash.
        blob[4:6] = struct.pack("<H", CACHE_SCHEMA_VERSION + 1)
        path.write_bytes(bytes(blob))
        assert cache.get(config) is None
        assert cache.misses == 1

    def test_corrupt_envelope_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        path = cache._path(config_fingerprint(config))
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])  # truncated frame
        assert cache.get(config) is None
        assert cache.misses == 1

    def test_invalid_timeline_entry_is_a_miss(self, tmp_path):
        """A frame that decodes to an impossible timeline reads as a miss.

        Regression: the timeline validator's ConfigurationError escaped
        get() and killed the sweep instead of counting a miss.
        """
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [4])[0]
        fresh = run_ptp_benchmark(config)
        cache.put(config, fresh)
        path = cache._path(config_fingerprint(config))
        blob = path.read_bytes()
        arrival = struct.pack("<d",
                              fresh.samples[0].timeline.arrival_times[0])
        at = blob.index(arrival)
        path.write_bytes(blob[:at] + struct.pack("<d", -1.0)
                         + blob[at + 8:])
        assert cache.get(config) is None
        assert cache.misses == 1
        _, stats = run_cells([config], jobs=1, cache=cache)
        assert stats.executed == 1      # recomputed, not crashed

    def test_len_counts_what_the_shard_glob_counts(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        sweep_ptp(_base(), [1024], [1, 4], cache=cache)
        root = cache.root
        (root / "ab").mkdir(exist_ok=True)
        (root / "ab" / "x.bin.tmp").write_bytes(b"")   # in-flight write
        (root / "ab" / ".hidden.bin").write_bytes(b"")
        (root / "top.bin").write_bytes(b"")            # not in a shard
        (root / "zz.bin").mkdir()
        os.makedirs(root / "cd" / "nested.bin")
        assert len(cache) == sum(1 for _ in root.glob("*/*.bin")) == 4

    def test_clear_and_len(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        assert len(cache) == 0
        sweep_ptp(_base(), [1024], [1, 4], cache=cache)
        assert len(cache) == 2
        assert cache.clear() == 2
        assert len(cache) == 0

    def test_path_argument_coerced(self, tmp_path):
        cells = plan_cells(_base(), [1024], [1])
        run_cells(cells, jobs=1, cache=str(tmp_path / "cache"))
        _, stats = run_cells(cells, jobs=1, cache=str(tmp_path / "cache"))
        assert stats.cache_hits == 1

    def test_parallel_run_populates_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        base = _base(seed=5)
        sweep_ptp(base, SIZES, COUNTS, jobs=2, cache=cache)
        assert len(cache) == 4
        EXECUTIONS.reset()
        again = sweep_ptp(base, SIZES, COUNTS, jobs=2, cache=cache)
        assert EXECUTIONS.value == 0
        assert again.stats.cache_hits == 4


# ---------------------------------------------------------------------------
# The in-process memory tier and result provenance (cache schema v4)
# ---------------------------------------------------------------------------

class TestMemoryTier:
    def test_repeat_get_served_from_memory(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        first = cache.get(config)     # disk read, validates + remembers
        second = cache.get(config)    # memory tier, no JSON parse
        assert first is not None and second is not None
        assert cache.memory_hits == 1
        assert second.event_digest == first.event_digest
        assert [s.timeline for s in second.samples] == \
            [s.timeline for s in first.samples]

    def test_memory_tier_returns_fresh_objects(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        a = cache.get(config)
        b = cache.get(config)
        assert a is not b
        a.samples.clear()             # mutating one copy must not leak
        assert cache.get(config).samples

    def test_put_invalidates_memory_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)
        fresh = run_ptp_benchmark(config)
        cache.put(config, fresh)      # overwrite drops the memory entry
        loaded = cache.get(config)
        assert cache.memory_hits == 0  # both gets re-read the disk file
        assert loaded.event_digest == fresh.event_digest

    def test_memory_tier_is_bounded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", memory_entries=2)
        cells = plan_cells(_base(), [1024, 65536], [1, 4])
        for config in cells:
            cache.put(config, run_ptp_benchmark(config))
            cache.get(config)
        assert len(cache._memory) == 2  # LRU evicted the first two

    def test_clear_empties_memory_tier(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)
        cache.clear()
        assert cache.get(config) is None


class TestCacheCounters:
    def test_clear_resets_counters_with_the_store(self, tmp_path):
        # Regression: clear() used to leave hit/miss history describing
        # entries that no longer existed.
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        assert cache.get(config) is None          # miss
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)                         # disk hit
        cache.get(config)                         # memory hit
        assert (cache.hits, cache.misses, cache.stores,
                cache.memory_hits) == (2, 1, 1, 1)
        cache.clear()
        assert (cache.hits, cache.misses, cache.stores,
                cache.memory_hits, cache.singleflight_hits) == \
            (0, 0, 0, 0, 0)
        assert cache.stats() == {
            "entries": 0, "hits": 0, "misses": 0, "stores": 0,
            "memory_hits": 0, "singleflight_hits": 0,
            "memory_entries": 0, "inflight": 0}

    def test_stats_snapshot_and_describe(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        cache.put(config, run_ptp_benchmark(config))
        cache.get(config)
        cache.get(config)
        s = cache.stats()
        assert s["entries"] == 1
        assert s["hits"] == 2
        assert s["memory_hits"] == 1
        assert s["stores"] == 1
        assert s["memory_entries"] == 1
        line = cache.describe()
        assert "1 entry(ies)" in line
        assert "2 hits (1 memory)" in line
        assert "single-flight" not in line  # only shown when nonzero


# ---------------------------------------------------------------------------
# Single-flight: identical uncached cells execute exactly once
# ---------------------------------------------------------------------------

class TestSingleFlight:
    def test_duplicate_cells_in_one_grid_execute_once(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(seed=4), [1024], [1])[0]
        cells = [config] * 5
        EXECUTIONS.reset()
        results, stats = run_cells(cells, jobs=1, cache=cache)
        assert EXECUTIONS.value == 1
        assert stats.executed == 1
        assert stats.singleflight_hits == len(cells) - 1
        assert all(r.event_digest == results[0].event_digest
                   for r in results)
        assert results[0].event_digest is not None
        assert "4 single-flight" in stats.describe()

    def test_duplicates_collapse_without_a_cache(self):
        config = plan_cells(_base(seed=4), [1024], [1])[0]
        EXECUTIONS.reset()
        results, stats = run_cells([config] * 3, jobs=1)
        assert EXECUTIONS.value == 1
        assert stats.singleflight_hits == 2
        assert results[0] is results[1] is results[2]

    def test_claim_join_and_abandon(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        fingerprint = config_fingerprint(config)
        assert cache.claim(fingerprint) is None     # first caller leads
        flight = cache.claim(fingerprint)
        assert flight is not None                   # second caller joins
        result = run_ptp_benchmark(config)
        cache.put(config, result)                   # leader publishes
        joined = cache.join(flight, config, timeout=5.0)
        assert joined is not None
        assert joined.event_digest == result.event_digest
        assert cache.singleflight_hits == 1
        # A fresh claim after put leads again (the flight is gone).
        assert cache.claim(fingerprint) is None
        follower = cache.claim(fingerprint)
        cache.abandon(fingerprint)                  # leader gives up
        assert cache.join(follower, config, timeout=5.0) is None

    def test_concurrent_sweeps_share_one_execution(self, tmp_path):
        """Two sweeps, two pools, one cache: each cell executes once."""
        from repro.core import WorkerPool

        cells = plan_cells(_base(seed=9), SIZES, COUNTS)
        serial, _ = run_cells(cells, jobs=1)
        cache = ResultCache(tmp_path / "cache")
        pools = {"lead": WorkerPool(2), "follow": WorkerPool(2)}
        outputs = {}

        def follow():
            # Enter only once the lead sweep holds every claim, so each
            # of this sweep's cells deterministically joins an in-flight
            # computation rather than racing the claim.
            deadline = time.monotonic() + 60.0
            while len(cache._inflight) < len(cells):
                assert time.monotonic() < deadline, "lead never claimed"
                time.sleep(0.001)
            outputs["follow"] = run_cells(cells, jobs=2, cache=cache,
                                          pool=pools["follow"])

        try:
            follower = threading.Thread(target=follow)
            follower.start()
            outputs["lead"] = run_cells(cells, jobs=2, cache=cache,
                                        pool=pools["lead"])
            follower.join(timeout=120.0)
            assert not follower.is_alive()
        finally:
            for p in pools.values():
                p.shutdown()

        lead_results, lead_stats = outputs["lead"]
        follow_results, follow_stats = outputs["follow"]
        # Between them the sweeps executed each unique cell exactly once.
        assert lead_stats.executed == len(cells)
        assert follow_stats.executed == 0
        assert follow_stats.singleflight_hits + follow_stats.cache_hits \
            == len(cells)
        assert cache.stats()["inflight"] == 0
        for got in (lead_results, follow_results):
            assert [r.event_digest for r in got] == \
                [r.event_digest for r in serial]


# ---------------------------------------------------------------------------
# v4 -> v5 cache migration
# ---------------------------------------------------------------------------

class TestCacheMigration:
    @staticmethod
    def _legacy_record(root, config, result, sharded):
        """Hand-write a v4 JSON record exactly as PR 8's put() did."""
        from repro.core.persistence import result_to_dict
        fingerprint = config_fingerprint(config)
        payload = {"schema": 4, "fingerprint": fingerprint,
                   "label": config.label(),
                   "result": result_to_dict(result)}
        if sharded:
            path = root / fingerprint[:2] / f"{fingerprint}.json"
        else:
            path = root / f"{fingerprint}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return path

    def test_migrates_flat_and_sharded_v4_layouts(self, tmp_path):
        root = tmp_path / "cache"
        cells = plan_cells(_base(seed=3), SIZES, COUNTS)
        fresh = [run_ptp_benchmark(c) for c in cells]
        old_paths = [self._legacy_record(root, config, result,
                                         sharded=i % 2 == 0)
                     for i, (config, result) in
                     enumerate(zip(cells, fresh))]
        cache = ResultCache(root)
        assert len(cache) == 0            # v4 entries invisible to v5
        assert cache.migrate() == len(cells)
        assert len(cache) == len(cells)
        for path in old_paths:
            assert not path.exists()      # originals removed

        # Every migrated fingerprint resolves with zero recomputation.
        EXECUTIONS.reset()
        again, stats = run_cells(cells, jobs=1, cache=cache)
        assert EXECUTIONS.value == 0
        assert stats.executed == 0
        assert stats.cache_hits == len(cells)
        for a, b in zip(again, fresh):
            assert a.event_digest == b.event_digest
            assert [s.timeline for s in a.samples] == \
                [s.timeline for s in b.samples]

    def test_migrate_skips_foreign_and_older_records(self, tmp_path):
        root = tmp_path / "cache"
        root.mkdir(parents=True)
        (root / "junk.json").write_text("{not json")
        (root / "old.json").write_text(json.dumps(
            {"schema": 3, "fingerprint": "ab" * 32, "result": {}}))
        cache = ResultCache(root)
        assert cache.migrate() == 0
        assert (root / "junk.json").exists()   # left untouched
        assert (root / "old.json").exists()

    def test_migrate_is_idempotent(self, tmp_path):
        root = tmp_path / "cache"
        config = plan_cells(_base(seed=3), [1024], [1])[0]
        self._legacy_record(root, config, run_ptp_benchmark(config),
                            sharded=True)
        cache = ResultCache(root)
        assert cache.migrate() == 1
        assert cache.migrate() == 0        # nothing left to upgrade
        assert cache.get(config) is not None


class TestFingerprintMemoization:
    def test_memoized_on_the_instance(self):
        config = _base()
        fp = config_fingerprint(config)
        assert config.__dict__["_fingerprint"] == fp
        assert config_fingerprint(config) == fp

    def test_salt_does_not_pollute_the_memo(self):
        config = _base()
        plain = config_fingerprint(config)
        salted = config_fingerprint(config, salt="planner|x")
        assert salted != plain
        assert config.__dict__["_fingerprint"] == plain
        assert config_fingerprint(config) == plain

    def test_salted_fingerprints_distinct(self):
        config = _base()
        assert config_fingerprint(config, salt="a") != \
            config_fingerprint(config, salt="b")


# ---------------------------------------------------------------------------
# Fingerprint encoder equivalence: pinned identities + the old form oracle
# ---------------------------------------------------------------------------

def _oracle_canonical(value):
    """The pre-encoder canonical form, kept here only as a test oracle."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _oracle_canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return _oracle_canonical(value.value)
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_oracle_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _oracle_canonical(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    state = {k: _oracle_canonical(v)
             for k, v in sorted(value.__dict__.items())
             if not k.startswith("_")}
    return {"__class__": type(value).__name__, **state}


def _oracle_text(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _oracle_fingerprint(config) -> str:
    blob = _oracle_text({"schema": FINGERPRINT_VERSION,
                         "config": _oracle_canonical(config)})
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _golden_config(name):
    base = dict(message_bytes=65536, partitions=4)
    extra = {
        "paper-defaults": {},
        "cold-cache": dict(cache=COLD),
        "native-impl": dict(impl=IMPL_NATIVE),
        "uniform-4": dict(noise=UniformNoise(4.0)),
        "gaussian-4": dict(noise=GaussianNoise(4.0)),
        "single-4": dict(noise=SingleThreadNoise(4.0)),
        "single-4-victim-2": dict(noise=SingleThreadNoise(4.0, victim=2)),
        "exponential-4": dict(noise=ExponentialNoise(4.0)),
        "faults-degrade": dict(faults=FaultPlan(
            drop_probability=0.1,
            degrade_windows=(DegradeWindow(0.0, 2e-3, bandwidth_scale=0.5,
                                           latency_scale=3.0),),
            retry=RetryPolicy(max_retries=4))),
        "substrate-override": dict(
            spec=NIAGARA_NODE.with_overrides(cores_per_socket=4),
            inter_node=NIAGARA_EDR.with_overrides(bandwidth=5e9)),
    }[name]
    return PtpBenchmarkConfig(**base, **extra)


#: FINGERPRINT_VERSION 4 identities: every stored cache entry is keyed
#: by these, so the encoder may never change a single byte of its text.
GOLDEN_FINGERPRINTS = {
    "paper-defaults":
        "55cfd4979b2bf91937d61ce6052eebdfdac5105628262cc20bd9e46ec3a5f5f4",
    "cold-cache":
        "606e215de63a3e53f14c7a59db344d3e221c829534eb5fd80a9cb62645904ac0",
    "native-impl":
        "fe96820899f299bc15f90d9c1304834a7bb0042994e9ec87172334f0411b7f21",
    "uniform-4":
        "3270b21ba18c6e1463b16dd67c3092e03c96554783a6dcdbe03deab3c178063b",
    "gaussian-4":
        "cdbf5164982240ea84a3630c60ebdf63981636e07141f1fb41053422aa625517",
    "single-4":
        "cc371a9c3444a70958cb4019e12e6231feb15d9ad4c9c4813749411e2fef0ac7",
    "single-4-victim-2":
        "1d6d08cb1828b1222ad22ff47abbae899b94530e98805e8bd94615d2fc24cc8f",
    "exponential-4":
        "0cd72f8101849a97b794eb75ca956887bfd3469bcd8b83e5378b000832a59737",
    "faults-degrade":
        "fc2b54140d62d17ee550a5c5cba700ce9d0f4d8deaed9619b19e95cd77d0e86f",
    "substrate-override":
        "36f2b482fc9c6679872ea94867837fa5646f10c299818057cb69455b37ed7313",
}

_finite = st.floats(min_value=1e-12, max_value=1e12, allow_nan=False,
                    allow_infinity=False)
_noise = st.one_of(
    st.just(NoNoise()),
    st.builds(UniformNoise, st.floats(0, 100)),
    st.builds(GaussianNoise, st.floats(0, 100)),
    st.builds(ExponentialNoise, st.floats(0, 100)),
    st.builds(SingleThreadNoise, st.floats(0, 100),
              st.one_of(st.none(), st.integers(0, 7))))
_faults = st.one_of(st.none(), st.builds(
    FaultPlan,
    drop_probability=st.floats(0, 0.5),
    degrade_windows=st.lists(
        st.builds(lambda start, span, bw, lat: DegradeWindow(
            start, start + span, bandwidth_scale=bw, latency_scale=lat),
            st.floats(0, 1), st.floats(1e-9, 1), st.floats(0.01, 1),
            st.floats(1, 10)), max_size=3).map(tuple),
    deadline=st.one_of(st.none(), st.floats(1e-6, 10)),
    retry=st.builds(RetryPolicy, max_retries=st.integers(0, 20))))
_spec = st.one_of(
    st.just(NIAGARA_NODE),
    st.builds(NIAGARA_NODE.with_overrides,
              cores_per_socket=st.integers(1, 64),
              clock_ghz=st.floats(allow_nan=True, allow_infinity=True),
              llc_bytes=st.integers(1, 1 << 40)))
_network = st.one_of(
    st.just(NIAGARA_EDR), st.just(INTRA_NODE),
    st.builds(NIAGARA_EDR.with_overrides, bandwidth=_finite,
              eager_threshold=st.integers(0, 1 << 30)))


@st.composite
def _configs(draw):
    partitions = draw(st.integers(1, 64))
    per_thread = draw(st.sampled_from(
        [d for d in range(1, partitions + 1) if partitions % d == 0]))
    return PtpBenchmarkConfig(
        message_bytes=draw(st.integers(partitions, 1 << 34)),
        partitions=partitions,
        partitions_per_thread=per_thread,
        compute_seconds=draw(st.floats(min_value=0, allow_nan=False)),
        noise=draw(_noise),
        cache=draw(st.sampled_from([HOT, COLD])),
        impl=draw(st.sampled_from([IMPL_MPIPCL, IMPL_NATIVE])),
        iterations=draw(st.integers(1, 100)),
        warmup=draw(st.integers(0, 10)),
        seed=draw(st.integers(0, (1 << 64) - 1)),
        mode=draw(st.sampled_from(list(ThreadingMode))),
        bind_policy=draw(st.sampled_from(list(BindPolicy))),
        spec=draw(_spec),
        inter_node=draw(_network),
        intra_node=draw(_network),
        costs=draw(st.one_of(st.just(DEFAULT_COSTS), st.builds(
            DEFAULT_COSTS.with_overrides, lock_hold=_finite))),
        faults=draw(_faults))


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(),
              st.floats(allow_nan=True, allow_infinity=True),
              st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4),
                                  st.integers(-3, 3)),
                        children, max_size=4)),
    max_leaves=20)


class TestFingerprintEncoder:
    @pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
    def test_golden_fingerprints(self, name):
        config = _golden_config(name)
        assert config_fingerprint(config) == GOLDEN_FINGERPRINTS[name]
        assert _oracle_fingerprint(config) == GOLDEN_FINGERPRINTS[name]

    @given(_configs())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_json_dumps_oracle(self, config):
        assert config_fingerprint(config) == _oracle_fingerprint(config)

    @given(_json_values)
    @example(float("nan"))
    @example([float("inf"), -float("inf"), -0.0, 1e300, True, None])
    @example({2: "b", "10": 1.5, "a": [], -1: {}})
    @example("\u00e9\n\"\U0001f600")
    @settings(max_examples=300, deadline=None)
    def test_component_text_matches_json_dumps(self, value):
        assert _canonical_json(value) == \
            _oracle_text(_oracle_canonical(value))

    def test_scalar_subclasses_encode_as_their_base(self):
        import numpy as np

        class Count(int):
            pass

        class Label(str):
            pass

        for value in (np.float64(0.1), np.float64("nan"), Count(7),
                      Label("x\n"), [Count(-2), np.float64(1e300)]):
            assert _canonical_json(value) == \
                _oracle_text(_oracle_canonical(value))

    def test_plain_object_keys_sort_around_the_class_key(self):
        class Plain:
            def __init__(self):
                self.Upper = 1          # sorts before "__class__"
                self.lower = [0.5, ThreadingMode.MULTIPLE]
                self._private = "skipped"

        value = Plain()
        text = _canonical_json(value)
        assert text == _oracle_text(_oracle_canonical(value))
        assert text.index('"Upper"') < text.index('"__class__"')
        assert "_private" not in text

    def test_unencodable_component_rejected(self):
        with pytest.raises(ConfigurationError, match="cannot fingerprint"):
            _canonical_json(object())

    def test_substrate_fragment_memo_is_per_instance(self):
        spec = NIAGARA_NODE.with_overrides(cores_per_socket=7)
        first = _base(spec=spec)
        fingerprint = config_fingerprint(first)
        assert "_canonical_json" in spec.__dict__
        # The cell's own text is not memoized; its digest is.
        assert "_canonical_json" not in first.__dict__
        for other in (
                first.with_overrides(
                    spec=spec.with_overrides(cores_per_socket=8)),
                first.with_overrides(
                    spec=dataclasses.replace(spec, cores_per_socket=9)),
                dataclasses.replace(first, seed=first.seed + 1)):
            assert "_fingerprint" not in other.__dict__
            assert "_canonical_json" not in other.spec.__dict__ or \
                other.spec is spec
            assert config_fingerprint(other) == _oracle_fingerprint(other)
            assert config_fingerprint(other) != fingerprint
        # Equal but distinct substrate values keep their own identity
        # (1 == 1.0, yet the canonical text differs).
        as_int = _base(spec=spec.with_overrides(clock_ghz=2))
        as_float = _base(spec=spec.with_overrides(clock_ghz=2.0))
        assert as_int.spec == as_float.spec
        assert config_fingerprint(as_int) != config_fingerprint(as_float)
        assert config_fingerprint(first) == fingerprint


class TestProvenanceRoundTrip:
    def test_trials_and_source_survive_the_cache(self, tmp_path):
        from repro.metrics import AdaptiveTrialPlanner
        cache = ResultCache(tmp_path / "cache")
        planner = AdaptiveTrialPlanner(ci_target=1e-12, min_trials=2,
                                       max_trials=3, batch=1)
        config = plan_cells(_base(noise=UniformNoise(4.0)), [1024], [4])[0]
        salt = planner.cache_salt()
        merged = planner.run_cell(config)
        assert merged.trials == 3
        cache.put(config, merged, salt=salt)
        loaded = cache.get(config, salt=salt)
        assert loaded is not None
        assert loaded.source == "des"
        assert loaded.trials == 3
        assert loaded.event_digest == merged.event_digest

    def test_trials_aggregate_across_worker_processes(self):
        """--jobs N must report the same trial total as a serial run."""
        from repro.metrics import AdaptiveTrialPlanner
        base = _base(noise=UniformNoise(4.0), seed=11)
        planner = AdaptiveTrialPlanner(ci_target=1e-12, min_trials=2,
                                       max_trials=3, batch=1)
        cells = plan_cells(base, SIZES, COUNTS)
        serial, s_stats = run_cells(cells, jobs=1, planner=planner)
        parallel, p_stats = run_cells(cells, jobs=2, planner=planner)
        assert s_stats.trials == sum(r.trials for r in serial) > 4
        assert p_stats.trials == s_stats.trials
        for s, p in zip(serial, parallel):
            assert s.trials == p.trials
            assert s.event_digest == p.event_digest


# ---------------------------------------------------------------------------
# Result-plane concurrency regressions
# ---------------------------------------------------------------------------

class TestResultPlaneConcurrency:
    def test_stats_does_not_hold_lock_during_disk_count(self, tmp_path,
                                                        monkeypatch):
        """stats() must count disk entries outside the cache lock.

        Regression: stats() used to call ``len(self)`` — a glob over the
        whole shard tree — while holding ``self._lock``, so a slow disk
        walk (or just a big cache) stalled every concurrent claim/put
        behind it.  A stats() stuck mid-count must not block claim().
        """
        cache = ResultCache(tmp_path / "cache")
        entered = threading.Event()
        release = threading.Event()

        def slow_len(self):
            entered.set()
            assert release.wait(30.0), "test never released the count"
            return 0

        # Dunder lookups go through the type, so patch the class.
        monkeypatch.setattr(ResultCache, "__len__", slow_len)
        stats_thread = threading.Thread(target=cache.stats)
        stats_thread.start()
        try:
            assert entered.wait(10.0), "stats() never reached the count"
            claimed = threading.Event()

            def use_lock():
                cache.claim("ab" * 32)
                claimed.set()

            threading.Thread(target=use_lock, daemon=True).start()
            assert claimed.wait(5.0), \
                "claim() blocked behind stats()'s disk walk"
        finally:
            release.set()
            stats_thread.join(timeout=10.0)

    def test_join_times_out_on_a_leader_that_never_publishes(self,
                                                             tmp_path):
        """A dead leader must not park joiners forever (bounded join)."""
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(), [1024], [1])[0]
        fingerprint = config_fingerprint(config)
        assert cache.claim(fingerprint) is None     # leader, never puts
        flight = cache.claim(fingerprint)
        t0 = time.monotonic()
        assert cache.join(flight, config, timeout=0.2) is None
        assert time.monotonic() - t0 < 5.0

    def test_engine_recomputes_after_join_timeout_and_wakes_stragglers(
            self, tmp_path):
        """run_cells falls back to computing when its join times out.

        The recompute's put() must also pop the stale flight and wake
        any *other* joiner still blocked on it — with the result, and
        exactly once.
        """
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(seed=21), [1024], [1])[0]
        fingerprint = config_fingerprint(config)
        assert cache.claim(fingerprint) is None     # leader dies silently
        stale = cache.claim(fingerprint)
        wakes = []
        straggler = threading.Thread(
            target=lambda: wakes.append(
                cache.join(stale, config, timeout=60.0)))
        straggler.start()

        results, stats = run_cells([config], jobs=1, cache=cache,
                                   join_timeout=0.2)
        straggler.join(timeout=30.0)
        assert not straggler.is_alive(), "straggler never woke"
        assert stats.executed == 1                  # the fallback compute
        assert results[0].event_digest is not None
        assert wakes == [results[0]] or (
            wakes[0].event_digest == results[0].event_digest)
        assert cache.stats()["inflight"] == 0
        # The flight is gone: a fresh claim leads again.
        assert cache.claim(fingerprint) is None

    def test_leader_raising_mid_trial_wakes_joiners_exactly_once(
            self, tmp_path, monkeypatch):
        """A leader that raises abandons its claims and wakes joiners.

        The leader is a real ``run_cells`` sweep whose trial crashes
        *while joiners are registered on its claim* — the crash is
        gated on every joiner having joined, so the abandon path is
        exercised with real waiters, not an empty flight.
        """
        cache = ResultCache(tmp_path / "cache")
        config = plan_cells(_base(seed=22), [1024], [1])[0]
        fingerprint = config_fingerprint(config)

        n = 4
        wakes = []
        wakes_lock = threading.Lock()
        registered = threading.Barrier(n + 1)

        def join_one():
            # Wait for the sweep to claim leadership, then ride it.
            deadline = time.monotonic() + 30.0
            while fingerprint not in cache._inflight:
                assert time.monotonic() < deadline, "leader never claimed"
                time.sleep(0.001)
            flight = cache.claim(fingerprint)
            assert flight is not None
            registered.wait(timeout=30.0)
            got = cache.join(flight, config, timeout=60.0)
            with wakes_lock:
                wakes.append(got)

        import repro.core.parallel as parallel_mod

        def boom(config, planner=None):
            # "Mid-trial": the leader holds the claim, every joiner is
            # blocked on it, and then the trial crashes.
            registered.wait(timeout=30.0)
            raise RuntimeError("mid-trial crash")

        monkeypatch.setattr(parallel_mod, "_run_des_cell", boom)
        joiners = [threading.Thread(target=join_one) for _ in range(n)]
        for thread in joiners:
            thread.start()

        # The leader's sweep raises mid-trial; run_cells must abandon.
        with pytest.raises(RuntimeError):
            run_cells([config], jobs=1, cache=cache)
        for thread in joiners:
            thread.join(timeout=30.0)
            assert not thread.is_alive(), "joiner never woke"
        # Exactly one wake per joiner, each with "recompute yourself".
        assert wakes == [None] * n
        assert cache.stats()["inflight"] == 0
        # And the flight is really gone: a fresh sweep leads and runs.
        monkeypatch.undo()
        results, stats = run_cells([config], jobs=1, cache=cache)
        assert stats.executed == 1
        assert results[0].event_digest is not None
