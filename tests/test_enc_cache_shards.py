"""Encode-cache tiers: memory accounting boundary and mmap shards.

Memory tier: ``max_bytes`` is a hard ceiling — boundary inserts are
admitted exactly up to the budget, never-fitting inserts are declined
without evicting what already fits. Shard tier: documents stream to
flat mmap shards with a JSON offset index, read back bit-identically
(including by fresh cache instances and concurrent readers) as
zero-copy memmap views that never re-enter the memory tier.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.core.enc_cache import EncodeCache, doc_key

pytestmark = pytest.mark.engine

SRC = Path(__file__).resolve().parent.parent / "src"


def _doc(rng, tokens: int, dim: int = 8) -> np.ndarray:
    return rng.standard_normal((tokens, dim)).astype(np.float32)


# ---------------------------------------------------------------------------
# Memory-tier accounting
# ---------------------------------------------------------------------------

def test_insert_exactly_at_budget_is_admitted():
    cache = EncodeCache(max_bytes=128)
    value = np.zeros(32, dtype=np.float32)  # exactly 128 bytes
    cache.put("ns", "a", value)
    assert cache.nbytes == 128 and len(cache) == 1
    assert cache.evictions == 0


def test_never_fitting_insert_is_declined_not_churned():
    cache = EncodeCache(max_bytes=128)
    cache.put("ns", "keep", np.zeros(16, dtype=np.float32))  # 64 bytes
    cache.put("ns", "huge", np.zeros(64, dtype=np.float32))  # 256 bytes
    # The oversized value is declined outright; the resident entry and
    # its accounting are untouched (no evict-everything-then-fail churn).
    assert cache.get("ns", "keep") is not None
    assert cache.get("ns", "huge") is None
    assert cache.nbytes == 64
    assert cache.evictions == 1  # the declined insert is counted


def test_lru_eviction_keeps_bytes_under_budget(rng):
    cache = EncodeCache(max_bytes=256)
    for i in range(8):
        cache.put("ns", f"doc{i}", np.zeros(16, dtype=np.float32))  # 64 each
        assert cache.nbytes <= 256
    assert len(cache) == 4  # the 4 most recent fit
    assert cache.get("ns", "doc0") is None
    assert cache.get("ns", "doc7") is not None


def test_replacing_an_entry_does_not_double_count():
    cache = EncodeCache(max_bytes=256)
    cache.put("ns", "a", np.zeros(16, dtype=np.float32))
    cache.put("ns", "a", np.zeros(32, dtype=np.float32))
    assert cache.nbytes == 128 and len(cache) == 1


# ---------------------------------------------------------------------------
# Shard tier
# ---------------------------------------------------------------------------

def test_shards_round_trip_bit_identical(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=4)
    docs = {f"doc{i}": _doc(rng, tokens=3 + i) for i in range(10)}
    for key, value in docs.items():
        writer.put("ns", key, value)
    writer.flush_shards()

    shard_files = sorted(tmp_path.rglob("shard_*.npy"))
    index_files = sorted(tmp_path.rglob("shard_*.idx.json"))
    assert len(shard_files) == 3 and len(index_files) == 3
    for idx in index_files:
        payload = json.loads(idx.read_text())
        assert payload["dtype"] == "float32"

    # A fresh instance (fresh process stand-in) reads everything back
    # bit-identically as zero-copy memmap views, not memory-tier copies.
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=4)
    for key, value in docs.items():
        got = reader.get("ns", key)
        assert isinstance(got, np.memmap)
        np.testing.assert_array_equal(got, value)
    assert reader.shard_hits == len(docs)
    assert reader.nbytes == 0, "shard hits must not promote into memory"


def test_shard_hits_bypass_memory_tier(tmp_path, rng):
    cache = EncodeCache(max_bytes=64, disk_dir=tmp_path, shard_docs=2)
    big = _doc(rng, tokens=16)  # 512 bytes: never fits in memory
    cache.put("ns", "big0", big)
    cache.put("ns", "big1", big)
    assert cache.nbytes == 0
    got = cache.get("ns", "big0")
    np.testing.assert_array_equal(got, big)
    assert cache.shard_hits == 1 and cache.nbytes == 0


def test_pending_docs_surface_after_flush(tmp_path, rng):
    cache = EncodeCache(max_bytes=0, disk_dir=tmp_path, shard_docs=100)
    value = _doc(rng, tokens=4)
    cache.put("ns", "pending", value)
    assert not list(tmp_path.rglob("shard_*.npy"))
    cache.flush_shards()
    reader = EncodeCache(max_bytes=0, disk_dir=tmp_path, shard_docs=100)
    np.testing.assert_array_equal(reader.get("ns", "pending"), value)


def test_reader_discovers_other_writers_shards(tmp_path, rng):
    """A long-lived cache lazily folds in shards written by workers."""
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    assert reader.get("ns", "w0") is None  # nothing yet

    script = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.core.enc_cache import EncodeCache\n"
        "cache = EncodeCache(max_bytes=1 << 20, disk_dir=sys.argv[1],\n"
        "                    shard_docs=2)\n"
        "rng = np.random.default_rng(7)\n"
        "for i in range(4):\n"
        "    cache.put('ns', f'w{i}',\n"
        "              rng.standard_normal((5, 8)).astype(np.float32))\n"
        "cache.flush_shards()\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ,
             "PYTHONPATH": str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", "")},
    )
    assert result.returncode == 0, result.stderr

    rng7 = np.random.default_rng(7)
    expected = [rng7.standard_normal((5, 8)).astype(np.float32)
                for _ in range(4)]
    for i in range(4):
        np.testing.assert_array_equal(reader.get("ns", f"w{i}"), expected[i])


def test_concurrent_shard_reads_are_consistent(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=8)
    docs = {f"doc{i}": _doc(rng, tokens=4 + (i % 5)) for i in range(32)}
    for key, value in docs.items():
        writer.put("ns", key, value)
    writer.flush_shards()

    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=8)
    errors = []

    def hammer():
        try:
            for _ in range(20):
                for key, value in docs.items():
                    np.testing.assert_array_equal(reader.get("ns", key), value)
        except Exception as exc:  # propagated to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors


def test_corrupt_shard_is_forgotten_not_fatal(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    value = _doc(rng, tokens=4)
    writer.put("ns", "a", value)
    writer.put("ns", "b", value)
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    for shard in tmp_path.rglob("shard_*.npy"):
        shard.unlink()  # index survives, data is gone
    assert reader.get("ns", "a") is None  # miss, no exception
    assert reader.misses == 1


def test_shard_rescan_memoized_while_directory_unchanged(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    value = _doc(rng, tokens=4)
    writer.put("ns", "a", value)
    writer.flush_shards()

    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    np.testing.assert_array_equal(reader.get("ns", "a"), value)
    assert reader.rescans == 1  # first miss in the tier pays one scan
    # Repeated misses with an untouched directory are one stat() each,
    # not a re-glob: the rescan counter must not move.
    assert reader.get("ns", "absent0") is None
    assert reader.get("ns", "absent1") is None
    assert reader.rescans == 1
    assert reader.stats()["rescans"] == 1


def test_directory_mtime_change_triggers_exactly_one_rescan(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    first = _doc(rng, tokens=4)
    writer.put("ns", "a", first)
    writer.flush_shards()
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    np.testing.assert_array_equal(reader.get("ns", "a"), first)
    assert reader.rescans == 1

    late = _doc(rng, tokens=6)
    writer.put("ns", "late0", late)
    writer.put("ns", "late1", late)
    # Writing the shard touches the namespace dir; bump the mtime
    # explicitly so the test does not depend on filesystem timestamp
    # granularity.
    directory = tmp_path / "ns"
    stat = os.stat(directory)
    os.utime(directory, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))

    np.testing.assert_array_equal(reader.get("ns", "late0"), late)
    assert reader.rescans == 2
    # The fresh scan re-memoizes: further misses stay scan-free.
    assert reader.get("ns", "absent") is None
    assert reader.rescans == 2


def test_missing_namespace_directory_records_no_memo(tmp_path, rng):
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    assert reader.get("ns", "w0") is None  # no directory yet: no scan
    assert reader.rescans == 0

    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    value = _doc(rng, tokens=4)
    writer.put("ns", "w0", value)
    writer.put("ns", "w1", value)
    np.testing.assert_array_equal(reader.get("ns", "w0"), value)
    assert reader.rescans == 1


def test_vanished_shard_invalidates_rescan_memo(tmp_path, rng):
    writer = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    value = _doc(rng, tokens=4)
    writer.put("ns", "a", value)
    writer.put("ns", "b", value)
    reader = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    # A plain miss folds the index and memoizes the directory state
    # without opening the shard's mmap (an open mmap would outlive the
    # unlink below).
    assert reader.get("ns", "zzz") is None
    assert reader.rescans == 1

    for shard in (tmp_path / "ns").rglob("shard_*.npy"):
        shard.unlink()
    assert reader.get("ns", "a") is None  # unreadable: forgotten, memo dropped

    # A replacement shard reusing the SAME file name (same pid, reset
    # sequence) must be re-folded: the error path discards the matching
    # .idx.json from the scanned set and drops the directory memo.
    writer2 = EncodeCache(max_bytes=1 << 20, disk_dir=tmp_path, shard_docs=2)
    writer2.put("ns", "c", value)
    writer2.put("ns", "d", value)
    np.testing.assert_array_equal(reader.get("ns", "c"), value)
    assert reader.rescans == 2


# ---------------------------------------------------------------------------
# Per-document disk tier
# ---------------------------------------------------------------------------

def test_concurrent_writers_of_one_key_both_land(tmp_path, rng, monkeypatch):
    # Two replicas warming up on the same document put one key at once.
    # The second writer runs while the first is inside np.savez: with a
    # shared temporary name its rename consumed the first writer's tmp
    # file and the first rename raised FileNotFoundError.
    first = EncodeCache(disk_dir=tmp_path)
    second = EncodeCache(disk_dir=tmp_path)
    value = _doc(rng, 5)
    savez = np.savez
    interleaved = []

    def savez_then_race(path, **arrays):
        savez(path, **arrays)
        if not interleaved:
            interleaved.append(path)
            second.put("ns", "k", value)

    monkeypatch.setattr(np, "savez", savez_then_race)
    first.put("ns", "k", value)
    monkeypatch.setattr(np, "savez", savez)

    assert interleaved
    np.testing.assert_array_equal(
        EncodeCache(disk_dir=tmp_path).get("ns", "k"), value)
    assert [p.name for p in (tmp_path / "ns").iterdir()] == ["k.npz"]


def test_doc_key_stable_across_dtypes():
    ids32 = np.asarray([1, 2, 3], dtype=np.int32)
    ids64 = np.asarray([1, 2, 3], dtype=np.int64)
    assert doc_key(ids32) == doc_key(ids64)
