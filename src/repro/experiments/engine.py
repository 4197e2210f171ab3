"""Execution substrate of the experiment DAG scheduler.

Tables compile into a content-addressed artifact graph
(:mod:`repro.experiments.dag`) and run through
:mod:`repro.experiments.scheduler`, the one experiment executor. This
module holds what the scheduler runs nodes with:

- **Deterministic sharded seeding** — :func:`derive_row_seed` derives a
  node's seed from ``(table_seed, node_name)``, so its numbers depend
  only on its own identity, never on execution order or placement.
  Parallel output is therefore bit-identical to serial output.
- **Spawn workers** — :class:`_Worker` is one slot of the scheduler's
  ``multiprocessing`` (spawn) pool. Workers are persistent (the
  in-process PLM/bundle caches amortize across the nodes a worker
  executes) and communicate over duplex pipes, so a hung or crashed
  worker can be terminated and replaced without touching its siblings.
- **Artifact store** — :class:`RowMemo` keeps finished payloads as JSON
  files, one per content digest, under ``~/.cache/repro/rows`` (override:
  ``REPRO_ROW_CACHE_DIR``). Writes are atomic (tmp-then-``os.replace``)
  and stamped with :func:`source_version`, which ``cache-prune`` uses to
  tell live entries from leftovers of old checkouts.

Failures follow the tables' ``error``-column convention
(:func:`_execute_row`): ``MemoryError`` renders as the papers' literal
``"-"``; any other exception yields an ``error`` cell while the rest of
the table completes.

When tracing is enabled (:mod:`repro.obs`), a node run in a worker
records into a short-lived worker-side tracer whose export travels back
through the result pipe alongside the metrics, under a
``node:<name>`` span; the scheduler absorbs those payloads in
topological order.

Env knobs (all read through :mod:`repro.core.env`): ``REPRO_JOBS``
(default worker count), ``REPRO_ROW_CACHE`` (``0`` disables the store),
``REPRO_ROW_CACHE_DIR`` (store location), ``REPRO_ROW_TIMEOUT``
(default per-node timeout, seconds).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path

from repro import obs
from repro.core import env as _env

#: Sentinel a runner may return to drop its row from the table (mirrors
#: the seed harness skipping e.g. a theme with no matching context).
SKIP_ROW = {"__skip__": True}

_ROW_SEED_SPAN = 2**31


# ---------------------------------------------------------------------------
# Seeding and the source stamp
# ---------------------------------------------------------------------------

def derive_row_seed(table_seed: int, row_name: str) -> int:
    """Deterministic per-row seed from ``(table_seed, row_name)``.

    Stable across processes and Python versions (blake2b, not ``hash``),
    so a row produces identical numbers wherever and whenever it runs.
    """
    payload = f"{int(table_seed)}\x1f{row_name}".encode("utf-8")
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    return int.from_bytes(digest[:4], "big") % _ROW_SEED_SPAN


_SOURCE_VERSION: "list[str]" = []


def source_version() -> str:
    """Digest of the ``repro`` source tree (the store's prune stamp).

    Hashing file contents (not mtimes) keeps the stamp stable across
    checkouts while changing whenever any source changes.
    """
    if _SOURCE_VERSION:
        return _SOURCE_VERSION[0]
    root = Path(__file__).resolve().parents[1]  # src/repro
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if "__pycache__" in rel:
            continue
        h.update(rel.encode("utf-8"))
        h.update(b"\x00")
        h.update(path.read_bytes())
        h.update(b"\x00")
    _SOURCE_VERSION.append(h.hexdigest()[:16])
    return _SOURCE_VERSION[0]


# ---------------------------------------------------------------------------
# Artifact store
# ---------------------------------------------------------------------------

def default_cache_dir() -> Path:
    """Row-store directory (``REPRO_ROW_CACHE_DIR`` or the XDG default)."""
    return _env.row_cache_dir()


class RowMemo:
    """Store of finished node payloads: one JSON file per key."""

    def __init__(self, directory: "str | Path"):
        self.directory = Path(directory)

    def get(self, key: str) -> "dict | None":
        try:
            payload = json.loads((self.directory / f"{key}.json").read_text())
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or "metrics" not in payload:
            return None  # corrupt entry: treat as a miss
        return {"metrics": payload["metrics"],
                "seconds": payload.get("seconds", 0.0)}

    def put(self, key: str, payload: dict) -> None:
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            # Stamp the source digest the entry was written under so
            # prune() can tell live entries from leftovers of old
            # checkouts without recomputing any keys.
            disk = dict(payload)
            disk.setdefault("tree", source_version())
            tmp = self.directory / f".{key}.{os.getpid()}.tmp"
            tmp.write_text(json.dumps(disk, sort_keys=True))
            os.replace(tmp, self.directory / f"{key}.json")
        except OSError:
            pass  # a read-only cache dir degrades to no store

    def prune(self, keep_digest: "str | None" = None,
              keep_keys=()) -> tuple:
        """Sweep entries from dead source trees; returns (kept, removed).

        An entry survives if its stamped ``tree`` equals ``keep_digest``
        (default: the current :func:`source_version`) or its key is in
        ``keep_keys`` — the escape hatch for the DAG artifact store,
        whose scoped digests can outlive a whole-tree change (the
        ``cache-prune`` CLI passes the compiled graph's digests).
        Unstamped or unreadable entries are removed: they predate the
        stamp and cannot be keyed by any current run.
        """
        if keep_digest is None:
            keep_digest = source_version()
        keep_keys = frozenset(keep_keys)
        kept = removed = 0
        try:
            entries = sorted(self.directory.glob("*.json"))
        except OSError:
            return (0, 0)
        for path in entries:
            if path.stem in keep_keys:
                kept += 1
                continue
            try:
                payload = json.loads(path.read_text())
                tree = (payload.get("tree")
                        if isinstance(payload, dict) else None)
            except (OSError, ValueError):
                tree = None
            if tree == keep_digest:
                kept += 1
                continue
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return (kept, removed)


# ---------------------------------------------------------------------------
# Node execution (shared by the serial path and the workers)
# ---------------------------------------------------------------------------

def _execute_row(runner, kwargs: dict, seed: int) -> tuple:
    """Run one node; exceptions become ``error`` cells, never escape."""
    start = time.perf_counter()
    try:
        metrics = runner(seed, **kwargs)
    except MemoryError:  # the tables' literal "-" case
        metrics = {"error": "-"}
    except Exception as exc:  # noqa: BLE001 - isolate row failures
        metrics = {"error": f"{type(exc).__name__}: {exc}"}
    return metrics, time.perf_counter() - start


def _worker_main(conn) -> None:
    """Worker loop: receive ``(name, runner, kwargs, seed, trace)``, reply
    ``(name, metrics, seconds, trace payload)``.

    When ``trace`` is set the node runs under a fresh worker-side tracer;
    its exported spans and counters ride back with the metrics and the
    parent re-roots them into the run trace (:meth:`Tracer.absorb`).
    """
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        name, runner, kwargs, seed, trace = task
        payload = None
        if trace:
            obs.enable(f"node:{name}")
            with obs.span(f"node:{name}"):
                metrics, seconds = _execute_row(runner, kwargs, seed)
            payload = obs.disable().export()
        else:
            metrics, seconds = _execute_row(runner, kwargs, seed)
        try:
            conn.send((name, metrics, seconds, payload))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """One pool slot: a spawn process plus its duplex pipe."""

    def __init__(self, ctx):
        self.conn, child = ctx.Pipe(duplex=True)
        self.process = ctx.Process(target=_worker_main, args=(child,),
                                   daemon=True)
        self.process.start()
        child.close()
        self.task = None  # the task tuple currently running
        self.deadline = None

    def assign(self, task: tuple, timeout: "float | None") -> None:
        self.conn.send(task)
        self.task = task
        self.deadline = time.monotonic() + timeout if timeout else None

    def stop(self, force: bool = False) -> None:
        if not force:
            try:
                self.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        self.conn.close()


def _enc_cache_dir_for(cache_dir: Path) -> Path:
    """Shared encode-cache disk tier next to the row store."""
    return Path(cache_dir).parent / "enc"


# ---------------------------------------------------------------------------
# Knob resolution (explicit argument, else environment)
# ---------------------------------------------------------------------------

def _resolve_jobs(jobs: "int | None") -> int:
    if jobs is not None:
        return max(1, int(jobs))
    return _env.jobs()


def _resolve_use_cache(use_cache: "bool | None") -> bool:
    if use_cache is not None:
        return bool(use_cache)
    return _env.row_cache_enabled()


def _resolve_timeout(timeout: "float | None") -> "float | None":
    if timeout is not None:
        return float(timeout) if timeout > 0 else None
    return _env.row_timeout()
