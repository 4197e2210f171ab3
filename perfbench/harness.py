"""Shared pieces of the benchmark: run isolation, layer timers, process
accounting, percentiles and the metric catalogue.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Scratch space of every run (its fresh stores) and the run log that
#: traced runs compare against. Listed in the root .gitignore.
WORK_ROOT = ROOT / ".perfbench"
RUN_LOG = WORK_ROOT / "runs.jsonl"

#: The program's persistent stores. Every run (and every set-up
#: repetition inside a run) points all four at fresh directories, so a
#: regeneration never finds a warm row memo or encode cache.
STORE_VARS = {
    "REPRO_ROW_CACHE_DIR": "rows",
    "REPRO_ENC_CACHE_DIR": "enc",
    "REPRO_MODEL_DIR": "models",
    "REPRO_CORPUS_DIR": "corpus",
}


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    problems: list
    metrics: dict
    lines: list = field(default_factory=list)
    #: Per-layer counts compared against earlier traced runs.
    counts: dict = field(default_factory=dict)
    #: units_per_s of the traced run's untraced and traced phases.
    untraced_ups: "float | None" = None
    traced_ups: "float | None" = None


def metric_catalogue() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def fresh_stores(parent: Path, label: str) -> dict:
    """Create fresh store directories; returns the env mapping for them."""
    base = Path(tempfile.mkdtemp(prefix=f"{label}-", dir=parent))
    mapping = {}
    for var, sub in STORE_VARS.items():
        (base / sub).mkdir()
        mapping[var] = str(base / sub)
    mapping["TMPDIR"] = str(base)
    return mapping


def use_stores(mapping: dict) -> None:
    """Point this process (and children it spawns later) at ``mapping``."""
    os.environ.update(mapping)
    tempfile.tempdir = None  # re-read TMPDIR on next use


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- process accounting (Linux /proc, read-only) ---------------------------

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of ``pid`` so far (all its threads)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """High-water resident set (VmHWM) of ``pid`` in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def environment_line() -> str:
    """Core count and inherited thread settings, printed by every run."""
    affinity = len(os.sched_getaffinity(0))
    knobs = " ".join(f"{name}={os.environ.get(name, '<unset>')}"
                     for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"[env] cores={os.cpu_count()} usable={affinity} {knobs}"


# -- layer timers -----------------------------------------------------------

class LayerTimers:
    """Times calls into public functions of the program from outside.

    :meth:`wrap` replaces ``owner.attr`` (a class or an instance) with a
    wrapper that adds each call's wall time, and optionally a document
    count taken from its arguments, to a named slot. :meth:`restore`
    puts every original back. Calls may come from several threads.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._slots: "dict[str, list]" = {}
        self._patched: list = []

    def wrap(self, owner, attr: str, name: str, docs=None) -> None:
        original = getattr(owner, attr)
        had_own = attr in vars(owner)
        own_value = vars(owner).get(attr)
        slot = self._slots.setdefault(name, [0, 0.0, 0])
        lock = self._lock

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                n = docs(args) if docs is not None else 0
                with lock:
                    slot[0] += 1
                    slot[1] += elapsed
                    slot[2] += n

        setattr(owner, attr, timed)
        self._patched.append((owner, attr, had_own, own_value))

    def restore(self) -> None:
        for owner, attr, had_own, own_value in reversed(self._patched):
            if had_own:
                setattr(owner, attr, own_value)
            else:
                delattr(owner, attr)
        self._patched = []

    def calls(self, name: str) -> int:
        return self._slots.get(name, [0, 0.0, 0])[0]

    def seconds(self, name: str) -> float:
        return self._slots.get(name, [0, 0.0, 0])[1]

    def docs(self, name: str) -> int:
        return self._slots.get(name, [0, 0.0, 0])[2]

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return 1000.0 * self.seconds(name) / calls if calls else 0.0


def span_totals(tracer, name: str = None, prefix: str = None) -> tuple:
    """``(count, seconds)`` of the tracer's spans named ``name`` (or
    starting with ``prefix``), absorbed worker spans included."""
    n, total = 0, 0.0
    for event in tracer.events():
        if event.get("type") != "span":
            continue
        span = event["name"]
        if (name is not None and span == name) or (
                prefix is not None and span.startswith(prefix)):
            n += 1
            total += event["dur"]
    return n, total


# -- run log ------------------------------------------------------------------

def read_log() -> list:
    if not RUN_LOG.exists():
        return []
    records = []
    for line in RUN_LOG.read_text().splitlines():
        try:
            records.append(json.loads(line))
        except ValueError:
            continue
    return records


def append_log(record: dict) -> None:
    WORK_ROOT.mkdir(exist_ok=True)
    with open(RUN_LOG, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
