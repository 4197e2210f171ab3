"""Remake the ``regen`` workload's reference tables.

    python3 perfbench/make_reference.py [TABLE_SEED ...]

Runs the LOTClass table serially in this process (``jobs=1``) into
fresh stores, once per table seed (default: every seed in
``regen.TABLE_SEEDS``), and writes ``reference/lotclass_seed<N>.json``.
The benchmark's parallel regenerations are checked against these files.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from harness import ROOT, WORK_ROOT, fresh_stores, use_stores

sys.path.insert(0, str(ROOT / "src"))

import regen  # noqa: E402  (needs src on the path)


def main(argv: list) -> int:
    seeds = [int(a) for a in argv] or list(range(regen.TABLE_SEEDS))
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix="reference-", dir=WORK_ROOT)
    try:
        for seed in seeds:
            start = time.perf_counter()
            use_stores(fresh_stores(Path(run_dir), f"seed{seed}"))
            out = regen.regenerate(seed, 1)
            rows, statuses = out["rows"], out["statuses"]
            bad = [n for n, s in statuses.items() if s != "executed"]
            errors = [r for r in rows if "error" in r]
            if bad or errors or len(statuses) != out["nodes"]:
                print(f"table seed {seed}: serial run failed: {bad} {errors}",
                      file=sys.stderr)
                return 1
            payload = {
                "table": "lotclass",
                "table_seed": seed,
                "jobs": 1,
                "command": "python3 perfbench/make_reference.py "
                           f"{seed}",
                "rows": [{"Dataset": r["Dataset"], "Method": r["Method"],
                          "Accuracy": r["Accuracy"]} for r in rows],
            }
            regen.REFERENCE_DIR.mkdir(exist_ok=True)
            regen.reference_path(seed).write_text(
                json.dumps(payload, indent=1, sort_keys=True) + "\n")
            print(f"table seed {seed}: {len(rows)} rows in "
                  f"{time.perf_counter() - start:.1f}s -> "
                  f"{regen.reference_path(seed).relative_to(ROOT)}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
