"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_http|stream|regen \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src``. ``--trace 0`` measures the end-to-end metrics with tracing
off; ``--trace 1`` runs a traced phase and prints the per-layer
metrics, with the tracing overhead against the untraced runs logged in
``.perfbench/runs.jsonl`` (when there are none, it measures an untraced
phase first). Either way the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--toy`` shrinks the workload for the checker self-test.

Every run points the program's stores (row memo, encode cache, model
registry, corpus store) at fresh directories under ``.perfbench/`` and
removes them afterwards. It leaves the BLAS and OpenMP thread settings
as inherited and prints them.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path
from statistics import median

from harness import (
    ROOT,
    WORK_ROOT,
    append_log,
    environment_line,
    metric_catalogue,
    read_log,
)

WORKLOADS = ("serve_http", "stream", "regen")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy-size inputs (checker self-test)")
    return parser.parse_args(argv)


def _repeat_note(workload: str, seed: int, counts: dict, log: list) -> str:
    """Whether this traced run's counts equal the previous traced run's."""
    earlier = [r for r in log if r.get("workload") == workload
               and r.get("trace") and r.get("counts")
               and (workload != "stream" or r.get("seed") == seed)]
    if not earlier:
        return "no earlier traced run in this checkout to compare with"
    previous = earlier[-1]["counts"]
    same = previous == counts
    return (f"{'repeat exactly' if same else 'DIFFER from'} the previous "
            f"traced run ({previous})")


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its servers and removes its stores.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"no program source at {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    os.environ.pop("REPRO_TRACE", None)
    catalogue = metric_catalogue()
    print(environment_line(), flush=True)

    log = read_log()
    plain = [] if args.toy else [
        r["metrics"]["units_per_s"] for r in log
        if r["workload"] == args.workload and not r["trace"]
        and r["seconds"] == args.seconds]
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    os.environ["TMPDIR"] = run_dir
    tempfile.tempdir = None
    try:
        workload = importlib.import_module(args.workload)
        # A traced run measures its own untraced phase only when the
        # log holds no untraced run to compare with.
        outcome = workload.run(args.seed, args.seconds, bool(args.trace),
                               Path(run_dir), args.toy,
                               baseline=bool(args.trace) and not plain)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in outcome.lines:
        print(line)
    for problem in outcome.problems[:20]:
        print(f"[check] FAILED: {problem}")
    if len(outcome.problems) > 20:
        print(f"[check] ... {len(outcome.problems) - 20} more")

    kind = "per_layer" if args.trace else "end_to_end"
    values = dict(outcome.metrics)
    if args.trace:
        if outcome.untraced_ups is not None:
            plain.append(outcome.untraced_ups)
        base = median(plain)
        values["obs.trace_overhead_pct"] = 100.0 * (
            base / outcome.traced_ups - 1.0)
        print(f"[trace] units_per_s traced {outcome.traced_ups:.4g} vs "
              f"untraced median {base:.4g} over {len(plain)} run(s): "
              f"overhead {values['obs.trace_overhead_pct']:.1f}%")
        if outcome.counts:
            print(f"[trace] counts {outcome.counts} "
                  f"{_repeat_note(args.workload, args.seed, outcome.counts, log)}")
        unreached = sorted(set(catalogue[kind]) - set(values))
        if unreached:
            print(f"[trace] not reached by {args.workload} (reported as "
                  f"0): {', '.join(unreached)}")
        for name in unreached:
            values[name] = 0.0
    missing = set(catalogue[kind]) - set(values)
    if missing:
        raise RuntimeError(f"workload did not measure {sorted(missing)}")
    for name in catalogue[kind]:
        print(f"[metric] {name} = {values[name]:.6g} "
              f"{catalogue[kind][name]}")
    if not args.toy:
        append_log({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace,
                    "metrics": values, "counts": outcome.counts})
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name],
                           "unit": catalogue[kind][name]}
                    for name in catalogue[kind]},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
