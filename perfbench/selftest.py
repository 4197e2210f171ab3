"""Checker self-test.

    python3 perfbench/selftest.py

1. Runs the toy-size mode of every workload to its end, on two seeds,
   through ``run.py`` (each must print ``"correct": true``).
2. Feeds every correctness check a good output and then deliberately
   corrupted copies of it (a flipped label, a dropped prediction, a
   changed table cell, ...); each corrupted copy must be reported.

Exits 0 only if every toy run passed and every corruption was caught.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from harness import BENCH_DIR, ROOT, WORK_ROOT, fresh_stores, use_stores

SEEDS = (0, 1)


def toy_runs() -> list:
    failures = []
    for workload in ("serve_http", "stream", "regen"):
        for seed in SEEDS:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", "2", "--toy"],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            ok = proc.returncode == 0 and result.get("correct") is True
            print(f"toy {workload} seed {seed}: "
                  f"{'ok' if ok else 'FAILED'} "
                  f"(attempted {result.get('attempted')})")
            if not ok:
                failures.append(f"toy {workload} seed {seed}: "
                                f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return failures


def expect(name: str, problems: list, caught: bool, failures: list) -> None:
    ok = bool(problems) == caught
    verdict = ("caught" if problems else "passes") if ok else "MISSED"
    print(f"  {name}: {verdict}"
          + (f" ({problems[0][:90]})" if problems else ""))
    if not ok:
        failures.append(f"{name}: expected "
                        f"{'a problem' if caught else 'no problem'}, got "
                        f"{problems}")


def serve_http_cases(failures: list) -> None:
    import serve_http

    labels = ["business", "politics", "sports", "technology"]
    expected = {0: labels, 1: labels[::-1]}

    def samples(bodies, status=200):
        return [(i, 0.01, status, json.dumps({"labels": b}).encode())
                for i, b in enumerate(bodies)]

    print("serve_http.check_responses")
    check = serve_http.check_responses
    expect("good responses", check(samples([labels, labels[::-1]]),
                                   expected), False, failures)
    flipped = [labels[:3] + ["business"], labels[::-1]]
    expect("flipped label", check(samples(flipped), expected), True,
           failures)
    expect("dropped prediction",
           check(samples([labels[:3], labels[::-1]]), expected), True,
           failures)
    expect("status 503", check(samples([labels, labels], 503), expected),
           True, failures)


def stream_cases(run_dir: Path, failures: list) -> None:
    import stream
    from repro.pipeline import Pipeline

    stores = fresh_stores(run_dir, "selftest-stream")
    use_stores(stores)
    pipe = Pipeline(stream.pipeline_config(0, True, stores))
    pipe.run()
    good = stream.outputs(pipe)
    print("stream checks (toy stream, "
          f"{len(good['records'])} predictions)")
    expect("good stream", stream.check_outputs(good, 0), False, failures)

    def corrupt(name, change):
        out = copy.deepcopy({k: v for k, v in good.items() if k != "load"})
        out["load"] = good["load"]
        change(out)
        expect(name, stream.check_outputs(out, 0), True, failures)

    def flip(out):
        for batch in stream.classify_batches(out["records"]):
            record = out["records"][batch[0]]
            record["label"] = "sports" if record["label"] != "sports" \
                else "business"

    def dup(out):
        out["stored"][1]["hash"] = out["stored"][0]["hash"]

    def sort_topk(out):
        out["records"][5]["topk"].reverse()
        out["records"][5]["confidence"] = out["records"][5]["topk"][0][1]

    corrupt("flipped label in every classify batch", flip)
    corrupt("dropped prediction", lambda o: o["records"].pop(7))
    corrupt("confidence is not the top score",
            lambda o: o["records"][3].update(confidence=0.0))
    corrupt("top-k not sorted", sort_topk)
    corrupt("two stored documents share content", dup)
    corrupt("dropped document never stored",
            lambda o: o["dropped"].append("0" * 32))
    corrupt("two drift re-fits", lambda o: o.update(versions=3))


def regen_cases(failures: list) -> None:
    import regen

    reference = regen.load_reference(0)
    statuses = {f"n{i}": "executed" for i in range(10)}
    print("regen.check_table (reference table of seed 0 as output)")
    check = regen.check_table
    good = copy.deepcopy(reference)
    expect("good table", check(good, statuses, 10, reference), False,
           failures)
    changed = copy.deepcopy(reference)
    changed[4]["Accuracy"] += 0.05
    expect("changed table cell", check(changed, statuses, 10, reference),
           True, failures)
    errored = copy.deepcopy(reference)
    errored[2]["error"] = "RuntimeError: boom"
    expect("error cell", check(errored, statuses, 10, reference), True,
           failures)
    expect("missing row", check(reference[:-1], statuses, 10, reference),
           True, failures)
    warm = dict(statuses, n3="reused")
    expect("node not executed (warm store)",
           check(good, warm, 10, reference), True, failures)
    shape = copy.deepcopy(reference)
    for row in shape:
        if row["Method"] == "Ours":
            row["Accuracy"] = 0.5
    expect("paper shape broken",
           check(shape, statuses, 10, shape), True, failures)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    failures = toy_runs()
    WORK_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK_ROOT))
    try:
        serve_http_cases(failures)
        stream_cases(run_dir, failures)
        regen_cases(failures)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    for failure in failures:
        print(f"FAILED: {failure}")
    print("self-test", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
