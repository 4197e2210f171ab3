"""Workload ``serve_http``: closed-loop ``/classify`` traffic over HTTP.

The server (``http_server.py``) runs in its own process with its two
replica processes; this process is the load generator and the checker.
Load: a closed loop of :data:`CONNECTIONS` keep-alive connections, one
thread each, zero think time. Every request carries 4 distinct agnews
documents of 48 tokens, made distinct so that no encode cache can hit
(see :class:`RequestMaker`). Set-up (server start up to and including warm-up requests) is
repeated :data:`SETUP_REPEATS` times and reported as the median; the
last server started is the one measured.

After the measured phase the fitted model is loaded from the registry
into this process and its own ``predict`` is run on every request's
documents; each response must be a 200 whose labels equal it.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

from harness import (
    BENCH_DIR,
    Outcome,
    cpu_seconds,
    fresh_stores,
    peak_rss_mb,
    percentile,
)
from http_server import REPLICAS, SCALE

DOC_TOKENS = 48
DOCS_PER_REQUEST = 4
CONNECTIONS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
WARMUP_REQUESTS = 8  # per connection, part of set-up
START_TIMEOUT_S = 150


class RequestMaker:
    """Request documents drawn from the served corpus.

    Document ``k`` leads with two training-vocabulary words chosen by
    ``k`` and continues with corpus text up to DOC_TOKENS tokens, so
    every document differs from every other in the encoder's id space
    and no encode cache can hit. (A lead word outside the vocabulary
    would not do: it encodes as ``[UNK]``.)
    """

    def __init__(self, seed: int):
        from repro.datasets import load_profile

        bundle = load_profile("agnews", seed=seed, scale=SCALE)
        self.sources = (bundle.test_corpus.token_lists()
                        + bundle.train_corpus.token_lists())
        self.words = sorted({t for doc in bundle.train_corpus.token_lists()
                             for t in doc})

    def docs(self, index: int) -> list:
        """The documents of request ``index``."""
        n = len(self.words)
        docs = []
        for j in range(DOCS_PER_REQUEST):
            k = index * DOCS_PER_REQUEST + j
            doc = [self.words[k % n], self.words[(k // n) % n]]
            step = 0
            while len(doc) < DOC_TOKENS:
                doc += self.sources[(k + step) % len(self.sources)]
                step += 1
            docs.append(doc[:DOC_TOKENS])
        return docs


def check_responses(samples: list, expected: dict) -> list:
    """Problems with the responses (empty list = correct).

    ``samples`` holds ``(index, latency_s, status, body)``; ``expected``
    maps a request index to the labels the fitted model predicts.
    """
    problems = []
    for index, _, status, body in samples:
        if status != 200:
            problems.append(f"request {index}: status {status}: {body!r}")
            continue
        labels = json.loads(body).get("labels")
        want = expected[index]
        if not isinstance(labels, list) or len(labels) != len(want):
            problems.append(f"request {index}: {labels!r} is not one label "
                            f"per document")
        elif labels != want:
            problems.append(f"request {index}: labels {labels} != fitted "
                            f"model's predict {want}")
    return problems


class Server:
    """One ``http_server.py`` process over fresh stores."""

    def __init__(self, seed: int, trace: bool, run_dir: Path):
        self.stores = fresh_stores(run_dir, "serve")
        env = {**os.environ, **self.stores}
        # Both replicas warm up on the same document at the same moment,
        # and with an encode-cache disk tier they race on one temporary
        # file name (see CHANGES.md). The server keeps the serving
        # default instead: a memory-only encode cache.
        del env["REPRO_ENC_CACHE_DIR"]
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "http_server.py"),
             "--seed", str(seed), "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env)
        ready = json.loads(self._line(START_TIMEOUT_S))
        self.host, self.port = ready["host"], ready["port"]
        self.model = ready["model"]
        self.pids = [self.proc.pid] + ready["pids"]

    def _line(self, timeout: float) -> str:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            self.kill()
            raise RuntimeError("benchmark server exited or hung "
                               f"(exit code {self.proc.returncode})")
        return line

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(pid) for pid in self.pids)

    def peak_rss_mb(self) -> float:
        return max(peak_rss_mb(pid) for pid in self.pids)

    def stop(self) -> dict:
        """Ask the server to shut down; returns its last JSON line."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            final = json.loads(self._line(60))
            self.proc.stdin.close()
            self.proc.wait(30)
        finally:
            self.kill()
        return final

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _load(server: Server, maker: RequestMaker, first: int, *,
          seconds: "float | None" = None,
          per_connection: "int | None" = None) -> list:
    """Closed loop on CONNECTIONS keep-alive connections, for ``seconds``
    or ``per_connection`` requests each; request indices start at
    ``first``. Returns ``(index, latency_s, status, body)`` per request,
    in index order."""
    deadline = time.perf_counter() + (seconds or 0.0)
    results: "list[list]" = [[] for _ in range(CONNECTIONS)]

    def more(sent: int) -> bool:
        if per_connection is not None:
            return sent < per_connection
        return time.perf_counter() < deadline

    def client(slot: int) -> None:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=60)
        index = first + slot
        try:
            while more(len(results[slot])):
                body = json.dumps({"docs": maker.docs(index)})
                start = time.perf_counter()
                try:
                    conn.request("POST", "/classify", body,
                                 {"Content-Type": "application/json"})
                    response = conn.getresponse()
                    payload = response.read()
                    status = response.status
                except (OSError, http.client.HTTPException) as exc:
                    payload, status = repr(exc).encode(), None
                    conn.close()
                results[slot].append((index, time.perf_counter() - start,
                                      status, payload))
                index += CONNECTIONS
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(slot,))
               for slot in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return sorted((s for r in results for s in r), key=lambda s: s[0])


def _start(seed: int, trace: bool, run_dir: Path, maker: RequestMaker):
    """Start a server and warm it up; returns ``(server, setup_s)``."""
    start = time.perf_counter()
    server = Server(seed, trace, run_dir)
    try:
        warm = _load(server, maker, -WARMUP_REQUESTS * CONNECTIONS,
                     per_connection=WARMUP_REQUESTS)
        bad = [s for s in warm if s[2] != 200]
        if bad:
            raise RuntimeError(f"warm-up request failed: {bad[0]}")
    except BaseException:
        server.kill()
        raise
    return server, time.perf_counter() - start


def _measure(server: Server, maker: RequestMaker, seconds: float,
             problems: list) -> dict:
    """Measured phase, shutdown and checks of one server."""
    try:
        cpu0 = server.cpu_seconds()
        start = time.perf_counter()
        samples = _load(server, maker, 0, seconds=seconds)
        wall = time.perf_counter() - start
        cpu = server.cpu_seconds() - cpu0
        rss = server.peak_rss_mb()
        final = server.stop()
    except BaseException:
        server.kill()
        raise
    from repro.serve import ModelRegistry

    servable = ModelRegistry(server.stores["REPRO_MODEL_DIR"]).load(
        server.model)
    expected, predict_s = {}, 0.0
    for index, *_ in samples:
        docs = maker.docs(index)
        t0 = time.perf_counter()
        expected[index] = list(servable.predict(docs))
        predict_s += time.perf_counter() - t0
    problems.extend(check_responses(samples, expected))
    ok = sum(1 for s in samples if s[2] == 200)
    return {"samples": samples, "wall": wall, "cpu": cpu, "rss": rss,
            "final": final, "ok": ok, "predict_ms":
            1000.0 * predict_s / len(samples) if samples else 0.0}


def run(seed: int, seconds: float, trace: bool, run_dir: Path,
        toy: bool, baseline: bool = False) -> Outcome:
    maker = RequestMaker(seed)
    problems: list = []
    lines = [f"[serve_http] {CONNECTIONS} keep-alive connections, closed "
             f"loop; {DOCS_PER_REQUEST} docs x {DOC_TOKENS} tokens per "
             f"request; {REPLICAS}-replica pool"]
    if not trace:
        setups = []
        for _ in range((1 if toy else SETUP_REPEATS) - 1):
            server, setup_s = _start(seed, False, run_dir, maker)
            server.stop()
            setups.append(setup_s)
        server, setup_s = _start(seed, False, run_dir, maker)
        setups.append(setup_s)
        m = _measure(server, maker, seconds, problems)
        latencies = [s[1] for s in m["samples"]]
        lines.append(f"[serve_http] {len(latencies)} requests in "
                     f"{m['wall']:.2f}s, p99 "
                     f"{percentile(latencies, 99) * 1000.0:.1f} ms; set-up "
                     "samples " + ", ".join(f"{s:.2f}s" for s in setups))
        return Outcome(
            attempted=len(latencies), failed=len(latencies) - m["ok"],
            problems=problems, lines=lines,
            metrics={
                "setup_s": median(setups),
                "units_per_s": m["ok"] / m["wall"],
                "p50_ms": percentile(latencies, 50) * 1000.0,
                "cpu_ms_per_unit": 1000.0 * m["cpu"] / max(1, m["ok"]),
                "peak_rss_mb": m["rss"],
            })

    plain = None
    if baseline:
        server, _ = _start(seed, False, run_dir, maker)
        plain = _measure(server, maker, seconds, problems)
    server, _ = _start(seed, True, run_dir, maker)
    m = _measure(server, maker, seconds, problems)
    timers, trace_totals = m["final"]["timers"], m["final"]["trace"]
    n = len(m["samples"])
    warm = WARMUP_REQUESTS * CONNECTIONS
    rtt_ms = 1000.0 * sum(s[1] for s in m["samples"]) / n
    classify_n, classify_s = timers["pool.classify"]
    submit_n, submit_s = timers["pool.submit"]
    classify_ms = 1000.0 * classify_s / classify_n
    submit_ms = 1000.0 * submit_s / submit_n
    batches = trace_totals["batches"]
    hits, misses = trace_totals["enc_hits"], trace_totals["enc_misses"]
    metrics = {
        "serve.http.self_ms": rtt_ms - classify_ms,
        "serve.pool.classify_ms": classify_ms,
        "serve.pool.submit_ms": submit_ms,
        "serve.engine.batch_docs":
            trace_totals["batched_docs"] / batches if batches else 0.0,
        "serve.engine.predict_ms":
            1000.0 * trace_totals["predict_s"] / trace_totals["predict_n"]
            if trace_totals["predict_n"] else 0.0,
        "serve.artifacts.predict_ms": m["predict_ms"],
        "plm.engine.padded_tokens_per_unit":
            trace_totals["padded_tokens"] / (n + warm),
        "plm.encode_s": trace_totals["encode_s"],
        "core.enc_cache.hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
    }
    p50 = percentile([s[1] for s in m["samples"]], 50) * 1000.0
    lines += [
        f"[serve_http] bases: {n} measured + {warm} warm-up requests "
        f"(the replica counters include warm-up); {classify_n} pool "
        f"classify calls, {batches:g} replica batches, "
        f"{trace_totals['predict_n']} serve:predict spans; enc_cache hits "
        f"{hits:g} misses {misses:g}",
        f"[serve_http] layer sum per request: http self "
        f"{metrics['serve.http.self_ms']:.2f} + pool submit {submit_ms:.2f}"
        f" + pool wait {classify_ms - submit_ms:.2f} = mean round trip "
        f"{rtt_ms:.2f} ms vs end-to-end p50 {p50:.2f} ms; replica predict "
        f"{metrics['serve.engine.predict_ms']:.2f} ms per batch; bare "
        f"predict {m['predict_ms']:.2f} ms per request",
    ]
    phases = [m] + ([plain] if plain else [])
    attempted = sum(len(p["samples"]) for p in phases)
    return Outcome(attempted=attempted,
                   failed=attempted - sum(p["ok"] for p in phases),
                   problems=problems, metrics=metrics, lines=lines,
                   untraced_ups=plain["ok"] / plain["wall"] if plain else None,
                   traced_ups=m["ok"] / m["wall"])
