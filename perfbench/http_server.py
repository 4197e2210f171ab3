"""The ``serve_http`` workload's system under test, in its own process.

    python3 perfbench/http_server.py --seed N --trace 0|1

Set-up: the agnews corpus at scale 0.4, a dim-32 PLM pre-trained on it,
an X-Class fit, a publish to the registry under ``REPRO_MODEL_DIR``, a
2-replica :class:`~repro.serve.pool.ReplicaPool` and a
:class:`~repro.serve.http.PoolServer` on an ephemeral port. It then
prints one JSON line (port, model name, pids of the server and its
replicas) and serves until a ``stop`` line arrives on stdin or stdin
closes. On the way out it closes the HTTP server and the pool and
prints a last JSON line.

With ``--trace 1`` the :mod:`repro.obs` tracer records the pool and its
replicas, ``ReplicaPool.classify`` and ``ReplicaPool.submit`` are timed
from outside, and the last line carries those totals.
"""

from __future__ import annotations

import argparse
import json
import sys

from harness import LayerTimers, span_totals

SCALE = 0.4
REPLICAS = 2
MODEL = "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    from repro import obs
    from repro.datasets import load_profile
    from repro.methods import XClass
    from repro.plm.config import PLMConfig
    from repro.plm.provider import get_pretrained_lm
    from repro.serve import ModelRegistry, PoolConfig, PoolServer, ReplicaPool

    bundle = load_profile("agnews", seed=args.seed, scale=SCALE)
    config = PLMConfig(dim=32, n_layers=2, n_heads=2, ff_hidden=64,
                       mlm_steps=150, pretrain_docs=700)
    plm = get_pretrained_lm(target_corpus=bundle.train_corpus,
                            config=config, seed=args.seed)
    model = XClass(plm=plm, seed=args.seed)
    model.fit(bundle.train_corpus, bundle.label_names())
    registry = ModelRegistry()
    registry.publish(MODEL, model, provenance={"profile": "agnews",
                                               "seed": args.seed})

    timers = None
    if args.trace:
        obs.enable("perfbench-serve")
    pool = ReplicaPool.from_registry(
        registry, MODEL, config=PoolConfig(replicas=REPLICAS, warmup=True))
    server = None
    try:
        if args.trace:
            timers = LayerTimers()
            timers.wrap(pool, "classify", "pool.classify")
            timers.wrap(pool, "submit", "pool.submit")
        server = PoolServer(pool).start()
        host, port = server.address
        pids = [p["pid"] for p in pool.stats()["per_replica"]]
        print(json.dumps({"host": host, "port": port, "model": MODEL,
                          "pids": pids}), flush=True)
        for line in sys.stdin:
            if line.strip() == "stop":
                break
    finally:
        if server is not None:
            server.close()
        pool.close()
    final = {"closed": True}
    if args.trace:
        tracer = obs.disable()
        counters = tracer.counters
        predict_n, predict_s = span_totals(tracer, name="serve:predict")
        _, encode_s = span_totals(tracer, name="encode:batch")
        final["timers"] = {name: [timers.calls(name), timers.seconds(name)]
                           for name in ("pool.classify", "pool.submit")}
        final["trace"] = {
            "predict_n": predict_n, "predict_s": predict_s,
            "encode_s": encode_s,
            "batched_docs": counters.get("serve.batched_docs", 0),
            "batches": counters.get("serve.batches", 0),
            "padded_tokens": counters.get("plm.padded_tokens", 0),
            "enc_hits": counters.get("enc_cache.hits", 0),
            "enc_misses": counters.get("enc_cache.misses", 0),
        }
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
