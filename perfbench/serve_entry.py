"""Query-service process of the serve-mixed workload.

Loads a ``.rgr`` graph image, publishes it as the first snapshot, and
serves it with ``QueryEngine`` + ``TrussServer`` on an ephemeral
localhost port. Prints ``LISTENING <host> <port> <setup_s>`` once the
listener is up, serves until a ``shutdown`` request, then writes a JSON
report (peak RSS; with ``--trace 1`` also the per-layer metrics of every
request).

``setup_s`` is the CPU time the process took to start listening,
calibrated by profiling its start-up (``hostspeed.py``). Untraced, every
reply also carries a ``host_speed`` sample of the reference kernel, run on
the serving thread after the request.

Run: ``python3 perfbench/serve_entry.py --graph G.rgr --report R.json``
(``run.py --workload serve-mixed`` starts it itself).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main() -> int:
    speed = HostSpeed()
    startup = contextlib.ExitStack()
    startup.enter_context(speed.profiling())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graph", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where --trace 1 writes its spans")
    args = parser.parse_args()

    from repro.persistence.graph_file import read_rgr
    from repro.serve.engine import QueryEngine
    from repro.serve.server import run_server
    from repro.serve.snapshot import SnapshotManager

    manager = SnapshotManager.initial(read_rgr(args.graph))
    tracer = None
    if args.trace:
        import layers
        from layertrace import LayerTracer

        tracer = LayerTracer()
        layers.install(tracer)
    engine = QueryEngine(manager)
    execute = engine.execute
    if tracer is None:

        def sampled_execute(request):
            # A copy: the result cache may hold the envelope itself.
            envelope = dict(execute(request))
            envelope["host_speed"] = speed.sample()
            return envelope

        engine.execute = sampled_execute
    else:

        def traced_execute(request):
            t0 = time.perf_counter()
            envelope = tracer.request(request.get("id"), execute, request)
            envelope["trace_exec_ms"] = (time.perf_counter() - t0) * 1000.0
            return envelope

        engine.execute = traced_execute

    def announce(address):
        startup.close()
        # Process CPU time since the interpreter started, less profiling.
        setup_s = (time.process_time() - speed.spent) / speed.mean_slowdown()
        print(f"LISTENING {address[0]} {address[1]} {setup_s!r}", flush=True)

    run_server(engine, host="127.0.0.1", port=0, on_started=announce)
    report = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        import layers

        cache = engine.cache
        lookups = cache.hits + cache.misses
        report["layers"] = layers.report(tracer, {
            "serve.cache.hit_ratio": cache.hits / lookups if lookups else 0.0,
        })
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.report, "w", encoding="utf-8") as out:
        json.dump(report, out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
