"""Benchmark entry point: ``python3 perfbench/run.py --workload NAME --seed N``.

Runs one workload of ``BENCHMARK.json`` against the ``repro`` sources of
the checkout it sits in and prints, as the last line of standard output,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
traced rerun reports the per-layer ones. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of the runs (WAL directories, graph images, spans).
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("static-spill", "update-trickle", "update-burst", "serve-mixed")

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p99": "ms",
    "op_charged_ios": "count",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace):
    """Run one workload; returns its ``Outcome`` and the metric units."""
    import layers
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.workload == "static-spill":
            out = workloads.static_spill(args.seed, args.seconds, bool(args.trace), workdir)
        elif args.workload == "serve-mixed":
            out = workloads.serve_mixed(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            out = workloads.update(args.seed, args.seconds, bool(args.trace), workdir,
                                   burst=args.workload == "update-burst")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    units = layers.PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    return out, units


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    out, units = run(args)
    values = {name: float(out.metrics.get(name, 0.0)) for name in units}
    for name, value in values.items():
        if not math.isfinite(value):
            out.fail(f"metric {name} is {value}")
            values[name] = 0.0
    for note in out.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": out.correct and out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
