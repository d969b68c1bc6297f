"""The benchmark's own checks: exact counts repeat, tracing is free of
charge, layer self times add up, host-speed profiling charges no timed
operation, and ``run.py`` refuses to run without sources.

Run from the repository root: ``python3 -m pytest perfbench -q``
(about a minute; the repository's tier-1 suite does not collect it).
Static and serve runs use smaller stand-ins than the real workloads: the
properties checked are those of the code paths, not of the input size.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from layertrace import LayerTracer, layer_sum_check  # noqa: E402


@pytest.fixture
def workdir(tmp_path):
    path = tmp_path / "run"
    path.mkdir()
    return str(path)


@pytest.fixture
def small_static(monkeypatch):
    monkeypatch.setattr(workloads, "STATIC_DATASET", "cagrqc-s")


def _run(fn, *args, **kwargs):
    out = fn(*args, **kwargs)
    assert out.correct, out.notes
    assert out.failed == 0
    return out


def test_static_counts_repeat_and_tracing_is_free(small_static, workdir):
    first = _run(workloads.static_spill, 3, 1, False, workdir)
    second = _run(workloads.static_spill, 3, 1, False, workdir)
    assert first.exact == second.exact
    # The traced run re-checks its bill against the untraced pass itself
    # (a mismatch clears ``correct``), and must report every layer metric.
    traced = _run(workloads.static_spill, 3, 1, True, workdir)
    assert set(traced.metrics) == set(layers.PER_LAYER_UNITS)
    assert traced.metrics["core.peel.calls"] > 0
    assert traced.metrics["storage.read_ios"] > 0
    assert traced.metrics["trace.layer_sum_within_tol"] == 1.0
    assert traced.metrics["engine.peak_model_bytes"] == first.exact["peak_model_bytes"]


@pytest.mark.parametrize("burst", [False, True])
def test_update_counts_repeat_and_tracing_is_free(burst, workdir):
    first = _run(workloads.update, 2, 1, False, workdir, burst=burst)
    second = _run(workloads.update, 2, 1, False, workdir, burst=burst)
    assert first.exact == second.exact
    traced = _run(workloads.update, 2, 1, True, workdir, burst=burst)
    assert traced.metrics["persistence.wal.self_s"] > 0
    # Only the burst path fsyncs: one group commit per drained batch.
    assert (traced.metrics["persistence.wal.fsyncs"] > 0) == burst
    assert traced.metrics["engine.peak_model_bytes"] == first.exact["peak_model_bytes"]
    assert traced.metrics["trace.layer_sum_within_tol"] >= 0.99


def test_serve_bill_repeats(monkeypatch, workdir):
    monkeypatch.setattr(workloads, "SERVE_QUERIES_PER_S", 60)
    first = _run(workloads.serve_mixed, 4, 2, False, workdir)
    second = _run(workloads.serve_mixed, 4, 2, False, workdir)
    assert first.exact == second.exact
    traced = _run(workloads.serve_mixed, 4, 2, True, workdir)
    assert traced.metrics["serve.execute.self_s.membership"] > 0
    assert traced.metrics["trace.layer_sum_within_tol"] >= 0.99


def test_layer_self_times_sum_to_the_request():
    tracer = LayerTracer()
    inner = tracer.wrap("storage.inner", lambda: time.sleep(0.002))

    def outer_body():
        inner()
        time.sleep(0.001)
        inner()

    outer = tracer.wrap("core.outer", outer_body)
    for i in range(5):
        tracer.request(i, outer)
    totals = tracer.totals()
    assert totals["storage.inner"][0] == 10
    assert totals["core.outer"][1] == pytest.approx(
        totals["core.outer"][3] - totals["storage.inner"][3])
    check = layer_sum_check(tracer.request_records())
    assert check["within"] == 1.0


def test_profiling_samples_inside_and_charges_no_operation():
    speed = hostspeed.HostSpeed()
    previous = signal.getsignal(signal.SIGPROF)
    with speed.profiling(interval=0.002):
        raw0, net0, spent0 = time.thread_time(), speed.cpu(), speed.spent
        while time.thread_time() - raw0 < 0.2:
            sum(range(1000))
        raw1, net1, spent1 = time.thread_time(), speed.cpu(), speed.spent
    assert signal.getsignal(signal.SIGPROF) is previous
    assert len(speed.at) >= 10
    assert spent1 > spent0
    # The net clock leaves out exactly the handler's time.
    assert (raw1 - raw0) - (net1 - net0) == pytest.approx(spent1 - spent0, abs=1e-4)


def test_calibration_divides_by_the_samples_slowdown():
    speed = hostspeed.HostSpeed()
    reference = hostspeed.REFERENCE_KERNEL_S
    speed.record({"at": 1.0, "cpu_s": 2 * reference, "wall_s": 0.0})
    speed.record({"at": 10.0, "cpu_s": reference, "wall_s": 0.0})
    # Twice as slow around t = 1, at reference speed around t = 10.
    assert list(speed.calibrate([4.0, 4.0], [0.9, 9.9], [1.1, 10.1])) == pytest.approx(
        [2.0, 4.0])


def test_uninstall_restores_every_patched_attribute():
    from repro.storage.disk_array import DiskArray
    from repro.core import api

    before = (DiskArray.get, api.semi_binary)
    tracer = LayerTracer()
    layers.install(tracer)
    assert DiskArray.get is not before[0]
    tracer.uninstall()
    assert (DiskArray.get, api.semi_binary) == before


def test_run_py_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "update-trickle",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
