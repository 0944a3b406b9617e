"""Run one workload end to end and assemble its report.

:func:`run_workload` sets the workload up several times (``setup_s`` is
the median), measures one window, checks every output, and returns the
result the command line prints.  With ``trace`` on it measures two windows
of half the length each: one untraced, then one with
:class:`~perfbench.layers.Instrumentation` and ``repro.obs`` tracing on,
which yields the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import platform
import resource
import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from repro import obs

from perfbench.layers import Instrumentation
from perfbench.workloads import WORKLOADS, BatchEval, Window

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics and their units; every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "tokens_per_s": "1/s",
    "ttft_p50_ms": "ms",
    "ttft_p95_ms": "ms",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "chunk_gap_p50_ms": "ms",
    "dashboard_p50_ms": "ms",
    "dashboard_p95_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Which window sample each percentile metric reads.
_PERCENTILES = {
    "ttft_p50_ms": ("ttft_ms", 50),
    "ttft_p95_ms": ("ttft_ms", 95),
    "latency_p50_ms": ("latency_ms", 50),
    "latency_p95_ms": ("latency_ms", 95),
    "chunk_gap_p50_ms": ("gap_ms", 50),
    "dashboard_p50_ms": ("call_ms", 50),
    "dashboard_p95_ms": ("call_ms", 95),
}


#: Per-layer metrics and their units, in reporting order.  Every workload
#: reports all of them; a layer the workload's path does not reach reads 0.
PER_LAYER = {
    "decode.admit_ms": "ms",
    "decode.admit_share": "frac",
    "decode.step_ms": "ms",
    "decode.step_share": "frac",
    "decode.step.embed_ms": "ms",
    "decode.step.qkv_ms": "ms",
    "decode.step.attend_self_ms": "ms",
    "decode.step.cross_query_ms": "ms",
    "decode.step.attend_cross_ms": "ms",
    "decode.step.ffn_ms": "ms",
    "decode.step.lm_head_ms": "ms",
    "decode.step.host_ms": "ms",
    "kv.view_ms": "ms",
    "kv.append_ms": "ms",
    "kv.view_bytes": "B/step",
    "kv.pages_high_water": "pages",
    "kv.pages_in_use_end": "pages",
    "tensor.constructions_per_step": "1/step",
    "continuous.rows_per_step": "rows/step",
    "continuous.admission_wait_ms": "ms",
    "continuous.decode_calls_per_token": "1/token",
    "server.queue_wait_ms.p50": "ms",
    "server.queue_wait_ms.p95": "ms",
    "server.batch_size.mean": "jobs",
    "server.cache_hit_frac": "frac",
    "server.coalesced_frac": "frac",
    "gateway.cache_hit_frac": "frac",
    "gateway.dispatch_ms.p50": "ms",
    "gateway.requeues": "count",
    "transport.encode_ms_per_req": "ms/req",
    "transport.decode_ms_per_req": "ms/req",
    "transport.bytes_per_req": "B/req",
    "pipeline.prepare_ms": "ms",
    "pipeline.complete_ms": "ms",
    "pipeline.encode_cache_hit_frac": "frac",
    "corpus.search_ms": "ms",
    "reconcile_frac": "frac",
    "tracing_overhead_frac": "frac",
}


# -- machine fingerprint ------------------------------------------------------------------
_BLAS_THREAD_FUNCTIONS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _openblas_thread_functions():
    """``(get, set)`` for the loaded OpenBLAS's thread count, or ``None``."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for getter, setter in _BLAS_THREAD_FUNCTIONS:
            if hasattr(library, getter) and hasattr(library, setter):
                get, set_ = getattr(library, getter), getattr(library, setter)
                get.restype, get.argtypes = ctypes.c_int, []
                set_.restype, set_.argtypes = None, [ctypes.c_int]
                return get, set_
    return None


def pin_blas_to_one_thread() -> int | None:
    """Set the loaded BLAS to one thread; returns the count it now reports.

    The command line also sets the thread environment variables before
    numpy loads; this covers processes that imported numpy first (tests).
    Forked shards inherit the setting.
    """
    functions = _openblas_thread_functions()
    if functions is None:
        return None
    get, set_ = functions
    set_(1)
    return get()


def fingerprint(workload: str, seed: int, trace: bool, seconds: float, blas_threads: int | None) -> dict:
    """The machine and settings a result was measured on."""
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            cpu_model = next((line.split(":", 1)[1].strip() for line in cpuinfo if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "blas_env": {name: os.environ.get(name) for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# -- metrics ------------------------------------------------------------------------------
def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end_metrics(window: Window, setup_times: list[float], peak_rss_mb: float) -> dict[str, float]:
    """Every end-to-end metric from one untraced window."""
    metrics = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": (window.sent - window.failed) / window.wall_s,
        "tokens_per_s": window.tokens / window.wall_s,
        "peak_rss_mb": peak_rss_mb,
    }
    for name, (sample, q) in _PERCENTILES.items():
        metrics[name] = _percentile(getattr(window, sample), q)
    return {name: metrics[name] for name in END_TO_END}


def sample_counts(window: Window) -> dict[str, str]:
    """For each percentile metric: its sample count and how many lie beyond it."""
    counts = {}
    for name, (sample, q) in _PERCENTILES.items():
        size = len(getattr(window, sample))
        beyond = size - math.ceil(size * q / 100.0)
        counts[name] = f"n={size}, beyond={beyond}"
    return counts


def _cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks of the machine so far, from ``/proc/stat``."""
    try:
        with open("/proc/stat", encoding="utf-8") as stat:
            fields = [int(value) for value in stat.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN reports the largest
    # reaped child, which for the sharded tier is the largest shard.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def make_workload(name: str, seed: int, work_dir: Path, smoke: bool = False):
    """The workload called ``name``; ``smoke`` shrinks it for the test suite."""
    if smoke and name == BatchEval.name:
        return BatchEval(seed, work_dir, burst_size=3)
    return WORKLOADS[name](seed, work_dir)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, setups: int = 3, smoke: bool = False, log=print
) -> dict:
    """Run workload ``name`` and return the result line's fields plus a report.

    The returned dict has ``correct``, ``attempted``, ``failed`` and
    ``metrics`` (``{name: {"value", "unit"}}``) — the end-to-end metrics, or
    with ``trace`` the per-layer ones — and ``failures`` for the log.
    """
    blas_threads = pin_blas_to_one_thread()
    log("fingerprint: " + repr(fingerprint(name, seed, trace, seconds, blas_threads)))
    work_dir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, work_dir, smoke)
    failures: list[str] = []
    setup_times: list[float] = []
    steal_before, ticks_before = _cpu_ticks()
    try:
        for _ in range(setups):
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
        if not trace:
            window = workload.measure(seconds)
            failures += workload.check(window)
            windows = [window]
        else:
            untraced = workload.measure(seconds / 2.0)
            failures += workload.check(untraced)
            obs.configure(tracing=True)
            try:
                with Instrumentation():
                    workload.open()
                    window = workload.measure(seconds / 2.0)
            finally:
                obs.configure(tracing=False)
                obs.TRACES.clear()
            failures += workload.check(window)
            windows = [untraced, window]
    finally:
        workload.shutdown()
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_dir.parent.rmdir()  # only when no other run is using it
    steal_after, ticks_after = _cpu_ticks()
    # Time the hypervisor gave this machine's CPUs to someone else; a run
    # with a high share was measured on a contended host.
    log(f"cpu steal share during the run: {(steal_after - steal_before) / max(1, ticks_after - ticks_before):.4f}")
    log(f"setup_s runs: {', '.join(f'{value:.4f}' for value in setup_times)}")
    if window.digest:
        log(f"output digest: {window.digest}")
    if trace:
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(window.layers)
        untraced_rate = untraced.sent / untraced.wall_s
        values["tracing_overhead_frac"] = untraced_rate / (window.sent / window.wall_s) - 1.0
        units, counts = PER_LAYER, {}
        log(f"unexplained remainder of the traced window: {1.0 - values['reconcile_frac']:.4f}")
    else:
        values = end_to_end_metrics(window, setup_times, _peak_rss_mb())
        units, counts = END_TO_END, sample_counts(window)
    metrics = {key: {"value": float(values[key]), "unit": unit} for key, unit in units.items()}
    for key, metric in metrics.items():
        suffix = f" ({counts[key]})" if key in counts else ""
        log(f"{key} = {metric['value']:.6g} {metric['unit']}{suffix}")
    attempted = sum(item.sent for item in windows)
    failed = sum(item.failed for item in windows)
    log(f"requests: attempted {attempted}, failed {failed}, error_rate {failed / max(1, attempted):.4f}")
    for failure in failures:
        log(f"FAIL: {failure}")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "failures": failures,
    }

