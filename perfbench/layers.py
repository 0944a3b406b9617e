"""Per-layer accounting for the traced run.

:class:`Instrumentation` wraps the public functions of each layer — the
decode step and its parts, admission, the paged KV cache, the pipeline
stages, retrieval, the tokenizer and the pipe codec — with timers and
counters.  It records into the process-global ``repro.obs`` metrics
registry under the ``perfbench.`` prefix.  Shards forked after
:meth:`Instrumentation.install` inherit the wrappers, and their registries
reach the gateway on the heartbeat frames the sharded tier already sends,
so shard-side time is read the same way as in-process time.  Nothing under
``src/`` changes; :meth:`Instrumentation.uninstall` restores every original.

:func:`per_layer_metrics` turns registry snapshots taken around a measured
window into the per-layer metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import functools
import threading
import time

from repro import obs
from repro.datasets.corpus import CorpusIndex
from repro.nn.attention import MultiHeadAttention
from repro.nn.decode_cache import PagedSequence
from repro.nn.layers import Embedding, FeedForward
from repro.nn.tensor import Tensor
from repro.nn.transformer import PagedDecodeBatch, T5Model
from repro.obs.metrics import Histogram
from repro.serving import continuous, sharded, transport
from repro.serving.cache import LRUCache
from repro.serving.pipeline import Pipeline
from repro.tokenization.tokenizer import DataVisTokenizer

PREFIX = "perfbench."

#: Timed parts of one decode step, in the order the step runs them.  The
#: step's remaining time, ``decode.step.host_ms``, is argmax, norms,
#: residual adds, position-bias lookups and slot bookkeeping.
STEP_PARTS = (
    "decode.step.embed",
    "decode.step.qkv",
    "kv.append",
    "kv.view",
    "decode.step.attend_self",
    "decode.step.cross_query",
    "decode.step.attend_cross",
    "decode.step.ffn",
    "decode.step.lm_head",
)

_HISTOGRAMS = (
    "decode.step",
    "decode.admit",
    *STEP_PARTS,
    "pipeline.prepare",
    "pipeline.complete",
    "corpus.search",
    "tokenizer",
    "covered",
    "transport.encode",
    "transport.decode",
    "kv.pages_after_step",
)
_COUNTERS = (
    "decode.rows",
    "tensor.constructions",
    "kv.view_bytes",
    "tap.decodes",
    "tap.tokens",
    "encode_cache.lookups",
    "encode_cache.hits",
    "transport.bytes",
)


class _ThreadState(threading.local):
    step = False  # inside PagedDecodeBatch.step on this thread
    tap = False  # inside a streaming tap
    tensors = 0  # Tensor constructions in the current step


class _Coverage:
    """Wall time during which at least one thread is inside a reconciled layer.

    Calls nest and overlap across threads; only the union is recorded, so
    the covered time never exceeds the wall time.
    """

    def __init__(self, histogram: Histogram) -> None:
        self._histogram = histogram
        self._lock = threading.Lock()
        self._active = 0
        self._since = 0.0

    def enter(self) -> None:
        with self._lock:
            if self._active == 0:
                self._since = time.perf_counter()
            self._active += 1

    def exit(self) -> None:
        with self._lock:
            self._active -= 1
            if self._active == 0:
                self._histogram.record((time.perf_counter() - self._since) * 1000.0)


class Instrumentation:
    """Install timing wrappers on the serving stack's layer functions.

    Reconciled layers — the decode step, admission, the pipeline's prepare
    and complete stages and the tokenizer — also record into
    ``perfbench.covered`` the wall time during which any thread is inside
    one of them: the time that is explained by a named layer.
    """

    def __init__(self) -> None:
        self._local = _ThreadState()
        self._saved: list[tuple[object, str, object]] = []
        self.histograms = {name: obs.METRICS.histogram(PREFIX + name) for name in _HISTOGRAMS}
        self.counters = {name: obs.METRICS.counter(PREFIX + name) for name in _COUNTERS}
        self._coverage = _Coverage(self.histograms["covered"])

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- installation -------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every instrumented function (class and module attributes)."""
        if self._saved:
            raise RuntimeError("instrumentation is already installed")
        timer = self._timer
        self._patch(PagedDecodeBatch, "step", self._step)
        self._patch(PagedDecodeBatch, "admit", timer("decode.admit", covered=True))
        self._patch(Embedding, "forward", timer("decode.step.embed", step_only=True))
        self._patch(MultiHeadAttention, "decode_step_qkv", timer("decode.step.qkv"))
        self._patch(MultiHeadAttention, "decode_step_query", timer("decode.step.cross_query"))
        self._patch(MultiHeadAttention, "attend_rows", self._attend_rows)
        self._patch(FeedForward, "forward", timer("decode.step.ffn", step_only=True))
        self._patch(T5Model, "lm_logits", timer("decode.step.lm_head", step_only=True))
        self._patch(PagedSequence, "append", timer("kv.append"))
        self._patch(PagedSequence, "view", self._view)
        self._patch(Tensor, "__init__", self._tensor_init)
        self._patch(Pipeline, "prepare", timer("pipeline.prepare", covered=True))
        self._patch(Pipeline, "complete", timer("pipeline.complete", covered=True))
        self._patch(CorpusIndex, "search", timer("corpus.search"))
        self._patch(LRUCache, "get_or_compute", self._cache_lookup)
        self._patch(DataVisTokenizer, "decode", self._tokenizer_decode)
        self._patch(DataVisTokenizer, "batch_encode", timer("tokenizer", covered=True))
        self._patch(continuous, "_delta_tap", self._delta_tap)
        encode = self._encode_frame
        self._patch(transport, "encode_frame", encode)
        self._patch(sharded, "encode_frame", encode)
        self._patch(transport, "decode_body", self._decode_body)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    # -- wrapper factories --------------------------------------------------------------
    def _timer(self, name: str, covered: bool = False, step_only: bool = False):
        histogram = self.histograms[name]
        coverage = self._coverage
        local = self._local

        def make(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if step_only and not local.step:
                    return original(*args, **kwargs)
                if covered:
                    coverage.enter()
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    histogram.record((time.perf_counter() - start) * 1000.0)
                    if covered:
                        coverage.exit()

            return wrapper

        return make

    def _step(self, original):
        local = self._local
        step_time = self.histograms["decode.step"]
        coverage = self._coverage
        pages = self.histograms["kv.pages_after_step"]
        rows_counter = self.counters["decode.rows"]
        tensors_counter = self.counters["tensor.constructions"]

        @functools.wraps(original)
        def step(batch):
            rows = batch.active_count
            coverage.enter()
            local.step = True
            local.tensors = 0
            start = time.perf_counter()
            try:
                return original(batch)
            finally:
                step_time.record((time.perf_counter() - start) * 1000.0)
                local.step = False
                coverage.exit()
                rows_counter.inc(rows)
                tensors_counter.inc(local.tensors)
                pages.record(batch.arena.pages_in_use)

        return step

    def _attend_rows(self, original):
        attend_self = self.histograms["decode.step.attend_self"]
        attend_cross = self.histograms["decode.step.attend_cross"]

        @functools.wraps(original)
        def attend_rows(attention, *args, **kwargs):
            # The step passes position biases to self-attention and padding
            # masks to cross-attention; that is how the two are told apart.
            histogram = attend_self if kwargs.get("position_biases") is not None else attend_cross
            start = time.perf_counter()
            try:
                return original(attention, *args, **kwargs)
            finally:
                histogram.record((time.perf_counter() - start) * 1000.0)

        return attend_rows

    def _view(self, original):
        view_time = self.histograms["kv.view"]
        view_bytes = self.counters["kv.view_bytes"]

        @functools.wraps(original)
        def view(sequence, layer):
            start = time.perf_counter()
            keys, values = original(sequence, layer)
            view_time.record((time.perf_counter() - start) * 1000.0)
            view_bytes.inc(keys.nbytes + values.nbytes)
            return keys, values

        return view

    def _tensor_init(self, original):
        local = self._local

        @functools.wraps(original)
        def __init__(tensor, *args, **kwargs):
            if local.step:
                local.tensors += 1
            original(tensor, *args, **kwargs)

        return __init__

    def _cache_lookup(self, original):
        lookups = self.counters["encode_cache.lookups"]
        hits = self.counters["encode_cache.hits"]

        @functools.wraps(original)
        def get_or_compute(cache, key, compute):
            if cache.name == "encode":
                lookups.inc()
                if key in cache:
                    hits.inc()
            return original(cache, key, compute)

        return get_or_compute

    def _tokenizer_decode(self, original):
        timed = self._timer("tokenizer", covered=True)(original)
        local = self._local
        tap_decodes = self.counters["tap.decodes"]

        @functools.wraps(original)
        def decode(*args, **kwargs):
            if local.tap:
                tap_decodes.inc()
            return timed(*args, **kwargs)

        return decode

    def _delta_tap(self, original):
        local = self._local
        tap_tokens = self.counters["tap.tokens"]

        @functools.wraps(original)
        def delta_tap(backend, index, on_text):
            tap = original(backend, index, on_text)

            def counted(token):
                tap_tokens.inc()
                local.tap = True
                try:
                    tap(token)
                finally:
                    local.tap = False

            return counted

        return delta_tap

    def _encode_frame(self, original):
        encode_time = self.histograms["transport.encode"]
        frame_bytes = self.counters["transport.bytes"]

        @functools.wraps(original)
        def encode_frame(message):
            start = time.perf_counter()
            data = original(message)
            # Heartbeats carry metrics snapshots whose size this
            # instrumentation inflates; only request traffic is counted.
            if message.get("type") != "heartbeat":
                encode_time.record((time.perf_counter() - start) * 1000.0)
                frame_bytes.inc(len(data))
            return data

        return encode_frame

    def _decode_body(self, original):
        decode_time = self.histograms["transport.decode"]
        frame_bytes = self.counters["transport.bytes"]

        @functools.wraps(original)
        def decode_body(body):
            start = time.perf_counter()
            message = original(body)
            if message.get("type") != "heartbeat":
                decode_time.record((time.perf_counter() - start) * 1000.0)
                frame_bytes.inc(len(body) + 4)  # plus the 4-byte length prefix
            return message

        return decode_body


# -- snapshot arithmetic ------------------------------------------------------------------
def snapshot_delta(after: dict, before: dict | None) -> dict:
    """What a registry recorded between two of its snapshots.

    Counters and histogram counts/sums subtract; histogram maxima and gauges
    keep the later value.
    """
    before = before or {}
    old_counters = before.get("counters", {})
    old_histograms = before.get("histograms", {})
    histograms = {}
    for name, snapshot in after.get("histograms", {}).items():
        old = old_histograms.get(name, {})
        histograms[name] = {
            "count": snapshot["count"] - old.get("count", 0),
            "sum": snapshot["sum"] - old.get("sum", 0.0),
            "max": snapshot.get("max"),
        }
    return {
        "counters": {
            name: value - old_counters.get(name, 0) for name, value in after.get("counters", {}).items()
        },
        "gauges": dict(after.get("gauges", {})),
        "histograms": histograms,
    }


class _Totals:
    """Counters and histogram sums added up over several processes' deltas."""

    def __init__(self, deltas: list[dict]):
        self.deltas = deltas

    def count(self, name: str) -> int:
        return sum(delta["counters"].get(name, 0) for delta in self.deltas)

    def calls(self, name: str) -> int:
        return sum(delta["histograms"].get(name, {}).get("count", 0) for delta in self.deltas)

    def total(self, name: str) -> float:
        return sum(delta["histograms"].get(name, {}).get("sum", 0.0) for delta in self.deltas)

    def mean(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls if calls else 0.0

    def maximum(self, name: str) -> float:
        values = [delta["histograms"].get(name, {}).get("max") for delta in self.deltas]
        return max((value for value in values if value is not None), default=0.0)

    def gauge_sum(self, name: str) -> float:
        return sum(delta["gauges"].get(name, 0.0) for delta in self.deltas)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def quantile(snapshot: dict | None, p: float) -> float:
    """The ``p``-quantile of one histogram snapshot (0.0 when empty)."""
    histogram = Histogram("scratch")
    if snapshot:
        histogram.merge_snapshot(snapshot)
    return histogram.quantile(p)


def per_layer_metrics(decode_deltas: list[dict], wall_s: float) -> dict[str, float]:
    """The layer metrics of the processes that ran the pipeline and decode loop.

    ``decode_deltas`` holds one :func:`snapshot_delta` per such process (the
    benchmark process itself, or each shard); ``wall_s`` is the traced
    window's wall time.  Shares and the reconciled fraction divide by the
    wall time of all those processes together.
    """
    totals = _Totals(decode_deltas)
    p = PREFIX
    wall_ms = wall_s * 1000.0 * max(1, len(decode_deltas))
    steps = totals.calls(p + "decode.step")
    step_ms = _ratio(totals.total(p + "decode.step"), steps)
    metrics = {
        "decode.admit_ms": totals.mean(p + "decode.admit"),
        "decode.admit_share": _ratio(totals.total(p + "decode.admit"), wall_ms),
        "decode.step_ms": step_ms,
        "decode.step_share": _ratio(totals.total(p + "decode.step"), wall_ms),
    }
    parts = 0.0
    for part in STEP_PARTS:
        per_step = _ratio(totals.total(p + part), steps)
        parts += per_step
        metrics[part + "_ms"] = per_step
    metrics["decode.step.host_ms"] = step_ms - parts
    metrics.update(
        {
            "kv.view_bytes": _ratio(totals.count(p + "kv.view_bytes"), steps),
            "kv.pages_high_water": totals.maximum(p + "kv.pages_after_step"),
            "kv.pages_in_use_end": totals.gauge_sum("arena.pages_in_use"),
            "tensor.constructions_per_step": _ratio(totals.count(p + "tensor.constructions"), steps),
            "continuous.rows_per_step": _ratio(totals.count(p + "decode.rows"), steps),
            "continuous.admission_wait_ms": totals.mean("continuous.admission_wait_ms"),
            "continuous.decode_calls_per_token": _ratio(totals.count(p + "tap.decodes"), totals.count(p + "tap.tokens")),
            "pipeline.prepare_ms": totals.mean(p + "pipeline.prepare"),
            "pipeline.complete_ms": totals.mean(p + "pipeline.complete"),
            "pipeline.encode_cache_hit_frac": _ratio(
                totals.count(p + "encode_cache.hits"), totals.count(p + "encode_cache.lookups")
            ),
            "corpus.search_ms": totals.mean(p + "corpus.search"),
            "reconcile_frac": _ratio(totals.total(p + "covered"), wall_ms),
        }
    )
    return metrics


def transport_metrics(gateway_delta: dict, requests: int) -> dict[str, float]:
    """Gateway-side pipe-codec cost per request sent, from the gateway's registry."""
    totals = _Totals([gateway_delta])
    return {
        "transport.encode_ms_per_req": _ratio(totals.total(PREFIX + "transport.encode"), requests),
        "transport.decode_ms_per_req": _ratio(totals.total(PREFIX + "transport.decode"), requests),
        "transport.bytes_per_req": _ratio(totals.count(PREFIX + "transport.bytes"), requests),
    }
