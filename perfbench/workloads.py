"""The three workloads: set-up, one measured window, and correctness checks.

Every workload is a closed loop driven from this process; the serving code
receives only the requests :mod:`perfbench.inputs` generates.

* ``batch_eval`` — offline evaluation: repeated ``Pipeline.serve`` calls,
  each on a burst of unique requests (a third each of text_to_vis,
  vis_to_text and fevisqa), decode budget 64.
* ``assistant_stream`` — the interactive assistant: 8 concurrent
  ``Server.stream`` clients on one asyncio loop, 2 worker threads, a mix of
  all four tasks with every fifth request a repeat, budget 32.
* ``dashboard_sharded`` — one thread calling ``ShardedServer.serve`` with a
  dashboard of 8 requests at a time over 2 forked shards, 30% revisited
  dashboards, budget 8.

A window reports each request's timeline as the caller sees it: ``ttft``
(submission to the first output text), ``latency`` (submission to the full
response), ``gap`` (the waits between successive pieces of output text,
the first counted from submission) and ``call`` (one call into the serving
API: a burst, a stream or a dashboard).  A response delivered whole is one
piece of text, so off the streaming path ttft, latency and gap coincide.
"""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro import obs
from repro.deploy.registry import ModelRegistry
from repro.errors import ModelConfigError
from repro.serving.continuous import continuous_loop_stats
from repro.serving.pipeline import Pipeline, PipelineConfig
from repro.serving.protocol import Request, Response, assemble_stream
from repro.serving.server import Server, ServerConfig
from repro.serving.sharded import ShardConfig, ShardedServer

from perfbench.inputs import (
    AssistantInputs,
    BatchEvalInputs,
    DashboardInputs,
    build_model,
    build_universe,
    request_key,
)
from perfbench.layers import per_layer_metrics, quantile, snapshot_delta, transport_metrics

TOKENS_TOTAL = "continuous.tokens_total"


@dataclass
class Window:
    """What one measured window observed."""

    wall_s: float = 0.0
    sent: int = 0
    failed: int = 0
    tokens: int = 0
    ttft_ms: list[float] = field(default_factory=list)
    latency_ms: list[float] = field(default_factory=list)
    gap_ms: list[float] = field(default_factory=list)
    call_ms: list[float] = field(default_factory=list)
    exchanges: list[tuple[Request, Response]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    digest: str = ""

    def record_whole(self, call_started: float, call_ended: float, exchanges) -> None:
        """Record one call whose responses all arrived together when it returned."""
        elapsed_ms = (call_ended - call_started) * 1000.0
        self.call_ms.append(elapsed_ms)
        for request, response in exchanges:
            self.sent += 1
            self.failed += response.error is not None
            self.ttft_ms.append(elapsed_ms)
            self.latency_ms.append(elapsed_ms)
            self.gap_ms.append(elapsed_ms)
            self.exchanges.append((request, response))


def _errors(label: str, exchanges) -> list[str]:
    return [
        f"{label}: {request.task} failed: {response.error} ({response.detail})"
        for request, response in exchanges
        if response.error is not None
    ]


def _compare(exchanges, references, label: str) -> list[str]:
    """Bitwise equality with the reference responses, ignoring cache flags."""
    return [
        f"{label}: {request.task} response differs from the reference ({served.output!r} != {reference.output!r})"
        for (request, served), reference in zip(exchanges, references)
        if replace(served, cached=False) != replace(reference, cached=False)
    ]


def _unique(exchanges) -> list[tuple[Request, Response]]:
    seen: dict[tuple, tuple[Request, Response]] = {}
    for request, response in exchanges:
        seen.setdefault(request_key(request), (request, response))
    return list(seen.values())


def _sample(exchanges, size: int, seed) -> list[tuple[Request, Response]]:
    """A seeded sample of ``exchanges`` to re-serve through a reference.

    Re-serving every request would cost about as long as the window itself.
    """
    rng = np.random.default_rng(seed)
    picks = sorted(rng.choice(len(exchanges), size=min(size, len(exchanges)), replace=False))
    return [exchanges[int(index)] for index in picks]


def _arena_failures(model) -> list[str]:
    failures = []
    for name, stats in continuous_loop_stats(model.model).items():
        in_use = stats["arena"]["pages_in_use"]
        if in_use:
            failures.append(f"arena {name}: {in_use} KV pages still in use after the window")
    return failures


class BatchEval:
    """Offline evaluation: bursts of unique requests through ``Pipeline.serve``."""

    name = "batch_eval"
    budget = 64

    def __init__(self, seed: int, work_dir: Path, burst_size: int = 48):
        self.seed = seed
        self.burst_size = burst_size
        self.model = None

    def setup(self) -> None:
        self.universe = build_universe()
        self.model = build_model(self.universe, self.budget)
        self.open()

    def open(self) -> None:
        """A fresh pipeline over the model, a fresh request stream, and a warm-up burst."""
        self.pipeline = Pipeline.from_model(self.model)
        self.inputs = BatchEvalInputs(self.universe, self.seed, self.burst_size)
        self.pipeline.serve(self.inputs.next_burst(size=3), strict=False)

    def measure(self, seconds: float) -> Window:
        window = Window()
        obs.METRICS.reset()
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            burst = self.inputs.next_burst()
            began = time.perf_counter()
            responses = self.pipeline.serve(burst, strict=False)
            ended = time.perf_counter()
            window.record_whole(began, ended, zip(burst, responses))
            # A burst takes seconds; send another only if one as long as the
            # last still ends inside the window.
            if ended + (ended - began) > deadline:
                break
        window.wall_s = ended - start
        delta = snapshot_delta(obs.METRICS.snapshot(), None)
        window.tokens = delta["counters"].get(TOKENS_TOTAL, 0)
        window.layers = per_layer_metrics([delta], window.wall_s)
        outputs = "\x1e".join(response.output for _, response in window.exchanges)
        window.digest = hashlib.sha256(outputs.encode("utf-8")).hexdigest()
        return window

    def check(self, window: Window) -> list[str]:
        failures = _errors("batch_eval", window.exchanges)
        # One seeded request per task is re-decoded without the KV cache.
        rng = np.random.default_rng([self.seed, 5])
        sample = []
        for task in BatchEvalInputs.TASKS:
            candidates = [exchange for exchange in window.exchanges if exchange[0].task == task]
            sample.append(candidates[int(rng.integers(len(candidates)))])
        reference = Pipeline.from_model(self.model, config=PipelineConfig(use_cache=False))
        references = reference.serve([request for request, _ in sample], strict=False)
        failures += _compare(sample, references, "batch_eval vs use_cache=False")
        return failures + _arena_failures(self.model)

    def shutdown(self) -> None:
        self.model = None


class AssistantStream:
    """The interactive assistant: concurrent ``Server.stream`` clients on one loop."""

    name = "assistant_stream"
    budget = 32
    streams = 8
    reference_sample = 16

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.loop = asyncio.new_event_loop()
        self.server: Server | None = None
        self.model = None

    def setup(self) -> None:
        self.universe = build_universe()
        self.model = build_model(self.universe, self.budget)
        self.open()

    def open(self) -> None:
        """A fresh pipeline and started server, a fresh request stream, and a warm-up."""
        self.loop.run_until_complete(self._open())

    async def _open(self) -> None:
        await self._stop()
        pipeline = Pipeline.from_model(self.model, corpus_index=self.universe.corpus)
        self.server = Server(pipeline, ServerConfig(num_workers=2))
        await self.server.start()
        self.inputs = AssistantInputs(self.universe, self.seed)
        await asyncio.gather(*(self._drain(self.server.stream(request)) for request in self.inputs.warmup()))

    @staticmethod
    async def _drain(stream) -> list:
        return [chunk async for chunk in stream]

    async def _stop(self) -> None:
        if self.server is not None:
            await self.server.stop()
            self.server = None

    def measure(self, seconds: float) -> Window:
        return self.loop.run_until_complete(self._measure(seconds))

    async def _measure(self, seconds: float) -> Window:
        window = Window()
        server = self.server
        streams: list[list] = []
        obs.METRICS.reset()
        start = time.perf_counter()
        deadline = start + seconds
        finished = [start]

        async def client() -> None:
            while time.perf_counter() < deadline:
                request = self.inputs.next()
                submitted = time.perf_counter()
                chunks, arrivals = [], []
                async for chunk in server.stream(request):
                    chunks.append(chunk)
                    arrivals.append(time.perf_counter())
                deliveries = [at for chunk, at in zip(chunks, arrivals) if not chunk.final and chunk.text]
                deliveries = deliveries or arrivals[-1:]
                response = chunks[-1].response
                window.sent += 1
                window.failed += response.error is not None
                window.ttft_ms.append((deliveries[0] - submitted) * 1000.0)
                window.latency_ms.append((arrivals[-1] - submitted) * 1000.0)
                window.call_ms.append(window.latency_ms[-1])
                previous = submitted
                for at in deliveries:
                    window.gap_ms.append((at - previous) * 1000.0)
                    previous = at
                window.exchanges.append((request, response))
                streams.append(chunks)
                finished[0] = max(finished[0], arrivals[-1])

        await asyncio.gather(*(client() for _ in range(self.streams)))
        window.wall_s = finished[0] - start
        metrics = obs.METRICS.snapshot()
        delta = snapshot_delta(metrics, None)
        window.tokens = delta["counters"].get(TOKENS_TOTAL, 0)
        window.layers = per_layer_metrics([delta], window.wall_s)
        window.layers.update(self._server_metrics(window, metrics))
        self._streams = streams
        return window

    @staticmethod
    def _server_metrics(window: Window, metrics: dict) -> dict[str, float]:
        telemetry = [response.telemetry or {} for _, response in window.exchanges]
        queued = [entry["queue_ms"] for entry in telemetry if entry.get("batch_size") is not None]
        total = max(1, len(telemetry))
        batch_sizes = metrics["histograms"].get("server.batch_size", {})
        return {
            "server.queue_wait_ms.p50": float(np.percentile(queued, 50)) if queued else 0.0,
            "server.queue_wait_ms.p95": float(np.percentile(queued, 95)) if queued else 0.0,
            "server.batch_size.mean": batch_sizes["sum"] / batch_sizes["count"] if batch_sizes.get("count") else 0.0,
            "server.cache_hit_frac": sum(bool(entry.get("cache_hit")) for entry in telemetry) / total,
            "server.coalesced_frac": sum(bool(entry.get("coalesced")) for entry in telemetry) / total,
        }

    def check(self, window: Window) -> list[str]:
        failures = _errors("assistant_stream", window.exchanges)
        for (request, response), chunks in zip(window.exchanges, self._streams):
            if response.error is not None:
                continue
            try:
                # Raises unless the chunks' joined text equals the final output.
                assemble_stream(chunks)
            except ModelConfigError as error:
                failures.append(f"assistant_stream: {request.task} stream does not reassemble: {error}")
        sample = _sample(_unique(window.exchanges), self.reference_sample, [self.seed, 6])
        reference = Pipeline.from_model(self.model, corpus_index=self.universe.corpus)
        references = reference.serve([request for request, _ in sample], strict=False)
        failures += _compare(sample, references, "assistant_stream vs sync Pipeline.serve")
        return failures + _arena_failures(self.model)

    def shutdown(self) -> None:
        """Stop the server and close the event loop; the workload is unusable after."""
        self.loop.run_until_complete(self._stop())
        self.loop.close()


class DashboardSharded:
    """Dashboards of 8 requests through ``ShardedServer.serve`` over 2 forked shards."""

    name = "dashboard_sharded"
    budget = 8
    shards = 2
    reference_sample = 32

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir
        self.server: ShardedServer | None = None
        self._setups = 0
        self.config = ShardConfig(num_shards=self.shards)

    def setup(self) -> None:
        self.shutdown()
        self.universe = build_universe()
        model = build_model(self.universe, self.budget)
        self._setups += 1
        directory = self.work_dir / f"deployment-{self._setups}"
        shutil.rmtree(self.work_dir / f"deployment-{self._setups - 1}", ignore_errors=True)
        self.registry_path = directory / "registry.json"
        registry = ModelRegistry(self.registry_path)
        self.ref = registry.register_checkpoint("perfbench", model, directory / "checkpoint").id
        registry.verify(self.ref)
        self.open()

    def open(self) -> None:
        """Fork fresh shards, start a fresh request stream, and serve a warm-up dashboard."""
        self.shutdown()
        self.server = ShardedServer(self.registry_path, self.ref, self.config).start()
        self.inputs = DashboardInputs(self.universe, self.seed)
        self.server.serve(self.inputs.warmup())

    def _shard_snapshots(self) -> dict[str, dict]:
        # Shard registries ride the heartbeat; wait long enough for every
        # shard to send one recorded after the last response.
        time.sleep(4 * self.config.heartbeat_interval_ms / 1000.0)
        return self.server.observability()["shards"]

    def measure(self, seconds: float) -> Window:
        window = Window()
        server = self.server
        shards_before = self._shard_snapshots()
        requests_before = server.stats()["requests"]
        obs.METRICS.reset()
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            dashboard = self.inputs.next()
            began = time.perf_counter()
            responses = server.serve(dashboard)
            ended = time.perf_counter()
            window.record_whole(began, ended, zip(dashboard, responses))
            if ended >= deadline:
                break
        window.wall_s = ended - start
        gateway = obs.METRICS.snapshot()
        requests_after = server.stats()["requests"]
        shards_after = self._shard_snapshots()
        deltas = [snapshot_delta(shards_after[name], shards_before.get(name)) for name in sorted(shards_after)]
        window.tokens = sum(delta["counters"].get(TOKENS_TOTAL, 0) for delta in deltas)
        window.layers = per_layer_metrics(deltas, window.wall_s)
        submitted = requests_after["submitted"] - requests_before["submitted"]
        hits = requests_after["cache_hits"] - requests_before["cache_hits"]
        window.layers.update(
            {
                "gateway.cache_hit_frac": hits / submitted if submitted else 0.0,
                "gateway.dispatch_ms.p50": quantile(gateway["histograms"].get("gateway.dispatch_ms"), 0.5),
                "gateway.requeues": gateway["counters"].get("gateway.requeues_total", 0),
            }
        )
        window.layers.update(transport_metrics(snapshot_delta(gateway, None), window.sent))
        return window

    def check(self, window: Window) -> list[str]:
        failures = _errors("dashboard_sharded", window.exchanges)
        requeues = window.layers.get("gateway.requeues", 0)
        if requeues:
            failures.append(f"dashboard_sharded: the gateway requeued {requeues} requests")
        sample = _sample(_unique(window.exchanges), self.reference_sample, [self.seed, 7])
        reference = ModelRegistry(self.registry_path).build_pipeline(self.ref)
        references = reference.serve([request for request, _ in sample], strict=False)
        return failures + _compare(sample, references, "dashboard_sharded vs registry pipeline")

    def shutdown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


WORKLOADS = {workload.name: workload for workload in (BatchEval, AssistantStream, DashboardSharded)}
