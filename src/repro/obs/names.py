"""The span-name and metric-name inventory: one list, everywhere.

``SPAN_MEANINGS`` and ``METRIC_MEANINGS`` are the single source of truth for
every span name the tracing layer emits and every metric name the serving
stack records, exactly like ``ERROR_CODE_MEANINGS`` is for serving error
codes.  Instrumentation sites reference the ``SPAN_*`` / ``METRIC_*``
constants below rather than respelling the strings, and
``tests/test_obs_schema.py`` pins every derived surface (the constants, the
names the serving sources actually use, the documentation tables in
``docs/observability.md``) to these two dicts so a rename is always a
deliberate, reviewed change.

Naming conventions (documented in ``docs/observability.md``):

* names are dotted ``<layer>.<event>`` strings; the layer prefix is one of
  ``gateway`` (sharded-tier gateway), ``server`` (thread-tier async server),
  ``shard`` (worker-shard process), ``pipeline`` (task stages),
  ``continuous`` (the decode loop) or ``arena`` (the paged KV arena);
* histogram metrics carry their unit as a ``_ms`` / ``_ratio`` suffix;
* monotonic counters end in ``_total``; everything else is a gauge or a
  histogram.
"""

from __future__ import annotations

# -- span names -------------------------------------------------------------------------

SPAN_GATEWAY_REQUEST = "gateway.request"
SPAN_GATEWAY_DISPATCH = "gateway.dispatch"
SPAN_SERVER_REQUEST = "server.request"
SPAN_SERVER_QUEUE = "server.queue"
SPAN_SERVER_EXECUTE = "server.execute"
SPAN_SHARD_SERVE = "shard.serve"
SPAN_PIPELINE_RETRIEVE = "pipeline.retrieve"
SPAN_PIPELINE_GENERATE = "pipeline.generate"
SPAN_PIPELINE_MERGE = "pipeline.merge"
SPAN_DECODE_STEP = "decode.step"

#: Every span name the stack emits, with its one-line meaning.  The order is
#: outermost-first: a full sharded corpus-QA trace nests top to bottom.
SPAN_MEANINGS: dict[str, str] = {
    SPAN_GATEWAY_REQUEST: "root span of one request through the sharded-tier gateway",
    SPAN_GATEWAY_DISPATCH: "one dispatch attempt of a request to a worker shard (re-dispatches open a new span)",
    SPAN_SERVER_REQUEST: "root span of one request through the thread-tier async server",
    SPAN_SERVER_QUEUE: "time a job spent in the server queue before a batch collected it",
    SPAN_SERVER_EXECUTE: "worker-thread batch execution covering one job",
    SPAN_SHARD_SERVE: "shard-process handling of one request, pipeline included",
    SPAN_PIPELINE_RETRIEVE: "corpus_qa retrieval stage (index search at prepare time)",
    SPAN_PIPELINE_GENERATE: "model batch generation covering one prepared item",
    SPAN_PIPELINE_MERGE: "corpus_qa per-context answer merge",
    SPAN_DECODE_STEP: "one continuous-batching decode step serving one traced request",
}

#: Derived tuple, analogous to ``ERROR_CODES``.
SPAN_NAMES: tuple[str, ...] = tuple(SPAN_MEANINGS)

# -- metric names -----------------------------------------------------------------------

METRIC_SERVER_QUEUE_WAIT_MS = "server.queue_wait_ms"
METRIC_SERVER_BATCH_SIZE = "server.batch_size"
METRIC_SERVER_EXECUTE_MS = "server.execute_ms"
METRIC_GATEWAY_DISPATCH_MS = "gateway.dispatch_ms"
METRIC_GATEWAY_REQUEUES_TOTAL = "gateway.requeues_total"
METRIC_GATEWAY_RESPAWNS_TOTAL = "gateway.respawns_total"
METRIC_GATEWAY_HEARTBEAT_GAP_MS = "gateway.heartbeat_gap_ms"
METRIC_PIPELINE_RETRIEVE_MS = "pipeline.retrieve_ms"
METRIC_PIPELINE_MERGE_MS = "pipeline.merge_ms"
METRIC_CONTINUOUS_STEP_MS = "continuous.step_ms"
METRIC_CONTINUOUS_ADMISSION_WAIT_MS = "continuous.admission_wait_ms"
METRIC_CONTINUOUS_TOKENS_TOTAL = "continuous.tokens_total"
METRIC_ARENA_PAGES_IN_USE = "arena.pages_in_use"
METRIC_ARENA_PAGE_REUSE_RATIO = "arena.page_reuse_ratio"

#: Every metric name the stack records, with its one-line meaning.
METRIC_MEANINGS: dict[str, str] = {
    METRIC_SERVER_QUEUE_WAIT_MS: "histogram: thread-tier queue wait per job, milliseconds",
    METRIC_SERVER_BATCH_SIZE: "histogram: jobs per collected thread-tier batch",
    METRIC_SERVER_EXECUTE_MS: "histogram: worker batch execution time per job, milliseconds",
    METRIC_GATEWAY_DISPATCH_MS: "histogram: gateway dispatch-to-delivery latency per request, milliseconds",
    METRIC_GATEWAY_REQUEUES_TOTAL: "counter: requests requeued after a shard failure",
    METRIC_GATEWAY_RESPAWNS_TOTAL: "counter: worker-shard processes respawned after death or wedge",
    METRIC_GATEWAY_HEARTBEAT_GAP_MS: "histogram: observed gap between consecutive shard heartbeats, milliseconds",
    METRIC_PIPELINE_RETRIEVE_MS: "histogram: corpus_qa index-search latency per request, milliseconds",
    METRIC_PIPELINE_MERGE_MS: "histogram: corpus_qa answer-merge latency per request, milliseconds",
    METRIC_CONTINUOUS_STEP_MS: "histogram: continuous-batching decode step time, milliseconds",
    METRIC_CONTINUOUS_ADMISSION_WAIT_MS: "histogram: ticket submit-to-admission wait, milliseconds",
    METRIC_CONTINUOUS_TOKENS_TOTAL: "counter: tokens emitted by the continuous decode loop",
    METRIC_ARENA_PAGES_IN_USE: "gauge: KV-arena pages currently allocated to open sequences",
    METRIC_ARENA_PAGE_REUSE_RATIO: "gauge: fraction of KV-arena page-id allocations served by a released id (budget reuse, not memory)",
}

#: Derived tuple, analogous to ``ERROR_CODES``.
METRIC_NAMES: tuple[str, ...] = tuple(METRIC_MEANINGS)
