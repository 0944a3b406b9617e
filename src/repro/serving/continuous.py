"""Token-level continuous batching for neural decode traffic.

The micro-batcher (:mod:`repro.serving.batching`) amortizes at *request*
granularity: a batch decodes in lock-step until its longest member finishes,
so short requests pay for long ones and arrivals wait for the next window.
This module schedules at *token* granularity instead, vLLM-style: one
persistent :class:`~repro.nn.transformer.PagedDecodeBatch` per backend model
admits new sequences into free slots at every decode step and evicts
finished ones immediately, returning their K/V pages to the shared
:class:`~repro.nn.decode_cache.PagedKVArena`.

**Cooperative driving, no background threads.**  A dedicated decode thread
would have to own the model forever (pinning its lifetime and leaking on
teardown), so the loop is driven by the request threads themselves: every
:meth:`ContinuousDecodeLoop.run` caller submits its sequences and then
competes for the *driver lock*.  Whoever holds it advances the whole batch —
its own sequences and everyone else's — one step at a time; the rest sleep
on a condition that pulses after each step.  Concurrent server workers
therefore merge into one live batch automatically, which is exactly how
lock-step request batches turn into token-level sharing.

**Admission rules.**  Pending sequences are admitted strictly FIFO, one per
free slot, at the top of each step; a sequence joins mid-flight without
disturbing batch-mates because every admitted row decodes bitwise-identically
to its solo ``use_cache=False`` oracle (the :class:`PagedDecodeBatch`
equivalence contract).  Greedy only — beam search keeps the static path.

Loops are memoized per ``(model, dtype, slots, page size)`` via
:func:`continuous_loop_for`, keyed weakly so a loop dies with its model.
:func:`continuous_predict_batch` is the text-level entry the serving
engines call in place of ``DataVisT5.predict_batch``.

**Token taps.**  A sequence may be submitted with an ``on_token`` callback,
invoked once per emitted token id from whichever thread happens to be
driving the loop at that step.  Taps are how the serving tier streams
partial responses (:meth:`repro.serving.server.Server.stream`): after every
batch step the driver reads :attr:`~repro.nn.transformer.PagedDecodeBatch.
last_step_tokens` and fires the taps *outside* the scheduler's state lock,
so a slow consumer can delay decoding but never deadlock it.  A tap that
raises is swallowed and counted (``stats()["tap_errors"]``) — observers must
not poison decode correctness.  :func:`continuous_predict_batch` layers
``on_text`` on top: per-source callbacks that receive clean *text deltas*
whose concatenation is bitwise-equal to the final output text.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque

import numpy as np

from repro import obs
from repro.core.batching import pad_sequences
from repro.core.config import precision_compute_dtype
from repro.core.model import DataVisT5
from repro.encoding.sequences import strip_modality_tags
from repro.errors import ServingStateError
from repro.nn.transformer import T5Model, resolve_decode_budget
from repro.obs.names import (
    METRIC_CONTINUOUS_ADMISSION_WAIT_MS,
    METRIC_CONTINUOUS_STEP_MS,
    METRIC_CONTINUOUS_TOKENS_TOTAL,
    SPAN_DECODE_STEP,
)
from repro.obs.trace import SpanContext

_WAIT_SLICE_S = 0.02  # how long a non-driving thread naps between progress checks

# Decode-loop instruments, fetched once: recording is the hot path of every
# step, so the registry lock is never touched after import.
_STEP_MS = obs.METRICS.histogram(METRIC_CONTINUOUS_STEP_MS)
_ADMISSION_WAIT_MS = obs.METRICS.histogram(METRIC_CONTINUOUS_ADMISSION_WAIT_MS)
_TOKENS_TOTAL = obs.METRICS.counter(METRIC_CONTINUOUS_TOKENS_TOTAL)


class DecodeTicket:
    """One submitted sequence's placeholder inside a :class:`ContinuousDecodeLoop`.

    ``done`` flips once the sequence finished (or failed); :attr:`result`
    raises :class:`~repro.errors.ServingStateError` when read mid-flight, and
    re-raises the stored failure if the decode loop's engine broke while the
    sequence was in it.
    """

    __slots__ = ("row", "max_length", "on_token", "trace", "submitted_at", "done", "_result", "_error")

    def __init__(self, row: np.ndarray, max_length: int | None, on_token=None, trace: SpanContext | None = None):
        self.row = row
        self.max_length = max_length
        self.on_token = on_token
        self.trace = trace
        self.submitted_at = time.perf_counter()
        self.done = False
        self._result: np.ndarray | None = None
        self._error: ServingStateError | None = None

    @property
    def result(self) -> np.ndarray:
        """The finished sequence's output token ids (EOS included, BOS excluded)."""
        if not self.done:
            raise ServingStateError("sequence is still decoding; drive the loop until the ticket is done")
        if self._error is not None:
            raise self._error
        return self._result

    def _resolve(self, tokens: np.ndarray) -> None:
        self._result = tokens
        self.done = True

    def _fail(self, error: ServingStateError) -> None:
        self._error = error
        self.done = True


class ContinuousDecodeLoop:
    """A persistent, cooperatively-driven continuous-batching scheduler.

    Wraps one :class:`~repro.nn.transformer.PagedDecodeBatch` (fixed model,
    dtype, slot count, page size) behind a thread-safe submit/drive API:

    * :meth:`submit` queues a source row and returns its :class:`DecodeTicket`;
    * :meth:`run` submits a burst and drives the loop until every ticket of
      the burst is done, returning outputs in submission order;
    * any number of threads may ``run`` concurrently — their sequences share
      the live batch, and whichever thread holds the driver lock steps for
      everyone.

    An exception out of the model mid-step poisons every in-flight sequence
    (their tickets fail with :class:`~repro.errors.ServingStateError`), the
    batch is rebuilt fresh, and queued-but-unadmitted sequences proceed —
    one bad step never wedges the loop.
    """

    def __init__(self, model: T5Model, max_slots: int = 8, page_size: int = 16, dtype: str = "float64"):
        self._model = model
        self._max_slots = max_slots
        self._page_size = page_size
        self._dtype = dtype
        self._batch = model.paged_decode_batch(max_slots=max_slots, page_size=page_size, dtype=dtype)
        self._state = threading.Lock()
        self._progress = threading.Condition(self._state)
        self._driver = threading.Lock()
        self._pending: deque[DecodeTicket] = deque()
        self._active: dict[int, DecodeTicket] = {}
        self._submitted = 0
        self._completed = 0
        self._failed = 0
        self._steps = 0
        self._peak_active = 0
        self._tap_errors = 0

    @property
    def max_slots(self) -> int:
        """The batch's slot bound (sequences decoding concurrently)."""
        return self._max_slots

    def submit(
        self, row: np.ndarray, max_length: int | None = None, on_token=None, trace: SpanContext | None = None
    ) -> DecodeTicket:
        """Queue one unbatched source row for decoding; returns its ticket.

        The ticket resolves only while some thread drives the loop
        (:meth:`run` / :meth:`drive`); submitting never blocks.  ``on_token``,
        when given, is called with each emitted token id (an ``int``) from the
        driving thread *before* the ticket resolves; exceptions it raises are
        swallowed and counted under ``stats()["tap_errors"]``.  ``trace``,
        when given and sampled, parents a ``decode.step`` span per batch step
        the sequence participates in (``docs/observability.md``).
        """
        ticket = DecodeTicket(np.asarray(row, dtype=np.int64), max_length, on_token=on_token, trace=trace)
        with self._state:
            self._pending.append(ticket)
            self._submitted += 1
        return ticket

    def run(
        self,
        rows: list[np.ndarray],
        max_length: int | None = None,
        taps=None,
        trace_parents=None,
    ) -> list[np.ndarray]:
        """Decode ``rows`` to completion, driving the loop cooperatively.

        Returns each row's output token ids in input order, every one
        bitwise-equal to that row's solo ``generate(..., use_cache=False)``
        decode.  While this call waits for its own sequences it also steps
        everyone else's — that is what merges concurrent callers into one
        token-level batch.  ``taps``, when given, must be one per-row
        ``on_token`` callback (or ``None``) per row, in row order;
        ``trace_parents`` likewise is one optional
        :class:`~repro.obs.SpanContext` per row.
        """
        if taps is not None and len(taps) != len(rows):
            raise ServingStateError(f"expected one tap per row, got {len(taps)} taps for {len(rows)} rows")
        if trace_parents is not None and len(trace_parents) != len(rows):
            raise ServingStateError(
                f"expected one trace parent per row, got {len(trace_parents)} for {len(rows)} rows"
            )
        tickets = [
            self.submit(
                row,
                max_length,
                on_token=taps[index] if taps is not None else None,
                trace=trace_parents[index] if trace_parents is not None else None,
            )
            for index, row in enumerate(rows)
        ]
        self.drive(tickets)
        return [ticket.result for ticket in tickets]

    def drive(self, tickets: list[DecodeTicket]) -> None:
        """Advance the loop until every ticket in ``tickets`` is done.

        At most one thread steps the model at a time (the driver lock); the
        others sleep on the progress condition and re-check their tickets
        after every step.  Safe to call with tickets submitted by any thread.
        """
        while True:
            with self._state:
                if all(ticket.done for ticket in tickets):
                    return
            if self._driver.acquire(blocking=False):
                try:
                    self._step_once()
                finally:
                    self._driver.release()
                with self._progress:
                    self._progress.notify_all()
            else:
                with self._progress:
                    if not all(ticket.done for ticket in tickets):
                        self._progress.wait(timeout=_WAIT_SLICE_S)

    def stats(self) -> dict:
        """Scheduler and arena counters (see ``docs/serving.md``)."""
        with self._state:
            return {
                "max_slots": self._max_slots,
                "dtype": self._dtype,
                "submitted": self._submitted,
                "completed": self._completed,
                "failed": self._failed,
                "steps": self._steps,
                "pending": len(self._pending),
                "active": len(self._active),
                "peak_active": self._peak_active,
                "tap_errors": self._tap_errors,
                "arena": self._batch.arena.stats(),
            }

    # -- the single-driver step --------------------------------------------------------
    def _step_once(self) -> None:
        """Admit from the queue into free slots, then advance the batch one token.

        Runs with the driver lock held; the state lock is only taken for
        queue/ticket bookkeeping so submitters never wait on model compute.
        """
        while True:
            with self._state:
                if not self._pending or self._batch.free_slots == 0:
                    break
                ticket = self._pending.popleft()
            try:
                handle = self._batch.admit(ticket.row, ticket.max_length)
            except Exception as error:  # noqa: BLE001 - a bad row must not wedge the loop
                with self._state:
                    ticket._fail(ServingStateError(f"admission failed: {error}"))
                    self._failed += 1
                continue
            _ADMISSION_WAIT_MS.record((time.perf_counter() - ticket.submitted_at) * 1000.0)
            with self._state:
                self._active[handle] = ticket
                self._peak_active = max(self._peak_active, len(self._active))
        if self._batch.active_count == 0:
            return
        step_started = time.perf_counter()
        try:
            finished = self._batch.step()
        except Exception as error:  # noqa: BLE001 - poison in-flight work, keep the loop alive
            failure = ServingStateError(f"continuous decode step failed: {error}")
            with self._state:
                for ticket in self._active.values():
                    ticket._fail(failure)
                self._failed += len(self._active)
                self._active.clear()
                self._batch = self._model.paged_decode_batch(
                    max_slots=self._max_slots, page_size=self._page_size, dtype=self._dtype
                )
            return
        step_seconds = time.perf_counter() - step_started
        _STEP_MS.record(step_seconds * 1000.0)
        _TOKENS_TOTAL.inc(len(self._batch.last_step_tokens))
        self._batch.arena.observe()
        taps: list[tuple] = []
        with self._state:
            step_number = self._steps
            for handle, ticket in self._active.items():
                if ticket.trace is not None:
                    obs.TRACES.record(
                        SPAN_DECODE_STEP,
                        ticket.trace,
                        step_seconds,
                        start=step_started,
                        attrs={"step": step_number, "active": len(self._active)},
                    )
            for handle, token in self._batch.last_step_tokens.items():
                ticket = self._active.get(handle)
                if ticket is not None and ticket.on_token is not None:
                    taps.append((ticket.on_token, int(token)))
        # Fire taps outside the state lock (a slow consumer must not block
        # submitters) but before resolving finished tickets, so every token of
        # a sequence is observed before its ticket's result becomes readable.
        tap_failures = 0
        for callback, token in taps:
            try:
                callback(token)
            except Exception:  # noqa: BLE001 - observers must not poison decode
                tap_failures += 1
        with self._state:
            self._tap_errors += tap_failures
            self._steps += 1
            for handle, tokens in finished.items():
                self._active.pop(handle)._resolve(np.asarray(tokens, dtype=np.int64))
                self._completed += 1


# -- per-model loop registry ---------------------------------------------------------
_REGISTRY_LOCK = threading.Lock()
_LOOPS: "weakref.WeakKeyDictionary[T5Model, dict[tuple, ContinuousDecodeLoop]]" = weakref.WeakKeyDictionary()


def continuous_loop_for(
    model: T5Model, dtype: str = "float64", max_slots: int = 8, page_size: int = 16
) -> ContinuousDecodeLoop:
    """The shared :class:`ContinuousDecodeLoop` for ``model`` at these knobs.

    Memoized per ``(model, dtype, max_slots, page_size)`` so every server
    worker thread serving the same backend converges on one live batch; the
    registry holds the model weakly, so loops die with their model rather
    than pinning weights in memory.
    """
    key = (dtype, max_slots, page_size)
    with _REGISTRY_LOCK:
        loops = _LOOPS.setdefault(model, {})
        loop = loops.get(key)
        if loop is None:
            loop = ContinuousDecodeLoop(model, max_slots=max_slots, page_size=page_size, dtype=dtype)
            loops[key] = loop
        return loop


def continuous_loop_stats(model: T5Model) -> dict[str, dict]:
    """Stats of every live loop registered for ``model`` (may be empty)."""
    with _REGISTRY_LOCK:
        loops = dict(_LOOPS.get(model, {}))
    return {f"dtype={dtype},slots={slots},page={page}": loop.stats() for (dtype, slots, page), loop in loops.items()}


def _delta_tap(backend: DataVisT5, index: int, on_text):
    """An ``on_token`` callback that re-decodes and emits clean text deltas.

    The tokenizer's decode is a space-join of whole tokens and modality tags
    are whole tokens, so ``strip_modality_tags(decode(tokens[:k]))`` is a
    string prefix of the final stripped output; each new token therefore
    yields an exact string delta, and the concatenation of every delta is
    bitwise-equal to the final stripped text.  The ``startswith`` guard makes
    that an invariant rather than an assumption: a non-monotone decode (none
    is known) would suppress the delta and leave reconciliation to the
    stream's final chunk instead of emitting wrong text.
    """
    tokens: list[int] = []
    emitted = ""

    def tap(token: int) -> None:
        nonlocal emitted
        tokens.append(int(token))
        text = strip_modality_tags(backend.tokenizer.decode(tokens))
        if not text.startswith(emitted):
            return
        delta = text[len(emitted):]
        if delta:
            emitted = text
            on_text(index, delta)

    return tap


def continuous_predict_batch(
    backend: DataVisT5,
    sources: list[str],
    precision: str | None = None,
    max_length: int | None = None,
    max_slots: int = 8,
    page_size: int = 16,
    on_text=None,
    trace_parents=None,
) -> list[str]:
    """Generate output texts for ``sources`` through the continuous scheduler.

    The drop-in continuous counterpart of ``DataVisT5.predict_batch`` for
    greedy decoding: same tokenization, same padding, same precision
    resolution, and — because every admitted sequence decodes
    bitwise-identically to its solo oracle — the same output texts, whether
    the call had the loop to itself or shared it with other threads.

    ``on_text``, when given, is called as ``on_text(index, delta)`` from the
    driving thread with incremental *tag-stripped* text deltas per source;
    concatenating a source's deltas reproduces ``strip_modality_tags`` of its
    returned text exactly (the streaming invariant the serving tier gates on).
    ``trace_parents`` is one optional :class:`~repro.obs.SpanContext` per
    source; sampled sources get a ``decode.step`` span per step they decode.
    ``max_length=None`` means the backend's ``max_decode_length``; a budget
    below 1 raises :class:`~repro.errors.ModelConfigError` before anything
    is queued.
    """
    max_length = resolve_decode_budget(max_length, backend.config.max_decode_length)
    if not sources:
        return []
    resolved = backend.resolve_precision(precision)
    backend.model.eval()
    encoded = backend.tokenizer.batch_encode(list(sources), max_length=backend.config.max_input_length)
    input_ids = pad_sequences(encoded, backend.tokenizer.vocab.pad_id, backend.config.max_input_length)
    loop = continuous_loop_for(
        backend.model,
        dtype=precision_compute_dtype(resolved),
        max_slots=max_slots,
        page_size=page_size,
    )
    taps = None
    if on_text is not None:
        taps = [_delta_tap(backend, index, on_text) for index in range(input_ids.shape[0])]
    rows = loop.run(
        [input_ids[index] for index in range(input_ids.shape[0])],
        max_length=max_length,
        taps=taps,
        trace_parents=trace_parents,
    )
    return [backend.tokenizer.decode(row) for row in rows]
