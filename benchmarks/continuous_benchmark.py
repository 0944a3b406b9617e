"""Continuous-batching benchmark: token-level scheduling vs static request batches.

Three gated sections, written to ``BENCH_continuous.json``:

* **throughput** — a saturated burst of mixed-budget requests (short and
  long decode budgets interleaved) served two ways: static FIFO batches that
  decode lock-step until the *longest* member's budget (the micro-batcher
  model), and the continuous scheduler, which admits into free slots every
  step and evicts each sequence at its own budget.  Useful tokens/sec (sum
  of per-request budgets over wall time) must be at least as high on the
  continuous path.
* **latency** — an open-loop trace (real threads, fixed arrival schedule) of
  mixed short/long requests against both schedulers.  The p50 latency of
  *short* requests must improve by at least ``--latency-factor`` (1.5x):
  under static batching a short request convoyed with a long one waits the
  long request's full budget, while the continuous loop releases it the
  moment its own EOS/budget lands.
* **equivalence** — every output the continuous scheduler produced, in both
  sections, must be bitwise-equal to that row's solo
  ``generate(use_cache=False)`` decode.  Scheduling is a latency/throughput
  optimisation, never a numerics change.

One record-only section rides along:

* **uniform** — at batch sizes B = 4 and 32, B requests with the same
  ``--long-budget`` decoded by the paged continuous loop (B slots) and by
  lock-step ``generate(use_cache=True)`` on the whole batch; the median of
  three interleaved timings each, and
  ``paged_vs_lockstep`` = lock-step seconds / paged seconds (above 1 means
  the paged path is faster).  This is the number that decides whether
  lock-step greedy decoding can be routed through the paged batch.  The
  outputs of the two paths must be equal (that part fails the run); the
  speed is not gated.

Run it via ``make bench-continuous`` or directly::

    PYTHONPATH=src python benchmarks/continuous_benchmark.py --output BENCH_continuous.json
"""

from __future__ import annotations

import argparse
import json
import queue
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.nn.transformer import T5Model, TransformerConfig
from repro.obs.metrics import Histogram
from repro.serving.continuous import ContinuousDecodeLoop


def build_model(args: argparse.Namespace) -> T5Model:
    # eos_id=-1 cannot match any token, so every sequence decodes its full
    # budget: budgets, not the luck of random weights, shape the schedule.
    config = TransformerConfig(
        vocab_size=args.vocab_size,
        d_model=args.d_model,
        num_heads=args.num_heads,
        d_ff=2 * args.d_model,
        num_encoder_layers=args.num_layers,
        num_decoder_layers=args.num_layers,
        eos_id=-1,
        seed=args.seed,
    )
    return T5Model(config).eval()


def make_trace(args: argparse.Namespace, count: int, rng: np.random.Generator) -> list[dict]:
    """``count`` requests; every ``--long-every``-th is long, the rest short."""
    trace = []
    for index in range(count):
        is_long = (index % args.long_every) == (args.long_every - 1)
        trace.append(
            {
                "row": rng.integers(4, args.vocab_size, size=args.input_length).astype(np.int64),
                "budget": args.long_budget if is_long else args.short_budget,
                "long": is_long,
            }
        )
    return trace


def solo_oracle(model: T5Model, request: dict) -> np.ndarray:
    return model.generate(request["row"][None], max_length=request["budget"], use_cache=False)[0]


# -- static baseline: FIFO request batches, lock-step to the longest budget ------------


def serve_static_burst(model: T5Model, trace: list[dict], batch_size: int) -> tuple[float, list[np.ndarray]]:
    """Decode the whole burst in FIFO batches; each batch runs to its max budget."""
    outputs: list[np.ndarray] = []
    start = time.perf_counter()
    for begin in range(0, len(trace), batch_size):
        chunk = trace[begin : begin + batch_size]
        batch = np.stack([request["row"] for request in chunk])
        width = max(request["budget"] for request in chunk)
        decoded = model.generate(batch, max_length=width, use_cache=True)
        # The static batcher over-decodes short members to the convoy width;
        # only each request's own budget counts as useful output.
        outputs.extend(decoded[i, : chunk[i]["budget"]] for i in range(len(chunk)))
    return time.perf_counter() - start, outputs


def serve_continuous_burst(
    model: T5Model, trace: list[dict], max_slots: int, page_size: int
) -> tuple[float, list[np.ndarray], dict]:
    """Decode the whole burst through one continuous loop (single driver)."""
    loop = ContinuousDecodeLoop(model, max_slots=max_slots, page_size=page_size)
    start = time.perf_counter()
    tickets = [loop.submit(request["row"], max_length=request["budget"]) for request in trace]
    loop.drive(tickets)
    outputs = [ticket.result for ticket in tickets]
    return time.perf_counter() - start, outputs, loop.stats()


# -- open-loop latency traces ----------------------------------------------------------


def run_open_loop_continuous(
    model: T5Model, trace: list[dict], interval_s: float, max_slots: int, page_size: int
) -> list[dict]:
    """Threads arrive on a fixed schedule and drive the shared loop themselves."""
    loop = ContinuousDecodeLoop(model, max_slots=max_slots, page_size=page_size)
    records = [dict(request) for request in trace]
    epoch = time.perf_counter() + 0.05

    def client(record: dict, offset: float):
        wait = epoch + offset - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        arrived = time.perf_counter()
        record["output"] = loop.run([record["row"]], max_length=record["budget"])[0]
        record["latency_s"] = time.perf_counter() - arrived

    threads = [
        threading.Thread(target=client, args=(record, index * interval_s))
        for index, record in enumerate(records)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def run_open_loop_static(
    model: T5Model, trace: list[dict], interval_s: float, batch_size: int, window_s: float
) -> list[dict]:
    """The same arrival schedule against a micro-batcher-style scheduler.

    One worker drains a FIFO queue into batches of up to ``batch_size``
    (waiting at most ``window_s`` to fill one), decodes each batch lock-step
    to its longest member's budget, and resolves every member at the batch's
    completion time — the convoy behaviour the continuous loop removes.
    """
    records = [dict(request) for request in trace]
    inbox: queue.Queue = queue.Queue()
    epoch = time.perf_counter() + 0.05

    def client(record: dict, offset: float):
        wait = epoch + offset - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        record["arrived_s"] = time.perf_counter()
        inbox.put(record)

    def worker():
        served = 0
        while served < len(records):
            batch = [inbox.get()]
            deadline = time.perf_counter() + window_s
            while len(batch) < batch_size:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    batch.append(inbox.get(timeout=remaining))
                except queue.Empty:
                    break
            stacked = np.stack([record["row"] for record in batch])
            width = max(record["budget"] for record in batch)
            decoded = model.generate(stacked, max_length=width, use_cache=True)
            finished = time.perf_counter()
            for position, record in enumerate(batch):
                record["output"] = decoded[position, : record["budget"]]
                record["latency_s"] = finished - record["arrived_s"]
            served += len(batch)

    threads = [
        threading.Thread(target=client, args=(record, index * interval_s))
        for index, record in enumerate(records)
    ]
    server = threading.Thread(target=worker)
    server.start()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    server.join()
    return records


#: Batch sizes and interleaved repeats of the record-only uniform section.
UNIFORM_SIZES = (4, 32)
UNIFORM_REPEATS = 3


def measure_uniform(model: T5Model, args: argparse.Namespace, rng: np.random.Generator, size: int) -> dict:
    """Paged continuous vs lock-step decoding of ``size`` equal-budget requests."""
    rows = rng.integers(4, args.vocab_size, size=(size, args.input_length)).astype(np.int64)
    paged_seconds, lockstep_seconds = [], []
    for _ in range(UNIFORM_REPEATS):
        loop = ContinuousDecodeLoop(model, max_slots=size, page_size=args.page_size)
        start = time.perf_counter()
        paged = loop.run(list(rows), max_length=args.long_budget)
        paged_seconds.append(time.perf_counter() - start)
        start = time.perf_counter()
        lockstep = model.generate(rows, max_length=args.long_budget, use_cache=True)
        lockstep_seconds.append(time.perf_counter() - start)
    tokens = size * args.long_budget
    paged_median = float(np.median(paged_seconds))
    lockstep_median = float(np.median(lockstep_seconds))
    return {
        "batch_size": size,
        "budget": args.long_budget,
        "paged_seconds": round(paged_median, 6),
        "lockstep_seconds": round(lockstep_median, 6),
        "paged_tokens_per_sec": round(tokens / paged_median, 2),
        "lockstep_tokens_per_sec": round(tokens / lockstep_median, 2),
        "paged_vs_lockstep": round(lockstep_median / paged_median, 3),
        "outputs_equal": bool(all(np.array_equal(out, ref) for out, ref in zip(paged, lockstep))),
    }


def percentile_ms(latencies: list[float], q: float) -> float:
    """The q-th percentile of ``latencies`` (seconds) in milliseconds.

    Estimated through :class:`repro.obs.metrics.Histogram` so benchmark
    quantiles use the same log-bucketed estimator as the serving metrics.
    """
    histogram = Histogram("latency_ms")
    for value in latencies:
        histogram.record(value * 1000.0)
    return round(histogram.quantile(q / 100.0), 3)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", type=Path, default=Path("BENCH_continuous.json"))
    # The model is deliberately matmul-dominated (d_model 256): the point is
    # the *scheduling* win of not convoying short requests behind long ones,
    # which a tiny config would bury under per-row python overhead.
    parser.add_argument("--vocab-size", type=int, default=96)
    parser.add_argument("--d-model", type=int, default=256)
    parser.add_argument("--num-heads", type=int, default=8)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--input-length", type=int, default=12)
    parser.add_argument("--short-budget", type=int, default=8, help="decode budget of short requests")
    parser.add_argument("--long-budget", type=int, default=64, help="decode budget of long requests")
    parser.add_argument("--long-every", type=int, default=4, help="every Nth request is long")
    parser.add_argument("--burst-size", type=int, default=16, help="requests in the throughput burst")
    parser.add_argument("--trace-size", type=int, default=16, help="requests in the open-loop trace")
    parser.add_argument("--arrival-interval-ms", type=float, default=40.0, help="open-loop arrival spacing")
    parser.add_argument("--max-slots", type=int, default=4, help="continuous batch slots / static batch size")
    parser.add_argument("--page-size", type=int, default=16)
    parser.add_argument("--window-ms", type=float, default=20.0, help="static batcher collect window")
    parser.add_argument("--latency-factor", type=float, default=1.5, help="required short-request p50 improvement")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    model = build_model(args)
    rng = np.random.default_rng(args.seed)
    # Warm-up: BLAS pool start-up and position-bias memo population must not
    # bias whichever scheduler runs first.
    model.generate(rng.integers(4, args.vocab_size, size=(1, args.input_length)), max_length=2, use_cache=True)

    # -- throughput: saturated mixed-budget burst --------------------------------------
    burst = make_trace(args, args.burst_size, rng)
    useful_tokens = sum(request["budget"] for request in burst)
    static_seconds, static_outputs = serve_static_burst(model, burst, args.max_slots)
    continuous_seconds, continuous_outputs, loop_stats = serve_continuous_burst(
        model, burst, args.max_slots, args.page_size
    )
    throughput = {
        "requests": len(burst),
        "useful_tokens": useful_tokens,
        "static_row_steps": sum(
            max(r["budget"] for r in burst[b : b + args.max_slots]) * len(burst[b : b + args.max_slots])
            for b in range(0, len(burst), args.max_slots)
        ),
        "continuous_row_steps": useful_tokens,
        "static_seconds": round(static_seconds, 6),
        "continuous_seconds": round(continuous_seconds, 6),
        "static_tokens_per_sec": round(useful_tokens / static_seconds, 2),
        "continuous_tokens_per_sec": round(useful_tokens / continuous_seconds, 2),
        "speedup": round(static_seconds / continuous_seconds, 3),
    }

    # -- equivalence: every continuous output == its solo naive oracle ----------------
    oracles = [solo_oracle(model, request) for request in burst]
    burst_equal = all(np.array_equal(out, oracle) for out, oracle in zip(continuous_outputs, oracles))
    static_equal = all(np.array_equal(out, oracle) for out, oracle in zip(static_outputs, oracles))

    # -- latency: open-loop mixed trace ------------------------------------------------
    trace = make_trace(args, args.trace_size, rng)
    interval_s = args.arrival_interval_ms / 1000.0
    static_records = run_open_loop_static(model, trace, interval_s, args.max_slots, args.window_ms / 1000.0)
    continuous_records = run_open_loop_continuous(model, trace, interval_s, args.max_slots, args.page_size)
    trace_equal = all(
        np.array_equal(record["output"], solo_oracle(model, record)) for record in continuous_records
    )

    def summarize(records: list[dict]) -> dict:
        shorts = [record["latency_s"] for record in records if not record["long"]]
        longs = [record["latency_s"] for record in records if record["long"]]
        return {
            "short_p50_ms": percentile_ms(shorts, 50),
            "short_p95_ms": percentile_ms(shorts, 95),
            "long_p50_ms": percentile_ms(longs, 50),
            "mean_ms": percentile_ms([record["latency_s"] for record in records], 50),
        }

    # -- record-only: paged continuous vs lock-step at uniform budgets ------------------
    uniform = [measure_uniform(model, args, rng, size) for size in UNIFORM_SIZES]
    uniform_equal = all(entry["outputs_equal"] for entry in uniform)

    static_latency = summarize(static_records)
    continuous_latency = summarize(continuous_records)
    improvement = static_latency["short_p50_ms"] / max(continuous_latency["short_p50_ms"], 1e-9)
    latency = {
        "requests": len(trace),
        "arrival_interval_ms": args.arrival_interval_ms,
        "short_budget": args.short_budget,
        "long_budget": args.long_budget,
        "static": static_latency,
        "continuous": continuous_latency,
        "short_p50_improvement": round(improvement, 3),
        "required_improvement": args.latency_factor,
    }

    results = {
        "benchmark": "continuous_batching",
        "model": {
            "d_model": args.d_model,
            "num_heads": args.num_heads,
            "num_encoder_layers": args.num_layers,
            "num_decoder_layers": args.num_layers,
            "vocab_size": args.vocab_size,
            "parameters": model.num_parameters(),
        },
        "max_slots": args.max_slots,
        "page_size": args.page_size,
        "throughput": throughput,
        "latency": latency,
        "uniform": uniform,
        "equivalence": {
            "burst_sequences": len(burst),
            "trace_sequences": len(continuous_records),
            "continuous_matches_naive_oracle": bool(burst_equal and trace_equal),
            "static_matches_naive_oracle": bool(static_equal),
            "uniform_paged_matches_lockstep": uniform_equal,
        },
        "scheduler": loop_stats,
    }
    args.output.write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")

    print(
        f"throughput: static {throughput['static_tokens_per_sec']:>8.1f} tok/s | "
        f"continuous {throughput['continuous_tokens_per_sec']:>8.1f} tok/s | "
        f"speedup {throughput['speedup']:.2f}x "
        f"(row-steps {throughput['static_row_steps']} -> {throughput['continuous_row_steps']})"
    )
    print(
        f"   latency: short p50 static {static_latency['short_p50_ms']:>8.1f} ms | "
        f"continuous {continuous_latency['short_p50_ms']:>8.1f} ms | "
        f"improvement {improvement:.2f}x (required {args.latency_factor:.1f}x)"
    )
    for entry in uniform:
        print(
            f"   uniform: B={entry['batch_size']:<3d} paged {entry['paged_tokens_per_sec']:>8.1f} tok/s | "
            f"lock-step {entry['lockstep_tokens_per_sec']:>8.1f} tok/s | "
            f"paged/lock-step {entry['paged_vs_lockstep']:.2f}x (record-only)"
        )
    print(
        f"equivalence: continuous==naive {results['equivalence']['continuous_matches_naive_oracle']} | "
        f"static==naive {results['equivalence']['static_matches_naive_oracle']}"
    )
    print(f"wrote {args.output}")

    failures = []
    if throughput["speedup"] < 1.0:
        failures.append(
            f"throughput: continuous batching is slower than static batching ({throughput['speedup']:.2f}x)"
        )
    if improvement < args.latency_factor:
        failures.append(
            f"latency: short-request p50 improved only {improvement:.2f}x "
            f"(required {args.latency_factor:.1f}x)"
        )
    if not (burst_equal and trace_equal):
        failures.append("equivalence: a continuous output diverged from its solo use_cache=False oracle")
    if not uniform_equal:
        failures.append("equivalence: a paged output diverged from lock-step generate(use_cache=True)")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
