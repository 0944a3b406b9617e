"""The benchmark's inputs: one fixed data universe, and seeded request streams.

The universe (database pool, nvBench-style examples, FeVisQA pairs, the
corpus-QA document index and the model's vocabulary) is generated from the
constant :data:`UNIVERSE_SEED`, so every run serves the same model.  The
``--seed`` of a run only chooses which requests the workload sends and in
what order: two seeds exercise the same code on different inputs, and the
run-to-run spread measures the program, not a different model per seed.

The serving code sees only the :class:`~repro.serving.protocol.Request`
objects these generators produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DataVisT5Config
from repro.core.model import DataVisT5
from repro.datasets.corpus import CorpusIndex, fevisqa_document_corpus
from repro.datasets.fevisqa import FeVisQAExample, generate_fevisqa
from repro.datasets.nvbench import NvBenchExample, generate_nvbench
from repro.datasets.spider import SyntheticDatabasePool, build_database_pool
from repro.serving.protocol import Request

UNIVERSE_SEED = 0

#: The re-anchor model: d_model 256, 8 heads, d_ff 512, 2+2 layers, float64.
MODEL_SHAPE = {"d_model": 256, "num_heads": 8, "d_ff": 512, "num_encoder_layers": 2, "num_decoder_layers": 2}


@dataclass
class Universe:
    """Everything generated before serving starts; identical in every run."""

    pool: SyntheticDatabasePool
    nvbench: list[NvBenchExample]
    fevisqa: list[FeVisQAExample]
    corpus: CorpusIndex

    def vocabulary_texts(self) -> list[str]:
        """The texts the tokenizer vocabulary is built from."""
        texts = []
        for example in self.nvbench:
            texts.extend((example.question, example.query_text, example.description))
        for example in self.fevisqa:
            texts.extend((example.question, example.answer))
        return texts


def build_universe() -> Universe:
    """Generate the database pool, nvBench, FeVisQA and the corpus index."""
    pool = build_database_pool(seed=UNIVERSE_SEED)
    nvbench = generate_nvbench(pool=pool, seed=UNIVERSE_SEED)
    fevisqa = generate_fevisqa(nvbench, seed=UNIVERSE_SEED)
    corpus = CorpusIndex(fevisqa_document_corpus(fevisqa.examples))
    return Universe(pool=pool, nvbench=list(nvbench.examples), fevisqa=list(fevisqa.examples), corpus=corpus)


def build_model(universe: Universe, budget: int) -> DataVisT5:
    """An untrained float64 DataVisT5 whose decode budget is ``budget`` tokens.

    Untrained weights rarely emit EOS, so the budget, not the weights, sets
    how many tokens each request decodes.
    """
    config = DataVisT5Config(
        **MODEL_SHAPE, max_decode_length=budget, precision="float64", seed=UNIVERSE_SEED
    )
    return DataVisT5.from_corpus(universe.vocabulary_texts(), config=config)


def request_key(request: Request) -> tuple:
    """A request's identity: two requests with the same key are repeats."""
    schema = request.schema
    schema_id = getattr(schema, "name", schema)
    return (request.task, request.question, str(request.chart), str(schema_id), request.table)


class _Draws:
    """Seeded draws from the universe that never hand out the same request twice."""

    def __init__(self, universe: Universe, rng: np.random.Generator):
        self.universe = universe
        self.rng = rng
        self._seen: set[tuple] = set()
        self._orders: dict[str, list[int]] = {}
        self._cursor: dict[str, int] = {}

    def _next_index(self, stream: str, size: int) -> int:
        order = self._orders.get(stream)
        if order is None:
            order = [int(index) for index in self.rng.permutation(size)]
            self._orders[stream] = order
            self._cursor[stream] = 0
        if self._cursor[stream] >= len(order):
            raise RuntimeError(f"request stream {stream!r} ran out of unique inputs")
        index = order[self._cursor[stream]]
        self._cursor[stream] += 1
        return index

    def fresh(self, task: str) -> Request:
        """The next request of ``task`` that was never drawn before."""
        while True:
            request = self._build(task)
            key = request_key(request)
            if key not in self._seen:
                self._seen.add(key)
                return request

    def _build(self, task: str) -> Request:
        universe = self.universe
        if task in ("text_to_vis", "vis_to_text"):
            example = universe.nvbench[self._next_index(task, len(universe.nvbench))]
            schema = universe.pool.get(example.db_id).schema
            if task == "text_to_vis":
                return Request(task=task, question=example.question, schema=schema)
            return Request(task=task, chart=example.query_text, schema=schema)
        example = universe.fevisqa[self._next_index(task, len(universe.fevisqa))]
        if task == "fevisqa":
            return fevisqa_request(example)
        return Request(task="corpus_qa", question=example.question)


def fevisqa_request(example: FeVisQAExample) -> Request:
    """A FeVisQA request asking ``example``'s question of its chart."""
    return Request(
        task="fevisqa",
        question=example.question,
        chart=example.query_text,
        schema=example.schema_text,
        table=example.table_text,
    )


class BatchEvalInputs:
    """Bursts of unique requests: a third each of text_to_vis, vis_to_text, fevisqa."""

    TASKS = ("text_to_vis", "vis_to_text", "fevisqa")

    def __init__(self, universe: Universe, seed: int, burst_size: int):
        if burst_size % len(self.TASKS):
            raise ValueError(f"burst_size must be a multiple of {len(self.TASKS)}")
        self._draws = _Draws(universe, np.random.default_rng([seed, 1]))
        self.burst_size = burst_size

    def next_burst(self, size: int | None = None) -> list[Request]:
        """The next burst (``burst_size`` requests unless ``size`` is given).

        No request repeats any request drawn before.
        """
        count = self.burst_size if size is None else size
        return [self._draws.fresh(self.TASKS[index % len(self.TASKS)]) for index in range(count)]


def _on_schedule(index: int, share: float) -> bool:
    """Whether item ``index`` of a stream is a repeat, for an exact ``share``.

    Repeats fall at evenly spaced positions (every fifth item for 20%), so
    every seed sends the same number of them; the seed chooses what repeats.
    """
    return int((index + 1) * share) > int(index * share)


class AssistantInputs:
    """One interactive request at a time; 20% repeat an earlier request.

    New requests cycle text_to_vis, vis_to_text, fevisqa and corpus_qa.  A
    repeat is drawn uniformly from every request handed out before it, some
    of which may still be in flight, so repeats exercise both the response
    cache and in-flight coalescing.
    """

    TASKS = ("text_to_vis", "vis_to_text", "fevisqa", "corpus_qa")
    REPEAT_SHARE = 0.2

    def __init__(self, universe: Universe, seed: int):
        self._draws = _Draws(universe, np.random.default_rng([seed, 2]))
        self._rng = np.random.default_rng([seed, 3])
        self._issued: list[Request] = []
        self._sent = 0

    def warmup(self) -> list[Request]:
        """One new request per task, sent before the measured stream starts."""
        requests = [self._draws.fresh(task) for task in self.TASKS]
        self._issued.extend(requests)
        return requests

    def next(self) -> Request:
        """The next request of the measured stream."""
        if _on_schedule(self._sent, self.REPEAT_SHARE) and self._issued:
            request = self._issued[int(self._rng.integers(len(self._issued)))]
        else:
            request = self._draws.fresh(self.TASKS[self._sent % len(self.TASKS)])
        self._sent += 1
        self._issued.append(request)
        return request


class DashboardInputs:
    """Dashboards of one database: a caption and a question for each of 4 charts.

    30% of dashboards revisit one shown before (all 8 requests repeat).  A
    new dashboard shows charts no earlier dashboard showed, so whether a
    request repeats is set by the revisit schedule alone.
    """

    CHARTS = 4
    REVISIT_SHARE = 0.3

    def __init__(self, universe: Universe, seed: int):
        self._rng = np.random.default_rng([seed, 4])
        self._pool = universe.pool
        by_chart: dict[tuple[str, str], list[FeVisQAExample]] = {}
        for example in universe.fevisqa:
            by_chart.setdefault((example.db_id, example.query_text), []).append(example)
        self._unshown: dict[str, list[tuple[str, list[FeVisQAExample]]]] = {}
        for (db_id, chart), questions in sorted(by_chart.items()):
            self._unshown.setdefault(db_id, []).append((chart, questions))
        self._shown: list[list[Request]] = []
        self._sent = 0

    def warmup(self) -> list[Request]:
        """A new dashboard, sent before the measured stream starts."""
        dashboard = self._new_dashboard()
        self._shown.append(dashboard)
        return dashboard

    def next(self) -> list[Request]:
        """The next dashboard's 8 requests."""
        if _on_schedule(self._sent, self.REVISIT_SHARE) and self._shown:
            dashboard = self._shown[int(self._rng.integers(len(self._shown)))]
        else:
            dashboard = self._new_dashboard()
        self._sent += 1
        self._shown.append(dashboard)
        return dashboard

    def _new_dashboard(self) -> list[Request]:
        databases = sorted(db for db, charts in self._unshown.items() if len(charts) >= self.CHARTS)
        if not databases:
            raise RuntimeError("dashboard stream ran out of unshown charts")
        db_id = databases[int(self._rng.integers(len(databases)))]
        charts = self._unshown[db_id]
        picks = sorted((int(position) for position in self._rng.choice(len(charts), size=self.CHARTS, replace=False)), reverse=True)
        schema = self._pool.get(db_id).schema
        dashboard = []
        for position in picks:
            chart, questions = charts.pop(position)
            question = questions[int(self._rng.integers(len(questions)))]
            dashboard.append(Request(task="vis_to_text", chart=chart, schema=schema))
            dashboard.append(fevisqa_request(question))
        return dashboard
