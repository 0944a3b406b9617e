"""A T5-style encoder--decoder transformer language model.

The architecture follows the original T5 design: pre-RMSNorm residual blocks,
relative position biases shared across layers, tied input/output embeddings
and a decoder fed with the target sequence shifted right by one position.
Model sizes are configurable through :class:`TransformerConfig`; the defaults
are tiny so the reproduction trains in CPU-seconds.

Generation decodes incrementally with per-layer K/V caches
(:mod:`repro.nn.decode_cache`) and a fully batched beam search; the naive
loops that re-decode the whole prefix every step are retained behind
``use_cache=False`` as the reference implementation the decode-equivalence
test suite checks against.

Inference precision is a :meth:`T5Model.generate` knob: ``dtype="float32"``
runs the whole decode (encoder pass included) under
:func:`repro.nn.tensor.autocast`, and :meth:`T5Model.quantize_int8` converts
every projection weight and the shared embedding to symmetric int8 storage.
Training always stays float64 — see ``docs/numerics.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelConfigError
from repro.nn import functional as F
from repro.nn.attention import MultiHeadAttention, RelativePositionBias
from repro.nn.decode_cache import DecodeCache, LayerKVCache, PagedKVArena, PagedSequence
from repro.nn.layers import Dropout, Embedding, FeedForward, Module, RMSNorm, cast_cached
from repro.nn.tensor import Tensor, autocast, compute_dtype, no_grad
from repro.utils.rng import derive_seed, seeded_rng


@dataclass
class TransformerConfig:
    """Hyper-parameters of the encoder--decoder transformer."""

    vocab_size: int
    d_model: int = 64
    num_heads: int = 4
    d_ff: int = 128
    num_encoder_layers: int = 2
    num_decoder_layers: int = 2
    dropout: float = 0.0
    activation: str = "relu"
    relative_attention_num_buckets: int = 16
    relative_attention_max_distance: int = 64
    max_decode_length: int = 96
    pad_id: int = 0
    eos_id: int = 1
    bos_id: int = 3
    seed: int = 0

    def validate(self) -> None:
        """Raise :class:`ModelConfigError` on inconsistent hyper-parameters."""
        if self.vocab_size <= 0:
            raise ModelConfigError("vocab_size must be positive")
        if self.d_model % self.num_heads != 0:
            raise ModelConfigError("d_model must be divisible by num_heads")
        if self.num_encoder_layers < 1 or self.num_decoder_layers < 1:
            raise ModelConfigError("at least one encoder and one decoder layer are required")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelConfigError("dropout must be in [0, 1)")


class EncoderLayer(Module):
    """Self-attention + feed-forward block with pre-norm residuals."""

    def __init__(self, config: TransformerConfig, seed: int):
        super().__init__()
        rng = seeded_rng(seed)
        self.self_attention = MultiHeadAttention(config.d_model, config.num_heads, config.dropout, seed=rng)
        self.norm_attention = RMSNorm(config.d_model)
        self.feed_forward = FeedForward(config.d_model, config.d_ff, config.activation, config.dropout, seed=rng)
        self.norm_feed_forward = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=rng)

    def forward(self, hidden: Tensor, mask: np.ndarray | None, position_bias: Tensor | None) -> Tensor:
        """Self-attention then feed-forward, each behind a pre-norm residual."""
        normed = self.norm_attention(hidden)
        attended = self.self_attention(normed, normed, normed, mask=mask, position_bias=position_bias)
        hidden = hidden + self.dropout(attended)
        normed = self.norm_feed_forward(hidden)
        hidden = hidden + self.dropout(self.feed_forward(normed))
        return hidden


class DecoderLayer(Module):
    """Causal self-attention + cross-attention + feed-forward block."""

    def __init__(self, config: TransformerConfig, seed: int):
        super().__init__()
        rng = seeded_rng(seed)
        self.self_attention = MultiHeadAttention(config.d_model, config.num_heads, config.dropout, seed=rng)
        self.norm_self = RMSNorm(config.d_model)
        self.cross_attention = MultiHeadAttention(config.d_model, config.num_heads, config.dropout, seed=rng)
        self.norm_cross = RMSNorm(config.d_model)
        self.feed_forward = FeedForward(config.d_model, config.d_ff, config.activation, config.dropout, seed=rng)
        self.norm_feed_forward = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=rng)

    def forward(
        self,
        hidden: Tensor,
        encoder_hidden: Tensor | None,
        self_mask: np.ndarray | None,
        cross_mask: np.ndarray | None,
        position_bias: Tensor | None,
        layer_cache: LayerKVCache | None = None,
    ) -> Tensor:
        """Causal self-attention, cross-attention and feed-forward, pre-norm residuals throughout."""
        self_cache = layer_cache.self_attention if layer_cache is not None else None
        cross_cache = layer_cache.cross_attention if layer_cache is not None else None
        normed = self.norm_self(hidden)
        attended = self.self_attention(
            normed, normed, normed, mask=self_mask, position_bias=position_bias, kv_cache=self_cache
        )
        hidden = hidden + self.dropout(attended)
        normed = self.norm_cross(hidden)
        cross = self.cross_attention(normed, encoder_hidden, encoder_hidden, mask=cross_mask, kv_cache=cross_cache)
        hidden = hidden + self.dropout(cross)
        normed = self.norm_feed_forward(hidden)
        hidden = hidden + self.dropout(self.feed_forward(normed))
        return hidden


class TransformerEncoder(Module):
    """Stack of encoder layers with a shared relative position bias."""

    def __init__(self, config: TransformerConfig, embedding: Embedding):
        super().__init__()
        self.config = config
        self.embedding = embedding
        self.layers = [EncoderLayer(config, derive_seed(config.seed, "encoder", i)) for i in range(config.num_encoder_layers)]
        self.position_bias = RelativePositionBias(
            config.num_heads,
            config.relative_attention_num_buckets,
            config.relative_attention_max_distance,
            bidirectional=True,
            seed=derive_seed(config.seed, "encoder_bias"),
        )
        self.final_norm = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=derive_seed(config.seed, "encoder_dropout"))

    def forward(self, input_ids: np.ndarray, attention_mask: np.ndarray | None = None) -> Tensor:
        """Embed and encode ``input_ids``; padding is masked out of attention."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if attention_mask is None:
            attention_mask = input_ids != self.config.pad_id
        hidden = self.dropout(self.embedding(input_ids))
        length = input_ids.shape[1]
        bias = self.position_bias(length, length)
        keep = np.asarray(attention_mask, dtype=bool)[:, None, :]  # (B, 1, T)
        for layer in self.layers:
            hidden = layer(hidden, keep, bias)
        return self.final_norm(hidden)


class TransformerDecoder(Module):
    """Stack of decoder layers with causal masking and cross attention."""

    def __init__(self, config: TransformerConfig, embedding: Embedding):
        super().__init__()
        self.config = config
        self.embedding = embedding
        self.layers = [DecoderLayer(config, derive_seed(config.seed, "decoder", i)) for i in range(config.num_decoder_layers)]
        self.position_bias = RelativePositionBias(
            config.num_heads,
            config.relative_attention_num_buckets,
            config.relative_attention_max_distance,
            bidirectional=False,
            seed=derive_seed(config.seed, "decoder_bias"),
        )
        self.final_norm = RMSNorm(config.d_model)
        self.dropout = Dropout(config.dropout, seed=derive_seed(config.seed, "decoder_dropout"))

    def forward(
        self,
        decoder_input_ids: np.ndarray,
        encoder_hidden: Tensor | None,
        encoder_attention_mask: np.ndarray | None = None,
        decoder_attention_mask: np.ndarray | None = None,
        cache: DecodeCache | None = None,
    ) -> Tensor:
        """Decode ``decoder_input_ids`` (the full target prefix, or — with a
        ``cache`` — only the not-yet-cached newest tokens).

        With a cache, position biases and the causal mask are offset by the
        cached length, self-attention K/V of the new tokens is appended to the
        cache, and cross-attention K/V is computed once and reused — after the
        first cached step ``encoder_hidden`` may be ``None``; a provided
        ``decoder_attention_mask`` must cover cached plus new positions.
        """
        decoder_input_ids = np.asarray(decoder_input_ids, dtype=np.int64)
        batch, length = decoder_input_ids.shape
        offset = 0
        layer_caches: list[LayerKVCache | None] = [None] * len(self.layers)
        if cache is not None:
            if len(cache) != len(self.layers):
                raise ModelConfigError(
                    f"DecodeCache has {len(cache)} layers, decoder has {len(self.layers)}"
                )
            offset = cache.length
            layer_caches = list(cache.layers)
        key_length = offset + length
        hidden = self.dropout(self.embedding(decoder_input_ids))
        bias = self.position_bias(length, key_length, query_offset=offset)

        if decoder_attention_mask is not None:
            causal = F.causal_mask(length, key_length)[None, :, :]  # (1, T, offset + T)
            pad_keep = np.asarray(decoder_attention_mask, dtype=bool)[:, None, :]
            self_mask = causal & pad_keep
        elif length == 1:
            # A single new token attends the entire cached prefix plus itself:
            # the causal row is all-True, so masking would be a no-op.
            self_mask = None
        else:
            causal = F.causal_mask(length, key_length)[None, :, :]
            self_mask = np.broadcast_to(causal, (batch, length, key_length))

        if encoder_attention_mask is not None:
            cross_mask = np.asarray(encoder_attention_mask, dtype=bool)[:, None, :]
        else:
            cross_mask = None

        for layer, layer_cache in zip(self.layers, layer_caches):
            hidden = layer(hidden, encoder_hidden, self_mask, cross_mask, bias, layer_cache=layer_cache)
        return self.final_norm(hidden)


class T5Model(Module):
    """The full encoder--decoder LM with tied embeddings and an LM head."""

    def __init__(self, config: TransformerConfig):
        super().__init__()
        config.validate()
        self.config = config
        self.shared_embedding = Embedding(config.vocab_size, config.d_model, seed=derive_seed(config.seed, "embedding"))
        self.encoder = TransformerEncoder(config, self.shared_embedding)
        self.decoder = TransformerDecoder(config, self.shared_embedding)

    # -- training ------------------------------------------------------------
    def shift_right(self, labels: np.ndarray) -> np.ndarray:
        """Build decoder inputs by prepending BOS and dropping the final token."""
        labels = np.asarray(labels, dtype=np.int64)
        shifted = np.full_like(labels, self.config.pad_id)
        shifted[:, 0] = self.config.bos_id
        shifted[:, 1:] = labels[:, :-1]
        # Padding in the labels must stay padding in the inputs.
        shifted = np.where(shifted == self.config.pad_id, self.config.pad_id, shifted)
        return shifted

    def forward(
        self,
        input_ids: np.ndarray,
        labels: np.ndarray | None = None,
        decoder_input_ids: np.ndarray | None = None,
        attention_mask: np.ndarray | None = None,
    ) -> dict:
        """Run the model; returns a dict with ``logits`` and optionally ``loss``."""
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if attention_mask is None:
            attention_mask = input_ids != self.config.pad_id
        if decoder_input_ids is None:
            if labels is None:
                raise ModelConfigError("either labels or decoder_input_ids must be provided")
            decoder_input_ids = self.shift_right(labels)
        decoder_mask = decoder_input_ids != self.config.pad_id
        decoder_mask[:, 0] = True  # BOS is always attended

        encoder_hidden = self.encoder(input_ids, attention_mask)
        decoder_hidden = self.decoder(decoder_input_ids, encoder_hidden, attention_mask, decoder_mask)
        logits = self.lm_logits(decoder_hidden)
        output = {"logits": logits, "encoder_hidden": encoder_hidden}
        if labels is not None:
            output["loss"] = F.sequence_cross_entropy(logits, labels, pad_id=self.config.pad_id)
        return output

    def lm_logits(self, decoder_hidden: Tensor | np.ndarray) -> Tensor | np.ndarray:
        """Project decoder states onto the vocabulary with the tied embedding.

        A plain-array input gets a plain-array result (array mode, see
        :mod:`repro.nn.layers`).
        """
        scale = self.config.d_model**-0.5
        is_array = isinstance(decoder_hidden, np.ndarray)
        # Calibration attaches an observer to the shared embedding to record
        # the tied head's *input* activations (repro.nn.calibration) — the
        # embedding's quantization error hurts decoding through this
        # projection, so its equalization is driven by these channels.
        observer = self.shared_embedding.__dict__.get("_activation_observer")
        if observer is not None:
            observer.update((decoder_hidden if is_array else decoder_hidden.data) * scale)
        dtype = compute_dtype()
        if is_array:
            if dtype == np.float64:
                projection = self.shared_embedding.weight.data.transpose()
            else:
                projection = cast_cached(
                    self.shared_embedding, "lm_projection", self.shared_embedding.weight.data, dtype, transform=np.transpose
                )
            return np.asarray((decoder_hidden * np.asarray(scale, dtype=dtype)) @ projection, dtype=dtype)
        if dtype == np.float64:
            return (decoder_hidden * scale) @ self.shared_embedding.weight.transpose()
        # Reduced-precision decode hits this projection once per step, so the
        # transposed cast of the (V, D) master is memoized on the embedding.
        projection = cast_cached(
            self.shared_embedding, "lm_projection", self.shared_embedding.weight.data, dtype, transform=np.transpose
        )
        return (decoder_hidden * scale) @ Tensor(projection)

    # -- quantization ------------------------------------------------------------
    @property
    def quantized(self) -> bool:
        """Whether the model's projection/embedding weights are stored as int8."""
        return self.any_quantized

    # -- generation -------------------------------------------------------------
    def generate(
        self,
        input_ids: np.ndarray,
        max_length: int | None = None,
        num_beams: int = 1,
        length_penalty: float = 1.0,
        use_cache: bool = True,
        dtype: str = "float64",
    ) -> np.ndarray:
        """Generate output token ids (greedy for ``num_beams == 1``, else beam search).

        Output contract (identical for greedy and beam): an int64 array of
        shape ``(batch, L)`` where ``L <= max_length`` is the length of the
        longest generated sequence in the batch (including its EOS token,
        excluding BOS); shorter rows are right-padded with ``pad_id``.

        ``use_cache=True`` (the default) decodes incrementally with per-layer
        K/V caches and — for beam search — expands all beams of all batch rows
        in one forward pass per step.  ``use_cache=False`` runs the naive
        reference loops that re-decode the full prefix every step; both paths
        produce identical token ids (the decode-equivalence suite asserts it).

        ``max_length=None`` means the config's ``max_decode_length``; a
        budget below 1 raises :class:`ModelConfigError`.

        ``dtype`` selects the inference compute dtype (``"float64"`` or
        ``"float32"``); the whole generation — encoder pass, decode steps, KV
        caches — runs under :func:`repro.nn.tensor.autocast` with it.
        Reduced precision can flip near-tied argmax decisions, so fp32 output
        agrees with fp64 to a high but not bitwise rate; the decode benchmark
        measures and gates it (see ``docs/numerics.md``).
        """
        input_ids = np.atleast_2d(np.asarray(input_ids, dtype=np.int64))
        max_length = resolve_decode_budget(max_length, self.config.max_decode_length)
        with autocast(dtype):
            if num_beams <= 1:
                if use_cache:
                    return self._greedy_generate_cached(input_ids, max_length)
                return self._greedy_generate_reference(input_ids, max_length)
            if use_cache:
                rows = self._beam_generate_cached(input_ids, max_length, num_beams, length_penalty)
            else:
                rows = [
                    self._beam_generate_reference(row[None, :], max_length, num_beams, length_penalty)
                    for row in input_ids
                ]
        return _pad_token_rows(rows, self.config.pad_id)

    def paged_decode_batch(
        self, max_slots: int = 8, page_size: int = 16, dtype: str = "float64"
    ) -> "PagedDecodeBatch":
        """Open a step-wise greedy decode batch sequences can join and leave live.

        The returned :class:`PagedDecodeBatch` is the continuous-batching
        entry point: ``admit`` a source row whenever a slot is free (even
        while other sequences are mid-decode), call ``step`` to advance every
        live sequence by one token, and collect finished outputs — each
        bitwise-equal to that row's solo ``generate(..., use_cache=False)``
        decode.  The K/V budget is accounted in ``page_size`` pages by a shared
        :class:`~repro.nn.decode_cache.PagedKVArena`.
        """
        return PagedDecodeBatch(self, max_slots=max_slots, page_size=page_size, dtype=dtype)

    def _log_probs(self, logits: np.ndarray) -> np.ndarray:
        """Log-softmax of one vocabulary row; shared by both beam paths so the
        cached and reference implementations run the exact same float ops."""
        log_probs = logits - logits.max()
        return log_probs - np.log(np.exp(log_probs).sum())

    # -- cached fast paths -------------------------------------------------------
    def _greedy_generate_cached(self, input_ids: np.ndarray, max_length: int) -> np.ndarray:
        """Incremental greedy decoding: each step feeds only the newest token.

        Rows that emit EOS are *evicted* from the live batch (a
        :meth:`DecodeCache.reorder` gather, like beam search shrinking), so
        later steps only pay for unfinished rows — previously finished rows
        kept riding along, burning a full decoder step each on pad tokens.
        Because every per-row computation is independent of which other rows
        share the batch, eviction leaves the surviving rows' outputs
        bitwise-identical (the decode-equivalence suite asserts it).
        """
        batch = input_ids.shape[0]
        attention_mask = input_ids != self.config.pad_id
        with no_grad():
            encoder_hidden = self.encoder(input_ids, attention_mask)
            cache = DecodeCache(len(self.decoder.layers))
            rows: list[list[int]] = [[] for _ in range(batch)]
            active = np.arange(batch)
            live_mask = attention_mask
            encoder_states: Tensor | None = encoder_hidden
            step_tokens = np.full((batch, 1), self.config.bos_id, dtype=np.int64)
            for _ in range(max_length):
                decoder_hidden = self.decoder(step_tokens, encoder_states, live_mask, cache=cache)
                logits = self.lm_logits(decoder_hidden).numpy()[:, -1, :]
                next_tokens = logits.argmax(axis=-1)
                for position, row in enumerate(active):
                    rows[row].append(int(next_tokens[position]))
                keep = next_tokens != self.config.eos_id
                if not keep.any():
                    break
                if not keep.all():
                    survivors = np.flatnonzero(keep)
                    cache.reorder(survivors)
                    live_mask = live_mask[survivors]
                    active = active[survivors]
                    next_tokens = next_tokens[survivors]
                # The cross cache is warm after the first step; later steps
                # skip materializing encoder states they would ignore.
                encoder_states = None
                step_tokens = next_tokens[:, None]
        width = max((len(row) for row in rows), default=0)
        sequences = np.full((batch, width), self.config.pad_id, dtype=np.int64)
        for index, row in enumerate(rows):
            sequences[index, : len(row)] = row
        return sequences

    def _beam_generate_cached(
        self, input_ids: np.ndarray, max_length: int, num_beams: int, length_penalty: float
    ) -> list[list[int]]:
        """Batched beam search: one cached forward pass expands every live beam
        of every batch row, then per-row candidate selection replicates the
        reference semantics (same expansion order, same stable sort)."""
        batch = input_ids.shape[0]
        attention_mask = input_ids != self.config.pad_id
        with no_grad():
            encoder_hidden = self.encoder(input_ids, attention_mask).numpy()
            # rows[r] is the beam list of batch row r: (tokens, score, done),
            # kept sorted exactly as the reference implementation keeps it.
            rows: list[list[tuple[list[int], float, bool]]] = [
                [([self.config.bos_id], 0.0, False)] for _ in range(batch)
            ]
            cache = DecodeCache(len(self.decoder.layers))
            # Flat layout of the upcoming forward pass: one entry per live beam.
            active: list[tuple[int, int]] = [(r, 0) for r in range(batch)]
            for _ in range(max_length):
                if not active:
                    break
                flat_of = {entry: flat for flat, entry in enumerate(active)}
                row_index = np.fromiter((r for r, _ in active), dtype=np.int64)
                step_tokens = np.asarray([[rows[r][b][0][-1]] for r, b in active], dtype=np.int64)
                # The cross-attention cache is warm after the first step, so
                # later steps skip gathering encoder states they would ignore.
                encoder_states = Tensor(encoder_hidden[row_index]) if cache.length == 0 else None
                decoder_hidden = self.decoder(
                    step_tokens,
                    encoder_states,
                    attention_mask[row_index],
                    cache=cache,
                )
                logits = self.lm_logits(decoder_hidden).numpy()[:, -1, :]
                next_active: list[tuple[int, int]] = []
                gather: list[int] = []
                for r in sorted({r for r, _ in active}):
                    candidates: list[tuple[list[int], float, bool]] = []
                    parents: list[int | None] = []
                    for b, (tokens, score, done) in enumerate(rows[r]):
                        if done:
                            candidates.append((tokens, score, True))
                            parents.append(None)
                            continue
                        log_probs = self._log_probs(logits[flat_of[(r, b)]])
                        top = np.argsort(log_probs)[::-1][:num_beams]
                        for token in top:
                            candidates.append(
                                (tokens + [int(token)], score + float(log_probs[token]), int(token) == self.config.eos_id)
                            )
                            parents.append(flat_of[(r, b)])
                    order = sorted(
                        range(len(candidates)),
                        key=lambda i: candidates[i][1] / (max(len(candidates[i][0]) - 1, 1) ** length_penalty),
                        reverse=True,
                    )[:num_beams]
                    rows[r] = [candidates[i] for i in order]
                    for b, i in enumerate(order):
                        if not candidates[i][2]:
                            next_active.append((r, b))
                            gather.append(parents[i])
                cache.reorder(np.asarray(gather, dtype=np.int64))
                active = next_active
        return [rows[r][0][0][1:][:max_length] for r in range(batch)]

    # -- naive reference implementations ------------------------------------------
    def _greedy_generate_reference(self, input_ids: np.ndarray, max_length: int) -> np.ndarray:
        """The O(L^2) greedy loop: re-decodes the full prefix every step."""
        batch = input_ids.shape[0]
        attention_mask = input_ids != self.config.pad_id
        with no_grad():
            encoder_hidden = self.encoder(input_ids, attention_mask)
            sequences = np.full((batch, 1), self.config.bos_id, dtype=np.int64)
            finished = np.zeros(batch, dtype=bool)
            for _ in range(max_length):
                decoder_hidden = self.decoder(sequences, encoder_hidden, attention_mask)
                logits = self.lm_logits(decoder_hidden).numpy()[:, -1, :]
                next_tokens = logits.argmax(axis=-1)
                next_tokens = np.where(finished, self.config.pad_id, next_tokens)
                sequences = np.concatenate([sequences, next_tokens[:, None]], axis=1)
                finished |= next_tokens == self.config.eos_id
                if finished.all():
                    break
        return sequences[:, 1:]

    def _beam_generate_reference(
        self, input_ids: np.ndarray, max_length: int, num_beams: int, length_penalty: float
    ) -> list[int]:
        """One-row, one-beam-at-a-time beam search; the equivalence oracle."""
        attention_mask = input_ids != self.config.pad_id
        with no_grad():
            encoder_hidden = self.encoder(input_ids, attention_mask)
            beams: list[tuple[list[int], float, bool]] = [([self.config.bos_id], 0.0, False)]
            for _ in range(max_length):
                candidates: list[tuple[list[int], float, bool]] = []
                for tokens, score, done in beams:
                    if done:
                        candidates.append((tokens, score, True))
                        continue
                    sequence = np.asarray(tokens, dtype=np.int64)[None, :]
                    decoder_hidden = self.decoder(sequence, encoder_hidden, attention_mask)
                    logits = self.lm_logits(decoder_hidden).numpy()[0, -1, :]
                    log_probs = self._log_probs(logits)
                    top = np.argsort(log_probs)[::-1][:num_beams]
                    for token in top:
                        candidates.append(
                            (tokens + [int(token)], score + float(log_probs[token]), int(token) == self.config.eos_id)
                        )
                candidates.sort(key=lambda item: item[1] / (max(len(item[0]) - 1, 1) ** length_penalty), reverse=True)
                beams = candidates[:num_beams]
                if all(done for _, _, done in beams):
                    break
        return beams[0][0][1:][:max_length]


class _PagedSlot:
    """One occupied slot of a :class:`PagedDecodeBatch`: a live sequence's state."""

    __slots__ = ("handle", "sequence", "cross_k", "cross_v", "cross_mask", "tokens", "max_length", "last_token")

    def __init__(
        self,
        handle: int,
        sequence: PagedSequence,
        cross_k: list[np.ndarray],
        cross_v: list[np.ndarray],
        cross_mask: np.ndarray,
        max_length: int,
        bos_id: int,
    ):
        self.handle = handle
        self.sequence = sequence
        self.cross_k = cross_k
        self.cross_v = cross_v
        self.cross_mask = cross_mask
        self.tokens: list[int] = []
        self.max_length = max_length
        self.last_token = bos_id


class PagedDecodeBatch:
    """A live greedy-decode batch that sequences join and leave step by step.

    This is the model-side half of continuous batching
    (:mod:`repro.serving.continuous` owns the scheduling half): up to
    ``max_slots`` sequences decode together, each backed by its own
    :class:`~repro.nn.decode_cache.PagedSequence` over a shared
    :class:`~repro.nn.decode_cache.PagedKVArena`.  :meth:`admit` runs the
    sequence's encoder pass (batch of one — bitwise what a solo decode would
    compute) and projects its static cross-attention K/V; :meth:`step`
    decodes one token for every live sequence in one batched pass; sequences
    finish (EOS or their own length budget) and free their slot and pages
    immediately, without waiting for batch-mates.

    **Equivalence contract:** every sequence's output token ids are bitwise
    identical to its solo ``generate(..., use_cache=False)`` decode,
    regardless of what else shares the batch or when it was admitted.  What
    is float-identical is narrower: a row's hidden states and logits do not
    depend on its batch-mates or admission step — the batched
    sub-computations (embedding, norms, projections, FFN, LM head) are
    per-row independent, a ``(rows, 1, d)`` matmul being a stack of
    ``(1, d)`` matmuls, and attention runs per row over that row's exact
    history (padding histories to a common length would change summation
    grouping; see :meth:`~repro.nn.attention.MultiHeadAttention.attend_rows`).
    They are not bit-equal to the oracle's, which projects the whole prefix
    with one ``M = t`` matmul per step; they differ in the last bits (about
    ``6e-17`` on a d_model-64 model), which has not flipped an argmax in the
    equivalence suites.

    :meth:`step` runs in array mode (see :mod:`repro.nn.layers`): each layer
    it calls computes on plain ndarrays with its Tensor forward's exact op
    sequence, so no autograd wrapper is built per step.  Self-attention reads
    each row's history as a zero-copy
    :meth:`~repro.nn.decode_cache.PagedSequence.view` slice.

    Inference-only: the model must be in eval mode, and every pass runs
    under :func:`~repro.nn.tensor.no_grad` + :func:`~repro.nn.tensor.autocast`
    with the ``dtype`` fixed at construction.
    """

    def __init__(self, model: "T5Model", max_slots: int = 8, page_size: int = 16, dtype: str = "float64"):
        if max_slots < 1:
            raise ModelConfigError("PagedDecodeBatch needs at least one slot")
        if model.training:
            raise ModelConfigError("PagedDecodeBatch is inference-only; call model.eval() first")
        config = model.config
        self.model = model
        self.max_slots = max_slots
        self.dtype = dtype
        self.arena = PagedKVArena(
            num_layers=len(model.decoder.layers),
            num_heads=config.num_heads,
            head_dim=config.d_model // config.num_heads,
            page_size=page_size,
            initial_pages=max_slots,
        )
        self._slots: list[_PagedSlot | None] = [None] * max_slots
        self._next_handle = 0
        #: Every token the most recent :meth:`step` emitted, keyed by
        #: sequence handle (finished sequences included).  The hook token
        #: streaming taps (:mod:`repro.serving.continuous`) read after each
        #: step; reset at the top of the next one.
        self.last_step_tokens: dict[int, int] = {}

    @property
    def active_count(self) -> int:
        """Number of sequences currently decoding."""
        return sum(slot is not None for slot in self._slots)

    @property
    def free_slots(self) -> int:
        """Slots available for :meth:`admit` right now."""
        return self.max_slots - self.active_count

    def admit(self, input_ids: np.ndarray, max_length: int | None = None) -> int:
        """Join ``input_ids`` (one unbatched source row) to the live batch.

        Runs the encoder over the single row and caches each layer's
        projected cross-attention K/V, allocating a free slot; returns the
        sequence's handle (the key :meth:`step` reports completion under).
        ``max_length=None`` means the model's ``max_decode_length``; a budget
        below 1 raises.  Raises :class:`ModelConfigError` when every slot is
        occupied — the serving scheduler checks :attr:`free_slots` and
        queues instead.
        """
        if self.model.training:
            raise ModelConfigError("PagedDecodeBatch is inference-only; call model.eval() first")
        max_length = resolve_decode_budget(max_length, self.model.config.max_decode_length)
        slot_index = next((i for i, slot in enumerate(self._slots) if slot is None), None)
        if slot_index is None:
            raise ModelConfigError(f"no free slot: all {self.max_slots} are decoding")
        input_ids = np.asarray(input_ids, dtype=np.int64)
        if input_ids.ndim != 1:
            raise ModelConfigError("admit() takes one unbatched source row at a time")
        attention_mask = (input_ids != self.model.config.pad_id)[None, :]
        with autocast(self.dtype), no_grad():
            encoder_hidden = self.model.encoder(input_ids[None, :], attention_mask)
            cross_k, cross_v = [], []
            for layer in self.model.decoder.layers:
                k, v = layer.cross_attention.project_static_kv(encoder_hidden)
                cross_k.append(k)
                cross_v.append(v)
        handle = self._next_handle
        self._next_handle += 1
        self._slots[slot_index] = _PagedSlot(
            handle=handle,
            sequence=self.arena.sequence(),
            cross_k=cross_k,
            cross_v=cross_v,
            cross_mask=attention_mask[:, None, None, :],  # (1, 1, 1, source_len) keep mask
            max_length=max_length,
            bos_id=self.model.config.bos_id,
        )
        return handle

    def evict(self, handle: int) -> None:
        """Drop a live sequence (e.g. its caller gave up), freeing slot and pages."""
        for index, slot in enumerate(self._slots):
            if slot is not None and slot.handle == handle:
                slot.sequence.release()
                self._slots[index] = None
                return
        raise ModelConfigError(f"no live sequence with handle {handle}")

    def step(self) -> dict[int, list[int]]:
        """Decode one token for every live sequence; return the newly finished.

        The returned dict maps each finished sequence's handle to its
        complete output token ids (EOS included when emitted, BOS excluded —
        the per-row form of :meth:`T5Model.generate`'s contract).  Finished
        sequences leave the batch before the method returns, so their slots
        and pages are immediately reusable.
        """
        if self.model.training:
            raise ModelConfigError("PagedDecodeBatch is inference-only; call model.eval() first")
        active = [slot for slot in self._slots if slot is not None]
        if not active:
            return {}
        decoder = self.model.decoder
        config = self.model.config
        # The whole step runs in array mode (see repro.nn.layers): every layer
        # gets and returns plain ndarrays, computed with its Tensor forward's
        # ops, so no autograd wrappers are built.
        with autocast(self.dtype), no_grad():
            step_ids = np.asarray([[slot.last_token] for slot in active], dtype=np.int64)
            hidden = decoder.dropout(decoder.embedding(step_ids, as_array=True))
            # Every layer of a step attends the same history length per row:
            # the cached positions plus the token being appended now.
            lengths = [slot.sequence.length + 1 for slot in active]
            biases = [decoder.position_bias.decode_bias(length) for length in lengths]
            for layer_index, layer in enumerate(decoder.layers):
                normed = layer.norm_self(hidden)
                q, k_new, v_new = layer.self_attention.decode_step_qkv(normed)
                keys, values = [], []
                for row, slot in enumerate(active):
                    slot.sequence.append(layer_index, k_new[row : row + 1], v_new[row : row + 1])
                    k_row, v_row = slot.sequence.view(layer_index)
                    keys.append(k_row)
                    values.append(v_row)
                attended = layer.self_attention.attend_rows(q, keys, values, position_biases=biases)
                hidden = hidden + layer.dropout(attended)
                normed = layer.norm_cross(hidden)
                q_cross = layer.cross_attention.decode_step_query(normed)
                cross = layer.cross_attention.attend_rows(
                    q_cross,
                    [slot.cross_k[layer_index] for slot in active],
                    [slot.cross_v[layer_index] for slot in active],
                    masks=[slot.cross_mask for slot in active],
                )
                hidden = hidden + layer.dropout(cross)
                normed = layer.norm_feed_forward(hidden)
                hidden = hidden + layer.dropout(layer.feed_forward(normed))
            hidden = decoder.final_norm(hidden)
            logits = self.model.lm_logits(hidden)[:, -1, :]
        finished: dict[int, list[int]] = {}
        self.last_step_tokens = {}
        for row, slot in enumerate(active):
            token = int(logits[row].argmax())
            self.last_step_tokens[slot.handle] = token
            slot.tokens.append(token)
            slot.last_token = token
            if token == config.eos_id or len(slot.tokens) >= slot.max_length:
                finished[slot.handle] = slot.tokens
                slot.sequence.release()
                self._slots[self._slots.index(slot)] = None
        return finished


def resolve_decode_budget(max_length: int | None, default: int) -> int:
    """Resolve a decode budget: ``None`` is ``default``; below 1 is rejected.

    Only ``None`` selects the default — ``max_length or default`` would
    silently turn an explicit 0 into a full-length decode.
    """
    if max_length is None:
        return default
    if max_length < 1:
        raise ModelConfigError(f"max_length must be at least 1, got {max_length}")
    return max_length


def _pad_token_rows(rows: list[list[int]], pad_id: int) -> np.ndarray:
    """Stack variable-length token rows into a ``(batch, L)`` array, where ``L``
    is the longest row (at least 1 so empty batches keep a well-formed shape)."""
    width = max((len(row) for row in rows), default=1) or 1
    padded = np.full((len(rows), width), pad_id, dtype=np.int64)
    for index, row in enumerate(rows):
        padded[index, : len(row)] = row
    return padded
