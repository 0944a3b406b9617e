"""The array-mode continuous decode step against its Tensor-mode reference.

:meth:`PagedDecodeBatch.step` computes on plain ndarrays (array mode, see
:mod:`repro.nn.layers`).  Its contract is that every row's logits are
bitwise what the Tensor-based step computed: :func:`reference_step` below is
that step, kept verbatim in Tensor form (dense K/V copies, per-row Tensor
attention, unmemoized position biases).  Two batches over one model are
driven through the same admissions and evictions, one by each step, and
their logits compared bit for bit — in float64, under float32 autocast, over
int8 weights and over calibrated int8 (equalized, zero-point and float32-
pinned modules).  A second check counts :class:`Tensor` constructions inside
``step()``: array mode builds none.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn import functional as F
from repro.nn.calibration import QuantPolicy, apply_policy, collect_activation_stats
from repro.nn.tensor import Tensor, autocast, no_grad
from repro.nn.transformer import PagedDecodeBatch, T5Model, TransformerConfig

PAD, EOS = 0, 1
VOCAB = 32
PRECISIONS = ("float64", "float32", "int8", "int8_calibrated")
_MODELS: dict[tuple, T5Model] = {}


def build_model(precision: str, seed: int, num_layers: int, activation: str) -> T5Model:
    """A tiny eval-mode model in ``precision``, memoized across examples."""
    key = (precision, seed, num_layers, activation)
    if key not in _MODELS:
        config = TransformerConfig(
            vocab_size=VOCAB,
            d_model=24,  # not a power of two, so 1/n and head scales are inexact
            num_heads=2,
            d_ff=40,
            num_encoder_layers=num_layers,
            num_decoder_layers=num_layers,
            activation=activation,
            eos_id=EOS,
            seed=seed,
        )
        model = T5Model(config).eval()
        if precision == "int8":
            model.quantize_int8()
        elif precision == "int8_calibrated":
            inputs = np.random.default_rng(seed).integers(2, VOCAB, size=(3, 6))
            stats = collect_activation_stats(model, inputs, max_length=4)
            policy = QuantPolicy(
                modes={"shared_embedding": "int8_asym", "decoder.layers.0.feed_forward.wo": "float32"}
            )
            apply_policy(model, policy, stats)
            model.eval()
        _MODELS[key] = model
    return _MODELS[key]


def compute_dtype_for(precision: str) -> str:
    return "float64" if precision == "float64" else "float32"


# -- the Tensor-mode reference step --------------------------------------------------------
def reference_attend_rows(attention, q, keys, values, masks=None, position_biases=None):
    """Per-row Tensor attention, as the step ran it before array mode."""
    scale = 1.0 / np.sqrt(attention.head_dim)
    attended_rows = []
    for row in range(q.shape[0]):
        q_row = q[row : row + 1]
        scores = (q_row @ Tensor(keys[row]).swapaxes(-1, -2)) * scale
        bias = position_biases[row] if position_biases is not None else None
        if bias is not None:
            scores = scores + bias
        mask = masks[row] if masks is not None else None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            while mask.ndim < 4:
                mask = mask[:, None] if mask.ndim >= 2 else mask[None]
            scores = scores.masked_fill(~mask, -1e9)
        weights = F.softmax(scores, axis=-1)
        weights = attention.dropout(weights)
        attended_rows.append((weights @ Tensor(values[row])).numpy())
    attended = Tensor(np.concatenate(attended_rows, axis=0))
    return attention.out_proj(attention._merge_heads(attended))


def reference_bias(position_bias, key_length: int) -> Tensor:
    """The newest token's bias row, looked up on the graph without the memo."""
    relative = np.arange(key_length)[None, :] - np.arange(key_length - 1, key_length)[:, None]
    bias = position_bias.embedding.embedding_lookup(position_bias._bucket(relative))
    return bias.transpose((2, 0, 1)).reshape(1, position_bias.num_heads, 1, key_length)


def reference_step(batch: PagedDecodeBatch) -> tuple[dict[int, list[int]], np.ndarray | None]:
    """One decode step in Tensor mode; returns ``(finished, logits)``.

    The body of the step before array mode, including its bookkeeping, so
    the batch it drives stays in lockstep with one driven by ``step()``.
    """
    active = [slot for slot in batch._slots if slot is not None]
    if not active:
        return {}, None
    model = batch.model
    decoder = model.decoder
    with autocast(batch.dtype), no_grad():
        step_ids = np.asarray([[slot.last_token] for slot in active], dtype=np.int64)
        hidden = decoder.dropout(decoder.embedding(step_ids))
        for layer_index, layer in enumerate(decoder.layers):
            normed = layer.norm_self(hidden)
            attention = layer.self_attention
            q = attention._split_heads(attention.q_proj(normed))
            k_new = attention._split_heads(attention.k_proj(normed)).numpy()
            v_new = attention._split_heads(attention.v_proj(normed)).numpy()
            keys, values, biases = [], [], []
            for row, slot in enumerate(active):
                slot.sequence.append(layer_index, k_new[row : row + 1], v_new[row : row + 1])
                k_row, v_row = slot.sequence.view(layer_index)
                keys.append(np.ascontiguousarray(k_row))  # the dense gathered copies
                values.append(np.ascontiguousarray(v_row))
                biases.append(reference_bias(decoder.position_bias, slot.sequence.length))
            attended = reference_attend_rows(attention, q, keys, values, position_biases=biases)
            hidden = hidden + layer.dropout(attended)
            normed = layer.norm_cross(hidden)
            cross_attention = layer.cross_attention
            q_cross = cross_attention._split_heads(cross_attention.q_proj(normed))
            cross = reference_attend_rows(
                cross_attention,
                q_cross,
                [slot.cross_k[layer_index] for slot in active],
                [slot.cross_v[layer_index] for slot in active],
                masks=[slot.cross_mask for slot in active],
            )
            hidden = hidden + layer.dropout(cross)
            normed = layer.norm_feed_forward(hidden)
            hidden = hidden + layer.dropout(layer.feed_forward(normed))
        hidden = decoder.final_norm(hidden)
        logits = T5Model.lm_logits(model, hidden).numpy()[:, -1, :]
    finished: dict[int, list[int]] = {}
    for row, slot in enumerate(active):
        token = int(logits[row].argmax())
        slot.tokens.append(token)
        slot.last_token = token
        if token == model.config.eos_id or len(slot.tokens) >= slot.max_length:
            finished[slot.handle] = slot.tokens
            slot.sequence.release()
            batch._slots[batch._slots.index(slot)] = None
    return finished, logits


def recording_step(batch: PagedDecodeBatch, model: T5Model) -> tuple[dict[int, list[int]], np.ndarray | None]:
    """``batch.step()`` plus the logits it computed (read off ``lm_logits``)."""
    seen = []

    def lm_logits(hidden):
        logits = T5Model.lm_logits(model, hidden)
        seen.append(logits)
        return logits

    model.lm_logits = lm_logits
    try:
        finished = batch.step()
    finally:
        del model.lm_logits
    return finished, (seen[0][:, -1, :] if seen else None)


# -- the equivalence property --------------------------------------------------------------
@st.composite
def schedule(draw):
    """Source rows with budgets, plus per-step admit/evict decisions."""
    count = draw(st.integers(min_value=2, max_value=7))
    rows, budgets = [], []
    for _ in range(count):
        width = draw(st.integers(min_value=1, max_value=7))
        row = draw(st.lists(st.integers(min_value=2, max_value=VOCAB - 1), min_size=width, max_size=width))
        if width > 1 and draw(st.booleans()):
            row[-1] = PAD  # padded source: exercises the cross-attention mask
        rows.append(np.asarray(row, dtype=np.int64))
        budgets.append(draw(st.integers(min_value=1, max_value=9)))
    evict_at = draw(st.lists(st.integers(min_value=0, max_value=12), max_size=2))
    return rows, budgets, evict_at


@settings(max_examples=12, deadline=None)
@given(
    plan=schedule(),
    precision=st.sampled_from(PRECISIONS),
    max_slots=st.integers(min_value=1, max_value=4),
    page_size=st.integers(min_value=1, max_value=4),
    num_layers=st.integers(min_value=1, max_value=2),
    activation=st.sampled_from(("relu", "gelu")),
    seed=st.integers(min_value=0, max_value=2),
)
def test_step_logits_bitwise_equal_tensor_reference(plan, precision, max_slots, page_size, num_layers, activation, seed):
    rows, budgets, evict_at = plan
    model = build_model(precision, seed, num_layers, activation)
    dtype = compute_dtype_for(precision)
    fast = model.paged_decode_batch(max_slots=max_slots, page_size=page_size, dtype=dtype)
    reference = model.paged_decode_batch(max_slots=max_slots, page_size=page_size, dtype=dtype)
    pending = list(range(len(rows)))
    handles: list[tuple[int, int]] = []  # (fast handle, reference handle) of live rows
    done = 0
    for step in range(200):
        while pending and fast.free_slots:
            index = pending.pop(0)
            handles.append((fast.admit(rows[index], budgets[index]), reference.admit(rows[index], budgets[index])))
        if step in evict_at and handles:
            victim = handles.pop(0)
            fast.evict(victim[0])
            reference.evict(victim[1])
            done += 1
        fast_finished, fast_logits = recording_step(fast, model)
        ref_finished, ref_logits = reference_step(reference)
        if ref_logits is None:
            assert fast_logits is None
        else:
            assert fast_logits.dtype == ref_logits.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(fast_logits, ref_logits)
        assert [tokens for _, tokens in sorted(fast_finished.items())] == [
            tokens for _, tokens in sorted(ref_finished.items())
        ]
        handles = [pair for pair in handles if pair[0] not in fast_finished]
        done += len(fast_finished)
        if done == len(rows) and not pending:
            break
    assert not pending and not handles
    assert fast.arena.pages_in_use == reference.arena.pages_in_use == 0


def test_page_reuse_and_eviction_stay_bitwise():
    """A deterministic worst case: one-position pages, constant turnover."""
    model = build_model("float64", 0, 2, "relu")
    rng = np.random.default_rng(4)
    rows = [rng.integers(2, VOCAB, size=int(rng.integers(2, 8))).astype(np.int64) for _ in range(9)]
    fast = model.paged_decode_batch(max_slots=3, page_size=1)
    reference = model.paged_decode_batch(max_slots=3, page_size=1)
    pending, steps = list(range(len(rows))), 0
    while pending or fast.active_count:
        while pending and fast.free_slots:
            index = pending.pop(0)
            fast.admit(rows[index], 6)
            reference.admit(rows[index], 6)
        if steps == 2:
            handle = next(slot.handle for slot in fast._slots if slot is not None)
            fast.evict(handle)
            reference.evict(handle)
        _, fast_logits = recording_step(fast, model)
        _, ref_logits = reference_step(reference)
        if ref_logits is not None:
            np.testing.assert_array_equal(fast_logits, ref_logits)
        steps += 1
    assert fast.arena.stats()["page_reuses"] > 0


# -- no wrappers inside the step -----------------------------------------------------------
@pytest.mark.parametrize("precision", PRECISIONS)
def test_step_constructs_no_tensors(monkeypatch, precision):
    model = build_model(precision, 1, 2, "gelu")
    batch = model.paged_decode_batch(max_slots=3, page_size=2, dtype=compute_dtype_for(precision))
    batch.admit(np.array([5, 6, 7, PAD], dtype=np.int64), max_length=5)
    batch.admit(np.array([9, 10], dtype=np.int64), max_length=5)
    constructed = []
    original = Tensor.__init__

    def counting_init(tensor, *args, **kwargs):
        constructed.append(1)
        original(tensor, *args, **kwargs)

    monkeypatch.setattr(Tensor, "__init__", counting_init)
    steps = 0
    while batch.active_count:
        batch.step()
        steps += 1
    assert steps > 1
    assert constructed == []
