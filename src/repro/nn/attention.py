"""Multi-head attention with T5-style relative position biases."""

from __future__ import annotations

import numpy as np

from repro.errors import ModelConfigError
from repro.nn import functional as F
from repro.nn.decode_cache import KVState
from repro.nn.layers import Dropout, Linear, Module, Parameter
from repro.nn.tensor import Tensor, compute_dtype, grad_enabled
from repro.utils.rng import seeded_rng


class RelativePositionBias(Module):
    """The learned bucketed relative-position bias used by T5 attention.

    Instead of absolute position embeddings, T5 adds a learned scalar to each
    attention logit that depends only on the bucketed distance between the
    query and key positions.  Buckets grow logarithmically with distance, and
    the decoder (causal) variant only distinguishes "how far in the past".
    """

    def __init__(
        self,
        num_heads: int,
        num_buckets: int = 32,
        max_distance: int = 128,
        bidirectional: bool = True,
        seed: int | np.random.Generator = 0,
    ):
        super().__init__()
        if num_buckets < 2:
            raise ModelConfigError("relative position bias needs at least 2 buckets")
        rng = seeded_rng(seed)
        self.num_heads = num_heads
        self.num_buckets = num_buckets
        self.max_distance = max_distance
        self.bidirectional = bidirectional
        self.embedding = Parameter(rng.normal(0.0, 0.02, size=(num_buckets, num_heads)))

    def _bucket(self, relative_position: np.ndarray) -> np.ndarray:
        """Map signed relative positions to bucket indices (vectorised)."""
        num_buckets = self.num_buckets
        result = np.zeros_like(relative_position)
        if self.bidirectional:
            num_buckets //= 2
            result = result + (relative_position > 0).astype(np.int64) * num_buckets
            relative_position = np.abs(relative_position)
        else:
            relative_position = -np.minimum(relative_position, 0)
        max_exact = num_buckets // 2
        is_small = relative_position < max_exact
        # Larger distances share logarithmically sized buckets.
        with np.errstate(divide="ignore"):
            relative_if_large = max_exact + (
                np.log(np.maximum(relative_position, 1) / max_exact)
                / np.log(self.max_distance / max_exact)
                * (num_buckets - max_exact)
            ).astype(np.int64)
        relative_if_large = np.minimum(relative_if_large, num_buckets - 1)
        result = result + np.where(is_small, relative_position, relative_if_large)
        return result

    def forward(self, query_length: int, key_length: int, query_offset: int = 0) -> Tensor:
        """Return a bias tensor of shape ``(1, num_heads, query_length, key_length)``.

        ``query_offset`` places the queries at absolute positions
        ``offset .. offset + query_length`` — incremental decoding uses it to
        get the bias row of the newest token only, which is bitwise the same
        as the corresponding row of the full ``(key_length, key_length)`` bias.
        """
        context_position = np.arange(query_offset, query_offset + query_length)[:, None]
        memory_position = np.arange(key_length)[None, :]
        relative_position = memory_position - context_position
        buckets = self._bucket(relative_position)
        bias = self.embedding.embedding_lookup(buckets)  # (Q, K, H)
        return bias.transpose((2, 0, 1)).reshape(1, self.num_heads, query_length, key_length)

    def decode_bias(self, key_length: int) -> np.ndarray:
        """The bias row of the newest of ``key_length`` positions, as a plain array.

        Bitwise ``forward(1, key_length, key_length - 1)`` as a ``(1, heads,
        1, key_length)`` array in the compute dtype — the row a
        continuous-decode step adds to one sequence's self-attention scores.
        That row covers the relative positions ``-(key_length - 1) .. 0``, so
        every length's row is the tail of a longer one: in eval mode under
        :func:`~repro.nn.tensor.no_grad` one row per dtype is memoized
        (regrown by doubling) and sliced.  The memo lives beside the
        module's reduced-precision weight casts, so it is dropped with them
        — on train/eval transitions (which bracket optimizer steps) and by
        :meth:`~repro.nn.layers.Module.invalidate_cast_caches` — and it is
        keyed by the identity of the embedding's data, so a reassigned table
        (``load_state_dict``) misses.  Callers must not write into the
        returned array.
        """
        dtype = np.dtype(compute_dtype())
        if self.training or grad_enabled():
            return self._bias_row(key_length, dtype)
        cache = self.__dict__.setdefault("_cast_cache", {})
        slot = f"decode_bias.{dtype.name}"
        memo = cache.get(slot)
        if memo is None or memo[0] is not self.embedding.data:
            memo = cache[slot] = (self.embedding.data, self._bias_row(key_length, dtype))
        elif memo[1].shape[-1] < key_length:
            memo = cache[slot] = (memo[0], self._bias_row(max(key_length, 2 * memo[1].shape[-1]), dtype))
        row = memo[1]
        return row[..., row.shape[-1] - key_length :]

    def _bias_row(self, key_length: int, dtype: np.dtype) -> np.ndarray:
        buckets = self._bucket(np.arange(key_length)[None, :] - (key_length - 1))
        bias = self.embedding.data[buckets]  # (1, K, H)
        return np.asarray(bias.transpose((2, 0, 1)).reshape(1, self.num_heads, 1, key_length), dtype=dtype)


class MultiHeadAttention(Module):
    """Scaled dot-product attention over several heads, with optional position bias."""

    def __init__(
        self,
        d_model: int,
        num_heads: int,
        dropout: float = 0.0,
        seed: int | np.random.Generator = 0,
    ):
        super().__init__()
        if d_model % num_heads != 0:
            raise ModelConfigError(f"d_model={d_model} not divisible by num_heads={num_heads}")
        rng = seeded_rng(seed)
        self.d_model = d_model
        self.num_heads = num_heads
        self.head_dim = d_model // num_heads
        self.q_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.k_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.v_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.out_proj = Linear(d_model, d_model, bias=False, seed=rng)
        self.dropout = Dropout(dropout, seed=rng)

    def _split_heads(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        batch, length, _ = x.shape
        return x.reshape(batch, length, self.num_heads, self.head_dim).transpose((0, 2, 1, 3))

    def _merge_heads(self, x: Tensor | np.ndarray) -> Tensor | np.ndarray:
        batch, heads, length, head_dim = x.shape
        return x.transpose((0, 2, 1, 3)).reshape(batch, length, heads * head_dim)

    def forward(
        self,
        query: Tensor,
        key: Tensor | None,
        value: Tensor | None,
        mask: np.ndarray | None = None,
        position_bias: Tensor | None = None,
        return_weights: bool = False,
        kv_cache: KVState | None = None,
    ):
        """Attend ``query`` over ``key``/``value``.

        ``mask`` is a boolean *keep* mask broadcastable to
        ``(batch, 1, query_length, key_length)``; masked-out logits receive a
        large negative bias before the softmax.

        ``kv_cache`` switches on the incremental-decode fast path: a static
        cache (cross-attention) projects ``key``/``value`` once and reuses the
        result on later steps — once warm, ``key``/``value`` may be ``None``
        so callers need not materialize unused encoder states; a growing cache
        (self-attention) projects only the tokens passed in and appends them,
        then attends the query over the whole cached history.  Cached
        attention is inference-only.
        """
        q = self._split_heads(self.q_proj(query))
        if kv_cache is None:
            k = self._split_heads(self.k_proj(key))
            v = self._split_heads(self.v_proj(value))
        else:
            if grad_enabled():
                raise ModelConfigError(
                    "KV-cached attention is a decode-only fast path; run it under no_grad()"
                )
            if kv_cache.static:
                if kv_cache.k is None:
                    if key is None:
                        raise ModelConfigError(
                            "a cold static KV cache needs key/value to project from"
                        )
                    kv_cache.set(
                        self._split_heads(self.k_proj(key)).numpy(),
                        self._split_heads(self.v_proj(value)).numpy(),
                    )
            else:
                kv_cache.append(
                    self._split_heads(self.k_proj(key)).numpy(),
                    self._split_heads(self.v_proj(value)).numpy(),
                )
            k = Tensor(kv_cache.k)
            v = Tensor(kv_cache.v)

        scale = 1.0 / np.sqrt(self.head_dim)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        if position_bias is not None:
            scores = scores + position_bias
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            while mask.ndim < 4:
                mask = mask[:, None] if mask.ndim >= 2 else mask[None]
            scores = scores.masked_fill(~mask, -1e9)
        weights = F.softmax(scores, axis=-1)
        weights = self.dropout(weights)
        attended = weights @ v
        output = self.out_proj(self._merge_heads(attended))
        if return_weights:
            return output, weights
        return output

    # -- paged continuous-decode fast path ---------------------------------------------
    # Continuous batching attends each sequence over its *own* exact-length
    # K/V history, because padding histories to a common length changes
    # numpy's pairwise-summation grouping and breaks bitwise equality with
    # the solo decode.  Everything except the score/softmax/value core stays
    # batched across rows — those ops are row-stable (per-row M=1 gemms), so
    # slicing a row out of the batched projections is bitwise-identical to
    # projecting it alone.  These methods work in array mode (see
    # :mod:`repro.nn.layers`): plain ndarrays in and out, the Tensor
    # forward's op sequence, no autograd wrappers.

    def _require_no_grad(self, method: str) -> None:
        if grad_enabled():
            raise ModelConfigError(f"{method} is a decode-only fast path; run it under no_grad()")

    def decode_step_qkv(self, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Project one decode step's batched hidden states into Q/K/V heads.

        ``hidden`` is a ``(rows, 1, d_model)`` array — one new token per
        row.  Returns the split-head query, key and value arrays, each
        ``(rows, heads, 1, head_dim)``; K/V are ready to be appended into
        each row's :class:`~repro.nn.decode_cache.PagedSequence`.
        Decode-only: requires :func:`~repro.nn.tensor.no_grad`.
        """
        self._require_no_grad("decode_step_qkv")
        return (
            self._split_heads(self.q_proj(hidden)),
            self._split_heads(self.k_proj(hidden)),
            self._split_heads(self.v_proj(hidden)),
        )

    def decode_step_query(self, hidden: np.ndarray) -> np.ndarray:
        """Project only the split-head queries of one decode step.

        The cross-attention half of a continuous-decode step reuses K/V
        projected at admission, so unlike :meth:`decode_step_qkv` there is
        nothing to project but the query.  Array mode, decode-only.
        """
        self._require_no_grad("decode_step_query")
        return self._split_heads(self.q_proj(hidden))

    def project_static_kv(self, states: Tensor) -> tuple[np.ndarray, np.ndarray]:
        """Project encoder ``states`` into the split-head K/V a warm cross cache holds.

        Bitwise the same arrays :meth:`forward` writes into a cold static
        :class:`~repro.nn.decode_cache.KVState` — continuous batching calls
        this once per admitted sequence and stores the result beside its page
        table.  Decode-only.
        """
        self._require_no_grad("project_static_kv")
        return (
            self._split_heads(self.k_proj(states)).numpy(),
            self._split_heads(self.v_proj(states)).numpy(),
        )

    def attend_rows(
        self,
        q: np.ndarray,
        keys: list[np.ndarray],
        values: list[np.ndarray],
        masks: list[np.ndarray | None] | None = None,
        position_biases: list[np.ndarray | None] | None = None,
    ) -> np.ndarray:
        """Attend each query row over its own (per-row length) K/V history.

        ``q`` is the ``(rows, heads, 1, head_dim)`` split-head query array;
        ``keys[i]``/``values[i]`` are row ``i``'s ``(1, heads, length_i,
        head_dim)`` history (a :meth:`PagedSequence.view` slice, or a stored
        cross-attention projection) — read as given, never copied.
        ``masks[i]`` is a boolean keep mask broadcastable to ``(1, 1, 1,
        length_i)`` or ``None``; ``position_biases[i]`` an additive array
        broadcastable to ``(1, heads, 1, length_i)`` or ``None``.  The
        per-row core runs the op sequence of :meth:`forward` and
        :func:`~repro.nn.functional.softmax` — scale, bias, mask fill,
        ``x + (-max)``, ``exp``, ``/ sum``, value mix — on plain arrays, so
        each row's output is bitwise what that row would get decoding alone.
        Returns the merged, output-projected ``(rows, 1, d_model)`` array.
        """
        self._require_no_grad("attend_rows")
        rows = q.shape[0]
        if len(keys) != rows or len(values) != rows:
            raise ModelConfigError(f"attend_rows got {rows} query rows but {len(keys)}/{len(values)} K/V histories")
        dtype = compute_dtype()
        scale = np.asarray(1.0 / np.sqrt(self.head_dim), dtype=dtype)
        attended_rows = []
        for row in range(rows):
            scores = (q[row : row + 1] @ keys[row].swapaxes(-1, -2)) * scale
            bias = position_biases[row] if position_biases is not None else None
            if bias is not None:
                scores = scores + bias
            mask = masks[row] if masks is not None else None
            if mask is not None:
                mask = np.asarray(mask, dtype=bool)
                while mask.ndim < 4:
                    mask = mask[:, None] if mask.ndim >= 2 else mask[None]
                scores = np.asarray(np.where(~mask, -1e9, scores), dtype=dtype)
            weights = self.dropout(F.softmax(scores, axis=-1))
            attended_rows.append(weights @ values[row])
        return self.out_proj(self._merge_heads(np.concatenate(attended_rows, axis=0)))
