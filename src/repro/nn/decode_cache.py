"""Key/value caches for incremental (single-step) decoding.

Autoregressive generation re-runs the decoder once per emitted token.  Without
caching, every step re-projects and re-attends the entire prefix, so decoding
``L`` tokens costs ``O(L^2)`` decoder passes worth of work.  The caches here
make each step's decoder work independent of the prefix length:

* **self-attention** — the projected K/V of every already-decoded position is
  stored per layer; a step projects only the newest token and appends it
  (amortized O(1): appends land in a geometrically grown buffer, not a
  re-concatenated array);
* **cross-attention** — K/V over the encoder output never changes during
  decoding, so it is projected once on the first step and reused verbatim.

The caches store raw numpy arrays (shape ``(batch, heads, length,
head_dim)``) rather than autograd tensors: incremental decoding is an
inference-only fast path and always runs under :func:`repro.nn.tensor.no_grad`.
Buffers adopt the dtype of the first projected K/V they receive, so a decode
running under ``autocast("float32")`` caches float32 throughout; mixing
dtypes within one cache is rejected (each generation owns a fresh cache, so
a mix can only mean the precision policy changed mid-decode).
:meth:`DecodeCache.reorder` re-gathers the batch axis, which is what batched
beam search uses to carry each surviving beam's prefix forward.

For token-level continuous batching the monolithic per-batch buffers are the
wrong shape: sequences join and leave the batch at every step, so a finished
sequence must give its share of the K/V budget back in O(1) without copying
survivors.  :class:`PagedKVArena` accounts for that budget in fixed-size
pages handed out from a free list, and :class:`PagedSequence` is one
sequence's page table plus its own per-layer :class:`KVState`, which
attention reads as a zero-copy slice (see ``docs/decoding.md``).
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import ModelConfigError
from repro.obs.names import METRIC_ARENA_PAGE_REUSE_RATIO, METRIC_ARENA_PAGES_IN_USE

_PAGES_IN_USE = obs.METRICS.gauge(METRIC_ARENA_PAGES_IN_USE)
_PAGE_REUSE_RATIO = obs.METRICS.gauge(METRIC_ARENA_PAGE_REUSE_RATIO)

_INITIAL_CAPACITY = 16


def _check_kv_pair(k: np.ndarray, v: np.ndarray) -> None:
    """Reject a k/v pair whose dtypes or shapes disagree.

    Keys and values are projected from the same hidden states, so any
    disagreement means the caller mixed tensors from different steps or
    precision scopes — silently casting (the old behaviour for ``v``) would
    hide the bug until outputs diverge.
    """
    if k.dtype != v.dtype:
        raise ModelConfigError(f"k/v dtype mismatch: keys are {k.dtype}, values are {v.dtype}")
    if k.shape != v.shape:
        raise ModelConfigError(f"k/v shape mismatch: keys are {k.shape}, values are {v.shape}")


class KVState:
    """The cached key/value arrays of one attention module.

    ``static`` marks cross-attention state: it is written once (from the
    encoder output) and then reused, whereas non-static (self-attention)
    state grows by one step per :meth:`append`.  ``k``/``v`` expose the live
    ``(batch, heads, length, head_dim)`` slice; appends write into an
    over-allocated buffer that doubles when full, so growing the cache does
    not re-copy the whole history every step.
    """

    __slots__ = ("static", "_buffer_k", "_buffer_v", "_length")

    def __init__(self, static: bool = False):
        self.static = static
        self._buffer_k: np.ndarray | None = None
        self._buffer_v: np.ndarray | None = None
        self._length = 0

    @property
    def k(self) -> np.ndarray | None:
        """The live keys (``None`` when empty); a view, not a copy."""
        return None if self._buffer_k is None else self._buffer_k[:, :, : self._length]

    @property
    def v(self) -> np.ndarray | None:
        """The live values (``None`` when empty); a view, not a copy."""
        return None if self._buffer_v is None else self._buffer_v[:, :, : self._length]

    @property
    def length(self) -> int:
        """Number of cached key positions (0 when empty)."""
        return self._length

    def set(self, k: np.ndarray, v: np.ndarray) -> None:
        """Store projected K/V wholesale (the cross-attention write path)."""
        _check_kv_pair(k, v)
        self._buffer_k = k
        self._buffer_v = v
        self._length = int(k.shape[2])

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Grow the cache along the sequence axis (the self-attention write path)."""
        if self.static:
            raise ModelConfigError("append() is only valid on non-static (self-attention) KV state")
        _check_kv_pair(k, v)
        steps = int(k.shape[2])
        new_length = self._length + steps
        if self._buffer_k is not None and self._buffer_k.dtype != k.dtype:
            raise ModelConfigError(
                f"KV cache holds {self._buffer_k.dtype} but received {k.dtype}; "
                "the compute dtype must stay fixed for the lifetime of one decode"
            )
        if self._buffer_k is None or new_length > self._buffer_k.shape[2]:
            capacity = max(_INITIAL_CAPACITY, new_length)
            if self._buffer_k is not None:
                capacity = max(capacity, 2 * self._buffer_k.shape[2])
            shape = (k.shape[0], k.shape[1], capacity, k.shape[3])
            grown_k = np.empty(shape, dtype=k.dtype)
            grown_v = np.empty(shape, dtype=k.dtype)
            if self._length:
                grown_k[:, :, : self._length] = self._buffer_k[:, :, : self._length]
                grown_v[:, :, : self._length] = self._buffer_v[:, :, : self._length]
            self._buffer_k, self._buffer_v = grown_k, grown_v
        self._buffer_k[:, :, self._length : new_length] = k
        self._buffer_v[:, :, self._length : new_length] = v
        self._length = new_length

    def reorder(self, indices: np.ndarray) -> None:
        """Gather the batch axis by ``indices`` (beam-search reordering).

        Only the live positions are copied (fancy indexing on the sliced view
        yields a fresh contiguous array); unused buffer capacity is dropped
        and re-grown by the next :meth:`append` if needed.
        """
        if self._buffer_k is not None:
            self._buffer_k = self._buffer_k[:, :, : self._length][indices]
            self._buffer_v = self._buffer_v[:, :, : self._length][indices]


class LayerKVCache:
    """The per-decoder-layer pair of caches: growing self-K/V, static cross-K/V."""

    __slots__ = ("self_attention", "cross_attention")

    def __init__(self):
        self.self_attention = KVState(static=False)
        self.cross_attention = KVState(static=True)

    def reorder(self, indices: np.ndarray) -> None:
        """Gather both caches' batch axes by ``indices``."""
        self.self_attention.reorder(indices)
        self.cross_attention.reorder(indices)


class DecodeCache:
    """All decoder-layer K/V caches for one in-flight generation.

    Create one per ``generate`` call, pass it to every decoder step, and the
    decoder feeds each layer only the newest token(s); ``length`` tracks how
    many target positions are already cached so position biases and causal
    masks can be offset correctly.
    """

    def __init__(self, num_layers: int):
        if num_layers < 1:
            raise ModelConfigError("DecodeCache needs at least one decoder layer")
        self.layers = [LayerKVCache() for _ in range(num_layers)]

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def length(self) -> int:
        """Number of already-decoded (cached) target positions."""
        return self.layers[0].self_attention.length

    @property
    def batch_size(self) -> int | None:
        """Batch rows currently cached (``None`` before the first step)."""
        state = self.layers[0].self_attention
        return None if state.k is None else int(state.k.shape[0])

    def reorder(self, indices) -> None:
        """Gather every layer's batch axis by ``indices``.

        Beam search calls this between steps so that row ``i`` of the cache
        holds the prefix of the ``i``-th surviving beam; indices may repeat
        (one parent beam expanding into several children) or drop rows
        (finished beams leaving the batch).
        """
        indices = np.asarray(indices, dtype=np.int64)
        batch = self.batch_size
        if batch is not None and indices.shape[0] == batch and np.array_equal(indices, np.arange(batch)):
            return  # identity gather — common once beams stabilize
        for layer in self.layers:
            layer.reorder(indices)


class PagedKVArena:
    """The page accountant behind paged decode caches.

    The K/V budget is granted in fixed-size *pages* of ``page_size``
    positions.  A page id covers the same positions in every decoder layer:
    layers advance in lockstep within a step, so one allocation serves all
    layers and the page table of a :class:`PagedSequence` is a single list
    of ids.  Ids come from a free list — releasing a finished sequence and
    admitting a new one are both O(pages), with no copying of surviving
    sequences — and the id space doubles when the free list runs dry, so the
    pages in use track *tokens in flight*, not ``max_length × batch``.

    Page ids are accounting units, not memory: each sequence's K/V bytes
    live in its own per-layer :class:`KVState` (so attention reads a history
    as a zero-copy slice), and ``pages_in_use`` × page bytes is the K/V the
    live sequences hold, up to those buffers' doubling slack.  Likewise
    ``page_reuses`` counts allocations served by a released id — a recycled
    share of the budget, not recycled bytes.

    Like :class:`KVState`, the arena adopts the dtype of the first K/V it
    receives and rejects mixes (a mix means the precision policy changed
    while sequences were in flight).
    """

    def __init__(self, num_layers: int, num_heads: int, head_dim: int, page_size: int = 16, initial_pages: int = 8):
        if num_layers < 1:
            raise ModelConfigError("PagedKVArena needs at least one decoder layer")
        if num_heads < 1 or head_dim < 1:
            raise ModelConfigError("PagedKVArena needs positive num_heads and head_dim")
        if page_size < 1:
            raise ModelConfigError("page_size must be positive")
        if initial_pages < 1:
            raise ModelConfigError("initial_pages must be positive")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.page_size = page_size
        self._initial_pages = initial_pages
        self._dtype: np.dtype | None = None
        self._free: list[int] = []
        self._num_pages = 0
        self._pages_in_use = 0
        self._high_water = 0
        self._fresh_allocations = 0
        self._page_reuses = 0
        self._ever_used: set[int] = set()
        self._sequences_opened = 0
        self._sequences_released = 0

    @property
    def dtype(self) -> np.dtype | None:
        """The K/V dtype (``None`` until the first write fixes it)."""
        return self._dtype

    @property
    def num_pages(self) -> int:
        """Page ids the arena has issued so far (in use + free)."""
        return self._num_pages

    @property
    def pages_in_use(self) -> int:
        """Pages currently owned by live sequences."""
        return self._pages_in_use

    def sequence(self) -> "PagedSequence":
        """Open a new empty sequence over this arena."""
        self._sequences_opened += 1
        return PagedSequence(self)

    @property
    def sequences_open(self) -> int:
        """Sequences opened but not yet released — the live streams/decodes.

        The streaming telemetry reads this to report how many token streams
        are drawing on the arena right now.
        """
        return self._sequences_opened - self._sequences_released

    def stats(self) -> dict:
        """Allocation counters for monitoring and the continuous benchmark."""
        return {
            "page_size": self.page_size,
            "num_pages": self._num_pages,
            "pages_in_use": self._pages_in_use,
            "pages_high_water": self._high_water,
            "fresh_allocations": self._fresh_allocations,
            "page_reuses": self._page_reuses,
            "sequences_opened": self._sequences_opened,
            "sequences_released": self._sequences_released,
        }

    def observe(self) -> None:
        """Publish the arena occupancy and free-list reuse gauges.

        Called once per continuous-batching step so the metrics snapshot
        reflects the live arena rather than the state at the last request
        boundary.  The reuse ratio is ``page_reuses / (page_reuses +
        fresh_allocations)`` — how often an allocation was served by a
        released page id rather than a never-used one (an id, not memory:
        see the class docstring).
        """
        _PAGES_IN_USE.set(float(self._pages_in_use))
        allocations = self._page_reuses + self._fresh_allocations
        if allocations:
            _PAGE_REUSE_RATIO.set(self._page_reuses / allocations)

    # -- page bookkeeping (driven by PagedSequence) ------------------------------------
    def _check_dtype(self, dtype: np.dtype) -> None:
        if self._dtype is None:
            self._dtype = np.dtype(dtype)
        elif self._dtype != dtype:
            raise ModelConfigError(
                f"KV arena holds {self._dtype} but received {dtype}; "
                "the compute dtype must stay fixed while sequences are in flight"
            )

    def _allocate_page(self) -> int:
        if not self._free:
            grown = self._num_pages or self._initial_pages
            self._free.extend(range(self._num_pages + grown - 1, self._num_pages - 1, -1))
            self._num_pages += grown
        page = self._free.pop()
        if page in self._ever_used:
            self._page_reuses += 1
        else:
            self._fresh_allocations += 1
            self._ever_used.add(page)
        self._pages_in_use += 1
        self._high_water = max(self._high_water, self._pages_in_use)
        return page

    def _release_pages(self, pages: list[int]) -> None:
        self._free.extend(reversed(pages))
        self._pages_in_use -= len(pages)


class PagedSequence:
    """One sequence's self-attention K/V history, paged over a :class:`PagedKVArena`.

    The sequence owns a page table (a list of arena page ids, shared across
    layers — see :class:`PagedKVArena`) and one :class:`KVState` per layer
    holding the bytes.  Each decoder step :meth:`append`\\ s the newest
    token's projected K/V for every layer; a page id is allocated when the
    first write crosses into it, and the layer's buffers grow by doubling.

    :meth:`view` returns the live positions of one layer as zero-copy
    ``(1, heads, length, head_dim)`` slices, each head's rows contiguous —
    the layout the per-row attention matmuls read with the same summation
    order as a dense copy.  A view never changes afterwards: appends only
    write past it, growth moves the layer to a new buffer, and
    :meth:`release` drops the buffers without handing their memory to
    another sequence, so an in-flight read can never alias someone else's
    K/V.  A released sequence rejects further use.
    """

    __slots__ = ("arena", "pages", "_layers", "_released")

    def __init__(self, arena: PagedKVArena):
        self.arena = arena
        self.pages: list[int] = []
        self._layers = [KVState() for _ in range(arena.num_layers)]
        self._released = False

    @property
    def length(self) -> int:
        """Cached positions of the first layer (layers advance in lockstep)."""
        return self._layers[0].length

    @property
    def released(self) -> bool:
        """Whether the sequence's pages have been returned to the arena."""
        return self._released

    def append(self, layer: int, k: np.ndarray, v: np.ndarray) -> None:
        """Write the newest step's projected K/V for ``layer``.

        ``k``/``v`` are ``(1, heads, steps, head_dim)``, exactly what one
        attention module projects for one sequence's new tokens.
        """
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        _check_kv_pair(k, v)
        arena = self.arena
        if k.ndim != 4 or k.shape[0] != 1 or k.shape[1] != arena.num_heads or k.shape[3] != arena.head_dim:
            raise ModelConfigError(
                f"K/V geometry {k.shape} does not match the arena's "
                f"(1, {arena.num_heads}, steps, {arena.head_dim})"
            )
        arena._check_dtype(k.dtype)
        state = self._layers[layer]
        needed = -(-(state.length + k.shape[2]) // arena.page_size)  # ceil division
        while len(self.pages) < needed:
            self.pages.append(arena._allocate_page())
        state.append(k, v)

    def view(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """``layer``'s live K/V as zero-copy ``(1, heads, length, head_dim)`` slices."""
        if self._released:
            raise ModelConfigError("PagedSequence was released; its pages belong to the arena again")
        state = self._layers[layer]
        if state.length == 0:
            raise ModelConfigError("cannot view an empty paged sequence; append a step first")
        return state.k, state.v

    def release(self) -> None:
        """Return every page to the arena (idempotent); the sequence is dead after."""
        if not self._released:
            self.arena._release_pages(self.pages)
            self.arena._sequences_released += 1
            self.pages = []
            self._layers = []
            self._released = True
