"""The decode position-bias memo and its invalidation.

:meth:`RelativePositionBias.decode_bias` memoizes the bias row of a decode
step's newest token in eval mode under ``no_grad``.  The memo sits beside the
module's reduced-precision weight casts, so it must go stale exactly never:
train/eval transitions and ``invalidate_cast_caches`` drop it, and a
reassigned embedding table misses it.  The serving-level regression: the
continuous loop is kept per model across calls, and it used to hold its own
bias memo that outlived in-place weight updates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.attention import RelativePositionBias
from repro.nn.tensor import autocast, no_grad
from repro.serving import continuous_predict_batch


def fresh_bias(seed=0, bidirectional=False) -> RelativePositionBias:
    return RelativePositionBias(num_heads=3, num_buckets=8, max_distance=16, bidirectional=bidirectional, seed=seed).eval()


def graph_row(module: RelativePositionBias, key_length: int) -> np.ndarray:
    """The newest token's bias row from :meth:`forward`, which never reads the memo."""
    return module(1, key_length, key_length - 1).numpy()


def memo_slots(module: RelativePositionBias) -> list[str]:
    return [slot for slot in module.__dict__.get("_cast_cache", {}) if slot.startswith("decode_bias")]


class TestBiasMemo:
    @pytest.mark.parametrize("bidirectional", [False, True])
    def test_memo_matches_graph_lookup_bitwise(self, bidirectional):
        module = fresh_bias(seed=3, bidirectional=bidirectional)
        with no_grad():
            for key_length in (9, 1, 5, 40, 9, 17):  # grows the memo and slices it back
                row = module.decode_bias(key_length)
                assert row.shape == (1, 3, 1, key_length)
                np.testing.assert_array_equal(row, graph_row(module, key_length))
        assert memo_slots(module) == ["decode_bias.float64"]

    def test_memo_keeps_one_row_per_dtype(self):
        module = fresh_bias()
        with no_grad():
            rows = [module.decode_bias(length) for length in range(1, 101)]
            assert all(np.shares_memory(row, rows[-1]) for row in rows[-10:])  # slices of one row
        (source, row) = module._cast_cache["decode_bias.float64"]
        assert source is module.embedding.data and 100 <= row.shape[-1] < 200

    def test_float32_memo_is_separate_and_cast(self):
        module = fresh_bias()
        with no_grad():
            wide = module.decode_bias(6)
            with autocast("float32"):
                narrow = module.decode_bias(6)
        assert wide.dtype == np.float64 and narrow.dtype == np.float32
        np.testing.assert_array_equal(narrow, wide.astype(np.float32))
        assert sorted(memo_slots(module)) == ["decode_bias.float32", "decode_bias.float64"]

    def test_not_memoized_with_grad_or_in_training(self):
        module = fresh_bias()
        np.testing.assert_array_equal(module.decode_bias(4), graph_row(module, 4))  # grad enabled
        module.train()
        with no_grad():
            module.decode_bias(4)
        assert memo_slots(module) == []

    def test_in_place_update_then_mode_transition_drops_memo(self):
        module = fresh_bias(seed=1)
        with no_grad():
            stale = module.decode_bias(7).copy()
        module.train()
        module.embedding.data += 1.0  # an optimizer step mutates in place
        module.eval()
        with no_grad():
            fresh = module.decode_bias(7)
        np.testing.assert_array_equal(fresh, stale + 1.0)

    def test_invalidate_cast_caches_drops_memo(self):
        module = fresh_bias(seed=2)
        with no_grad():
            stale = module.decode_bias(3).copy()
            module.embedding.data *= 2.0  # eval-mode in-place edit
            module.invalidate_cast_caches()
            np.testing.assert_array_equal(module.decode_bias(3), stale * 2.0)

    def test_reassigned_table_misses_memo(self):
        module = fresh_bias(seed=4)
        with no_grad():
            module.decode_bias(5)
            module.embedding.data = module.embedding.data + 0.5  # load_state_dict-style swap
            np.testing.assert_array_equal(module.decode_bias(5), graph_row(module, 5))


def reference_outputs(backend, sources, max_length):
    """The ``use_cache=False`` oracle, which reads no memo."""
    return backend.predict_batch(sources, max_length=max_length, use_cache=False)


class TestServingAfterWeightUpdates:
    """The continuous loop outlives weight updates; its biases must not."""

    @pytest.fixture
    def backend(self, serving_model_env):
        model = serving_model_env["model"].clone_architecture()
        model.copy_weights_from(serving_model_env["model"])
        return model

    @pytest.fixture
    def sources(self, serving_model_env):
        return [example.question for example in serving_model_env["nvbench"].examples[:4]]

    def test_in_place_bias_update_reaches_continuous_serving(self, backend, sources):
        assert continuous_predict_batch(backend, sources, max_length=8) == reference_outputs(backend, sources, 8)
        table = backend.model.decoder.position_bias.embedding
        backend.model.train()
        table.data += np.random.default_rng(0).normal(0.0, 2.0, size=table.data.shape)
        backend.model.eval()
        expected = reference_outputs(backend, sources, 8)
        assert continuous_predict_batch(backend, sources, max_length=8) == expected
        assert backend.predict_batch(sources, max_length=8, use_cache=True) == expected

    def test_training_steps_reach_continuous_serving(self, backend, sources, serving_model_env):
        continuous_predict_batch(backend, sources, max_length=8)  # warm the loop and its memos
        examples = serving_model_env["nvbench"].examples[:4]
        batch = backend.collate([e.question for e in examples], [e.query_text for e in examples])
        optimizer = backend.make_optimizer(total_steps=3, learning_rate=5e-2)
        for _ in range(3):
            backend.train_step(batch, optimizer)
        assert continuous_predict_batch(backend, sources, max_length=8) == reference_outputs(backend, sources, 8)
        position_bias = backend.model.decoder.position_bias
        with no_grad():
            served = position_bias.decode_bias(8)  # the row step 8 read
        relative = np.arange(8)[None, :] - 7
        table = position_bias.embedding.data[position_bias._bucket(relative)]
        np.testing.assert_array_equal(served[0, :, 0, :], table[0].T)
