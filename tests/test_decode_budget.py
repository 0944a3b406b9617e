"""Decode budgets: ``None`` means the default, anything below 1 is rejected.

``max_length or default`` used to turn an explicit ``max_length=0`` into a
full default-length decode while ``-1`` raised; every entry point now
resolves the budget through ``resolve_decode_budget``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ModelConfigError
from repro.nn.transformer import T5Model, TransformerConfig, resolve_decode_budget
from repro.serving import continuous_predict_batch


def tiny_model() -> T5Model:
    config = TransformerConfig(vocab_size=24, d_model=8, num_heads=2, d_ff=16, eos_id=-1, max_decode_length=7)
    return T5Model(config).eval()


@pytest.mark.parametrize("bad", [0, -1])
class TestRejectedBudgets:
    def test_resolve(self, bad):
        with pytest.raises(ModelConfigError):
            resolve_decode_budget(bad, 7)

    def test_paged_admit(self, bad):
        batch = tiny_model().paged_decode_batch()
        with pytest.raises(ModelConfigError):
            batch.admit(np.array([5, 6], dtype=np.int64), max_length=bad)
        assert batch.free_slots == batch.max_slots and batch.arena.pages_in_use == 0

    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("num_beams", [1, 2])
    def test_generate(self, bad, use_cache, num_beams):
        with pytest.raises(ModelConfigError):
            tiny_model().generate(np.array([[5, 6]]), max_length=bad, num_beams=num_beams, use_cache=use_cache)

    def test_datavist5_predict_entry_points(self, bad, serving_model_env):
        backend = serving_model_env["model"]
        source = serving_model_env["nvbench"].examples[0].question
        with pytest.raises(ModelConfigError):
            backend.predict(source, max_length=bad)
        with pytest.raises(ModelConfigError):
            backend.predict_batch([source], max_length=bad)
        with pytest.raises(ModelConfigError):
            backend.predict_batch([], max_length=bad)

    def test_continuous_predict_batch(self, bad, serving_model_env):
        backend = serving_model_env["model"]
        with pytest.raises(ModelConfigError):
            continuous_predict_batch(backend, [serving_model_env["nvbench"].examples[0].question], max_length=bad)


class TestDefaultBudget:
    def test_none_means_config_default(self):
        model = tiny_model()  # no EOS: every decode runs to its budget
        assert model.generate(np.array([[5, 6]])).shape == (1, 7)
        batch = model.paged_decode_batch()
        handle = batch.admit(np.array([5, 6], dtype=np.int64))
        outputs = {}
        while handle not in outputs:
            outputs.update(batch.step())
        assert len(outputs[handle]) == 7

    def test_one_token_budget(self):
        model = tiny_model()
        assert model.generate(np.array([[5, 6]]), max_length=1).shape == (1, 1)
        assert resolve_decode_budget(1, 7) == 1
