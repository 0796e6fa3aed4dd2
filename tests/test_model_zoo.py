"""Unit tests for the Table 1 model registry."""

import pytest

from repro.exceptions import ConfigurationError
from repro.model.zoo import (
    MODEL_ZOO,
    NLP_VOCAB,
    PAPER_PARAMS,
    estimate_total_params,
    get_model_config,
    moe_layer_count,
)


class TestZoo:
    def test_six_models_registered(self):
        assert len(MODEL_ZOO) == 6
        assert set(MODEL_ZOO) == set(PAPER_PARAMS)

    def test_table1_expert_counts(self):
        assert get_model_config("BERT-MoE-S").num_experts == 32
        assert get_model_config("BERT-MoE-L").num_experts == 64
        assert get_model_config("GPT-MoE-L").d_model == 2048
        assert get_model_config("GPT-MoE-L").d_ffn == 8192

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigurationError):
            get_model_config("GPT-5-MoE")

    def test_moe_every_other_layer(self):
        assert moe_layer_count(get_model_config("BERT-MoE-S")) == 6
        assert moe_layer_count(get_model_config("BERT-MoE-L")) == 12

    def test_bert_s_params_match_paper(self):
        """Validation of our reading of Table 1: derived ~ printed."""
        config = get_model_config("BERT-MoE-S")
        derived = estimate_total_params(config, NLP_VOCAB)
        assert derived == pytest.approx(0.988e9, rel=0.05)

    def test_bert_l_params_match_paper(self):
        config = get_model_config("BERT-MoE-L")
        derived = estimate_total_params(config, NLP_VOCAB)
        assert derived == pytest.approx(6.69e9, rel=0.05)

    def test_params_match_helper(self):
        # Swin approximations are looser (paper omits the dims).
        derived = estimate_total_params(get_model_config("Swin-MoE-S"))
        assert derived == pytest.approx(PAPER_PARAMS["Swin-MoE-S"], rel=0.35)

    def test_all_models_use_top2(self):
        assert all(cfg.top_k == 2 for cfg in MODEL_ZOO.values())
