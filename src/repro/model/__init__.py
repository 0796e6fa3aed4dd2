"""NumPy transformer/MoE stack with manual backpropagation.

The paper's model-quality claims (Table 2, Figure 2) hinge on *real
training dynamics*: token dropping and balance-loss pressure measurably
hurt quality. This package provides a small but genuine implementation —
forward and backward passes written against NumPy — sufficient to train
MoE transformers on the synthetic datasets and reproduce those trade-offs.

* :mod:`repro.model.layers` — parameters, Linear/LayerNorm/activations;
* :mod:`repro.model.attention` — multi-head self-attention;
* :mod:`repro.model.gate` — the Top-K gate with balance loss and capacity;
* :mod:`repro.model.expert` — the two-layer FFN expert;
* :mod:`repro.model.moe_layer` — dispatch/combine over experts;
* :mod:`repro.model.transformer` — blocks and task heads;
* :mod:`repro.model.optimizer` — Adam;
* :mod:`repro.model.losses` — cross-entropy and perplexity;
* :mod:`repro.model.zoo` — the Table 1 model registry.
"""

from repro.model.gate import GateStats, TopKGate
from repro.model.layers import Linear, Module, Parameter
from repro.model.moe_layer import MoELayer
from repro.model.optimizer import Adam
from repro.model.transformer import MoEClassifier, MoELanguageModel
from repro.model.zoo import MODEL_ZOO, get_model_config

__all__ = [
    "Adam",
    "GateStats",
    "Linear",
    "MODEL_ZOO",
    "MoEClassifier",
    "MoELanguageModel",
    "MoELayer",
    "Module",
    "Parameter",
    "TopKGate",
    "get_model_config",
]
