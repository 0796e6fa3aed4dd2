"""Statistical-efficiency model: token efficiency -> iterations to target.

The paper's headline comparison (Figure 5) measures "the required training
time to achieve the target model quality". Systems differ on two axes:

* *system efficiency* — seconds per step (measured by our simulator);
* *statistical efficiency* — steps needed to reach the quality target.

DeepSpeed "obtains the smallest iteration time thanks to its limited
capacity, [but] it drops tokens to skip the expert network and thus
requires more iterations to converge" (Section 5.2). SWIPE processes every
token but through the *wrong* experts, which recovers some learning signal
but not all.

We model the iteration multiplier as a power law in effective token
throughput::

    multiplier = (1 / effective_token_efficiency) ** alpha

with ``effective = processed_fraction + diverted_credit * diverted_fraction``.

``alpha`` defaults to 1.25, anchored on the paper's own end-to-end numbers:
DeepSpeed's measured iteration time is ~1.6x shorter than FlexMoE's yet its
time-to-quality is 2.1x longer (BERT-MoE-L, 64 GPUs), which under the
observed ~60% early-training drop rate implies an iteration multiplier of
~3.4 — i.e. ``alpha ~ 1.25``. ``alpha > 1`` reflects that capacity dropping
is *biased*: it starves exactly the hot experts the data distribution cares
most about, so the quality cost per dropped token exceeds a uniform-token
loss. The small-scale real runs in :mod:`repro.training.quality` show the
same ordering qualitatively (no-drop > cap-1.0 > cap-0.5 at a fixed step
budget).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import SimulationError


@dataclass(frozen=True)
class ConvergenceModel:
    """Maps token handling to an iterations-to-target multiplier.

    Attributes:
        alpha: Power-law exponent on inverse effective token efficiency.
        diverted_credit: Fraction of a diverted token's learning signal
            retained when it is processed by a non-chosen expert.
    """

    alpha: float = 1.25
    diverted_credit: float = 0.5

    def __post_init__(self) -> None:
        if self.alpha < 0:
            raise SimulationError("alpha must be >= 0")
        if not 0 <= self.diverted_credit <= 1:
            raise SimulationError("diverted_credit must be in [0, 1]")

    def effective_token_efficiency(
        self,
        token_efficiency: float,
        diverted_fraction: float = 0.0,
    ) -> float:
        """Learning-signal fraction retained per step."""
        if not 0 <= token_efficiency <= 1:
            raise SimulationError("token_efficiency must be in [0, 1]")
        if not 0 <= diverted_fraction <= 1:
            raise SimulationError("diverted_fraction must be in [0, 1]")
        effective = token_efficiency + self.diverted_credit * diverted_fraction
        return min(effective, 1.0)

    def iteration_multiplier(
        self,
        token_efficiency: float,
        diverted_fraction: float = 0.0,
    ) -> float:
        """Factor on base iterations needed to hit the quality target."""
        effective = self.effective_token_efficiency(
            token_efficiency, diverted_fraction
        )
        if effective <= 0:
            raise SimulationError("cannot converge with zero effective tokens")
        return float((1.0 / effective) ** self.alpha)

    def time_to_quality(
        self,
        mean_step_time: float,
        base_iterations: int,
        token_efficiency: float,
        diverted_fraction: float = 0.0,
    ) -> float:
        """End-to-end seconds to reach the target quality (Figure 5's bar)."""
        if mean_step_time < 0:
            raise SimulationError("mean_step_time must be >= 0")
        if base_iterations < 1:
            raise SimulationError("base_iterations must be >= 1")
        multiplier = self.iteration_multiplier(token_efficiency, diverted_fraction)
        return mean_step_time * base_iterations * multiplier
