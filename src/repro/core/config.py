"""Configuration for the PURPLE pipeline.

Defaults follow §V-A4: τ_p = 0.5, τ_n = 5, top-3 skeletons from a
fine-tuned generator, input budget 3072 tokens, consistency number 30,
p₀ = 1 with a +1 linear Increase-Generalization schedule.

The ``use_*`` flags drive the Table-6 ablations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class PurpleConfig:
    """All knobs of the pipeline."""

    # Schema pruning (§IV-A)
    tau_p: float = 0.5          # relevance threshold
    tau_n: int = 5              # minimum columns kept per table
    use_pruning: bool = True
    use_steiner: bool = True    # False = RESDSQL-style top-k pruning
    steiner_method: str = "burst"  # "approx" scales to large schemas

    # Skeleton prediction (§IV-B)
    top_k_skeletons: int = 3

    # Demonstration selection (§IV-C)
    use_selection: bool = True  # False = random demonstrations
    p0: int = 1
    generalization: str = "linear-1"  # "linear-N" or "exp-N"
    mask_levels: int = 0        # Figure 12: ignore the first N levels
    drop_skeleton_prob: float = 0.0  # Figure 12: Drop-y noise

    # Prompt budget (§V-D)
    input_budget: int = 3072
    values_per_column: int = 2

    # Database adaption (§IV-D)
    use_adaption: bool = True
    max_repair_attempts: int = 5
    consistency_n: int = 30
    # Future-work extensions (§IV-D1 / §VII), off by default.
    map_functions: bool = False       # dialect function mapping repair
    use_synthesis: bool = False       # generation-based prompting fallback

    # Execution-feedback repair (docs/repair.md), off by default: with
    # repair_rounds = 0 the pipeline is byte-identical to a loop-free
    # build.  repair_token_budget caps extra repair tokens run-wide
    # (None = unlimited; see RepairBudget for the determinism contract).
    repair_rounds: int = 0
    repair_token_budget: Optional[int] = None

    # Execution dialect axis (docs/dialects.md): "sqlite" is the real
    # backend; "postgres" the simulated profile.  Guard, adapter, and
    # repair all target the same dialect as the executor.
    dialect: str = "sqlite"

    # Misc
    seed: int = 0
    classifier_epochs: int = 300
    skeleton_epochs: int = 15

    def generalization_step(self, p: int, iteration: int) -> int:
        """Apply the Increase-Generalization schedule to ``p``."""
        kind, _, amount = self.generalization.partition("-")
        value = int(amount or 1)
        if kind == "linear":
            return p + value
        if kind == "exp":
            return p * value
        raise ValueError(f"unknown generalization schedule {self.generalization!r}")
