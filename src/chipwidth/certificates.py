"""Serializable claim/verdict records emitted by the CLI."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Certificate:
    """One checked claim: what was claimed, what was found, and the witness.

    verdict is the outcome in the claim's own terms, such as exact or
    bounds_only, valid or invalid, pass or fail, wins or loses. proof names
    the procedure that settled the claim (e.g. subset_dp, hitting_set_search,
    exhaustive_enumeration). timing is wall seconds; serialization can
    withhold it so that repeated runs on the same input stay byte-identical.
    """

    claim: dict
    verdict: str
    witness: dict
    proof: str
    timing: float | None

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "claim": self.claim,
            "verdict": self.verdict,
            "witness": self.witness,
            "proof": self.proof,
            "timing": self.timing if include_timing else None,
        }

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=False)
