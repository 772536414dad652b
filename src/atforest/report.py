"""Verification verdicts with enumeration statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass
class VerificationReport:
    verdict: bool
    detail: str = ""
    counterexample: Optional[Any] = None
    stats: dict = field(default_factory=dict)
    seed: Optional[int] = None

    def to_json_dict(self) -> dict:
        out: dict = {"verdict": "PASS" if self.verdict else "FAIL"}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.stats:
            out.update(self.stats)
        if self.seed is not None:
            out["seed"] = self.seed
        return out

    def __str__(self) -> str:
        tag = "PASS" if self.verdict else "FAIL"
        return f"{tag}: {self.detail}" if self.detail else tag
