"""The one record of a verification outcome, shared by the library and the CLI.

A check has a name and one of four outcomes: ``pass`` and ``fail`` for an
identity or invariant that was verified, ``found`` for a bounded search that
produced its ``witness``, and ``absent`` for one that ran out of bound (the
``detail`` then names the bound).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

OUTCOMES = ("pass", "fail", "found", "absent")


@dataclass(frozen=True)
class Check:
    name: str
    outcome: str
    detail: Any = None
    witness: Any = None

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"check outcome must be one of {OUTCOMES}, got {self.outcome!r}")

    @classmethod
    def of(cls, name: str, passed: bool, detail: Any = None) -> Check:
        """A ``pass`` or ``fail`` check from a verified boolean."""
        return cls(name, "pass" if passed else "fail", detail)

    @classmethod
    def search(cls, name: str, witness: Any, bound: Any) -> Check:
        """A bounded search's check: ``found`` with its witness, or ``absent``
        with the bound it ran out of when the witness is None."""
        if witness is None:
            return cls(name, "absent", bound)
        return cls(name, "found", witness=witness)

    @property
    def passed(self) -> bool:
        return self.outcome == "pass"

    def as_json(self) -> dict:
        """``name`` and ``outcome``, then ``witness`` and ``detail`` unless None
        (falsy values such as a witness 0 are kept)."""
        entry = {"name": self.name, "outcome": self.outcome}
        if self.witness is not None:
            entry["witness"] = self.witness
        if self.detail is not None:
            entry["detail"] = self.detail
        return entry
