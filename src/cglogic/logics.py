"""Identifiers for the eight logics, one per combination of frame properties."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LogicId:
    """A subset of the three frame properties S (seriality), I (independence
    of agents) and D (determinism).

    The empty combination is written ``E``; the full one ``SID``.  Subset
    ordering is flag-wise: ``x <= y`` means every property assumed by x is
    also assumed by y.
    """

    has_S: bool = False
    has_I: bool = False
    has_D: bool = False

    @classmethod
    def from_string(cls, text: str) -> "LogicId":
        """Parse a logic name.

        Accepts the eight names E, S, I, D, SI, SD, ID, SID with letters in
        any order and any case, plus the aliases ε, epsilon and MCL (= E)
        and CL (= SID); surrounding whitespace is ignored.
        """
        cleaned = text.strip()
        upper = cleaned.upper()
        if upper in ("E", "EPSILON", "MCL") or cleaned == "ε":
            return cls()
        if upper == "CL":
            return cls(True, True, True)
        letters = set(upper)
        if not cleaned or not letters <= {"S", "I", "D"} or len(upper) != len(letters):
            raise ValueError(f"unknown logic {text!r}; expected one of E, S, I, D, SI, SD, ID, SID")
        return cls("S" in letters, "I" in letters, "D" in letters)

    @property
    def name(self) -> str:
        text = ("S" if self.has_S else "") + ("I" if self.has_I else "") + ("D" if self.has_D else "")
        return text or "E"

    def __str__(self) -> str:
        return self.name

    def __le__(self, other: "LogicId") -> bool:
        return (
            (not self.has_S or other.has_S)
            and (not self.has_I or other.has_I)
            and (not self.has_D or other.has_D)
        )

    def __lt__(self, other: "LogicId") -> bool:
        return self <= other and self != other


E = LogicId()
S = LogicId(has_S=True)
I = LogicId(has_I=True)
D = LogicId(has_D=True)
SI = LogicId(has_S=True, has_I=True)
SD = LogicId(has_S=True, has_D=True)
ID = LogicId(has_I=True, has_D=True)
SID = LogicId(has_S=True, has_I=True, has_D=True)

ALL_LOGICS = (E, S, I, D, SI, SD, ID, SID)
