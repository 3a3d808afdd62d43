"""Named bound intervals with re-verifiable witnesses."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .serialize import frac_str


@dataclass
class BoundReport:
    """Interval [lower, upper] for a graph parameter, with witnesses.

    Witnesses are certificate objects (anything with ``to_json``) or plain
    dicts.
    """

    parameter: str
    graph: str
    lower: Fraction
    upper: Fraction
    witnesses: tuple = ()

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError(f"lower {self.lower} exceeds upper {self.upper}")

    def to_json(self) -> dict:
        refs = []
        for w in self.witnesses:
            refs.append(w.to_json() if hasattr(w, "to_json") else w)
        return {
            "param": self.parameter,
            "graph": self.graph,
            "lower": frac_str(self.lower),
            "upper": frac_str(self.upper),
            "witness_refs": refs,
        }
