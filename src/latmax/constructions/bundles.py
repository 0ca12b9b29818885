"""Shared result containers for the construction gallery."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class WitnessBundle:
    """Named witness elements plus the numeric claims made about them.

    Every value in `expected` must be recomputable from `vectors` (or the
    closed forms in `series`) by the hosting module; `reports` carries any
    constant lower bounds with their witnesses, `series` any per-size rows
    (growth-fit sweeps, walk norms), and `extras` construction-specific data
    (index sets, matrices, scaling constants).
    """

    space: object
    vectors: dict = field(default_factory=dict)
    expected: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)

    def expect(self, name: str, value: float):
        self.expected[name] = float(value)

    def value(self, name: str) -> float:
        return self.expected[name]
