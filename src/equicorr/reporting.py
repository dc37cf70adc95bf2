"""Validation reports.

Every validator returns a ValidationReport: a list of named checks, each
with the maximum observed residual, the tolerance it was held to, and the
coordinates of the worst offender.  Reports from independent validators
merge, and serialization is stable so that identical inputs produce
byte-identical report files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

DEFAULT_TOLERANCE = 1e-12  # bound of the float laws unless the caller gives another


def _maxabs(arr: np.ndarray) -> float:
    return float(np.abs(arr).max()) if arr.size else 0.0


def _argmax_coords(arr: np.ndarray) -> tuple[int, ...]:
    """Coordinates of the first maximum of |arr| in row-major order."""
    flat = int(np.abs(arr).argmax())
    return tuple(int(c) for c in np.unravel_index(flat, arr.shape))


def _worst_of_grid(grid: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Largest entry of |grid| and the coordinates of its first occurrence in
    row-major order; no witness when every entry is zero.  A NaN entry is
    the largest: the residual is NaN and the witness its first coordinate."""
    worst = _maxabs(grid)
    return worst, (_argmax_coords(grid) if worst != 0.0 else None)


def _first_worst(results) -> tuple[float, tuple | None]:
    """The largest residual over (residual, witness) pairs scanned in turn,
    with the witness of its first occurrence, or None when every residual
    is zero.  The first NaN wins and stays."""
    worst, hit = 0.0, None
    for residual, witness in results:
        if not (residual <= worst or math.isnan(worst)):
            worst, hit = residual, witness
    return worst, hit


def _worst_of_parts(parts) -> tuple[float, tuple | None]:
    """_worst_of_grid over (key, grid) parts scanned in turn, as if they were
    one concatenated grid: the largest entry and (key, coordinates) of its
    first occurrence, or None when every entry is zero.  A running maximum,
    so only one part is alive at a time."""
    return _first_worst((part, (key, at)) for key, grid in parts for part, at in [_worst_of_grid(grid)])


def _count_of(mask: np.ndarray) -> tuple[float, tuple[int, ...] | None]:
    """Number of True entries of mask, as a float, and the coordinates of
    the first in row-major order, or None when there is none."""
    count = int(np.count_nonzero(mask))
    return float(count), (_argmax_coords(mask) if count else None)


def _count_over(elements, count_of) -> tuple[float, tuple[int, ...] | None]:
    """The counts count_of(g) = (count, witness) of the elements summed; the
    witness is (g, *witness) of the first element with a violation."""
    count, witness = 0.0, None
    for g in elements:
        k, at = count_of(g)
        if witness is None and at is not None:
            witness = (int(g),) + at
        count += k
    return count, witness


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tolerance: float
    passed: bool
    witness: tuple[int, ...] | None = None
    skipped: bool = False

    def as_dict(self) -> dict:
        d = {
            "name": self.name,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "pass": bool(self.passed),
            "witness": list(self.witness) if self.witness is not None else None,
        }
        if self.skipped:
            d["skipped"] = True
        return d


def check_from_residual(
    name: str,
    residual: float,
    tolerance: float,
    witness: tuple[int, ...] | None = None,
) -> Check:
    """A check that passes when residual <= tolerance; only a failing check
    keeps its witness."""
    passed = float(residual) <= float(tolerance)
    return Check(name, float(residual), float(tolerance), passed, None if passed else witness)


@dataclass
class ValidationReport:
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check: Check) -> None:
        self.checks.append(check)

    def worst(self) -> Check | None:
        live = [c for c in self.checks if not c.skipped]
        if not live:
            return None
        return max(live, key=lambda c: c.residual)

    def sorted(self) -> "ValidationReport":
        return ValidationReport(sorted(self.checks, key=lambda c: c.name))

    def summary_lines(self) -> list[str]:
        lines = []
        for c in self.checks:
            if c.skipped:
                status = "SKIP"
            else:
                status = "PASS" if c.passed else "FAIL"
            wit = f" witness={list(c.witness)}" if c.witness is not None else ""
            lines.append(f"{status} {c.name} residual={c.residual:.3e} tolerance={c.tolerance:.3e}{wit}")
        return lines


def _prefixed(report: ValidationReport, prefix: str) -> list[Check]:
    """The report's checks, each renamed prefix.name."""
    return [replace(c, name=f"{prefix}.{c.name}") for c in report.checks]
