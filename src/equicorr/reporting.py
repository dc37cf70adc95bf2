"""Validation reports.

A ValidationReport is a list of named checks, each with the maximum
observed residual, the tolerance it was held to, and the coordinates of
the worst offender.  Every report a validator, validate or battery
returns is assembled by one loop over the law table (battery._LAWS),
which declares each check once, and serialization is stable so that
identical inputs produce byte-identical report files.

Every residual and witness comes from one of two scans over `parts`,
(place, grid) pairs scanned in turn as one grid in row-major order:
_worst finds the largest |entry|, _count the True entries.  place maps a
grid's own coordinates to the witness the check reports; it is applied
only to a first occurrence (of a part's maximum, of the first True
entry), and before the next part is drawn, so it may read the loop
variables that formed its grid.  The first NaN is the largest entry and
stays.  groups._rows forms the parts of a grid one row block at a time.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_TOLERANCE = 1e-12  # bound of the float laws unless the caller gives another


def _local(*at: int) -> tuple[int, ...]:  # the place of a grid whose own coordinates are the witness
    return at


def _worst(parts) -> tuple[float, tuple | None]:
    """The largest |entry| of the parts and its placed first occurrence, or
    None when every entry is 0; each part is released before the next."""
    worst, hit = 0.0, None
    with np.errstate(invalid="ignore"):  # a part that meets inf with inf is NaN, reported, not warned about
        for place, grid in parts:
            grid = np.abs(grid)
            top = float(grid.max()) if grid.size else 0.0
            if not (top <= worst or math.isnan(worst)):
                worst, hit = top, place(*(int(c) for c in np.unravel_index(int(grid.argmax()), grid.shape)))
            del grid
    return worst, hit


def _count(parts) -> tuple[float, tuple | None]:
    """The number of True entries of the parts, as a float, and the first
    one placed, or None when there is none."""
    count, hit = 0, None
    with np.errstate(invalid="ignore"):  # as in _worst
        for place, mask in parts:
            k = int(np.count_nonzero(mask))
            if k and hit is None:
                hit = place(*(int(c) for c in np.unravel_index(int(mask.argmax()), mask.shape)))
            count += k
            del mask
    return float(count), hit


class Check:
    def __init__(
        self,
        name: str,
        residual: float,
        tolerance: float,
        passed: bool,
        witness: tuple[int, ...] | None = None,
        skipped: bool = False,
    ):
        self.name = name
        self.residual = residual
        self.tolerance = tolerance
        self.passed = passed
        self.witness = witness
        self.skipped = skipped

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


class ValidationReport:
    def __init__(self, checks: list[Check] | None = None):
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def worst(self) -> Check | None:
        """The live check of the largest residual, the first on a tie; the
        first NaN is the largest, as in _worst."""
        live = [c for c in self.checks if not c.skipped]
        if not live:
            return None
        return next((c for c in live if math.isnan(c.residual)), None) or max(live, key=lambda c: c.residual)

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

