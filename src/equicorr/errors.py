"""Exception taxonomy.

Structural problems (wrong shapes, out-of-range indices, entries outside
their legal support) raise immediately.  Numerical properties never raise;
they are reported through validation reports so callers can decide what a
violation means for them.
"""

from __future__ import annotations


class EquicorrError(Exception):
    """Base class for all library errors."""


class StructuralError(EquicorrError):
    """Malformed table: bad shape, index out of range, entry off its support."""


class DomainError(EquicorrError):
    """Invalid parameter value (size < 1, nonpositive scale, bad band geometry, over the size budget)."""


class DegenerateMeasureError(EquicorrError):
    """A measure that must be strictly positive somewhere vanishes there."""


class PreconditionError(EquicorrError):
    """A numerical precondition of an operation fails beyond tolerance."""


class InconsistencyError(EquicorrError):
    """Stored data contradicts a constraint it promised to satisfy."""


class CoverageError(EquicorrError):
    """A map required to cover a support set misses part of it."""
