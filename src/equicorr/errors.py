"""Exception taxonomy.

Structural problems (wrong shapes, out-of-range indices, entries outside
their legal support), bad parameters and a measure with no mass where a
construction divides by it raise immediately.  The laws of stored data never raise: a
filter off its constraint or a theta that misses the kernel support or
breaks a law is reported through a validation report with a witness, so
callers can decide what a violation means for them.
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

