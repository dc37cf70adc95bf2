"""Scalar reference helpers shared by the tests."""

from __future__ import annotations

from equicorr.groups import FiniteGroup


def mul(grp: FiniteGroup, g: int, h: int) -> int:
    """g h, read from the table."""
    return int(grp.cayley[g, h])


def conjugate(grp: FiniteGroup, g: int, h: int) -> int:
    """g h g^-1, read one entry at a time from the table."""
    return int(grp.cayley[grp.cayley[g, h], grp.inv[g]])
