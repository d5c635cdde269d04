"""Shared plumbing: size guards and canonical set ordering."""

import os

GUARD_ENV = "LATTICE_DUAL_GUARD"


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its size guard."""


def guard_limit(default: int) -> int:
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return default
    limit = int(raw)
    if limit < 0:
        raise ValueError(f"{GUARD_ENV} must be a non-negative integer, got {raw!r}")
    return limit


def check_guard(size: int, default: int, what: str) -> None:
    limit = guard_limit(default)
    if size > limit:
        raise GuardExceeded(f"{what}: size {size} exceeds guard {limit}")


def canon(universe, subset) -> list:
    """Sort `subset` by declaration order of `universe`."""
    index = {name: i for i, name in enumerate(universe)}
    return sorted(subset, key=index.__getitem__)
