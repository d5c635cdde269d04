"""Finite posets, downsets (order ideals) and frequency statistics."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .util import check_guard

DOWNSETS_GUARD = 20


def _bits(mask: int) -> list:
    """Indices of the set bits of a mask, ascending."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


def _transpose(up) -> list:
    """Down-masks from up-masks: bit i of down[j] is bit j of up[i]."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        bit = 1 << i
        for j in _bits(mask):
            down[j] |= bit
    return down


class Poset:
    """Immutable strict partial order on named elements.

    leq is validated to be reflexive, transitive and antisymmetric at
    construction.  The order is held as bitmasks: bit j of _up[i] (and bit
    i of _down[j]) is set iff element i <= element j.  _nonmin and _nonmax
    mask the elements with something strictly below, respectively above.
    """

    __slots__ = ("elements", "_idx", "_up", "_down", "_nonmin", "_nonmax")

    def __init__(self, elements, leq):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("element names must be pairwise distinct")
        n = len(elements)
        matrix = [list(row) for row in leq]
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError("leq matrix dimensions do not match element count")
        up = [sum(1 << j for j, x in enumerate(row) if x) for row in matrix]
        self._store(elements, up, _transpose(up))

    def _store(self, elements, up, down) -> None:
        """Validate the order given by up- and down-masks and keep it."""
        for i, mask in enumerate(up):
            if not mask >> i & 1:
                raise ValueError(f"leq not reflexive at {elements[i]!r}")
        # Pairs i <= j in row-major order, so the first violation reported is
        # the one a scan of the leq matrix meets first.
        for i, mask in enumerate(up):
            for j in _bits(mask):
                if j != i and down[i] >> j & 1:
                    raise ValueError(
                        f"leq not antisymmetric: {elements[i]!r} and {elements[j]!r}"
                    )
                missing = up[j] & ~mask
                if missing:
                    k = (missing & -missing).bit_length() - 1
                    raise ValueError(
                        f"leq not transitive at "
                        f"{elements[i]!r} <= {elements[j]!r} <= {elements[k]!r}"
                    )
        self.elements = elements
        self._idx = {e: i for i, e in enumerate(elements)}
        self._up = tuple(up)
        self._down = tuple(down)
        self._nonmin = sum(1 << i for i, mask in enumerate(down) if mask != 1 << i)
        self._nonmax = sum(1 << i for i, mask in enumerate(up) if mask != 1 << i)

    @classmethod
    def _from_masks(cls, elements, up, down) -> "Poset":
        poset = cls.__new__(cls)
        poset._store(tuple(elements), up, down)
        return poset

    @classmethod
    def from_pairs(cls, names, pairs) -> "Poset":
        """Reflexive-transitive closure of strict comparabilities a < b.

        Any cycle among the pairs violates antisymmetry and is rejected.
        """
        names = tuple(names)
        idx = {e: i for i, e in enumerate(names)}
        n = len(names)
        up = [1 << i for i in range(n)]
        for a, b in pairs:
            if a not in idx or b not in idx:
                raise ValueError(f"unknown name in pair ({a!r}, {b!r})")
            up[idx[a]] |= 1 << idx[b]
        # Warshall's closure, one bitmask row at a time.
        for k in range(n):
            bit, row = 1 << k, up[k]
            for i in range(n):
                if up[i] & bit:
                    up[i] |= row
        down = _transpose(up)
        for i in range(n):
            cycle = up[i] & down[i] & ~((2 << i) - 1)
            if cycle:
                j = (cycle & -cycle).bit_length() - 1
                raise ValueError(f"cycle detected through {names[i]!r} and {names[j]!r}")
        if len(idx) != n:
            raise ValueError("element names must be pairwise distinct")
        return cls._from_masks(names, up, down)

    def __len__(self):
        return len(self.elements)

    def _index(self, p: str) -> int:
        try:
            return self._idx[p]
        except KeyError:
            raise ValueError(f"unknown element name: {p!r}") from None

    def _mask(self, xs: Iterable[str]) -> int:
        mask = 0
        for p in xs:
            mask |= 1 << self._index(p)
        return mask

    def _members(self, mask: int) -> frozenset:
        return frozenset(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def leq(self, a: str, b: str) -> bool:
        return bool(self._up[self._index(a)] >> self._index(b) & 1)

    def down_set(self, p: str) -> frozenset:
        """Principal ideal: the smallest downset containing p."""
        return self._members(self._down[self._index(p)])

    def up_set(self, p: str) -> frozenset:
        """Principal filter: the smallest upset containing p."""
        return self._members(self._up[self._index(p)])

    def down_closure(self, xs: Iterable[str]) -> frozenset:
        """Least downset containing the given elements."""
        mask = 0
        for p in xs:
            mask |= self._down[self._index(p)]
        return self._members(mask)

    def is_downset(self, xs: Iterable[str]) -> bool:
        xs = frozenset(xs)
        return self.down_closure(xs) == xs

    def all_downsets(self) -> list:
        """Every downset exactly once (brute-force oracle, guarded).

        Enumerates by recursive element inclusion along a linear
        extension, not by powerset filtering.
        """
        sets = [self._members(m) for m in self._downset_masks()]
        index = self._idx
        sets.sort(key=lambda s: (len(s), sorted(index[e] for e in s)))
        return sets

    def _downset_masks(self) -> list:
        """Every downset as a mask, in no particular order (guarded)."""
        check_guard(len(self.elements), DOWNSETS_GUARD, "downset enumeration")
        n = len(self.elements)
        order = sorted(range(n), key=lambda i: self._down[i].bit_count())
        down = self._down
        out = []

        def rec(k: int, mask: int):
            if k == len(order):
                out.append(mask)
                return
            i = order[k]
            rec(k + 1, mask)
            strict = down[i] & ~(1 << i)
            if strict & ~mask == 0:
                rec(k + 1, mask | (1 << i))

        rec(0, 0)
        return out

    def restrict(self, keep: Iterable[str]) -> "Poset":
        """Induced subposet, preserving declaration order."""
        keep = set(keep)
        names = [e for e in self.elements if e in keep]
        unknown = keep - set(names)
        if unknown:
            raise ValueError(f"unknown element names: {sorted(unknown)}")
        kept = [self._idx[e] for e in names]
        new_index = {old: new for new, old in enumerate(kept)}

        def compress(masks):
            return [sum(1 << new_index[j] for j in _bits(masks[i]) if j in new_index) for i in kept]

        return Poset._from_masks(names, compress(self._up), compress(self._down))

    def m_value(self) -> int:
        """max over p of |down(p)| + |up(p)|; at least 2 for nonempty posets."""
        if not self.elements:
            raise ValueError("m-value undefined for the empty poset")
        return max(
            self._down[i].bit_count() + self._up[i].bit_count()
            for i in range(len(self.elements))
        )

    def lower_covers(self, p: str) -> frozenset:
        """Elements q < p with nothing strictly between (transitive reduction)."""
        i = self._index(p)
        strict = self._down[i] & ~(1 << i)
        covers = 0
        for j in range(len(self.elements)):
            if strict >> j & 1:
                between = strict & self._up[j] & ~(1 << j)
                if not between:
                    covers |= 1 << j
        return self._members(covers)

    def upper_covers(self, p: str) -> frozenset:
        i = self._index(p)
        strict = self._up[i] & ~(1 << i)
        covers = 0
        for j in range(len(self.elements)):
            if strict >> j & 1:
                between = strict & self._down[j] & ~(1 << j)
                if not between:
                    covers |= 1 << j
        return self._members(covers)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.elements == other.elements
            and self._up == other._up
        )

    def __hash__(self):
        return hash((self.elements, self._up))

    def __repr__(self):
        return f"Poset({list(self.elements)!r})"


def poset_from_pairs(names, pairs) -> Poset:
    return Poset.from_pairs(names, pairs)


def freq(family, p) -> Fraction:
    """Fraction of family members containing p, as an exact rational."""
    family = list(family)
    if not family:
        raise ValueError("frequency undefined for an empty family")
    return Fraction(sum(1 for c in family if p in c), len(family))


def freq_complement(family, poset: Poset, p) -> Fraction:
    """Fraction of family members NOT containing p."""
    family = list(family)
    if not family:
        raise ValueError("frequency undefined for an empty family")
    poset._index(p)
    return Fraction(sum(1 for c in family if p not in c), len(family))


def _canon_family(family) -> list:
    return sorted(set(map(frozenset, family)), key=lambda s: (len(s), sorted(s)))


def minimal_members(family) -> list:
    """Subset-minimal members, deduplicated; always an antichain."""
    sets = _canon_family(family)
    return [s for s in sets if not any(t < s for t in sets)]


def maximal_members(family) -> list:
    """Subset-maximal members, deduplicated; always an antichain."""
    sets = _canon_family(family)
    return [s for s in sets if not any(s < t for t in sets)]


def is_antichain(family) -> bool:
    sets = list(map(frozenset, family))
    for i, s in enumerate(sets):
        for t in sets[i + 1 :]:
            if s <= t or t <= s:
                return False
    return True


# -- JSON form: {"elements": [...], "less_than": [["a","b"], ...]} ----


def _is_name_list(doc) -> bool:
    return isinstance(doc, list) and all(isinstance(e, (str, int, float)) for e in doc)


def poset_from_json(doc: dict) -> Poset:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ValueError('poset JSON must be {"elements": [...], "less_than": [...]}')
    if not _is_name_list(doc["elements"]):
        raise ValueError('poset JSON "elements" must be a list of element names')
    pairs = doc.get("less_than", [])
    if not isinstance(pairs, list) or not all(_is_name_list(p) and len(p) == 2 for p in pairs):
        raise ValueError('poset JSON "less_than" must be a list of [lower, upper] name pairs')
    return Poset.from_pairs(doc["elements"], [tuple(p) for p in pairs])


def poset_to_json(poset: Poset) -> dict:
    pairs = [
        [a, b]
        for a in poset.elements
        for b in poset.elements
        if a != b and poset.leq(a, b)
    ]
    return {"elements": list(poset.elements), "less_than": pairs}


def family_from_json(doc, poset: Poset) -> list:
    """Antichain-family JSON: a list of lists of element names."""
    if not isinstance(doc, list) or not all(map(_is_name_list, doc)):
        raise ValueError("antichain family JSON must be a list of lists of element names")
    out = []
    for member in doc:
        s = frozenset(member)
        for e in s:
            poset._index(e)
        out.append(s)
    return out
