"""Finite posets, downsets (order ideals) and frequency statistics."""

from __future__ import annotations

from collections.abc import Iterable

from .util import (
    Codec, bits, check_guard, closed_masks, flag_mask, is_name_list, name_key, pack, transpose
)

DOWNSETS_GUARD = 20


def _reach(succ) -> tuple:
    """(up, back): up[i] is i with everything reachable from i along the
    successor masks succ, by one depth-first search in post-order, where a
    node's mask is the OR of its successors' masks; O(n + pairs) mask
    operations.  Every cycle has a back edge, whose head is on the search
    path (Tarjan 1972): the search stops at the first, v -> w, and back is
    (v, w); otherwise back is None.  Given the predecessor masks of an
    acyclic relation, up is its down-masks: from_pairs takes both
    directions so, with no Python step per comparability."""
    # A node with no successors is finished before the search starts, so it
    # never takes a frame of its own.
    up = [0 if row else 1 << i for i, row in enumerate(succ)]
    done = sum(up)
    # Roots in descending order: when pairs mostly run from earlier to later
    # elements, a node's successors are then finished before it is reached.
    for root in reversed(range(len(succ))):
        if done >> root & 1:
            continue
        stack, path = [root], 1 << root
        while stack:
            v = stack[-1]
            todo = succ[v] & ~done
            back = todo & path
            if back:
                return up, (v, (back & -back).bit_length() - 1)
            if todo:
                low = todo & -todo
                path |= low
                stack.append(low.bit_length() - 1)
                continue
            stack.pop()
            row = rest = succ[v]
            while rest:
                low = rest & -rest
                row |= up[low.bit_length() - 1]
                rest ^= low
            bit = 1 << v
            up[v] = row | bit
            done |= bit
            path ^= bit
    return up, None


class Poset:
    """Immutable strict partial order on named elements.

    leq is validated to be reflexive, transitive and antisymmetric at
    construction.  The order is held as bitmasks over the elements' codec:
    bit j of _up[i] (and bit i of _down[j]) is set iff element i <= element
    j.  _nonmin and _nonmax mask the elements with something strictly
    below, respectively above.
    """

    __slots__ = ("elements", "_codec", "_up", "_down", "_nonmin", "_nonmax")

    def __init__(self, elements, leq):
        codec = Codec(elements, "element")
        elements, n = codec.names, len(codec.names)
        matrix = [list(row) for row in leq]
        if len(matrix) != n or any(len(r) != n for r in matrix):
            raise ValueError("leq matrix dimensions do not match element count")
        up = list(map(flag_mask, matrix))
        down = transpose(up, n)
        for i, mask in enumerate(up):
            if not mask >> i & 1:
                raise ValueError(f"leq not reflexive at {elements[i]!r}")
        # Pairs i <= j in row-major order, so the first violation reported is
        # the one a scan of the leq matrix meets first.
        for i, mask in enumerate(up):
            for j in bits(mask):
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
        self._store(codec, up, down)

    def _store(self, codec, up, down) -> None:
        """Keep the order given by up- and down-masks.  Only __init__, which
        receives a raw leq matrix, validates it: from_pairs closes and
        rejects cycles itself, and restrict induces a valid order."""
        self.elements = codec.names
        self._codec = codec
        self._up = tuple(up)
        self._down = tuple(down)
        self._nonmin = sum(1 << i for i, mask in enumerate(down) if mask != 1 << i)
        self._nonmax = sum(1 << i for i, mask in enumerate(up) if mask != 1 << i)

    @classmethod
    def _from_masks(cls, codec, up, down) -> "Poset":
        poset = cls.__new__(cls)
        poset._store(codec, up, down)
        return poset

    @classmethod
    def from_pairs(cls, names, pairs) -> "Poset":
        """Reflexive-transitive closure of strict comparabilities a < b.

        Any cycle among the pairs violates antisymmetry and is rejected.
        """
        codec = Codec(names, "element")
        names, bit = codec.names, codec.bit
        n = len(names)
        succ, pred = [0] * n, [0] * n
        for a, b in pairs:
            if a not in bit or b not in bit:
                raise ValueError(f"unknown name in pair ({a!r}, {b!r})")
            if a != b:
                bit_a, bit_b = bit[a], bit[b]
                succ[bit_a.bit_length() - 1] |= bit_b
                pred[bit_b.bit_length() - 1] |= bit_a
        up, back = _reach(succ)
        if back:
            i, j = sorted(back)
            raise ValueError(f"cycle detected through {names[i]!r} and {names[j]!r}")
        return cls._from_masks(codec, up, _reach(pred)[0])

    def __len__(self):
        return len(self.elements)

    def leq(self, a: str, b: str) -> bool:
        position = self._codec.position
        return bool(self._up[position(a)] >> position(b) & 1)

    def down_set(self, p: str) -> frozenset:
        """Principal ideal: the smallest downset containing p."""
        return self._codec.members(self._down[self._codec.position(p)])

    def up_set(self, p: str) -> frozenset:
        """Principal filter: the smallest upset containing p."""
        return self._codec.members(self._up[self._codec.position(p)])

    def down_closure(self, xs: Iterable[str]) -> frozenset:
        """Least downset containing the given elements."""
        mask = 0
        for i in bits(self._codec.encode(xs)):
            mask |= self._down[i]
        return self._codec.members(mask)

    def is_downset(self, xs: Iterable[str]) -> bool:
        return _is_downset(self, (1 << len(self.elements)) - 1, self._codec.encode(xs))

    def all_downsets(self) -> list:
        """Every downset exactly once, in the family order (brute-force
        oracle, guarded)."""
        return self._codec.family(self._downset_masks())

    def _downset_masks(self, prune=None):
        """Every downset as a mask, in lectic order; guarded at the call.
        For a downset x, x | down(j) is the least downset holding x and j,
        so the downsets are closed sets, listed by the engine with `prune`.
        A j whose down-set holds an element below j outside x is rejected
        before its child is built.  Once j is tried, every later element
        above j is such an element, so the whole up-set of j leaves the
        candidates at once: a chain of n elements, declared in either order,
        tries n candidates in all."""
        check_guard(len(self.elements), DOWNSETS_GUARD, "downset enumeration")
        down = self._down
        not_up = [~u for u in self._up]
        full = (1 << len(down)) - 1

        def children(x, _, y):
            out = []
            outside = ~x
            free = full & outside >> y << y
            while free:
                bit = free & -free
                j = bit.bit_length() - 1
                free &= not_up[j]
                if not down[j] & outside & (bit - 1):
                    out.append((x | down[j], None, j + 1))
            return out

        return closed_masks(children, (0, None), prune)

    def restrict(self, keep: Iterable[str]) -> "Poset":
        """Induced subposet, preserving declaration order."""
        keep = set(keep)
        unknown = keep - self._codec.bit.keys()
        if unknown:
            raise ValueError(f"unknown element names: {sorted(unknown, key=name_key)}")
        kept = bits(self._codec.encode(keep))
        codec = Codec([self.elements[i] for i in kept], "element")
        up, down = ([pack(masks[i], kept) for i in kept] for masks in (self._up, self._down))
        return Poset._from_masks(codec, up, down)

    def m_value(self) -> int:
        """max over p of |down(p)| + |up(p)|; at least 2 for nonempty posets."""
        if not self.elements:
            raise ValueError("m-value undefined for the empty poset")
        return max(d.bit_count() + u.bit_count() for d, u in zip(self._down, self._up))

    def _covers(self, p: str, toward, away) -> frozenset:
        """The j strictly on the `toward` side of p with nothing strictly
        between them."""
        i = self._codec.position(p)
        strict = toward[i] & ~(1 << i)
        return self._codec.members(
            sum(1 << j for j in bits(strict) if not strict & away[j] & ~(1 << j))
        )

    def lower_covers(self, p: str) -> frozenset:
        """Elements q < p with nothing strictly between (transitive reduction)."""
        return self._covers(p, self._down, self._up)

    def upper_covers(self, p: str) -> frozenset:
        return self._covers(p, self._up, self._down)

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


def _is_downset(poset: Poset, universe: int, mask: int) -> bool:
    """mask is a downset of the subposet induced on universe.

    Either no element of mask has a predecessor in U outside it, or no
    element of U outside mask has a successor in it; the side with fewer
    elements to test is checked, walking its set bits in place.  Minimal
    (maximal) elements of the poset need no test on their side.
    """
    if mask & ~universe:
        return False
    outside = universe & ~mask
    inner = mask & poset._nonmin
    outer = outside & poset._nonmax
    if not inner or not outer:
        return True
    if inner.bit_count() <= outer.bit_count():
        masks, side, hit = poset._down, inner, outside
    else:
        masks, side, hit = poset._up, outer, mask
    while side:
        low = side & -side
        if masks[low.bit_length() - 1] & hit:
            return False
        side ^= low
    return True


def poset_from_pairs(names, pairs) -> Poset:
    return Poset.from_pairs(names, pairs)


def freq(family, p) -> Fraction:
    """Fraction of family members containing p, as an exact rational."""
    from fractions import Fraction

    family = list(family)
    if not family:
        raise ValueError("frequency undefined for an empty family")
    return Fraction(sum(1 for c in family if p in c), len(family))


def freq_complement(family, poset: Poset, p) -> Fraction:
    """Fraction of family members NOT containing p."""
    share = freq(family, p)
    poset._codec.position(p)
    return 1 - share


# -- frozenset references: public API and test oracles.  The library itself
#    minimises, maximises and checks antichains on masks (lattice_dual.util).


def _canon_family(family) -> list:
    return sorted(set(map(frozenset, family)), key=lambda s: (len(s), sorted(map(name_key, s))))


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


# Poset JSON may name elements by numbers as well as by strings.
_NAME_TYPES = (str, int, float)


def poset_from_json(doc: dict) -> Poset:
    if not isinstance(doc, dict) or "elements" not in doc:
        raise ValueError('poset JSON must be {"elements": [...], "less_than": [...]}')
    if not is_name_list(doc["elements"], _NAME_TYPES):
        raise ValueError('poset JSON "elements" must be a list of element names')
    pairs = doc.get("less_than", [])
    if not isinstance(pairs, list) or not all(
        is_name_list(p, _NAME_TYPES) and len(p) == 2 for p in pairs
    ):
        raise ValueError('poset JSON "less_than" must be a list of [lower, upper] name pairs')
    return Poset.from_pairs(doc["elements"], [tuple(p) for p in pairs])


def poset_to_json(poset: Poset) -> dict:
    names = poset.elements
    pairs = [[names[i], names[j]] for i, up in enumerate(poset._up) for j in bits(up) if j != i]
    return {"elements": list(names), "less_than": pairs}


def family_from_json(doc, poset: Poset) -> list:
    """Antichain-family JSON: a list of lists of element names."""
    if not isinstance(doc, list) or not all(is_name_list(m, _NAME_TYPES) for m in doc):
        raise ValueError("antichain family JSON must be a list of lists of element names")
    for member in doc:
        poset._codec.encode(member)
    return [frozenset(member) for member in doc]
