"""Shared plumbing: size guards, the codec between names and bitmasks, and
the one closed-set engine.

Inside the library a set is an integer bitmask over a fixed universe of
names: bit i stands for the i-th name.  Names are translated at the API
and CLI boundary only, by a `Codec`; a row of truth values becomes a mask
by `flag_mask`, and a JSON list of names is checked by `is_name_list`.
Names are listed in one order, `name_key`, and families of masks in one
order, `family_key`; families are minimised, maximised, checked for being
antichains and tested for property (*) by the helpers below.  Closed sets
come in lectic order: of two sets, the one holding the first attribute
where they differ comes later.  Close-by-One, `closed_masks`, lists
downsets, and in that order the intents and the minimal hypotheses of
contexts wider than `context.BITMAP_ATTRIBUTES` (of any context for
k > 0), and the sets closed under implications over more than
`implications.IS_BASE_GUARD` attributes.  The narrower questions are read
off bitmaps of every attribute subset, bit s standing for the mask s; only
the intents' bitmap is bit-reversed, so that its positions run in lectic
order."""

import os
from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import compress, filterfalse
from operator import lt

GUARD_ENV = "LATTICE_DUAL_GUARD"


class GuardExceeded(RuntimeError):
    """An enumeration would exceed its size guard."""


def guard_limit(default: int) -> int:
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return default
    try:
        if (limit := int(raw)) >= 0:
            return limit
    except ValueError:
        pass
    raise ValueError(f"{GUARD_ENV} must be a non-negative integer, got {raw!r}")


def check_guard(size: int, default: int, what: str) -> None:
    limit = guard_limit(default)
    if size > limit:
        raise GuardExceeded(f"{what}: size {size} exceeds guard {limit}")


# -- masks and names ---------------------------------------------------


_BYTE_OF_DIGIT = bytes.maketrans(b"01", b"\x00\x01")


def _selector(mask: int) -> bytes:
    """One byte per bit of a non-negative mask, lowest bit first: 1 where the
    bit is set, 0 where it is not (a single 0 for the empty mask).  Passed
    to `itertools.compress`, it picks the members of a mask without a
    Python step per bit."""
    return bin(mask)[:1:-1].encode().translate(_BYTE_OF_DIGIT)


def bits(mask: int) -> list:
    """Indices of the set bits of a mask, ascending: the mask is walked one
    low bit at a time, a Python step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def transpose(masks, n: int) -> list:
    """n masks: bit i of the j-th is bit j of masks[i].  Each row is walked
    in place, one low bit at a time."""
    out = [0] * n
    for i, mask in enumerate(masks):
        bit = 1 << i
        while mask:
            low = mask & -mask
            out[low.bit_length() - 1] |= bit
            mask ^= low
    return out


def flag_mask(flags) -> int:
    """The mask with bit j set for each true flags[j]: one row of a truth
    table as a mask."""
    return sum(1 << j for j, x in enumerate(flags) if x)


def pack(mask: int, kept) -> int:
    """Bit kept[k] of mask as bit k, for each position k of the index list."""
    return sum(1 << k for k, j in enumerate(kept) if mask >> j & 1)


# _REVC[v] is 255 - v with its 8 bits reversed.  Reversing the bit string of
# the bytes 0, 1, ..., 255 puts at position v the reversed bits of byte
# 255 - v, so the table is built by a few C calls, not 256 Python steps.
_REVC = int(format(int.from_bytes(bytes(range(256)), "big"), "02048b")[::-1], 2).to_bytes(
    256, "big"
)


def family_key(mask: int) -> tuple:
    """The one order of a family: by size, then by ascending index lists.

    Of two masks of equal size, the one whose index list is the less holds
    the lowest bit where they differ.  The mask's bytes, lowest first, each
    mapped through _REVC, compare the same way: the first differing byte is
    the one holding that bit, and there the mapped byte of the mask holding
    it is the less.  Neither byte string of two equal-size masks is a proper
    prefix of the other, since the longer one's last byte is not zero.  So
    the key costs two C calls whose work grows with the mask's bytes, where
    an index list costs a Python step per set bit.
    """
    return mask.bit_count(), mask.to_bytes((mask.bit_length() + 7) // 8, "little").translate(_REVC)


def is_name_list(doc, types) -> bool:
    """doc is a JSON list whose every entry is an instance of types."""
    return isinstance(doc, list) and all(isinstance(e, types) for e in doc)


def name_key(name) -> tuple:
    """The one order of names, total over any names: numbers, then strings,
    then every other name by its type's name and then its repr."""
    from numbers import Real

    if isinstance(name, Real):
        return 0, name
    if isinstance(name, str):
        return 1, name
    return 2, type(name).__name__, repr(name)


class Codec:
    """A universe of pairwise distinct names, and the translation between
    sets of its names and bitmasks (bit i stands for names[i]).  One dict,
    `bit`, maps each name to its bit; `position` reads the index off it."""

    __slots__ = ("names", "bit", "kind", "_tables")

    def __init__(self, names, kind: str):
        self.names = tuple(names)
        self.bit = {x: 1 << i for i, x in enumerate(self.names)}
        self.kind = kind
        if len(self.bit) != len(self.names):
            raise ValueError(f"{kind} names must be pairwise distinct")

    def _unknown(self, name) -> ValueError:
        return ValueError(f"unknown {self.kind} name: {name!r}")

    def position(self, name) -> int:
        try:
            return self.bit[name].bit_length() - 1
        except KeyError:
            raise self._unknown(name) from None

    def encode(self, names) -> int:
        """The mask of the names, read once: one dict lookup per name.  Of
        several unknown names the error names the least in `name_key` order,
        so the message does not depend on the order of a set."""
        bit = self.bit
        mask = 0
        names = iter(names)
        try:
            for x in names:
                mask |= bit[x]
        except KeyError:
            unknown = [x, *filterfalse(bit.__contains__, names)]
            raise self._unknown(min(unknown, key=name_key)) from None
        return mask

    def decode(self, mask: int) -> list:
        """The names of the set bits, in universe order; bits beyond the
        universe are dropped."""
        return list(compress(self.names, _selector(mask)))

    def members(self, mask: int) -> frozenset:
        """The names of the set bits, as a set; bits beyond the universe
        are dropped."""
        return frozenset(compress(self.names, _selector(mask)))

    def sets(self, masks) -> list:
        """Each mask's names as a set, in order; bits beyond the universe
        are dropped.  Equal to `members` on each mask.

        Up to 24 names, a mask is decoded a byte at a time: each byte value
        indexes a table of the 256 name sets of that byte's names, and the
        sets of a mask's bytes are joined: two bytes up to 16 names, three
        up to 24.  Each union copies a set, so wider codecs decode through
        the byte selector of `members`.  The tables cost about 50 us per
        full byte; they are fetched at the first call and kept, so building
        a codec costs no more, and codecs whose bytes hold equal names
        share them (see `_byte_table`).
        """
        n = len(self.names)
        if n > 24:
            return [self.members(m) for m in masks]
        try:
            t0, t1, t2 = self._tables
        except AttributeError:  # the first call on this codec builds them
            self._tables = [_byte_table(self.names[k : k + 8]) for k in range(0, 24, 8)]
            t0, t1, t2 = self._tables
        if n <= 16:
            return [t0[m & 255] | t1[m >> 8 & 255] for m in masks]
        return [t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16 & 255] for m in masks]

    def family(self, masks) -> list:
        """Masks as name sets, in the family order."""
        return self.sets(sorted(masks, key=family_key))


def _byte_table(names: tuple) -> tuple:
    """The 256 name sets of one byte of a mask, whose bits stand for names
    (at most 8): entry v holds names[i] for each set bit i of v below
    len(names), so bits beyond the universe are dropped.

    A byte whose names are all exactly `str` or `int` shares its table with
    every equal byte, through `_shared_byte_table`.  Other names get a table
    of their own: equal names of other types may print differently (1, 1.0
    and True; 0.0 and -0.0), and a shared table would hand one codec the
    other's.
    """
    if all(type(x) is str or type(x) is int for x in names):
        return _shared_byte_table(names)
    return _build_byte_table(names)


def _build_byte_table(names: tuple) -> tuple:
    table = [frozenset()]
    for x in names:
        one = {x}
        table += [s | one for s in table]
    return tuple(table * (256 // len(table)))


# A full 8-name table of short strings takes about 80 KB (tracemalloc), so
# the 32 kept tables take about 2.5 MB at most.
_shared_byte_table = lru_cache(maxsize=32)(_build_byte_table)


# -- antichains of masks -----------------------------------------------


def is_ascending_antichain(family) -> bool:
    """The family is strictly ascending and an antichain: each member is
    numerically less than the next, so none is repeated, and no member
    contains another."""
    if len(family) < 2:
        return True
    if len(family) == 2:
        # when s < t, t does not lie in s; s must not lie in t
        s, t = family
        return s < t and bool(s & ~t)
    if not all(map(lt, family, family[1:])):
        return False
    # Distinct members of equal size are incomparable, so each member is
    # tested only against strictly larger ones: those of the largest size
    # need no test, and a family of one size needs none at all.
    by_size = sorted(family, key=int.bit_count)
    if by_size[0].bit_count() == by_size[-1].bit_count():
        return True
    sizes = list(map(int.bit_count, by_size))
    for s, size in zip(by_size, sizes[: bisect_left(sizes, sizes[-1])]):
        # s lies in t exactly when s & t == s: the larger ones are scanned in C
        if s in map(s.__and__, by_size[bisect_right(sizes, size):]):
            return False
    return True


def is_mask_antichain(family) -> bool:
    """No member contains another; a repeated member counts as contained.
    Sorted, the family holds a repeat exactly when it is not strictly
    ascending."""
    return is_ascending_antichain(sorted(family))


def minimal_masks(family) -> tuple:
    """Subset-minimal masks, deduplicated, as a sorted tuple.

    A proper subset is numerically smaller than its superset, so one pass in
    ascending order keeps exactly the minimal members, already sorted.  The
    empty mask, when present, sorts first and lies in every later member,
    so it alone is kept.
    """
    family = set(family)
    if len(family) < 2:
        return tuple(family)
    out = []
    for s in sorted(family):
        for t in out:
            if not t & ~s:
                break
        else:
            out.append(s)
    return tuple(out)


def maximal_masks(family) -> tuple:
    """Subset-maximal masks, deduplicated, as a sorted tuple: one pass in
    descending order, as in `minimal_masks`."""
    family = sorted(set(family), reverse=True)
    if len(family) < 2:
        return tuple(family)
    out = []
    for s in family:
        for t in out:
            if not s & ~t:
                break
        else:
            out.append(s)
    return tuple(reversed(out))


def _star(a, b) -> bool:
    """Property (*) on masks: no member of a is a subset of a member of b.
    The members of a must be in ascending order.

    The shorter family is looped over and the longer one scanned in C:
    x lies in y exactly when x & y == x, and exactly when x & ~y == 0.  A
    subset is numerically no larger than its superset, so when a is the
    longer family only its members up to y can lie in y, and only those are
    scanned.
    """
    if len(a) <= len(b):
        for x in a:
            if x in map(x.__and__, b):
                return False
    else:
        for y in b:
            if 0 in map((~y).__and__, a[: bisect_right(a, y)]):
                return False
    return True


# -- the closed-set engine ---------------------------------------------


def closed_masks(children, start, prune=None):
    """Close-by-One: every closed set, once, in lectic order (of two sets,
    the one holding the first attribute where they differ comes later).

    Each closed set carries a state to its children.  `start` is the least
    closed set with its state.  children(b, state, y) lists the canonical
    children of a set b reached at attribute y, given b's state: for each
    j >= y not in b, in ascending j, the closure c of b | 1<<j with its own
    state, as (c, state, j + 1), kept only when c adds nothing below j.
    They are pushed in that order, so the pre-order is lectic.  A set for
    which prune(b) holds is yielded but not expanded; prune(b) is called
    only after the consumer has received b.  The step is called once per
    expanded set, so each step runs its own loop over j.
    """
    stack = [(*start, 0)]
    while stack:
        b, state, y = stack.pop()
        yield b
        if prune is None or not prune(b):
            stack += children(b, state, y)
