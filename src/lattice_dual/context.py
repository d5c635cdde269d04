"""Formal contexts, Galois derivation operators and concept enumeration."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable
from functools import cache
from itertools import compress

from .util import (
    Codec, _selector, bits, check_guard, closed_masks, flag_mask, name_key, pack, transpose,
)

CONCEPTS_GUARD = 25
# Widest context whose intents are read off one bitmap of every attribute
# subset, not by Close-by-One.  At 40 x 16 the map wins, 1.7 against 2.8 ms,
# but at 10 x 16 it loses, 0.9 against 0.2 (random contexts, Python 3.11),
# and each width above 14 adds a 2^n-int _lectic table, 2.6 MB at 16.
BITMAP_ATTRIBUTES = 14
_DIMENSIONS = "incidence dimensions do not match object/attribute counts"


Concept = namedtuple("Concept", "extent intent")


class FormalContext:
    """Immutable objects x attributes incidence table.

    Objects and attributes each have a codec.  Incidence is kept as
    per-object attribute bitmasks, and, from the first read of `_cols`, as
    per-attribute object bitmasks too, so both derivation directions are one
    intersection loop.  The intents of narrow contexts are read off the rows
    alone, so their columns are never built.
    """

    __slots__ = ("objects", "attributes", "_rows", "_cols", "_ocodec", "_acodec")

    def __init__(self, objects, attributes, incidence):
        ocodec, acodec = Codec(objects, "object"), Codec(attributes, "attribute")
        matrix = [list(row) for row in incidence]
        if len(matrix) != len(ocodec.names) or any(len(r) != len(acodec.names) for r in matrix):
            raise ValueError(_DIMENSIONS)
        self._store(ocodec, acodec, list(map(flag_mask, matrix)))

    def _store(self, ocodec, acodec, rows) -> None:
        self.objects, self.attributes = ocodec.names, acodec.names
        self._ocodec, self._acodec = ocodec, acodec
        self._rows = tuple(rows)

    def __getattr__(self, name):
        """Builds the columns at their first read and keeps them in their
        slot, so every later read is a plain slot read: a property would
        add a call to each `_extent_amask`, which the pruned search makes
        once per closed set.  Called only for names not found otherwise."""
        if name != "_cols":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._cols = cols = tuple(transpose(self._rows, len(self.attributes)))
        return cols

    @classmethod
    def _from_rows(cls, objects, attributes, rows) -> "FormalContext":
        """Build from one attribute mask per object (in `objects` order)."""
        ctx = cls.__new__(cls)
        ctx._store(Codec(objects, "object"), Codec(attributes, "attribute"), rows)
        return ctx

    @classmethod
    def from_intents(cls, objects, attributes, intents) -> "FormalContext":
        """Build from one attribute set per object (in `objects` order)."""
        attributes = tuple(attributes)
        aset = set(attributes)
        sets = []
        for it in intents:
            it = set(it)
            if not it <= aset:
                unknown = sorted(it - aset, key=name_key)
                raise ValueError(f"unknown attributes in intent: {unknown}")
            sets.append(it)
        ocodec, acodec = Codec(objects, "object"), Codec(attributes, "attribute")
        if len(sets) != len(ocodec.names):
            raise ValueError(_DIMENSIONS)
        ctx = cls.__new__(cls)
        ctx._store(ocodec, acodec, [acodec.encode(it) for it in sets])
        return ctx

    def row(self, g: str) -> frozenset:
        return self._acodec.members(self._rows[self._ocodec.position(g)])

    def column(self, m: str) -> frozenset:
        return self._ocodec.members(self._cols[self._acodec.position(m)])

    def incident(self, g: str, m: str) -> bool:
        return bool(self._rows[self._ocodec.position(g)] >> self._acodec.position(m) & 1)

    # -- derivation --------------------------------------------------

    def derive_objects(self, objs: Iterable[str]) -> frozenset:
        """Attributes shared by every object of the set; all of M for the empty set."""
        n = len(self.attributes)
        return self._acodec.members(_meet(self._rows, n, self._ocodec.encode(objs)))

    def derive_attributes(self, attrs: Iterable[str]) -> frozenset:
        """Objects possessing every attribute of the set; all of G for the empty set."""
        return self._ocodec.members(self._extent_amask(self._acodec.encode(attrs)))

    def _extent_amask(self, bmask: int) -> int:
        return _meet(self._cols, len(self._rows), bmask)

    def _close_amask(self, bmask: int) -> int:
        """B'': the extent by ANDing columns, then the rows of the extent."""
        rows, cols = self._rows, self._cols
        return _meet(rows, len(cols), _meet(cols, len(rows), bmask))

    def close_attributes(self, attrs: Iterable[str]) -> frozenset:
        """The closure B'' of an attribute set."""
        return self._acodec.members(self._close_amask(self._acodec.encode(attrs)))

    def is_closed(self, attrs: Iterable[str]) -> bool:
        mask = self._acodec.encode(attrs)
        return self._close_amask(mask) == mask

    def _intent_masks(self, family) -> list:
        """Each set of the family as an attribute mask, in order; raises
        ValueError at the first set that is not an intent."""
        masks = []
        for s in map(frozenset, family):
            mask = self._acodec.encode(s)
            if self._close_amask(mask) != mask:
                raise ValueError(f"{sorted(s, key=name_key)} is not an intent of the context")
            masks.append(mask)
        return masks

    # -- concept enumeration ------------------------------------------

    def _width(self) -> int:
        """The attribute count, checked against the enumeration guard: every
        enumeration over the context starts here."""
        n = len(self.attributes)
        check_guard(n, CONCEPTS_GUARD, "concept enumeration")
        return n

    def _extent_step(self):
        """Close-by-One's step and start for this context, carrying each
        intent's extent: a child's extent is its parent's AND one column,
        and its intent is the AND of the rows of that extent.

        The intent of a child that fails the canonicity test (it adds an
        attribute below j outside b) is kept, by extent, for the rest of
        the enumeration: the same extent turns up again as a child of later
        closed sets, and then reuses it instead of ANDing rows.  Canonical
        children are not kept, since their extents seldom repeat; so the
        memo holds at most one intent per concept.  It serves the pruned
        minimal-hypothesis search and the intents of wide contexts."""
        rows, cols, n = self._rows, self._cols, self._width()
        full = (1 << n) - 1
        failed = {}

        def children(b, extent, y):
            out = []
            outside = ~b
            free = full & outside >> y << y
            while free:
                bit = free & -free
                free ^= bit
                j = bit.bit_length() - 1
                e = extent & cols[j]
                c = failed.get(e)
                if c is None:
                    c = _meet(rows, n, e)
                    if c & outside & (bit - 1):
                        failed[e] = c
                        continue
                elif c & outside & (bit - 1):
                    continue
                out.append((c, e, j + 1))
            return out

        everything = (1 << len(rows)) - 1
        return children, (_meet(rows, n, everything), everything)

    def intent_masks(self) -> list:
        """All closed attribute masks, in lectic order: above
        BITMAP_ATTRIBUTES attributes by Close-by-One, up to it off the one
        subset bitmap laid out by the lectic table (bit i stands for the
        mask lectic[i]), whose ascending positions run in lectic order."""
        if len(self.attributes) > BITMAP_ATTRIBUTES:
            return list(closed_masks(*self._extent_step()))
        n = self._width()
        lectic = _lectic(n)
        closed = _row_closure({lectic[r] for r in self._rows}, n)
        return list(compress(lectic, _selector(closed)))

    def intents(self) -> list:
        return self._acodec.sets(self.intent_masks())

    def concepts(self) -> list:
        """All formal concepts, in the lectic order of their intents (guarded
        enumeration oracle): each extent is the objects holding its intent."""
        intents = self.intent_masks()
        extents = map(self._extent_amask, intents)
        return list(map(Concept, self._ocodec.sets(extents), self._acodec.sets(intents)))

    def __eq__(self, other):
        return (
            isinstance(other, FormalContext)
            and self.objects == other.objects
            and self.attributes == other.attributes
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.objects, self.attributes, self._rows))

    def __repr__(self):
        return f"FormalContext({len(self.objects)}x{len(self.attributes)})"


def _meet(vectors, n: int, mask: int) -> int:
    """The AND of vectors[i] over the set bits i of mask; all n bits for 0.

    The one intersection loop of both derivations.  It walks the set bits
    itself: going through util.bits, which builds a list of indices, made
    Close-by-One on 40 x 16 and 60 x 22 contexts 11-16% slower (Python 3.11).
    """
    out = (1 << n) - 1
    while mask:
        low = mask & -mask
        out &= vectors[low.bit_length() - 1]
        mask ^= low
    return out


def _row_closure(rows, n: int) -> int:
    """The full mask over n attributes and every intersection of rows, as
    one 2^n-bit integer: bit s stands for the attribute mask s.

    Intersecting every member with a row r drops the attributes k outside
    r: for each such k, every bit is copied 2^k places down, and of what
    has grown only the subsets of r are kept.  A copy onto a mask lacking k
    is a member without k.  A copy onto a mask holding k is junk, but that
    mask holds an attribute outside r, so the filter drops it.  One row
    costs three 2^n-bit operations per attribute it lacks, whatever the
    number of members.
    """
    lacking, everything = _lacking(n), (1 << (1 << n)) - 1
    full = (1 << n) - 1
    closed = 1 << full
    for r in rows:
        grown, inside = closed, everything
        for k in bits(full & ~r):
            grown |= grown >> (1 << k)
            inside &= lacking[k]
        closed |= grown & inside
    return closed


@cache
def _lacking(n: int) -> tuple:
    """Over the 2^n masks of n attributes, the bitmap of the masks lacking
    attribute k, for each k < n: 2^k ones in every 2^(k+1) bits.  Each map
    of n - 1 attributes is copied into the upper half, and the masks lacking
    the new attribute fill the lower half."""
    if not n:
        return ()
    half = 1 << (n - 1)
    return (*(m | m << half for m in _lacking(n - 1)), (1 << half) - 1)


def _interval(low: int, high: int, n: int) -> int:
    """The bitmap of the masks s over n attributes with low <= s <= high as
    sets: the masks holding every attribute of low and none outside high."""
    lacking = _lacking(n)
    out = (1 << (1 << n)) - 1
    for k in bits(low):
        out &= ~lacking[k]
    for k in bits(((1 << n) - 1) & ~high):
        out &= lacking[k]
    return out


def _strictly_above(family: int, n: int) -> int:
    """The bitmap of the masks over n attributes that strictly contain a
    member of the family bitmap, in one pass: after step k it holds every
    member plus a nonempty set of the attributes up to k that it lacks."""
    lacking = _lacking(n)
    above = 0
    for k in range(n):
        above |= ((family | above) & lacking[k]) << (1 << k)
    return above


@cache
def _lectic(n: int) -> tuple:
    """The 2^n masks of n attributes in lectic order: entry i is i with its
    n low bits reversed, so the lowest bit where two masks differ becomes
    the highest.  Reversal undoes itself, so entry m is m reversed."""
    table = [0]
    for k in reversed(range(n)):
        table += [m | 1 << k for m in table]
    return tuple(table)


def contranominal_scale(n: int) -> FormalContext:
    """The n x n context with every incidence except the diagonal."""
    if n < 1:
        raise ValueError("contranominal scale needs n >= 1")
    objects = [f"g{i}" for i in range(1, n + 1)]
    attributes = [f"m{i}" for i in range(1, n + 1)]
    full = (1 << n) - 1
    return FormalContext._from_rows(objects, attributes, [full & ~(1 << i) for i in range(n)])


def _irreducible(vectors, full: int) -> list:
    """Positions of the vectors to keep, ascending: the last of each group of
    equal vectors, and of the distinct vectors each that differs from the
    AND of the vectors strictly containing it (the full mask when there are
    none).  O(n^2) mask operations."""
    last = {v: i for i, v in enumerate(vectors)}
    keep = []
    for v, i in last.items():
        inter = full
        for w in last:
            if w & v == v and w != v:
                inter &= w
        if inter != v:
            keep.append(i)
    return sorted(keep)


def reduce_context(ctx: FormalContext) -> FormalContext:
    """Strip reducible objects, then reducible attributes: one pass per side.

    Removing a reducible object or attribute leaves the concept lattice
    unchanged, so it makes no other one reducible: each side's verdicts are
    taken at once.  Of equal rows (columns) only the last is kept.
    """
    objs = _irreducible(ctx._rows, (1 << len(ctx.attributes)) - 1)
    full = sum(1 << i for i in objs)
    atts = _irreducible([col & full for col in ctx._cols], full)
    return FormalContext._from_rows(
        [ctx.objects[i] for i in objs],
        [ctx.attributes[j] for j in atts],
        [pack(ctx._rows[i], atts) for i in objs],
    )


# -- Burmeister .cxt format ------------------------------------------


def parse_cxt(text: str) -> FormalContext:
    """Parse a Burmeister .cxt file of LF or CRLF lines, rejecting dimension
    mismatches and names ending in CR, which `write_cxt` cannot give back: so
    every context read writes back."""
    lines = text.replace("\r\n", "\n").split("\n")
    pos = 0

    def take():
        nonlocal pos
        if pos >= len(lines):
            raise ValueError("truncated .cxt file")
        line = lines[pos]
        pos += 1
        return line

    if take().strip() != "B":
        raise ValueError("malformed .cxt header: expected 'B'")
    if take().strip():
        raise ValueError("malformed .cxt header: expected blank line after 'B'")
    counts = take().strip(), take().strip()
    try:
        n_obj, n_att = map(int, counts)
    except ValueError:
        raise ValueError("malformed .cxt header: expected object/attribute counts") from None
    if n_obj < 0 or n_att < 0:
        raise ValueError("negative counts in .cxt header")
    if take().strip():
        raise ValueError("malformed .cxt header: expected blank line before names")
    objects = [take() for _ in range(n_obj)]
    attributes = [take() for _ in range(n_att)]
    for name in (*objects, *attributes):
        if name.endswith("\r"):
            raise ValueError(f"malformed .cxt name: {name!r} ends in CR")
    rows = []
    for _ in range(n_obj):
        row = take()
        mask = _row_mask(row, n_att)
        if mask is None:
            raise ValueError(f"malformed .cxt incidence row: {row!r}")
        rows.append(mask)
    for rest in lines[pos:]:
        if rest.strip():
            raise ValueError("trailing content in .cxt file")
    return FormalContext._from_rows(objects, attributes, rows)


def _row_mask(text, n: int) -> int | None:
    """An X/. incidence row over n attributes as an attribute mask; None
    unless text is a string of exactly n such characters."""
    if not isinstance(text, str) or len(text) != n or text.strip("X."):
        return None
    return flag_mask(ch == "X" for ch in text)


def _row_text(row: int, n: int) -> str:
    """An attribute mask over n attributes as an X/. incidence row."""
    return "".join("X" if row >> j & 1 else "." for j in range(n))


def write_cxt(ctx: FormalContext) -> str:
    for name in (*ctx.objects, *ctx.attributes):
        if not isinstance(name, str) or "\n" in name or name.endswith("\r"):
            raise ValueError(f"name {name!r} cannot be written to a .cxt file")
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    out.extend(_row_text(row, len(ctx.attributes)) for row in ctx._rows)
    return "\n".join(out) + "\n"
