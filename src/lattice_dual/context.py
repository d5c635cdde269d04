"""Formal contexts, Galois derivation operators and concept enumeration."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .util import check_guard

CONCEPTS_GUARD = 25


class Concept(NamedTuple):
    extent: frozenset
    intent: frozenset


class FormalContext:
    """Immutable objects x attributes incidence table.

    Incidence is kept both as per-object attribute bitmasks and
    per-attribute object bitmasks, so both derivation directions are
    plain intersection loops.
    """

    __slots__ = ("objects", "attributes", "_rows", "_cols", "_oidx", "_aidx")

    def __init__(self, objects, attributes, incidence):
        objects = tuple(objects)
        attributes = tuple(attributes)
        if len(set(objects)) != len(objects):
            raise ValueError("object names must be pairwise distinct")
        if len(set(attributes)) != len(attributes):
            raise ValueError("attribute names must be pairwise distinct")
        matrix = [list(row) for row in incidence]
        if len(matrix) != len(objects) or any(len(r) != len(attributes) for r in matrix):
            raise ValueError("incidence dimensions do not match object/attribute counts")
        rows = []
        for r in matrix:
            mask = 0
            for j, v in enumerate(r):
                if v:
                    mask |= 1 << j
            rows.append(mask)
        cols = []
        for j in range(len(attributes)):
            c = 0
            for i, r in enumerate(rows):
                if r >> j & 1:
                    c |= 1 << i
            cols.append(c)
        self.objects = objects
        self.attributes = attributes
        self._rows = tuple(rows)
        self._cols = tuple(cols)
        self._oidx = {g: i for i, g in enumerate(objects)}
        self._aidx = {m: j for j, m in enumerate(attributes)}

    @classmethod
    def from_intents(cls, objects, attributes, intents) -> "FormalContext":
        """Build from one attribute set per object (in `objects` order)."""
        attributes = tuple(attributes)
        aset = set(attributes)
        matrix = []
        for it in intents:
            it = set(it)
            if not it <= aset:
                raise ValueError(f"unknown attributes in intent: {sorted(it - aset)}")
            matrix.append([m in it for m in attributes])
        return cls(objects, attributes, matrix)

    # -- mask helpers ------------------------------------------------

    def _amask(self, names: Iterable[str]) -> int:
        mask = 0
        for m in names:
            try:
                mask |= 1 << self._aidx[m]
            except KeyError:
                raise ValueError(f"unknown attribute name: {m!r}") from None
        return mask

    def _omask(self, names: Iterable[str]) -> int:
        mask = 0
        for g in names:
            try:
                mask |= 1 << self._oidx[g]
            except KeyError:
                raise ValueError(f"unknown object name: {g!r}") from None
        return mask

    def _attrs(self, mask: int) -> frozenset:
        return _names(self.attributes, mask)

    def _objs(self, mask: int) -> frozenset:
        return _names(self.objects, mask)

    def row(self, g: str) -> frozenset:
        return self._attrs(self._rows[self._oidx[g]])

    def column(self, m: str) -> frozenset:
        return self._objs(self._cols[self._aidx[m]])

    def incident(self, g: str, m: str) -> bool:
        return bool(self._rows[self._oidx[g]] >> self._aidx[m] & 1)

    # -- derivation --------------------------------------------------

    def derive_objects(self, objs: Iterable[str]) -> frozenset:
        """Attributes shared by every object of the set; all of M for the empty set."""
        return self._attrs(self._intent_omask(self._omask(objs)))

    def derive_attributes(self, attrs: Iterable[str]) -> frozenset:
        """Objects possessing every attribute of the set; all of G for the empty set."""
        return self._objs(self._extent_amask(self._amask(attrs)))

    def _extent_amask(self, bmask: int) -> int:
        ext = (1 << len(self._rows)) - 1
        cols = self._cols
        while bmask:
            low = bmask & -bmask
            ext &= cols[low.bit_length() - 1]
            bmask ^= low
        return ext

    def _intent_omask(self, omask: int) -> int:
        intent = (1 << len(self._cols)) - 1
        rows = self._rows
        while omask:
            low = omask & -omask
            intent &= rows[low.bit_length() - 1]
            omask ^= low
        return intent

    def _close_amask(self, bmask: int) -> int:
        """B'': the extent by ANDing columns, then the rows of the extent."""
        return self._intent_omask(self._extent_amask(bmask))

    def close_attributes(self, attrs: Iterable[str]) -> frozenset:
        """The closure B'' of an attribute set."""
        return self._attrs(self._close_amask(self._amask(attrs)))

    def is_closed(self, attrs: Iterable[str]) -> bool:
        mask = self._amask(attrs)
        return self._close_amask(mask) == mask

    # -- concept enumeration ------------------------------------------

    def intent_masks(self) -> list:
        """All closed attribute masks, in lectic order."""
        check_guard(len(self.attributes), CONCEPTS_GUARD, "concept enumeration")
        return list(closed_masks(len(self.attributes), self._close_amask))

    def intents(self) -> list:
        return [self._attrs(m) for m in self.intent_masks()]

    def concepts(self) -> list:
        """All formal concepts (guarded enumeration oracle)."""
        out = []
        for bmask in self.intent_masks():
            ext = self._extent_amask(bmask)
            out.append(Concept(self._objs(ext), self._attrs(bmask)))
        return out

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


def _names(universe: tuple, mask: int) -> frozenset:
    out = []
    while mask:
        low = mask & -mask
        out.append(universe[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


def closed_masks(n: int, close, prune=None):
    """Close-by-One: every set closed under `close` over n attributes, once,
    in lectic order (of two sets, the one holding the first attribute where
    they differ comes later).  A set b reached at attribute y has children
    close(b | 1<<j) for j >= y not in b, kept when they add nothing below j;
    they are pushed in ascending j, so the pre-order is lectic.  A set for
    which prune(b) holds is yielded but not expanded."""
    stack = [(close(0), 0)]
    while stack:
        b, y = stack.pop()
        yield b
        if prune is not None and prune(b):
            continue
        for j in range(y, n):
            bit = 1 << j
            if b & bit:
                continue
            c = close(b | bit)
            if not (c & ~b) & (bit - 1):
                stack.append((c, j + 1))


def contranominal_scale(n: int) -> FormalContext:
    """The n x n context with every incidence except the diagonal."""
    if n < 1:
        raise ValueError("contranominal scale needs n >= 1")
    objects = [f"g{i}" for i in range(1, n + 1)]
    attributes = [f"m{i}" for i in range(1, n + 1)]
    matrix = [[i != j for j in range(n)] for i in range(n)]
    return FormalContext(objects, attributes, matrix)


def _reducible_index(vectors, full):
    """Index of the first vector equal to the intersection of the other
    vectors containing it (the empty intersection counting as the full set),
    or None."""
    for i, v in enumerate(vectors):
        inter = full
        for j, w in enumerate(vectors):
            if j != i and w & v == v:
                inter &= w
        if inter == v:
            return i
    return None


def reduce_context(ctx: FormalContext) -> FormalContext:
    """Strip reducible objects and attributes, repeating to a fixpoint.

    Removal can expose new reducibles, so objects and attributes are
    re-scanned until neither side changes.
    """
    objs = list(range(len(ctx.objects)))
    atts = list(range(len(ctx.attributes)))
    changed = True
    while changed:
        changed = False
        for keep, other, vectors in ((objs, atts, ctx._rows), (atts, objs, ctx._cols)):
            full = sum(1 << k for k in other)
            while (i := _reducible_index([vectors[k] & full for k in keep], full)) is not None:
                del keep[i]
                changed = True
    return FormalContext(
        [ctx.objects[i] for i in objs],
        [ctx.attributes[j] for j in atts],
        [[ctx._rows[i] >> j & 1 for j in atts] for i in objs],
    )


# -- Burmeister .cxt format ------------------------------------------


def parse_cxt(text: str) -> FormalContext:
    """Parse a Burmeister .cxt file, rejecting dimension mismatches."""
    lines = text.split("\n")
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
    try:
        n_obj = int(take().strip())
        n_att = int(take().strip())
    except ValueError:
        raise ValueError("malformed .cxt header: expected object/attribute counts") from None
    if n_obj < 0 or n_att < 0:
        raise ValueError("negative counts in .cxt header")
    if take().strip():
        raise ValueError("malformed .cxt header: expected blank line before names")
    objects = [take() for _ in range(n_obj)]
    attributes = [take() for _ in range(n_att)]
    matrix = []
    for _ in range(n_obj):
        row = take()
        if len(row) != n_att or any(ch not in "X." for ch in row):
            raise ValueError(f"malformed .cxt incidence row: {row!r}")
        matrix.append([ch == "X" for ch in row])
    for rest in lines[pos:]:
        if rest.strip():
            raise ValueError("trailing content in .cxt file")
    return FormalContext(objects, attributes, matrix)


def write_cxt(ctx: FormalContext) -> str:
    out = ["B", "", str(len(ctx.objects)), str(len(ctx.attributes)), ""]
    out.extend(ctx.objects)
    out.extend(ctx.attributes)
    for g in ctx.objects:
        row = ctx.row(g)
        out.append("".join("X" if m in row else "." for m in ctx.attributes))
    return "\n".join(out) + "\n"
