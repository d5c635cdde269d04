"""Formal contexts, Galois derivation operators and concept enumeration."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .util import check_guard

CONCEPTS_GUARD = 25
# Below this many attributes concepts() closes every subset; above, it
# switches to lectic (NextClosure) enumeration.  Both must agree.
_POWERSET_LIMIT = 16


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
        return frozenset(m for j, m in enumerate(self.attributes) if mask >> j & 1)

    def _objs(self, mask: int) -> frozenset:
        return frozenset(g for i, g in enumerate(self.objects) if mask >> i & 1)

    @property
    def _full_amask(self) -> int:
        return (1 << len(self.attributes)) - 1

    @property
    def _full_omask(self) -> int:
        return (1 << len(self.objects)) - 1

    def row(self, g: str) -> frozenset:
        return self._attrs(self._rows[self._oidx[g]])

    def column(self, m: str) -> frozenset:
        return self._objs(self._cols[self._aidx[m]])

    def incident(self, g: str, m: str) -> bool:
        return bool(self._rows[self._oidx[g]] >> self._aidx[m] & 1)

    # -- derivation --------------------------------------------------

    def derive_objects(self, objs: Iterable[str]) -> frozenset:
        """Attributes shared by every object of the set; all of M for the empty set."""
        mask = self._full_amask
        for g in objs:
            try:
                mask &= self._rows[self._oidx[g]]
            except KeyError:
                raise ValueError(f"unknown object name: {g!r}") from None
        return self._attrs(mask)

    def derive_attributes(self, attrs: Iterable[str]) -> frozenset:
        """Objects possessing every attribute of the set; all of G for the empty set."""
        mask = self._full_omask
        for m in attrs:
            try:
                mask &= self._cols[self._aidx[m]]
            except KeyError:
                raise ValueError(f"unknown attribute name: {m!r}") from None
        return self._objs(mask)

    def _extent_amask(self, bmask: int) -> int:
        ext = 0
        for i, r in enumerate(self._rows):
            if r & bmask == bmask:
                ext |= 1 << i
        return ext

    def _close_amask(self, bmask: int) -> int:
        intent = self._full_amask
        for i, r in enumerate(self._rows):
            if r & bmask == bmask:
                intent &= r
        return intent

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
        if len(self.attributes) <= _POWERSET_LIMIT:
            closed = {self._close_amask(s) for s in range(1 << len(self.attributes))}
            return sorted(closed, key=self._lectic_key)
        return list(self._next_closure_masks())

    def _lectic_key(self, mask: int) -> tuple:
        """Lectic order: of two sets, the one holding the first attribute
        where they differ comes later (the order NextClosure yields)."""
        n = len(self.attributes)
        return tuple(mask >> j & 1 for j in range(n))

    def _next_closure_masks(self):
        n = len(self.attributes)
        full = self._full_amask
        a = self._close_amask(0)
        yield a
        while a != full:
            nxt = None
            for i in range(n - 1, -1, -1):
                bit = 1 << i
                if a & bit:
                    a &= ~bit
                else:
                    b = self._close_amask(a | bit)
                    if not (b & ~a) & (bit - 1):
                        nxt = b
                        break
            a = nxt
            yield a

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
    objects = list(ctx.objects)
    attributes = list(ctx.attributes)
    rows = {g: set(ctx.row(g)) for g in objects}
    while True:
        changed = False
        while True:
            vecs = [_mask_of(rows[g], attributes) for g in objects]
            i = _reducible_index(vecs, (1 << len(attributes)) - 1)
            if i is None:
                break
            del rows[objects[i]]
            del objects[i]
            changed = True
        while True:
            cols = [
                sum(1 << i for i, g in enumerate(objects) if m in rows[g])
                for m in attributes
            ]
            j = _reducible_index(cols, (1 << len(objects)) - 1)
            if j is None:
                break
            gone = attributes[j]
            del attributes[j]
            for g in objects:
                rows[g].discard(gone)
            changed = True
        if not changed:
            break
    return FormalContext.from_intents(objects, attributes, [rows[g] for g in objects])


def _mask_of(names, universe) -> int:
    idx = {m: j for j, m in enumerate(universe)}
    mask = 0
    for m in names:
        if m in idx:
            mask |= 1 << idx[m]
    return mask


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
