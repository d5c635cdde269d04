"""Attribute implications: closure, validity, base recognition, and the
contraordinal bridge between posets and contexts."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable

from .context import FormalContext
from .poset import Poset
from .util import (
    Codec, _star, check_guard, closed_masks, is_mask_antichain, is_name_list, name_key
)

IS_BASE_GUARD = 18


class Implication(namedtuple("Implication", "premise conclusion")):
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, premise: Iterable[str], conclusion: Iterable[str]):
        return super().__new__(cls, frozenset(premise), frozenset(conclusion))


def _chain(rules, x: int) -> int:
    """The least superset of x closed under the rules, (premise, conclusion)
    mask pairs: forward chaining."""
    grown = True
    while grown:
        grown = False
        for p, c in rules:
            if p & x == p and c & ~x:
                x |= c
                grown = True
    return x


def imp_closure(imps: Iterable[Implication], xs: Iterable[str]) -> frozenset:
    """Least superset of xs closed under every implication (forward chaining
    over one codec of xs and every name the implications use)."""
    imps, xs = list(imps), frozenset(xs)
    codec = Codec(xs.union(*(i.premise | i.conclusion for i in imps)), "attribute")
    rules = [(codec.encode(i.premise), codec.encode(i.conclusion)) for i in imps]
    return codec.members(_chain(rules, codec.encode(xs)))


def is_valid(ctx: FormalContext, imp: Implication) -> bool:
    """An implication holds iff premise' is contained in conclusion'."""
    return ctx.derive_attributes(imp.premise) <= ctx.derive_attributes(imp.conclusion)


def is_base(ctx: FormalContext, imps: Iterable[Implication]) -> bool:
    """Base recognition (guarded): the implications' closure system equals
    the context's.  That holds exactly when every implication holds in the
    context (so every intent is closed under them) and every set closed
    under them, enumerated by Close-by-One with early exit, is an intent."""
    check_guard(len(ctx.attributes), IS_BASE_GUARD, "implication base recognition")
    codec = ctx._acodec
    rules = []
    for imp in imps:
        if imp.premise <= codec.bit.keys():  # else it fires only once an unknown name is derived
            if not imp.conclusion <= codec.bit.keys():
                return False  # it fires on its own premise and leaves M
            rules.append((codec.encode(imp.premise), codec.encode(imp.conclusion)))
    if any(ctx._close_amask(p) & c != c for p, c in rules):
        return False

    full = (1 << len(ctx.attributes)) - 1

    def children(x, _, y):
        out = []
        outside = ~x
        free = full & outside >> y << y
        while free:
            bit = free & -free
            free ^= bit
            c = _chain(rules, x | bit)
            if not c & outside & (bit - 1):
                out.append((c, None, bit.bit_length()))
        return out

    return all(ctx._close_amask(x) == x for x in closed_masks(children, (_chain(rules, 0), None)))


def contraordinal_context(poset: Poset) -> FormalContext:
    """Context on P x P with p I q iff NOT p <= q; its intents are exactly
    the downsets of the poset."""
    names, full = poset.elements, (1 << len(poset)) - 1
    return FormalContext._from_rows(names, names, [full & ~up for up in poset._up])


def distributive_min_base(poset: Poset) -> list:
    """One-element-premise base of the downset lattice: {q} -> lower covers
    of q for every non-minimal q.  Its closed sets are the downsets."""
    out = []
    for q in poset.elements:
        covers = poset.lower_covers(q)
        if covers:
            out.append(Implication([q], covers))
    return out


def dci_to_mibr(ctx: FormalContext, a_family, b_family, imps):
    """Reduce a duality question over the intent lattice to base recognition.

    Builds the context whose closed sets are the context's closed sets lying
    under some B-member, and extends the base with A -> M for every A-member;
    the extension is a base of the built context iff (A, B) are dual.
    """
    a_family, b_family, imps = list(a_family), list(b_family), list(imps)
    named = set().union(*(i.premise | i.conclusion for i in imps))
    unknown = sorted(named - set(ctx.attributes), key=name_key)
    if unknown:
        raise ValueError(f"the base names attributes outside the context: {unknown}")
    masks = ctx._intent_masks(a_family + b_family)
    a_masks, b_masks = masks[: len(a_family)], masks[len(a_family) :]
    if not (is_mask_antichain(a_masks) and is_mask_antichain(b_masks)):
        raise ValueError("A and B must be antichains")
    if not _star(sorted(a_masks), b_masks):
        raise ValueError("property (*) violated")
    if not is_base(ctx, imps):
        raise ValueError("the given implication set is not a base of the context")
    objects = [f"{g}@{i}" for g in ctx.objects for i in range(len(b_masks))]
    rows = [row & b for row in ctx._rows for b in b_masks]
    built = FormalContext._from_rows(objects, ctx.attributes, rows)
    full = frozenset(ctx.attributes)
    extended = imps + [Implication(ctx._acodec.members(a), full) for a in a_masks]
    return built, extended


# -- JSON form: [{"premise": [...], "conclusion": [...]}, ...] --------


def implications_from_json(doc) -> list:
    if not isinstance(doc, list):
        raise ValueError("implication set JSON must be a list")
    out = []
    for item in doc:
        if not (
            isinstance(item, dict)
            and is_name_list(item.get("premise"), str)
            and is_name_list(item.get("conclusion"), str)
        ):
            raise ValueError(
                f"malformed implication entry (premise and conclusion must be "
                f"lists of attribute names): {item!r}"
            )
        out.append(Implication(item["premise"], item["conclusion"]))
    return out


def implications_to_json(imps: Iterable[Implication], universe) -> list:
    codec = Codec(universe, "attribute")
    return [
        {
            "premise": codec.decode(codec.encode(i.premise)),
            "conclusion": codec.decode(codec.encode(i.conclusion)),
        }
        for i in imps
    ]
