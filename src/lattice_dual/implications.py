"""Attribute implications: closure, validity, base recognition, and the
contraordinal bridge between posets and contexts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .context import FormalContext, closed_masks
from .poset import Poset, is_antichain
from .util import check_guard

IS_BASE_GUARD = 18


@dataclass(frozen=True)
class Implication:
    premise: frozenset
    conclusion: frozenset

    def __init__(self, premise: Iterable[str], conclusion: Iterable[str]):
        object.__setattr__(self, "premise", frozenset(premise))
        object.__setattr__(self, "conclusion", frozenset(conclusion))


def imp_closure(imps: Iterable[Implication], xs: Iterable[str]) -> frozenset:
    """Least superset of xs closed under every implication (forward chaining)."""
    closed = set(xs)
    pending = list(imps)
    changed = True
    while changed:
        changed = False
        rest = []
        for imp in pending:
            if imp.premise <= closed:
                if not imp.conclusion <= closed:
                    closed |= imp.conclusion
                    changed = True
            else:
                rest.append(imp)
        pending = rest
    return frozenset(closed)


def is_valid(ctx: FormalContext, imp: Implication) -> bool:
    """An implication holds iff premise' is contained in conclusion'."""
    return ctx.derive_attributes(imp.premise) <= ctx.derive_attributes(imp.conclusion)


def is_base(ctx: FormalContext, imps: Iterable[Implication]) -> bool:
    """Base recognition (guarded): the implications' closure system equals
    the context's.  That holds exactly when every implication holds in the
    context (so every intent is closed under them) and every set closed
    under them, enumerated by Close-by-One with early exit, is an intent."""
    check_guard(len(ctx.attributes), IS_BASE_GUARD, "implication base recognition")
    known = ctx._aidx.keys()
    rules = []
    for imp in imps:
        if imp.premise <= known:  # else it fires only once an unknown name is derived
            if not imp.conclusion <= known:
                return False  # it fires on its own premise and leaves M
            rules.append((ctx._amask(imp.premise), ctx._amask(imp.conclusion)))
    if any(ctx._close_amask(p) & c != c for p, c in rules):
        return False

    def chain(x: int) -> int:
        grown = True
        while grown:
            grown = False
            for p, c in rules:
                if p & x == p and c & ~x:
                    x |= c
                    grown = True
        return x

    return all(
        ctx._close_amask(x) == x for x in closed_masks(len(ctx.attributes), chain)
    )


def contraordinal_context(poset: Poset) -> FormalContext:
    """Context on P x P with p I q iff NOT p <= q; its intents are exactly
    the downsets of the poset."""
    names = poset.elements
    matrix = [[not poset.leq(p, q) for q in names] for p in names]
    return FormalContext(names, names, matrix)


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
    a_family = [frozenset(s) for s in a_family]
    b_family = [frozenset(s) for s in b_family]
    imps = list(imps)
    full = frozenset(ctx.attributes)
    for s in a_family + b_family:
        if not ctx.is_closed(s):
            raise ValueError(f"{sorted(s)} is not an intent of the context")
    if not (is_antichain(a_family) and is_antichain(b_family)):
        raise ValueError("A and B must be antichains")
    if any(a <= b for a in a_family for b in b_family):
        raise ValueError("property (*) violated")
    if not is_base(ctx, imps):
        raise ValueError("the given implication set is not a base of the context")
    objects = []
    intents = []
    for g in ctx.objects:
        for i, b in enumerate(b_family):
            objects.append(f"{g}@{i}")
            intents.append(ctx.row(g) & b)
    built = FormalContext.from_intents(objects, ctx.attributes, intents)
    extended = imps + [Implication(a, full) for a in a_family]
    return built, extended


# -- JSON form: [{"premise": [...], "conclusion": [...]}, ...] --------


def implications_from_json(doc) -> list:
    if not isinstance(doc, list):
        raise ValueError("implication set JSON must be a list")
    out = []
    for item in doc:
        try:
            out.append(Implication(item["premise"], item["conclusion"]))
        except (KeyError, TypeError):
            raise ValueError(f"malformed implication entry: {item!r}") from None
    return out


def implications_to_json(imps: Iterable[Implication], universe) -> list:
    from .util import canon

    return [
        {"premise": canon(universe, i.premise), "conclusion": canon(universe, i.conclusion)}
        for i in imps
    ]
