"""JSM learning: training contexts, (k-weak) hypotheses and their minimal sets."""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from collections.abc import Iterable

from .context import (
    BITMAP_ATTRIBUTES, FormalContext, _interval, _row_closure, _row_mask, _row_text, _strictly_above,
)
from .util import _star, bits, closed_masks, is_name_list, name_key


class TrainingContext(namedtuple("TrainingContext", "positive negative")):
    """Positive and negative contexts over one shared attribute list."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, positive: FormalContext, negative: FormalContext):
        if positive.attributes != negative.attributes:
            raise ValueError(
                "positive and negative contexts must share the same attribute list"
            )
        overlap = set(positive.objects) & set(negative.objects)
        if overlap:
            raise ValueError(f"object names shared between sides: {sorted(overlap, key=name_key)}")
        return super().__new__(cls, positive, negative)

    @property
    def attributes(self) -> tuple:
        return self.positive.attributes

    def swapped(self) -> "TrainingContext":
        """Negative-hypothesis view: the two contexts exchanged."""
        return TrainingContext(self.negative, self.positive)


def _negative_cover_count(t: TrainingContext, h: int) -> int:
    """Negative object intents containing the attribute mask h."""
    return t.negative._extent_amask(h).bit_count()


def is_hypothesis(t: TrainingContext, h: Iterable[str], k: int = 0) -> bool:
    """Closed in the positive context and contained in at most k negative
    object intents."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    h = t.positive._acodec.encode(h)
    if t.positive._close_amask(h) != h:
        return False
    return _negative_cover_count(t, h) <= k


def enumerate_hypotheses(t: TrainingContext, k: int = 0) -> list:
    """All k-weak positive hypotheses, each exactly once (lectic order).

    Enumerates the positive intents and filters by negative cover count;
    the count is anti-monotone in the intent, so no branch of the closure
    enumeration can be cut without risking losing hypotheses.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    pos = t.positive
    return pos._acodec.sets([h for h in pos.intent_masks() if _negative_cover_count(t, h) <= k])


def minimal_hypotheses(t: TrainingContext, k: int = 0, method: str = "oracle") -> list:
    """Subset-minimal k-weak hypotheses, in the family order; {M} when no
    hypothesis exists (guarded like concept enumeration).

    Both methods, "oracle" and "iterate", take the one list of
    `_minimal_hypothesis_masks`.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if method not in ("oracle", "iterate"):
        raise ValueError(f"unknown method: {method!r}")
    return t.positive._acodec.family(_minimal_hypothesis_masks(t, k))


def _minimal_hypothesis_masks(t: TrainingContext, k: int):
    """Subset-minimal k-weak hypotheses as masks, in lectic order; M alone
    when there is none (the {M} convention; M is lectically last).  For
    k = 0 up to BITMAP_ATTRIBUTES attributes they are sorted off the intent
    bitmap in natural order, else found by the pruned search: one list."""
    if k == 0 and len(t.attributes) <= BITMAP_ATTRIBUTES:
        return _bitmap_minimal_masks(t)
    return _pruned_minimal_masks(t, k)


def _bitmap_minimal_masks(t: TrainingContext) -> list:
    """The minimal hypotheses (k = 0) off the positive intent bitmap (bit s
    stands for the mask s): the intents inside no negative row, less those
    strictly above another, walked bit by bit and sorted into lectic order."""
    n = t.positive._width()
    hyps = _row_closure(set(t.positive._rows), n)
    for r in set(t.negative._rows):
        hyps &= ~_interval(0, r, n)
    if not hyps:
        return [(1 << n) - 1]
    # Lectic order by bit strings read from attribute 0 up: the first differing
    # character is the lowest differing attribute, "1" in the later mask; of a
    # string and its proper prefix, the longer holds the next attribute, so is later.
    return sorted(bits(hyps & ~_strictly_above(hyps, n)), key=lambda m: bin(m)[:1:-1])


def _pruned_minimal_masks(t: TrainingContext, k: int):
    """The minimal k-weak hypotheses by Close-by-One over the positive
    intents, pruned below every hypothesis: the closed sets on the way to a
    minimal hypothesis are closed proper subsets of it, so none is a
    hypothesis and none is pruned.  Lectic order extends inclusion, so a
    pruned hit is minimal exactly when no earlier minimal hit lies below
    it; the minimal hits are kept in ascending order, as `_star` needs.
    Each closed set is tested once: the engine asks prune(b) only after b
    is received here, so the prune predicate pops the verdict stored for b.
    """
    verdict = {}
    kept = []
    for b in closed_masks(*t.positive._extent_step(), verdict.pop):
        verdict[b] = hit = _negative_cover_count(t, b) <= k
        if hit and _star(kept, (b,)):
            insort(kept, b)
            yield b
    if not kept:
        yield (1 << len(t.attributes)) - 1


def _first_new(t: TrainingContext, known) -> int | None:
    """The lectically first minimal hypothesis mask outside `known` (None if
    there is none); raises ValueError unless every member of `known` is a
    minimal hypothesis.

    The search stops once every member of `known` is seen and a new one is
    found; a member that is not a minimal hypothesis, or names an unknown
    attribute, is never seen, so then the search runs to the end.
    """
    known = [frozenset(h) for h in known]
    codec = t.positive._acodec
    masks = [codec.encode(h) if h <= codec.bit.keys() else None for h in known]
    pending, new = set(masks), None
    for b in _minimal_hypothesis_masks(t, 0):  # each mask comes once
        if b in pending:
            pending.remove(b)
        elif new is None:
            new = b
        if new is not None and not pending:
            return new
    for h, b in zip(known, masks):
        if b in pending:
            raise ValueError(f"{sorted(h, key=name_key)} is not a minimal hypothesis")
    return new


def decide_amh(t: TrainingContext, known: Iterable[frozenset]) -> bool:
    """Is there a minimal hypothesis outside the given set?

    Backed by the subset bitmap up to BITMAP_ATTRIBUTES attributes and by a
    pruned closed-set search above (the problem is NP-complete in general);
    every member of `known` must itself be a minimal hypothesis.
    The {M} convention applies: a context with no hypotheses has minimal
    set {M}.
    """
    return _first_new(t, known) is not None


def find_new_min_h(t: TrainingContext, known: Iterable[frozenset]) -> frozenset:
    """Return a minimal hypothesis outside `known`: the lectically first.

    Every member of `known` must be a minimal hypothesis.  When no genuine
    hypothesis exists the answer is the full attribute set M, by the {M}
    convention.
    """
    new = _first_new(t, known)
    if new is None:
        raise ValueError("precondition violated: no additional minimal hypothesis")
    return t.positive._acodec.members(new)


def classify(intent: Iterable[str], pos: Iterable[frozenset], neg: Iterable[frozenset]) -> str:
    """Classify an object intent against minimal hypothesis sets."""
    intent = frozenset(intent)
    has_pos = any(frozenset(h) <= intent for h in pos)
    has_neg = any(frozenset(h) <= intent for h in neg)
    if has_pos and has_neg:
        return "contradictory"
    if has_pos:
        return "positive"
    if has_neg:
        return "negative"
    return "undetermined"


# -- on-disk form ------------------------------------------------------


def training_from_json(doc: dict) -> TrainingContext:
    """JSON form: {"attributes": [...], "positive": {name: "X.X"}, "negative": {...}}."""
    try:
        attributes = doc["attributes"]
        pos_rows = doc["positive"]
        neg_rows = doc["negative"]
    except (KeyError, TypeError):
        raise ValueError(
            'training JSON must have "attributes", "positive" and "negative"'
        ) from None
    if not is_name_list(attributes, str):
        raise ValueError('training JSON "attributes" must be a list of attribute names')

    def build(rows) -> FormalContext:
        if not isinstance(rows, dict):
            raise ValueError(
                'training JSON "positive" and "negative" must map object names to rows'
            )
        masks = []
        for g, row in rows.items():
            mask = _row_mask(row, len(attributes))
            if mask is None:
                raise ValueError(f"malformed incidence row for {g!r}: {row!r}")
            masks.append(mask)
        return FormalContext._from_rows(list(rows), attributes, masks)

    return TrainingContext(build(pos_rows), build(neg_rows))


def training_to_json(t: TrainingContext) -> dict:
    def rows(ctx: FormalContext) -> dict:
        return {g: _row_text(row, len(ctx.attributes)) for g, row in zip(ctx.objects, ctx._rows)}

    return {
        "attributes": list(t.attributes),
        "positive": rows(t.positive),
        "negative": rows(t.negative),
    }
