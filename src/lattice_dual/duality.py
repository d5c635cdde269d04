"""Duality of antichains of downsets and the subexponential duality test.

The recursive test runs on bitmasks over the root poset.  A subproblem is
a triple (U, A, B): U is the universe mask of the subposet it lives on,
and A and B are strictly ascending tuples of masks, each member a downset
of that subposet.  Restricting to P minus down(p) or up(p) is a mask
`& ~`, so no subposet is ever built; names are translated only at the
boundary.  A memo that lives for one call keys each subproblem by its
triple and stores its verdict with the size of its subtree, so the
reported node count is that of the full recursion tree, repeated
subproblems included.

A subset is numerically no larger than its superset, so in an ascending
family only the members up to a mask y can lie in y.  Two scans of every
node rely on this: property (*) in `_check` when A is the longer family,
and `_split`'s test for an A-member inside down(p).  `_masks` sorts, and
`_split` keeps the order, so every family is ascending by construction;
`_check` verifies it before either scan runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import reduce
from operator import and_, or_

from .poset import Poset, _is_downset
from .util import (
    _star, bits, family_key, is_ascending_antichain, is_mask_antichain, maximal_masks, minimal_masks
)

# Slack applied only on the early-reject side of the frequency thresholds:
# borderline values are treated as passing, so a false "not dual" is never
# produced by floating-point noise (the algorithm merely recurses more).
_THRESHOLD_SLACK = 1e-12


class DualityInstance(namedtuple("DualityInstance", "poset a b")):
    """A poset together with two antichains of its downsets."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    def __new__(cls, poset: Poset, a, b):
        """Each member is encoded once; the family keeps the caller's sets,
        listed in the family order of their masks.  When the poset has no
        comparable pair every set of its names is a downset, and `encode`
        has already rejected any other name, so no member is walked."""
        codec = poset._codec
        universe = (1 << len(poset)) - 1
        families = []
        for fam, label in ((a, "A"), (b, "B")):
            pairs = sorted(
                ((codec.encode(s), s) for s in map(frozenset, fam)),
                key=lambda pair: family_key(pair[0]),
            )
            masks = [mask for mask, _ in pairs]
            if poset._nonmin:
                for mask in masks:
                    if not _is_downset(poset, universe, mask):
                        raise ValueError(f"{label}-member {codec.decode(mask)} is not a downset")
            if not is_mask_antichain(masks):
                raise ValueError(f"family {label} is not an antichain")
            families.append(tuple(s for _, s in pairs))
        return super().__new__(cls, poset, *families)


def _masks(inst: DualityInstance) -> tuple:
    """The instance as a mask triple (U, A, B) over its own poset."""
    poset = inst.poset
    return (
        (1 << len(poset)) - 1,
        tuple(sorted(map(poset._codec.encode, inst.a))),
        tuple(sorted(map(poset._codec.encode, inst.b))),
    )


DualityVerdict = namedtuple("DualityVerdict", "dual witness", defaults=(None,))


def check_star(inst: DualityInstance) -> bool:
    """Property (*): no A-member is contained in any B-member."""
    return not any(a <= b for a in inst.a for b in inst.b)


def _easy(universe: int, a: tuple, b: tuple) -> bool:
    """Empty A is dual exactly to {P}; empty B exactly to {empty set}."""
    if not a:
        return b == (universe,)
    return a == (0,)


def easy_test(inst: DualityInstance) -> bool:
    """Degenerate duality test when one family is empty.

    Empty A is dual exactly to {P}; empty B exactly to {empty set}.
    """
    if inst.a and inst.b:
        raise ValueError("easy_test requires an empty A or B family")
    return _easy(*_masks(inst))


def brute_force_dual(inst: DualityInstance) -> DualityVerdict:
    """Oracle: check the covering condition over every downset of the poset.

    The witness (when not dual) is the first uncovered downset in
    all_downsets enumeration order.
    """
    if not check_star(inst):
        raise ValueError("property (*) violated")
    for x in inst.poset.all_downsets():
        if any(a <= x for a in inst.a):
            continue
        if any(x <= b for b in inst.b):
            continue
        return DualityVerdict(False, x)
    return DualityVerdict(True)


def dualize_brute(a_family, poset: Poset) -> list:
    """The dual antichain: maximal downsets containing no A-member (guarded).

    The enumeration is pruned at every downset holding an A-member: each
    downset the engine reaches below it holds that member too.  Each
    downset is tested once: the engine asks prune(x) only after x is
    received here, so the prune predicate pops the verdict stored for x.
    """
    codec = poset._codec
    # An A-member naming an element outside the poset lies in no downset.
    # The rest are sorted, as `_star` needs.
    a_masks = sorted(codec.encode(s) for s in map(frozenset, a_family) if s <= codec.bit.keys())
    covered = {}
    free = []
    for x in poset._downset_masks(covered.pop):
        # some A-member lies in x exactly when A and {x} lack property (*)
        covered[x] = hit = not _star(a_masks, (x,))
        if not hit:
            free.append(x)
    return codec.family(maximal_masks(free))


def _split(poset: Poset, universe: int, a: tuple, b: tuple, p: int) -> tuple:
    """The decomposition at element index p: two (U, A, B) mask triples.

    The first lives on U minus down(p), the second on U minus up(p).  A and
    B must be strictly ascending, and the four families returned are too.
    Raw families are normalized back to antichains (minimal members on the
    A-side, maximal on the B-side), except the first B: each of its members
    is a downset containing p, so it contains down(p), and removing down(p)
    keeps B's members distinct, incomparable and in order.  The first A is
    {empty set} when an A-member lies in down(p); only the A-members up to
    down(p) can, so `_star` scans only those, and none when the least
    A-member is larger.  Two filters are list comprehensions, which are
    faster than `filterfalse` over a bound method.
    """
    below = poset._down[p] & universe
    above = poset._up[p] & universe
    bit = 1 << p
    if a and a[0] <= below and not _star(a, (below,)):
        first_a = (0,)
    else:
        first_a = minimal_masks(map((~below).__and__, a))
    first = (universe & ~below, first_a, tuple([y & ~below for y in b if y & bit]))
    second = (
        universe & ~above,
        tuple([x for x in a if not x & bit]),
        maximal_masks(map((~above).__and__, b)),
    )
    return first, second


def decompose(inst: DualityInstance, p: str):
    """Split an instance at p into subproblems over P minus down(p) / up(p).

    Raw decomposition families are normalized back to antichains
    (minimal members on the A-side, maximal on the B-side).
    """
    poset = inst.poset
    members = poset._codec.members
    halves = _split(poset, *_masks(inst), poset._codec.position(p))
    return tuple(
        DualityInstance(poset.restrict(members(universe)), map(members, a), map(members, b))
        for universe, a, b in halves
    )


def _check(poset: Poset, universe: int, a: tuple, b: tuple) -> None:
    """Invariants every subproblem must meet; a failure is a bug here.

    Each family must be strictly ascending and an antichain, and each
    member must lie in U and be a downset of it.  When no element of U is
    above another element of the poset, every subset of U is a downset, so
    only containment in U is tested, on the union of the members.  Property
    (*) is tested last: `_star` scans only the A-members up to each
    B-member, as `_split` does up to down(p), which is exact only for an
    ascending A.  Strict order also shows the members distinct, so the
    antichain test needs no set of them.
    """
    if universe & poset._nonmin:
        downsets = all(_is_downset(poset, universe, m) for m in a + b)
    else:
        downsets = not reduce(or_, a + b, 0) & ~universe
    if not (downsets and is_ascending_antichain(a) and is_ascending_antichain(b)):
        raise RuntimeError("subproblem family is not an antichain of downsets (normalization bug)")
    if not _star(a, b):
        raise RuntimeError("subproblem lost property (*) (normalization bug)")


def _counts(family, universe: int, elems) -> list:
    """For each element index in elems, the number of members containing it.

    The members are packed into one integer, each in a slot of whole bytes
    wide enough for the universe, so that a count is one AND with a bit
    repeated in every slot and one popcount.
    """
    width = universe.bit_length() // 8 + 1
    packed = int.from_bytes(b"".join(x.to_bytes(width, "little") for x in family), "little")
    ones = int.from_bytes((b"\x01" + bytes(width - 1)) * len(family), "little")
    return [(packed & (ones << i)).bit_count() for i in elems]


def _pivot(poset: Poset, universe: int, a: tuple, b: tuple) -> int | None:
    """The pivot index of a subproblem with A and B nonempty, or None when
    the frequency bounds prove it not dual.

    With m the largest |down(e)| + |up(e)| in U: if m**3 exceeds |U|, the
    element attaining m; otherwise the element of highest frequency,
    max(|A-members containing e| / |A|, |B-members missing e| / |B|),
    compared exactly as integers.  Ties go to the first element in
    declaration order.

    Only elements comparable to some other element of the poset are
    scored: every other one scores 2, the least possible, so the first
    element of U attains m = 2.  An element in every A-member or in no
    B-member has frequency 1, the highest; when there is one, the first
    such is the pivot, and neither bound can reject since m * log_n >= 4.8
    (m >= 2, |A| + |B| >= 2).  Only otherwise are the members counted.

    The m-scan walks the set bits itself, as `context._meet` does, instead
    of listing them through util.bits.
    """
    down, up = poset._down, poset._up
    m, best = 2, universe & -universe
    rest = universe & (poset._nonmin | poset._nonmax)
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        score = (down[i] & universe).bit_count() + (up[i] & universe).bit_count()
        if score > m:
            m, best = score, low
        rest ^= low
    if m**3 > universe.bit_count():
        return best.bit_length() - 1
    full = universe & (reduce(and_, a) | ~reduce(or_, b))
    if full:
        return (full & -full).bit_length() - 1
    elems = bits(universe)
    na, nb = len(a), len(b)
    log_n = math.log(na + nb) / math.log(4 / 3)
    in_a = _counts(a, universe, elems)
    out_b = [nb - c for c in _counts(b, universe, elems)]
    a_below = max(in_a) / na * m * log_n < 1 - _THRESHOLD_SLACK
    b_below = max(out_b) / nb * m * m * log_n < 1 - _THRESHOLD_SLACK
    if a_below and b_below:
        return None
    freqs = [max(ca * nb, cb * na) for ca, cb in zip(in_a, out_b)]
    return elems[freqs.index(max(freqs))]


def _solve(poset: Poset, universe: int, a: tuple, b: tuple) -> tuple:
    """(dual, nodes) of a mask triple over poset.

    Runs the recursion on an explicit stack.  A frame holds a subproblem,
    its second half while the first is being solved, and the nodes counted
    so far; when a half is solved its (dual, nodes) is handed to the frame
    below.  The second half is solved only if the first is dual.  A pivot
    in U leaves both halves without it, so the depth is at most |U|; a
    pivot outside U is a bug, and is raised before its split.
    """
    memo = {}
    stack = []
    todo = (universe, a, b)
    while True:
        if todo is not None:
            done = memo.get(todo)
            if done is None:
                _check(poset, *todo)
                universe, a, b = todo
                if not a or not b:
                    done = (_easy(universe, a, b), 1)
                elif (p := _pivot(poset, universe, a, b)) is None:
                    done = (False, 1)
                else:
                    if not universe >> p & 1:
                        raise RuntimeError(f"pivot {p} lies outside U (normalization bug)")
                    first, second = _split(poset, universe, a, b, p)
                    stack.append([todo, second, 1])
                    todo = first
                    continue
                memo[todo] = done
            todo = None
        if not stack:
            return done
        frame = stack[-1]
        dual, nodes = done
        frame[2] += nodes
        if dual and frame[1] is not None:
            todo, frame[1] = frame[1], None
            continue
        stack.pop()
        done = (dual, frame[2])
        memo[frame[0]] = done


def test_duality(inst: DualityInstance) -> bool:
    """Frequency-based recursive duality test; agrees with brute_force_dual."""
    dual, _ = test_duality_stats(inst)
    return dual


def test_duality_stats(inst: DualityInstance):
    """As test_duality, but also reports the number of recursive calls.

    The count is the size of the full recursion tree: a subproblem solved
    again from the memo counts its whole subtree again.
    """
    universe, a, b = _masks(inst)
    if not _star(a, b):
        raise ValueError("property (*) violated")
    return _solve(inst.poset, universe, a, b)
