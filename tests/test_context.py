"""Formal contexts: derivation, closure, concepts, reduction, .cxt I/O."""

import copy
import itertools
import pickle
import random
import re
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_dual import (
    FormalContext,
    GuardExceeded,
    Implication,
    TrainingContext,
    contraordinal_context,
    contranominal_scale,
    is_base,
    minimal_hypotheses,
    parse_cxt,
    reduce_context,
    write_cxt,
)

from lattice_dual import context
from lattice_dual.context import BITMAP_ATTRIBUTES, _row_mask
from lattice_dual.hypotheses import _pruned_minimal_masks
from lattice_dual.util import closed_masks

from conftest import brute_intents, lectic_flags, random_context, random_poset


def ctx_equal(a: FormalContext, b: FormalContext) -> bool:
    return (
        a.objects == b.objects
        and a.attributes == b.attributes
        and all(a.row(g) == b.row(g) for g in a.objects)
    )


# -- derivation ----------------------------------------------------------


def test_derive_objects_worked_rows(worked_negative, worked_positive):
    assert worked_negative.derive_objects({"g1"}) == frozenset({"m2", "m3", "m5", "m6"})
    assert worked_positive.derive_objects({"g4", "g5"}) == frozenset(
        {"m3", "m4", "m5", "m6"}
    )


def test_derive_objects_empty_returns_all_attributes(worked_negative):
    assert worked_negative.derive_objects(set()) == frozenset(worked_negative.attributes)


def test_derive_objects_unknown_object(worked_negative):
    with pytest.raises(ValueError):
        worked_negative.derive_objects({"nope"})


def test_derive_attributes_worked_columns(worked_negative):
    assert worked_negative.derive_attributes({"m1"}) == frozenset({"g2", "g3"})
    assert worked_negative.derive_attributes({"m2", "m5"}) == frozenset({"g1", "g3"})


def test_derive_attributes_empty_returns_all_objects(worked_negative):
    assert worked_negative.derive_attributes(set()) == frozenset(worked_negative.objects)


def test_derive_attributes_unknown_attribute(worked_negative):
    with pytest.raises(ValueError):
        worked_negative.derive_attributes({"m99"})


# -- closure -------------------------------------------------------------


def test_close_empty_set_on_worked_positive(worked_positive):
    assert worked_positive.close_attributes(set()) == frozenset()


def test_close_is_idempotent(worked_negative):
    rng = random.Random(7)
    for _ in range(50):
        sub = {m for m in worked_negative.attributes if rng.random() < 0.5}
        once = worked_negative.close_attributes(sub)
        assert worked_negative.close_attributes(once) == once


def test_contranominal_everything_closed():
    c3 = contranominal_scale(3)
    assert c3.close_attributes({"m1", "m2"}) == frozenset({"m1", "m2"})


def test_closure_operator_properties():
    rng = random.Random(11)
    for _ in range(30):
        ctx = random_context(rng, 5, 5)
        attrs = list(ctx.attributes)
        x = frozenset(m for m in attrs if rng.random() < 0.5)
        y = x | frozenset(m for m in attrs if rng.random() < 0.3)
        cx, cy = ctx.close_attributes(x), ctx.close_attributes(y)
        assert x <= cx  # extensive
        assert cx <= cy  # monotone
        assert ctx.close_attributes(cx) == cx  # idempotent


def test_galois_property_exhaustive_small():
    rng = random.Random(13)
    for _ in range(10):
        ctx = random_context(rng, 4, 4)
        objs, attrs = list(ctx.objects), list(ctx.attributes)
        for r in range(len(objs) + 1):
            for a_set in itertools.combinations(objs, r):
                a_prime = ctx.derive_objects(a_set)
                for s in range(len(attrs) + 1):
                    for b_set in itertools.combinations(attrs, s):
                        lhs = set(a_set) <= ctx.derive_attributes(b_set)
                        rhs = set(b_set) <= a_prime
                        assert lhs == rhs


def test_galois_property_randomized_larger():
    rng = random.Random(17)
    for _ in range(100):
        ctx = random_context(rng, 8, 8)
        a_set = {g for g in ctx.objects if rng.random() < 0.4}
        b_set = {m for m in ctx.attributes if rng.random() < 0.4}
        assert (a_set <= set(ctx.derive_attributes(b_set))) == (
            b_set <= set(ctx.derive_objects(a_set))
        )


# -- concepts ------------------------------------------------------------


def test_contranominal_concept_counts():
    assert len(contranominal_scale(2).concepts()) == 4
    assert len(contranominal_scale(3).concepts()) == 8


def test_full_incidence_single_concept():
    ctx = FormalContext.from_intents(["g1", "g2"], ["m1", "m2"], [{"m1", "m2"}] * 2)
    cs = ctx.concepts()
    assert len(cs) == 1
    assert cs[0].extent == frozenset({"g1", "g2"})
    assert cs[0].intent == frozenset({"m1", "m2"})


def test_concepts_satisfy_invariant():
    rng = random.Random(19)
    for _ in range(20):
        ctx = random_context(rng, 5, 5)
        seen = set()
        for c in ctx.concepts():
            assert ctx.derive_objects(c.extent) == c.intent
            assert ctx.derive_attributes(c.intent) == c.extent
            assert c.intent not in seen
            seen.add(c.intent)


def test_concepts_guard():
    big = contranominal_scale(26)
    with pytest.raises(GuardExceeded):
        big.concepts()


def test_the_per_width_tables_of_the_bitmap():
    # at every bitmap width: the table lists the masks in lectic order, and
    # bit s of the k-th lacking map is set exactly when s lacks k
    for n in range(BITMAP_ATTRIBUTES + 1):
        masks = range(1 << n)
        assert context._lectic(n) == tuple(sorted(masks, key=lambda m: lectic_flags(m, n)))
        lacking = context._lacking(n)
        assert len(lacking) == n
        for k, bitmap in enumerate(lacking):
            flags = "".join("0" if s >> k & 1 else "1" for s in reversed(masks))
            assert bitmap == int(flags, 2)


def bitmap_of(predicate, n: int) -> int:
    """The 2^n-bit map whose bit s is set exactly when predicate(s) holds."""
    return sum(1 << s for s in range(1 << n) if predicate(s))


def map_helper_cases():
    """(n, rng) for every width up to 8, each with its own random stream."""
    for n in range(9):
        yield n, random.Random(4099 + n)


def test_interval_is_the_masks_between_two_sets():
    for n, rng in map_helper_cases():
        full = (1 << n) - 1
        pairs = [(0, 0), (0, full), (full, full), (full, 0)]
        pairs += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(12)]
        pairs += [(low & high, high) for low, high in pairs]
        for low, high in pairs:
            expected = bitmap_of(lambda s: not low & ~s and not s & ~high, n)
            assert context._interval(low, high, n) == expected, (n, low, high)


def test_strictly_above_is_every_proper_superset_of_a_member():
    for n, rng in map_helper_cases():
        families = [[], [0], [(1 << n) - 1], list(range(1 << n))]
        families += [rng.sample(range(1 << n), rng.randint(1, min(6, 1 << n)))
                     for _ in range(12)]
        for members in families:
            family = sum(1 << m for m in members)
            expected = bitmap_of(lambda s: any(not m & ~s and m != s for m in members), n)
            assert context._strictly_above(family, n) == expected, (n, members)


def test_row_closure_is_m_closed_under_intersection_with_the_rows():
    for n, rng in map_helper_cases():
        full = (1 << n) - 1
        shapes = [[], [0], [full], [full, 0]]
        shapes += [[rng.getrandbits(n) | rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
                   for _ in range(12)]
        for rows in shapes:
            closed, frontier = {full}, {full}
            while frontier:
                frontier = {c & r for c in frontier for r in rows} - closed
                closed |= frontier
            assert context._row_closure(set(rows), n) == bitmap_of(closed.__contains__, n)


def close_by_one_intents(ctx) -> list:
    return list(closed_masks(*ctx._extent_step()))


def test_intent_masks_agree_with_close_by_one_on_both_sides_of_the_bitmap_width():
    # no objects, repeated rows, empty and full rows, at every width from 0
    # to one past the widest bitmap
    rng = random.Random(61)
    for n in range(BITMAP_ATTRIBUTES + 2):
        full = (1 << n) - 1
        shapes = [[], [0, 0], [full], [full, 0]]
        for _ in range(3):
            sparse = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(rng.randint(1, 9))]
            dense = [rng.getrandbits(n) | rng.getrandbits(n) for _ in range(rng.randint(1, 9))]
            shapes += [sparse, dense, sparse + dense[:2] + sparse[:2] + [0, full]]
        for rows in shapes:
            ctx = FormalContext._from_rows(
                [f"g{i}" for i in range(len(rows))], [f"m{j}" for j in range(n)], rows
            )
            assert ctx.intent_masks() == close_by_one_intents(ctx)


def test_bitmap_intents_are_guarded(monkeypatch):
    ctx = contranominal_scale(4)
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "3")
    for enumerate_ in (ctx.intent_masks, ctx.intents, ctx.concepts):
        with pytest.raises(GuardExceeded, match="concept enumeration: size 4 exceeds guard 3"):
            enumerate_()
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "4")
    assert len(ctx.intent_masks()) == 16


def test_lectic_enumeration_agrees_with_powerset():
    # the same list, in lectic order, as closing every subset, on 5
    # attributes (the bitmap) and on 15 to 17 (Close-by-One)
    rng = random.Random(23)
    contexts = [random_context(rng, 5, 5) for _ in range(5)]
    for n_att in (15, 16, 17):
        attrs = [f"m{j}" for j in range(n_att)]
        intents = [{m for m in attrs if rng.random() < 0.6} for _ in range(6)]
        contexts.append(
            FormalContext.from_intents([f"g{i}" for i in range(6)], attrs, intents)
        )
    for ctx in contexts:
        assert ctx.intents() == brute_intents(ctx)


def small_contexts():
    """(n, context) with up to 7 attributes and 6 objects, any incidence."""
    return st.integers(0, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6)
    )).map(lambda shape: (shape[0], FormalContext(
        [f"g{i}" for i in range(len(shape[1]))], [f"m{j}" for j in range(shape[0])],
        [[r >> j & 1 for j in range(shape[0])] for r in shape[1]],
    )))


def closing_children(close, n):
    """Close-by-One's step for a closure operator on masks over n attributes,
    with no state: the canonical children of b reached at y, as the engine
    takes them."""

    def children(b, _state, y):
        out = []
        for j in range(y, n):
            if not b >> j & 1:
                c = close(b | 1 << j)
                if not c & ~b & ((1 << j) - 1):
                    out.append((c, None, j + 1))
        return out

    return children


@settings(max_examples=150, deadline=None)
@given(small_contexts())
def test_closed_masks_is_every_closure_in_lectic_order(shape):
    # the engine driven by a stateless step, as base recognition drives it
    n, ctx = shape
    step = closing_children(ctx._close_amask, n)
    got = [ctx._acodec.members(b) for b in closed_masks(step, (ctx._close_amask(0), None))]
    assert got == brute_intents(ctx)


@settings(max_examples=150, deadline=None)
@given(small_contexts())
def test_closed_masks_carries_each_intents_extent(shape):
    # every state the context's step hands over is the extent of the closed
    # set it comes with, and the sets are the closures in lectic order
    _n, ctx = shape
    children, start = ctx._extent_step()
    carried = {start[0]: {start[1]}}

    def recording(b, state, y):
        kept = children(b, state, y)
        for c, child, _ in kept:
            carried.setdefault(c, set()).add(child)
        return kept

    got = list(closed_masks(recording, start))
    for b in got:
        assert ctx._close_amask(b) == b
        assert carried[b] == {ctx._extent_amask(b)}
    assert [ctx._acodec.members(b) for b in got] == brute_intents(ctx)


@settings(max_examples=100, deadline=None)
@given(small_contexts())
def test_concepts_take_each_extent_from_the_enumeration(shape):
    # concepts() pairs each intent of intents(), in the same order, with its
    # derivation as the extent
    _n, ctx = shape
    concepts = ctx.concepts()
    assert [c.intent for c in concepts] == ctx.intents()
    for c in concepts:
        assert c.extent == ctx.derive_attributes(c.intent)


def test_concepts_carry_extents_over_more_than_32_objects():
    rng = random.Random(52)
    ctx = random_context(rng, 45, 9, min_objects=40)
    concepts = ctx.concepts()
    assert [c.intent for c in concepts] == ctx.intents()
    assert all(c.extent == ctx.derive_attributes(c.intent) for c in concepts)


@settings(max_examples=100, deadline=None)
@given(small_contexts(), st.integers(0, 2**7 - 1))
def test_closed_masks_prune_cuts_only_below(shape, cut):
    # pruning keeps lectic order and still reaches every closed set that has
    # no pruned closed proper subset
    n, ctx = shape
    cut &= (1 << n) - 1
    everything = list(closed_masks(*ctx._extent_step()))
    pruned = list(closed_masks(*ctx._extent_step(), lambda b: b & cut == cut))
    assert set(pruned) <= set(everything)
    assert pruned == [b for b in everything if b in set(pruned)]
    for b in everything:
        if not any(a & cut == cut and a & b == a and a != b for a in everything):
            assert b in pruned


def row_passes(ctx) -> Counter:
    """How often each extent has its intent computed (a pass over the rows
    of the extent) while Close-by-One lists the intents, as it does for the
    pruned hypothesis search and for contexts wider than the bitmap."""
    passes = Counter()
    meet = context._meet

    def recording(vectors, n, mask):
        if vectors is ctx._rows:
            passes[mask] += 1
        return meet(vectors, n, mask)

    with mock.patch.object(context, "_meet", recording):
        got = close_by_one_intents(ctx)
    assert got == [ctx._close_amask(b) for b in got]
    assert got == ctx.intent_masks()
    return passes


def test_row_passes_at_most_twice_per_extent_on_contraordinal_contexts():
    # the intents of a contraordinal context are the downsets of the poset
    # (the distributive case), reached from many parents: an extent's intent
    # is computed once canonically and once when a child with it first fails
    rng = random.Random(37)
    for _ in range(8):
        ctx = contraordinal_context(random_poset(rng, 14, min_n=10))
        passes = row_passes(ctx)
        assert max(passes.values()) <= 2
        assert len(passes) == len(ctx.intent_masks())


@settings(max_examples=150, deadline=None)
@given(small_contexts())
def test_row_passes_at_most_twice_per_extent(shape):
    _n, ctx = shape
    assert max(row_passes(ctx).values()) <= 2


def test_row_passes_once_per_extent_on_a_boolean_lattice():
    # no child of the contranominal scale fails, so nothing is kept or reused
    for n in range(1, 9):
        passes = row_passes(contranominal_scale(n))
        assert set(passes.values()) == {1} and len(passes) == 2**n


def test_contranominal_all_subsets_closed_exhaustive():
    for n in range(1, 6):
        ctx = contranominal_scale(n)
        for r in range(n + 1):
            for sub in itertools.combinations(ctx.attributes, r):
                assert ctx.is_closed(sub)


def test_contranominal_all_subsets_closed_sampled():
    rng = random.Random(29)
    for _ in range(200):
        n = rng.randint(6, 12)
        ctx = contranominal_scale(n)
        sub = {m for m in ctx.attributes if rng.random() < 0.5}
        assert ctx.close_attributes(sub) == frozenset(sub)


# -- columns on first read -----------------------------------------------


def rows_context(rows, n: int) -> FormalContext:
    return FormalContext._from_rows([f"g{i}" for i in range(len(rows))],
                                    [f"m{j}" for j in range(n)], rows)


def eager(ctx: FormalContext) -> FormalContext:
    """The same context with its columns set at once, bit by bit."""
    out = rows_context(ctx._rows, len(ctx.attributes))
    out._cols = tuple(sum((r >> j & 1) << i for i, r in enumerate(ctx._rows))
                      for j in range(len(ctx.attributes)))
    return out


def column_shapes():
    """(rows, n): 0 x 0, 0 x n, n x 0 and random contexts up to 9 x 8."""
    rng = random.Random(83)
    shapes = [([], 0), ([], 3), ([0, 0, 0], 0)]
    for _ in range(40):
        n = rng.randint(0, 8)
        shapes.append(([rng.getrandbits(n) for _ in range(rng.randint(0, 9))], n))
    return shapes


def column_readers(ref: FormalContext):
    """Each public reader of the columns, as a function of a context, with
    arguments drawn from the reference context."""
    rng = random.Random(len(ref.objects) * 97 + len(ref.attributes))
    subsets = [{m for m in ref.attributes if rng.random() < 0.4} for _ in range(6)] + [set()]
    rules = [Implication(s, ref.close_attributes(s)) for s in subsets]
    rules += [Implication(s, ref.attributes[:2]) for s in subsets[:2]]
    return {
        "column": lambda c: [c.column(m) for m in c.attributes],
        "derive_attributes": lambda c: [c.derive_attributes(s) for s in subsets],
        "close_attributes": lambda c: [c.close_attributes(s) for s in subsets],
        "is_closed": lambda c: [c.is_closed(s) for s in subsets],
        "concepts": lambda c: [x.extent for x in c.concepts()],
        "reduce_context": lambda c: write_cxt(reduce_context(c)),
        "close_by_one": close_by_one_intents,
        "is_base": lambda c: [is_base(c, rules), is_base(c, rules[:-3])],
    }


@pytest.mark.parametrize("shape", column_shapes())
def test_column_readers_match_an_eagerly_transposed_context(shape):
    rows, n = shape
    ref = eager(rows_context(rows, n))
    for name, read in column_readers(ref).items():
        lazy = rows_context(rows, n)
        assert read(lazy) == read(ref), name
        assert lazy._cols == ref._cols, name


def test_narrow_intents_and_hypotheses_build_no_columns(monkeypatch):
    def refuse(*_args):
        raise AssertionError("columns built")

    rng = random.Random(89)
    trainings = []
    for n in (0, 1, 5, BITMAP_ATTRIBUTES):
        ctx = rows_context([rng.getrandbits(n) for _ in range(12)], n)
        neg = FormalContext._from_rows(["h0", "h1"], ctx.attributes, [rng.getrandbits(n), 0])
        trainings.append(TrainingContext(ctx, neg))
    with monkeypatch.context() as patch:
        patch.setattr(context, "transpose", refuse)
        answers = [(t.positive.intents(), minimal_hypotheses(t, 0)) for t in trainings]
        with pytest.raises(AssertionError, match="columns built"):
            trainings[-1].positive.column("m0")
    for t, (intents, hyps) in zip(trainings, answers):
        assert intents == brute_intents(t.positive)
        assert hyps == t.positive._acodec.family(_pruned_minimal_masks(t, 0))


@pytest.mark.parametrize("read_first", [False, True])
def test_copies_and_pickles_equal_the_context(read_first):
    ctx = FormalContext.from_intents(["g1", "g2", "g3"], ["m1", "m2", "m3"],
                                     [{"m1"}, {"m1", "m3"}, set()])
    if read_first:
        assert ctx.column("m1") == {"g1", "g2"}
    copies = [copy.copy(ctx), copy.deepcopy(ctx)]
    copies += [pickle.loads(pickle.dumps(ctx, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    for other in copies:
        assert other == ctx and hash(other) == hash(ctx)
        assert [other.column(m) for m in other.attributes] == [
            ctx.column(m) for m in ctx.attributes]
        assert other.intents() == ctx.intents()


def test_other_missing_attributes_still_raise():
    with pytest.raises(AttributeError, match="'FormalContext' object has no attribute 'extra'"):
        contranominal_scale(3).extra


# -- contranominal scale -------------------------------------------------


def test_contranominal_one_is_empty_diagonal():
    c1 = contranominal_scale(1)
    assert c1.row("g1") == frozenset()


def test_contranominal_rows_and_columns():
    c3 = contranominal_scale(3)
    assert c3.derive_objects({"g1"}) == frozenset({"m2", "m3"})
    assert c3.derive_attributes({"m1", "m2"}) == frozenset({"g3"})


def test_contranominal_matches_boolean_matrix():
    for n in range(1, 7):
        objects = [f"g{i}" for i in range(1, n + 1)]
        attributes = [f"m{i}" for i in range(1, n + 1)]
        matrix = [[i != j for j in range(n)] for i in range(n)]
        reference = FormalContext(objects, attributes, matrix)
        assert write_cxt(contranominal_scale(n)) == write_cxt(reference)


def test_contranominal_rejects_zero():
    with pytest.raises(ValueError):
        contranominal_scale(0)


# -- reduction -----------------------------------------------------------


def test_reduce_contranominal_unchanged():
    c3 = contranominal_scale(3)
    assert ctx_equal(reduce_context(c3), c3)


def test_reduce_drops_duplicate_row():
    ctx = FormalContext.from_intents(
        ["g1", "g2", "g3"], ["m1", "m2"], [{"m1"}, {"m1"}, {"m2"}]
    )
    red = reduce_context(ctx)
    assert len(red.objects) < 3


def test_reduce_drops_full_row():
    ctx = FormalContext.from_intents(
        ["g1", "g2", "g3"], ["m1", "m2"], [{"m1", "m2"}, {"m1"}, {"m2"}]
    )
    red = reduce_context(ctx)
    assert "g1" not in red.objects


def test_reduce_preserves_intent_lattice():
    rng = random.Random(31)
    for _ in range(30):
        ctx = random_context(rng, 6, 6)
        red = reduce_context(ctx)
        original = ctx.intents()
        kept = frozenset(red.attributes)
        image = [i & kept for i in original]
        # restriction to the kept attributes is a concept-lattice isomorphism
        assert len(set(image)) == len(original)
        assert set(image) == set(red.intents())
        for x, y in itertools.product(range(len(original)), repeat=2):
            assert (original[x] <= original[y]) == (image[x] <= image[y])


def reducible_index(vectors, full):
    """Index of the first vector equal to the intersection of the other
    vectors containing it (the empty intersection counting as full), or
    None."""
    for i, v in enumerate(vectors):
        inter = full
        for j, w in enumerate(vectors):
            if j != i and w & v == v:
                inter &= w
        if inter == v:
            return i
    return None


def fixpoint_reduce(ctx: FormalContext) -> FormalContext:
    """Reference: strip reducible objects and attributes, re-scanning both
    sides until neither changes."""
    objs = list(range(len(ctx.objects)))
    atts = list(range(len(ctx.attributes)))
    changed = True
    while changed:
        changed = False
        for keep, other, vectors in ((objs, atts, ctx._rows), (atts, objs, ctx._cols)):
            full = sum(1 << k for k in other)
            while (i := reducible_index([vectors[k] & full for k in keep], full)) is not None:
                del keep[i]
                changed = True
    return FormalContext._from_rows(
        [ctx.objects[i] for i in objs],
        [ctx.attributes[j] for j in atts],
        [sum((ctx._rows[i] >> j & 1) << k for k, j in enumerate(atts)) for i in objs],
    )


def rescanning_reduce(ctx: FormalContext) -> FormalContext:
    """Reference: one loop per side, objects first, that deletes the first
    reducible vector and scans its side again from the start (cubic)."""
    objs = list(range(len(ctx.objects)))
    atts = list(range(len(ctx.attributes)))
    for keep, other, vectors in ((objs, atts, ctx._rows), (atts, objs, ctx._cols)):
        full = sum(1 << k for k in other)
        while (i := reducible_index([vectors[k] & full for k in keep], full)) is not None:
            del keep[i]
    return FormalContext._from_rows(
        [ctx.objects[i] for i in objs],
        [ctx.attributes[j] for j in atts],
        [sum((ctx._rows[i] >> j & 1) << k for k, j in enumerate(atts)) for i in objs],
    )


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.integers(0, (1 << n) - 1), max_size=10),
    st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), max_size=5),
)))
def test_reduce_context_equals_the_rescanning_loop(shape):
    # random rows, some repeated or the AND of two others, so that rows and
    # columns are equal to or the intersection of others
    n, rows, pairs = shape
    if rows:
        rows += [rows[i % len(rows)] & rows[j % len(rows)] for i, j in pairs]
        rows += [rows[i % len(rows)] for i, _ in pairs[:2]]
    ctx = FormalContext._from_rows(
        [f"g{i}" for i in range(len(rows))], [f"m{j}" for j in range(n)], rows
    )
    got, want = reduce_context(ctx), rescanning_reduce(ctx)
    assert (got.objects, got.attributes, got._rows) == (want.objects, want.attributes, want._rows)


def reducible(sets, full) -> list:
    """The members equal to the intersection of the other members that
    contain them (the empty intersection being full)."""
    out = []
    for i, s in enumerate(sets):
        inter = set(full)
        for j, t in enumerate(sets):
            if j != i and s <= t:
                inter &= t
        if inter == s:
            out.append(i)
    return out


def test_reduce_is_one_pass_per_side():
    rng = random.Random(211)
    for _ in range(600):
        ctx = random_context(rng, 9, 9)
        rows = [ctx.row(g) for g in ctx.objects]
        rows += [rng.choice(rows) for _ in range(rng.randint(0, 3))]
        attrs = list(ctx.attributes)
        for k in range(rng.randint(0, 3)):
            copied = rng.choice(ctx.attributes)
            attrs.append(f"c{k}")
            rows = [row | {f"c{k}"} if copied in row else row for row in rows]
        objects = [f"g{i}" for i in range(len(rows))]
        order = rng.sample(range(len(rows)), len(rows))
        ctx = FormalContext.from_intents(objects, attrs, [rows[i] for i in order])
        red = reduce_context(ctx)
        assert not reducible([red.row(g) for g in red.objects], red.attributes)
        assert not reducible([red.column(m) for m in red.attributes], red.objects)
        assert ctx_equal(reduce_context(red), red)
        assert red == fixpoint_reduce(ctx)


# -- construction errors -------------------------------------------------


def test_duplicate_object_names_rejected():
    with pytest.raises(ValueError):
        FormalContext.from_intents(["g1", "g1"], ["m1"], [{"m1"}, set()])


def test_duplicate_attribute_names_rejected():
    with pytest.raises(ValueError):
        FormalContext.from_intents(["g1"], ["m1", "m1"], [{"m1"}])


def test_intent_with_unknown_attribute_rejected():
    with pytest.raises(ValueError):
        FormalContext.from_intents(["g1"], ["m1"], [{"m9"}])


def test_from_intents_error_order():
    # an unknown attribute wins over repeated names, which win over a wrong
    # number of intents; repeated object names are reported before
    # repeated attribute names
    cases = [
        (["g1", "g1"], ["m1", "m1"], [{"m9"}], "unknown attributes in intent: \\['m9'\\]"),
        (["g1", "g1"], ["m1", "m1"], [{"m1"}], "object names must be pairwise distinct"),
        (["g1", "g2"], ["m1", "m1"], [{"m1"}], "attribute names must be pairwise distinct"),
        (["g1", "g2"], ["m1", "m2"], [{"m1"}], "incidence dimensions do not match"),
        (["g1"], ["m1", "m2"], [{"m1"}, set()], "incidence dimensions do not match"),
    ]
    for objects, attributes, intents, message in cases:
        with pytest.raises(ValueError, match=message):
            FormalContext.from_intents(objects, attributes, intents)


@pytest.mark.parametrize("incidence", [[[1]], [[1, 0], [0]], [[1], [0]]])
def test_incidence_matrix_dimensions_checked(incidence):
    with pytest.raises(ValueError, match="incidence dimensions do not match"):
        FormalContext(["g1", "g2"], ["m1", "m2"], incidence)


def test_from_intents_matches_the_incidence_matrix():
    rng = random.Random(41)
    for _ in range(20):
        ctx = random_context(rng, 6, 6)
        matrix = [[ctx.incident(g, m) for m in ctx.attributes] for g in ctx.objects]
        assert ctx == FormalContext(ctx.objects, ctx.attributes, matrix)


def test_row_column_incident_reject_unknown_names():
    c3 = contranominal_scale(3)
    with pytest.raises(ValueError, match="unknown object name: 'zz'"):
        c3.row("zz")
    with pytest.raises(ValueError, match="unknown attribute name: 'zz'"):
        c3.column("zz")
    with pytest.raises(ValueError, match="unknown object name: 'zz'"):
        c3.incident("zz", "m1")
    with pytest.raises(ValueError, match="unknown attribute name: 'zz'"):
        c3.incident("g1", "zz")
    assert c3.column("m1") == frozenset({"g2", "g3"})
    assert c3.incident("g1", "m2") and not c3.incident("g1", "m1")


# -- Burmeister .cxt I/O -------------------------------------------------


def test_cxt_round_trip():
    rng = random.Random(37)
    for _ in range(20):
        ctx = random_context(rng, 6, 6)
        assert ctx_equal(parse_cxt(write_cxt(ctx)), ctx)


def test_cxt_known_text():
    text = "B\n\n2\n2\n\ng1\ng2\nm1\nm2\n.X\nX.\n"
    ctx = parse_cxt(text)
    assert ctx.objects == ("g1", "g2")
    assert ctx.row("g1") == frozenset({"m2"})
    assert write_cxt(ctx) == text


def test_cxt_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_cxt("Q\n\n1\n1\n\ng1\nm1\nX\n")


def test_cxt_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        parse_cxt("B\n\n2\n2\n\ng1\ng2\nm1\nm2\n.X\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("B\n", "truncated .cxt file"),
        ("B\n\n1", "truncated .cxt file"),
        ("B\n\n1\n1\n\ng1\nm1", "truncated .cxt file"),
        ("B\n1\n1\n\ng1\nm1\nX\n", "expected blank line after 'B'"),
        ("B\n\n1\n1\ng1\nm1\nX\n", "expected blank line before names"),
        ("B\n\none\n1\n\ng1\nm1\nX\n", "expected object/attribute counts"),
        ("B\n\n1\n-1\n\ng1\nX\n", "negative counts in .cxt header"),
        ("B\n\n1\n1\n\ng1\nm1\nX\nX\n", "trailing content in .cxt file"),
    ],
)
def test_cxt_errors(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_cxt(text)


def test_cxt_reads_crlf_lines_as_lf_lines():
    assert parse_cxt("B\r\n\r\n1\r\n1\r\n\r\ng1\r\nm1\r\nX\r\n").row("g1") == {"m1"}
    rng = random.Random(41)
    for _ in range(30):
        text = write_cxt(random_context(rng, 6, 6, min_objects=0))
        assert parse_cxt(text.replace("\n", "\r\n")) == parse_cxt(text)


def test_cxt_keeps_a_lone_cr_in_its_line():
    ctx = parse_cxt("B\n\n1\n1\n\ng\r1\nm1\nX\n")
    assert ctx.objects == ("g\r1",)
    with pytest.raises(ValueError, match=re.escape("malformed .cxt incidence row: 'X\\r'")):
        parse_cxt("B\n\n1\n1\n\ng1\nm1\nX\r")


def _writable(name) -> bool:
    """A name that a .cxt line holds and gives back: a string with no line
    feed and no trailing CR, which CRLF reading would drop."""
    return isinstance(name, str) and "\n" not in name and not name.endswith("\r")


_cxt_names = st.lists(st.text("g\r\n", max_size=3) | st.integers(0, 3), max_size=3, unique=True)


@settings(max_examples=300, deadline=None)
@given(_cxt_names, _cxt_names, st.data())
def test_write_cxt_refuses_exactly_the_names_it_cannot_give_back(objects, attributes, data):
    incidence = st.lists(st.sampled_from(attributes), unique=True) if attributes else st.just([])
    ctx = FormalContext.from_intents(objects, attributes, [data.draw(incidence) for _ in objects])
    bad = [name for name in (*objects, *attributes) if not _writable(name)]
    if bad:
        with pytest.raises(ValueError, match=re.escape(f"name {bad[0]!r} cannot be written")):
            write_cxt(ctx)
    else:
        assert parse_cxt(write_cxt(ctx)) == ctx


def test_parse_cxt_refuses_a_name_ending_in_cr():
    # write_cxt refuses such a name, so every context parse_cxt returns writes back
    texts = [
        "B\n\n0\n1\n\nm\r",  # the last line, with no LF after it
        "B\r\n\r\n1\r\n1\r\n\r\ng\r\r\nm\r\n.\r\n",  # a CR before a CRLF
        "B\n\n1\n2\n\ng\nm\r\r\nm2\n..\n",  # and not the last name
    ]
    for text in texts:
        with pytest.raises(ValueError, match=r"malformed \.cxt name: '.*\\r' ends in CR"):
            parse_cxt(text)


_line_names = st.lists(st.text("g\r", max_size=3), max_size=3)


@settings(max_examples=300, deadline=None)
@given(_line_names, _line_names, st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_every_context_parse_cxt_returns_writes_back(objects, attributes, eol, last_eol):
    lines = ["B", "", str(len(objects)), str(len(attributes)), "", *objects, *attributes]
    lines += ["." * len(attributes)] * len(objects)
    try:
        ctx = parse_cxt(eol.join(lines) + eol * last_eol)
    except ValueError:
        return
    assert parse_cxt(write_cxt(ctx)) == ctx


@pytest.mark.parametrize("cut", [1, 3, 12, 19])
def test_truncated_crlf_cxt_still_raises(cut):
    text = "B\r\n\r\n1\r\n1\r\n\r\ng1\r\nm1\r\nX\r\n"[:cut]
    with pytest.raises(ValueError, match="truncated .cxt file"):
        parse_cxt(text)


def test_row_mask_reads_x_dot_rows_only():
    assert _row_mask("X.X", 3) == 0b101
    assert _row_mask("", 0) == 0
    for text, n in (("X?X", 3), (" X", 2), ("XX", 3), (["X"], 1), (1, 1), (None, 0)):
        assert _row_mask(text, n) is None


def test_cxt_rejects_bad_incidence_char():
    with pytest.raises(ValueError):
        parse_cxt("B\n\n1\n1\n\ng1\nm1\n?\n")
