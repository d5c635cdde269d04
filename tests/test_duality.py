"""Duality of antichains of downsets: oracle, decomposition, recursive test."""

import math
import random
from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lattice_dual import (
    DualityInstance,
    GuardExceeded,
    brute_force_dual,
    check_star,
    decompose,
    dualize_brute,
    easy_test,
    is_antichain,
    maximal_members,
    minimal_members,
    poset_from_pairs,
)
from lattice_dual import test_duality as duality_test
from lattice_dual import test_duality_stats as duality_test_stats
from lattice_dual import duality as duality_layer
from lattice_dual import poset as poset_layer
from lattice_dual.duality import _THRESHOLD_SLACK, _check, _counts, _masks, _pivot, _split
from lattice_dual.util import Codec, _star, bits, maximal_masks, minimal_masks

from conftest import (
    composed_instance,
    matching_instance,
    opposite_instance,
    planted_instance,
    random_instance,
    random_poset,
    relabelled_instance,
    transversal_dual,
)

CHAIN3 = poset_from_pairs(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
ANTI2 = poset_from_pairs(["p1", "p2"], [])


# -- instance validation ---------------------------------------------------


def test_instance_rejects_non_downset():
    with pytest.raises(ValueError):
        DualityInstance(CHAIN3, [{"p2"}], [])


def test_instance_rejects_non_antichain():
    with pytest.raises(ValueError):
        DualityInstance(ANTI2, [{"p1"}, {"p1", "p2"}], [])


@pytest.mark.parametrize(
    "poset, fam_a, fam_b, message",
    [
        # two non-downsets: the first in family order is named, not the
        # first given
        (CHAIN3, [{"p3"}, {"p2"}], [], r"A-member \['p2'\] is not a downset"),
        (CHAIN3, [], [{"p1", "p3"}, {"p2"}], r"B-member \['p2'\] is not a downset"),
        # every name is checked before any member is walked
        (CHAIN3, [{"p2"}, {"zz"}], [], "unknown element name: 'zz'"),
        (CHAIN3, [{"p1"}], [{"p2"}, {"zz"}], "unknown element name: 'zz'"),
        # a flat poset walks no member, and still rejects an unknown name
        (ANTI2, [{"p1"}, {"p2", "zz"}], [], "unknown element name: 'zz'"),
        (ANTI2, [], [{"zz"}], "unknown element name: 'zz'"),
        # the downset test comes before the antichain test
        (CHAIN3, [{"p1"}, {"p1", "p2", "p3"}, {"p3"}], [], r"A-member \['p3'\] is not a downset"),
        (ANTI2, [{"p1"}, {"p1"}], [], "family A is not an antichain"),
        (ANTI2, [], [{"p2"}, {"p1", "p2"}], "family B is not an antichain"),
    ],
)
def test_instance_errors_come_in_order(poset, fam_a, fam_b, message):
    with pytest.raises(ValueError, match=message):
        DualityInstance(poset, fam_a, fam_b)


def test_instance_keeps_equal_names_equal():
    # A member may spell a name as any value equal to it: the record equals
    # and hashes as the one spelled as the poset spells it, and its repr
    # shows the spelling it was given.
    poset = poset_from_pairs([1, 2], [(1, 2)])
    given_as_float = DualityInstance(poset, [{1.0}], [set()])
    given_as_int = DualityInstance(poset, [{1}], [set()])
    assert given_as_float == given_as_int
    assert hash(given_as_float) == hash(given_as_int)
    assert repr(given_as_float.a) == "(frozenset({1.0}),)"
    assert duality_test(given_as_float)


# -- property (*) -----------------------------------------------------------


def test_check_star_examples():
    assert check_star(DualityInstance(ANTI2, [{"p1"}], [set()]))
    assert not check_star(DualityInstance(ANTI2, [{"p1"}], [{"p1", "p2"}]))
    assert check_star(DualityInstance(ANTI2, [], [{"p1"}]))


# -- degenerate cases --------------------------------------------------------


def test_easy_test_empty_a():
    assert easy_test(DualityInstance(ANTI2, [], [{"p1", "p2"}]))
    assert not easy_test(DualityInstance(ANTI2, [], [set()]))


def test_easy_test_empty_b():
    assert easy_test(DualityInstance(ANTI2, [set()], []))
    assert not easy_test(DualityInstance(ANTI2, [{"p1"}], []))


def test_easy_test_requires_a_degenerate_side():
    with pytest.raises(ValueError):
        easy_test(DualityInstance(ANTI2, [{"p1"}], [{"p2"}]))


# -- brute-force oracle -------------------------------------------------------


def test_brute_chain3_dual():
    assert brute_force_dual(DualityInstance(CHAIN3, [{"p1"}], [set()])).dual


def test_brute_antichain2_dual_pair():
    inst = DualityInstance(ANTI2, [{"p1", "p2"}], [{"p1"}, {"p2"}])
    assert brute_force_dual(inst).dual


def test_brute_not_dual_with_witness():
    verdict = brute_force_dual(DualityInstance(ANTI2, [{"p1"}], [set()]))
    assert not verdict.dual
    assert verdict.witness == frozenset({"p2"})


def test_witness_invariant():
    rng = random.Random(61)
    for _ in range(100):
        inst = random_instance(rng, 7, 4)
        verdict = brute_force_dual(inst)
        if verdict.witness is not None:
            assert not verdict.dual
            assert not any(a <= verdict.witness for a in inst.a)
            assert not any(verdict.witness <= b for b in inst.b)
            assert inst.poset.is_downset(verdict.witness)


def _first_uncovered(inst):
    """The first member of all_downsets() holding no A-member and lying in
    no B-member, by set comparisons; None when there is none."""
    for x in inst.poset.all_downsets():
        if not any(a <= x for a in inst.a) and not any(x <= b for b in inst.b):
            return x
    return None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_witness_is_the_first_uncovered_downset(seed, twin):
    """On a planted dual instance less one B-member (that member is then
    uncovered; A = {empty set} has no B-member to drop), or on a random
    draw, which is mostly not dual."""
    rng = random.Random(seed)
    if twin:
        inst = planted_instance(rng, 12, 5)
        if inst.b:
            fam_b = list(inst.b)
            del fam_b[rng.randrange(len(fam_b))]
            inst = DualityInstance(inst.poset, inst.a, fam_b)
    else:
        inst = random_instance(rng, 12, 5)
    witness = _first_uncovered(inst)
    assert tuple(brute_force_dual(inst)) == (witness is None, witness)


# -- brute-force dualization --------------------------------------------------


def test_dualize_examples():
    assert set(dualize_brute([{"p1", "p2"}], ANTI2)) == {
        frozenset({"p1"}),
        frozenset({"p2"}),
    }
    assert dualize_brute([set()], ANTI2) == []
    assert dualize_brute([], ANTI2) == [frozenset({"p1", "p2"})]


def unpruned_dualize(a_family, poset) -> list:
    """Every downset, those holding no A-member, then the maximal ones."""
    a_family = list(map(frozenset, a_family))
    free = [x for x in poset.all_downsets() if not any(a <= x for a in a_family)]
    return [x for x in free if not any(x < y for y in free)]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=15)
    if n else st.just([]),
    # index n stands for a name outside the poset
    st.lists(st.sets(st.integers(0, n), max_size=4), max_size=6),
)))
def test_dualize_agrees_with_the_unpruned_enumeration(case):
    n, pairs, members = case
    names = [f"p{i}" for i in range(n)] + ["zz"]
    pairs = [(names[min(e)], names[max(e)]) for e in pairs if e[0] != e[1]]
    poset = poset_from_pairs(names[:n], pairs)
    drawn = [{names[i] for i in m} for m in members]
    for fam_a in (drawn, [], [set()], [{"zz"}]):
        assert dualize_brute(fam_a, poset) == unpruned_dualize(fam_a, poset)


def test_dualize_prunes_below_every_a_member(monkeypatch):
    # k = 6 matching: the 3^6 = 729 downsets that hold no pair are expanded;
    # the other 364 yielded each complete a pair and are not expanded.
    yielded = []
    engine = poset_layer.closed_masks

    def counting(*args):
        for x in engine(*args):
            yielded.append(x)
            yield x

    monkeypatch.setattr(poset_layer, "closed_masks", counting)
    poset, fam_a, fam_b = matching_instance(6)
    assert set(dualize_brute(fam_a, poset)) == set(map(frozenset, fam_b))
    assert len(yielded) == 1093 < 2**12


def test_dualize_tests_each_downset_once(monkeypatch):
    # k = 6 matching: "holds an A-member" is decided once per downset the
    # engine yields, and that verdict is the one the engine prunes by
    yielded, tested = [], []
    engine, star = poset_layer.closed_masks, duality_layer._star

    def counting(*args):
        for x in engine(*args):
            yielded.append(x)
            yield x

    def counted_star(a, b):
        tested.extend(b)
        return star(a, b)

    monkeypatch.setattr(poset_layer, "closed_masks", counting)
    monkeypatch.setattr(duality_layer, "_star", counted_star)
    poset, fam_a, fam_b = matching_instance(6)
    assert set(dualize_brute(fam_a, poset)) == set(map(frozenset, fam_b))
    assert tested == yielded and len(yielded) == 1093


def test_dualize_guard_raises_before_any_downset_is_listed():
    anti21 = poset_from_pairs([f"p{i}" for i in range(21)], [])
    with pytest.raises(GuardExceeded):
        anti21._downset_masks()
    with pytest.raises(GuardExceeded):
        dualize_brute([], anti21)


def test_dualize_output_is_dual_antichain():
    rng = random.Random(67)
    for _ in range(60):
        poset = random_poset(rng, 7)
        inst = planted_instance(rng, 7, 4)
        dual = list(inst.b)
        assert is_antichain(dual)
        assert brute_force_dual(inst).dual


# -- decomposition ------------------------------------------------------------


def test_decompose_worked_example():
    inst = DualityInstance(CHAIN3, [{"p1", "p2"}], [{"p1"}])
    sub1, sub2 = decompose(inst, "p1")
    assert sub1.poset.elements == ("p2", "p3")
    assert sub1.a == (frozenset({"p2"}),)
    assert sub1.b == (frozenset(),)
    assert sub2.poset.elements == ()
    assert sub2.a == ()
    assert sub2.b == (frozenset(),)


def test_decompose_b_member_without_p_dropped_from_b1():
    # B member not containing p contributes nothing to the first subproblem
    inst = DualityInstance(ANTI2, [{"p1", "p2"}], [{"p1"}, {"p2"}])
    sub1, _ = decompose(inst, "p1")
    assert sub1.b == (frozenset(),)  # only the member containing p1 survives


def test_decompose_with_full_downset():
    inst = DualityInstance(CHAIN3, [{"p1"}], [set()])
    sub1, _ = decompose(inst, "p3")
    assert sub1.poset.elements == ()


def test_decompose_rejects_unknown_element():
    with pytest.raises(ValueError):
        decompose(DualityInstance(ANTI2, [], []), "p9")


def test_decompose_outputs_are_valid_instances():
    rng = random.Random(71)
    for _ in range(100):
        inst = random_instance(rng, 7, 4)
        if not inst.poset.elements:
            continue
        p = rng.choice(inst.poset.elements)
        sub1, sub2 = decompose(inst, p)
        for sub in (sub1, sub2):
            assert check_star(sub)
            assert is_antichain(sub.a) and is_antichain(sub.b)
            for member in sub.a + sub.b:
                assert sub.poset.is_downset(member)


def test_decomposition_lemma_randomized():
    rng = random.Random(73)
    for _ in range(150):
        inst = random_instance(rng, 7, 4)
        if not inst.poset.elements:
            continue
        p = rng.choice(inst.poset.elements)
        sub1, sub2 = decompose(inst, p)
        whole = brute_force_dual(inst).dual
        parts = brute_force_dual(sub1).dual and brute_force_dual(sub2).dual
        assert whole == parts


# -- recursive test ------------------------------------------------------------


def test_duality_spec_examples():
    assert duality_test(DualityInstance(CHAIN3, [{"p1"}], [set()]))
    assert duality_test(DualityInstance(ANTI2, [{"p1", "p2"}], [{"p1"}, {"p2"}]))
    assert not duality_test(DualityInstance(ANTI2, [{"p1"}], [set()]))


def test_duality_rejects_star_violation():
    with pytest.raises(ValueError, match=r"property \(\*\) violated"):
        duality_test(DualityInstance(ANTI2, [{"p1"}], [{"p1", "p2"}]))


def test_brute_rejects_star_violation():
    with pytest.raises(ValueError, match=r"property \(\*\) violated"):
        brute_force_dual(DualityInstance(ANTI2, [{"p1"}], [{"p1", "p2"}]))


def test_duality_stats_counts_calls():
    inst = DualityInstance(ANTI2, [{"p1", "p2"}], [{"p1"}, {"p2"}])
    dual, calls = duality_test_stats(inst)
    assert dual and calls >= 1


def test_duality_agrees_with_oracle_randomized():
    rng = random.Random(79)
    for _ in range(150):
        inst = random_instance(rng, 8, 5)
        assert duality_test(inst) == brute_force_dual(inst).dual


def test_duality_agrees_on_planted_duals():
    rng = random.Random(83)
    for _ in range(100):
        inst = planted_instance(rng, 8, 5)
        assert duality_test(inst)


def test_duality_empty_poset():
    empty = poset_from_pairs([], [])
    # the single downset is the empty set; A = {∅} covers it
    assert duality_test(DualityInstance(empty, [set()], []))
    assert duality_test(DualityInstance(empty, [], [set()]))


# -- node counts -----------------------------------------------------------------
#
# The count is the size of the full recursion tree, subproblems answered
# from the memo included, so these figures do not depend on the memo.


def test_duality_stats_matching_k6_node_count():
    poset, fam_a, fam_b = matching_instance(6)
    assert duality_test_stats(DualityInstance(poset, fam_a, fam_b)) == (True, 1673)


def test_duality_stats_matching_k9_node_count():
    poset, fam_a, fam_b = matching_instance(9)
    assert duality_test_stats(DualityInstance(poset, fam_a, fam_b)) == (True, 30503)


ANTI100 = poset_from_pairs([f"p{i}" for i in range(1, 101)], [])
ANTI60 = poset_from_pairs([f"p{i}" for i in range(1, 61)], [])
ANTI300 = poset_from_pairs([f"p{i}" for i in range(1, 301)], [])


@pytest.mark.parametrize(
    "poset, dropped, expected",
    [(ANTI100, 0, (True, 201)), (ANTI300, 0, (True, 601)), (ANTI60, 1, (False, 119))],
    ids=["trivial-100", "trivial-300", "missing-a-60"],
)
def test_duality_stats_trivial_antichain_node_count(poset, dropped, expected):
    # A holds every singleton but the last `dropped`, and B = {empty set}
    singletons = [{e} for e in poset.elements]
    inst = DualityInstance(poset, singletons[: len(singletons) - dropped], [set()])
    assert duality_test_stats(inst) == expected


@pytest.mark.parametrize(
    "build",
    [
        lambda: matching_instance(6),
        lambda: (ANTI100, [{e} for e in ANTI100.elements], [set()]),
    ],
    ids=["matching-k6", "trivial-antichain-100"],
)
def test_boundary_encodes_each_member_at_most_twice(monkeypatch, build):
    # Building the record encodes each member once and decodes none; the
    # test encodes each member once more.
    poset, fam_a, fam_b = build()
    calls = {"encode": 0, "members": 0}

    def counted(name):
        method = getattr(Codec, name)

        def wrapper(self, arg):
            calls[name] += 1
            return method(self, arg)

        return wrapper

    monkeypatch.setattr(Codec, "encode", counted("encode"))
    monkeypatch.setattr(Codec, "members", counted("members"))
    dual, _ = duality_test_stats(DualityInstance(poset, fam_a, fam_b))
    assert dual
    assert calls["members"] == 0
    assert calls["encode"] <= 2 * (len(fam_a) + len(fam_b))


@pytest.mark.parametrize("drop", [0, 255, 511])
def test_duality_stats_near_dual_k9_rejects_early(drop):
    poset, fam_a, fam_b = matching_instance(9)
    del fam_b[drop]
    dual, nodes = duality_test_stats(DualityInstance(poset, fam_a, fam_b))
    assert not dual
    assert nodes <= 55


def antichain_blocks(count, size):
    """An antichain of count * size elements, cut into count blocks."""
    blocks = [[f"e{i}_{j}" for j in range(size)] for i in range(count)]
    return poset_from_pairs([x for block in blocks for x in block], []), blocks


def test_frequency_bounds_reject_at_the_root():
    # A = 34 blocks of 67, B = each element index left out of every block.
    # Each element is in 1 of 34 A-members and missing from 1 of 67
    # B-members, so both bounds hold at the root and the answer is one node.
    poset, blocks = antichain_blocks(34, 67)
    fam_b = [set(poset.elements) - {block[i] for block in blocks} for i in range(67)]
    assert duality_test_stats(DualityInstance(poset, blocks, fam_b)) == (False, 1)


def test_frequency_bounds_reject_only_when_both_hold():
    # A = the 3,600 pairs across 2 blocks of 60, B = the two blocks: dual.
    # Each element is in 60 of 3,600 A-members, so the A-bound holds, but it
    # is missing from 1 of 2 B-members, so the B-bound does not.
    poset, blocks = antichain_blocks(2, 60)
    inst = DualityInstance(poset, [{x, y} for x in blocks[0] for y in blocks[1]], blocks)
    assert _pivot(poset, *_masks(inst)) is not None
    assert duality_test_stats(inst) == (True, 7999)


def test_duality_long_chain_runs_without_recursion_limit():
    # Recursion depth grows with the number of elements; 1,100 is past
    # Python's default recursion limit.
    names = [f"c{i}" for i in range(1, 1101)]
    chain = poset_from_pairs(names, list(zip(names, names[1:])))
    assert chain.leq("c1", "c1100") and not chain.leq("c1100", "c1")
    inst = DualityInstance(chain, [names], [names[:-1]])
    assert duality_test_stats(inst) == (True, 2201)


def test_brute_paths_on_a_deep_chain(monkeypatch):
    # Downset enumeration runs on an explicit stack: a guard that admits
    # a 1,100-element chain must not meet Python's recursion limit.
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "5000")
    names = [f"c{i}" for i in range(1, 1101)]
    chain = poset_from_pairs(names, list(zip(names, names[1:])))
    assert dualize_brute([["c1100"]], chain) == [frozenset(names[:-1])]
    assert len(chain.all_downsets()) == 1101
    inst = DualityInstance(chain, [names], [names[:-1]])
    assert brute_force_dual(inst).dual


def test_dualize_lists_members_in_family_order():
    # Declaration order differs from name order, so a sort by names would
    # list the members differently.
    names = ["z", "b", "y", "a", "x"]
    poset = poset_from_pairs(names, [("z", "y"), ("b", "a")])
    dual = dualize_brute([{"z", "b"}, {"x"}], poset)
    assert dual == [d for d in poset.all_downsets() if d in set(dual)]
    assert dual == [frozenset({"z", "y"}), frozenset({"b", "a"})]
    assert sorted(dual, key=sorted) != dual


# -- invariants of every subproblem ------------------------------------------------

FLAT5 = poset_from_pairs([f"p{i}" for i in range(1, 6)], [])


@pytest.mark.parametrize(
    "poset, universe, a, b, message",
    [
        # a member outside U, where U is flat and where it is ordered
        (FLAT5, 0b00011, (0b00100,), (0b00001,), "antichain of downsets"),
        (CHAIN3, 0b011, (0b100,), (0b001,), "antichain of downsets"),
        # p2 without p1 below it
        (CHAIN3, 0b111, (0b010,), (0b001,), "antichain of downsets"),
        # p1 within {p1, p2}, both below the size of the top member
        (FLAT5, 0b11111, (0b00001, 0b00011, 0b11100), (), "antichain of downsets"),
        # a repeated member where every member has one size
        (FLAT5, 0b11111, (0b00011, 0b00011), (0b10000,), "antichain of downsets"),
        (ANTI2, 0b11, (0b01,), (0b11,), r"property \(\*\)"),
        # a repeated member in a one-size B
        (FLAT5, 0b11111, (), (0b00100, 0b00100), "antichain of downsets"),
        # a member outside a flat U while the other family is empty
        (FLAT5, 0b00011, (0b00100,), (), "antichain of downsets"),
        (FLAT5, 0b00011, (), (0b01000,), "antichain of downsets"),
        # (*) broken by the smaller of two A-members
        (FLAT5, 0b11111, (0b00001, 0b11100), (0b00011,), r"property \(\*\)"),
        # an antichain of downsets out of ascending order
        (FLAT5, 0b11111, (0b11100, 0b00011), (), "antichain of downsets"),
    ],
    # Each case keeps the id it has always run under, from when the table
    # also held a recursion depth (5 in every case kept), so that results
    # compare across runs.
    ids=[
        "poset0-3-a0-b0-5-antichain of downsets",
        "poset1-3-a1-b1-5-antichain of downsets",
        "poset2-7-a2-b2-5-antichain of downsets",
        "poset3-31-a3-b3-5-antichain of downsets",
        "poset4-31-a4-b4-5-antichain of downsets",
        "poset5-3-a5-b5-5-property \\(\\*\\)",
        "poset7-31-a7-b7-5-antichain of downsets",
        "poset8-3-a8-b8-5-antichain of downsets",
        "poset9-3-a9-b9-5-antichain of downsets",
        "poset10-31-a10-b10-5-property \\(\\*\\)",
        "poset11-31-a11-b11-5-antichain of downsets",
    ],
)
def test_check_rejects_bad_subproblems(poset, universe, a, b, message):
    with pytest.raises(RuntimeError, match=message):
        _check(poset, universe, a, b)


def test_check_accepts_a_good_subproblem():
    _check(FLAT5, 0b11111, (0b00011, 0b11100), (0b01010, 0b10101))
    _check(CHAIN3, 0b110, (0b010,), (0b000,))
    # an empty family on a flat U, beside members of U, and both empty
    _check(FLAT5, 0b00110, (), (0b00110,))
    _check(FLAT5, 0b00110, (0b00010, 0b00100), ())
    _check(FLAT5, 0b00110, (), ())


def test_a_pivot_outside_u_is_a_normalization_bug(monkeypatch):
    # A split at an element of U leaves it in neither half, which bounds the
    # depth by |U|.  A pivot rule that always answers element 0 is right
    # once, at the root; in the second half, where 0 is gone, a split would
    # shrink nothing and answer (False, 4) on this dual instance.
    names = [f"p{i}" for i in range(1, 7)]
    inst = DualityInstance(poset_from_pairs(names, []), [{x} for x in names], [set()])
    assert duality_test_stats(inst) == (True, 13)
    monkeypatch.setattr(duality_layer, "_pivot", lambda poset, universe, a, b: 0)
    with pytest.raises(RuntimeError, match=r"pivot 0 lies outside U \(normalization bug\)"):
        duality_test_stats(inst)


# -- scans pruned by the ascending order ---------------------------------------

MASKS6 = st.integers(0, 63)


@st.composite
def pruned_scan_cases(draw):
    """A poset on six elements, an element p of it, an ascending antichain A
    and a short family B.  A may be empty, hold one member or be {empty set},
    and it often holds down(p) or a member of B, the bounds of the scans."""
    names = [f"p{i}" for i in range(1, 7)]
    pairs = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5))))
    poset = poset_from_pairs(names, [(names[i], names[j]) for i, j in pairs if i < j])
    p = draw(st.integers(0, 5))
    below = poset._down[p]
    b = tuple(draw(st.lists(MASKS6, max_size=3)))
    bounds = [below, *b]
    extra = draw(st.lists(st.sampled_from(bounds), max_size=2))
    a = minimal_masks(draw(st.lists(MASKS6, max_size=8)) + extra)
    return poset, p, a, b


@settings(max_examples=400, deadline=None)
@given(pruned_scan_cases())
def test_pruned_scans_agree_with_the_full_ones(case):
    poset, p, a, b = case
    assert _star(a, b) == (not any(x & ~y == 0 for x in a for y in b))
    below = poset._down[p]
    (_, first_a, _), _ = _split(poset, 0b111111, a, (), p)
    assert first_a == minimal_masks(map((~below).__and__, a))


# -- exactness: verdicts and node counts pinned --------------------------------


def pinned_instances():
    """The k = 2..8 matchings, each followed by its near-dual twins lacking the
    first, the middle or the last B-member; then for each seed 0..99 a planted
    and a random instance on 10-14 elements."""
    for k in range(2, 9):
        poset, fam_a, fam_b = matching_instance(k)
        yield DualityInstance(poset, fam_a, fam_b)
        for drop in (0, len(fam_b) // 2, -1):
            twin = list(fam_b)
            del twin[drop]
            yield DualityInstance(poset, fam_a, twin)
    for seed in range(100):
        yield planted_instance(random.Random(seed), 14, 10, min_n=10)
        yield random_instance(random.Random(seed), 14, 10, min_n=10)


# (dual, nodes) of each pinned instance, recorded before the node-level
# rewrites of `_split`, `_check`, `_pivot` and the mask normalisers.
PINNED_MATCHINGS = [
    (True, 19), (False, 5), (False, 11), (False, 14),
    (True, 61), (False, 8), (False, 28), (False, 37),
    (True, 187), (False, 11), (False, 11), (False, 40),
    (True, 563), (False, 14), (False, 14), (False, 43),
    (True, 1673), (False, 17), (False, 17), (False, 46),
    (True, 4777), (False, 20), (False, 20), (False, 49),
    (True, 12633), (False, 23), (False, 23), (False, 52),
]
PINNED_SEEDED = [
    (True, 13), (False, 1), (True, 1), (False, 1), (True, 1), (True, 1),
    (True, 77), (False, 10), (True, 19), (False, 7), (True, 37), (False, 1),
    (True, 51), (False, 1), (True, 21), (False, 1), (True, 65), (False, 1),
    (True, 13), (False, 1), (True, 29), (False, 1), (True, 1), (False, 1),
    (True, 95), (False, 1), (True, 73), (False, 1), (True, 77), (False, 1),
    (True, 29), (False, 1), (True, 65), (False, 5), (True, 21), (False, 1),
    (True, 41), (False, 1), (True, 93), (False, 1), (True, 13), (False, 1),
    (True, 37), (False, 1), (True, 67), (False, 1), (True, 1), (True, 1),
    (True, 13), (False, 1), (True, 143), (False, 5), (True, 35), (False, 1),
    (True, 1), (True, 1), (True, 23), (False, 1), (True, 17), (False, 1),
    (True, 81), (False, 15), (True, 13), (False, 1), (True, 27), (False, 1),
    (True, 191), (False, 7), (True, 45), (False, 1), (True, 115), (False, 10),
    (True, 27), (False, 1), (True, 29), (False, 1), (True, 1), (False, 1),
    (True, 73), (False, 1), (True, 65), (False, 8), (True, 15), (False, 1),
    (True, 7), (False, 1), (True, 33), (False, 1), (True, 23), (False, 1),
    (True, 1), (True, 1), (True, 17), (False, 1), (True, 19), (False, 1),
    (True, 185), (False, 3), (True, 45), (False, 1), (True, 83), (False, 1),
    (True, 1), (False, 1), (True, 55), (False, 1), (True, 37), (False, 19),
    (True, 71), (False, 6), (True, 23), (False, 1), (True, 145), (False, 11),
    (True, 1), (False, 1), (True, 1), (False, 1), (True, 69), (False, 8),
    (True, 29), (False, 1), (True, 19), (False, 6), (True, 15), (False, 1),
    (True, 27), (False, 1), (True, 31), (False, 1), (True, 51), (False, 6),
    (True, 7), (True, 7), (True, 1), (True, 1), (True, 27), (False, 5),
    (True, 15), (False, 7), (True, 75), (False, 7), (True, 3), (False, 1),
    (True, 85), (False, 1), (True, 1), (False, 1), (True, 71), (False, 1),
    (True, 73), (False, 7), (True, 11), (False, 1), (True, 65), (False, 1),
    (True, 33), (False, 1), (True, 49), (False, 7), (True, 3), (False, 1),
    (True, 89), (False, 1), (True, 1), (False, 1), (True, 69), (False, 5),
    (True, 31), (False, 4), (True, 7), (False, 1), (True, 215), (False, 1),
    (True, 57), (False, 7), (True, 37), (False, 1), (True, 1), (True, 1),
    (True, 69), (False, 5), (True, 101), (False, 3), (True, 83), (False, 1),
    (True, 15), (False, 1), (True, 75), (False, 7), (True, 109), (False, 1),
    (True, 31), (False, 18), (True, 1), (True, 1), (True, 23), (False, 1),
    (True, 57), (False, 10),
]


def test_verdicts_and_node_counts_are_pinned():
    assert [duality_test_stats(inst) for inst in pinned_instances()] == (
        PINNED_MATCHINGS + PINNED_SEEDED
    )


# -- property-based agreement with the oracle -------------------------------------


@st.composite
def posets(draw, max_n=14):
    n = draw(st.integers(1, max_n))
    names = [f"p{i}" for i in range(1, n + 1)]
    edges = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    return poset_from_pairs(names, [(names[i], names[j]) for i, j in edges if i < j])


@st.composite
def planted_or_near(draw):
    """A planted dual instance, or one with a B-member dropped."""
    poset = draw(posets())
    seeds = draw(st.lists(st.sets(st.sampled_from(poset.elements)), max_size=5))
    fam_a = minimal_members(poset.down_closure(s) for s in seeds)
    fam_b = dualize_brute(fam_a, poset)
    if fam_b and draw(st.booleans()):
        del fam_b[draw(st.integers(0, len(fam_b) - 1))]
    return DualityInstance(poset, fam_a, fam_b)


@st.composite
def matching_or_near(draw):
    """Matching with k >= 4 (n >= m**3, so pivots come from frequencies),
    or the same with a B-member dropped."""
    poset, fam_a, fam_b = matching_instance(draw(st.integers(4, 7)))
    if draw(st.booleans()):
        del fam_b[draw(st.integers(0, len(fam_b) - 1))]
    return DualityInstance(poset, fam_a, fam_b)


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(planted_or_near(), matching_or_near()))
def test_instance_lists_members_in_family_order(inst):
    codec = inst.poset._codec
    for fam in (inst.a, inst.b):
        assert type(fam) is tuple
        assert list(fam) == codec.family(map(codec.encode, fam))
        assert all(type(s) is frozenset for s in fam)


# Drawing a planted instance runs the brute-force dualization.
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_or_near())
def test_duality_agrees_with_oracle_on_planted(inst):
    assert duality_test(inst) == brute_force_dual(inst).dual


@settings(max_examples=20, deadline=None)
@given(matching_or_near())
def test_duality_agrees_with_oracle_on_matching(inst):
    assert duality_test(inst) == brute_force_dual(inst).dual


@settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(planted_or_near())
def test_split_first_b_is_already_maximal(inst):
    """The first half's B is taken unnormalized: at every element of every
    subproblem reached by splitting, it equals its maximal members."""
    poset = inst.poset
    todo, seen = [_masks(inst)], set()
    while todo and len(seen) < 100:
        node = todo.pop()
        if node in seen:
            continue
        seen.add(node)
        universe, a, b = node
        for p in bits(universe):
            below = poset._down[p] & universe
            first, second = _split(poset, universe, a, b, p)
            assert first[2] == maximal_masks([y & ~below for y in b if y >> p & 1])
            todo += [first, second]


# -- judges above the oracle guard ------------------------------------------------


def without_b_member(inst, i):
    return DualityInstance(inst.poset, inst.a, inst.b[:i] + inst.b[i + 1:])


@st.composite
def judged_instances(draw):
    """An instance of 21-60 elements, where no oracle reaches: random, or
    composed of 2-3 planted pieces, dual or with one B-member dropped."""
    rng = draw(st.randoms(use_true_random=True))
    if draw(st.booleans()):
        return random_instance(rng, 60, 5, min_n=30)
    inst = composed_instance(rng, draw(st.integers(2, 3)))
    if draw(st.booleans()):
        inst = without_b_member(inst, draw(st.integers(0, len(inst.b) - 1)))
    return inst


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(judged_instances())
def test_order_duality_keeps_the_verdict(inst):
    assert duality_test(opposite_instance(inst)) == duality_test(inst)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(judged_instances(), st.randoms(use_true_random=True))
def test_relabelling_keeps_the_verdict(inst, rng):
    assert duality_test(relabelled_instance(rng, inst)) == duality_test(inst)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=True), st.integers(2, 3), st.data())
def test_a_composed_instance_is_dual_and_not_once_a_b_member_is_dropped(rng, parts, data):
    inst = composed_instance(rng, parts)
    assert 21 <= len(inst.poset) <= 60
    assert duality_test(inst)
    dropped = without_b_member(inst, data.draw(st.integers(0, len(inst.b) - 1)))
    assert not duality_test(dropped)


# -- an absolute judge above the oracle guard ----------------------------------


def judged_pair(inst):
    """The instance and its twin without the middle B-member, each with its
    verdict from `duality_test` and from the minimal-transversal judge."""
    pair = (inst, without_b_member(inst, len(inst.b) // 2))
    judge = [set(x.b) == set(transversal_dual(x.a, x.poset)) for x in pair]
    return [duality_test(x) for x in pair], judge


@pytest.mark.parametrize("k", [10, 11])
def test_matchings_at_the_guard_agree_with_the_transversal_judge(k):
    # 20 and 22 elements: the second is past the oracle's guard
    inst = DualityInstance(*matching_instance(k))
    assert judged_pair(inst) == ([True, False], [True, False])


# (parts, n, seed) of composed instances of 36 to 275 elements.  Without a
# split at components the recursion takes seconds or more on most composed
# instances above 60 elements; these seeds answer in about 0.1 s or less.
@pytest.mark.parametrize(
    "parts, n, seed", [(3, 30, 3), (10, 30, 4), (20, 60, 4), (40, 120, 6), (60, 180, 4)]
)
def test_composed_instances_agree_with_the_transversal_judge(parts, n, seed):
    inst = composed_instance(random.Random(seed), parts, n)
    assert 30 <= len(inst.poset) <= 300
    assert judged_pair(inst) == ([True, False], [True, False])


# -- the pivot rule against the full scan ----------------------------------------


def reference_pivot(poset, universe, a, b):
    """The pivot rule scanning every element of U and counting every time."""
    down, up = poset._down, poset._up
    elems = bits(universe)
    scores = [(down[i] & universe).bit_count() + (up[i] & universe).bit_count() for i in elems]
    m = max(scores)
    if m**3 > len(elems):
        return elems[scores.index(m)]
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


@st.composite
def sparse_ordered(draw):
    """27-45 elements with a few disjoint comparable pairs, so at the root
    m = 3 and m**3 <= |U|: pivots come from the frequencies with order
    present.

    A holds down-closures of small seeds.  Each B-member is the largest
    downset missing one element of every A-member, so (*) holds.
    """
    n = draw(st.integers(27, 45))
    names = [f"p{i}" for i in range(1, n + 1)]
    ends = draw(st.lists(st.sampled_from(names), unique=True, min_size=2, max_size=8))
    poset = poset_from_pairs(names, list(zip(ends[::2], ends[1::2])))
    seeds = draw(st.lists(st.sets(st.sampled_from(names), min_size=2, max_size=3),
                          min_size=1, max_size=6))
    fam_a = minimal_members(poset.down_closure(s) for s in seeds)
    fam_b = []
    for _ in range(draw(st.integers(1, 8))):
        missed = [draw(st.sampled_from(sorted(x))) for x in fam_a]
        fam_b.append(frozenset(names).difference(*map(poset.up_set, missed)))
    return DualityInstance(poset, fam_a, maximal_members(fam_b))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(planted_or_near(), matching_or_near(), sparse_ordered()))
def test_pivot_matches_the_full_scan(inst):
    """At every subproblem reached by splitting, the pivot, or None, is the
    one the full scan of U and of the members gives.  Subproblems are taken
    breadth first, so most are near the root, where U is large enough for
    the frequency branch."""
    poset = inst.poset
    todo, seen = deque([_masks(inst)]), set()
    while todo and len(seen) < 100:
        node = todo.popleft()
        universe, a, b = node
        if node in seen or not a or not b:
            continue
        seen.add(node)
        assert _pivot(poset, universe, a, b) == reference_pivot(poset, universe, a, b)
        for p in bits(universe):
            todo += _split(poset, universe, a, b, p)
