"""Posets, downsets, frequency statistics, antichain normalization."""

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lattice_dual import (
    GuardExceeded,
    Poset,
    contraordinal_context,
    freq,
    freq_complement,
    is_antichain,
    maximal_members,
    minimal_members,
    poset_from_json,
    poset_from_pairs,
    poset_to_json,
)
from lattice_dual import poset as poset_layer
from lattice_dual.poset import family_from_json
from lattice_dual.util import transpose

from conftest import random_poset


def chain(n: int) -> Poset:
    names = [f"p{i}" for i in range(1, n + 1)]
    return poset_from_pairs(names, list(zip(names, names[1:])))


def antichain_poset(n: int) -> Poset:
    return poset_from_pairs([f"p{i}" for i in range(1, n + 1)], [])


DIAMOND = poset_from_pairs(
    ["p0", "p1", "p2", "p3"],
    [("p0", "p1"), ("p0", "p2"), ("p1", "p3"), ("p2", "p3")],
)


# -- construction --------------------------------------------------------


def test_from_pairs_infers_transitivity():
    p = chain(3)
    assert p.leq("p1", "p3")


def test_from_pairs_empty_relation():
    p = antichain_poset(2)
    assert not p.leq("p1", "p2") and not p.leq("p2", "p1")
    assert p.leq("p1", "p1")


def test_from_pairs_rejects_cycle():
    with pytest.raises(ValueError, match="^cycle detected through 'p1' and 'p2'$"):
        poset_from_pairs(["p1", "p2"], [("p1", "p2"), ("p2", "p1")])


def test_from_pairs_rejects_longer_cycle():
    # The search starts at 'c' and meets the back edge b -> c.
    with pytest.raises(ValueError, match="^cycle detected through 'b' and 'c'$"):
        poset_from_pairs(["a", "b", "c"], [("a", "b"), ("b", "c"), ("c", "a")])


def test_from_pairs_rejects_a_long_cycle_at_its_back_edge():
    # A chain of 3,000 closed into a cycle: the search runs from c2999 up
    # the chain and stops at c2998 -> c2999, without closing a cyclic order.
    names = [f"c{i}" for i in range(3000)]
    pairs = list(zip(names, names[1:])) + [(names[-1], names[0])]
    with pytest.raises(ValueError, match="^cycle detected through 'c2998' and 'c2999'$"):
        poset_from_pairs(names, pairs)


@pytest.mark.parametrize(
    "elements, leq, message",
    [
        (["a", "b"], [[1, 0]], "leq matrix dimensions do not match element count"),
        (["a", "b"], [[1, 0], [0]], "leq matrix dimensions do not match element count"),
        (["a", "b"], [[1, 0], [0, 0]], "leq not reflexive at 'b'"),
        (["a", "b"], [[1, 1], [1, 1]], "leq not antisymmetric: 'a' and 'b'"),
        (["a", "b", "c"], [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
         "leq not transitive at 'a' <= 'b' <= 'c'"),
    ],
)
def test_leq_matrix_errors(elements, leq, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        Poset(elements, leq)


def test_from_pairs_rejects_unknown_name():
    with pytest.raises(ValueError):
        poset_from_pairs(["p1"], [("p1", "p9")])


def test_from_pairs_rejects_duplicate_names():
    with pytest.raises(ValueError):
        poset_from_pairs(["p1", "p1"], [])


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12)
    if n else st.just([]),
    st.integers(0, 2**n - 1),
)))
def test_from_pairs_matches_brute_closure(case):
    # from_pairs and restrict skip the order validation of Poset(...)
    n, pairs, keep = case
    names = [f"p{i}" for i in range(n)]
    leq = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        leq[i][j] = leq[i][j] or (leq[i][k] and leq[k][j])
    named = [(names[i], names[j]) for i, j in pairs]
    if any(leq[i][j] and leq[j][i] for i in range(n) for j in range(i + 1, n)):
        # two distinct elements of one cycle, in declaration order
        with pytest.raises(ValueError, match="^cycle detected through 'p[0-9]' and 'p[0-9]'$") as err:
            Poset.from_pairs(names, named)
        i, j = (names.index(name) for name in err.value.args[0].split("'")[1::2])
        assert i < j and leq[i][j] and leq[j][i]
        return
    p = Poset.from_pairs(names, named)
    assert p == Poset(names, leq)
    # Poset equality compares up-masks only: the other masks are checked here.
    assert p._down == tuple(sum(1 << i for i in range(n) if leq[i][j]) for j in range(n))
    assert p._nonmin == sum(1 << j for j in range(n) if any(leq[i][j] for i in range(n) if i != j))
    assert p._nonmax == sum(1 << i for i in range(n) if any(leq[i][j] for j in range(n) if j != i))
    kept = [i for i in range(n) if keep >> i & 1]
    induced = [[leq[i][j] for j in kept] for i in kept]
    restricted = p.restrict(names[i] for i in kept)
    brute = Poset([names[i] for i in kept], induced)
    assert restricted == brute
    assert (restricted._down, restricted._nonmin, restricted._nonmax) == (
        brute._down, brute._nonmin, brute._nonmax
    )


def reference_up_masks(n, pairs) -> tuple:
    """Each element with everything reachable from it, by a search per element."""
    succ = [[] for _ in range(n)]
    for i, j in pairs:
        succ[i].append(j)
    out = []
    for i in range(n):
        seen, todo = {i}, [i]
        while todo:
            for j in succ[todo.pop()]:
                if j not in seen:
                    seen.add(j)
                    todo.append(j)
        out.append(sum(1 << j for j in seen))
    return tuple(out)


def test_from_pairs_masks_of_a_shuffled_300_chain():
    rng = random.Random(300)
    n = 300
    names = [f"c{i}" for i in range(n)]
    order = list(range(n))
    rng.shuffle(order)  # order[k] is the element at height k
    pairs = list(zip(order, order[1:]))
    rng.shuffle(pairs)
    p = Poset.from_pairs(names, [(names[i], names[j]) for i, j in pairs])
    assert p._up == reference_up_masks(n, pairs)
    assert p._down == tuple(transpose(p._up, n))
    full = (1 << n) - 1
    assert p._nonmin == full & ~(1 << order[0])
    assert p._nonmax == full & ~(1 << order[-1])


def test_from_pairs_masks_of_a_sparse_random_dag():
    rng = random.Random(200)
    n = 200
    names = [f"d{i}" for i in range(n)]
    height = list(range(n))
    rng.shuffle(height)
    pairs = set()
    while len(pairs) < 300:
        i, j = sorted(rng.sample(range(n), 2), key=height.__getitem__)
        pairs.add((i, j))
    pairs = sorted(pairs)
    rng.shuffle(pairs)
    p = Poset.from_pairs(names, [(names[i], names[j]) for i, j in pairs])
    assert p._up == reference_up_masks(n, pairs)
    assert p._down == tuple(transpose(p._up, n))
    # in an acyclic relation, an element has something strictly below it
    # exactly when it is the upper end of a pair
    assert p._nonmin == sum({1 << j for _, j in pairs})
    assert p._nonmax == sum({1 << i for i, _ in pairs})


def brute_below(n, pairs) -> list:
    """below[j]: the mask of every i <= j, by Warshall's closure on masks."""
    below = [1 << j for j in range(n)]
    for i, j in pairs:
        below[j] |= 1 << i
    for k in range(n):
        for j in range(n):
            if below[j] >> k & 1:
                below[j] |= below[k]
    return below


@st.composite
def downset_queries(draw):
    """(n, pairs, universe, mask): a random order on up to 12 elements, a
    sub-universe U (the poset less about a sixth of it), and a mask that is
    random, or random inside U, or the least downset of U over a sparse part
    of U, or that downset with one more element, inside U or not."""
    n = draw(st.integers(0, 12))
    rng = draw(st.randoms(use_true_random=False))
    density = draw(st.sampled_from([0.1, 0.25, 0.5]))
    label = rng.sample(range(n), n)  # so that no index order is a linear extension
    pairs = [
        (label[i], label[j])
        for i, j in itertools.combinations(range(n), 2)
        if rng.random() < density
    ]
    universe = sum(1 << i for i in range(n) if rng.random() < 5 / 6)
    mask = rng.getrandbits(n)
    kind = draw(st.sampled_from(["raw", "inside", "closed", "closed_plus"]))
    if kind == "inside":
        mask &= universe
    elif kind != "raw":
        below, seed, mask = brute_below(n, pairs), mask & universe & rng.getrandbits(n), 0
        for i in range(n):
            if seed >> i & 1:
                mask |= below[i] & universe
        if kind == "closed_plus" and n:
            mask |= 1 << rng.randrange(n)
    return n, pairs, universe, mask


CHAIN4 = [(0, 1), (1, 2), (2, 3)]
CHAIN5 = [(0, 1), (1, 2), (2, 3), (3, 4)]
PAIRS3 = [(0, 1), (2, 3), (4, 5)]


@settings(deadline=None)
@given(downset_queries())
# the inner side walked (no more elements with something below than outside
# elements with something above): a downset, and not one
@example((4, CHAIN4, 0b1111, 0b0011))
@example((4, CHAIN4, 0b1111, 0b0010))
# the outer side walked: a downset, and not one
@example((5, CHAIN5, 0b11111, 0b00111))
@example((5, CHAIN5, 0b11111, 0b01011))
# the walk passes one element and fails at the next: inner side, outer side
@example((6, PAIRS3, 0b111111, 0b001011))
@example((8, PAIRS3 + [(6, 7)], 0b11111111, 0b10111100))
# the outer side walked, failing at element 0, which lies above element 1
@example((6, [(1, 0), (2, 3), (4, 5)], 0b111111, 0b111101))
# a downset of the sub-universe without element 1, but not of the poset
@example((5, CHAIN5, 0b11101, 0b00101))
# bits outside the universe
@example((4, CHAIN4, 0b0111, 0b1001))
@example((4, CHAIN4, 0b0111, 0b1000))
def test_is_downset_matches_the_definition(query):
    n, pairs, universe, mask = query
    names = [f"p{i}" for i in range(n)]
    p = Poset.from_pairs(names, [(names[i], names[j]) for i, j in pairs])
    below = brute_below(n, pairs)
    want = not mask & ~universe and all(
        not below[i] & universe & ~mask for i in range(n) if mask >> i & 1
    )
    assert poset_layer._is_downset(p, universe, mask) == want


# -- principal sets ------------------------------------------------------


def test_down_set_chain():
    assert chain(3).down_set("p2") == frozenset({"p1", "p2"})


def test_up_set_antichain():
    assert antichain_poset(2).up_set("p1") == frozenset({"p1"})


def test_down_closure_chain():
    assert chain(3).down_closure({"p3"}) == frozenset({"p1", "p2", "p3"})


def test_down_closure_is_closure_operator():
    rng = random.Random(41)
    for _ in range(30):
        p = random_poset(rng, 7)
        x = frozenset(e for e in p.elements if rng.random() < 0.4)
        y = x | frozenset(e for e in p.elements if rng.random() < 0.3)
        cx, cy = p.down_closure(x), p.down_closure(y)
        assert x <= cx
        assert cx <= cy
        assert p.down_closure(cx) == cx
        assert p.is_downset(cx)
        assert p.is_downset(x) == (x == cx)


def test_unknown_element_rejected():
    with pytest.raises(ValueError):
        chain(2).down_set("p9")


# -- downset enumeration -------------------------------------------------


def test_all_downsets_chain3():
    got = {frozenset(d) for d in chain(3).all_downsets()}
    assert got == {
        frozenset(),
        frozenset({"p1"}),
        frozenset({"p1", "p2"}),
        frozenset({"p1", "p2", "p3"}),
    }


def test_all_downsets_antichain2():
    assert len(antichain_poset(2).all_downsets()) == 4


def test_all_downsets_empty_poset():
    p = poset_from_pairs([], [])
    assert p.all_downsets() == [frozenset()]


def test_all_downsets_counts():
    for n in range(1, 8):
        assert len(chain(n).all_downsets()) == n + 1
    for n in range(1, 7):
        assert len(antichain_poset(n).all_downsets()) == 2**n


def test_all_downsets_lattice_closure():
    rng = random.Random(43)
    for _ in range(20):
        p = random_poset(rng, 6)
        family = set(p.all_downsets())
        for x, y in itertools.combinations(family, 2):
            assert x | y in family
            assert x & y in family


def test_downsets_are_the_contraordinal_intents_in_lectic_order():
    # a < b and a lone c: {c} (mask 4) comes before {a} (mask 1), and {a, c}
    # before {a, b}
    p = poset_from_pairs(["a", "b", "c"], [("a", "b")])
    assert list(p._downset_masks()) == [0, 4, 1, 5, 3, 7]
    for n in range(10):
        names = [f"p{i}" for i in range(1, n + 1)]
        top_down = poset_from_pairs(names[::-1], list(zip(names, names[1:])))
        for p in (chain(n), top_down, antichain_poset(n)):
            assert list(p._downset_masks()) == contraordinal_context(p).intent_masks()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=20)
    if n else st.just([]),
)))
def test_downset_masks_equal_the_contraordinal_intents_list_for_list(case):
    # Pairs run from a smaller to a larger rank, so they never close a
    # cycle; the permutation declares the ranks in any order.
    order, pairs = case
    names = [f"p{i}" for i in order]
    p = poset_from_pairs(names, [(f"p{min(i, j)}", f"p{max(i, j)}") for i, j in pairs if i != j])
    assert list(p._downset_masks()) == contraordinal_context(p).intent_masks()


def test_chain_lists_its_downsets_with_one_step_call_each_in_either_order(monkeypatch):
    # Declared bottom-up, every later element lies above the least one
    # outside a downset; declared top-down, the downsets below the root have
    # no element left to add.  Either way the engine calls the step once per
    # expanded downset, and both orders list the same downsets.
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "300")
    names = [f"p{i}" for i in range(1, 301)]
    bottom_up = poset_from_pairs(names, list(zip(names, names[1:])))
    top_down = poset_from_pairs(names[::-1], list(zip(names, names[1:])))
    engine, expanded = poset_layer.closed_masks, []

    def counting(children, start, prune=None):
        def step(x, state, y):
            expanded.append(x)
            return children(x, state, y)

        return engine(step, start, prune)

    monkeypatch.setattr(poset_layer, "closed_masks", counting)
    for p in (bottom_up, top_down):
        expanded.clear()
        downsets = list(p._downset_masks())
        assert len(downsets) == 301 and expanded == downsets
    assert bottom_up.all_downsets() == top_down.all_downsets()


def test_all_downsets_guard():
    with pytest.raises(GuardExceeded):
        chain(21).all_downsets()


def test_guard_env_override(monkeypatch):
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "25")
    assert len(chain(21).all_downsets()) == 22


def test_guard_env_rejects_negative(monkeypatch):
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "-1")
    with pytest.raises(ValueError, match="LATTICE_DUAL_GUARD"):
        chain(3).all_downsets()


@pytest.mark.parametrize("raw", ["abc", "2.5", ""])
def test_guard_env_rejects_non_integer(monkeypatch, raw):
    monkeypatch.setenv("LATTICE_DUAL_GUARD", raw)
    message = f"LATTICE_DUAL_GUARD must be a non-negative integer, got {raw!r}"
    with pytest.raises(ValueError) as info:
        chain(3).all_downsets()
    assert str(info.value) == message


def test_all_downsets_no_duplicates():
    rng = random.Random(47)
    for _ in range(20):
        p = random_poset(rng, 7)
        ds = p.all_downsets()
        assert len(ds) == len(set(ds))
        assert all(p.is_downset(d) for d in ds)


# -- statistics ----------------------------------------------------------


def test_m_value_examples():
    assert chain(3).m_value() == 4
    for n in range(1, 6):
        assert antichain_poset(n).m_value() == 2
    assert DIAMOND.m_value() == 5


def test_m_value_empty_poset_rejected():
    with pytest.raises(ValueError):
        poset_from_pairs([], []).m_value()


def test_freq_examples():
    family = [frozenset({"p1"}), frozenset({"p1", "p2"})]
    assert freq(family, "p1") == 1
    assert freq(family, "p2") == Fraction(1, 2)


def test_freq_complement_example():
    family = [frozenset({"p1"}), frozenset({"p1", "p2"})]
    assert freq_complement(family, antichain_poset(2), "p2") == Fraction(1, 2)


def test_freq_empty_family_rejected():
    with pytest.raises(ValueError):
        freq([], "p1")
    with pytest.raises(ValueError):
        freq_complement([], antichain_poset(1), "p1")
    # The empty family is reported before an unknown element.
    with pytest.raises(ValueError, match="empty family"):
        freq_complement([], antichain_poset(1), "p9")
    with pytest.raises(ValueError, match="unknown element name: 'p9'"):
        freq_complement([frozenset({"p1"})], antichain_poset(1), "p9")


def test_freq_is_exact_rational():
    family = [frozenset({"p1"}), frozenset(), frozenset({"p1", "p2"})]
    assert freq(family, "p1") == Fraction(2, 3)
    assert isinstance(freq(family, "p1"), Fraction)


# -- antichain normalization ----------------------------------------------


def test_minimal_members_example():
    got = minimal_members([{"p1"}, {"p1", "p2"}])
    assert got == [frozenset({"p1"})]


def test_maximal_members_incomparable_kept():
    got = maximal_members([{"p1"}, {"p2"}])
    assert set(got) == {frozenset({"p1"}), frozenset({"p2"})}


def test_members_of_mixed_name_types():
    family = [{"a"}, {1}, {1, "a"}, {2.5}]
    assert minimal_members(family) == [frozenset({1}), frozenset({2.5}), frozenset({"a"})]
    assert maximal_members(family) == [frozenset({2.5}), frozenset({1, "a"})]
    # names that do not compare with each other are ordered all the same
    assert minimal_members([{None}, {1}]) == [frozenset({1}), frozenset({None})]


def test_minimal_members_empty():
    assert minimal_members([]) == []


def test_normalization_properties():
    rng = random.Random(53)
    for _ in range(50):
        p = random_poset(rng, 6)
        family = [p.down_closure({e for e in p.elements if rng.random() < 0.4})
                  for _ in range(rng.randint(0, 6))]
        mins, maxs = minimal_members(family), maximal_members(family)
        assert is_antichain(mins) and is_antichain(maxs)
        assert len(mins) == len(set(mins)) and len(maxs) == len(set(maxs))
        for member in family:
            assert any(lo <= member for lo in mins)
            assert any(member <= hi for hi in maxs)


# -- restriction ----------------------------------------------------------


def test_restrict_preserves_order():
    p = chain(4)
    q = p.restrict(["p1", "p3", "p4"])
    assert q.elements == ("p1", "p3", "p4")
    assert q.leq("p1", "p4") and q.leq("p3", "p4") and not q.leq("p4", "p3")


# -- covers ---------------------------------------------------------------


def test_covers_diamond():
    assert DIAMOND.lower_covers("p3") == frozenset({"p1", "p2"})
    assert DIAMOND.upper_covers("p0") == frozenset({"p1", "p2"})
    assert DIAMOND.lower_covers("p0") == frozenset()


def test_covers_skip_transitive_edges():
    p = chain(3)
    assert p.lower_covers("p3") == frozenset({"p2"})


# -- JSON -----------------------------------------------------------------


def test_poset_json_round_trip():
    rng = random.Random(59)
    for _ in range(20):
        p = random_poset(rng, 7)
        q = poset_from_json(json.loads(json.dumps(poset_to_json(p))))
        assert q.elements == p.elements
        for a in p.elements:
            for b in p.elements:
                assert q.leq(a, b) == p.leq(a, b)


def test_poset_json_rejects_bad_shape():
    with pytest.raises(ValueError):
        poset_from_json({"less_than": []})
    with pytest.raises(ValueError):
        poset_from_json([["a", "b"]])


@pytest.mark.parametrize(
    "doc",
    [
        {"elements": "abc"},
        {"elements": [["a"]]},
        {"elements": ["a", "b"], "less_than": [1]},
        {"elements": ["a", "b"], "less_than": [["a"]]},
        {"elements": ["a", "b"], "less_than": "ab"},
    ],
)
def test_poset_json_rejects_malformed_fields(doc):
    with pytest.raises(ValueError):
        poset_from_json(doc)


def test_family_json_rejects_non_list_members():
    p = chain(2)
    assert family_from_json([["p1"], []], p) == [frozenset({"p1"}), frozenset()]
    for doc in ([5], ["p1"], [[["p1"]]], {"p1": 1}):
        with pytest.raises(ValueError):
            family_from_json(doc, p)


def test_from_pairs_long_chain():
    names = [f"c{i}" for i in range(1, 1201)]
    p = Poset.from_pairs(names, list(zip(names, names[1:])))
    assert p.leq("c1", "c1200") and not p.leq("c1200", "c1")
    assert p.m_value() == 1201
