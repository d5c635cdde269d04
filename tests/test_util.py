"""The codec between names and bitmasks, the family order and the mask
antichain helpers."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from lattice_dual import (
    FormalContext,
    Implication,
    Poset,
    TrainingContext,
    decide_amh,
    dci_to_mibr,
    is_antichain,
    maximal_members,
    minimal_members,
    minvals_to_training,
)
from lattice_dual.util import (
    Codec,
    _star,
    bits,
    family_key,
    is_ascending_antichain,
    is_mask_antichain,
    maximal_masks,
    minimal_masks,
    name_key,
    pack,
    transpose,
)
from lattice_dual import util

UNIVERSE = Codec([f"e{i}" for i in range(300)], "element")


@st.composite
def index_sets(draw, max_n=300):
    """Sparse sets, or dense ones drawn as the complement of a sparse set."""
    n = draw(st.integers(0, max_n))
    picked = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n))
    if draw(st.booleans()):
        picked = set(range(n)) - picked
    return picked


@given(index_sets())
# sparse and dense masks, wide and narrow: the walk takes a step per set bit
@example(set(range(11)) | {63})
@example(set(range(12)) | {63})
@example(set(range(37)) | {299})
@example(set(range(38)) | {299})
@example({999})
@example(set(range(1000)))
@example(set())
def test_bits_are_the_sorted_indices(picked):
    assert bits(sum(1 << i for i in picked)) == sorted(picked)


@given(index_sets())
def test_decode_inverts_encode(picked):
    names = {UNIVERSE.names[i] for i in picked}
    mask = UNIVERSE.encode(names)
    assert mask == sum(1 << i for i in picked)
    assert UNIVERSE.members(mask) == names
    assert UNIVERSE.decode(mask) == [UNIVERSE.names[i] for i in sorted(picked)]
    assert UNIVERSE.encode(UNIVERSE.decode(mask)) == mask


def test_decode_drops_bits_beyond_the_universe():
    codec = Codec(["a", "b"], "element")
    assert codec.members(0b1110) == frozenset({"b"})
    assert codec.decode(0b1111) == ["a", "b"]
    assert codec.decode(0) == [] and codec.members(0) == frozenset()


@given(st.integers(0, 40).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, (1 << n + 9) - 1), max_size=12)
)))
# either side of where `Codec.sets` stops using byte tables: 24 | 25 names,
# and full, partial and absent last bytes
@example((24, [2**24 - 1, 2**20 - 1, 2**16 - 1, 2**33 - 1, 0]))
@example((25, [2**25 - 1, 2**24, 2**24 - 1, 2**33 - 1, 0]))
# and either side of four whole bytes: 32 | 33 names
@example((32, [2**32 - 1, 2**40 - 1, 0]))
@example((33, [2**33 - 1, 2**40 - 1, 0]))
@example((8, [255, 256, 2**16 - 1]))
@example((9, [511, 512, 2**16 - 1]))
@example((0, [0, 1, 2**9 - 1]))
def test_sets_decode_each_mask_as_members(case):
    # bits up to 9 beyond the universe are drawn, and must be dropped; the
    # second call reuses the tables the first one built
    n, masks = case
    codec = Codec([f"e{i}" for i in range(n)], "element")
    want = [codec.members(m) for m in masks]
    assert codec.sets(masks) == want
    assert codec.sets(iter(masks)) == want


def test_codecs_over_equal_names_share_their_tables():
    names = [f"e{i}" for i in range(20)] + [3, -1]
    masks = [0, 1, 2**22 - 1, 0b1011 << 17, 0xA5A5A5]
    a, b = Codec(names, "element"), Codec(list(names), "element")
    assert a.sets(masks) == b.sets(masks) == [a.members(m) for m in masks]
    assert all(x is y for x, y in zip(a._tables, b._tables))


class Label(str):
    def __repr__(self):
        return f"Label({str(self)!r})"


@pytest.mark.parametrize(
    "first, then",
    [([1], [1.0]), ([1], [True]), ([0.0], [-0.0]), (["a"], [Label("a")]),
     (["a", 1, "b"], ["a", True, "b"])],
)
def test_equal_names_of_other_types_decode_to_their_own(first, then):
    # 1, 1.0 and True are equal keys, as are 0.0 and -0.0, and a str
    # subclass equals its text: each decodes to its own name
    Codec(first, "element").sets([2**len(first) - 1])
    codec = Codec(then, "element")
    [decoded] = codec.sets([2**len(then) - 1])
    assert sorted(map(repr, decoded)) == sorted(map(repr, then))
    assert sorted(type(x).__name__ for x in decoded) == sorted(type(x).__name__ for x in then)


def test_sets_decode_after_the_shared_tables_are_evicted():
    held = util._shared_byte_table.cache_info().maxsize
    codecs = [Codec([f"n{k}_{i}" for i in range(10)], "element") for k in range(2 * held + 1)]
    masks = [0, 1, 2**10 - 1, 0b1010110011]
    for codec in codecs:
        assert codec.sets(masks) == [codec.members(m) for m in masks]
    assert util._shared_byte_table.cache_info().currsize <= held
    # the first codec keeps its tables; an equal codec built now rebuilds them
    for codec in (codecs[0], Codec(codecs[0].names, "element")):
        assert codec.sets(masks) == [codecs[0].members(m) for m in masks]


@given(st.lists(st.one_of(st.text(max_size=3), st.integers(-50, 50)), unique=True, max_size=40))
@example(["a", 1])
def test_position_is_the_index_of_the_name(names):
    codec = Codec(names, "object")
    assert [codec.position(x) for x in names] == [names.index(x) for x in names]
    # a number is found under an equal spelling: 1.0 finds the name 1
    for x in names:
        if isinstance(x, int):
            assert codec.position(float(x)) == names.index(x)
    with pytest.raises(ValueError) as raised:
        codec.position(None)
    assert str(raised.value) == "unknown object name: None"


def test_codec_rejects_unknown_and_repeated_names():
    with pytest.raises(ValueError) as raised:
        UNIVERSE.encode(["e1", "zz"])
    assert str(raised.value) == "unknown element name: 'zz'"
    with pytest.raises(ValueError, match="attribute names must be pairwise distinct"):
        Codec(["m1", "m1"], "attribute")


def test_encode_reads_a_generator_once():
    names = (x for x in ["e3", "e1", "e3"])
    assert UNIVERSE.encode(names) == 0b1010
    assert next(names, None) is None


def test_encode_names_the_least_unknown_name():
    # the names after the first unknown one come from the same generator
    names = (x for x in ["e1", "zz", "e2", "aa", "b"])
    with pytest.raises(ValueError) as raised:
        UNIVERSE.encode(names)
    assert str(raised.value) == "unknown element name: 'aa'"
    with pytest.raises(ValueError) as raised:
        Codec([0, 1], "element").encode({"c", 7, "a", 5.5})
    assert str(raised.value) == "unknown element name: 5.5"
    # names that do not compare with each other still have a least one
    with pytest.raises(ValueError) as raised:
        Codec([0, 1], "element").encode([0, None, 7])
    assert str(raised.value) == "unknown element name: 7"


def test_encode_takes_equal_spellings_and_rejects_unhashable_names():
    assert Codec([0, 1, 2], "element").encode([1.0]) == 0b10
    with pytest.raises(TypeError):
        UNIVERSE.encode([["e1"]])


def reference_transpose(masks, n):
    return [sum(1 << i for i, mask in enumerate(masks) if mask >> j & 1) for j in range(n)]


@pytest.mark.parametrize(
    "masks, n",
    [
        ([], 0),
        ([0, 0, 0], 3),
        # one bit per row: the identity, a permutation, all into one column
        ([0b001, 0b010, 0b100], 3),
        ([0b100, 0b001, 0b010], 3),
        ([0b10, 0b10, 0b10], 2),
        # zero, one and several bits mixed
        ([0, 0b1, 0b1011, 0, 0b1000], 4),
        # dense rows: an upper triangle, and full rows over 70 columns
        ([(1 << 5) - (1 << i) for i in range(5)], 5),
        ([(1 << 70) - 1] * 3, 70),
    ],
)
def test_transpose_matches_the_reference(masks, n):
    assert transpose(masks, n) == reference_transpose(masks, n)


@given(st.lists(index_sets(max_n=40), max_size=12))
def test_transpose_of_drawn_rows(rows):
    masks = [sum(1 << i for i in row) for row in rows]
    assert transpose(masks, 40) == reference_transpose(masks, 40)
    assert transpose(transpose(masks, 40), len(masks)) == masks


def test_family_order_is_size_then_indices():
    codec = Codec(["z", "b", "a"], "element")
    family = [{"a"}, {"z", "a"}, {"b"}, set(), {"z", "b"}]
    masks = sorted(map(codec.encode, family), key=family_key)
    assert [codec.decode(m) for m in masks] == [[], ["b"], ["a"], ["z", "b"], ["z", "a"]]
    assert codec.family(map(codec.encode, family)) == [frozenset(codec.decode(m)) for m in masks]


def reference_family_key(mask):
    return mask.bit_count(), bits(mask)


family_masks = st.one_of(
    index_sets().map(lambda picked: sum(1 << i for i in picked)),
    st.integers(0, 2**300 - 1),
)


@given(st.lists(family_masks, max_size=12))
@example([0, 1, 0, 2**300 - 1, 0])
# equal size, equal low byte, differing only above bit 8
@example([1 | 1 << 12, 1 | 1 << 9, 1 | 1 << 299, 1 | 1 << 8])
@example([0xFF | 0b101 << 9, 0xFF | 0b011 << 9])
# equal size, different byte lengths
@example([1 << 9, 1 << 3, 1 << 299, 1 << 7, 1 << 8])
@example([0b11 << 7, 0b1001, 1 << 20 | 1, 1 << 299 | 1 << 6])
def test_family_key_orders_as_the_index_lists(family):
    assert sorted(family, key=family_key) == sorted(family, key=reference_family_key)
    keys = list(map(family_key, family))
    refs = list(map(reference_family_key, family))
    for k, r in zip(keys, refs):
        assert [k < other for other in keys] == [r < other for other in refs]
        assert [k == other for other in keys] == [r == other for other in refs]


families = st.lists(st.integers(0, 2**7 - 1), max_size=8)


@given(families, st.booleans())
# the empty set among the candidates
@example([0b0110, 0, 0b0001, 0], False)
# candidates given as a generator
@example([0b0110, 0, 0b0001], True)
@example([0b0110, 0b0010, 0b1001], True)
# containment only below the largest size class
@example([0b1111000, 0b0000011, 0b0000001], False)
# a repeated member of the largest size class
@example([0b001, 0b110, 0b110], False)
def test_mask_helpers_agree_with_the_frozenset_references(family, lazy):
    codec = Codec(range(7), "element")
    sets = [codec.members(m) for m in family]

    def candidates():
        return (m for m in family) if lazy else family

    assert set(map(codec.members, minimal_masks(candidates()))) == set(minimal_members(sets))
    assert set(map(codec.members, maximal_masks(candidates()))) == set(maximal_members(sets))
    assert is_mask_antichain(family) == is_antichain(sets)


# -- the mask helpers against pairwise references ------------------------------


def reference_minimal(family) -> tuple:
    family = set(family)
    return tuple(sorted(s for s in family if not any(t != s and t & ~s == 0 for t in family)))


def reference_maximal(family) -> tuple:
    family = set(family)
    return tuple(sorted(s for s in family if not any(t != s and s & ~t == 0 for t in family)))


def reference_antichain(family) -> bool:
    return not any(
        i != j and s & ~t == 0 for i, s in enumerate(family) for j, t in enumerate(family)
    )


def reference_star(a, b) -> bool:
    return not any(x & ~y == 0 for x in a for y in b)


SHAPES = ("any", "zero", "repeated", "chain", "one-size", "small")


@st.composite
def mask_families(draw, width=8):
    """A list of masks over `width` bits, of a drawn shape: any, one with a 0
    member, one with a repeated member, a nested chain with a few others,
    one whose members all have one size, or one of 0-2 members."""
    shape = draw(st.sampled_from(SHAPES))
    members = st.integers(0, 2**width - 1)
    if shape == "small":
        return draw(st.lists(members, max_size=2))
    family = draw(st.lists(members, max_size=8))
    if shape == "zero":
        family.insert(draw(st.integers(0, len(family))), 0)
    elif shape == "repeated":
        family.append(draw(st.sampled_from(family)) if family else 0)
        family.append(family[-1])
    elif shape == "chain":
        link = 0
        for low in draw(st.lists(st.integers(0, width - 1), min_size=2, max_size=width)):
            link |= 1 << low
            family.append(link)
    elif shape == "one-size":
        size = draw(st.integers(0, width))
        family = [
            sum(1 << i for i in picked)
            for picked in draw(st.lists(st.sets(st.integers(0, width - 1), min_size=size,
                                                max_size=size), max_size=8))
        ]
    return draw(st.permutations(family))


@given(mask_families(), st.booleans())
@example([5, 0, 3, 0], True)
@example([0b0110, 0b0110, 0b0001], True)
@example([0b1, 0b11, 0b111, 0b1000], False)
@example([0b0011, 0b0101, 0b1001, 0b0110], True)
@example([], True)
@example([0b1], True)
@example([0b1, 0b10], False)
def test_mask_normalisers_match_the_pairwise_references(family, one_shot):
    def candidates():
        return iter(family) if one_shot else family

    assert minimal_masks(candidates()) == reference_minimal(family)
    assert maximal_masks(candidates()) == reference_maximal(family)


@given(mask_families())
@example([5, 0, 3])
@example([0b0110, 0b0110])
@example([0b0110, 0b0110, 0b0001])
@example([0b1, 0b11])
@example([0b0011, 0b0101, 0b1001])
@example([])
@example([0b1010])
def test_mask_antichain_test_matches_the_pairwise_reference(family):
    assert is_mask_antichain(family) == reference_antichain(family)
    assert is_mask_antichain(tuple(family)) == reference_antichain(family)
    ascending = all(s < t for s, t in zip(family, family[1:]))
    assert is_ascending_antichain(family) == (ascending and reference_antichain(family))
    assert is_ascending_antichain(sorted(set(family))) == reference_antichain(set(family))


@given(mask_families(), mask_families())
@example([0], [])
@example([0b01, 0b10], [0b11])
@example([0b11], [0b01, 0b10, 0b11])
@example([0b100, 0b011], [0b101, 0b110, 0b010])
def test_star_matches_the_pairwise_reference(a, b):
    # _star takes its first family in ascending order
    assert _star(tuple(sorted(a)), tuple(b)) == reference_star(a, b)
    assert _star(tuple(sorted(b)), tuple(a)) == reference_star(b, a)


def test_pack_moves_the_kept_bits_down_in_order():
    assert pack(0b101101, [0, 2, 3, 5]) == 0b1111
    assert pack(0b101101, [1, 4]) == 0
    assert pack(0b101101, [5, 0]) == 0b11
    assert pack(0b1, []) == 0


# -- one order of names ------------------------------------------------------


def test_name_key_puts_numbers_before_strings():
    assert sorted(["b", 2, "a", 1.5, 0], key=name_key) == [0, 1.5, 2, "a", "b"]
    # any other name comes last, by its type's name and then its repr
    assert sorted([(2,), None, "a", (1,), 3], key=name_key) == [3, "a", None, (1,), (2,)]


# Names 1 and "a" together, so a bare `sorted` of names would compare an int
# with a str.  Contexts over the attributes 1, "a" and "b":
#   LOCKED: one full row and one empty row, so {1, "a"} closes to all three;
#   SPLIT: 1 and "a" in different rows, with an empty negative row, so
#   {1, "a"} is a hypothesis, but not a minimal one.
MIXED = [1, "a", "b"]
LOCKED = FormalContext.from_intents(["g", "h"], MIXED, [set(MIXED), set()])
SPLIT = TrainingContext(
    FormalContext.from_intents(["p", "q"], MIXED, [{1}, {"a"}]),
    FormalContext.from_intents(["n"], MIXED, [set()]),
)
MIXED_OBJECTS = FormalContext.from_intents([1, "a"], MIXED, [set(), set()])
# Objects None and 1, which do not compare with each other.
UNORDERED_OBJECTS = FormalContext.from_intents([None, 1], MIXED, [set(), set()])
NOT_AN_INTENT = "[1, 'a'] is not an intent of the context"


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda: Poset.from_pairs(MIXED, []).restrict(["z", 1, 2]),
            "unknown element names: [2, 'z']",
        ),
        (
            lambda: FormalContext.from_intents(["g"], MIXED, [{"z", 1, 2}]),
            "unknown attributes in intent: [2, 'z']",
        ),
        (
            lambda: TrainingContext(MIXED_OBJECTS, MIXED_OBJECTS),
            "object names shared between sides: [1, 'a']",
        ),
        (lambda: decide_amh(SPLIT, [{"a", 1}]), "[1, 'a'] is not a minimal hypothesis"),
        (
            lambda: dci_to_mibr(LOCKED, [], [], [Implication(["z"], [2])]),
            "the base names attributes outside the context: [2, 'z']",
        ),
        (lambda: minvals_to_training(LOCKED, [{"a", 1}]), NOT_AN_INTENT),
        (lambda: dci_to_mibr(LOCKED, [{"a", 1}], [], []), NOT_AN_INTENT),
        (
            lambda: Poset.from_pairs(["a"], []).restrict([None, 1]),
            "unknown element names: [1, None]",
        ),
        (
            lambda: FormalContext.from_intents(["g"], ["a"], [{None, 1}]),
            "unknown attributes in intent: [1, None]",
        ),
        (
            lambda: TrainingContext(UNORDERED_OBJECTS, UNORDERED_OBJECTS),
            "object names shared between sides: [1, None]",
        ),
    ],
    ids=[
        "restrict",
        "from_intents",
        "training",
        "first_new",
        "dci_base",
        "minvals",
        "dci_intent",
        "restrict_unordered",
        "from_intents_unordered",
        "training_unordered",
    ],
)
def test_messages_list_mixed_names_in_the_name_order(call, message):
    with pytest.raises(ValueError) as raised:
        call()
    assert str(raised.value) == message
