"""JSM hypotheses: enumeration, minimal sets, the additional-hypothesis
decision, the pruned minimal-hypothesis search, and example classification."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_dual import (
    FormalContext,
    TrainingContext,
    classify,
    decide_amh,
    dualize_brute,
    enumerate_hypotheses,
    find_new_min_h,
    is_hypothesis,
    minimal_hypotheses,
    minimal_members,
    training_from_json,
    training_to_json,
)

from lattice_dual.cli import main
from lattice_dual.context import BITMAP_ATTRIBUTES, _lacking, _lectic
from lattice_dual.hypotheses import (
    _bitmap_minimal_masks, _minimal_hypothesis_masks, _pruned_minimal_masks,
)
from lattice_dual.util import GuardExceeded, family_key, flag_mask

from conftest import (
    ATTRS6,
    EIGHT_MINIMAL,
    genuine_minimal_hypotheses,
    random_antichain,
    random_poset,
    random_training,
)


def small_training(pos_rows, neg_rows, attrs):
    pos = FormalContext.from_intents(
        [f"p{i}" for i in range(1, len(pos_rows) + 1)], attrs, pos_rows
    )
    neg = FormalContext.from_intents(
        [f"n{i}" for i in range(1, len(neg_rows) + 1)], attrs, neg_rows
    )
    return TrainingContext(pos, neg)


# -- construction -----------------------------------------------------------


def test_training_rejects_attribute_mismatch():
    pos = FormalContext.from_intents(["p1"], ["m1", "m2"], [{"m1"}])
    neg = FormalContext.from_intents(["n1"], ["m2", "m1"], [{"m1"}])
    with pytest.raises(ValueError):
        TrainingContext(pos, neg)


def test_training_rejects_shared_object_names():
    pos = FormalContext.from_intents(["g1"], ["m1"], [{"m1"}])
    neg = FormalContext.from_intents(["g1"], ["m1"], [set()])
    with pytest.raises(ValueError):
        TrainingContext(pos, neg)


def test_swapped_exchanges_sides(worked_training):
    sw = worked_training.swapped()
    assert sw.positive is worked_training.negative
    assert sw.negative is worked_training.positive


# -- is_hypothesis ------------------------------------------------------------


def test_is_hypothesis_worked_examples(worked_training):
    assert is_hypothesis(worked_training, {"m1", "m2", "m3"})
    assert not is_hypothesis(worked_training, {"m3"})  # contained in the g1 intent
    assert is_hypothesis(worked_training, set(), k=3)
    assert not is_hypothesis(worked_training, set(), k=2)


def test_is_hypothesis_requires_closed_set():
    t = small_training([{"m1", "m2", "m3"}], [], ["m1", "m2", "m3"])
    assert not t.positive.is_closed({"m1"})
    assert not is_hypothesis(t, {"m1"})
    assert is_hypothesis(t, {"m1", "m2", "m3"})


def test_negative_k_rejected(worked_training):
    for call in (
        lambda: is_hypothesis(worked_training, set(), k=-1),
        lambda: enumerate_hypotheses(worked_training, -1),
        lambda: minimal_hypotheses(worked_training, -1),
    ):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            call()


def test_is_hypothesis_unknown_attribute(worked_training):
    with pytest.raises(ValueError):
        is_hypothesis(worked_training, {"m99"})


# -- enumeration ---------------------------------------------------------------


def test_enumerate_contains_the_eight(worked_training):
    hyps = set(enumerate_hypotheses(worked_training, 0))
    assert set(EIGHT_MINIMAL) <= hyps


def test_enumerate_full_negative_row_kills_everything():
    t = small_training([{"m1"}, {"m2"}], [{"m1", "m2"}], ["m1", "m2"])
    assert enumerate_hypotheses(t, 0) == []


def test_enumerate_single_full_positive_object():
    t = small_training([{"m1", "m2"}], [], ["m1", "m2"])
    assert enumerate_hypotheses(t, 0) == [frozenset({"m1", "m2"})]


def test_enumerate_matches_powerset_filter():
    rng = random.Random(89)
    for _ in range(40):
        t = random_training(rng, max_side=4, max_attrs=5)
        k = rng.randint(0, 2)
        attrs = list(t.attributes)
        expected = {
            frozenset(sub)
            for r in range(len(attrs) + 1)
            for sub in itertools.combinations(attrs, r)
            if is_hypothesis(t, sub, k)
        }
        got = enumerate_hypotheses(t, k)
        assert set(got) == expected
        assert len(got) == len(set(got))


def test_k_monotonicity():
    rng = random.Random(97)
    for _ in range(30):
        t = random_training(rng, max_side=4, max_attrs=5)
        previous = set()
        for k in range(4):
            current = set(enumerate_hypotheses(t, k))
            assert previous <= current
            previous = current


# -- minimal hypotheses ----------------------------------------------------------


def test_worked_example_eight_minimal(worked_training):
    assert set(minimal_hypotheses(worked_training)) == set(EIGHT_MINIMAL)
    assert len(minimal_hypotheses(worked_training)) == 8


def test_convention_all_attributes_when_none_exist():
    t = small_training([{"m1"}, {"m2"}], [{"m1", "m2"}], ["m1", "m2"])
    assert minimal_hypotheses(t) == [frozenset({"m1", "m2"})]


def test_no_negatives_bottom_intent_is_sole_minimal():
    t = small_training([{"m1"}, {"m1", "m2"}], [], ["m1", "m2"])
    assert minimal_hypotheses(t) == [t.positive.close_attributes(set())]


def test_minimal_methods_agree():
    # Contexts this size often have several minimal hypotheses (11 of these
    # 40 draws have 2 to 4), so a search that drops a member shows here.
    rng = random.Random(101)
    several = 0
    for _ in range(40):
        t = random_training(rng, max_side=8, max_attrs=8)
        expected = set(genuine_minimal_hypotheses(t) or [frozenset(t.attributes)])
        several += len(expected) >= 2
        for method in ("oracle", "iterate"):
            assert set(minimal_hypotheses(t, method=method)) == expected
    assert several >= 8


def test_minimal_rejects_unknown_method(worked_training):
    with pytest.raises(ValueError):
        minimal_hypotheses(worked_training, method="magic")


# -- decide_amh -------------------------------------------------------------------


def test_decide_amh_worked(worked_training):
    assert decide_amh(worked_training, EIGHT_MINIMAL[:7]) is True
    assert decide_amh(worked_training, EIGHT_MINIMAL) is False


def test_decide_amh_convention_complete():
    t = small_training([{"m1"}, {"m2"}], [{"m1", "m2"}], ["m1", "m2"])
    assert decide_amh(t, [frozenset({"m1", "m2"})]) is False


def test_decide_amh_rejects_non_minimal_member(worked_training):
    with pytest.raises(ValueError):
        decide_amh(worked_training, [frozenset({"m3"})])


def test_decide_amh_rejects_unknown_names_after_a_new_one(worked_training):
    # the search may not stop at the first new hypothesis while a known
    # member is still unaccounted for
    with pytest.raises(ValueError, match="not a minimal hypothesis"):
        decide_amh(worked_training, EIGHT_MINIMAL[1:] + [frozenset({"zz"})])


# -- find_new_min_h -----------------------------------------------------------------


def test_find_new_from_empty_is_minimal(worked_training):
    h = find_new_min_h(worked_training, [])
    assert h in set(EIGHT_MINIMAL)


def test_find_new_returns_the_missing_one(worked_training):
    for i in range(8):
        known = EIGHT_MINIMAL[:i] + EIGHT_MINIMAL[i + 1:]
        assert find_new_min_h(worked_training, known) == EIGHT_MINIMAL[i]


def test_find_new_returns_full_set_in_convention_case():
    t = small_training([{"m1"}, {"m2"}], [{"m1", "m2"}], ["m1", "m2"])
    assert find_new_min_h(t, []) == frozenset({"m1", "m2"})


def test_find_new_precondition_violated(worked_training):
    with pytest.raises(ValueError):
        find_new_min_h(worked_training, EIGHT_MINIMAL)


def test_iteration_enumerates_each_exactly_once():
    rng = random.Random(103)
    for _ in range(30):
        t = random_training(rng, max_side=4, max_attrs=5)
        known = []
        while decide_amh(t, known):
            h = find_new_min_h(t, known)
            assert h not in known
            known.append(h)
        assert set(known) == set(minimal_hypotheses(t))


# -- pruned search against the enumeration oracle -----------------------------------


@st.composite
def trainings(draw):
    n = draw(st.integers(0, 6))
    row = st.integers(0, (1 << n) - 1)
    attrs = [f"m{j}" for j in range(n)]
    pos, neg = draw(st.lists(row, max_size=6)), draw(st.lists(row, max_size=6))
    return small_training(
        [{m for j, m in enumerate(attrs) if r >> j & 1} for r in pos],
        [{m for j, m in enumerate(attrs) if r >> j & 1} for r in neg],
        attrs,
    )


@settings(max_examples=150, deadline=None)
@given(trainings())
def test_iterate_agrees_with_oracle(t):
    expected = genuine_minimal_hypotheses(t) or [frozenset(t.attributes)]
    expected.sort(key=lambda h: family_key(t.positive._acodec.encode(h)))
    for method in ("iterate", "oracle"):
        assert minimal_hypotheses(t, method=method) == expected


@settings(max_examples=150, deadline=None)
@given(trainings(), st.integers(0, 2))
def test_pruned_search_agrees_with_oracle(t, k):
    # lectic order, no repeats, and the genuine minimal k-weak hypotheses,
    # or M alone when there is none
    found = [t.positive._acodec.members(b) for b in _minimal_hypothesis_masks(t, k)]
    assert found == [h for h in t.positive.intents() if h in set(found)]
    assert len(found) == len(set(found))
    assert set(found) == set(genuine_minimal_hypotheses(t, k) or [frozenset(t.attributes)])


@settings(max_examples=150, deadline=None)
@given(trainings(), st.integers(0, 2), st.sampled_from(["oracle", "iterate"]))
def test_minimal_hypotheses_match_reference(t, k, method):
    codec = t.positive._acodec
    expected = genuine_minimal_hypotheses(t, k) or [frozenset(t.attributes)]
    expected.sort(key=lambda h: family_key(codec.encode(h)))
    assert minimal_hypotheses(t, k, method=method) == expected


@settings(max_examples=150, deadline=None)
@given(trainings(), st.integers(0, 2**16 - 1))
def test_find_new_is_a_missing_minimal_hypothesis(t, pick):
    complete = minimal_hypotheses(t)
    known = [h for i, h in enumerate(complete) if pick >> i & 1]
    if len(known) == len(complete):
        known.pop()
    h = find_new_min_h(t, known)
    assert h in complete and h not in known


# -- the paper's equivalence: dualization is minimal-hypothesis enumeration ----------


def downset_training(poset, fam_a) -> TrainingContext:
    """Positive rows P minus down(p), whose intents are the upsets of P, and
    one negative row P minus a per A-member a."""
    elements = frozenset(poset.elements)
    pos = FormalContext.from_intents(
        [f"+{p}" for p in poset.elements], poset.elements,
        [elements - poset.down_set(p) for p in poset.elements],
    )
    neg = FormalContext.from_intents(
        [f"-{i}" for i in range(len(fam_a))], poset.elements, [elements - a for a in fam_a]
    )
    return TrainingContext(pos, neg)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_dual_is_complements_of_minimal_hypotheses(rng):
    poset = random_poset(rng, 10)
    fam_a = random_antichain(rng, poset, 5)
    elements = frozenset(poset.elements)
    dual = set(map(frozenset, dualize_brute(fam_a, poset)))
    minimal = minimal_hypotheses(downset_training(poset, fam_a), 0)
    if fam_a == [frozenset()]:
        # every downset holds the empty A-member, so the dual is empty, while
        # the search answers {M} by convention
        assert dual == set() and minimal == [elements]
    else:
        assert dual == {elements - h for h in minimal}


# -- the subset bitmap against the pruned search ------------------------------------


def mask_training(n: int, pos_rows, neg_rows) -> TrainingContext:
    attrs = [f"m{j}" for j in range(n)]
    pos = FormalContext._from_rows([f"p{i}" for i in range(len(pos_rows))], attrs, pos_rows)
    neg = FormalContext._from_rows([f"n{i}" for i in range(len(neg_rows))], attrs, neg_rows)
    return TrainingContext(pos, neg)


def narrow_trainings():
    """Random trainings of 0-14 attributes, up to 15 rows a side at density
    0.2, 0.5 or 0.8; then, at several widths, ones with no positive object,
    with no negative object and with a full negative row."""
    rng = random.Random(263)

    def rows(count, n, density):
        return [flag_mask(rng.random() < density for _ in range(n)) for _ in range(count)]

    for _ in range(300):
        n, density = rng.randint(0, BITMAP_ATTRIBUTES), rng.choice([0.2, 0.5, 0.8])
        yield mask_training(n, rows(rng.randint(0, 15), n, density),
                            rows(rng.randint(0, 15), n, density))
    for n in (0, 1, 7, BITMAP_ATTRIBUTES):
        yield mask_training(n, [], rows(5, n, 0.5))
        yield mask_training(n, rows(5, n, 0.5), [])
        yield mask_training(n, rows(5, n, 0.5), rows(4, n, 0.5) + [(1 << n) - 1])


def test_bitmap_minimal_hypotheses_match_the_pruned_search():
    for t in narrow_trainings():
        expected = list(_pruned_minimal_masks(t, 0))
        assert list(_bitmap_minimal_masks(t)) == expected
        assert list(_minimal_hypothesis_masks(t, 0)) == expected


def test_amh_answers_match_the_pruned_search():
    rng = random.Random(269)
    for t in narrow_trainings():
        codec = t.positive._acodec
        expected = list(_pruned_minimal_masks(t, 0))
        known = [b for b in expected if rng.random() < 0.5]
        if len(known) == len(expected) and rng.random() < 0.5:
            known.pop(rng.randrange(len(known)))
        missing = [b for b in expected if b not in known]
        names = [codec.members(b) for b in known]
        assert decide_amh(t, names) is bool(missing)
        if missing:
            assert find_new_min_h(t, names) == codec.members(missing[0])
        else:
            with pytest.raises(ValueError, match="precondition violated"):
                find_new_min_h(t, names)


def test_the_hypothesis_map_builds_no_lectic_table():
    # the positive intent map is in natural order: only intent_masks reads
    # the lectic table
    t = mask_training(BITMAP_ATTRIBUTES, [0b1011, 0b0110, 0b1100], [0b0010, 0b1000])
    tables = _lectic.cache_info()
    assert minimal_hypotheses(t) == [{"m2"}, {"m0", "m1", "m3"}]
    assert _lectic.cache_info() == tables


def test_the_bitmap_route_is_guarded_before_any_map(capsys, tmp_path, monkeypatch):
    t = mask_training(12, [(1 << 12) - 1], [0])
    train = tmp_path / "train.json"
    train.write_text(json.dumps(training_to_json(t)))
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "11")
    tables = _lacking.cache_info(), _lectic.cache_info()
    with pytest.raises(GuardExceeded, match="size 12 exceeds guard 11"):
        list(_bitmap_minimal_masks(t))
    assert (_lacking.cache_info(), _lectic.cache_info()) == tables
    assert main(["hypo", "minimal", "--train", str(train)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "size 12 exceeds guard 11" in err


# -- classification -----------------------------------------------------------------


def test_classify_positive():
    assert (
        classify({"m1", "m2", "m3", "m4"}, [frozenset({"m1", "m2", "m3"})], [])
        == "positive"
    )


def test_classify_negative():
    assert classify({"m1", "m2"}, [], [frozenset({"m1"})]) == "negative"


def test_classify_contradictory():
    assert (
        classify({"m1", "m2"}, [frozenset({"m1"})], [frozenset({"m2"})])
        == "contradictory"
    )


def test_classify_undetermined():
    assert classify(set(), [frozenset({"m1"})], [frozenset({"m2"})]) == "undetermined"


# -- JSON serialization --------------------------------------------------------------


def test_training_json_round_trip(worked_training):
    doc = json.loads(json.dumps(training_to_json(worked_training)))
    back = training_from_json(doc)
    assert back.attributes == worked_training.attributes
    assert back.positive.objects == worked_training.positive.objects
    for g in back.positive.objects:
        assert back.positive.row(g) == worked_training.positive.row(g)
    for g in back.negative.objects:
        assert back.negative.row(g) == worked_training.negative.row(g)


def test_training_json_rejects_garbage():
    with pytest.raises(ValueError):
        training_from_json({"attributes": ["m1"], "positive": {"g1": "XX"}})


# -- genuine/convention boundary -------------------------------------------------------


def test_genuine_empty_iff_negative_full_row():
    rng = random.Random(107)
    for _ in range(40):
        t = random_training(rng, max_side=4, max_attrs=4)
        all_attrs = frozenset(t.attributes)
        has_full_neg = any(t.negative.row(g) == all_attrs for g in t.negative.objects)
        genuine = genuine_minimal_hypotheses(t)
        assert (len(genuine) == 0) == has_full_neg
        if not genuine:
            assert minimal_hypotheses(t) == [all_attrs]
