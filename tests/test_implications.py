"""Attribute implications: closure, validity, base recognition, the
distributive minimum base, the contraordinal bridge, and the base-recognition
reduction for duality questions over intent lattices."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_dual import (
    FormalContext,
    GuardExceeded,
    Implication,
    contranominal_scale,
    contraordinal_context,
    dci_to_mibr,
    distributive_min_base,
    imp_closure,
    is_base,
    is_valid,
    poset_from_pairs,
    write_cxt,
)
from lattice_dual.cli import main
from lattice_dual.context import _lacking, _lectic
from lattice_dual.implications import (
    _chain, _closed_sets_are_intents, _models_are_intents, implications_from_json,
    implications_to_json,
)
from lattice_dual.util import flag_mask

from conftest import random_context, random_poset


def imp(premise, conclusion):
    return Implication(premise, conclusion)


def all_valid_implications(ctx):
    attrs = list(ctx.attributes)
    out = []
    for r in range(len(attrs) + 1):
        for prem in itertools.combinations(attrs, r):
            out.append(imp(prem, ctx.close_attributes(prem)))
    return out


# -- imp_closure ---------------------------------------------------------


def test_imp_closure_single_step():
    assert imp_closure([imp({"a"}, {"b"})], {"a"}) == frozenset({"a", "b"})


def test_imp_closure_no_implications():
    assert imp_closure([], {"a", "c"}) == frozenset({"a", "c"})


def test_imp_closure_chains_forward():
    j = [imp({"a"}, {"b"}), imp({"b"}, {"c"})]
    assert imp_closure(j, {"a"}) == frozenset({"a", "b", "c"})


def test_imp_closure_ignores_unfired_premises():
    j = [imp({"a", "b"}, {"c"})]
    assert imp_closure(j, {"a"}) == frozenset({"a"})


def test_imp_closure_is_closure_operator():
    rng = random.Random(109)
    universe = ["a", "b", "c", "d", "e"]
    for _ in range(30):
        j = [
            imp(
                {m for m in universe if rng.random() < 0.4},
                {m for m in universe if rng.random() < 0.4},
            )
            for _ in range(rng.randint(0, 5))
        ]
        x = frozenset(m for m in universe if rng.random() < 0.4)
        y = x | frozenset(m for m in universe if rng.random() < 0.3)
        cx, cy = imp_closure(j, x), imp_closure(j, y)
        assert x <= cx
        assert cx <= cy
        assert imp_closure(j, cx) == cx


def test_imp_closure_of_all_valid_implications_is_double_prime():
    rng = random.Random(113)
    for _ in range(15):
        ctx = random_context(rng, 4, 4)
        j = all_valid_implications(ctx)
        attrs = list(ctx.attributes)
        for r in range(len(attrs) + 1):
            for sub in itertools.combinations(attrs, r):
                assert imp_closure(j, sub) == ctx.close_attributes(sub)


def reference_closure(imps, xs):
    """Forward chaining over name sets: fire each implication whose premise
    holds, until a pass adds no name."""
    closed = set(xs)
    pending = list(imps)
    changed = True
    while changed:
        changed = False
        rest = []
        for i in pending:
            if i.premise <= closed:
                if not i.conclusion <= closed:
                    closed |= i.conclusion
                    changed = True
            else:
                rest.append(i)
        pending = rest
    return frozenset(closed)


# The implications name a-f; the start set may also hold g and h, which
# appear in no premise and no conclusion.
IMP_NAMES = st.sampled_from("abcdef")


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.builds(imp, st.sets(IMP_NAMES, max_size=3), st.sets(IMP_NAMES, max_size=3)),
             max_size=8),
    st.sets(st.sampled_from("abcdefgh"), max_size=4),
)
def test_imp_closure_matches_the_name_set_reference(imps, xs):
    assert imp_closure(imps, xs) == reference_closure(imps, xs)


# -- validity and Armstrong soundness -------------------------------------


def test_is_valid_worked_counterexample(worked_negative):
    assert not is_valid(worked_negative, imp({"m2", "m5"}, {"m3"}))


def test_reflexive_implication_always_valid():
    rng = random.Random(127)
    for _ in range(20):
        ctx = random_context(rng, 4, 4)
        x = {m for m in ctx.attributes if rng.random() < 0.5}
        assert is_valid(ctx, imp(x, x))


def test_full_incidence_everything_implies_m():
    ctx = FormalContext.from_intents(["g1"], ["m1", "m2"], [{"m1", "m2"}])
    assert is_valid(ctx, imp(set(), {"m1", "m2"}))


def test_armstrong_soundness_randomized():
    rng = random.Random(131)
    for _ in range(30):
        ctx = random_context(rng, 5, 5)
        attrs = list(ctx.attributes)
        rand_set = lambda: {m for m in attrs if rng.random() < 0.4}
        x, y, z = rand_set(), rand_set(), rand_set()
        # reflexivity: X -> X
        assert is_valid(ctx, imp(x, x))
        # augmentation: X -> Y gives X∪Z -> Y∪Z
        cand = imp(x, ctx.close_attributes(x) & (x | y))
        assert is_valid(ctx, cand)
        assert is_valid(ctx, imp(set(cand.premise) | z, set(cand.conclusion) | z))
        # transitivity on valid implications
        a = imp(x, ctx.close_attributes(x))
        b = imp(set(a.conclusion), ctx.close_attributes(a.conclusion))
        assert is_valid(ctx, imp(set(a.premise), set(b.conclusion)))


# -- base recognition -------------------------------------------------------


def test_contranominal_has_empty_base():
    for n in range(1, 5):
        assert is_base(contranominal_scale(n), [])


def test_missing_implication_detected():
    ctx = FormalContext.from_intents(["g1", "g2"], ["m1", "m2"], [{"m1", "m2"}, set()])
    # {m1} closes to {m1, m2} in the context, the empty set does not derive it
    assert not is_base(ctx, [])
    assert is_base(ctx, [imp({"m1"}, {"m2"}), imp({"m2"}, {"m1"})])


def test_complete_implication_set_is_base():
    rng = random.Random(137)
    for _ in range(10):
        ctx = random_context(rng, 4, 4)
        assert is_base(ctx, all_valid_implications(ctx))


def is_base_by_sweep(ctx, imps):
    attrs = ctx.attributes
    return all(
        imp_closure(imps, sub) == ctx.close_attributes(sub)
        for r in range(len(attrs) + 1)
        for sub in itertools.combinations(attrs, r)
    )


@st.composite
def contexts_with_implications(draw):
    # attribute "zz" is not in the context; "valid" implications conclude
    # the context closure of their premise
    n = draw(st.integers(0, 6))
    attrs = [f"m{j}" for j in range(n)]
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    ctx = FormalContext([f"g{i}" for i in range(len(rows))], attrs,
                        [[r >> j & 1 for j in range(n)] for r in rows])
    names = attrs + ["zz"]

    def subset(mask):
        return {m for j, m in enumerate(names) if mask >> j & 1}

    imps = []
    if draw(st.booleans()):
        imps = [imp(b, b) for b in ctx.intents()] + all_valid_implications(ctx)
    for _ in range(draw(st.integers(0, 5))):
        premise = subset(draw(st.integers(0, (1 << (n + 1)) - 1)))
        conclusion = subset(draw(st.integers(0, (1 << (n + 1)) - 1)))
        if draw(st.booleans()) and "zz" not in premise:
            conclusion = ctx.close_attributes(premise) - {m for m in conclusion if m != "zz"}
        imps.append(imp(premise, conclusion))
    return ctx, draw(st.permutations(imps))


@settings(max_examples=300, deadline=None)
@given(contexts_with_implications())
def test_is_base_agrees_with_sweep(case):
    ctx, imps = case
    assert is_base(ctx, imps) == is_base_by_sweep(ctx, imps)


def test_is_base_guard():
    with pytest.raises(GuardExceeded):
        is_base(contranominal_scale(19), [])


# -- the subset bitmap against Close-by-One ------------------------------------


def a_base(ctx) -> list:
    """Rule masks (P, P'') forming a base: of the candidates, the empty set
    and B | {m} for each intent B and attribute m outside it, in ascending
    order, each one the rules kept so far fail to close to its closure.
    The candidates' rules form a base: a set closed under them holds the
    closure of the empty set, and no intent it holds is maximal unless it
    is the set itself.  The kept rules imply every candidate's rule."""
    n = len(ctx.attributes)
    candidates = {0} | {b | 1 << m for b in ctx.intent_masks() for m in range(n) if not b >> m & 1}
    rules = []
    for x in sorted(candidates):
        closure = ctx._close_amask(x)
        if _chain(rules, x) != closure:
            rules.append((x, closure))
    return rules


def base_cases():
    """(context, rule masks): random contexts of 0-14 attributes and the
    contraordinal contexts of random posets of 15-18 elements, each with its
    base whole, without its first rule and without its last."""
    rng = random.Random(271)
    contexts = []
    for _ in range(40):
        n, density = rng.randint(0, 14), rng.choice([0.2, 0.5, 0.8])
        rows = [flag_mask(rng.random() < density for _ in range(n)) for _ in range(rng.randint(0, 15))]
        ctx = FormalContext._from_rows([f"g{i}" for i in range(len(rows))],
                                       [f"m{j}" for j in range(n)], rows)
        contexts.append((ctx, a_base(ctx)))
    for density in (0.1, 0.2, 0.3) * 3:
        p = random_poset(rng, 18, 15, density)
        ctx = contraordinal_context(p)
        codec = ctx._acodec
        contexts.append((ctx, [(codec.encode(i.premise), codec.encode(i.conclusion))
                               for i in distributive_min_base(p)]))
    for ctx, rules in contexts:
        yield ctx, rules
        yield ctx, rules[1:]
        yield ctx, rules[:-1]


def test_the_two_routes_of_is_base_agree():
    answers = set()
    for ctx, rules in base_cases():
        expected = _closed_sets_are_intents(ctx, rules)
        assert _models_are_intents(ctx, rules) is expected
        imps = [imp(ctx._acodec.members(p), ctx._acodec.members(c)) for p, c in rules]
        assert is_base(ctx, imps) is expected
        answers.add(expected)
    assert answers == {True, False}


def test_is_base_short_cuts_match_close_by_one():
    # an unknown premise never fires; a known premise with an unknown
    # conclusion, or an invalid rule, answers no; an empty list is checked
    rng = random.Random(277)
    for ctx, rules in itertools.islice(base_cases(), 0, None, 3):
        members = ctx._acodec.members
        imps = [imp(members(p), members(c)) for p, c in rules]
        whole = _closed_sets_are_intents(ctx, rules)
        known = members(rng.getrandbits(len(ctx.attributes)))
        assert is_base(ctx, imps + [imp(known | {"zz"}, [])]) is whole
        assert is_base(ctx, [imp(known, {"zz"})] + imps) is False
        outside = frozenset(ctx.attributes) - ctx.close_attributes(known)
        if outside:
            assert is_base(ctx, imps + [imp(known, outside)]) is False
        assert is_base(ctx, []) is _closed_sets_are_intents(ctx, [])
        assert _models_are_intents(ctx, []) is _closed_sets_are_intents(ctx, [])


def test_the_bitmap_route_of_is_base_is_guarded_before_any_map(capsys, tmp_path, monkeypatch):
    ctx = contranominal_scale(12)
    path = tmp_path / "ctx.cxt"
    path.write_text(write_cxt(ctx))
    none = tmp_path / "none.json"
    none.write_text("[]")
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "11")
    tables = _lacking.cache_info(), _lectic.cache_info()
    with pytest.raises(GuardExceeded, match="size 12 exceeds guard 11"):
        is_base(ctx, [])
    assert (_lacking.cache_info(), _lectic.cache_info()) == tables
    argv = ["reduce", "dci2mibr", "--context", str(path), "--a", str(none), "--b", str(none),
            "--base", str(none)]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and "size 12 exceeds guard 11" in err


def test_a_raised_guard_lets_is_base_run_close_by_one(monkeypatch):
    # no bitmap of 2^19 masks is built for a 19-element chain's 20 downsets
    chain = poset_from_pairs([f"p{i}" for i in range(19)],
                             [(f"p{i}", f"p{i + 1}") for i in range(18)])
    ctx, base = contraordinal_context(chain), distributive_min_base(chain)
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "19")
    tables = _lacking.cache_info()
    assert is_base(ctx, base) is True
    assert is_base(ctx, base[:-1]) is False
    assert _lacking.cache_info() == tables


def test_every_subset_of_eighteen_attributes_is_an_intent():
    # 18 co-atoms and 982 rows at density 0.8: the empty base is a base.
    # The random rows repeat every co-atom, so one co-atom is gone only
    # with all its copies; then the empty base is no base.
    rng = random.Random(1)
    full = (1 << 18) - 1
    rows = [full & ~(1 << j) for j in range(18)]
    rows += [flag_mask(rng.random() < 0.8 for _ in range(18)) for _ in range(982)]
    attrs = [f"m{j}" for j in range(18)]

    def context(rows):
        return FormalContext._from_rows([f"g{i}" for i in range(len(rows))], attrs, rows)

    assert is_base(context(rows), []) is True
    assert is_base(context(rows[1:]), []) is True
    assert is_base(context([r for r in rows if r != rows[0]]), []) is False


# -- contraordinal context ----------------------------------------------------


def test_contraordinal_chain_intents_are_downsets():
    p = poset_from_pairs(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
    ctx = contraordinal_context(p)
    assert set(ctx.intents()) == set(p.all_downsets())


def test_contraordinal_antichain_is_contranominal():
    p = poset_from_pairs(["p1", "p2", "p3"], [])
    ctx = contraordinal_context(p)
    for g in ctx.objects:
        assert ctx.row(g) == frozenset(set(ctx.attributes) - {g})


def test_contraordinal_empty_poset():
    ctx = contraordinal_context(poset_from_pairs([], []))
    assert ctx.intents() == [frozenset()]


def test_contraordinal_intents_equal_downsets_randomized():
    rng = random.Random(139)
    for _ in range(30):
        p = random_poset(rng, 8)
        assert set(contraordinal_context(p).intents()) == set(p.all_downsets())


# -- distributive minimum base --------------------------------------------------


def test_min_base_chain():
    p = poset_from_pairs(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
    got = {(b.premise, b.conclusion) for b in distributive_min_base(p)}
    assert got == {
        (frozenset({"p2"}), frozenset({"p1"})),
        (frozenset({"p3"}), frozenset({"p2"})),
    }


def test_min_base_antichain_is_empty():
    assert distributive_min_base(poset_from_pairs(["p1", "p2"], [])) == []


def test_min_base_diamond():
    p = poset_from_pairs(
        ["p0", "p1", "p2", "p3"],
        [("p0", "p1"), ("p0", "p2"), ("p1", "p3"), ("p2", "p3")],
    )
    got = {(b.premise, b.conclusion) for b in distributive_min_base(p)}
    assert got == {
        (frozenset({"p1"}), frozenset({"p0"})),
        (frozenset({"p2"}), frozenset({"p0"})),
        (frozenset({"p3"}), frozenset({"p1", "p2"})),
    }


def test_min_base_closed_sets_are_downsets():
    rng = random.Random(149)
    for _ in range(30):
        p = random_poset(rng, 8)
        base = distributive_min_base(p)
        assert all(len(b.premise) == 1 for b in base)
        names = list(p.elements)
        closed = {
            frozenset(sub)
            for r in range(len(names) + 1)
            for sub in itertools.combinations(names, r)
            if imp_closure(base, sub) == frozenset(sub)
        }
        assert closed == set(p.all_downsets())


def test_min_base_is_base_of_contraordinal():
    rng = random.Random(151)
    for _ in range(15):
        p = random_poset(rng, 6)
        assert is_base(contraordinal_context(p), distributive_min_base(p))


# -- reduction of duality to base recognition -------------------------------------


def test_dci_object_count():
    p = poset_from_pairs(["p1", "p2"], [])
    ctx = contraordinal_context(p)
    built, _ = dci_to_mibr(
        ctx, [{"p1", "p2"}], [{"p1"}, {"p2"}], distributive_min_base(p)
    )
    assert len(built.objects) == len(ctx.objects) * 2


def test_dci_empty_a_keeps_base():
    p = poset_from_pairs(["p1", "p2"], [])
    ctx = contraordinal_context(p)
    base = distributive_min_base(p)
    _, extended = dci_to_mibr(ctx, [], [{"p1"}], base)
    assert extended == base


def test_dci_dual_pair_yields_base():
    p = poset_from_pairs(["p1", "p2"], [])
    ctx = contraordinal_context(p)
    built, extended = dci_to_mibr(
        ctx, [{"p1", "p2"}], [{"p1"}, {"p2"}], distributive_min_base(p)
    )
    assert is_base(built, extended)


def test_dci_rejects_star_violation():
    p = poset_from_pairs(["p1", "p2"], [])
    ctx = contraordinal_context(p)
    with pytest.raises(ValueError):
        dci_to_mibr(ctx, [{"p1"}], [{"p1"}], distributive_min_base(p))


@pytest.mark.parametrize(
    "fam_a, fam_b",
    [([{"p1"}, {"p1", "p2"}], [{"p2"}]), ([{"p1", "p2"}], [{"p1"}, {"p1", "p2"}])],
)
def test_dci_rejects_non_antichains(fam_a, fam_b):
    p = poset_from_pairs(["p1", "p2"], [])
    ctx = contraordinal_context(p)
    with pytest.raises(ValueError, match="A and B must be antichains"):
        dci_to_mibr(ctx, fam_a, fam_b, distributive_min_base(p))


def test_dci_rejects_non_intent():
    p = poset_from_pairs(["p1", "p2"], [("p1", "p2")])
    ctx = contraordinal_context(p)
    with pytest.raises(ValueError):
        dci_to_mibr(ctx, [{"p2"}], [], distributive_min_base(p))


def test_dci_rejects_unknown_attributes_in_base():
    ctx = contraordinal_context(poset_from_pairs(["p1", "p2"], []))
    for base in ([imp({"zz"}, {"p1"})], [imp({"p1"}, {"p2", "yy"})]):
        with pytest.raises(ValueError, match="outside the context.*(zz|yy)"):
            dci_to_mibr(ctx, [], [], base)


def test_dci_rejects_non_base():
    p = poset_from_pairs(["p1", "p2", "p3"], [("p1", "p2"), ("p2", "p3")])
    ctx = contraordinal_context(p)
    with pytest.raises(ValueError):
        dci_to_mibr(ctx, [], [], [])


# -- JSON --------------------------------------------------------------------------


def test_implication_json_round_trip():
    j = [imp({"a"}, {"b", "c"}), imp(set(), {"a"})]
    doc = json.loads(json.dumps(implications_to_json(j, ["a", "b", "c"])))
    assert implications_from_json(doc) == j


def test_implication_json_rejects_non_list():
    with pytest.raises(ValueError):
        implications_from_json({"premise": ["a"], "conclusion": ["b"]})
