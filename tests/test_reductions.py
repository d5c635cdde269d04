"""Constructive reductions: satisfiability to additional-hypothesis search,
monotone-function translations, explicit lattices and their products."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_dual import (
    Cnf,
    ExplicitLattice,
    FormalContext,
    TrainingContext,
    assignment_from_hypothesis,
    contranominal_scale,
    decide_amh,
    hypothesis_from_assignment,
    irreducibles,
    literal_attributes,
    maximal_members,
    minimal_hypotheses,
    minimal_members,
    minvals_to_training,
    parse_dimacs,
    product_context,
    sat_to_amh,
    training_to_monotone,
    write_cxt,
    write_dimacs,
)

from lattice_dual import reductions
from lattice_dual.hypotheses import is_hypothesis

from conftest import (
    brute_sat,
    genuine_minimal_hypotheses,
    random_cnf,
    random_context,
    random_poset,
)


# -- CNF / DIMACS -------------------------------------------------------------


def test_cnf_rejects_out_of_range_literal():
    with pytest.raises(ValueError):
        Cnf(2, [[3]])
    with pytest.raises(ValueError):
        Cnf(2, [[0]])


def test_dimacs_round_trip():
    rng = random.Random(157)
    for _ in range(20):
        cnf = random_cnf(rng, 5, 5)
        back = parse_dimacs(write_dimacs(cnf))
        assert back.num_vars == cnf.num_vars
        assert [sorted(c) for c in back.clauses] == [sorted(c) for c in cnf.clauses]


def test_dimacs_parses_comments_and_header():
    cnf = parse_dimacs("c a comment\np cnf 2 2\n1 -2 0\n-1 0\n")
    assert cnf.num_vars == 2
    assert cnf.clauses == ((1, -2), (-1,))


def test_dimacs_stops_at_the_satlib_trailer():
    # SATLIB's uf*/uuf* files end with a '%' line and then a '0' line
    plain = "c uf2\np cnf 2 2\n1 -2 0\n-1 0\n"
    assert parse_dimacs(plain + "%\n0\n\n") == parse_dimacs(plain)
    # without a '%' line, a lone 0 is still an empty clause
    assert parse_dimacs("p cnf 1 1\n0\n") == Cnf(1, [[]])


def test_dimacs_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_dimacs("p sat 2 1\n1 0\n")


def test_dimacs_rejects_missing_terminator():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 1 1\n1\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("1 0\np cnf 1 1\n", "DIMACS clause before 'p cnf' header"),
        ("c a comment and nothing else\n", "missing 'p cnf' header"),
    ],
)
def test_dimacs_rejects_a_missing_header(text, message):
    with pytest.raises(ValueError, match=message):
        parse_dimacs(text)


# -- SAT -> AMH ----------------------------------------------------------------


def test_sat_to_amh_single_clause_shape():
    t, known = sat_to_amh(Cnf(1, [[1]]))
    assert t.attributes == ("C1", "x1", "!x1")
    assert set(t.positive.objects) == {"g_x1", "g_!x1", "g_C1"}
    assert set(t.negative.objects) == {"g_l1"}
    # x1 appears in C1, so g_x1 gets no C1 mark; the literal block omits x1
    assert t.positive.row("g_x1") == frozenset({"!x1"})
    assert t.positive.row("g_!x1") == frozenset({"C1", "x1"})
    assert t.positive.row("g_C1") == frozenset({"C1"})
    assert t.negative.row("g_l1") == frozenset()
    assert known == [frozenset({"C1"})]


def test_sat_to_amh_sizes():
    rng = random.Random(163)
    for _ in range(20):
        cnf = random_cnf(rng, 4, 4)
        t, known = sat_to_amh(cnf)
        k, n = len(cnf.clauses), cnf.num_vars
        assert len(t.attributes) == k + 2 * n
        assert len(t.positive.objects) == 2 * n + k
        assert len(t.negative.objects) == n
        assert len(known) == k


def test_sat_to_amh_clause_singletons_are_minimal():
    rng = random.Random(167)
    for _ in range(10):
        cnf = random_cnf(rng, 3, 3)
        t, known = sat_to_amh(cnf)
        assert set(known) <= set(minimal_hypotheses(t))


def test_sat_to_amh_checks_the_empty_set_once(monkeypatch):
    tested = []

    def recording(t, h, k=0):
        tested.append(frozenset(h))
        return is_hypothesis(t, h, k)

    monkeypatch.setattr(reductions, "is_hypothesis", recording)
    _, known = sat_to_amh(Cnf(2, [[1, 2], [-1], [2, -2]]))
    assert tested == [frozenset()] + known


def test_sat_to_amh_rejects_degenerate():
    with pytest.raises(ValueError):
        sat_to_amh(Cnf(0, []))
    with pytest.raises(ValueError):
        sat_to_amh(Cnf(1, []))


def test_unsat_pair_yields_no_additional_hypothesis():
    t, known = sat_to_amh(Cnf(1, [[1], [-1]]))
    assert decide_amh(t, known) is False


def test_satisfiable_formula_yields_additional_hypothesis():
    t, known = sat_to_amh(Cnf(1, [[1]]))
    assert decide_amh(t, known) is True


def test_additional_minimal_hypotheses_use_only_literals():
    # every minimal hypothesis beyond the clause singletons lives in the literal block
    rng = random.Random(173)
    for _ in range(20):
        cnf = random_cnf(rng, 3, 3)
        t, known = sat_to_amh(cnf)
        literals = set(literal_attributes(cnf.num_vars))
        for h in minimal_hypotheses(t):
            if h not in set(known) and h != frozenset(t.attributes):
                assert set(h) <= literals


# -- assignment translations ------------------------------------------------------


def test_assignment_from_hypothesis_examples():
    assert assignment_from_hypothesis({"!x1", "!x2"}, 2) == {1: True, 2: True}
    assert assignment_from_hypothesis(set(), 1) == {1: True}  # both literals free, tie is true


def test_assignment_undefined_when_pair_missing():
    with pytest.raises(ValueError):
        assignment_from_hypothesis({"x1", "!x1"}, 1)


def test_assignment_from_hypothesis_rejects_non_literals():
    for h, n in (({"x2"}, 1), ({"m1"}, 2)):
        with pytest.raises(ValueError, match="non-literal attributes"):
            assignment_from_hypothesis(h, n)


def test_hypothesis_from_assignment_rejects_a_partial_assignment():
    for assignment in ({2: True}, {1: True, 3: False}, {0: True}):
        with pytest.raises(ValueError, match="must be total on variables 1..n"):
            hypothesis_from_assignment(assignment)


def test_hypothesis_from_assignment_examples():
    assert hypothesis_from_assignment({1: True}) == frozenset({"!x1"})
    assert hypothesis_from_assignment({1: True, 2: False}) == frozenset({"!x1", "x2"})


def test_assignment_round_trip():
    for n in range(1, 5):
        for bits in itertools.product([False, True], repeat=n):
            phi = {i + 1: bits[i] for i in range(n)}
            assert assignment_from_hypothesis(hypothesis_from_assignment(phi), n) == phi


def test_assignment_translations_respect_negative_intents():
    # literal sets without a full complementary pair always define an
    # assignment; every additional minimal hypothesis defines one; and the
    # image of any assignment avoids every negative intent
    for n in range(1, 4):
        cnf = Cnf(n, [[1]])
        t, known = sat_to_amh(cnf)
        literals = literal_attributes(n)
        for r in range(2 * n + 1):
            for sub in itertools.combinations(literals, r):
                h = set(sub)
                if any({f"x{i}", f"!x{i}"} <= h for i in range(1, n + 1)):
                    continue
                assignment_from_hypothesis(h, n)  # must not raise
        for h in minimal_hypotheses(t):
            if h not in set(known) and h != frozenset(t.attributes):
                assert not any(h <= t.negative.row(g) for g in t.negative.objects)
                assignment_from_hypothesis(h, n)  # must not raise
        for bits in itertools.product([False, True], repeat=n):
            phi = {i + 1: bits[i] for i in range(n)}
            h = hypothesis_from_assignment(phi)
            assert not any(h <= t.negative.row(g) for g in t.negative.objects)


# -- monotone-function translations -------------------------------------------------


def monotone_expected(stacked, minvals):
    """Subset-minimal 0-value intents of the induced monotone function."""
    zeros = [x for x in stacked.intents() if not any(x <= v for v in minvals)]
    return set(minimal_members(zeros))


def test_minvals_empty_intent_marks_only_the_top():
    # the empty intent is the top concept, so the 0-region is everything
    # below it and its maximal members are the co-atoms
    ctx = contranominal_scale(2)
    t = minvals_to_training(ctx, [set()])
    assert set(minimal_hypotheses(t)) == {frozenset({"m1"}), frozenset({"m2"})}


def test_no_minvals_means_constant_zero():
    ctx = contranominal_scale(2)
    t = minvals_to_training(ctx, [])
    assert minimal_hypotheses(t) == [ctx.close_attributes(set())]


def test_minvals_full_intent_blocks_everything():
    # a single minimal 1-value at the bottom concept forces the convention set
    ctx = contranominal_scale(2)
    t = minvals_to_training(ctx, [{"m1", "m2"}])
    assert minimal_hypotheses(t) == [frozenset({"m1", "m2"})]


def test_minvals_rejects_non_intent():
    ctx = FormalContext.from_intents(["g1"], ["m1", "m2"], [{"m1", "m2"}])
    with pytest.raises(ValueError):
        minvals_to_training(ctx, [{"m1"}])


def test_minvals_rejects_comparable_members():
    ctx = contranominal_scale(2)
    with pytest.raises(ValueError):
        minvals_to_training(ctx, [{"m1"}, {"m1", "m2"}])


def test_training_to_monotone_worked(worked_training):
    stacked, minvals = training_to_monotone(worked_training)
    assert set(minvals) == {
        worked_training.negative.row(g) for g in worked_training.negative.objects
    }
    assert monotone_expected(stacked, minvals) == set(minimal_hypotheses(worked_training))


def test_training_to_monotone_no_negatives():
    pos = contranominal_scale(2)
    neg = FormalContext.from_intents([], ["m1", "m2"], [])
    _, minvals = training_to_monotone(TrainingContext(pos, neg))
    assert minvals == []


def test_translation_round_trip_randomized():
    rng = random.Random(179)
    for _ in range(40):
        ctx = random_context(rng, 5, 6)
        minvals = maximal_members(
            rng.sample(ctx.intents(), k=rng.randint(0, min(4, len(ctx.intents()))))
        )
        t = minvals_to_training(ctx, minvals)
        stacked, back = training_to_monotone(t)
        assert set(back) == set(minvals)
        genuine = set(genuine_minimal_hypotheses(t))
        assert monotone_expected(stacked, minvals) == genuine


# -- explicit lattices ----------------------------------------------------------------


def chain_lattice(n):
    names = [f"a{i}" for i in range(1, n + 1)]
    return ExplicitLattice.from_pairs(names, list(zip(names, names[1:])))


def boolean_square():
    return ExplicitLattice.from_pairs(
        ["bot", "x", "y", "top"],
        [("bot", "x"), ("bot", "y"), ("x", "top"), ("y", "top")],
    )


def test_lattice_meet_join_tables():
    lat = boolean_square()
    assert lat.meet("x", "y") == "bot"
    assert lat.join("x", "y") == "top"
    assert lat.meet("x", "top") == "x"


def random_order(rng, n):
    """(names, pairs, leq): a random order on n elements declared in a random
    order, sometimes with a bottom and a top added at random places, and its
    reflexive-transitive closure as a set of pairs."""
    names = [f"e{i}" for i in range(n)]
    linear = rng.sample(names, n)
    density = rng.random()
    pairs = [(x, y) for i, x in enumerate(linear) for y in linear[i + 1 :] if rng.random() < density]
    if rng.random() < 0.5:
        pairs += [("bot", x) for x in names] + [(x, "top") for x in names] + [("bot", "top")]
        for extreme in ("bot", "top"):
            names.insert(rng.randint(0, len(names)), extreme)
    leq = {(x, x) for x in names} | set(pairs)
    for k in names:
        leq |= {(i, j) for i in names if (i, k) in leq for j in names if (k, j) in leq}
    return names, pairs, leq


def brute_bound(names, leq, a, b, kind):
    """The greatest common lower bound ("meet") or least common upper bound
    ("join") of a and b, found by scanning leq; None when there is none."""
    below = (lambda x, y: (x, y) in leq) if kind == "meet" else (lambda x, y: (y, x) in leq)
    common = [c for c in names if below(c, a) and below(c, b)]
    best = [c for c in common if all(below(d, c) for d in common)]
    return best[0] if best else None


def test_lattice_agrees_with_brute_bounds():
    rng = random.Random(193)
    lattices = 0
    for _ in range(250):
        names, pairs, leq = random_order(rng, rng.randint(1, 9))
        bounds = {
            (a, b, kind): brute_bound(names, leq, a, b, kind)
            for a, b in itertools.product(names, repeat=2)
            for kind in ("meet", "join")
        }
        missing = [key for key, bound in bounds.items() if bound is None]
        matrix = [[(a, b) in leq for b in names] for a in names]
        for build in (
            lambda: ExplicitLattice.from_pairs(names, pairs),
            lambda: ExplicitLattice(names, matrix),
        ):
            if missing:
                a, b, kind = missing[0]  # row-major, the meet before the join
                with pytest.raises(ValueError) as raised:
                    build()
                assert str(raised.value) == f"not a lattice: no unique {kind} of {a!r} and {b!r}"
                continue
            lat = build()
            for (a, b, kind), bound in bounds.items():
                assert getattr(lat, kind)(a, b) == bound
        lattices += not missing
    assert 40 < lattices < 210


def test_downset_lattice_meets_and_joins_are_intersections_and_unions():
    rng = random.Random(197)
    for _ in range(20):
        downsets = random_poset(rng, 5).all_downsets()
        index = {d: i for i, d in enumerate(downsets)}
        names = list(range(len(downsets)))
        lat = ExplicitLattice(names, [[x <= y for y in downsets] for x in downsets])
        for (i, x), (j, y) in itertools.product(enumerate(downsets), repeat=2):
            assert lat.meet(i, j) == index[x & y]
            assert lat.join(i, j) == index[x | y]


def test_non_lattice_rejected_with_pair():
    with pytest.raises(ValueError, match="p1.*p2|p2.*p1"):
        ExplicitLattice.from_pairs(["p1", "p2"], [])


def test_irreducibles_chain():
    ji, mi = irreducibles(chain_lattice(3))
    assert ji == frozenset({"a2", "a3"})
    assert mi == frozenset({"a1", "a2"})


def test_irreducibles_boolean_square():
    ji, mi = irreducibles(boolean_square())
    assert ji == frozenset({"x", "y"})
    assert mi == frozenset({"x", "y"})


def test_irreducibles_singleton_lattice():
    lat = ExplicitLattice.from_pairs(["only"], [])
    assert irreducibles(lat) == (frozenset(), frozenset())


def reference_irreducibles(lat):
    """The cover-count definition: the elements with exactly one lower
    (resp. upper) cover."""
    def one(covers):
        return frozenset(e for e in lat.elements if len(covers(e)) == 1)

    return one(lat.poset.lower_covers), one(lat.poset.upper_covers)


@st.composite
def concept_lattices(draw):
    """The intents of a random context of up to 6 x 6, ordered by inclusion
    and declared in a drawn order, as a lattice given by its strict pairs."""
    n_obj, n_att = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n_att, max_size=n_att),
                         min_size=n_obj, max_size=n_obj))
    ctx = FormalContext([f"g{i}" for i in range(n_obj)], [f"m{j}" for j in range(n_att)], rows)
    intents = draw(st.permutations(ctx.intents()))
    names = [f"c{i}" for i in range(len(intents))]
    pairs = [(x, y) for x, s in zip(names, intents) for y, t in zip(names, intents) if s < t]
    return ExplicitLattice.from_pairs(names, pairs)


@settings(max_examples=150, deadline=None)
@given(concept_lattices())
def test_irreducibles_match_the_cover_count(lat):
    assert irreducibles(lat) == reference_irreducibles(lat)


# -- lattice products ------------------------------------------------------------------


def test_product_two_two_chains():
    ctx = product_context([chain_lattice(2), chain_lattice(2)])
    assert len(ctx.concepts()) == 4


def test_product_two_by_three():
    ctx = product_context([chain_lattice(2), chain_lattice(3)])
    assert len(ctx.concepts()) == 6


def test_product_single_factor_matches_lattice():
    for lat in (chain_lattice(4), boolean_square()):
        ctx = product_context([lat])
        assert len(ctx.concepts()) == len(lat.poset.elements)


def test_product_concept_count_is_product_of_sizes():
    rng = random.Random(181)
    factories = [lambda: chain_lattice(2), lambda: chain_lattice(3),
                 lambda: chain_lattice(4), boolean_square]
    for _ in range(10):
        lats = [rng.choice(factories)() for _ in range(rng.randint(1, 3))]
        expected = 1
        for lat in lats:
            expected *= len(lat.poset.elements)
        assert len(product_context(lats).concepts()) == expected


def reference_product_context(lattices):
    """The product context built name by name into a boolean matrix, the
    reference for product_context, which packs each object's row."""
    blocks = []
    for idx, lat in enumerate(lattices):
        joins, meets = irreducibles(lat)
        gs = [e for e in lat.elements if e in joins]
        ms = [e for e in lat.elements if e in meets]
        blocks.append((idx, lat, gs, ms))
    objects = [f"L{idx}:{g}" for idx, _, gs, _ in blocks for g in gs]
    attributes = [f"L{idx}:{m}" for idx, _, _, ms in blocks for m in ms]
    matrix = [
        [gi != mi or lat_g.poset.leq(g, m) for mi, _, _, ms in blocks for m in ms]
        for gi, lat_g, gs, _ in blocks
        for g in gs
    ]
    return FormalContext(objects, attributes, matrix)


def test_product_context_matches_name_level_reference():
    rng = random.Random(199)
    for _ in range(300):
        lats = []
        for _ in range(rng.randint(0, 3)):
            if rng.random() < 0.5:
                lats.append(chain_lattice(rng.randint(1, 4)))
                continue
            downsets = random_poset(rng, 4).all_downsets()
            names = rng.sample(range(len(downsets)), len(downsets))  # any declaration order
            lats.append(ExplicitLattice(names, [[x <= y for y in downsets] for x in downsets]))
        assert write_cxt(product_context(lats)) == write_cxt(reference_product_context(lats))
