"""Shared fixtures and random-instance generators for the test suite.

The worked training context used throughout (three negative examples over
six attributes, six positive examples each missing one attribute) has
exactly eight minimal hypotheses; several tests pin them down explicitly.
"""

import itertools
import os
import random
from pathlib import Path

import pytest

from lattice_dual import (
    Cnf,
    DualityInstance,
    FormalContext,
    Poset,
    TrainingContext,
)

# The package is imported from this checkout's src, by pytest itself (see
# pyproject.toml) and by the `python -m lattice_dual` subprocesses of the tests.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

ATTRS6 = ["m1", "m2", "m3", "m4", "m5", "m6"]

NEGATIVE_ROWS = {
    "g1": {"m2", "m3", "m5", "m6"},
    "g2": {"m1", "m3", "m4", "m6"},
    "g3": {"m1", "m2", "m4", "m5"},
}

POSITIVE_ROWS = {f"g{i + 3}": set(ATTRS6) - {f"m{i}"} for i in range(1, 7)}

EIGHT_MINIMAL = [
    frozenset(s)
    for s in (
        {"m1", "m2", "m3"},
        {"m1", "m2", "m6"},
        {"m1", "m5", "m3"},
        {"m1", "m5", "m6"},
        {"m4", "m2", "m3"},
        {"m4", "m2", "m6"},
        {"m4", "m5", "m3"},
        {"m4", "m5", "m6"},
    )
]


def make_worked_training() -> TrainingContext:
    pos = FormalContext.from_intents(list(POSITIVE_ROWS), ATTRS6, POSITIVE_ROWS.values())
    neg = FormalContext.from_intents(list(NEGATIVE_ROWS), ATTRS6, NEGATIVE_ROWS.values())
    return TrainingContext(pos, neg)


@pytest.fixture(scope="session")
def worked_training() -> TrainingContext:
    return make_worked_training()


@pytest.fixture(scope="session")
def worked_positive(worked_training) -> FormalContext:
    return worked_training.positive


@pytest.fixture(scope="session")
def worked_negative(worked_training) -> FormalContext:
    return worked_training.negative


# -- random generators ---------------------------------------------------


def random_poset(rng: random.Random, max_n: int, min_n: int = 1,
                 density: float = 0.3) -> Poset:
    n = rng.randint(min_n, max_n)
    names = [f"p{i}" for i in range(1, n + 1)]
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                pairs.append((names[i], names[j]))
    return Poset.from_pairs(names, pairs)


def random_downset(rng: random.Random, poset: Poset) -> frozenset:
    seed = [p for p in poset.elements if rng.random() < 0.4]
    return poset.down_closure(seed)


def random_antichain(rng: random.Random, poset: Poset, max_size: int, side: str = "min"):
    from lattice_dual import maximal_members, minimal_members

    members = [random_downset(rng, poset) for _ in range(rng.randint(0, max_size))]
    picked = minimal_members(members) if side == "min" else maximal_members(members)
    return picked[:max_size]


def random_instance(rng: random.Random, max_n: int, max_family: int,
                    min_n: int = 1) -> DualityInstance:
    """A random instance satisfying property (*), not necessarily dual."""
    poset = random_poset(rng, max_n, min_n)
    fam_a = random_antichain(rng, poset, max_family, side="min")
    fam_b = [b for b in random_antichain(rng, poset, max_family, side="max")
             if not any(a <= b for a in fam_a)]
    return DualityInstance(poset, fam_a, fam_b)


def planted_instance(rng: random.Random, max_n: int, max_family: int,
                     min_n: int = 1) -> DualityInstance:
    """A dual instance: B is the exact dual of a random antichain A."""
    from lattice_dual import dualize_brute

    poset = random_poset(rng, max_n, min_n)
    fam_a = random_antichain(rng, poset, max_family, side="min")
    fam_b = dualize_brute(fam_a, poset)
    return DualityInstance(poset, fam_a, fam_b)


def matching_instance(k: int):
    """(poset, A, B): A = k disjoint pairs on a 2k-element antichain, B = its
    2^k transversals, the exact dual of A.

    Pair members are declared next to each other (p1 p2 | p3 p4 | ...);
    pivot ties break by declaration order, so node counts depend on it.
    """
    names = [f"p{i}" for i in range(1, 2 * k + 1)]
    poset = Poset.from_pairs(names, [])
    fam_a = [{names[2 * i], names[2 * i + 1]} for i in range(k)]
    fam_b = [
        {names[2 * i + side] for i, side in enumerate(pick)}
        for pick in itertools.product((0, 1), repeat=k)
    ]
    return poset, fam_a, fam_b


# -- judges above the oracle guard: relations that keep or fix the verdict ---


def _strict_pairs(poset: Poset) -> list:
    """Every strict pair a < b of the poset."""
    return [(a, b) for a in poset.elements for b in poset.up_set(a) if a != b]


def opposite_instance(inst: DualityInstance) -> DualityInstance:
    """(P^op, {P - b : b in B}, {P - a : a in A}), dual exactly when the
    instance is: the complement of a downset is a downset of P^op."""
    poset, full = inst.poset, frozenset(inst.poset.elements)
    opposite = Poset.from_pairs(poset.elements, [(b, a) for a, b in _strict_pairs(poset)])
    return DualityInstance(opposite, [full - b for b in inst.b], [full - a for a in inst.a])


def relabelled_instance(rng: random.Random, inst: DualityInstance) -> DualityInstance:
    """The same instance with its elements renamed at random, declared in the
    new names' order and its pairs listed in a random order: the verdict is
    kept, while pivot ties may break differently."""
    names = [f"r{i}" for i in range(len(inst.poset))]
    rename = dict(zip(inst.poset.elements, rng.sample(names, len(names))))
    pairs = [(rename[a], rename[b]) for a, b in _strict_pairs(inst.poset)]
    rng.shuffle(pairs)
    return DualityInstance(
        Poset.from_pairs(names, pairs),
        *([frozenset(map(rename.get, x)) for x in fam] for fam in (inst.a, inst.b)),
    )


def composed_instance(rng: random.Random, parts: int, n: int = 21) -> DualityInstance:
    """A dual instance of at least n elements, the disjoint union of `parts`
    brute-planted pieces of n / parts to n / parts + 4 elements each: 21-33
    elements for the default n and 2 or 3 parts.

    A is the union of the pieces' A-families, every member nonempty, and B
    is the product of their B-families: {b_1 | ... | b_r}.  The downsets of
    a disjoint union are the products of the pieces' downsets, so B is the
    dual of A; dropping any B-member makes the instance not dual.  A piece
    whose B-family would take |B| above 64 is drawn again.
    """
    from lattice_dual import dualize_brute

    low = -(-n // parts)
    names, pairs, fam_a, fam_b = [], [], [], [frozenset()]
    for part in range(parts):
        while True:
            piece = random_poset(rng, low + 4, low, rng.choice((0.3, 0.05)))
            a = [x for x in random_antichain(rng, piece, 3) if x]
            b = dualize_brute(a, piece)
            if len(fam_b) * len(b) <= 64:
                break
        tag = {p: f"q{part}.{p}" for p in piece.elements}
        names += tag.values()
        pairs += [(tag[x], tag[y]) for x, y in _strict_pairs(piece)]
        fam_a += [frozenset(map(tag.get, x)) for x in a]
        fam_b = [s | frozenset(map(tag.get, y)) for s in fam_b for y in b]
    return DualityInstance(Poset.from_pairs(names, pairs), fam_a, fam_b)


def transversal_dual(a, poset: Poset, cap: int = 10_000) -> list:
    """dual(A), the maximal downsets holding no A-member, by minimal
    transversals: max { P - up(T) : T a minimal transversal of max(A) }.

    P - x is an up-set, and an up-set meets a downset exactly when it holds
    one of the downset's maximal elements.  So a downset x holds no A-member
    exactly when some T within P - x meets the maximal elements of every
    A-member, and the least such P - x are the up(T) of the minimal
    transversals T of max(A) = { max(a) : a in A }, a plain hypergraph.  They
    are grown one edge E at a time by Berge multiplication: each transversal
    T missing E becomes the sets T + {e}, e in E.  Such a set is not minimal
    only when it holds a kept T' (one meeting E); then e is in T', so only
    the kept sets holding e are compared.  More than `cap` transversals is
    an error.  Only up-sets and set operations are used, and the members are
    listed in no set order.
    """
    transversals = [frozenset()]
    for member in map(frozenset, a):
        edge = {e for e in member if not poset.up_set(e) & member - {e}}
        kept = [t for t in transversals if t & edge]
        grown = [
            t | {e}
            for t in transversals if not t & edge
            for e in edge
            if not any(e in k and k <= t | {e} for k in kept)
        ]
        transversals = kept + grown
        if len(transversals) > cap:
            raise ValueError(f"more than {cap} minimal transversals")
    full = frozenset(poset.elements)
    free = {full.difference(*map(poset.up_set, t)) for t in transversals}
    # A set lies only in larger ones, so each size is compared only with
    # the maximal sets of the sizes above it.
    out = []
    for _, same in itertools.groupby(sorted(free, key=len, reverse=True), key=len):
        out += [x for x in same if not any(x < y for y in out)]
    return out


def random_context(rng: random.Random, max_objects: int, max_attrs: int,
                   prefix: str = "g", min_objects: int = 1) -> FormalContext:
    n_obj = rng.randint(min_objects, max_objects)
    n_att = rng.randint(1, max_attrs)
    objects = [f"{prefix}{i}" for i in range(1, n_obj + 1)]
    attrs = [f"m{i}" for i in range(1, n_att + 1)]
    intents = [{m for m in attrs if rng.random() < 0.5} for _ in objects]
    return FormalContext.from_intents(objects, attrs, intents)


def lectic_flags(mask: int, n: int) -> list:
    """The flags of a mask's n attributes, first attribute first: as lists,
    they compare in lectic order."""
    return [mask >> j & 1 for j in range(n)]


def brute_intents(ctx):
    """Closures of every attribute subset, in lectic order: of two sets, the
    one holding the first attribute where they differ comes later."""
    attrs = ctx.attributes
    rows = [sum(1 << j for j, m in enumerate(attrs) if m in ctx.row(g)) for g in ctx.objects]
    full = (1 << len(attrs)) - 1
    closed = set()
    for sub in range(1 << len(attrs)):
        intent = full
        for r in rows:
            if r & sub == sub:
                intent &= r
        closed.add(intent)
    return [
        frozenset(m for j, m in enumerate(attrs) if mask >> j & 1)
        for mask in sorted(closed, key=lambda mask: lectic_flags(mask, len(attrs)))
    ]


def random_training(rng: random.Random, max_side: int = 5, max_attrs: int = 6) -> TrainingContext:
    pos = random_context(rng, max_side, max_attrs, prefix="p")
    attrs = list(pos.attributes)
    n_neg = rng.randint(0, max_side)
    neg_objects = [f"n{i}" for i in range(1, n_neg + 1)]
    neg_intents = [{m for m in attrs if rng.random() < 0.5} for _ in neg_objects]
    neg = FormalContext.from_intents(neg_objects, attrs, neg_intents)
    return TrainingContext(pos, neg)


def random_cnf(rng: random.Random, max_vars: int, max_clauses: int) -> Cnf:
    n = rng.randint(1, max_vars)
    k = rng.randint(1, max_clauses)
    clauses = []
    for _ in range(k):
        width = rng.randint(1, min(3, n))
        variables = rng.sample(range(1, n + 1), width)
        clauses.append([v if rng.random() < 0.5 else -v for v in variables])
    return Cnf(n, clauses)


def brute_sat(cnf: Cnf) -> bool:
    for bits in itertools.product([False, True], repeat=cnf.num_vars):
        assignment = {i + 1: bits[i] for i in range(cnf.num_vars)}
        if all(
            any(assignment[abs(lit)] == (lit > 0) for lit in clause)
            for clause in cnf.clauses
        ):
            return True
    return False


def genuine_minimal_hypotheses(t: TrainingContext, k: int = 0) -> list:
    """Subset-minimal hypotheses without the all-attributes convention."""
    from lattice_dual import enumerate_hypotheses, minimal_members

    return minimal_members(enumerate_hypotheses(t, k))
