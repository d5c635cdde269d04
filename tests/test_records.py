"""The public value records: equality, hash, repr, immutability and
validation, and the modules the CLI imports."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import lattice_dual
from lattice_dual import (
    Cnf,
    Concept,
    DualityInstance,
    DualityVerdict,
    FormalContext,
    Implication,
    TrainingContext,
    freq,
    poset_from_pairs,
)

CHAIN2 = poset_from_pairs(["p1", "p2"], [("p1", "p2")])


def _context(obj, attr, incident=True):
    return FormalContext([obj], [attr], [[incident]])


# Each case: the field names, two equal records built differently, one
# record that differs from them, and the exact repr of the first.
CASES = {
    "DualityInstance": (
        ("poset", "a", "b"),
        lambda: DualityInstance(CHAIN2, [{"p1"}], [set()]),
        lambda: DualityInstance(CHAIN2, (frozenset({"p1"}),), [[]]),
        lambda: DualityInstance(CHAIN2, [{"p1", "p2"}], [set()]),
        "DualityInstance(poset=Poset(['p1', 'p2']), a=(frozenset({'p1'}),), b=(frozenset(),))",
    ),
    "DualityVerdict": (
        ("dual", "witness"),
        lambda: DualityVerdict(False, frozenset({"p1"})),
        lambda: DualityVerdict(dual=False, witness=frozenset(["p1"])),
        lambda: DualityVerdict(False),
        "DualityVerdict(dual=False, witness=frozenset({'p1'}))",
    ),
    "Concept": (
        ("extent", "intent"),
        lambda: Concept(frozenset({"g1"}), frozenset()),
        lambda: Concept(extent=frozenset(["g1"]), intent=frozenset()),
        lambda: Concept(frozenset(), frozenset()),
        "Concept(extent=frozenset({'g1'}), intent=frozenset())",
    ),
    "TrainingContext": (
        ("positive", "negative"),
        lambda: TrainingContext(_context("g1", "m1"), _context("h1", "m1", False)),
        lambda: TrainingContext(_context("g1", "m1"), _context("h1", "m1", False)),
        lambda: TrainingContext(_context("g1", "m1"), _context("h1", "m1")),
        "TrainingContext(positive=FormalContext(1x1), negative=FormalContext(1x1))",
    ),
    "Implication": (
        ("premise", "conclusion"),
        lambda: Implication({"a"}, []),
        lambda: Implication(["a", "a"], set()),
        lambda: Implication({"a"}, ["b"]),
        "Implication(premise=frozenset({'a'}), conclusion=frozenset())",
    ),
    "Cnf": (
        ("num_vars", "clauses"),
        lambda: Cnf(2, [[1, -2], [2]]),
        lambda: Cnf(2, ((1, -2), (2,))),
        lambda: Cnf(2, [[1, -2]]),
        "Cnf(num_vars=2, clauses=((1, -2), (2,)))",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_equality_hash_repr_and_immutability(name):
    fields, make, make_equal, make_other, text = CASES[name]
    x, y, z = make(), make_equal(), make_other()
    assert type(x).__name__ == name
    assert x == y and not x != y
    assert x != z and not x == z
    assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in fields))
    assert repr(x) == text
    with pytest.raises(AttributeError):
        setattr(x, fields[0], None)
    with pytest.raises(AttributeError):
        x.extra = None


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_are_tuples_of_their_fields(name):
    fields, make = CASES[name][:2]
    x = make()
    assert type(x)._fields == fields
    assert x == tuple(getattr(x, f) for f in fields)


def test_record_normalisation():
    inst = DualityInstance(poset_from_pairs(["p1", "p2"], []), [["p2"], ("p1",)], [])
    assert inst.a == (frozenset({"p1"}), frozenset({"p2"})) and inst.b == ()
    assert DualityVerdict(True).witness is None
    imp = Implication("ab", iter("c"))
    assert imp.premise == frozenset("ab") and type(imp.conclusion) is frozenset
    assert Cnf(3, iter([[1], iter([-2, 3])])).clauses == ((1,), (-2, 3))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: DualityInstance(CHAIN2, [{"p2"}], []), r"A-member \['p2'\] is not a downset"),
        (lambda: DualityInstance(CHAIN2, [], [{"p1"}, {"p1", "p2"}]), "family B is not an antichain"),
        (lambda: DualityInstance(CHAIN2, [{"zz"}], []), "unknown element name: 'zz'"),
        (
            lambda: TrainingContext(_context("g1", "m1"), _context("h1", "m2")),
            "positive and negative contexts must share the same attribute list",
        ),
        (
            lambda: TrainingContext(_context("g1", "m1"), _context("g1", "m1")),
            r"object names shared between sides: \['g1'\]",
        ),
        (lambda: Cnf(-1, []), "variable count must be nonnegative"),
        (lambda: Cnf(2, [[3]]), "literal 3 out of range for n=2"),
        (lambda: Cnf(2, [[1], [0]]), "literal 0 out of range for n=2"),
    ],
)
def test_record_validation_errors(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_record_constructors_take_every_field():
    with pytest.raises(TypeError):
        Cnf(1)
    with pytest.raises(TypeError):
        Implication({"a"})
    with pytest.raises(TypeError):
        DualityVerdict()


def test_freq_still_exact():
    share = freq([{"p1"}, set(), {"p1"}], "p1")
    assert isinstance(share, Fraction) and share == Fraction(2, 3)


def test_cli_import_leaves_out_dataclasses_typing_and_fractions():
    # -S skips the site module, which on some installations imports typing.
    src = os.path.dirname(os.path.dirname(lattice_dual.__file__))
    probe = (
        "import sys, lattice_dual.cli; "
        "print(sorted({'dataclasses', 'typing', 'fractions'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
