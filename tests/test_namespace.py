"""The package namespace, and which layers each CLI verb loads."""

import json
import os
import subprocess
import sys

import pytest

import lattice_dual
from lattice_dual import contranominal_scale, write_cxt

from conftest import make_worked_training

PUBLIC = [
    "Concept",
    "Cnf",
    "DualityInstance",
    "DualityVerdict",
    "ExplicitLattice",
    "FormalContext",
    "GuardExceeded",
    "Implication",
    "Poset",
    "TrainingContext",
    "assignment_from_hypothesis",
    "brute_force_dual",
    "check_star",
    "classify",
    "contranominal_scale",
    "contraordinal_context",
    "dci_to_mibr",
    "decide_amh",
    "decompose",
    "distributive_min_base",
    "dualize_brute",
    "easy_test",
    "enumerate_hypotheses",
    "find_new_min_h",
    "freq",
    "freq_complement",
    "hypothesis_from_assignment",
    "imp_closure",
    "irreducibles",
    "literal_attributes",
    "is_antichain",
    "is_base",
    "is_hypothesis",
    "is_valid",
    "maximal_members",
    "minimal_hypotheses",
    "minimal_members",
    "minvals_to_training",
    "parse_cxt",
    "parse_dimacs",
    "poset_from_json",
    "poset_from_pairs",
    "poset_to_json",
    "product_context",
    "reduce_context",
    "sat_to_amh",
    "test_duality",
    "test_duality_stats",
    "training_from_json",
    "training_to_json",
    "training_to_monotone",
    "write_cxt",
    "write_dimacs",
]

LAYERS = ["cli", "context", "duality", "hypotheses", "implications", "poset", "reductions", "util"]


def probe(code: str, *args) -> object:
    """Run `code` in a fresh interpreter and return the JSON its last line
    prints.  -S skips the site module, which on some installations imports
    modules of its own."""
    src = os.path.dirname(os.path.dirname(lattice_dual.__file__))
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


# The package's modules loaded so far, as an expression for a probe.
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'lattice_dual')"


def test_all_keeps_its_names_and_order():
    assert lattice_dual.__all__ == PUBLIC


def test_every_public_name_is_its_home_module_object():
    for name in lattice_dual.__all__:
        obj = getattr(lattice_dual, name)
        home = sys.modules[obj.__module__]
        assert home.__name__.startswith("lattice_dual.")
        assert getattr(home, name) is obj


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from lattice_dual import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(lattice_dual.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        getattr(lattice_dual, "nonexistent")
    assert not hasattr(lattice_dual, "nonexistent")
    assert not hasattr(lattice_dual, "family_key")


def test_fresh_package_lists_and_reaches_every_name():
    code = (
        "import json, sys, lattice_dual as ld; "
        "listed = set(ld.__all__) <= set(dir(ld)); "
        "loaded = sorted(m for m in sys.modules if m.startswith('lattice_dual.')); "
        "reached = [getattr(ld, layer).__name__ for layer in sys.argv[1:]]; "
        "print(json.dumps([listed, loaded, reached]))"
    )
    listed, loaded, reached = probe(code, *LAYERS)
    assert listed
    assert loaded == []
    assert reached == [f"lattice_dual.{layer}" for layer in LAYERS]


def test_cli_import_loads_cli_and_util_only():
    assert probe(f"import json, sys, lattice_dual.cli; print(json.dumps({LOADED}))") == [
        "lattice_dual",
        "lattice_dual.cli",
        "lattice_dual.util",
    ]


@pytest.fixture()
def verb_calls(tmp_path):
    t = make_worked_training()
    pos, neg, c3 = tmp_path / "pos.cxt", tmp_path / "neg.cxt", tmp_path / "c3.cxt"
    pos.write_text(write_cxt(t.positive))
    neg.write_text(write_cxt(t.negative))
    c3.write_text(write_cxt(contranominal_scale(3)))
    poset, a, b = tmp_path / "p.json", tmp_path / "a.json", tmp_path / "b.json"
    poset.write_text(json.dumps({"elements": ["p1", "p2"], "less_than": []}))
    a.write_text(json.dumps([["p1", "p2"]]))
    b.write_text(json.dumps([["p1"], ["p2"]]))
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 2 1\n1 -2 0\n")
    # every subset is an intent of the contranominal scale: the empty base is
    # a base, and these two antichains of intents satisfy (*)
    none, top, halves = tmp_path / "none.json", tmp_path / "top.json", tmp_path / "halves.json"
    none.write_text("[]")
    top.write_text(json.dumps([["m1", "m2", "m3"]]))
    halves.write_text(json.dumps([["m1", "m2"], ["m3"]]))
    hypo = ["--pos", str(pos), "--neg", str(neg)]
    return {
        "ctx": ["ctx", "concepts", "--context", str(c3)],
        "hypo": ["hypo", "minimal", *hypo],
        "dual": ["dual", "test", "--poset", str(poset), "--a", str(a), "--b", str(b)],
        "dualize": ["dual", "dualize", "--poset", str(poset), "--a", str(a)],
        "brute": ["dual", "brute", "--poset", str(poset), "--a", str(a), "--b", str(b)],
        "reduce": ["reduce", "sat2amh", "--cnf", str(cnf)],
        "usage": ["dual", "frobnicate"],
        "help": ["--help"],
        "ctx-reduce": ["ctx", "reduce", "--context", str(c3)],
        "close": ["ctx", "close", "--context", str(c3), "--set", "m1"],
        "all": ["hypo", "all", *hypo],
        "classify": ["hypo", "classify", *hypo, "--intent", "m1,m2,m3"],
        "amh": ["hypo", "amh", *hypo, "--hyps", str(none)],
        "dci2mibr": ["reduce", "dci2mibr", "--context", str(c3), "--a", str(top),
                     "--b", str(halves), "--base", str(none)],
    }


@pytest.mark.parametrize(
    "verb, exit_code, layers",
    [
        ("ctx", 0, ["context"]),
        ("hypo", 0, ["context", "hypotheses"]),
        ("dual", 0, ["duality", "poset"]),
        # sat2amh
        ("reduce", 0, ["context", "hypotheses", "reductions"]),
        ("usage", 2, []),
        ("help", 0, []),
        # the brute-force paths enumerate downsets without the context layer
        ("dualize", 0, ["duality", "poset"]),
        ("brute", 0, ["duality", "poset"]),
        ("ctx-reduce", 0, ["context"]),
        ("close", 0, ["context"]),
        ("all", 0, ["context", "hypotheses"]),
        ("classify", 0, ["context", "hypotheses"]),
        ("amh", 0, ["context", "hypotheses"]),
        ("dci2mibr", 0, ["context", "implications"]),
    ],
)
def test_verb_loads_only_its_layers(verb_calls, verb, exit_code, layers):
    code = (
        "import json, sys; from lattice_dual.cli import main; "
        f"code = main(sys.argv[1:]); print(json.dumps([code, {LOADED}]))"
    )
    expected = ["lattice_dual", "lattice_dual.cli", "lattice_dual.util"]
    expected += [f"lattice_dual.{m}" for m in layers]
    assert probe(code, *verb_calls[verb]) == [exit_code, sorted(expected)]
