"""Command-line interface: JSON payloads, exit codes, determinism."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from lattice_dual import (
    DualityInstance,
    FormalContext,
    GuardExceeded,
    Poset,
    brute_force_dual,
    contranominal_scale,
    decide_amh,
    dualize_brute,
    enumerate_hypotheses,
    find_new_min_h,
    is_base,
    minimal_hypotheses,
    poset_to_json,
    training_from_json,
    training_to_json,
    write_cxt,
)
from lattice_dual.cli import main
from lattice_dual.context import BITMAP_ATTRIBUTES

from conftest import ATTRS6, EIGHT_MINIMAL, brute_intents, make_worked_training


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def worked_files(tmp_path):
    t = make_worked_training()
    pos = tmp_path / "k_plus.cxt"
    neg = tmp_path / "k_minus.cxt"
    pos.write_text(write_cxt(t.positive))
    neg.write_text(write_cxt(t.negative))
    return str(pos), str(neg)


# -- ctx verbs ------------------------------------------------------------


def test_ctx_close_empty_set(capsys, worked_files):
    pos, _ = worked_files
    code, out, _ = run_cli(capsys, "ctx", "close", "--context", pos, "--set", "")
    assert code == 0
    assert json.loads(out) == []


def test_ctx_concepts_contranominal3(capsys, tmp_path):
    path = tmp_path / "c3.cxt"
    path.write_text(write_cxt(contranominal_scale(3)))
    code, out, _ = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert code == 0
    assert len(json.loads(out)) == 8


@pytest.mark.parametrize("n", [BITMAP_ATTRIBUTES, BITMAP_ATTRIBUTES + 1])
def test_ctx_concepts_print_in_lectic_order(capsys, tmp_path, n):
    # on the widest bitmap context and on the narrowest Close-by-One one,
    # stdout lists the concepts item by item in the lectic order of their
    # intents, each extent and intent in universe order
    rng = random.Random(n)
    objects, attrs = [f"g{i}" for i in range(9)], [f"m{j}" for j in range(n)]
    rows = [[rng.random() < 0.7 for _ in attrs] for _ in objects]
    ctx = FormalContext(objects, attrs, rows)
    path = tmp_path / "ctx.cxt"
    path.write_text(write_cxt(ctx))
    code, out, _ = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert code == 0
    expected = [
        {
            "extent": [g for g in objects if g in ctx.derive_attributes(intent)],
            "intent": [m for m in attrs if m in intent],
        }
        for intent in brute_intents(ctx)
    ]
    assert len(expected) > 50
    assert json.loads(out) == expected


def test_ctx_reduce_emits_cxt(capsys, tmp_path):
    path = tmp_path / "c3.cxt"
    path.write_text(write_cxt(contranominal_scale(3)))
    code, out, _ = run_cli(capsys, "ctx", "reduce", "--context", str(path))
    assert code == 0
    assert json.loads(out)["cxt"].startswith("B\n")


def test_ctx_malformed_header_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.cxt"
    path.write_text("Q\n\n1\n1\n\ng1\nm1\nX\n")
    code, out, err = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err


def test_ctx_truncated_header_exit_2(capsys, tmp_path):
    path = tmp_path / "short.cxt"
    path.write_text("B\n")
    code, out, err = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert (code, out, err) == (2, "", "error: truncated .cxt file\n")


# -- hypo verbs -------------------------------------------------------------


def test_hypo_minimal_worked_example(capsys, worked_files):
    pos, neg = worked_files
    code, out, _ = run_cli(capsys, "hypo", "minimal", "--pos", pos, "--neg", neg)
    assert code == 0
    got = {frozenset(h) for h in json.loads(out)}
    assert got == set(EIGHT_MINIMAL)


def test_hypo_minimal_k3_includes_empty_set(capsys, worked_files):
    pos, neg = worked_files
    code, out, _ = run_cli(
        capsys, "hypo", "minimal", "--pos", pos, "--neg", neg, "--k", "3"
    )
    assert code == 0
    assert [] in json.loads(out)


def test_hypo_mismatched_attributes_exit_2(capsys, worked_files, tmp_path):
    pos, _ = worked_files
    other = tmp_path / "other.cxt"
    other.write_text(write_cxt(contranominal_scale(3)))
    code, _, err = run_cli(capsys, "hypo", "minimal", "--pos", pos, "--neg", str(other))
    assert code == 2
    assert "error" in err


def test_hypo_classify(capsys, worked_files):
    pos, neg = worked_files
    code, out, _ = run_cli(
        capsys, "hypo", "classify", "--pos", pos, "--neg", neg,
        "--intent", "m1,m2,m3,m4",
    )
    assert code == 0
    assert json.loads(out) == {"classification": "positive"}


def test_hypo_classify_without_intent_exit_2(capsys, worked_files):
    pos, neg = worked_files
    code, out, err = run_cli(capsys, "hypo", "classify", "--pos", pos, "--neg", neg)
    assert code == 2
    assert out == ""
    assert "classify needs --intent" in err


def test_hypo_classify_unknown_attribute_exit_2(capsys, worked_files):
    pos, neg = worked_files
    code, out, err = run_cli(
        capsys, "hypo", "classify", "--pos", pos, "--neg", neg, "--intent", "m1,zz",
    )
    assert code == 2
    assert out == ""
    assert "unknown attribute name: 'zz'" in err


def test_hypo_amh_all_known_false(capsys, worked_files, tmp_path):
    pos, neg = worked_files
    hyps = tmp_path / "hyps.json"
    hyps.write_text(json.dumps([sorted(h) for h in EIGHT_MINIMAL]))
    code, out, _ = run_cli(
        capsys, "hypo", "amh", "--pos", pos, "--neg", neg, "--hyps", str(hyps)
    )
    assert code == 0
    assert json.loads(out) == {"additional": False}


def test_hypo_amh_strict_exit(capsys, worked_files, tmp_path):
    pos, neg = worked_files
    hyps = tmp_path / "hyps.json"
    hyps.write_text(json.dumps([sorted(h) for h in EIGHT_MINIMAL]))
    code, out, _ = run_cli(
        capsys, "--strict-exit", "hypo", "amh",
        "--pos", pos, "--neg", neg, "--hyps", str(hyps),
    )
    assert code == 1
    assert json.loads(out) == {"additional": False}


@pytest.mark.parametrize("hyps", [[5], {"m1": 1}, [["m1", 2]]])
def test_hypo_amh_malformed_hyps_exit_2(capsys, worked_files, tmp_path, hyps):
    pos, neg = worked_files
    path = tmp_path / "hyps.json"
    path.write_text(json.dumps(hyps))
    code, out, err = run_cli(
        capsys, "--strict-exit", "hypo", "amh", "--pos", pos, "--neg", neg, "--hyps", str(path)
    )
    assert code == 2
    assert out == ""
    assert "error" in err and "family" in err


def test_hypo_minimal_guard_exit_3(capsys, tmp_path, monkeypatch):
    attrs = [f"m{j}" for j in range(26)]
    train = tmp_path / "train.json"
    train.write_text(json.dumps(
        {"attributes": attrs, "positive": {"g1": "X" * 26}, "negative": {"g2": "." * 26}}
    ))
    code, out, err = run_cli(capsys, "hypo", "minimal", "--train", str(train))
    assert code == 3
    assert out == ""
    assert "guard 25" in err
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "26")
    code, out, _ = run_cli(capsys, "hypo", "minimal", "--train", str(train))
    assert code == 0
    assert json.loads(out) == [attrs]


def _one_full_row(n):
    """A training context over n attributes: one positive object holding all
    of them and no negative object.  Its one minimal hypothesis is M, found
    at once by an unguarded search."""
    attrs = [f"m{j}" for j in range(n)]
    return training_from_json({"attributes": attrs, "positive": {"g1": "X" * n}, "negative": {}})


def _guarded_calls(tmp_path):
    """Each public entry point that enumerates: (call one step past its
    default guard, the guarded size, the CLI arguments reaching it or None)."""
    t26, t19 = _one_full_row(26), _one_full_row(19)
    p21 = Poset.from_pairs([f"p{i}" for i in range(21)], [])
    bottom = [["p0"]]
    files = {
        "ctx26.cxt": write_cxt(t26.positive),
        "train26.json": json.dumps(training_to_json(t26)),
        "ctx19.cxt": write_cxt(t19.positive),
        "none.json": "[]",
        "poset21.json": json.dumps(poset_to_json(p21)),
        "a21.json": json.dumps(bottom),
        "b21.json": json.dumps([sorted(p21.elements[1:])]),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    f = {name: str(tmp_path / name) for name in files}
    hypo = ["--train", f["train26.json"]]
    dual = ["--poset", f["poset21.json"], "--a", f["a21.json"]]
    instance = DualityInstance(p21, bottom, [p21.elements[1:]])
    return {
        "intents": (t26.positive.intents, 26, ["ctx", "concepts", "--context", f["ctx26.cxt"]]),
        "concepts": (t26.positive.concepts, 26, ["ctx", "concepts", "--context", f["ctx26.cxt"]]),
        "enumerate_hypotheses": (lambda: enumerate_hypotheses(t26), 26, ["hypo", "all", *hypo]),
        "minimal_hypotheses": (lambda: minimal_hypotheses(t26), 26, ["hypo", "minimal", *hypo]),
        "decide_amh": (lambda: decide_amh(t26, []), 26,
                       ["hypo", "amh", *hypo, "--hyps", f["none.json"]]),
        "find_new_min_h": (lambda: find_new_min_h(t26, []), 26, None),
        "all_downsets": (p21.all_downsets, 21, None),
        "dualize_brute": (lambda: dualize_brute(bottom, p21), 21, ["dual", "dualize", *dual]),
        "brute_force_dual": (lambda: brute_force_dual(instance), 21,
                             ["dual", "brute", *dual, "--b", f["b21.json"]]),
        "is_base": (lambda: is_base(t19.positive, []), 19,
                    ["reduce", "dci2mibr", "--context", f["ctx19.cxt"], "--a", f["none.json"],
                     "--b", f["none.json"], "--base", f["none.json"]]),
    }


@pytest.mark.parametrize("entry", [
    "intents", "concepts", "enumerate_hypotheses", "minimal_hypotheses", "decide_amh",
    "find_new_min_h", "all_downsets", "dualize_brute", "brute_force_dual", "is_base",
])
def test_every_enumeration_is_guarded_one_step_past_its_default(capsys, tmp_path, entry):
    call, size, argv = _guarded_calls(tmp_path)[entry]
    message = f"size {size} exceeds guard {size - 1}"
    with pytest.raises(GuardExceeded, match=message):
        call()
    if argv is not None:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert message in err


def test_the_guard_override_restores_the_amh_answers(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "26")
    t26 = _one_full_row(26)
    assert decide_amh(t26, []) is True
    assert find_new_min_h(t26, []) == frozenset(t26.attributes)
    train, hyps = tmp_path / "train.json", tmp_path / "hyps.json"
    train.write_text(json.dumps(training_to_json(t26)))
    hyps.write_text("[]")
    code, out, _ = run_cli(capsys, "hypo", "amh", "--train", str(train), "--hyps", str(hyps))
    assert (code, json.loads(out)) == (0, {"additional": True})


@pytest.mark.parametrize("k", ["1", "-1"])
def test_hypo_amh_rejects_a_nonzero_k(capsys, worked_files, tmp_path, k):
    pos, neg = worked_files
    hyps = tmp_path / "hyps.json"
    hyps.write_text(json.dumps([sorted(h) for h in EIGHT_MINIMAL]))
    code, out, err = run_cli(
        capsys, "hypo", "amh", "--k", k, "--pos", pos, "--neg", neg, "--hyps", str(hyps)
    )
    assert (code, out) == (2, "")
    assert err == "error: amh supports only --k 0\n"


def test_hypo_amh_without_hyps_exit_2(capsys, worked_files):
    pos, neg = worked_files
    code, out, err = run_cli(capsys, "hypo", "amh", "--pos", pos, "--neg", neg)
    assert (code, out) == (2, "")
    assert err == "error: amh needs --hyps\n"


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"attributes": ["m1"], "positive": ["X"], "negative": {}}, "positive"),
        ({"attributes": "m1", "positive": {}, "negative": {}}, "attributes"),
        ({"attributes": ["m1"], "positive": {"g1": 1}, "negative": {}}, "row"),
    ],
)
def test_hypo_malformed_training_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "train.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "hypo", "all", "--train", str(path))
    assert code == 2
    assert out == ""
    assert "error" in err and message in err


# -- dual verbs ---------------------------------------------------------------


def write_poset_inputs(tmp_path, elements, pairs, fam_a, fam_b=None):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps({"elements": elements, "less_than": pairs}))
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(fam_a))
    paths = [str(poset), str(a_path)]
    if fam_b is not None:
        b_path = tmp_path / "b.json"
        b_path.write_text(json.dumps(fam_b))
        paths.append(str(b_path))
    return paths


def test_dual_test_chain3(capsys, tmp_path):
    poset, a, b = write_poset_inputs(
        tmp_path, ["p1", "p2", "p3"], [["p1", "p2"], ["p2", "p3"]],
        [["p1"]], [[]],
    )
    code, out, _ = run_cli(capsys, "dual", "test", "--poset", poset, "--a", a, "--b", b)
    assert code == 0
    doc = json.loads(out)
    assert doc["dual"] is True
    assert doc["recursive_calls"] >= 1


def test_dual_brute_reports_witness(capsys, tmp_path):
    poset, a, b = write_poset_inputs(
        tmp_path, ["p1", "p2"], [], [["p1"]], [[]]
    )
    code, out, _ = run_cli(capsys, "dual", "brute", "--poset", poset, "--a", a, "--b", b)
    assert code == 0
    doc = json.loads(out)
    assert doc["dual"] is False
    assert doc["witness"] == ["p2"]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "elements, pairs, fam_b, dual",
    [
        (["p1", "p2", "p3"], [["p1", "p2"], ["p2", "p3"]], [[]], True),
        (["p1", "p2"], [], [[]], False),
    ],
    ids=["dual", "not-dual"],
)
def test_dual_test_oracle_prints_what_brute_prints(capsys, tmp_path, strict, elements, pairs,
                                                   fam_b, dual):
    poset, a, b = write_poset_inputs(tmp_path, elements, pairs, [["p1"]], fam_b)
    flags = ["--strict-exit"] if strict else []
    files = ["--poset", poset, "--a", a, "--b", b]
    brute = run_cli(capsys, *flags, "dual", "brute", *files)
    assert brute[0] == (1 if strict and not dual else 0)
    assert json.loads(brute[1])["dual"] is dual
    assert run_cli(capsys, *flags, "dual", "test", *files, "--oracle") == brute


def test_dual_dualize(capsys, tmp_path):
    poset, a = write_poset_inputs(tmp_path, ["p1", "p2"], [], [["p1", "p2"]])
    code, out, _ = run_cli(capsys, "dual", "dualize", "--poset", poset, "--a", a)
    assert code == 0
    assert json.loads(out) == [["p1"], ["p2"]]


def test_dual_dualize_mixed_name_types(capsys, tmp_path):
    # Element names may mix strings and numbers; no step may sort by name.
    poset, a = write_poset_inputs(tmp_path, [1, "a"], [], [])
    code, out, err = run_cli(capsys, "dual", "dualize", "--poset", poset, "--a", a)
    assert (code, err) == (0, "")
    assert json.loads(out) == [[1, "a"]]


@pytest.mark.parametrize("subverb", ["dualize", "brute"])
@pytest.mark.parametrize("number", ["NaN", "1e400", "-Infinity"])
@pytest.mark.parametrize("where", ["poset", "a"])
def test_dual_refuses_non_finite_numbers(capsys, tmp_path, subverb, number, where):
    # json.dumps would echo such a name as NaN or Infinity, which is not JSON
    poset, a, b = write_poset_inputs(tmp_path, ["x"], [], [], [["x"]])
    if where == "poset":
        (tmp_path / "poset.json").write_text(f'{{"elements": [{number}, "x"], "less_than": []}}')
    else:
        (tmp_path / "a.json").write_text(f"[[{number}]]")
    code, out, err = run_cli(capsys, "dual", subverb, "--poset", poset, "--a", a, "--b", b)
    assert (code, out) == (2, "")
    assert f"non-finite number {number} in JSON" in err


def test_dual_non_downset_exit_2(capsys, tmp_path):
    poset, a, b = write_poset_inputs(
        tmp_path, ["p1", "p2"], [["p1", "p2"]], [["p2"]], [[]]
    )
    code, _, err = run_cli(capsys, "dual", "test", "--poset", poset, "--a", a, "--b", b)
    assert code == 2
    assert "error" in err


def test_dual_star_violation_exit_2(capsys, tmp_path):
    poset, a, b = write_poset_inputs(
        tmp_path, ["p1", "p2"], [], [["p1"]], [["p1", "p2"]]
    )
    code, _, err = run_cli(capsys, "dual", "test", "--poset", poset, "--a", a, "--b", b)
    assert code == 2
    assert "error" in err


def test_dual_guard_exit_3(capsys, tmp_path):
    elements = [f"p{i}" for i in range(1, 22)]
    pairs = [[f"p{i}", f"p{i + 1}"] for i in range(1, 21)]
    poset, a, b = write_poset_inputs(tmp_path, elements, pairs, [["p1"]], [[]])
    code, _, err = run_cli(capsys, "dual", "brute", "--poset", poset, "--a", a, "--b", b)
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "poset_doc, fam_a, message",
    [
        ({"elements": ["p1", "p2"], "less_than": [1]}, [["p1"]], "less_than"),
        ({"elements": "abc", "less_than": []}, [["a"]], "elements"),
        ({"elements": ["p1", "p2"], "less_than": []}, [5], "family"),
        ({"elements": ["a", "b", "c"], "less_than": [["a", "b"], ["b", "c"], ["c", "a"]]},
         [["a"]], "cycle detected through 'b' and 'c'"),
    ],
)
def test_dual_malformed_json_exit_2(capsys, tmp_path, poset_doc, fam_a, message):
    poset = tmp_path / "poset.json"
    poset.write_text(json.dumps(poset_doc))
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps(fam_a))
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps([[]]))
    code, out, err = run_cli(
        capsys, "dual", "test", "--poset", str(poset), "--a", str(a_path), "--b", str(b_path)
    )
    assert code == 2
    assert out == ""
    assert "error" in err and message in err


def test_negative_guard_exit_2(capsys, tmp_path, monkeypatch):
    poset, a, b = write_poset_inputs(tmp_path, ["p1", "p2"], [], [["p1"]], [[]])
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "-1")
    code, out, err = run_cli(capsys, "dual", "brute", "--poset", poset, "--a", a, "--b", b)
    assert code == 2
    assert out == ""
    assert "LATTICE_DUAL_GUARD" in err


def test_non_integer_guard_exit_2(capsys, tmp_path, monkeypatch):
    poset, a, b = write_poset_inputs(tmp_path, ["p1", "p2"], [], [["p1"]], [[]])
    monkeypatch.setenv("LATTICE_DUAL_GUARD", "abc")
    code, out, err = run_cli(capsys, "dual", "brute", "--poset", poset, "--a", a, "--b", b)
    assert code == 2
    assert out == ""
    assert err == "error: LATTICE_DUAL_GUARD must be a non-negative integer, got 'abc'\n"


# -- reduce verbs ---------------------------------------------------------------


def test_reduce_sat2amh_sizes(capsys, tmp_path):
    cnf = tmp_path / "f.cnf"
    cnf.write_text("p cnf 1 1\n1 0\n")
    code, out, _ = run_cli(capsys, "reduce", "sat2amh", "--cnf", str(cnf))
    assert code == 0
    doc = json.loads(out)
    assert len(doc["training"]["positive"]) == 3
    assert len(doc["training"]["negative"]) == 1
    assert doc["minimal_hypotheses"] == [["C1"]]


def test_reduce_sat2amh_then_amh_false(capsys, tmp_path):
    cnf = tmp_path / "unsat.cnf"
    cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
    code, out, _ = run_cli(capsys, "reduce", "sat2amh", "--cnf", str(cnf))
    assert code == 0
    doc = json.loads(out)
    train = tmp_path / "train.json"
    train.write_text(json.dumps(doc["training"]))
    hyps = tmp_path / "hyps.json"
    hyps.write_text(json.dumps(doc["minimal_hypotheses"]))
    code, out, _ = run_cli(
        capsys, "hypo", "amh", "--train", str(train), "--hyps", str(hyps)
    )
    assert code == 0
    assert json.loads(out) == {"additional": False}


def test_reduce_sat2amh_stops_at_the_satlib_trailer(capsys, tmp_path):
    runs = []
    for trailer in ("", "%\n0\n\n"):
        cnf = tmp_path / "f.cnf"
        cnf.write_text("p cnf 2 2\n1 -2 0\n-1 0\n" + trailer)
        runs.append(run_cli(capsys, "reduce", "sat2amh", "--cnf", str(cnf)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_reduce_dci2mibr(capsys, tmp_path):
    ctx_path = tmp_path / "ctx.cxt"
    # contraordinal context of the 2-antichain: a contranominal square
    ctx_path.write_text("B\n\n2\n2\n\np1\np2\np1\np2\n.X\nX.\n")
    a_path = tmp_path / "a.json"
    a_path.write_text(json.dumps([["p1", "p2"]]))
    b_path = tmp_path / "b.json"
    b_path.write_text(json.dumps([["p1"], ["p2"]]))
    base = tmp_path / "base.json"
    base.write_text(json.dumps([]))
    code, out, _ = run_cli(
        capsys, "reduce", "dci2mibr", "--context", str(ctx_path),
        "--a", str(a_path), "--b", str(b_path), "--base", str(base),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["context_cxt"].startswith("B\n")
    assert {"premise": ["p1", "p2"], "conclusion": ["p1", "p2"]} in doc["implications"]


@pytest.mark.parametrize("side", ["--a", "--b"])
def test_reduce_dci2mibr_malformed_family_exit_2(capsys, tmp_path, side):
    ctx_path = tmp_path / "ctx.cxt"
    ctx_path.write_text("B\n\n2\n2\n\np1\np2\np1\np2\n.X\nX.\n")
    good = tmp_path / "good.json"
    good.write_text(json.dumps([["p1"]]))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([5]))
    base = tmp_path / "base.json"
    base.write_text(json.dumps([]))
    files = {"--a": str(good), "--b": str(good), side: str(bad)}
    code, out, err = run_cli(
        capsys, "reduce", "dci2mibr", "--context", str(ctx_path),
        "--a", files["--a"], "--b", files["--b"], "--base", str(base),
    )
    assert code == 2
    assert out == ""
    assert "error" in err and "family" in err


@pytest.mark.parametrize(
    "entry",
    [
        {"premise": "ab", "conclusion": "a"},
        {"premise": ["a"], "conclusion": [1]},
        {"premise": ["a"]},
        ["a", "b"],
    ],
)
def test_reduce_dci2mibr_malformed_implication_exit_2(capsys, tmp_path, entry):
    ctx_path = tmp_path / "ctx.cxt"
    ctx_path.write_text("B\n\n2\n2\n\np1\np2\na\nb\n.X\nX.\n")
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps([]))
    base = tmp_path / "base.json"
    base.write_text(json.dumps([entry]))
    code, out, err = run_cli(
        capsys, "reduce", "dci2mibr", "--context", str(ctx_path),
        "--a", str(fam), "--b", str(fam), "--base", str(base),
    )
    assert code == 2
    assert out == ""
    assert "malformed implication entry" in err and repr(entry) in err


def test_reduce_dci2mibr_unknown_base_attribute_exit_2(capsys, tmp_path):
    ctx_path = tmp_path / "ctx.cxt"
    ctx_path.write_text("B\n\n2\n2\n\np1\np2\np1\np2\n.X\nX.\n")
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps([]))
    base = tmp_path / "base.json"
    base.write_text(json.dumps([{"premise": ["zz"], "conclusion": ["p1"]}]))
    code, out, err = run_cli(
        capsys, "reduce", "dci2mibr", "--context", str(ctx_path),
        "--a", str(fam), "--b", str(fam), "--base", str(base),
    )
    assert code == 2
    assert out == ""
    assert "outside the context" in err and "zz" in err


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_reduce_dci2mibr_names_the_least_unknown_attribute(tmp_path, hash_seed):
    # The member is read as a set, whose order follows the string hash; the
    # message names the least unknown name whatever that order is.
    (tmp_path / "ctx.cxt").write_text("B\n\n2\n2\n\ng1\ng2\nm1\nm2\n.X\nX.\n")
    (tmp_path / "a.json").write_text("[]")
    (tmp_path / "b.json").write_text(json.dumps([["c", "a", "e", "b", "d"]]))
    (tmp_path / "base.json").write_text("[]")
    result = subprocess.run(
        [sys.executable, "-m", "lattice_dual", "reduce", "dci2mibr", "--context", "ctx.cxt",
         "--a", "a.json", "--b", "b.json", "--base", "base.json"],
        capture_output=True, text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONHASHSEED": hash_seed},
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: unknown attribute name: 'a'\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["dual", "test", "--poset", "deep.json", "--a", "fam.json", "--b", "fam.json"],
        ["dual", "test", "--poset", "poset.json", "--a", "deep.json", "--b", "fam.json"],
        ["hypo", "all", "--train", "deep.json"],
        ["--strict-exit", "hypo", "amh", "--train", "train.json", "--hyps", "deep.json"],
        ["reduce", "dci2mibr", "--context", "ctx.cxt", "--a", "fam.json", "--b", "fam.json",
         "--base", "deep.json"],
    ],
)
def test_deeply_nested_json_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000)
    (tmp_path / "poset.json").write_text(json.dumps({"elements": ["p1"], "less_than": []}))
    (tmp_path / "fam.json").write_text("[]")
    (tmp_path / "train.json").write_text(json.dumps(training_to_json(make_worked_training())))
    (tmp_path / "ctx.cxt").write_text("B\n\n1\n1\n\ng1\nm1\nX\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "deep.json: JSON nested too deeply" in err


# Files reach their parsers as written: a CRLF line reads as its LF form,
# and a lone CR is part of its line.


@pytest.mark.parametrize(
    "verb, flag, text",
    [
        (["ctx", "concepts"], "--context", write_cxt(contranominal_scale(3))),
        (["hypo", "minimal"], "--train", json.dumps(training_to_json(make_worked_training()), indent=1)),
        (["reduce", "sat2amh"], "--cnf", "c two clauses\np cnf 2 2\n1 -2 0\n-1 0\n%\n0\n"),
    ],
    ids=["cxt", "training-json", "dimacs"],
)
def test_crlf_files_read_as_their_lf_form(capsys, tmp_path, verb, flag, text):
    runs = []
    for end in ("\n", "\r\n"):
        path = tmp_path / "input"
        path.write_text(text.replace("\n", end), newline="")
        runs.append(run_cli(capsys, *verb, flag, str(path)))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_ctx_keeps_a_lone_cr_in_an_object_name(capsys, tmp_path):
    path = tmp_path / "cr.cxt"
    path.write_text(write_cxt(FormalContext.from_intents(["g\r1"], ["m1"], [{"m1"}])), newline="")
    code, out, _ = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert (code, json.loads(out)) == (0, [{"extent": ["g\r1"], "intent": ["m1"]}])


def test_ctx_does_not_break_lines_at_a_lone_cr(capsys, tmp_path):
    path = tmp_path / "cr.cxt"
    path.write_text("B\r\r1\r1\r\rg1\rm1\rX\r", newline="")
    code, out, err = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert (code, out, err) == (2, "", "error: malformed .cxt header: expected 'B'\n")


@pytest.mark.parametrize("text", ["B\n\n0\n1\n\nm\r", "B\r\n\r\n0\r\n1\r\n\r\nm\r\r\n"])
def test_ctx_concepts_refuses_a_name_ending_in_cr(capsys, tmp_path, text):
    path = tmp_path / "cr.cxt"
    path.write_text(text, newline="")
    code, out, err = run_cli(capsys, "ctx", "concepts", "--context", str(path))
    assert (code, out, err) == (2, "", "error: malformed .cxt name: 'm\\r' ends in CR\n")


def test_reduce_dci2mibr_refuses_a_name_it_cannot_write(capsys, tmp_path):
    # the last line's CR would stay in the attribute name, which write_cxt
    # refuses, so reading the context refuses it
    files = {"context": "B\n\n0\n1\n\nm\r", "a": '[["m\\r"]]', "b": "[]",
             "base": '[{"premise": [], "conclusion": ["m\\r"]}]'}
    argv = ["reduce", "dci2mibr"]
    for flag, text in files.items():
        (tmp_path / flag).write_text(text, newline="")
        argv += [f"--{flag}", str(tmp_path / flag)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", "error: malformed .cxt name: 'm\\r' ends in CR\n")


@pytest.mark.parametrize(
    "verb, inputs",
    [
        (["ctx", "concepts"], {"--context": write_cxt(contranominal_scale(3))}),
        (
            ["dual", "test"],
            {
                "--poset": json.dumps({"elements": ["p1", "p2"], "less_than": [["p1", "p2"]]}),
                "--a": '[["p1"]]',
                "--b": "[[]]",
            },
        ),
        (["reduce", "sat2amh"], {"--cnf": "p cnf 2 2\n1 -2 0\n-1 0\n"}),
    ],
    ids=["cxt", "poset-json", "dimacs"],
)
def test_inputs_may_start_with_a_byte_order_mark(capsys, tmp_path, verb, inputs):
    runs = []
    for bom in ("", "\ufeff"):
        argv = list(verb)
        for flag, text in inputs.items():
            path = tmp_path / flag.strip("-")
            path.write_text(bom + text, encoding="utf-8")
            argv += [flag, str(path)]
        runs.append(run_cli(capsys, *argv))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_missing_file_exit_2(capsys):
    code, _, err = run_cli(capsys, "reduce", "sat2amh", "--cnf", "/nonexistent.cnf")
    assert code == 2
    assert "error" in err


def test_bad_usage_exit_2(capsys):
    assert main(["frobnicate"]) == 2


# -- determinism and entry point ---------------------------------------------------


def test_byte_identical_output(capsys, worked_files):
    pos, neg = worked_files
    _, first, _ = run_cli(capsys, "hypo", "minimal", "--pos", pos, "--neg", neg)
    _, second, _ = run_cli(capsys, "hypo", "minimal", "--pos", pos, "--neg", neg)
    assert first == second


def test_module_entry_point(tmp_path):
    path = tmp_path / "c3.cxt"
    path.write_text(write_cxt(contranominal_scale(3)))
    result = subprocess.run(
        [sys.executable, "-m", "lattice_dual", "ctx", "concepts", "--context", str(path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert len(json.loads(result.stdout)) == 8


# -- fuzzing: the exit-code and stdout contract on any input -------------------

NAMES = ["a", "b", "c", "d", "e", "f"]
_name = st.sampled_from(NAMES)
_names = st.lists(_name, max_size=6)


def _distinct(names):
    """A list of distinct members of names, in any order."""
    return st.tuples(st.permutations(names), st.integers(0, len(names))).map(lambda p: p[0][: p[1]])


# Attribute lists: often a prefix of NAMES, so that two files agree.
_attributes = st.integers(0, 6).map(lambda n: NAMES[:n]) | _distinct(NAMES)
_keys = st.sampled_from(NAMES + ["elements", "less_than", "attributes", "positive",
                                 "negative", "premise", "conclusion"])
_any_json = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6) | _name,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4),
    max_leaves=6,
)
_broken_json = st.sampled_from(["", "[", "{", '{"elements": [', "[[]", "nul", "\x00",
                                '{"elements": [NaN, 1e400], "less_than": []}', '[["a", Infinity]]'])


@st.composite
def _poset_doc(draw):
    elements = draw(_distinct(NAMES[:4] + [0, 1]))
    pair = st.lists(st.sampled_from(elements), min_size=2, max_size=2) if elements else st.just([])
    return {"elements": elements, "less_than": draw(st.lists(pair, max_size=3))}


@st.composite
def _training_doc(draw):
    attributes = draw(_attributes)
    row = st.text("X.", min_size=len(attributes), max_size=len(attributes))
    if draw(st.integers(0, 9)) == 0:
        row = st.text("X.o", max_size=7)
    side = st.dictionaries(st.sampled_from(["g1", "g2", "g3", "g4"]), row, max_size=4)
    return {"attributes": attributes, "positive": draw(side), "negative": draw(side)}


@st.composite
def _cxt_text(draw):
    objects = draw(_distinct(["g1", "g2", "g3", "g4"]))
    attributes = draw(_attributes)
    rows = [draw(st.text("X.", min_size=len(attributes), max_size=len(attributes)))
            for _ in objects]
    lines = ["B", "", str(len(objects)), str(len(attributes)), "", *objects, *attributes, *rows]
    return "\n".join(lines) + "\n"


@st.composite
def _dimacs_text(draw):
    clauses = draw(st.lists(st.lists(st.integers(-4, 4), max_size=3), max_size=4))
    count = draw(st.sampled_from([len(clauses), 1]))
    body = "".join(" ".join(map(str, c)) + " 0\n" for c in clauses)
    return f"p cnf {draw(st.integers(0, 4))} {count}\n" + body


_tokens = st.lists(st.sampled_from(["B", "X", ".", "p", "cnf", "c", "0", "1", "-2", "x", "\n"]),
                   max_size=12).map(" ".join)


def _file(good, bad):
    """File text: five times in six from good, else from bad."""
    return st.integers(0, 5).flatmap(lambda i: good if i else bad)


def _json_file(doc):
    return _file(doc.map(json.dumps), _any_json.map(json.dumps) | _broken_json)


_FILES = {
    "cxt": _file(_cxt_text(), _tokens),
    "cnf": _file(_dimacs_text(), _tokens),
    "poset": _json_file(_poset_doc()),
    # Few small members over a, b and c, so that a verb often accepts the family.
    "family": _json_file(st.lists(_distinct(NAMES[:3]), max_size=3)),
    "training": _json_file(_training_doc()),
    "base": _json_file(
        st.lists(st.fixed_dictionaries({"premise": _names, "conclusion": _names}), max_size=3)
    ),
}

# verb: (subverbs, [(flag, a file kind, a strategy for the flag's value, or None)])
_VERBS = {
    "ctx": (["concepts", "reduce", "close"],
            [("--context", "cxt"), ("--set", _names.map(",".join))]),
    "hypo": (["minimal", "all", "classify", "amh"],
             [("--pos", "cxt"), ("--neg", "cxt"), ("--train", "training"),
              ("--k", st.sampled_from(["0", "1", "2", "-1", "x"])),
              ("--intent", _names.map(",".join)), ("--hyps", "family")]),
    "dual": (["test", "brute", "dualize"],
             [("--poset", "poset"), ("--a", "family"), ("--b", "family"), ("--oracle", None)]),
    "reduce": (["sat2amh", "dci2mibr"],
               [("--cnf", "cnf"), ("--context", "cxt"), ("--a", "family"), ("--b", "family"),
                ("--base", "base")]),
}


@st.composite
def _cli_call(draw):
    """(argv, files, guard): the files are named in argv and written by the
    test; guard is a LATTICE_DUAL_GUARD value or None."""
    verb = draw(st.sampled_from(sorted(_VERBS)))
    subverbs, options = _VERBS[verb]
    argv = ["--strict-exit"] * draw(st.booleans()) + [verb, draw(st.sampled_from(subverbs))]
    files = {}
    for flag, value in options:
        if not draw(st.integers(0, 7)):  # leave out one flag in eight
            continue
        if value is None:
            argv.append(flag)
        elif isinstance(value, str):
            name = f"{flag[2:]}.{value}"
            files[name] = draw(_FILES[value])
            argv += [flag, name]
        else:
            argv += [flag, draw(value)]
    return argv, files, draw(st.sampled_from([None, None, None, "0", "1", "-1", "x"]))


def _refuse_non_finite(text):
    raise ValueError(f"{text} on stdout is not JSON")


@settings(max_examples=200, deadline=None)
@given(call=_cli_call())
def test_fuzz_main_keeps_its_exit_and_stdout_contract(tmp_path_factory, call):
    """Whatever the files and flags, main returns 0, 2 or 3 (1 only under
    --strict-exit) without raising, and prints nothing or one JSON document."""
    argv, files, guard = call
    directory = tmp_path_factory.getbasetemp() / "fuzz"  # each example rewrites its files
    directory.mkdir(exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
    argv = [str(directory / a) if a in files else a for a in argv]
    # Patching os.environ copies it, so it is patched only when needed.
    env = contextlib.nullcontext() if guard is None else mock.patch.dict(
        os.environ, {"LATTICE_DUAL_GUARD": guard})
    out, err = io.StringIO(), io.StringIO()
    with env, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    strict = argv[0] == "--strict-exit"
    event(f"{argv[strict]} exit {code}")
    assert code in (0, 2, 3) or (code == 1 and strict), (argv, err.getvalue())
    if out.getvalue():
        assert out.getvalue().count("\n") == 1 and out.getvalue().endswith("\n")
        json.loads(out.getvalue(), parse_constant=_refuse_non_finite)
