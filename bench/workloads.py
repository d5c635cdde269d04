"""The four workloads: seeded task lists with reference answers.

Building a workload is the benchmark's set-up: it generates inputs from the
seed, computes each task's reference answer, and (for cli) writes the input
files.  A task's ``run`` receives nothing but those inputs and calls the
library through the package namespace, looked up at call time, so that the
traced run sees it through the wrappers.  ``check`` judges the result
outside the timed interval.

Why each workload is there, with numbers measured when it was defined, is
recorded in BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Optional

import lattice_dual as ld

import gen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    # Set on tasks whose result is test_duality_stats' (dual, nodes).
    duality: bool = False
    # CLI arguments, for tasks that run the CLI in a child process.
    argv: Optional[list] = None


def names(prefix: str, n: int) -> list:
    return [f"{prefix}{i}" for i in range(1, n + 1)]


def same_family(result, universe, want: set) -> bool:
    """The library's sets, as masks over `universe`, are exactly `want`."""
    masks = [gen.mask_of(s, universe) for s in result]
    return len(masks) == len(want) and set(masks) == want


def typical(rng: random.Random, draw, size, k: int = 5):
    """Of k seeded draws, the one of median size.

    The cost of a large random instance spreads widely from draw to draw;
    where a few such instances take most of a pass, this keeps the pass
    time from following the seed.
    """
    return sorted((draw(rng) for _ in range(k)), key=size)[k // 2]


# -- dual-matching and dual-wide -----------------------------------------


def dual_task(kind: str, poset: gen.MaskPoset, fam_a, fam_b, expected: bool) -> Task:
    elements, pairs = poset.names, poset.pairs
    a = [gen.members(m, elements) for m in fam_a]
    b = [gen.members(m, elements) for m in fam_b]

    def run():
        inst = ld.DualityInstance(ld.Poset.from_pairs(elements, pairs), a, b)
        return ld.test_duality_stats(inst)

    return Task(kind, run, lambda r: r[0] is expected, duality=True)


def dual_matching(seed: int, tiny: bool, workdir: str) -> list:
    rng = random.Random(seed)
    tasks = []
    for k in range(2, 5 if tiny else 10):
        poset, fam_a, fam_b = gen.matching(k)
        tasks.append(dual_task("matching", poset, fam_a, fam_b, True))
        drop = rng.randrange(len(fam_b))
        tasks.append(
            dual_task("near-dual", poset, fam_a, fam_b[:drop] + fam_b[drop + 1 :], False)
        )
    # Small matchings, each on element names of its own.  Their cost does
    # not depend on the seed, and k=2 costs about as much as the median
    # task and k=3 about as much as the 90th percentile, so these blocks
    # hold p50 and p90 near their middles: the percentiles then move with
    # the library's speed, not with the draw of the fillers around them.
    for k, copies in ((2, 4), (3, 2)) if tiny else ((2, 400), (3, 150)):
        _, fam_a, fam_b = gen.matching(k)
        for copy in range(copies):
            poset = gen.MaskPoset([f"k{k}c{copy}e{i}" for i in range(1, 2 * k + 1)], [])
            tasks.append(dual_task("small-matching", poset, fam_a, fam_b, True))
    # Fillers: planted dual instances, each with a near-dual twin that lacks
    # one B-member, and for every second one a random instance, which mostly
    # rejects at the first node.  Poset sizes are stratified (the same count
    # at each n from 10 to 14).
    for i in range(10 if tiny else 400):
        n = 10 + i % 5
        poset, fam_a, fam_b = gen.planted_instance(rng, n, 6, n)
        tasks.append(dual_task("planted", poset, fam_a, fam_b, True))
        if fam_b:
            drop = rng.randrange(len(fam_b))
            twin = fam_b[:drop] + fam_b[drop + 1 :]
            tasks.append(dual_task("planted-twin", poset, fam_a, twin, gen.is_dual(poset, fam_a, twin)))
        if i % 2 == 0:
            poset, fam_a, fam_b = gen.random_instance(rng, n, 6, n)
            tasks.append(dual_task("random", poset, fam_a, fam_b, gen.is_dual(poset, fam_a, fam_b)))
    return tasks


def chain_task(rng: random.Random, n: int) -> Task:
    elements = names("c", n)
    order = elements[:]
    rng.shuffle(order)
    pairs = list(zip(order, order[1:]))

    def check(poset) -> bool:
        # A partial order holding every cover pair and exactly n(n+1)/2
        # comparabilities is the chain itself.
        return all(poset.leq(a, b) for a, b in pairs) and sum(
            len(poset.up_set(e)) for e in elements
        ) == n * (n + 1) // 2

    return Task("chain", lambda: ld.Poset.from_pairs(elements, pairs), check)


def dual_wide(seed: int, tiny: bool, workdir: str) -> list:
    rng = random.Random(seed)
    tasks = []
    # Sizes step by 5 so that the top tenth of latencies is a dense ladder
    # of these tasks and the chains below: p90 then never sits in a gap.
    for n in (20, 30) if tiny else range(20, 101, 5):
        tasks.append(dual_task("trivial", gen.antichain(n), [1 << i for i in range(n)], [0], True))
    # Dropping singleton i costs about 2i nodes, so these stay at n <= 30,
    # below every task of the ladder.
    for n in (20,) if tiny else range(20, 31):
        singletons = [1 << i for i in range(n)]
        del singletons[rng.randrange(n)]
        tasks.append(dual_task("missing-a", gen.antichain(n), singletons, [0], False))
    for n in (20,) if tiny else range(20, 101):
        tasks.append(dual_task("missing-b", gen.antichain(n), [1 << i for i in range(n)], [], False))
    # On the ladder alone the median moves a few percent per rank; copies of
    # the n=60 instance, each on element names of its own, hold p50.
    for copy in range(2 if tiny else 40):
        poset = gen.MaskPoset([f"c{copy}e{i}" for i in range(1, 61)], [])
        tasks.append(dual_task("missing-b", poset, [1 << i for i in range(60)], [], False))
    for n in (100,) if tiny else range(100, 301, 50):
        tasks.append(chain_task(rng, n))
    return tasks


# -- closure -------------------------------------------------------------


def context_args(rows, n_att: int, prefix: str = "g"):
    """(objects, attributes, intents by name) of a context given by rows."""
    attrs = names("m", n_att)
    return names(prefix, len(rows)), attrs, [gen.members(r, attrs) for r in rows]


def concepts_task(rows, n_att: int) -> Task:
    objects, attrs, intents = context_args(rows, n_att)
    want = gen.closure_system(rows, n_att)

    def run():
        return ld.FormalContext.from_intents(objects, attrs, intents).intents()

    return Task("concepts", run, lambda r: same_family(r, attrs, want))


def hypotheses_task(pos_rows, neg_rows, n_att: int, method: str) -> Task:
    pos = context_args(pos_rows, n_att, "p")
    neg = context_args(neg_rows, n_att, "n")
    attrs = pos[1]
    want = set(gen.minimal_hypotheses(pos_rows, neg_rows, n_att))

    def run():
        t = ld.TrainingContext(
            ld.FormalContext.from_intents(*pos), ld.FormalContext.from_intents(*neg)
        )
        return ld.minimal_hypotheses(t, 0, method=method)

    return Task(f"hyp-{method}", run, lambda r: same_family(r, attrs, want))


def hypothesis_count(pos_rows, neg_rows, n_att: int) -> int:
    """Positive intents inside no negative row."""
    return sum(
        1 for h in gen.closure_system(pos_rows, n_att) if not any(h & ~r == 0 for r in neg_rows)
    )


def is_base_task(rng: random.Random, n: int, broken: bool) -> Task:
    """Base recognition on the contraordinal context of a random poset.

    Its intents are the poset's downsets, and {q} -> lower covers of q over
    the non-minimal q is a base.  The broken variant drops the implication
    of the last non-minimal element, so the first failing subset sits at a
    fixed depth of the lectic sweep rather than at a seed-chosen one.  The
    poset has the median number of downsets of five draws.
    """
    poset = typical(rng, lambda r: gen.random_poset(r, n, n), lambda p: len(p.downsets()))
    elements = poset.names
    full = (1 << n) - 1
    rows = [gen.members(full & ~poset.up(i), elements) for i in range(n)]
    base = [
        ([elements[q]], gen.members(poset.lower_covers(q), elements))
        for q in range(n)
        if poset.lower_covers(q)
    ]
    if broken:
        base = base[:-1]

    def run():
        ctx = ld.FormalContext.from_intents(elements, elements, rows)
        return ld.is_base(ctx, [ld.Implication(p, c) for p, c in base])

    return Task("is-base", run, lambda r: r is (not broken))


def closure(seed: int, tiny: bool, workdir: str) -> list:
    rng = random.Random(seed)
    # Contexts on both sides of the 16-attribute switch between closing
    # every subset and NextClosure in FormalContext.intent_masks.  With 40
    # objects the cost of a shape varies little with the seed, so the 40x14
    # block holds p90.  The 40x11 block holds p50 near its middle: about as
    # many tasks cost less (the 40x9 block and the small hypothesis and
    # base tasks) as cost more.
    shapes = [(10, 16), (40, 16), (40, 17), (60, 22)] * 2
    shapes += [(40, 14)] * 12 + [(40, 9)] * 30 + [(40, 11)] * 100
    # Above 13 attributes a context's cost follows its number of intents,
    # which spreads widely: those contexts have the median count of five.
    tasks = []
    for n_obj, n_att in [(10, 8), (10, 9), (30, 17)] if tiny else shapes:
        if n_att > 13:
            rows = typical(rng, lambda r: gen.random_rows(r, n_obj, n_att),
                           lambda rows: len(gen.closure_system(rows, n_att)))
        else:
            rows = gen.random_rows(rng, n_obj, n_att)
        tasks.append(concepts_task(rows, n_att))
    # One 20x12 context costs 0.15-0.9 s under method="iterate", so iterate
    # runs on the worked example and four 20x10 contexts, each with the
    # median number of hypotheses of five draws; 20x12 to 20x14 run the
    # oracle.
    trainings = [(gen.WORKED_POS, gen.WORKED_NEG, gen.WORKED_ATTRS)]
    for n_att in (6, 8) if tiny else (10, 10, 10, 10, 12, 13, 14):
        trainings.append((*typical(
            rng,
            lambda r: (gen.random_rows(r, 20, n_att), gen.random_rows(r, 20, n_att)),
            lambda t: hypothesis_count(*t, n_att),
        ), n_att))
    for pos_rows, neg_rows, n_att in trainings:
        for method in ("oracle", "iterate") if n_att <= 10 else ("oracle",):
            tasks.append(hypotheses_task(pos_rows, neg_rows, n_att, method))
    for n in (8,) if tiny else (12, 14, 16):
        for broken in (False, True):
            tasks.append(is_base_task(rng, n, broken))
    return tasks


# -- cli -----------------------------------------------------------------


def canon(doc):
    """Order-free form of a JSON document, for comparing CLI output with
    the library's answer."""
    if isinstance(doc, dict):
        return tuple(sorted((k, canon(v)) for k, v in doc.items()))
    if isinstance(doc, (list, tuple, set, frozenset)):
        return tuple(sorted((canon(x) for x in doc), key=repr))
    return doc


def cli_env() -> dict:
    env = dict(os.environ)
    env.pop("LATTICE_DUAL_GUARD", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_task(kind: str, argv: list, code: int, expected) -> Task:
    """``python -m lattice_dual ARGV``; `expected` None means empty stdout."""
    env = cli_env()

    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "lattice_dual", *argv],
            capture_output=True, text=True, env=env, cwd=ROOT,
        )
        return proc.returncode, proc.stdout

    def check(result) -> bool:
        got_code, out = result
        if got_code != code:
            return False
        if expected is None:
            return out == ""
        return canon(json.loads(out)) == canon(expected)

    return Task(kind, run, check, argv=argv)


class Files:
    """Input files of one round, named <tag>-<name> in the work directory."""

    def __init__(self, workdir: str, tag: str):
        self.workdir, self.tag = workdir, tag

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, f"{self.tag}-{name}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path

    def json(self, name: str, doc) -> str:
        return self.write(name, json.dumps(doc))


def cli_round(rng: random.Random, files: Files) -> list:
    """One input set for each of the twelve verb/subverb pairs, with the
    library's answer to each computed in-process as the reference."""
    text = gen.cxt_text(names("g", 8), names("m", 8), gen.random_rows(rng, 8, 8))
    cxt, ctx = files.write("k.cxt", text), ld.parse_cxt(text)
    closing = gen.members(rng.getrandbits(8) & rng.getrandbits(8), names("m", 8))
    tasks = [
        cli_task("ctx-concepts", ["ctx", "concepts", "--context", cxt], 0,
                 [{"extent": c.extent, "intent": c.intent} for c in ctx.concepts()]),
        cli_task("ctx-reduce", ["ctx", "reduce", "--context", cxt], 0,
                 {"cxt": ld.write_cxt(ld.reduce_context(ctx))}),
        cli_task("ctx-close", ["ctx", "close", "--context", cxt, "--set", ",".join(closing)], 0,
                 ctx.close_attributes(closing)),
    ]

    pos_text = gen.cxt_text(names("p", 6), names("m", 6), gen.random_rows(rng, 6, 6))
    neg_text = gen.cxt_text(names("n", 6), names("m", 6), gen.random_rows(rng, 6, 6))
    pos, neg = files.write("pos.cxt", pos_text), files.write("neg.cxt", neg_text)
    t = ld.TrainingContext(ld.parse_cxt(pos_text), ld.parse_cxt(neg_text))
    train = files.json("train.json", ld.training_to_json(t))
    minimal = ld.minimal_hypotheses(t)
    known = minimal[:-1]
    hyps = files.json("hyps.json", [sorted(h) for h in known])
    intent = gen.members(rng.getrandbits(6), names("m", 6))
    classified = ld.classify(intent, minimal, ld.minimal_hypotheses(t.swapped()))
    tasks += [
        cli_task("hypo-minimal", ["hypo", "minimal", "--pos", pos, "--neg", neg], 0, minimal),
        cli_task("hypo-all", ["hypo", "all", "--train", train], 0, ld.enumerate_hypotheses(t)),
        cli_task("hypo-classify", ["hypo", "classify", "--pos", pos, "--neg", neg,
                                   "--intent", ",".join(intent)], 0,
                 {"classification": classified}),
        cli_task("hypo-amh", ["hypo", "amh", "--train", train, "--hyps", hyps], 0,
                 {"additional": ld.decide_amh(t, known)}),
    ]

    poset, fam_a, fam_b = gen.planted_instance(rng, 8, 4)
    if fam_b and rng.random() < 0.5:
        del fam_b[rng.randrange(len(fam_b))]
    p_doc = {"elements": poset.names, "less_than": [list(p) for p in poset.pairs]}
    a_list = [gen.members(m, poset.names) for m in fam_a]
    b_list = [gen.members(m, poset.names) for m in fam_b]
    dual_args = ["--poset", files.json("p.json", p_doc), "--a", files.json("a.json", a_list)]
    b_file = files.json("b.json", b_list)
    lib_poset = ld.poset_from_json(p_doc)
    inst = ld.DualityInstance(lib_poset, a_list, b_list)
    dual, nodes = ld.test_duality_stats(inst)
    verdict = ld.brute_force_dual(inst)
    tasks += [
        cli_task("dual-test", ["dual", "test", *dual_args, "--b", b_file], 0,
                 {"dual": dual, "witness": None, "recursive_calls": nodes}),
        cli_task("dual-brute", ["dual", "brute", *dual_args, "--b", b_file], 0,
                 {"dual": verdict.dual, "witness": verdict.witness, "recursive_calls": 0}),
        cli_task("dual-dualize", ["dual", "dualize", *dual_args], 0,
                 ld.dualize_brute(a_list, lib_poset)),
    ]

    n_vars, clauses = gen.random_cnf(rng, 4, 5)
    dimacs = f"p cnf {n_vars} {len(clauses)}\n" + "".join(
        " ".join(map(str, c)) + " 0\n" for c in clauses
    )
    training, clause_hyps = ld.sat_to_amh(ld.Cnf(n_vars, clauses))
    tasks.append(
        cli_task("reduce-sat2amh", ["reduce", "sat2amh", "--cnf", files.write("f.cnf", dimacs)], 0,
                 {"training": ld.training_to_json(training), "minimal_hypotheses": clause_hyps})
    )

    # Base recognition input: the contraordinal context of a small poset,
    # whose intents are its downsets, with {q} -> lower covers of q as base.
    small, fam_a, fam_b = gen.planted_instance(rng, 5, 3)
    elements = small.names
    full = (1 << len(elements)) - 1
    text = gen.cxt_text(elements, elements, [full & ~small.up(i) for i in range(len(elements))])
    base = [
        {"premise": [elements[q]], "conclusion": gen.members(small.lower_covers(q), elements)}
        for q in range(len(elements))
        if small.lower_covers(q)
    ]
    a_list = [gen.members(m, elements) for m in fam_a]
    b_list = [gen.members(m, elements) for m in fam_b]
    built, extended = ld.dci_to_mibr(
        ld.parse_cxt(text), a_list, b_list,
        [ld.Implication(i["premise"], i["conclusion"]) for i in base],
    )
    tasks.append(
        cli_task("reduce-dci2mibr",
                 ["reduce", "dci2mibr", "--context", files.write("dk.cxt", text),
                  "--a", files.json("da.json", a_list), "--b", files.json("db.json", b_list),
                  "--base", files.json("base.json", base)], 0,
                 {"context_cxt": ld.write_cxt(built),
                  "implications": [{"premise": i.premise, "conclusion": i.conclusion}
                                   for i in extended]})
    )
    return tasks


def cli(seed: int, tiny: bool, workdir: str) -> list:
    rng = random.Random(seed)
    tasks = []
    for r in range(1 if tiny else 9):
        tasks += cli_round(rng, Files(workdir, f"r{r}"))
    # A "no" answer under --strict-exit exits 1; a malformed file exits 2.
    files = Files(workdir, "x")
    attrs = names("m", gen.WORKED_ATTRS)
    pos = files.write("pos.cxt", gen.cxt_text(names("p", 6), attrs, gen.WORKED_POS))
    neg = files.write("neg.cxt", gen.cxt_text(names("n", 3), attrs, gen.WORKED_NEG))
    known = [
        gen.members(h, attrs)
        for h in gen.minimal_hypotheses(gen.WORKED_POS, gen.WORKED_NEG, gen.WORKED_ATTRS)
    ]
    tasks.append(
        cli_task("strict-no", ["--strict-exit", "hypo", "amh", "--pos", pos, "--neg", neg,
                               "--hyps", files.json("hyps.json", known)], 1,
                 {"additional": False})
    )
    bad = files.write("bad.cxt", "Q\n\n1\n1\n\ng1\nm1\nX\n")
    tasks.append(cli_task("malformed", ["ctx", "concepts", "--context", bad], 2, None))
    return tasks


WORKLOADS = {
    "dual-matching": dual_matching,
    "dual-wide": dual_wide,
    "closure": closure,
    "cli": cli,
}
