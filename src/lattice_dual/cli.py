"""Command-line entry point.

One binary, verb-subverb structure.  stdout carries exactly one JSON
document; diagnostics go to stderr.  Exit codes: 0 answer produced,
1 decision answered "no" under --strict-exit, 2 input error, 3 guard
exceeded.  The LATTICE_DUAL_GUARD environment variable overrides the
enumeration guards.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .util import GuardExceeded, family_key, is_name_list


def _read(path: str) -> str:
    """The file's text, line ends as written; "utf-8-sig" drops one leading byte-order mark."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def _read_json(path: str):
    """The file's JSON document.  NaN, Infinity and numbers beyond a float
    (1e400) are refused: json.dumps would echo them as no JSON at all."""

    def finite(text: str) -> float:
        if math.isfinite(value := float(text)):
            return value
        raise ValueError(f"{path}: non-finite number {text} in JSON")

    try:
        return json.loads(_read(path), parse_constant=finite, parse_float=finite)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _read_family(path: str) -> list:
    """A family of attribute sets: a JSON list of lists of names."""
    doc = _read_json(path)
    if not isinstance(doc, list) or not all(is_name_list(s, str) for s in doc):
        raise ValueError(f"{path}: family JSON must be a list of lists of attribute names")
    return [frozenset(s) for s in doc]


def _parse_set(raw: str) -> list:
    if raw is None or raw == "":
        return []
    return [part.strip() for part in raw.split(",")]


def _emit(doc) -> None:
    sys.stdout.write(json.dumps(doc) + "\n")


def _load_context(path: str):
    from .context import parse_cxt

    return parse_cxt(_read(path))


def _load_training(args):
    from .hypotheses import TrainingContext, training_from_json

    if getattr(args, "train", None):
        return training_from_json(_read_json(args.train))
    if not (args.pos and args.neg):
        raise ValueError("provide either --train or both --pos and --neg")
    return TrainingContext(_load_context(args.pos), _load_context(args.neg))


def _as_list(codec, names) -> list:
    """A set of names as a JSON list, in universe order."""
    return codec.decode(codec.encode(names))


def _family(codec, family) -> list:
    """Sets of names as JSON lists, in the family order."""
    return [codec.decode(m) for m in sorted(map(codec.encode, family), key=family_key)]


# -- verb handlers -----------------------------------------------------
# Each handler imports the layers its verb runs, so a call loads no other.


def _run_ctx(args) -> int:
    from .context import reduce_context, write_cxt

    ctx = _load_context(args.context)
    if args.subverb == "concepts":
        _emit(
            [
                {
                    "extent": _as_list(ctx._ocodec, c.extent),
                    "intent": _as_list(ctx._acodec, c.intent),
                }
                for c in ctx.concepts()
            ]
        )
    elif args.subverb == "reduce":
        _emit({"cxt": write_cxt(reduce_context(ctx))})
    elif args.subverb == "close":
        closed = ctx.close_attributes(_parse_set(args.set))
        _emit(_as_list(ctx._acodec, closed))
    return 0


def _run_hypo(args) -> int:
    from .hypotheses import classify, decide_amh, enumerate_hypotheses, minimal_hypotheses

    training = _load_training(args)
    codec = training.positive._acodec
    if args.subverb == "minimal":
        _emit(_family(codec, minimal_hypotheses(training, args.k)))
    elif args.subverb == "all":
        _emit(_family(codec, enumerate_hypotheses(training, args.k)))
    elif args.subverb == "classify":
        if args.intent is None:
            raise ValueError("classify needs --intent")
        intent = _as_list(codec, _parse_set(args.intent))  # unknown names are input errors
        pos = minimal_hypotheses(training, args.k)
        neg = minimal_hypotheses(training.swapped(), args.k)
        _emit({"classification": classify(intent, pos, neg)})
    elif args.subverb == "amh":
        if args.k:
            raise ValueError("amh supports only --k 0")
        if not args.hyps:
            raise ValueError("amh needs --hyps")
        known = _read_family(args.hyps)
        answer = decide_amh(training, known)
        _emit({"additional": answer})
        if args.strict_exit and not answer:
            return 1
    return 0


def _run_dual(args) -> int:
    from .duality import DualityInstance, brute_force_dual, dualize_brute, test_duality_stats
    from .poset import family_from_json, poset_from_json

    poset = poset_from_json(_read_json(args.poset))
    fam_a = family_from_json(_read_json(args.a), poset)
    if args.subverb == "dualize":
        _emit(_family(poset._codec, dualize_brute(fam_a, poset)))
        return 0
    if not args.b:
        raise ValueError(f"{args.subverb} needs --b")
    fam_b = family_from_json(_read_json(args.b), poset)
    inst = DualityInstance(poset, fam_a, fam_b)
    if args.subverb == "brute" or args.oracle:
        verdict = brute_force_dual(inst)
        witness = None if verdict.witness is None else _as_list(poset._codec, verdict.witness)
        _emit({"dual": verdict.dual, "witness": witness, "recursive_calls": 0})
        answer = verdict.dual
    else:
        answer, calls = test_duality_stats(inst)
        _emit({"dual": answer, "witness": None, "recursive_calls": calls})
    if args.strict_exit and not answer:
        return 1
    return 0


def _run_reduce(args) -> int:
    if args.subverb == "sat2amh":
        from .hypotheses import training_to_json
        from .reductions import parse_dimacs, sat_to_amh

        if not args.cnf:
            raise ValueError("sat2amh needs --cnf")
        cnf = parse_dimacs(_read(args.cnf))
        training, known = sat_to_amh(cnf)
        doc = {
            "training": training_to_json(training),
            "minimal_hypotheses": _family(training.positive._acodec, known),
        }
        _emit(doc)
    elif args.subverb == "dci2mibr":
        from .context import write_cxt
        from .implications import dci_to_mibr, implications_from_json, implications_to_json

        if not (args.context and args.a and args.b and args.base):
            raise ValueError("dci2mibr needs --context, --a, --b and --base")
        ctx = _load_context(args.context)
        fam_a = _read_family(args.a)
        fam_b = _read_family(args.b)
        base = implications_from_json(_read_json(args.base))
        built, extended = dci_to_mibr(ctx, fam_a, fam_b, base)
        _emit(
            {
                "context_cxt": write_cxt(built),
                "implications": implications_to_json(extended, ctx.attributes),
            }
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-dual",
        description="Dualization on lattices given by formal contexts.",
    )
    parser.add_argument(
        "--strict-exit",
        action="store_true",
        help="exit 1 when a decision verb answers no/false",
    )
    verbs = parser.add_subparsers(dest="verb", required=True)

    p_ctx = verbs.add_parser("ctx", help="formal context operations")
    p_ctx.add_argument("subverb", choices=["concepts", "reduce", "close"])
    p_ctx.add_argument("--context", required=True, help=".cxt file")
    p_ctx.add_argument("--set", default=None, help="comma-separated attribute names")

    p_hypo = verbs.add_parser("hypo", help="hypothesis operations")
    p_hypo.add_argument("subverb", choices=["minimal", "all", "classify", "amh"])
    p_hypo.add_argument("--pos", help="positive context .cxt file")
    p_hypo.add_argument("--neg", help="negative context .cxt file")
    p_hypo.add_argument("--train", help="training context JSON file")
    p_hypo.add_argument("--k", type=int, default=0, help="weakness parameter (amh takes only 0)")
    p_hypo.add_argument("--intent", default=None, help="comma-separated attributes")
    p_hypo.add_argument("--hyps", help="JSON file with known minimal hypotheses")

    p_dual = verbs.add_parser("dual", help="duality operations")
    p_dual.add_argument("subverb", choices=["test", "brute", "dualize"])
    p_dual.add_argument("--poset", required=True, help="poset JSON file")
    p_dual.add_argument("--a", required=True, help="antichain family JSON file")
    p_dual.add_argument("--b", help="antichain family JSON file")
    p_dual.add_argument("--oracle", action="store_true", help="force the brute oracle")

    p_red = verbs.add_parser("reduce", help="constructive reductions")
    p_red.add_argument("subverb", choices=["sat2amh", "dci2mibr"])
    p_red.add_argument("--cnf", help="DIMACS CNF file")
    p_red.add_argument("--context", help=".cxt file")
    p_red.add_argument("--a", help="antichain family JSON file (intents)")
    p_red.add_argument("--b", help="antichain family JSON file (intents)")
    p_red.add_argument("--base", help="implication set JSON file")

    return parser


_HANDLERS = {
    "ctx": _run_ctx,
    "hypo": _run_hypo,
    "dual": _run_dual,
    "reduce": _run_reduce,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the input-error code
        return 2 if exc.code else 0
    try:
        return _HANDLERS[args.verb](args)
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
