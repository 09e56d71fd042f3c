"""Command-line front end.

Commands: `build` a transducer union from a matrix file, `act` with a word
on a digit word, `wp` decide the word problem, `relations` check the
conjugation relators for every (matrix, axis), `verify` sample-check the
transducer action against the big-integer affine oracle and name the first
mismatch.

Exit codes: 0 success (including a NONTRIVIAL word-problem answer),
2 invalid input, 3 alphabet cap exceeded, 4 node budget exhausted,
5 verification or relation failure.

The node budget defaults to 10**6 visited words, overridable with
--budget.  All randomness is seeded (--seed, default 0) and echoed, so runs
are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from . import automaton as am
from . import treeaction as ta
from .constructions import verify_relation
from .nadic import AffineMap, DigitWord, affine_apply_prefix


def _budget(args) -> int:
    "The node budget from --budget (default DEFAULT_NODE_BUDGET); must be >= 1."
    if args.budget < 1:
        raise ValueError(f"--budget {args.budget}: the node budget must be at least 1")
    return args.budget


def _emit(args, text: str, obj: dict, file=None):
    "Print text, or obj as JSON under --json, to file (stdout by default)."
    print(json.dumps(obj, sort_keys=True) if args.json else text, file=file)


def _read(path: str, parse):
    "parse(text of the UTF-8 file at path); a ValueError names the file."
    with open(path, encoding="utf-8") as f:
        try:
            return parse(f.read())
        except ValueError as e:  # a FormatError, or text that is not valid in the file's encoding
            raise am.FormatError(f"{path}: {e}") from None


def _cmd_build(args) -> int:
    mats = _read(args.matrices, am.read_matrices)
    aut = am.build_union(mats, args.n, alphabet_cap=args.alphabet_cap)
    bound = am.state_count_bound(mats)
    payload = am.to_json(aut)
    text = f"states={len(aut.labels)}, bound=2^d*sum||Mi||^d={bound}"
    stats = {"states": len(aut.labels), "bound": bound}
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(payload + "\n")
        _emit(args, text, {**stats, "output": args.output})
    else:
        print(payload)
        _emit(args, text, stats, sys.stderr)
    return 0


def _cmd_act(args) -> int:
    aut = _read(args.automaton, am.from_json)
    w = ta.parse_word(aut, args.word)
    u = DigitWord.parse(args.input, aut.n, aut.d)
    image = w.act(u)
    _emit(args, image.format(), {"output": image.format()})
    return 0


def _cmd_wp(args) -> int:
    budget = _budget(args)
    aut = _read(args.automaton, am.from_json)
    w = ta.parse_word(aut, args.word)
    try:
        answer, visited = ta.decide_identity(w, budget)
    except ta.BudgetExceededError as e:
        _emit(args, f"BUDGET-EXCEEDED visited={e.visited}",
              {"result": "BUDGET-EXCEEDED", "visited": e.visited})
        return 4
    result = "IDENTITY" if answer else "NONTRIVIAL"
    _emit(args, f"{result} visited={visited}", {"result": result, "visited": visited})
    return 0


def _cmd_relations(args) -> int:
    budget = _budget(args)
    mats = _read(args.matrices, am.read_matrices)
    aut = am.build_union(mats, args.n, alphabet_cap=args.alphabet_cap)
    outcomes = set()
    for mi in range(len(aut.matrices)):
        for axis in range(1, aut.d + 1):
            r = verify_relation(aut, mi, axis, budget)
            result = r.outcome.upper()
            _emit(args, f"M[{mi}] j={axis} {result} visited={r.visited}",
                  {"matrix": mi, "axis": axis, "result": result, "visited": r.visited})
            outcomes.add(r.outcome)
    return 4 if "budget-exceeded" in outcomes else 5 if "fail" in outcomes else 0


def _cmd_verify(args) -> int:
    for flag, value in (("--depth", args.depth), ("--samples", args.samples)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    if args.depth > ta.MAX_WORD_CODES:
        raise ValueError(f"--depth must be at most {ta.MAX_WORD_CODES}, got {args.depth}")
    aut = _read(args.automaton, am.from_json)
    rng = random.Random(args.seed)
    letters = [aut.letter_digits(i) for i in range(aut.alphabet_size)]
    mismatches = 0
    checked = 0
    first = None
    for sid, (mi, v) in enumerate(aut.labels):
        f = AffineMap(aut.matrices[mi], v)
        w = ta.GroupWord(aut, (sid,))
        for _ in range(args.samples):
            k = rng.randint(1, args.depth)
            u = DigitWord(tuple(rng.choice(letters) for _ in range(k)), aut.n, aut.d)
            checked += 1
            image, expected = w.act(u), affine_apply_prefix(f, u)
            if image != expected:
                mismatches += 1
                if first is None:
                    first = {"state": w.format(), "input": u.format(),
                             "automaton": image.format(), "oracle": expected.format()}
    obj = {"mismatches": mismatches, "checked": checked, "seed": args.seed}
    if first:
        obj["first_mismatch"] = first
        if not args.json:
            print("first mismatch: state {state}, input {input!r}, automaton {automaton!r}, oracle {oracle!r}"
                  .format(**first), file=sys.stderr)
    _emit(args, f"mismatches={mismatches} checked={checked} seed={args.seed}", obj)
    return 5 if mismatches else 0


@functools.cache  # built once per process; parsing leaves the parser unchanged
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adicaut",
        description="Build and compute with transducers realizing affine maps on base-n digit words.")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {  # the arguments more than one command takes, each with its one help text
        "--matrices": dict(required=True, help="JSON file: list of square integer matrices (row-major)"),
        "--n": dict(required=True, type=int, help="base, >= 2, coprime to every determinant"),
        "--alphabet-cap": dict(type=int, default=am.DEFAULT_ALPHABET_CAP,
                               help="refuse alphabets larger than this (default %(default)s)"),
        "--automaton": dict(required=True, help="automaton JSON file"),
        "--word": dict(required=True, help="word grammar: m[i]:(v1,...,vd), t[j], t[j]@i, with optional ^k; "
                                           "separated by * or spaces"),
        "--budget": dict(type=int, default=ta.DEFAULT_NODE_BUDGET,
                         help="node budget for the closure search (default %(default)s)"),
        "--json": dict(action="store_true", help="machine-readable output, one JSON object per line"),
    }

    def add(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    b = sub.add_parser("build", help="build the disjoint-union transducer for a matrix family")
    add(b, "--matrices", "--n", "--alphabet-cap")
    b.add_argument("-o", "--output", help="write automaton JSON here instead of stdout")
    add(b, "--json")
    b.set_defaults(func=_cmd_build)

    a = sub.add_parser("act", help="apply a word to a digit word")
    add(a, "--automaton", "--word")
    a.add_argument("--input", required=True,
                   help="digit word, least significant letter first, letters space-separated, digits comma-joined")
    add(a, "--json")
    a.set_defaults(func=_cmd_act)

    w = sub.add_parser("wp", help="decide whether a word acts trivially (word problem)")
    add(w, "--automaton", "--word", "--budget", "--json")
    w.set_defaults(func=_cmd_wp)

    r = sub.add_parser("relations", help="check the conjugation relator for every (matrix, axis)")
    add(r, "--matrices", "--n", "--alphabet-cap", "--budget", "--json")
    r.set_defaults(func=_cmd_relations)

    v = sub.add_parser("verify", help="sample-check the action against the big-integer affine oracle")
    add(v, "--automaton")
    v.add_argument("--depth", required=True, type=int, help="maximum prefix length")
    v.add_argument("--samples", required=True, type=int, help="random prefixes per state")
    v.add_argument("--seed", type=int, default=0)
    add(v, "--json")
    v.set_defaults(func=_cmd_verify)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except am.AlphabetCapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
