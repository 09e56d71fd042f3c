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
import contextlib
import functools
import json
import random
import sys

from . import automaton as am
from . import treeaction as ta
from .constructions import verify_relation
from .linalg import bounded_int, echo
from .nadic import AffineMap, DigitWord, affine_apply_prefix


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
    stats = {"states": len(aut.labels), "bound": am.state_count_bound(mats)}
    text = "states={states}, bound=2^d*sum||Mi||^d={bound}".format(**stats)
    with open(args.output, "w", encoding="utf-8") if args.output else contextlib.nullcontext(sys.stdout) as f:
        f.writelines(am.json_pieces(aut))  # a state at a time: the text is never held whole
        f.write("\n")
    if args.output:
        stats["output"] = args.output
    _emit(args, text, stats, sys.stdout if args.output else sys.stderr)  # the stream the document is not on
    return 0


def _cmd_act(args) -> int:
    aut = _read(args.automaton, am.from_json)
    w = ta.parse_word(aut, args.word)
    u = DigitWord.parse(args.input, aut.n, aut.d)
    image = w.act(u)
    _emit(args, image.format(), {"output": image.format()})
    return 0


def _cmd_wp(args) -> int:
    budget = bounded_int(args.budget, "--budget", 1)
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
    budget = bounded_int(args.budget, "--budget", 1)
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
    bounded_int(args.depth, "--depth", 1, ta.MAX_WORD_CODES)
    bounded_int(args.samples, "--samples", 1)
    aut = _read(args.automaton, am.from_json)
    rng = random.Random(args.seed)
    mismatches = 0
    checked = 0
    first = None
    for sid, (mi, v) in enumerate(aut.labels):
        f = AffineMap(aut.matrices[mi], v)
        w = ta.GroupWord(aut, (sid,))
        for _ in range(args.samples):
            k = rng.randint(1, args.depth)
            u = DigitWord(tuple(rng.choice(aut.letters) for _ in range(k)), aut.n, aut.d)
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


def _int(text: str) -> int:
    "argparse's int type, echoing a bad value as every other error message does."
    try:
        return int(text)
    except ValueError:  # also a digit string past the interpreter's conversion limit
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


@functools.cache  # built once per process; parsing leaves the parser unchanged
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="adicaut",
        description="Build and compute with transducers realizing affine maps on base-n digit words.")
    sub = p.add_subparsers(dest="command", required=True)

    shared = {  # the arguments more than one command takes, each with its one help text
        "--matrices": dict(required=True, help="JSON file: list of square integer matrices (row-major)"),
        "--n": dict(required=True, type=_int, help="base, >= 2, coprime to every determinant"),
        "--alphabet-cap": dict(type=_int, default=am.DEFAULT_ALPHABET_CAP,
                               help="refuse alphabets larger than this (default %(default)s)"),
        "--automaton": dict(required=True, help="automaton JSON file"),
        "--word": dict(required=True, help="word grammar: m[i]:(v1,...,vd), t[j], t[j]@i, with optional ^k; "
                                           "separated by * or spaces"),
        "--budget": dict(type=_int, default=ta.DEFAULT_NODE_BUDGET,
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
    v.add_argument("--depth", required=True, type=_int, help="maximum prefix length")
    v.add_argument("--samples", required=True, type=_int, help="random prefixes per state")
    v.add_argument("--seed", type=_int, default=0)
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
    except (ValueError, OSError) as e:  # an OSError's own text repeats the whole file name
        text = f"[Errno {e.errno}] {e.strerror}: {echo(e.filename)}" if getattr(e, "filename", None) is not None else e
        print(f"error: {text}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
