import copy
import json
import re

import pytest

from adicaut import (
    AffineMap,
    DigitWord,
    affine_apply_prefix,
    block_extend,
    build_union,
    from_json,
    identity,
    parse_word,
    sanov_pair,
    state_count_bound,
    to_json,
)
from adicaut.cli import main


def write_matrices(tmp_path, mats, name="mats.json"):
    p = tmp_path / name
    p.write_text(json.dumps(mats))
    return str(p)


def write_automaton(tmp_path, aut, name="aut.json"):
    p = tmp_path / name
    p.write_text(to_json(aut))
    return str(p)


def test_build_writes_automaton_and_stats(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[2]]])
    out = tmp_path / "out.json"
    code = main(["build", "--matrices", mats, "--n", "3", "-o", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "states=4, bound=2^d*sum||Mi||^d=4" in captured.out
    aut = from_json(out.read_text())
    assert len(aut.labels) == 4


def test_build_to_stdout(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[1]]])
    code = main(["build", "--matrices", mats, "--n", "2"])
    captured = capsys.readouterr()
    assert code == 0
    aut = from_json(captured.out)
    assert len(aut.labels) == 2
    assert captured.err == "states=2, bound=2^d*sum||Mi||^d=2\n"
    assert main(["build", "--matrices", mats, "--n", "2", "--json"]) == 0
    captured = capsys.readouterr()
    assert from_json(captured.out) == aut
    assert json.loads(captured.err) == {"states": 2, "bound": 2}


@pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("mats, n", [
    ([[[2]]], 3),
    ([[[1, 1], [0, 1]]], 2),
    (block_extend([identity(1), identity(1)], list(sanov_pair())), 2),
], ids=["doubling", "shear", "sanov-d3"])
def test_build_writes_stdout_and_file_through_one_path(tmp_path, capsys, monkeypatch, mats, n, flags):
    "stdout gets the pieces -o gets, and nothing joins the whole document (stdout printed to_json before)"
    aut = build_union(mats, n)
    document = to_json(aut) + "\n"

    def refuse(*_):
        raise AssertionError("build joined the whole document")
    monkeypatch.setattr("adicaut.automaton.to_json", refuse)
    path, out = write_matrices(tmp_path, mats), tmp_path / "out.json"
    assert main(["build", "--matrices", path, "--n", str(n), *flags]) == 0
    to_stdout = capsys.readouterr()
    assert main(["build", "--matrices", path, "--n", str(n), "-o", str(out), *flags]) == 0
    to_file = capsys.readouterr()
    assert to_stdout.out.encode() == out.read_bytes() == document.encode()
    stats = {"states": len(aut.labels), "bound": state_count_bound(mats)}
    assert to_file.err == ""
    if flags:
        assert json.loads(to_stdout.err) == stats
        assert json.loads(to_file.out) == {**stats, "output": str(out)}
    else:
        assert to_stdout.err == to_file.out == "states={states}, bound=2^d*sum||Mi||^d={bound}\n".format(**stats)


def test_build_non_coprime_exit_2(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[2]]])
    code = main(["build", "--matrices", mats, "--n", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "gcd=2" in captured.err


def test_build_cap_exit_3(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[1, 0], [0, 1]]])
    code = main(["build", "--matrices", mats, "--n", "3", "--alphabet-cap", "8"])
    assert code == 3
    for cap in ("0", "-1"):  # a cap below 1 refuses every alphabet
        assert main(["build", "--matrices", mats, "--n", "3", "--alphabet-cap", cap]) == 3
    capsys.readouterr()
    # a base past 4300 digits once exited 2: formatting n**d raised Python's digit-limit error
    for command in ("build", "relations"):
        assert main([command, "--matrices", mats, "--n", "1" + "0" * 3000]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alphabet size 1" + "0" * 39 + "...**2 = ")
        assert len(captured.err.encode()) < 200


def test_build_missing_file_exit_2(tmp_path, capsys):
    code = main(["build", "--matrices", str(tmp_path / "nope.json"), "--n", "2"])
    assert code == 2


@pytest.mark.parametrize("command", ["build", "relations"])
@pytest.mark.parametrize("text, message", [
    ("[5]", "matrices[0]: matrix must be a list of rows"),
    ('[[["a"]]]', "matrices[0]: vector coordinate 'a' is not an int"),
    ("[[[true]]]", "matrices[0]: vector coordinate True is not an int"),
    ("[[[1]], [[1.5]]]", "matrices[1]: vector coordinate 1.5 is not an int"),
    ("[" * 100000 + "]" * 100000, "invalid JSON"),
    ("{}", "matrices must be a nonempty list"),
    ("[]", "matrices must be a nonempty list"),
    (b"\xff", "'utf-8' codec can't decode byte 0xff"),
    ("[[[1]], [[1, 0], [0, 1]]]", "matrices[1] is 2x2, expected 1x1"),
    ("[[]]", "matrices[0]: matrices must have dimension >= 1"),
], ids=["int-entry", "str-coordinate", "bool-coordinate", "float-coordinate", "deep-nesting", "object", "empty",
        "not-utf-8", "mixed-size", "no-rows"])
def test_malformed_matrices_exit_2(tmp_path, capsys, command, text, message):
    p = tmp_path / "mats.json"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    code = main([command, "--matrices", str(p), "--n", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: {message}")


def test_build_rejects_the_removed_dedup_flag(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[1]], [[1]]])
    with pytest.raises(SystemExit) as e:
        main(["build", "--matrices", mats, "--n", "2", "--dedup"])
    assert e.value.code == 2
    assert "unrecognized arguments: --dedup" in capsys.readouterr().err


def test_a_long_file_name_is_echoed_short(tmp_path, capsys, monkeypatch):
    # OSError's own text repeats the whole name: 100041 bytes of stderr for the --automaton one
    mats = write_matrices(tmp_path, [[[2]]])
    for argv in (["wp", "--automaton", "y" * 100000, "--word", "t[1]"],
                 ["build", "--matrices", "y" * 100000, "--n", "3"],
                 ["build", "--matrices", mats, "--n", "3", "-o", str(tmp_path / ("z" * 6000))]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ") and captured.err.endswith("...\n")
        assert len(captured.err.encode()) < 200
    # a short name prints as OSError's own text, byte for byte
    monkeypatch.chdir(tmp_path)
    with pytest.raises(OSError) as info:
        open("nope.json", encoding="utf-8")
    assert main(["wp", "--automaton", "nope.json", "--word", "t[1]"]) == 2
    assert capsys.readouterr().err == f"error: {info.value}\n"


def test_act_translation(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[1]]], 3))
    code = main(["act", "--automaton", aut, "--word", "t[1]", "--input", "0 0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "1 0"


def test_act_state_word(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[2]]], 3))
    code = main(["act", "--automaton", aut, "--word", "m[0]:(0)", "--input", "2 1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "1 0"


def test_act_empty_word_echoes(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[2]]], 3))
    code = main(["act", "--automaton", aut, "--word", "", "--input", "2 1 0"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.strip() == "2 1 0"


def test_act_rejects_non_permutation_output_exit_2(tmp_path, capsys):
    obj = json.loads(to_json(build_union([[[2]]], 3)))
    obj["states"][2]["out"] = [0, 0, 0]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code = main(["act", "--automaton", str(p), "--word", "m[0]:(0)", "--input", "2 1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "states[2].out is not a permutation" in captured.err


def test_act_rejects_boolean_output_exit_2(tmp_path, capsys):
    obj = json.loads(to_json(build_union([[[2]]], 3)))
    obj["states"][2]["out"][2] = True  # the entry is 1
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code = main(["act", "--automaton", str(p), "--word", "m[0]:(0)", "--input", "2 1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "states[2].out[2] = True out of range" in captured.err


def test_wp_rejects_malformed_state_list_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    for states in ("5", "[]"):
        p.write_text('{"n": 2, "d": 1, "matrices": [[[1]]], "states": %s}' % states)
        code = main(["wp", "--automaton", str(p), "--word", "t[1]"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {p}: states must be a nonempty list\n"


def test_wp_rejects_an_alphabet_too_large_for_the_document_exit_2(tmp_path, capsys):
    p = tmp_path / "huge.json"
    p.write_text('{"n": %d, "d": 2, "matrices": [[[1, 0], [0, 1]]], '
                 '"states": [{"m": 0, "v": [0, 0], "out": [0], "next": [0]}]}' % (10 ** 2200 + 1))
    code = main(["wp", "--automaton", str(p), "--word", "t[1]"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {p}: an alphabet of n**d letters (d = 2) cannot fit")


def test_act_parse_error_exit_2(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[2]]], 3))
    assert main(["act", "--automaton", aut, "--word", "xyz", "--input", "0"]) == 2
    assert main(["act", "--automaton", aut, "--word", "t[1]", "--input", "9"]) == 2
    capsys.readouterr()
    # a long bad letter or digit is echoed cut to 40 characters; both were echoed whole, 4-5 kB to stderr
    for text, prefix in (("9" * 5000, "error: cannot parse letter '999"), ("9" * 4000, "error: digit 999")):
        assert main(["act", "--automaton", aut, "--word", "t[1]", "--input", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix)
        assert len(captured.err.encode()) < 200


@pytest.mark.parametrize("argv, token, reason", [
    (["wp", "--word", "t[1]^10000000000000000000"], "'t[1]^10000000000000000000'",
     "expands the word past 1000000 codes"),
    (["act", "--word", "m[0]:(0)^-10000000000000000000", "--input", "0"], "'m[0]:(0)^-10000000000000000000'",
     "expands the word past 1000000 codes"),
    (["wp", "--word", "t[1]^" + "9" * 5000], "'t[1]^" + "9" * 34 + "...", "has a number too long to convert"),
], ids=["wp", "act", "wp-too-long-to-convert"])
def test_huge_powers_exit_2(tmp_path, capsys, argv, token, reason):
    aut = write_automaton(tmp_path, build_union([[[2]]], 3))
    code = main([argv[0], "--automaton", aut, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: word token {token} {reason}\n"
    assert len(captured.err) < 200


DOC = json.loads(to_json(build_union([[[2]]], 3)))
BIG = "1" + "0" * 5000  # past the interpreter's int-to-str limit


def edited(edit):
    doc = copy.deepcopy(DOC)
    edit(doc)
    return doc


WP = ["wp", "--automaton", "a.json", "--word", "t[1]"]
BUILD = ["build", "--matrices", "m.json", "--n", "3"]
VERIFY = ["verify", "--automaton", "a.json", "--depth", "1", "--samples", "1"]


@pytest.mark.parametrize("files, argv, limit", [
    ({"a.json": edited(lambda o: o["states"][1].update(m="x" * 100000))}, WP, 200),
    ({"a.json": edited(lambda o: o["states"][0]["out"].__setitem__(0, list(range(50000))))}, WP, 200),
    ({"a.json": edited(lambda o: [s.update(v=[10 ** 4000]) for s in o["states"][:2]])}, WP, 200),
    ({"a.json": edited(lambda o: o.update(d=10 ** 4000))}, WP, 200),
    ({"m.json": [[["x" * 100000]]]}, BUILD, 200),
    ({"m.json": [[[10 ** 3000, 0], [0, 1]]]}, BUILD, 200),
    ({"m.json": [[[10 ** 3000, 0], [0, 1]]]}, ["relations", *BUILD[1:]], 200),
    # argparse adds its usage line to these
    ({"m.json": [[[2]]]}, [*BUILD[:-1], BIG], 300),
    ({"m.json": [[[2]]]}, [*BUILD[:-1], "x" * 5000], 300),
    ({"m.json": [[[2]]]}, [*BUILD, "--alphabet-cap", BIG], 300),
    ({"m.json": [[[2]]]}, ["relations", *BUILD[1:], "--budget", BIG], 300),
    ({"a.json": DOC}, [*WP, "--budget", BIG], 300),
    ({"a.json": DOC}, [*VERIFY[:4], BIG, *VERIFY[5:]], 300),
    ({"a.json": DOC}, [*VERIFY[:-1], BIG], 300),
    ({"a.json": DOC}, [*VERIFY, "--seed", BIG], 300),
], ids=["json-m", "json-out", "json-label", "json-d", "matrix-entry", "build-state-count", "relations-state-count",
        "n", "n-text", "alphabet-cap", "relations-budget", "wp-budget", "depth", "samples", "seed"])
def test_every_echo_keeps_stderr_short(tmp_path, capsys, monkeypatch, files, argv, limit):
    # each run once wrote kilobytes to stderr, or exited 1 with a traceback
    monkeypatch.chdir(tmp_path)  # relative names keep the path out of the byte count
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    try:
        code = main(argv)
    except SystemExit as e:  # argparse's own exit
        code = e.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.encode()) < limit and re.search(r"(.)\1{40}", captured.err) is None


def test_wp_identity(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[1, 0], [0, 1]]], 2))
    code = main(["wp", "--automaton", aut, "--word", "t[1] t[2] t[1]^-1 t[2]^-1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("IDENTITY visited=")


def test_wp_nontrivial(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[1]]], 2))
    code = main(["wp", "--automaton", aut, "--word", "t[1]"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("NONTRIVIAL visited=")


def test_wp_budget_exit_4(tmp_path, capsys):
    # over the shear the commutator closure needs 3 nodes, so budget 1 trips
    aut = write_automaton(tmp_path, build_union([[[1, 1], [0, 1]]], 2))
    code = main(["wp", "--automaton", aut, "--word", "t[1] t[2] t[1]^-1 t[2]^-1",
                 "--budget", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out.startswith("BUDGET-EXCEEDED visited=")


@pytest.mark.parametrize("value", ["1", "0", "x"])
def test_wp_ignores_adicaut_budget(tmp_path, capsys, monkeypatch, value):
    # the environment variable is gone: --budget is the one way to set the budget
    aut = write_automaton(tmp_path, build_union([[[1, 1], [0, 1]]], 2))
    monkeypatch.setenv("ADICAUT_BUDGET", value)
    code = main(["wp", "--automaton", aut, "--word", "t[1] t[2] t[1]^-1 t[2]^-1"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "IDENTITY visited=3\n"


def test_wp_budget_flag_below_one_exit_2(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[1]]], 2))
    for budget in ("0", "-5"):
        code = main(["wp", "--automaton", aut, "--word", "t[1]", "--budget", budget])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --budget must be at least 1, got {budget}\n"


def test_relations_doubling(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[2]]])
    code = main(["relations", "--matrices", mats, "--n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    lines = [l for l in captured.out.splitlines() if l]
    assert len(lines) == 1
    assert "M[0] j=1 PASS" in lines[0]


def test_relations_union_rows(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    code = main(["relations", "--matrices", mats, "--n", "3"])
    captured = capsys.readouterr()
    assert code == 0
    assert len([l for l in captured.out.splitlines() if l]) == 4


def test_verify_clean(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[2]]], 3))
    code = main(["verify", "--automaton", aut, "--depth", "8", "--samples", "1000"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("mismatches=0 checked=4000")


def test_verify_detects_corruption_exit_5(tmp_path, capsys):
    aut = build_union([[[2]]], 3)
    obj = json.loads(to_json(aut))
    # swap two output letters of one state: schema-valid but wrong behavior
    obj["states"][2]["out"] = [obj["states"][2]["out"][1], obj["states"][2]["out"][0],
                               obj["states"][2]["out"][2]]
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(obj))
    code = main(["verify", "--automaton", str(p), "--depth", "6", "--samples", "20"])
    captured = capsys.readouterr()
    assert code == 5
    assert "mismatches=0" not in captured.out
    assert captured.err.startswith("first mismatch: state m[0]:(")
    # one-letter samples see only each state's own out row, so the first mismatch is
    # in state 2, m[0]:(0), the corrupted one
    code = main(["verify", "--automaton", str(p), "--depth", "1", "--samples", "20"])
    captured = capsys.readouterr()
    assert code == 5
    assert captured.err.startswith("first mismatch: state m[0]:(0), input '")
    code = main(["verify", "--automaton", str(p), "--depth", "1", "--samples", "20", "--json"])
    captured = capsys.readouterr()
    first = json.loads(captured.out)["first_mismatch"]
    assert code == 5 and captured.err == ""
    assert first["state"] == "m[0]:(0)"
    assert first["automaton"] != first["oracle"]
    u = DigitWord.parse(first["input"], 3, 1)
    assert parse_word(from_json(p.read_text()), first["state"]).act(u).format() == first["automaton"]
    assert affine_apply_prefix(AffineMap([[2]], (0,)), u).format() == first["oracle"]
    # a clean run reports no first_mismatch key
    main(["verify", "--automaton", write_automaton(tmp_path, aut), "--depth", "6", "--samples", "20", "--json"])
    assert "first_mismatch" not in json.loads(capsys.readouterr().out)


def test_verify_rejects_counts_below_one(tmp_path, capsys):
    aut = write_automaton(tmp_path, build_union([[[2]]], 3))
    for flag, other in (("--depth", "--samples"), ("--samples", "--depth")):
        for value in ("0", "-2"):
            code = main(["verify", "--automaton", aut, flag, value, other, "3"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: {flag} must be at least 1, got {value}\n"
    # checked before the automaton is loaded
    code = main(["verify", "--automaton", str(tmp_path / "missing.json"), "--depth", "1", "--samples", "0"])
    assert code == 2
    assert "--samples" in capsys.readouterr().err


def test_verify_refuses_a_depth_past_the_word_cap(tmp_path, capsys):
    # a depth-k sample is a k-letter digit word, so an unbounded depth is an unbounded allocation
    for aut in (write_automaton(tmp_path, build_union([[[2]]], 3)), str(tmp_path / "missing.json")):
        code = main(["verify", "--automaton", aut, "--depth", "1000001", "--samples", "1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --depth must be at most 1000000, got 1000001\n"


def test_json_mode_lines_parse(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[2]]])
    out = tmp_path / "a.json"
    assert main(["build", "--matrices", mats, "--n", "3", "-o", str(out), "--json"]) == 0
    assert main(["relations", "--matrices", mats, "--n", "3", "--json"]) == 0
    assert main(["wp", "--automaton", str(out), "--word", "t[1]", "--json"]) == 0
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        obj = json.loads(line)
        assert isinstance(obj, dict)


def test_commands_are_byte_stable(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[1, 1], [0, 1]]])
    out = tmp_path / "a.json"
    main(["build", "--matrices", mats, "--n", "2", "-o", str(out)])
    first = capsys.readouterr().out
    main(["build", "--matrices", mats, "--n", "2", "-o", str(out)])
    second = capsys.readouterr().out
    assert first == second
    main(["verify", "--automaton", str(out), "--depth", "5", "--samples", "10", "--seed", "7"])
    v1 = capsys.readouterr().out
    main(["verify", "--automaton", str(out), "--depth", "5", "--samples", "10", "--seed", "7"])
    v2 = capsys.readouterr().out
    assert v1 == v2


def test_relations_prints_every_row_after_budget_exhaustion(tmp_path, capsys):
    mats = write_matrices(tmp_path, [[[1, 2], [0, 1]], [[1, 0], [2, 1]]])
    code = main(["relations", "--matrices", mats, "--n", "3", "--budget", "2"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert lines == [f"M[{mi}] j={j} BUDGET-EXCEEDED visited=2" for mi in (0, 1) for j in (1, 2)]
    code = main(["relations", "--matrices", mats, "--n", "3", "--budget", "2", "--json"])
    rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert code == 4
    assert [(r["matrix"], r["axis"], r["result"]) for r in rows] == [
        (mi, j, "BUDGET-EXCEEDED") for mi in (0, 1) for j in (1, 2)]
    # rows that pass after an exhausted one are still printed; exit 4 wins
    code = main(["relations", "--matrices", mats, "--n", "3", "--budget", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert code == 4
    assert [l.split()[2] for l in lines] == ["PASS", "BUDGET-EXCEEDED", "BUDGET-EXCEEDED", "PASS"]


def test_relations_stdout_pinned_on_the_sanov_union(tmp_path, capsys):
    # d=3 Sanov union with n=2: every column row, unbounded and with a budget that exhausts five of them
    from adicaut import block_extend, identity, sanov_pair
    mats = write_matrices(tmp_path, [list(map(list, M)) for M in block_extend([identity(1)] * 2, list(sanov_pair()))])
    cells = [(mi, j) for mi in (0, 1) for j in (1, 2, 3)]
    for budget, code, rows in (
            ([], 0, [("PASS", v) for v in (7, 4, 3, 7, 5, 4)]),
            (["--budget", "3"], 4, [("BUDGET-EXCEEDED", 3)] * 2 + [("PASS", 3)] + [("BUDGET-EXCEEDED", 3)] * 3)):
        assert main(["relations", "--matrices", mats, "--n", "2", *budget]) == code
        assert capsys.readouterr().out == "".join(
            f"M[{mi}] j={j} {result} visited={v}\n" for (mi, j), (result, v) in zip(cells, rows))
        assert main(["relations", "--matrices", mats, "--n", "2", "--json", *budget]) == code
        assert capsys.readouterr().out == "".join(
            f'{{"axis": {j}, "matrix": {mi}, "result": "{result}", "visited": {v}}}\n'
            for (mi, j), (result, v) in zip(cells, rows))


def test_wp_json_stdout_pinned_on_the_sanov_union(tmp_path, capsys):
    # d=3 Sanov union (432 states, 8 letters); the visited counts are the
    # closure sizes, so any change to the section order or reduction shows here
    from adicaut import block_extend, identity, sanov_pair
    aut = write_automaton(tmp_path, build_union(block_extend([identity(1), identity(1)], list(sanov_pair())), 2))
    conj = "m[0]:(0,0,0) m[1]:(0,0,0) m[0]:(0,0,0) m[1]:(0,0,0) t[{j}] m[1]:(0,0,0)^-1 m[0]:(0,0,0)^-1 " \
           "m[1]:(0,0,0)^-1 m[0]:(0,0,0)^-1"
    ladder = conj.format(j=2) + " t[3]^-12 t[2]^-29"  # (m0 m1)^2 t[2] (m0 m1)^-2 = t[2]^29 t[3]^12
    deep = conj.format(j=1) + " t[1]^-1 t[1]^16"
    for word, budget, code, stdout in (
            (ladder, [], 0, '{"result": "IDENTITY", "visited": 195}\n'),
            (deep, [], 0, '{"result": "NONTRIVIAL", "visited": 219}\n'),
            (ladder, ["--budget", "97"], 4, '{"result": "BUDGET-EXCEEDED", "visited": 97}\n')):
        assert main(["wp", "--automaton", aut, "--word", word, "--json", *budget]) == code
        assert capsys.readouterr().out == stdout
