#!/usr/bin/env bash
# Packaging smoke: the installed `adicaut` entry point, run outside the source tree.
# The CI workflow runs it after `python -m pip install .`; RUNNER_TEMP names a scratch directory.
set -eo pipefail
cd "$RUNNER_TEMP"
echo '[[[2]]]' > mats.json
adicaut build --matrices mats.json --n 3 -o a.json
adicaut wp --automaton a.json --word 't[1] t[1]^-1' --json > wp.txt
test "$(cat wp.txt)" = '{"result": "IDENTITY", "visited": 1}'
adicaut relations --matrices mats.json --n 3 > relations.txt
test "$(cat relations.txt)" = 'M[0] j=1 PASS visited=3'
echo '[[[1]], [[1.5]]]' > bad.json
code=0
adicaut build --matrices bad.json --n 2 2> bad.err || code=$?
test "$code" = 2
grep -F 'matrices[1]: vector coordinate 1.5 is not an int' bad.err
echo '[[[1]], [[1,0],[0,1]]]' > mixed.json
code=0
adicaut build --matrices mixed.json --n 2 2> mixed.err || code=$?
test "$code" = 2
grep -F 'mixed.json: matrices[1] is 2x2, expected 1x1' mixed.err
code=0
adicaut wp --automaton a.json --word 't[1]^10000000000000000000' 2> pow.err || code=$?
test "$code" = 2
grep '^error: ' pow.err
code=0
adicaut wp --automaton a.json --word "t[1]^$(python -c 'print("9" * 5000)')" 2> long.err || code=$?
test "$code" = 2
grep '^error: word token ' long.err
test "$(wc -c < long.err)" -lt 200
code=0
adicaut wp --automaton a.json --word "m[$(python -c 'print("9" * 4000)')]:(0)" 2> comp.err || code=$?
test "$code" = 2
grep '^error: no component 9' comp.err
test "$(wc -c < comp.err)" -lt 200
code=0
adicaut wp --automaton a.json --word 't[1]' --budget 0 2> budget.err || code=$?
test "$code" = 2
test "$(cat budget.err)" = 'error: --budget must be at least 1, got 0'
code=0
adicaut verify --automaton a.json --depth 0 --samples 1 2> depth.err || code=$?
test "$code" = 2
test "$(cat depth.err)" = 'error: --depth must be at least 1, got 0'
LC_ALL=C PYTHONUTF8=0 adicaut build --matrices mats.json --n 3 -o a2.json
cmp a.json a2.json
echo '[[[1, 2], [0, 1]], [[1, 0], [2, 1]]]' > sanov.json
adicaut build --matrices sanov.json --n 2 > sanov-stdout.json
adicaut build --matrices sanov.json --n 2 -o sanov-o.json > sanov-o.txt
test "$(cat sanov-o.txt)" = 'states=72, bound=2^d*sum||Mi||^d=72'
cmp sanov-stdout.json sanov-o.json
LC_ALL=C PYTHONUTF8=0 adicaut build --matrices sanov.json --n 2 > sanov-c.json
cmp sanov-c.json sanov-o.json
m='m[0]:(0,0) m[1]:(0,0) m[0]:(0,0) m[1]:(0,0) m[0]:(0,0) m[1]:(0,0) t[1] m[1]:(0,0)^-1 m[0]:(0,0)^-1 m[1]:(0,0)^-1 m[0]:(0,0)^-1 m[1]:(0,0)^-1 m[0]:(0,0)^-1'
adicaut wp --automaton sanov-o.json --word "$m t[1]^-169 t[2]^-70" --json > wp169.txt
test "$(cat wp169.txt)" = '{"result": "IDENTITY", "visited": 1108}'
adicaut wp --automaton sanov-o.json --word "$m t[1]^-233 t[2]^-70" --json > wp233.txt
test "$(cat wp233.txt)" = '{"result": "NONTRIVIAL", "visited": 674}'
code=0
adicaut wp --automaton sanov-o.json --word "$m t[1]^-169 t[2]^-70" --budget 600 --json > wp600.txt || code=$?
test "$code" = 4
test "$(cat wp600.txt)" = '{"result": "BUDGET-EXCEEDED", "visited": 600}'
echo '[[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]], [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 2, 1]]]' > sanov4.json
adicaut build --matrices sanov4.json --n 2 -o sanov4-o.json > sanov4-o.txt
test "$(cat sanov4-o.txt)" = 'states=2592, bound=2^d*sum||Mi||^d=2592'
test "$(head -c -1 sanov4-o.json | sha256sum | cut -d ' ' -f 1)" = 4dc1eb3adc5ee94fec36c80a9ff6e99593c676bad666879dcef597debd84683a
echo '[[[1, 0], [0, 1]]]' > id2.json
code=0
adicaut build --matrices id2.json --n "1$(python -c 'print("0" * 3000)')" 2> base.err || code=$?
test "$code" = 3
grep '^error: alphabet size ' base.err
test "$(wc -c < base.err)" -lt 200
code=0
adicaut act --automaton a.json --word 't[1]' --input "$(python -c 'print("9" * 5000)')" 2> input.err || code=$?
test "$code" = 2
grep "^error: cannot parse letter '999" input.err
test "$(wc -c < input.err)" -lt 200
test "$(adicaut act --automaton a.json --word 't[1]^1000' --input '0 0 0 0 0 0 0 0 0 0')" = '1 0 0 1 0 1 1 0 0 0'
test "$(adicaut act --automaton a.json --word 't[1]' --input '2 2 2 2 2 2 2 2 0 1')" = '0 0 0 0 0 0 0 0 1 1'
echo '{}' > empty.json
code=0
adicaut wp --automaton empty.json --word 't[1]' 2> empty.err || code=$?
test "$code" = 2
grep -F 'empty.json' empty.err
python -c 'import json; o = json.load(open("a.json")); o["states"][0]["next"][1] = True; json.dump(o, open("bool.json", "w"))'
code=0
adicaut wp --automaton bool.json --word 't[1]' 2> bool.err || code=$?
test "$code" = 2
grep -F 'states[0].next[1] = True out of range' bool.err
python -c 'import json; o = json.load(open("a.json")); o["states"][0]["next"][1] = len(o["states"]); json.dump(o, open("past.json", "w"))'
code=0
adicaut wp --automaton past.json --word 't[1]' 2> past.err || code=$?
test "$code" = 2
grep -F 'past.json: state 0 letter 1: next entry 4 is not in range(4)' past.err
python -c 'import json; o = json.load(open("a.json")); s = o["states"]; assert s[3]["out"] == s[0]["out"]; s[3]["out"] = [1.0 if y == 1 else y for y in s[3]["out"]]; json.dump(o, open("float.json", "w"))'
code=0
adicaut wp --automaton float.json --word 't[1]' 2> float.err || code=$?
test "$code" = 2
grep -F 'float.json: state 3: out is not a permutation of range(3)' float.err
python -c 'import json; o = json.load(open("a.json")); o["states"][0]["note"] = "true"; json.dump(o, open("note.json", "w"))'
adicaut wp --automaton note.json --word 't[1] t[1]^-1' --json > note.txt
cmp wp.txt note.txt
python -c 'import json; o = json.load(open("a.json")); o["states"][1]["v"] = o["states"][0]["v"]; json.dump(o, open("dup.json", "w"))'
code=0
adicaut wp --automaton dup.json --word 't[1]' 2> dup.err || code=$?
test "$code" = 2
grep -F 'dup.json: state 1 repeats the label of state 0' dup.err
python -c 'import json; o = json.load(open("a.json")); s = o["states"]; s[0]["next"] = s[0]["next"][:2]; del s[3]["out"]; json.dump(o, open("both.json", "w"))'
code=0
adicaut wp --automaton both.json --word 't[1]' 2> both.err || code=$?
test "$code" = 2
grep -F "both.json: states[3] missing key 'out'" both.err
python -c 'import json; o = json.load(open("a.json")); o["states"][1]["m"] = "x" * 100000; json.dump(o, open("longm.json", "w"))'
code=0
adicaut wp --automaton longm.json --word 't[1]' 2> longm.err || code=$?
test "$code" = 2
grep -F "state 1: matrix index 'xxx" longm.err
test "$(wc -c < longm.err)" -lt 200
python -c 'import json; o = json.load(open("a.json")); o["states"][1]["m"] = float("nan"); json.dump(o, open("nan.json", "w"))'
code=0
adicaut wp --automaton nan.json --word 't[1]' 2> nan.err || code=$?
test "$code" = 2
grep -F 'nan.json: state 1: matrix index NaN is not in range(1)' nan.err
code=0
adicaut build --matrices mats.json --n "1$(python -c 'print("0" * 5000)')" 2> longn.err || code=$?
test "$code" = 2
grep -F 'argument --n: invalid int value: ' longn.err
test "$(wc -c < longn.err)" -lt 300
code=0
adicaut wp --automaton "$(python -c 'print("y" * 100000)')" --word 't[1]' 2> longpath.err || code=$?
test "$code" = 2
grep '^error: \[Errno ' longpath.err
test "$(wc -c < longpath.err)" -lt 200
