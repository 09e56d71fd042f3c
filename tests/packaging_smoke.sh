#!/usr/bin/env bash
# Packaging smoke: the installed `adicaut` entry point, run outside the source tree.
# The CI workflow runs it after `python -m pip install .`; RUNNER_TEMP names a scratch directory.
# It keeps what installing adds: each command once through the console script, one failing call per
# exit code the script must pass through (2, 3, 4), and the C-locale builds. Every other CLI behaviour
# is checked once, in process, by tests/test_cli.py.
set -eo pipefail
cd "$RUNNER_TEMP"
echo '[[[2]]]' > mats.json
adicaut build --matrices mats.json --n 3 -o a.json
LC_ALL=C PYTHONUTF8=0 adicaut build --matrices mats.json --n 3 -o a2.json
cmp a.json a2.json
echo '[[[1, 2], [0, 1]], [[1, 0], [2, 1]]]' > sanov.json
adicaut build --matrices sanov.json --n 2 > sanov-stdout.json
adicaut build --matrices sanov.json --n 2 -o sanov-o.json > sanov-o.txt
test "$(cat sanov-o.txt)" = 'states=72, bound=2^d*sum||Mi||^d=72'
cmp sanov-stdout.json sanov-o.json
LC_ALL=C PYTHONUTF8=0 adicaut build --matrices sanov.json --n 2 > sanov-c.json
cmp sanov-c.json sanov-o.json
test "$(adicaut act --automaton a.json --word 't[1]^1000' --input '0 0 0 0 0 0 0 0 0 0')" = '1 0 0 1 0 1 1 0 0 0'
m='m[0]:(0,0) m[1]:(0,0) m[0]:(0,0) m[1]:(0,0) m[0]:(0,0) m[1]:(0,0) t[1] m[1]:(0,0)^-1 m[0]:(0,0)^-1 m[1]:(0,0)^-1 m[0]:(0,0)^-1 m[1]:(0,0)^-1 m[0]:(0,0)^-1'
adicaut wp --automaton sanov-o.json --word "$m t[1]^-169 t[2]^-70" --json > wp169.txt
test "$(cat wp169.txt)" = '{"result": "IDENTITY", "visited": 1108}'
adicaut relations --matrices mats.json --n 3 > relations.txt
test "$(cat relations.txt)" = 'M[0] j=1 PASS visited=3'
adicaut verify --automaton a.json --depth 8 --samples 10 > verify.txt
test "$(cat verify.txt)" = 'mismatches=0 checked=40 seed=0'
echo '[[[1]], [[1.5]]]' > bad.json
code=0
adicaut build --matrices bad.json --n 2 2> bad.err || code=$?
test "$code" = 2
grep -F 'matrices[1]: vector coordinate 1.5 is not an int' bad.err
echo '[[[1, 0], [0, 1]]]' > id2.json
code=0
adicaut build --matrices id2.json --n "1$(printf '%03000d' 0)" 2> base.err || code=$?
test "$code" = 3
grep '^error: alphabet size ' base.err
test "$(wc -c < base.err)" -lt 200
code=0
adicaut wp --automaton sanov-o.json --word "$m t[1]^-169 t[2]^-70" --budget 600 --json > wp600.txt || code=$?
test "$code" = 4
test "$(cat wp600.txt)" = '{"result": "BUDGET-EXCEEDED", "visited": 600}'
