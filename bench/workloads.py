"""The benchmark's three workloads.

Each workload prepares its inputs and expected answers from the seed
(`answers`), sets up until its first op can be served (several times, with
the `calibrate` reference loop in between), and then serves ops
one at a time (a closed loop with one caller).  An op returns its latency,
its work count and whether its output matched the expected answer; checking
stays outside the latency.  A traced run also runs `sweep`, which reaches the
layers the workload's own loop does not call, so every traced run reports
every layer.  Only names exported by `adicaut` and `adicaut.cli.main` are
used.
"""

from __future__ import annotations

import io
import json
import os
import resource
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import reduce
from time import perf_counter

from adicaut import (
    AffineMap,
    BudgetExceededError,
    DigitWord,
    affine_apply_prefix,
    build_union,
    compose,
    dedup,
    from_json,
    mat_vec,
    mod_div,
    parse_word,
    presentation_for,
    relator_check,
    to_json,
    vec_add,
    verify_relation,
    well_definedness_check,
)
from adicaut.cli import main as cli_main

import answers as ka


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rss_mb():
    "Current resident set size of this process."
    try:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20
    except OSError:
        return peak_rss_mb()


def timed(tr, name, fn, work=0):
    "Call fn inside a span; return its result and its wall time."
    with tr.span(name, work):
        t0 = perf_counter()
        out = fn()
        return out, perf_counter() - t0


def component_states(aut, components):
    return sum(end - start for start, end in (aut.component_range(i) for i in range(components)))


class Pipeline:
    """Build, check, relations, relators, oracle samples, JSON round trip and
    dedup of the Sanov union: the paper's end-to-end pipeline."""

    def __init__(self, fam, rng):
        self.fam = fam
        self.samples = ka.oracle_samples(fam, rng)
        self.inputs = [(DigitWord(s.word, fam.n, fam.d), AffineMap(*fam.factor_map(s.factors[0])))
                       for s in self.samples]

    def run(self, tr):
        "Returns (seconds, build seconds, outputs all correct, automaton JSON)."
        fam = self.fam
        aut, t_build = timed(tr, "automaton.build_union", lambda: build_union(fam.mats, fam.n), fam.transitions)
        tr.gauge("automaton.rss_after_build_mb", rss_mb())
        ok = component_states(aut, len(fam.mats)) == fam.states

        rep, t_check = timed(tr, "automaton.well_definedness_check",
                             lambda: well_definedness_check(aut), fam.transitions)
        ok &= rep.ok and rep.checked == fam.transitions

        # m0 t_j m0^-1 = prod_i t_i^{M[i][j]} holds for every affine map, so every row passes.
        rels, t_rel = timed(tr, "treeaction.verify_relation",
                            lambda: [verify_relation(aut, mi, ax)
                                     for mi in range(len(fam.mats)) for ax in range(1, fam.d + 1)])
        ok &= all(r.ok for r in rels)
        rc, t_rc = timed(tr, "constructions.relator_check", lambda: relator_check(aut, presentation_for(fam.mats)))
        ok &= rc.ok and all(r.outcome == "pass" for r in rc.results)

        t0 = perf_counter()
        for s, (u, f) in zip(self.samples, self.inputs):
            with tr.span("treeaction.parse_word", work=1):
                w = parse_word(aut, s.text)
            with tr.span("treeaction.act", work=s.steps):
                img = w.act(u)
            with tr.span("nadic.affine_apply_prefix", work=len(u)):
                ref = affine_apply_prefix(f, u)
            ok &= img == ref and img.letters == s.expected
        t_oracle = perf_counter() - t0

        js, t_to = timed(tr, "automaton.to_json", lambda: to_json(aut))
        tr.gauge("automaton.json_mb", len(js) / 1e6)
        back, t_from = timed(tr, "automaton.from_json", lambda: from_json(js))
        ok &= back == aut
        tr.gauge("automaton.rss_after_codec_mb", rss_mb())
        del back

        # Distinct states realize distinct affine maps, so dedup merges nothing.
        merged, t_dedup = timed(tr, "automaton.dedup", lambda: dedup(aut))
        tr.gauge("automaton.dedup_merged_frac", 1 - component_states(merged, len(fam.mats)) / fam.states)
        tr.gauge("automaton.rss_after_dedup_mb", rss_mb())
        ok &= merged == aut

        seconds = t_build + t_check + t_rel + t_rc + t_oracle + t_to + t_from + t_dedup
        return seconds, t_build, ok, js


class WordProblem:
    """`adicaut wp --json` calls in process against one automaton file.  A
    traced call is replayed layer by layer through the public API, which
    times the load, parse, sections and closure the CLI runs inside."""

    def __init__(self, path, text):
        self.path = path
        self.text = text
        self.visited = {}
        self.cli_overhead = []
        self.budget_expected = 0
        self.budget_exhausted = 0

    def call(self, text, budget=0):
        argv = ["wp", "--automaton", self.path, "--word", text, "--json"]
        if budget:
            argv += ["--budget", str(budget)]
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                rc = cli_main(argv)
            except SystemExit as e:
                rc = e.code
        try:
            return rc, json.loads(out.getvalue().splitlines()[-1])
        except (ValueError, IndexError):
            return rc, {}

    def op(self, q, tr):
        with tr.span("cli.main") as sp:
            t0 = perf_counter()
            rc, res = self.call(q.text, q.budget)
            latency = perf_counter() - t0
        want = ("BUDGET-EXCEEDED", 4) if q.budget else ("IDENTITY" if q.identity else "NONTRIVIAL", 0)
        got = (res.get("result"), rc)
        ok = got == want
        if got[0] == "BUDGET-EXCEEDED":
            if q.budget:
                self.budget_expected += 1
            else:
                self.budget_exhausted += 1
        visited = res.get("visited", 0)
        if not q.budget:
            self.visited[q] = visited
        if tr.enabled:
            ok &= self.replay(q, visited, sp, tr)
        return latency, 1, ok

    def replay(self, q, visited, cli_span, tr):
        with tr.span("automaton.from_json") as load:
            aut = from_json(self.text)
        with tr.span("treeaction.parse_word", work=q.length) as parse:
            w = parse_word(aut, q.text)
        with tr.span("treeaction.root_and_sections", work=aut.alphabet_size):
            w.root_and_sections()
        with tr.span("treeaction.is_identity", work=visited) as closure:
            try:
                answer = w.is_identity(q.budget) if q.budget else w.is_identity()
            except BudgetExceededError:
                answer = None
        self.cli_overhead.append(cli_span.duration - load.duration - parse.duration - closure.duration)
        return answer == (None if q.budget else q.identity)

    def closure_nodes(self, identity):
        return sum(v for q, v in self.visited.items() if q.identity == identity)


def linalg_replay(fam, tr, rng):
    """The arithmetic of the well-definedness check, v + M*x split into digit
    and carry, for every (offset, letter) pair of component 0."""
    M = fam.mats[0]
    pairs = [(v, x) for v in ka.offset_box(M) for x in ka.letters(fam.n, fam.d)]
    with tr.span("linalg.mat_vec", work=len(pairs)):
        mxs = [mat_vec(M, x) for _, x in pairs]
    sums = [vec_add(v, mx) for (v, _), mx in zip(pairs, mxs)]
    with tr.span("linalg.mod_div", work=len(pairs)):
        splits = [mod_div(w, fam.n) for w in sums]
    for i in rng.sample(range(len(pairs)), min(1000, len(pairs))):
        v, x = pairs[i]
        w = ka.vec_add(v, ka.mat_vec(M, x))
        if splits[i] != (tuple(c % fam.n for c in w), tuple(c // fam.n for c in w)):
            return False
    return True


def write_automaton(path, text):
    with open(path, "w") as f:
        f.write(text + "\n")


class Workload:
    """Common shape: `prepare` returns each set-up's `(midpoint, seconds)`,
    `ops` one pass of inputs, `op` serves one, `sweep` covers the remaining
    layers."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.fam = ka.Family(self.d)
        self.path = os.path.join(workdir, f"{self.name}-{seed}-{os.getpid()}.json")
        self.wp = None

    def cleanup(self):
        if os.path.exists(self.path):
            os.remove(self.path)

    def setup_file(self, repeats, cal):
        """Build, serialize and write the automaton `repeats` times, calibrating
        in between; return the `(midpoint, seconds)` of each."""
        times = []
        for _ in range(repeats):
            cal.tick()
            t0 = perf_counter()
            aut = build_union(self.fam.mats, self.fam.n)
            text = to_json(aut)
            write_automaton(self.path, text)
            t1 = perf_counter()
            times.append(((t0 + t1) / 2, t1 - t0))
        self.aut, self.text = aut, text
        return times

    def probes(self, tr):
        wp = WordProblem(self.path, self.text)
        ok = all(wp.op(q, tr)[2] for q in ka.probe_queries(self.fam))
        self.wp = wp
        return ok


class SanovPipeline(Workload):
    """Each op is the whole pipeline on the d=4 Sanov union (2592 states x
    16 letters): table build and the well-definedness check dominate."""

    name = "sanov_d4_pipeline"
    d = 4
    min_ops = 20

    def prepare(self, cal):
        self.pipeline = Pipeline(self.fam, ka.seeded(self.seed, "oracle"))
        self.builds = []
        return self.builds  # filled by the ops: set-up here is build_union

    def ops(self):
        return [None]

    def op(self, _, tr):
        t0 = perf_counter()
        seconds, t_build, ok, self.text = self.pipeline.run(tr)
        self.builds.append((t0 + t_build / 2, t_build))
        return seconds, self.fam.transitions, ok

    def sweep(self, tr):
        write_automaton(self.path, self.text)
        ok = self.probes(tr)
        return linalg_replay(self.fam, tr, ka.seeded(self.seed, "linalg")) and ok


class WordProblemLadders(Workload):
    """Each op is one `adicaut wp` call on the d=3 Sanov union (432 states x
    8 letters): the closure and root_and_sections dominate."""

    name = "wp_ladders_d3"
    d = 3
    min_ops = 100

    def prepare(self, cal):
        times = self.setup_file(31, cal)
        self.wp = WordProblem(self.path, self.text)
        queries = ka.wp_queries(self.fam, ka.seeded(self.seed, "queries"))
        self.queries = [self.set_budget(q) for q in queries]
        return times

    def set_budget(self, q):
        "Half the closure size the full-budget query reports; its verdict must be the expected one."
        if q.family != "budget":
            return q
        rc, res = self.wp.call(q.text)
        if rc != 0 or res.get("result") != "IDENTITY" or res.get("visited", 0) < 4:
            raise ka.InconsistentAnswer(f"budget query answered {rc} {res}; expected IDENTITY with >= 4 nodes")
        return replace(q, budget=res["visited"] // 2)

    def ops(self):
        return self.queries

    def op(self, q, tr):
        return self.wp.op(q, tr)

    def sweep(self, tr):
        _, _, ok, _ = Pipeline(self.fam, ka.seeded(self.seed, "oracle")).run(tr)
        return linalg_replay(self.fam, tr, ka.seeded(self.seed, "linalg")) and ok


class ActOracle(Workload):
    """Each op parses a word with a large translation power and acts with it
    on a long digit word over the d=5 Sanov union; the image is checked
    against the composed affine map, outside the op's latency."""

    name = "act_oracle_d5"
    d = 5
    min_ops = 100

    def prepare(self, cal):
        times = self.setup_file(7, cal)
        fam = self.fam
        self.cases = []
        for c in ka.act_cases(fam, ka.seeded(self.seed, "act")):
            f = reduce(compose, [AffineMap(*fam.factor_map(x)) for x in c.factors])
            if (f.matrix, f.offset) != fam.affine(c.factors):
                raise ka.InconsistentAnswer(f"nadic composition disagrees for {c.text[:60]}...")
            self.cases.append((c, DigitWord(c.word, fam.n, fam.d), f))
        return times

    def ops(self):
        return self.cases

    def op(self, case, tr):
        c, u, f = case
        with tr.span("treeaction.parse_word", work=c.steps // len(u)):
            t0 = perf_counter()
            w = parse_word(self.aut, c.text)
            t1 = perf_counter()
        with tr.span("treeaction.act", work=c.steps):
            t2 = perf_counter()
            img = w.act(u)
            t3 = perf_counter()
        with tr.span("nadic.affine_apply_prefix", work=len(u)):
            ref = affine_apply_prefix(f, u)
        return (t1 - t0) + (t3 - t2), c.steps, img.letters == c.expected and ref == img

    def sweep(self, tr):
        _, _, ok, _ = Pipeline(self.fam, ka.seeded(self.seed, "oracle")).run(tr)
        ok &= self.probes(tr)
        return linalg_replay(self.fam, tr, ka.seeded(self.seed, "linalg")) and ok


WORKLOADS = {w.name: w for w in (SanovPipeline, WordProblemLadders, ActOracle)}
