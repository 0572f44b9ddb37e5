"""Benchmark workloads: seeded inputs, the queries over them, and their oracles.

A query is one pair of process descriptions, taken from text to every
verdict its workload asks for, each with its follow-up: ``revalidate`` of an
equivalence witness, or ``distinguish`` and ``sat`` for an inequivalence.
Every query checks its verdicts against an answer known from how the pair
was built and raises ``Mismatch`` when one disagrees.

``inputs(name, seed)`` returns a workload as a list of rounds, each a list of
queries.  The timed loop stops only between rounds, so a round keeps its mix
of cheap and expensive queries together.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import random
from dataclasses import dataclass
from typing import Callable, Tuple

from ccspt import (ExplorationLimits, alphabet, brb_check, build_lts,
                   cbrb_check, distinguish, encode, from_aut, gbrb_check,
                   in_fragment, parse_term, render, revalidate, sat,
                   strong_bisim, tb_check, to_aut, tob_check)
from ccspt import bisim, cli
from ccspt.axioms import schema_set, soundness_suite
from ccspt.errors import StateBudgetExceeded, UnfoldingDiverged
from ccspt.modal import Formula
from ccspt.sampling import equivalent_variant, random_process

# Ring sizes.  At n=32 one ring round (an equivalent and an inequivalent
# pair) takes 2-3.5 s on 2 CPUs; n=64 takes about 20 s, too few queries
# for a stable median in one run.
RING_N = 32
RING_RELATIONS = ("brb", "brb-rooted", "gbrb", "tob", "tb", "cbrb")
# The wide ring declares four actions no state offers, so |Sigma| = 6 and
# every pair carries 64 environment masks.  n=8 keeps a query near 1 s, so
# one run holds about ten rounds.
WIDE_N = 8
WIDE_EXTRA = ("c", "d", "e", "f")
WIDE_RELATIONS = ("brb", "gbrb", "tob")
# Campaign: criterion-3 style random pairs plus a soundness-suite slice.
# Depth 3 and 8 states per side (as criteria 4 and 6 sample) keep a pair near
# 15 ms, so one run covers about one pass over 800 pairs; the largest pairs
# sit in the first half of the pass.
CAMPAIGN_PAIRS = 800
CAMPAIGN_DEPTH = 3
CAMPAIGN_MAX_STATES = 8
CAMPAIGN_REFERENCE_SEED = 0
CAMPAIGN_TOP_CLASS = 12
CAMPAIGN_RELATIONS = ("brb", "gbrb", "tob", "tb")
AXIOM_SAMPLES = 2
AX_STRIDE = 4            # every 4th Ax schema; Ax instances cost ~10x Axr ones
# Compose: k interleaved 4-state components, 4^k states per side.  At k=6
# (4096 states) a query takes about 5 s on 2 CPUs, too few for one run.
COMPOSE_K = 5

CHECKS = {"brb": brb_check, "gbrb": gbrb_check, "cbrb": cbrb_check,
          "tob": tob_check}


class Mismatch(Exception):
    """A verdict or a follow-up disagrees with the query's known answer."""


def expect(ok, what):
    if not ok:
        raise Mismatch(what)


@dataclass
class Query:
    kind: str
    run: Callable
    args: Tuple

    def __call__(self, tracer, workdir):
        return self.run(tracer, workdir, *self.args)


# ---------------------------------------------------------------------------
# Shared query steps


def _reach_size(lts):
    seen = {lts.initial}
    stack = [lts.initial]
    while stack:
        u = stack.pop()
        for ds in lts.out(u).values():
            for v in ds:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return len(seen)


def _count_lts(tr, *systems):
    tr.add("semantics.states", sum(len(l) for l in systems))
    tr.add("semantics.transitions", sum(l.num_transitions for l in systems))


def _probe_arenas(tr, l1, l2, sig, relations):
    """Traced runs only: time the arena tables apart from the checks, and
    measure the reachable sets the checkers seed their stores from."""
    if not tr.enabled:
        return None
    tr.probe("bisim.arena", bisim.Arena, l1, l2, sig)
    sizes = {"sigma": len(frozenset(sig) | l1.sigma | l2.sigma),
             "base": tr.probe("probe.reach", lambda: (_reach_size(l1), _reach_size(l2)))}
    if any(r.startswith("tob") for r in relations):
        theta = tr.probe("bisim.theta_arena", bisim.ThetaArena, l1, l2, sig)
        tr.add("bisim.theta_states", theta.n)
        sizes["theta"] = tr.probe("probe.reach", lambda: (
            len(theta.side_states(l1.initial)),
            len(theta.side_states(theta.state2(l2.initial)))))
    return sizes


def _seeded(base, sizes, encoded):
    """Store entries the checker seeds: both orientations of every pair of
    reachable states, times every environment mask for triple relations."""
    if base == "tb":
        left, right = (_reach_size(e) for e in encoded)
        return 2 * left * right
    if base == "tob":
        left, right = sizes["theta"]
        return 2 * left * right
    left, right = sizes["base"]
    return 2 * left * right * (1 + (1 << sizes["sigma"]))


def decide(tr, rel, l1, l2, sig, sizes):
    """One verdict; ``tb`` goes through ``encode`` first."""
    rooted = rel.endswith("-rooted")
    base = rel[:-len("-rooted")] if rooted else rel
    name = f"bisim.check.{rel}"
    encoded = None
    if base == "tb":
        encoded = [tr.call("encode.encode", encode, l, rooted=rooted, sigma=sig)
                   for l in (l1, l2)]
        e1, e2 = encoded
        tr.add("encode.states", len(e1) + len(e2))
        v = tr.call(name, tb_check, e1, e1.initial, e2, e2.initial, rooted=rooted)
    elif base == "strong":
        v = tr.call(name, strong_bisim, l1, l1.initial, l2, l2.initial)
    else:
        v = tr.call(name, CHECKS[base], l1, l1.initial, l2, l2.initial,
                    rooted=rooted, sigma=sig)
    if tr.enabled:
        tr.add("bisim.iterations", v.iterations)
        tr.add("bisim.entries_checked", v.entries_checked)
        tr.add("bisim.witness_size", v.witness_size)
        if base != "strong":
            seeded = tr.probe("probe.reach", _seeded, base, sizes, encoded)
            tr.add("bisim.seeded_entries", seeded * (2 if rooted else 1))
            tr.add("bisim.fixpoint_checks", v.entries_checked)
    return v


def formula_nodes(f, memo=None):
    """Nodes of the formula read as a tree (shared subformulas count each time)."""
    memo = {} if memo is None else memo
    if id(f) in memo:
        return memo[id(f)]
    n = 1
    for fld in dataclasses.fields(f):
        value = getattr(f, fld.name)
        subs = value if isinstance(value, tuple) else (value,)
        n += sum(formula_nodes(s, memo) for s in subs if isinstance(s, Formula))
    memo[id(f)] = n
    return n


def _separate(tr, l1, l2, sig, fragment):
    f = tr.call("modal.distinguish", distinguish, l1, l1.initial, l2, l2.initial,
                fragment=fragment, sigma=sig)
    expect(f is not None, f"distinguish({fragment}) found no formula")
    expect(in_fragment(f, fragment), f"distinguishing formula outside {fragment}")
    if tr.enabled:
        tr.add("modal.formula_nodes", tr.probe("probe.formula_nodes", formula_nodes, f))
    s1 = tr.call("modal.sat", sat, l1, l1.initial, f)
    s2 = tr.call("modal.sat", sat, l2, l2.initial, f)
    expect(s1 != s2, f"{fragment} formula does not separate the pair")


def follow_up(tr, verdicts, l1, l2, sig):
    """Revalidate every witness; separate each inequivalence by a formula.

    One formula per mode serves every branching characterisation, since they
    decide the same relation; ``cbrb`` and ``strong`` inequivalences have no
    formula in these fragments and must carry refutation records instead.
    """
    for rel, v in verdicts.items():
        if v.equivalent:
            expect(tr.call("bisim.revalidate", revalidate, v.witness, rel),
                   f"{rel} witness does not revalidate")
        else:
            expect(v.refutation, f"{rel} inequivalence has no refutation record")
    for fragment, rooted in (("Lb", False), ("Lbr", True)):
        if any(not v.equivalent for rel, v in verdicts.items()
               if rel.endswith("-rooted") == rooted
               and not rel.startswith(("cbrb", "strong"))):
            _separate(tr, l1, l2, sig, fragment)


def _check_expected(verdicts, expected):
    for rel, want in expected.items():
        expect(verdicts[rel].equivalent == want,
               f"{rel} said {verdicts[rel].equivalent}, expected {want}")


# ---------------------------------------------------------------------------
# ring and wide: a ring read from .aut against its double-time-out variants


def ring_aut(n, markers, double_t, numbering=None):
    """Ring of n states: a ``t`` step after every 4th state, ``b`` at the
    markers, ``a`` elsewhere; the initial state is position 0.
    ``double_t`` splits every ``t`` into two.  ``numbering`` maps positions
    (the split states come after the ring's) to state ids in the file."""
    transitions = []
    extra = n
    for i in range(n):
        j = (i + 1) % n
        label = "t" if i % 4 == 3 else ("b" if i in markers else "a")
        if label == "t" and double_t:
            transitions += [(i, "t", extra), (extra, "t", j)]
            extra += 1
        else:
            transitions.append((i, label, j))
    ids = numbering or list(range(extra))
    lines = [f"des ({ids[0]}, {len(transitions)}, {extra})"]
    lines += [f'({ids[s]},"{label}",{ids[d]})' for s, label, d in transitions]
    return "\n".join(lines) + "\n"


def run_aut_pair(tr, workdir, left, right, extra, expected):
    l1 = tr.call("semantics.from_aut", from_aut, left)
    l2 = tr.call("semantics.from_aut", from_aut, right)
    _count_lts(tr, l1, l2)
    sig = l1.sigma | l2.sigma | frozenset(extra)
    sizes = _probe_arenas(tr, l1, l2, sig, expected)
    verdicts = {rel: decide(tr, rel, l1, l2, sig, sizes) for rel in expected}
    _check_expected(verdicts, expected)
    follow_up(tr, verdicts, l1, l2, sig)


def _shuffled(rng, size):
    ids = list(range(size))
    rng.shuffle(ids)
    return ids


def ring_inputs(seed, n, extra, relations):
    """The double-time-out variant is equivalent under every branching
    characterisation and inequivalent under ``cbrb``, which refuses to elide
    time-outs; a second marker half way round makes it inequivalent under all.

    The geometry is fixed (markers at positions 1 and n/2), because the
    number of fixpoint rounds follows the distances on the ring; the seed
    numbers the states of each file.
    """
    rng = random.Random(seed)
    size = n + n // 4
    base = ring_aut(n, {1}, False, _shuffled(rng, n))
    same = {rel: not rel.startswith("cbrb") for rel in relations}
    differ = {rel: False for rel in relations}
    return [[
        Query("equivalent", run_aut_pair,
              (base, ring_aut(n, {1}, True, _shuffled(rng, size)), extra, same)),
        Query("inequivalent", run_aut_pair,
              (base, ring_aut(n, {1, n // 2}, True, _shuffled(rng, size)), extra,
               differ)),
    ]]


# ---------------------------------------------------------------------------
# campaign: random term pairs and a soundness-suite slice


def run_term_pair(tr, workdir, t1, t2, sigma, variant):
    texts = [tr.call("parser.render", render, t) for t in (t1, t2)]
    p1, p2 = (tr.call("parser.parse_term", parse_term, x) for x in texts)
    sig = frozenset(sigma) | alphabet(p1) | alphabet(p2)
    l1 = tr.call("semantics.build_lts", build_lts, p1, sigma=sig)
    l2 = tr.call("semantics.build_lts", build_lts, p2, sigma=sig)
    _count_lts(tr, l1, l2)
    rels = CAMPAIGN_RELATIONS + tuple(f"{r}-rooted" for r in CAMPAIGN_RELATIONS)
    sizes = _probe_arenas(tr, l1, l2, sig, rels)
    verdicts = {rel: decide(tr, rel, l1, l2, sig, sizes) for rel in rels}
    for rooted in (False, True):
        votes = {rel: v.equivalent for rel, v in verdicts.items()
                 if rel.endswith("-rooted") == rooted}
        expect(len(set(votes.values())) == 1,
               f"characterisations disagree ({'rooted' if rooted else 'plain'}): {votes}")
    plain, rooted = verdicts["brb"].equivalent, verdicts["brb-rooted"].equivalent
    expect(plain or not rooted, "rooted-equivalent pair is not plain-equivalent")
    if variant:
        expect(rooted, "equivalent_variant pair is not rooted-equivalent")
    follow_up(tr, verdicts, l1, l2, sig)


def run_axiom_slice(tr, workdir, which, schema, samples, seed):
    report = tr.call("axioms.soundness_suite", soundness_suite, which,
                     samples=samples, seed=seed, axiom=schema)
    tr.add("axioms.instances",
           sum(a["passes"] + len(a["failures"]) for a in report["axioms"]))
    bad = [f for a in report["axioms"] for f in a["failures"]]
    expect(not bad, f"{which} {schema}: unsound instances {bad[:2]}")


def _size_class(sigma, n1, n2):
    """Bit length of n1 n2 (1 + 2^|Sigma|)^2, about the size of the tb store
    over the two encodings, which dominates a pair's time and memory."""
    return (n1 * n2 * (1 + (1 << len(sigma))) ** 2).bit_length()


def _draw(rng, i):
    """One pair sampled as in criterion 3 (45% equivalent variants, the rest
    independent), with its size class.  A variant over twice the state
    budget is replaced by an independent pair."""
    sigma = ("a",) if i % 6 == 0 else (("a", "b") if i % 3 else ("a", "b", "c"))
    t1, l1 = random_process(rng, sigma, depth=CAMPAIGN_DEPTH,
                            max_states=CAMPAIGN_MAX_STATES)
    if rng.random() < 0.45:
        t2 = equivalent_variant(rng, t1)
        try:
            n2 = len(build_lts(t2, ExplorationLimits(max_states=2 * CAMPAIGN_MAX_STATES)))
            return (_size_class(sigma, len(l1), n2),
                    Query("variant", run_term_pair, (t1, t2, sigma, True)))
        except (StateBudgetExceeded, UnfoldingDiverged):
            pass
    t2, l2 = random_process(rng, sigma, depth=CAMPAIGN_DEPTH,
                            max_states=CAMPAIGN_MAX_STATES)
    return (_size_class(sigma, len(l1), len(l2)),
            Query("random", run_term_pair, (t1, t2, sigma, False)))


def campaign_inputs(seed):
    """Seeded criterion-3 pairs, the largest fixed, with the soundness slice
    spread evenly among them.

    The largest pair sets a run's peak memory, and within the top size
    classes that memory varies twofold from pair to pair, so seeded top-class
    pairs would let the seed set a run's peak.  Pairs of class
    ``CAMPAIGN_TOP_CLASS`` and above are therefore the ones a fixed reference
    draw holds, in every seed; the seed draws the rest.  No size is left out.
    """
    ref = random.Random(CAMPAIGN_REFERENCE_SEED)
    top = [q for c, q in (_draw(ref, i) for i in range(CAMPAIGN_PAIRS))
           if c >= CAMPAIGN_TOP_CLASS]
    rng = random.Random(seed)
    queries = []
    i = 0
    while len(queries) < CAMPAIGN_PAIRS - len(top):
        size_class, query = _draw(rng, i)
        i += 1
        if size_class < CAMPAIGN_TOP_CLASS:
            queries.append(query)
    step = len(queries) / len(top)
    for k, query in reversed(list(enumerate(top))):
        queries.insert(int(k * step), query)
    # The slice samples with fixed seeds: its instances are among the largest
    # systems in the campaign, so seeded samples would move peak memory.
    slices = [("Axr", s.name) for s in schema_set("Axr")]
    slices += [("Ax", s.name) for s in schema_set("Ax")[::AX_STRIDE]]
    step = len(queries) / len(slices)
    for k, (which, name) in reversed(list(enumerate(slices))):
        queries.insert(int(k * step), Query(
            "axioms", run_axiom_slice, (which, name, AXIOM_SAMPLES, k)))
    return [[q] for q in queries]


# ---------------------------------------------------------------------------
# compose: interleaved recursive components, from term syntax


def component(i, labels, altered=False):
    """A 4-state recursive component over its own actions; the altered one
    loops back to ``y`` instead of ``x``, which strong bisimilarity sees."""
    a, b, c = (f"{x}{i}" for x in labels)
    back = "y" if altered else "x"
    return f"<x|{{x = {a}.y + tau.z; y = {b}.z; z = t.w; w = {c}.{back}}}>"


def run_compose_pair(tr, workdir, left, right, equivalent):
    p1, p2 = (tr.call("parser.parse_term", parse_term, x) for x in (left, right))
    sig = alphabet(p1) | alphabet(p2)
    l1 = tr.call("semantics.build_lts", build_lts, p1, sigma=sig)
    l2 = tr.call("semantics.build_lts", build_lts, p2, sigma=sig)
    _count_lts(tr, l1, l2)
    _probe_arenas(tr, l1, l2, sig, ("strong",))
    v = decide(tr, "strong", l1, l2, sig, None)
    _check_expected({"strong": v}, {"strong": equivalent})
    follow_up(tr, {"strong": v}, l1, l2, sig)


def run_cli_pair(tr, workdir, left, right, equivalent):
    """The pair as ``.aut`` files through ``ccspt check``, in process."""
    paths = []
    for k, text in enumerate((left, right)):
        term = tr.call("parser.parse_term", parse_term, text)
        lts = tr.call("semantics.build_lts", build_lts, term)
        _count_lts(tr, lts)
        path = os.path.join(workdir, f"compose-{k}.aut")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(tr.call("semantics.to_aut", to_aut, lts))
        paths.append(path)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = tr.call("cli.main", cli.main, ["check", "--rel", "strong", *paths])
    expect(code == (0 if equivalent else 1),
           f"ccspt check exited {code}: {sink.getvalue().strip()[:200]}")


def compose_inputs(seed):
    rng = random.Random(seed)
    k = COMPOSE_K
    labels = [rng.sample("abc", 3) for _ in range(k)]
    order = list(range(k))
    while order == sorted(order):
        rng.shuffle(order)
    altered = rng.randrange(k)
    par = " ||{} ".join
    left = par(component(i, labels[i]) for i in range(k))
    reordered = par(component(i, labels[i]) for i in order)
    changed = par(component(i, labels[i], i == altered) for i in range(k))
    return [[Query("equivalent", run_compose_pair, (left, reordered, True)),
             Query("inequivalent", run_compose_pair, (left, changed, False)),
             Query("cli", run_cli_pair, (left, reordered, True))]]


def inputs(name, seed):
    if name == "ring":
        return ring_inputs(seed, RING_N, (), RING_RELATIONS)
    if name == "wide":
        return ring_inputs(seed, WIDE_N, WIDE_EXTRA, WIDE_RELATIONS)
    if name == "campaign":
        return campaign_inputs(seed)
    if name == "compose":
        return compose_inputs(seed)
    raise ValueError(f"unknown workload {name!r}")
