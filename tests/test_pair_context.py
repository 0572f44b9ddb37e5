"""The pair context: the checks of one pair of systems share its arena, with
the engine's tables, and each plain fixpoint.

Sharing must change no output: checks run each on fresh systems and all on
one pair, in either order, agree field by field.  Each plain fixpoint runs
once for a pair, and the context is freed with the systems by reference
counting alone.
"""

import gc
import weakref

import pytest

from ccspt import (brb_X_check, brb_check, cbrb_check, distinguish, encode,
                   gbrb_check, revalidate, strong_bisim, tb_check, tob_check)
from ccspt import bisim
from ccspt.encode import _PLAIN
from ccspt.semantics import Lts

from conftest import pair_lts
from test_tb_engine import all_entries, ring, sampled_pairs

CHECKS = {"brb": brb_check, "gbrb": gbrb_check, "cbrb": cbrb_check, "tob": tob_check}


def fresh(lts):
    """A new system equal to ``lts``, sharing no pair context with it."""
    return Lts(lts.tags, lts.transitions, lts.initial, lts.sigma, lts.labels)


def steps(sig):
    """(name, run) of every check of a pair, plain first, then rooted, then
    ``distinguish`` in Lb and Lbr; ``run`` takes the two systems and their
    encodings, plain and rooted, and returns a verdict or a formula."""
    env = sorted(sig)[:1]
    plain = [(name, lambda l1, l2, e, check=check: check(
                 l1, l1.initial, l2, l2.initial, sigma=sig)) for name, check in CHECKS.items()]
    plain += [
        ("brbX", lambda l1, l2, e: brb_X_check(l1, l1.initial, l2, l2.initial, env, sigma=sig)),
        ("tobX", lambda l1, l2, e: tob_check(l1, l1.initial, l2, l2.initial, sigma=sig, env=env)),
        ("tb", lambda l1, l2, e: tb_check(e[0][0], e[0][0].initial, e[0][1], e[0][1].initial)),
        # other roots, and a wider alphabet, have stores and an arena of their own
        ("brb-last", lambda l1, l2, e: brb_check(l1, len(l1) - 1, l2, len(l2) - 1, sigma=sig)),
        ("brb-wide", lambda l1, l2, e: brb_check(l1, l1.initial, l2, l2.initial,
                                                 sigma=sig | {"z"})),
    ]
    rooted = [(name + "-rooted", lambda l1, l2, e, check=check: check(
                  l1, l1.initial, l2, l2.initial, rooted=True, sigma=sig))
              for name, check in CHECKS.items()]
    rooted.append(("tb-rooted", lambda l1, l2, e: tb_check(
        e[1][0], e[1][0].initial, e[1][1], e[1][1].initial, rooted=True)))
    formulas = [(fragment, lambda l1, l2, e, fragment=fragment: distinguish(
                    l1, l1.initial, l2, l2.initial, fragment, sigma=sig))
                for fragment in ("Lb", "Lbr")]
    formulas.append(("Lb-env", lambda l1, l2, e: distinguish(
        l1, l1.initial, l2, l2.initial, "Lb", env=env, sigma=sig)))
    return plain + rooted + formulas


def record(got, store):
    """Every output of one step: a formula's ``repr``, or a verdict's JSON,
    counts, witness entries and ``revalidate`` result, and the ``lookup`` of
    every entry of the store behind it and of its plain store."""
    if store is None:
        return repr(got)
    lookups = [[st.lookup(e) for e in all_entries(st.arena, st.trows is not None)]
               for st in (store, store.plain) if st is not None]
    out = [got.to_json(), got.iterations, got.entries_checked, lookups]
    if got.witness is not None:
        w = got.witness
        out += [sorted(w.pairs), sorted(w.triples), revalidate(w, w.relation)]
    return out


@pytest.fixture
def run_steps(monkeypatch):
    """Run steps over a pair and record each, with the store behind it."""
    seen = []
    real = bisim._row_fixpoints

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(bisim, "_row_fixpoints", spy)

    def run(todo, l1, l2, encoded):
        out = {}
        for name, step in todo:
            seen.clear()
            got = step(l1, l2, encoded)
            out[name] = record(got, None if name.startswith("L") else seen[-1])
        return out
    return run


def encodings(l1, l2, sig):
    """The two systems' plain encodings, then their rooted ones."""
    return [(encode(l1, rooted=rooted, sigma=sig), encode(l2, rooted=rooted, sigma=sig))
            for rooted in (False, True)]


def pairs():
    yield from sampled_pairs(12, 7)
    base, same, differ = ring(8, {1}, False), ring(8, {1}, True), ring(8, {1, 4}, True)
    yield base, same, frozenset({"a", "b"})
    yield base, differ, frozenset({"a", "b"})


def test_cold_and_warm_checks_agree(run_steps):
    # each check on fresh systems, against all checks on one pair in both
    # orders: the later checks read the arena, its engine tables and the
    # plain stores the earlier ones left in the pair context
    for l1, l2, sig in pairs():
        todo = steps(sig)
        cold = {}
        for name, step in todo:
            f1, f2 = fresh(l1), fresh(l2)
            cold.update(run_steps([(name, step)], f1, f2, encodings(f1, f2, sig)))
        for order in (todo, todo[::-1]):
            f1, f2 = fresh(l1), fresh(l2)
            assert run_steps(order, f1, f2, encodings(f1, f2, sig)) == cold


def test_pair_context_is_freed_without_the_cycle_collector():
    # nothing in a context refers to the systems, no store is referred to by
    # its arena, and a plain encoding refers to nothing of its system, so
    # dropping the systems, their encodings and the verdicts frees every
    # arena by reference counting: the systems' and the plain encodings',
    # on which tb-rooted judges the twins and no arena over the rooted
    # encodings is built
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    contexts, plain = len(bisim._CONTEXTS), len(_PLAIN)
    gc.disable()
    try:
        v = brb_check(l1, 0, l2, 0, rooted=True, sigma=sig)
        assert v.equivalent and distinguish(l1, 0, l2, 0, "Lbr", sigma=sig) is None
        assert not strong_bisim(l1, 0, l2, 0, sigma=sig)
        (e1, e2), (r1, r2) = encodings(l1, l2, sig)
        assert tb_check(e1, 0, e2, 0)
        w = tb_check(r1, 0, r2, 0, rooted=True)
        assert w.equivalent and w.witness.plain.arena is w.witness.arena
        assert w.witness.arena is bisim._context(bisim.Arena, e1, e2, ()).arena
        arenas = [weakref.ref(a) for a in (v.witness.arena, w.witness.arena)]
        assert len(bisim._CONTEXTS) == contexts + 2
        assert len(_PLAIN) == plain + 2
        del l1, l2, v, e1, e2, r1, r2, w
        assert [a() for a in arenas] == [None] * 2
        assert len(bisim._CONTEXTS) == contexts
        assert len(_PLAIN) == plain
    finally:
        gc.enable()


def test_each_plain_fixpoint_runs_once_per_query(monkeypatch):
    # one inequivalent ring query: every relation, plain and rooted, then
    # distinguish in Lb and Lbr, revalidate of every store a fixpoint left
    # and strong bisimilarity.  Each plain family's fixpoint runs once (brbX
    # reads brb's), each arena kind is built once for the pair, and each
    # arena builds its engine tables once
    l1, l2, sig = ring(8, {1}, False), ring(8, {1, 4}, True), frozenset({"a", "b"})
    (e1, e2), (r1, r2) = encodings(l1, l2, sig)
    runs, arenas, tables = [], [], []
    fixpoint, arena_init = bisim.Arena.fixpoint, bisim.Arena.__init__
    engine_tables = bisim.Arena._engine_tables

    def spy_fixpoint(arena, store, *clauses):
        runs.append((store.relation, arena, store))
        return fixpoint(arena, store, *clauses)

    def spy_arena(arena, one, two=None, sigma=()):
        arenas.append((type(arena).__name__, one, two))
        arena_init(arena, one, two, sigma)

    def spy_tables(arena):
        # ThetaArena's tables extend these, so every arena passes here
        tables.append(arena)
        engine_tables(arena)

    monkeypatch.setattr(bisim.Arena, "fixpoint", spy_fixpoint)
    monkeypatch.setattr(bisim.Arena, "__init__", spy_arena)
    monkeypatch.setattr(bisim.Arena, "_engine_tables", spy_tables)
    for rooted in (False, True):
        for check in CHECKS.values():
            assert not check(l1, 0, l2, 0, rooted=rooted, sigma=sig)
        assert not brb_X_check(l1, 0, l2, 0, ["a"], sigma=sig, rooted=rooted)
    assert not tb_check(e1, e1.initial, e2, e2.initial)
    assert not tb_check(r1, r1.initial, r2, r2.initial, rooted=True)
    for fragment in ("Lb", "Lbr"):
        assert distinguish(l1, 0, l2, 0, fragment, sigma=sig) is not None
    # every store a fixpoint left is a greatest fixpoint, and passes
    assert all(revalidate(store, relation) for relation, _, store in runs)
    assert not strong_bisim(l1, 0, l2, 0, sigma=sig)
    # tb's plain fixpoint runs once, over the plain encodings: tb-rooted
    # reads that store, and runs only its rooted layer, on the same arena
    assert sorted(relation for relation, _, _ in runs) == [
        "brb", "brb-rooted", "brbX-rooted", "cbrb", "cbrb-rooted",
        "gbrb", "gbrb-rooted", "gbrb-rooted", "tb", "tb-rooted", "tob", "tob-rooted"]
    assert len({(relation, id(arena)) for relation, arena, _ in runs
                if not relation.endswith("-rooted")}) == 5
    (tb,) = [store for relation, _, store in runs if relation == "tb"]
    ((rooted_arena, rooted),) = [(arena, store) for relation, arena, store in runs
                                 if relation == "tb-rooted"]
    assert rooted.plain is tb and tb.arena is rooted_arena
    # strong bisimilarity reads the pair's Arena, and builds no tables on
    # it; no arena over the rooted encodings is built
    assert sorted(arenas, key=repr) == sorted([("Arena", l1, l2), ("ThetaArena", l1, l2),
                                               ("Arena", e1, e2)], key=repr)
    assert len(tables) == len({id(arena) for arena in tables}) == 3
    assert {id(arena) for _, arena, _ in runs} == {id(arena) for arena in tables}


def test_strong_builds_no_move_tables_and_a_later_check_builds_them_once(monkeypatch):
    # strong bisimilarity reads the move dicts alone; the first row-engine
    # check of the pair builds the move tables of that same arena, once
    built = []
    build = bisim.Arena._build_tables

    def spy(arena, start=0):
        built.append((arena, start))
        build(arena, start)

    monkeypatch.setattr(bisim.Arena, "_build_tables", spy)
    l1 = ring(8, {1}, False)
    l2 = fresh(l1)
    v = strong_bisim(l1, 0, l2, 0)
    assert v.equivalent and revalidate(v.witness, "strong")
    assert not strong_bisim(l1, 0, l2, 1)
    arena = v.witness.arena
    assert built == [] and arena.tau_succ is None
    assert arena is bisim._context(bisim.Arena, l1, l2, ()).arena
    w = brb_check(l1, 0, l2, 0)
    assert w.equivalent and w.witness.arena is arena
    assert built == [(arena, 0)]
    assert brb_check(l1, 0, l2, 0, rooted=True) and gbrb_check(l1, 0, l2, 0)
    assert strong_bisim(l1, 0, l2, 0) and revalidate(v.witness, "strong")
    assert built == [(arena, 0)]
    # a strong store holds no triple; looking one up builds the tables it reads
    w = strong_bisim(l1, 0, fresh(l1), 0).witness
    assert w.lookup((0, 0, 8)) == (None, None) and built[-1] == (w.arena, 0)


def test_each_clause_program_is_compiled_once_per_arena(monkeypatch):
    # an equivalent ring pair: brb plain and rooted, revalidate of both
    # witnesses, then distinguish in Lb and Lbr, which run the gbrb
    # fixpoints.  Each (family, layer) program is compiled once, on the
    # context's arena, and revalidate judges with the programs the checks
    # compiled
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    compiled = []
    compile_ = bisim.Arena._compile

    def spy(arena, family, keys, rooted):
        compiled.append((family, rooted, keys, arena))
        return compile_(arena, family, keys, rooted)

    monkeypatch.setattr(bisim.Arena, "_compile", spy)
    plain = brb_check(l1, 0, l2, 0, sigma=sig)
    rooted = brb_check(l1, 0, l2, 0, rooted=True, sigma=sig)
    assert plain and rooted
    assert revalidate(plain.witness, "brb") and revalidate(rooted.witness, "brb-rooted")
    for fragment in ("Lb", "Lbr"):
        assert distinguish(l1, 0, l2, 0, fragment, sigma=sig) is None
    arena = bisim._context(bisim.Arena, l1, l2, sig).arena
    assert sorted((family, rooted) for family, rooted, _, _ in compiled) == [
        ("brb", False), ("brb", True), ("gbrb", False), ("gbrb", True)]
    assert all(a is arena and keys == arena.xmasks for _, _, keys, a in compiled)


@pytest.fixture
def compiled_rows(monkeypatch):
    """Record ((arena, family, rooted, keys, row), program) for every row
    program compiled, the row being p or (p, x)."""
    compiled = []
    compile_ = bisim.Arena._compile

    def spy(arena, family, keys, rooted):
        pair, triple = compile_(arena, family, keys, rooted)
        layer = (family, rooted, keys)

        def spy_pair(a, p):
            compiled.append(((a, *layer, p), pair(a, p)))
            return compiled[-1][1]

        def spy_triple(a, p, x):
            compiled.append(((a, *layer, (p, x)), triple(a, p, x)))
            return compiled[-1][1]
        return spy_pair, spy_triple

    monkeypatch.setattr(bisim.Arena, "_compile", spy)
    return compiled


def test_each_row_program_is_compiled_at_most_once_per_query(run_steps, compiled_rows):
    # every check of a pair, plain and rooted, distinguish and revalidate of
    # every witness; then rooted tb at deadlocked states, whose rooted rows
    # compile to empty programs, and revalidate of its witness, which reads
    # them again
    l1, l2, sig = ring(8, {1}, False), ring(8, {1, 4}, True), frozenset({"a", "b"})
    run_steps(steps(sig), l1, l2, encodings(l1, l2, sig))
    d1, d2, _ = pair_lts("a.0", "a.0 + a.0")
    v = tb_check(d1, 1, d2, 1, rooted=True)
    assert v.equivalent and revalidate(v.witness, v.relation)
    keys = [key for key, _ in compiled_rows]
    assert len(keys) == len(set(keys))
    assert () in [prog for (_, family, rooted, _, _), prog in compiled_rows
                  if family == "tb" and rooted]


def test_a_plain_fixpoint_compiles_only_its_side_states_rows(compiled_rows):
    # queried after c: neither initial state (nor, for tob, its wrappers)
    # is a side state, so its rows are never compiled
    l1, l2, sig = pair_lts("c.a.(b.0 + t.b.0)", "c.(a.(b.0 + t.b.0) + a.tau.(b.0 + t.b.0))")
    for name, check in [*CHECKS.items(), ("tb", tb_check)]:
        compiled_rows.clear()
        if name == "tb":
            check(l1, 1, l2, 1)
        else:
            check(l1, 1, l2, 1, sigma=sig)
        ctx = bisim._context(bisim.ThetaArena if name == "tob" else bisim.Arena, l1, l2,
                             () if name == "tb" else sig)
        arena = ctx.arena
        side = set(arena.side_states(1) + arena.side_states(arena.state2(1)))
        assert len(side) < arena.n
        want = side | ({(p, x) for p in side for x in arena.xmasks}
                       if name not in bisim.PAIR_FAMILIES else set())
        assert {row for (a, family, rooted, _, row), _ in compiled_rows} == want
        assert all(a is arena and family == name and not rooted
                   for (a, family, rooted, _, _), _ in compiled_rows)


def test_each_lookup_builds_the_details_it_returns(run_steps, compiled_rows):
    # the row log keeps the op an entry failed by, and each lookup renders
    # its (clause, info) anew: writing one lookup's info changes no later
    # lookup of the entry, no later check's refutation records on the pair
    # and no distinguishing formula
    l1, l2, sig = ring(8, {1}, False), ring(8, {1, 4}, True), frozenset({"a", "b"})

    def formulas():
        return [repr(distinguish(l1, 0, l2, 0, fragment, sigma=sig))
                for fragment in ("Lb", "Lbr")]

    before = formulas()
    for name, check in CHECKS.items():
        first = check(l1, 0, l2, 0, sigma=sig)
        kind = bisim.ThetaArena if name == "tob" else bisim.Arena
        store = bisim._context(kind, l1, l2, sig).stores[name, 0, 0]
        gq = store.arena.state2(0)
        entry = next(e for e in [(0, gq), (gq, 0)] if store.lookup(e)[1] is not None)
        rnd, (clause, info) = store.lookup(entry)
        kept = dict(info)
        assert kept and first.refutation
        info.clear()
        assert store.lookup(entry) == (rnd, (clause, kept))
        assert check(l1, 0, l2, 0, sigma=sig).refutation == first.refutation
    assert formulas() == before
    # every op compiled over the pair, plain and rooted, names its clause alone
    run_steps(steps(sig), l1, l2, encodings(l1, l2, sig))
    ops = [op for _, prog in compiled_rows for op in prog]
    assert ops and all(type(op[-1]) is str for op in ops)
