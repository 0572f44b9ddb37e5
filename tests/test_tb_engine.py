"""The row engine for t-branching bisimilarity against a per-pair reference.

The reference below is the per-pair formulation the row engine replaced:
one clause check per stored pair, in sorted order, against the store the
round started with.  Both must agree on every observable field.

Rooted tb over two rooted encodings is judged by the engine at the plain
twins of the queried states, on the arena of their plain twin encodings.
The reference judges it on the arena of the rooted encodings, against the
plain fixpoint over the twins, and maps its store onto the twins it reads
off the tags; over other systems both judge the same arena.
"""

import contextlib
import dataclasses
import random

import pytest

from ccspt import (alphabet, brb_check, build_lts, encode, from_aut, revalidate,
                   tb_check)
from ccspt import bisim
from ccspt.bisim import Arena
from ccspt.errors import StateBudgetExceeded
from ccspt.encode import RootedEncoding
from ccspt.sampling import equivalent_variant, random_process
from ccspt.semantics import TAU, TIMEOUT, Lts, label_kind


# ---------------------------------------------------------------------------
# per-pair reference


def reaches_stable(arena, q):
    """Whether q reaches, over tau steps, a state with no tau step."""
    return any(not arena.has_tau[u] for u in arena.weak[q])


class RefTb:
    def __init__(self, arena, store):
        self.a = arena
        self.st = store
        self.branch_labels = [
            lab for lab in sorted({l for out in arena.out for l in out})
            if lab != TIMEOUT and label_kind(lab)[0] != "t_set"]

    def check_pair(self, p, q):
        a = self.a
        out = a.out[p]
        for lab in self.branch_labels:
            for p2 in out.get(lab, ()):
                if not self._match(p, lab, p2, q):
                    return ("tb1", {"action": lab, "derivative": p2})
        for p2 in a.t_succ[p]:
            if not self._tbpath(p, p2, q):
                return ("tb2", {"derivative": p2})
        if not a.has_tau[p] and not reaches_stable(a, q):
            return ("tb3", {})
        return None

    def _match(self, p, lab, p2, q):
        a, pairs = self.a, self.st.pairs
        for q1 in a.weak[q]:
            if (p, q1) not in pairs:
                continue
            if lab == TAU and (p2, q1) in pairs:
                return True
            for q2 in a.out[q1].get(lab, ()):
                if (p2, q2) in pairs:
                    return True
        return False

    def _tbpath(self, p, p2, q):
        a, pairs = self.a, self.st.pairs
        seen = set()
        stack = [q]
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            if (p, s) not in pairs:
                continue
            for s1 in a.weak[s]:
                if (p, s1) not in pairs:
                    continue
                if (p2, s1) in pairs:
                    return True
                for s2 in a.t_succ[s1]:
                    if (p2, s2) in pairs:
                        return True
                    if s2 not in seen:
                        stack.append(s2)
        return False


class RefRootedTb:
    """rtb1 against a plain store, on the arena of the plain twin
    encodings where it lives there (``tag_twins``)."""

    def __init__(self, arena, plain):
        self.a = arena
        self.plain = plain
        self.twin = tag_twins(arena, plain.arena)

    def check_pair(self, p, q):
        a, twin = self.a, self.twin
        for lab, targets in sorted(a.out[p].items()):
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((twin[p2], twin[q2]) in self.plain.pairs for q2 in qsucc):
                    return ("rtb1", {"action": lab, "derivative": p2})
        return None


def tag_twins(arena, plain_arena):
    """Each state of ``arena`` mapped to its twin on ``plain_arena``: itself
    where the two are one arena, and otherwise, for an arena of rooted
    encodings and one of their plain encodings, the plain-mode state with
    the same base and mask on the same side, read off the tags."""
    if plain_arena is arena:
        return list(range(arena.n))

    def side(a, s):
        return 1 if a.offset and s >= a.offset else 0

    index = {(side(plain_arena, s), tag): s for s, tag in enumerate(plain_arena.tags)}
    return [index[side(arena, s) if plain_arena.offset else 0,
                  dataclasses.replace(tag, mode=tag.mode.removesuffix("_r"))]
            for s, tag in enumerate(arena.tags)]


class SetStore:
    """A relation held as sets, which the references fill and empty entry by
    entry: ``rank`` maps each deleted entry (both orientations) to its
    round, ``fail`` an entry whose own clause failed to the clause and its
    detail, and ``lookup`` reads the two.  ``of`` copies the entries of
    another store, and of its plain store, for a reference to judge."""

    def __init__(self, arena, relation, pairs=(), triples=(), plain=None):
        self.arena, self.relation = arena, relation
        self.pairs, self.triples = set(pairs), set(triples)
        self.plain = plain
        self.rank, self.fail = {}, {}
        self.iterations = self.checked = 0

    @classmethod
    def of(cls, store):
        return None if store is None else cls(
            store.arena, store.relation, store.pairs, store.triples, cls.of(store.plain))

    @property
    def size(self):
        return len(self.pairs) + len(self.triples)

    def lookup(self, entry):
        return self.rank.get(entry), self.fail.get(entry)


@contextlib.contextmanager
def taken_out(store, *entries):
    """``store`` with ``entries`` taken out of its rows, each in the one
    orientation given: a pair (i, j), or a triple (i, x, j) under the
    declared mask x, for which the triple rows are keyed by every declared
    mask.  The rows are put back afterwards."""
    rows, trows = store.rows, store.trows
    store.rows = list(rows)
    if any(len(e) == 3 for e in entries):
        store.trows = {x: list(store._line(x)) for x in range(store.arena.full_mask + 1)}
    for e in entries:
        line = store.rows if len(e) == 2 else store.trows[e[1]]
        line[e[0]] &= ~(1 << e[-1])
    try:
        yield store
    finally:
        store.rows, store.trows = rows, trows


def seed_pairs(store, lefts, rights):
    for i in lefts:
        for j in rights:
            store.pairs.add((i, j))
            store.pairs.add((j, i))


def kill_pair(store, i, j, rnd, why):
    store.pairs.discard((i, j))
    store.pairs.discard((j, i))
    store.rank.setdefault((i, j), rnd)
    store.rank.setdefault((j, i), rnd)
    if why is not None:
        store.fail.setdefault((i, j), why)


def ref_fixpoint(store, checker):
    iterations = checked = 0
    while True:
        iterations += 1
        bad = []
        for (i, j) in sorted(store.pairs):
            checked += 1
            why = checker.check_pair(i, j)
            if why is not None:
                bad.append((i, j, why))
        if not bad:
            return iterations, checked
        for i, j, why in bad:
            kill_pair(store, i, j, iterations, why)


def ref_tb(e1, e2, rooted, twins=None):
    """(store, entry, iterations, checked) of the per-pair reference.  The
    rooted layer is seeded with the queried entry alone; with ``twins``, the
    plain encodings of the rooted ``e1`` and ``e2``, it reads the plain
    fixpoint over them, at the twins of the queried states, and its store
    and entry are mapped onto those twins (``twinned``)."""
    arena = Arena(e1, None if e2 is e1 else e2).tables()
    p, gq = e1.initial, arena.state2(e2.initial)
    plain_arena = arena
    if rooted and twins is not None:
        plain_arena = Arena(twins[0], None if twins[1] is twins[0] else twins[1]).tables()
    twin = tag_twins(arena, plain_arena)
    store = SetStore(plain_arena, "tb")
    seed_pairs(store, plain_arena.reach(twin[p]), plain_arena.reach(twin[gq]))
    it, ch = ref_fixpoint(store, RefTb(plain_arena, store))
    if rooted:
        plain = store
        store = SetStore(arena, "tb-rooted")
        seed_pairs(store, [p], [gq])
        store.plain = plain
        it2, ch2 = ref_fixpoint(store, RefRootedTb(arena, plain))
        it, ch = it + it2, ch + ch2
        if plain_arena is not arena:
            store, p, gq = twinned(store, plain_arena, twin), twin[p], twin[gq]
    return store, (p, gq), it, ch


def twinned(store, plain_arena, twin):
    """A rooted reference store mapped by ``twin`` onto ``plain_arena``: its
    entries, ranks and failing clauses, each detail's derivative mapped too."""
    def entry(e):
        return twin[e[0]], twin[e[1]]
    out = SetStore(plain_arena, store.relation, map(entry, store.pairs), plain=store.plain)
    out.rank = {entry(e): rnd for e, rnd in store.rank.items()}
    out.fail = {entry(e): (clause, {**info, "derivative": twin[info["derivative"]]})
                for e, (clause, info) in store.fail.items()}
    return out


def ref_revalidate(store, rooted):
    store = SetStore.of(store)
    if rooted:
        if store.plain is None or not ref_revalidate(store.plain, False):
            return False
        checker = RefRootedTb(store.arena, store.plain)
    else:
        checker = RefTb(store.arena, store)
    return all((j, i) in store.pairs and checker.check_pair(i, j) is None
               for i, j in sorted(store.pairs)) and not store.triples


# ---------------------------------------------------------------------------
# helpers


@pytest.fixture
def engine_store(monkeypatch):
    """Run tb_check and also return the store behind its verdict and the
    systems of every arena the check built."""
    seen, built = [], []
    real, arena_init = bisim._row_fixpoints, Arena.__init__

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    def spy_arena(arena, *systems):
        built.extend(systems[:2])
        arena_init(arena, *systems)

    monkeypatch.setattr(bisim, "_row_fixpoints", spy)
    monkeypatch.setattr(Arena, "__init__", spy_arena)

    def run(e1, e2, rooted):
        built.clear()
        v = tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted)
        return v, seen.pop(), list(built)
    return run


def assert_same(engine_store, e1, e2, rooted, twins=None):
    v, store, built = engine_store(e1, e2, rooted)
    ref, entry, it, ch = ref_tb(e1, e2, rooted, twins)
    if rooted:   # the rooted layer lives on tb's arena: the plain twins' when they are given
        assert store.plain.arena is store.arena
        assert not any(isinstance(lts, RootedEncoding) for lts in built)
        if twins is not None:
            assert store.arena is bisim._context(Arena, *twins, ()).arena
    assert v.equivalent == (entry in ref.pairs)
    assert (v.iterations, v.entries_checked) == (it, ch)
    assert v.refutation == ([] if v.equivalent else
                            bisim._refutation_records(ref, [entry, entry[::-1]]))
    assert store.pairs == ref.pairs
    same_lookups(store, ref)
    if rooted:
        assert store.plain.pairs == ref.plain.pairs
        same_lookups(store.plain, ref.plain)
    return v


def all_entries(arena, triples=False):
    """Every pair and, with ``triples``, every triple under every declared
    mask."""
    masks = sorted(x | u for x in arena.xmasks for u in arena.unused_masks) if triples else ()
    for p in range(arena.n):
        for q in range(arena.n):
            yield p, q
            for x in masks:
                yield p, x, q


def same_lookups(store, ref, triples=False):
    """The engine's ``lookup`` answers as the reference's records on every
    entry, both orientations (and, with ``triples``, every declared mask)."""
    entries = list(all_entries(store.arena, triples))
    assert [store.lookup(e) for e in entries] == [ref.lookup(e) for e in entries]


def sampled_pairs(n, seed):
    """Criterion-3-style pairs: 45% equivalent variants, the rest independent."""
    rng = random.Random(seed)
    for i in range(n):
        sigma = ("a",) if i % 6 == 0 else (("a", "b") if i % 3 else ("a", "b", "c"))
        t1, _ = random_process(rng, sigma, depth=3, max_states=8)
        t2 = None
        if rng.random() < 0.45:
            t2 = equivalent_variant(rng, t1)
            try:
                build_lts(t2)
            except Exception:
                t2 = None
        if t2 is None:
            t2, _ = random_process(rng, sigma, depth=3, max_states=8)
        sig = frozenset(sigma) | alphabet(t1) | alphabet(t2)
        yield build_lts(t1, sigma=sig), build_lts(t2, sigma=sig), sig


def ring(n, markers, double_t, loops=""):
    """Ring of n states, ``t`` after every 4th, ``b`` at the markers, and a
    self-loop by each action of ``loops`` at every state."""
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
    transitions += [(i, a, i) for i in range(extra) for a in loops]
    lines = [f"des (0, {len(transitions)}, {extra})"]
    lines += [f'({s},"{lab}",{d})' for s, lab, d in transitions]
    return from_aut("\n".join(lines) + "\n")


def encoded(l1, l2, sig, rooted):
    return encode(l1, rooted=rooted, sigma=sig), encode(l2, rooted=rooted, sigma=sig)


def twins_of(l1, l2, sig, rooted):
    """The plain encodings a rooted check's encodings read their twins on."""
    return encoded(l1, l2, sig, False) if rooted else None


# ---------------------------------------------------------------------------
# field-identical results


@pytest.mark.parametrize("rooted", [False, True])
def test_sampled_pairs_match_reference(engine_store, rooted):
    verdicts = [assert_same(engine_store, *encoded(l1, l2, sig, rooted), rooted,
                            twins_of(l1, l2, sig, rooted))
                for l1, l2, sig in sampled_pairs(40, 7)]
    # the sample must exercise both outcomes and more than one round
    assert {v.equivalent for v in verdicts} == {True, False}
    assert max(v.iterations for v in verdicts) > 2


@pytest.mark.parametrize("rooted", [False, True])
def test_ring_matches_reference(engine_store, rooted):
    base = ring(12, {1}, False)
    sig = frozenset({"a", "b"})
    verdicts = []
    for other in (ring(12, {1}, True), ring(12, {1, 6}, True)):
        verdicts.append(assert_same(engine_store, *encoded(base, other, sig, rooted), rooted,
                                    twins_of(base, other, sig, rooted)))
    same, differ = verdicts
    assert same.equivalent and not differ.equivalent
    assert differ.iterations > 3


def test_plain_tb_over_rooted_encodings_is_plain_tb_over_their_twins(engine_store):
    # the twin claim tb-rooted builds on: the plain fixpoint over two rooted
    # encodings is the one over their plain encodings under the twin map,
    # entry by entry, in each entry's round and in the rounds
    cases = list(sampled_pairs(40, 7))
    base, sig = ring(12, {1}, False), frozenset({"a", "b"})
    cases += [(base, ring(12, {1}, True), sig), (base, ring(12, {1, 6}, True), sig)]
    for l1, l2, sig in cases:
        v, over_rooted, _ = engine_store(*encoded(l1, l2, sig, True), False)
        w, over_plain, _ = engine_store(*encoded(l1, l2, sig, False), False)
        twin = tag_twins(over_rooted.arena, over_plain.arena)
        assert (v.equivalent, v.iterations) == (w.equivalent, w.iterations)
        entries = [(i, j) for i in range(len(twin)) for j in range(len(twin))]

        def fates(store, image):
            return [(store.has_pair(image[i], image[j]), store.lookup((image[i], image[j]))[0])
                    for i, j in entries]
        assert fates(over_rooted, range(len(twin))) == fates(over_plain, twin)


def test_random_raw_systems_match_reference(engine_store):
    # tiny systems over raw labels reach corners the encodings do not:
    # tau cycles, time-outs from unstable states, several time-outs in a row
    rng = random.Random(11)
    labels = ("a", "b", TAU, TAU, TIMEOUT, TIMEOUT)
    for _ in range(150):
        systems = []
        for _ in range(2):
            n = rng.randint(1, 5)
            moves = [(rng.randrange(n), rng.choice(labels), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            systems.append(Lts([f"s{i}" for i in range(n)], moves, 0, labels={"a", "b"}))
        for rooted in (False, True):
            assert_same(engine_store, *systems, rooted)


def test_same_system_matches_reference(engine_store):
    # lefts and rights overlap when both states come from one system
    l1, _, sig = next(sampled_pairs(1, 3))
    e1 = encode(l1, sigma=sig)
    assert_same(engine_store, e1, e1, False)


# ---------------------------------------------------------------------------
# revalidation


@pytest.mark.parametrize("rooted", [False, True])
def test_tb_witness_revalidates(rooted):
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    e1, e2 = encoded(l1, l2, sig, rooted)
    v = tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted)
    assert v.equivalent
    assert revalidate(v.witness, v.relation)


def test_damaged_tb_witness_fails():
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    e1, e2 = encoded(l1, l2, sig, False)
    store = tb_check(e1, e1.initial, e2, e2.initial).witness
    verdicts = []
    for i, j in sorted(p for p in store.pairs if p[0] < p[1]):
        with taken_out(store, (i, j), (j, i)):
            verdicts.append(revalidate(store, "tb"))
            assert verdicts[-1] == ref_revalidate(store, False), (i, j)
    assert not all(verdicts)


def test_asymmetric_tb_witness_fails():
    # two deadlocks: each orientation of the pair passes every clause, so
    # only the symmetry check can reject the one-sided store
    dead = from_aut("des (0, 0, 1)\n")
    store = tb_check(dead, 0, from_aut("des (0, 0, 1)\n"), 0).witness
    assert store.pairs == {(0, 1), (1, 0)}
    assert revalidate(store, "tb")
    with taken_out(store, (1, 0)):
        assert not revalidate(store, "tb")


def test_damaged_rooted_tb_witness_fails():
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    e1, e2 = encoded(l1, l2, sig, True)
    store = tb_check(e1, e1.initial, e2, e2.initial, rooted=True).witness
    assert revalidate(store, "tb-rooted")
    verdicts = []
    for i, j in sorted(p for p in store.plain.pairs if p[0] < p[1]):
        with taken_out(store.plain, (i, j), (j, i)):
            verdicts.append(revalidate(store, "tb-rooted"))
            assert verdicts[-1] == ref_revalidate(store, True), (i, j)
    assert not all(verdicts)
    store.plain = None
    assert not revalidate(store, "tb-rooted")


def test_rooted_budget_is_checked_before_an_arena_is_built(monkeypatch):
    # every state offers all eight actions: 2^8 masks a base state.  The
    # plain fixpoint over the twins would seed 770 M pairs, refused on the
    # plain twins' reachable states before any arena, and so any store,
    # over the twins is built; the twin encodings are built by encode itself
    l1, l2 = ring(48, {1}, False, "abcdefgh"), ring(48, {1}, True, "abcdefgh")
    sig = frozenset("abcdefgh")
    r1, r2 = encoded(l1, l2, sig, True)
    monkeypatch.setattr(Arena, "__init__", lambda self, *args: pytest.fail("an arena was built"))
    with pytest.raises(StateBudgetExceeded, match="770"):
        tb_check(r1, r1.initial, r2, r2.initial, rooted=True)


def test_a_ring_with_six_unused_actions_answers_tb():
    # a state is settled only under the actions its tau/t-closure offers, so
    # six declared but unused actions add no settled state, and tb answers
    # the n=48 ring within the budget, plain and rooted, as brb does
    l1, l2 = ring(48, {1}, False), ring(48, {1}, True)
    sig = frozenset("abcdefgh")
    for rooted in (False, True):
        assert brb_check(l1, 0, l2, 0, rooted=rooted, sigma=sig).equivalent
        e1, e2 = encoded(l1, l2, sig, rooted)
        assert tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted).equivalent
