"""The row engine for the reactive triple relations against a per-entry
reference.

The reference below is the per-entry formulation the row engine replaced for
``brb``, ``cbrb``, ``gbrb`` and their rooted layers: one clause check per
stored pair and triple, in sorted order, against the store the round started
with.  Both must agree on every observable field, and on the distinguishing
formulas built from the refutation ranks.
"""

import random

import pytest

from ccspt import (brb_X_check, brb_check, cbrb_check, distinguish, gbrb_check,
                   make_store, revalidate)
from ccspt import bisim
from ccspt.bisim import Arena
from ccspt.modal import _Builder
from ccspt.semantics import TAU, TIMEOUT, Lts
from test_tb_engine import (SetStore, kill_pair, reaches_stable, ring, same_lookups,
                            sampled_pairs, seed_pairs, taken_out)


# ---------------------------------------------------------------------------
# per-entry reference


def declared(arena):
    """Every environment mask over the declared alphabet: the reference
    judges each, where the engine judges one per class of equal X & V."""
    return range(1 << len(arena.sigma))


def vis_moves(arena, p):
    """p's moves by visible actions, in label order, read off ``out``."""
    return [(lab, ds) for lab, ds in sorted(arena.out[p].items()) if lab in arena.bit]


class _ReactiveChecker:
    """Shared matching machinery for the triple-based definitions."""

    def __init__(self, arena: Arena, store: SetStore):
        self.a = arena
        self.st = store

    # -- branching matches ---------------------------------------------
    def _match_pair(self, p, lab, p2, q) -> bool:
        a, pairs = self.a, self.st.pairs
        istau = lab == TAU
        for q1 in a.weak[q]:
            if (p, q1) not in pairs:
                continue
            if istau and (p2, q1) in pairs:
                return True
            for q2 in a.out[q1].get(lab, ()):
                if (p2, q2) in pairs:
                    return True
        return False

    def _match_tau_triple(self, p, x, p2, q) -> bool:
        a, triples = self.a, self.st.triples
        for q1 in a.weak[q]:
            if (p, x, q1) not in triples:
                continue
            if (p2, x, q1) in triples:
                return True
            for q2 in a.tau_succ[q1]:
                if (p2, x, q2) in triples:
                    return True
        return False

    def _match_vis_triple(self, p, x, lab, p2, q) -> bool:
        a = self.a
        triples, pairs = self.st.triples, self.st.pairs
        for q1 in a.weak[q]:
            if (p, x, q1) not in triples:
                continue
            for q2 in a.out[q1].get(lab, ()):
                if (p2, q2) in pairs:
                    return True
        return False

    def _tpath(self, p, x, p2, q) -> bool:
        """Alternating weak/t path matching a time-out, final step optional."""
        a, triples = self.a, self.st.triples
        seen = set()
        stack = [q]
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            if (p, x, s) not in triples:
                continue
            for s1 in a.weak[s]:
                if not a.idle(s1, x):
                    continue
                if (p2, x, s1) in triples:
                    return True
                for s2 in a.t_succ[s1]:
                    if (p2, x, s2) in triples:
                        return True
                    if s2 not in seen:
                        stack.append(s2)
        return False

    def _gpath(self, p, x, p2, q) -> bool:
        """Time-out match whose first intermediate state need only be stable."""
        a, triples = self.a, self.st.triples
        stack = []
        for q1 in a.weak[q]:
            if a.has_tau[q1]:
                continue
            if (p2, x, q1) in triples:
                return True
            for q2 in a.t_succ[q1]:
                if (p2, x, q2) in triples:
                    return True
                stack.append(q2)
        seen = set()
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            if (p, x, s) not in triples:
                continue
            for s1 in a.weak[s]:
                if not a.idle(s1, x):
                    continue
                if (p2, x, s1) in triples:
                    return True
                for s2 in a.t_succ[s1]:
                    if (p2, x, s2) in triples:
                        return True
                    if s2 not in seen:
                        stack.append(s2)
        return False


class BrbChecker(_ReactiveChecker):
    """Branching reactive bisimulation clauses."""

    def check_pair(self, p, q):
        a = self.a
        for lab, targets in a.moves_vt[p]:
            for p2 in targets:
                if not self._match_pair(p, lab, p2, q):
                    return ("1a", {"action": lab, "derivative": p2})
        for x in declared(a):
            if (p, x, q) not in self.st.triples:
                return ("1b", {"env": x})
        return None

    def check_triple(self, p, x, q):
        a = self.a
        for p2 in a.tau_succ[p]:
            if not self._match_tau_triple(p, x, p2, q):
                return ("2a", {"derivative": p2})
        for lab, targets in vis_moves(a, p):
            if a.bit.get(lab, 0) & x:
                for p2 in targets:
                    if not self._match_vis_triple(p, x, lab, p2, q):
                        return ("2b", {"action": lab, "derivative": p2})
        if a.idle(p, x):
            if not any((p, q0) in self.st.pairs for q0 in a.weak[q]):
                return ("2c", {})
            for p2 in a.t_succ[p]:
                if not self._tpath(p, x, p2, q):
                    return ("2d", {"derivative": p2})
        if not a.has_tau[p] and not reaches_stable(a, q):
            return ("2e", {})
        return None


class CbrbChecker(BrbChecker):
    """Concrete variant: each time-out matched by exactly one time-out."""

    def _tpath(self, p, x, p2, q) -> bool:
        a, triples = self.a, self.st.triples
        for q1 in a.weak[q]:
            for q2 in a.t_succ[q1]:
                if (p2, x, q2) in triples:
                    return True
        return False


class GbrbChecker(_ReactiveChecker):
    """Generalised clauses: triples are consulted only after time-outs."""

    def check_pair(self, p, q):
        a = self.a
        for lab, targets in a.moves_vt[p]:
            for p2 in targets:
                if not self._match_pair(p, lab, p2, q):
                    return ("1a", {"action": lab, "derivative": p2})
        if a.t_succ[p]:
            for x in declared(a):
                if a.idle(p, x):
                    for p2 in a.t_succ[p]:
                        if not self._gpath(p, x, p2, q):
                            return ("1b", {"env": x, "derivative": p2})
        if not a.has_tau[p] and not reaches_stable(a, q):
            return ("1c", {})
        return None

    def check_triple(self, p, x, q):
        a = self.a
        for p2 in a.tau_succ[p]:
            if not self._match_tau_triple(p, x, p2, q):
                return ("2a", {"derivative": p2})
        idle = a.idle(p, x)
        for lab, targets in vis_moves(a, p):
            if idle or a.bit.get(lab, 0) & x:
                for p2 in targets:
                    if not self._match_vis_triple(p, x, lab, p2, q):
                        return ("2b", {"action": lab, "derivative": p2})
        if idle and a.t_succ[p]:
            for y in declared(a):
                if a.idle(p, y):
                    for p2 in a.t_succ[p]:
                        if not self._gpath(p, y, p2, q):
                            return ("2c", {"env": y, "derivative": p2})
        if not a.has_tau[p] and not reaches_stable(a, q):
            return ("2d-stable", {})
        return None


class RootedBrbChecker:
    """Congruence-closure layer: first steps matched strongly, then plain."""

    def __init__(self, arena, store, plain):
        self.a = arena
        self.st = store
        self.plain = plain

    def check_pair(self, p, q):
        a, plain = self.a, self.plain
        for lab, targets in a.moves_vt[p]:
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((p2, q2) in plain.pairs for q2 in qsucc):
                    return ("r1a", {"action": lab, "derivative": p2})
        for x in declared(a):
            if (p, x, q) not in self.st.triples:
                return ("r1b", {"env": x})
        return None

    def check_triple(self, p, x, q):
        a, plain = self.a, self.plain
        for p2 in a.tau_succ[p]:
            if not any((p2, x, q2) in plain.triples for q2 in a.tau_succ[q]):
                return ("r2a", {"derivative": p2})
        for lab, targets in vis_moves(a, p):
            if a.bit.get(lab, 0) & x:
                qsucc = a.out[q].get(lab, ())
                for p2 in targets:
                    if not any((p2, q2) in plain.pairs for q2 in qsucc):
                        return ("r2b", {"action": lab, "derivative": p2})
        if a.idle(p, x):
            if (p, q) not in self.st.pairs:
                return ("r2c", {})
            for p2 in a.t_succ[p]:
                if not any((p2, x, q2) in plain.triples for q2 in a.t_succ[q]):
                    return ("r2d", {"derivative": p2})
        return None


class RootedGbrbChecker:
    """Generalised rooted clauses; conditions reference only the plain fixpoint."""

    def __init__(self, arena, store, plain):
        self.a = arena
        self.st = store
        self.plain = plain

    def check_pair(self, p, q):
        a, plain = self.a, self.plain
        for lab, targets in a.moves_vt[p]:
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((p2, q2) in plain.pairs for q2 in qsucc):
                    return ("r1a", {"action": lab, "derivative": p2})
        if a.t_succ[p]:
            for x in declared(a):
                if a.idle(p, x):
                    for p2 in a.t_succ[p]:
                        if not any((p2, x, q2) in plain.triples
                                   for q2 in a.t_succ[q]):
                            return ("r1b", {"env": x, "derivative": p2})
        return None

    def check_triple(self, p, x, q):
        a, plain = self.a, self.plain
        for p2 in a.tau_succ[p]:
            if not any((p2, x, q2) in plain.triples for q2 in a.tau_succ[q]):
                return ("r2a", {"derivative": p2})
        idle = a.idle(p, x)
        for lab, targets in vis_moves(a, p):
            if idle or a.bit.get(lab, 0) & x:
                qsucc = a.out[q].get(lab, ())
                for p2 in targets:
                    if not any((p2, q2) in plain.pairs for q2 in qsucc):
                        return ("r2b", {"action": lab, "derivative": p2})
        if idle and a.t_succ[p]:
            for y in declared(a):
                if a.idle(p, y):
                    for p2 in a.t_succ[p]:
                        if not any((p2, y, q2) in plain.triples
                                   for q2 in a.t_succ[q]):
                            return ("r2c", {"env": y, "derivative": p2})
        return None



PLAIN = {"brb": BrbChecker, "cbrb": CbrbChecker, "gbrb": GbrbChecker}
ROOTED = {"brb": RootedBrbChecker, "cbrb": RootedBrbChecker, "gbrb": RootedGbrbChecker}
CHECKS = {"brb": brb_check, "cbrb": cbrb_check, "gbrb": gbrb_check}


def kill_triple(store, i, x, j, rnd, why):
    store.triples.discard((i, x, j))
    store.triples.discard((j, x, i))
    store.rank.setdefault((i, x, j), rnd)
    store.rank.setdefault((j, x, i), rnd)
    if why is not None:
        store.fail.setdefault((i, x, j), why)


def ref_fixpoint(store, checker):
    iterations = checked = 0
    while True:
        iterations += 1
        checked += len(store.pairs) + len(store.triples)
        bad_pairs = [(i, j, checker.check_pair(i, j)) for i, j in sorted(store.pairs)]
        bad_triples = [(i, x, j, checker.check_triple(i, x, j))
                       for i, x, j in sorted(store.triples)]
        bad_pairs = [b for b in bad_pairs if b[-1] is not None]
        bad_triples = [b for b in bad_triples if b[-1] is not None]
        if not bad_pairs and not bad_triples:
            return iterations, checked
        for i, j, why in bad_pairs:
            kill_pair(store, i, j, iterations, why)
        for i, x, j, why in bad_triples:
            kill_triple(store, i, x, j, iterations, why)


def ref_seeded(arena, relation, lefts, rights):
    store = SetStore(arena, relation)
    seed_pairs(store, lefts, rights)
    for i in lefts:
        for j in rights:
            for x in declared(arena):
                store.triples.add((i, x, j))
                store.triples.add((j, x, i))
    return store


def ref_check(family, l1, l2, sig, rooted):
    """The reference store behind a verdict, and the global index of q; the
    rooted layer is seeded with the queried pair, and its triples, alone."""
    arena = Arena(l1, None if l2 is l1 else l2, sig).tables()
    p, gq = l1.initial, arena.state2(l2.initial)
    lefts, rights = arena.reach(p), arena.reach(gq)
    store = ref_seeded(arena, family, lefts, rights)
    store.iterations, store.checked = ref_fixpoint(store, PLAIN[family](arena, store))
    if rooted:
        plain = store
        store = ref_seeded(arena, family + "-rooted", [p], [gq])
        store.plain = plain
        it, ch = ref_fixpoint(store, ROOTED[family](arena, store, plain))
        store.iterations, store.checked = it + plain.iterations, ch + plain.checked
    return store, gq


def ref_revalidate(store, family, rooted):
    store = SetStore.of(store)
    if rooted:
        if store.plain is None or not ref_revalidate(store.plain, family, False):
            return False
        checker = ROOTED[family](store.arena, store, store.plain)
    else:
        checker = PLAIN[family](store.arena, store)
    return (all((j, i) in store.pairs and checker.check_pair(i, j) is None
                for i, j in sorted(store.pairs))
            and all((j, x, i) in store.triples and checker.check_triple(i, x, j) is None
                    for i, x, j in sorted(store.triples)))


# ---------------------------------------------------------------------------
# helpers


@pytest.fixture
def engine_store(monkeypatch):
    """Run a check and also return the store behind its verdict."""
    seen = []
    real = bisim._row_fixpoints

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(bisim, "_row_fixpoints", spy)

    def run(check, l1, l2, sig, **kw):
        v = check(l1, l1.initial, l2, l2.initial, sigma=sig, **kw)
        return v, seen.pop()
    return run


def same_store(store, ref, triples=True):
    assert store.pairs == ref.pairs
    assert store.triples == ref.triples
    same_lookups(store, ref, triples)


def assert_same(engine_store, family, l1, l2, sig, rooted, envs=()):
    """Field-identical verdicts, stores and records; ``envs`` adds brbX
    verdicts under those environments (the same stores, another entry)."""
    ref, gq = ref_check(family, l1, l2, sig, rooted)
    p = l1.initial

    def same_verdict(v, entry):
        assert v.equivalent == (entry in (ref.pairs if len(entry) == 2 else ref.triples))
        assert (v.iterations, v.entries_checked) == (ref.iterations, ref.checked)
        assert v.refutation == ([] if v.equivalent else
                                bisim._refutation_records(ref, [entry, entry[::-1]]))

    v, store = engine_store(CHECKS[family], l1, l2, sig, rooted=rooted)
    same_verdict(v, (p, gq))
    for env in envs:
        vx, _ = engine_store(brb_X_check, l1, l2, sig, env=env, rooted=rooted)
        same_verdict(vx, (p, store.arena.mask_of(env), gq))
    same_store(store, ref)
    if rooted:
        same_store(store.plain, ref.plain)
    return v


def environments(sig):
    names = sorted(sig)
    return [[a for k, a in enumerate(names) if m >> k & 1] for m in range(1 << len(names))]


def raw_systems(rng, count):
    """Tiny systems over raw labels: tau cycles, time-outs from unstable
    states, several time-outs in a row -- corners the sampled terms rarely
    reach."""
    labels = ("a", "b", TAU, TAU, TIMEOUT, TIMEOUT)
    for _ in range(count):
        systems = []
        for _ in range(2):
            n = rng.randint(1, 4)
            moves = [(rng.randrange(n), rng.choice(labels), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            systems.append(Lts([f"s{i}" for i in range(n)], moves, 0, sigma={"a", "b"}))
        yield systems


FAMILIES = ("brb", "cbrb", "gbrb")


# ---------------------------------------------------------------------------
# field-identical results


@pytest.mark.parametrize("rooted", [False, True])
def test_sampled_pairs_match_reference(engine_store, rooted):
    verdicts = []
    for l1, l2, sig in sampled_pairs(40, 5):
        for family in FAMILIES:
            envs = environments(sig) if family == "brb" else ()
            verdicts.append(assert_same(engine_store, family, l1, l2, sig, rooted, envs))
    # the sample must exercise both outcomes and more than one round
    assert {v.equivalent for v in verdicts} == {True, False}
    assert max(v.iterations for v in verdicts) > 3


@pytest.mark.parametrize("rooted", [False, True])
def test_ring_matches_reference(engine_store, rooted):
    base, sig = ring(8, {1}, False), frozenset({"a", "b"})
    for family in FAMILIES:
        same = assert_same(engine_store, family, base, ring(8, {1}, True), sig, rooted,
                           environments(sig) if family == "brb" else ())
        differ = assert_same(engine_store, family, base, ring(8, {1, 4}, True), sig, rooted)
        assert same.equivalent == (family != "cbrb") and not differ.equivalent
        assert differ.iterations > 3


def test_unused_actions_match_reference(engine_store):
    # a wide alphabet: actions no state offers multiply the masks, not the moves
    l1, l2 = ring(4, {1}, False), ring(4, {1}, True)
    sig = frozenset({"a", "b", "c", "d"})
    for family in FAMILIES:
        for rooted in (False, True):
            assert_same(engine_store, family, l1, l2, sig, rooted)


def test_random_raw_systems_match_reference(engine_store):
    sig = frozenset({"a", "b"})
    for l1, l2 in raw_systems(random.Random(11), 150):
        for family in FAMILIES:
            for rooted in (False, True):
                assert_same(engine_store, family, l1, l2, sig, rooted,
                            environments(sig) if family == "brb" else ())


def test_timeout_path_stations_must_be_alive(engine_store):
    # q times out twice before it idles: a match that passes a dead station
    # must not count (found by a search over random raw systems)
    l1 = Lts([f"p{i}" for i in range(3)], [(1, "a", 1), (0, TIMEOUT, 2)], 0,
             sigma={"a", "b"})
    l2 = Lts([f"q{i}" for i in range(7)],
             [(2, "b", 3), (0, TIMEOUT, 2), (6, "b", 0), (2, TIMEOUT, 5), (3, "a", 1),
              (5, TAU, 0), (6, TAU, 3), (2, TIMEOUT, 6)], 0, sigma={"a", "b"})
    for family in FAMILIES:
        for rooted in (False, True):
            assert_same(engine_store, family, l1, l2, frozenset({"a", "b"}), rooted)


def test_same_system_matches_reference(engine_store):
    # lefts and rights overlap when both states come from one system
    l1, _, sig = next(sampled_pairs(1, 3))
    for family in FAMILIES:
        for rooted in (False, True):
            assert_same(engine_store, family, l1, l1, sig, rooted)


def test_distinguishing_formulas_match_reference():
    found = 0
    for l1, l2, sig in sampled_pairs(40, 5):
        for fragment in ("Lb", "Lbr"):
            ref, gq = ref_check("gbrb", l1, l2, sig, fragment == "Lbr")
            builder = _Builder(ref)
            for env in [None] + environments(sig):
                f = distinguish(l1, l1.initial, l2, l2.initial, fragment=fragment,
                                env=env, sigma=sig)
                if env is None:
                    want = None if (l1.initial, gq) in ref.pairs else \
                        builder.entry((l1.initial, gq))
                else:
                    x = ref.arena.mask_of(env)
                    want = None if (l1.initial, x, gq) in ref.triples else \
                        builder.entry((l1.initial, x, gq))
                assert str(f) == str(want)
                found += f is not None
    assert found


# ---------------------------------------------------------------------------
# fixpoint bookkeeping: grouped deletion and lookups off the row log


def sequential_fixpoint(arena, store, family):
    """``Arena.fixpoint`` with the symmetric deletion done per bad row
    and per dead partner bit, in log order: the loop the grouped deletion
    replaced.  The rows are judged by the same clause programs, and each
    row's dead partners are read off its failing clauses."""
    rows, trows = store.rows, store.trows
    plain = None if store.plain is None else (store.plain.rows, store.plain.trows)
    weight = arena.class_size
    alive = bisim._count(rows) + (weight * sum(bisim._count(line) for line in trows.values())
                                  if trows else 0)
    iterations = checked = 0
    todo = range(arena.n)
    while True:
        iterations += 1
        checked += alive
        bad = list(arena.failing(family, rows, trows, plain, todo))
        if not bad:
            return iterations, checked
        changed = 0
        for p, x, line, fails, _ in bad:
            store.row_kills.append((iterations, (p,) if x is None else (p, x), fails))
            w = 1 if x is None else weight
            dead = 0
            for mask, _ in fails:
                dead |= mask
            gone = line[p] & dead
            line[p] ^= gone
            alive -= w * gone.bit_count()
            changed |= dead | 1 << p
            for q in bisim._bits(dead):
                if line[q] >> p & 1:
                    line[q] ^= 1 << p
                    alive -= w
        todo = [p for p, deps in enumerate(arena.deps) if deps & changed]


def run_fixpoints(fixpoint, arena, family, rooted):
    """The stores of ``_row_fixpoints`` with ``fixpoint`` driving the rounds."""
    lefts, rights = arena.reach(0), arena.reach(arena.state2(0))
    store = arena.seeded(family, lefts, rights, True)
    counts = [fixpoint(arena, store, family)]
    if rooted:
        plain, store = store, arena.seeded(family, lefts, rights, True)
        store.plain = plain
        counts.append(fixpoint(arena, store, family))
    return store, counts


@pytest.mark.parametrize("family", FAMILIES)
def test_grouped_deletion_matches_sequential_deletion(family):
    # c and d are declared but offered by no state, so a triple row weighs 4
    # in the alive count, which entries_checked sums round by round; round 1
    # judges every row against the full seed, so many rows share a dead mask
    l1, l2 = ring(8, {1}, False), ring(8, {1, 4}, True)
    arena = Arena(l1, l2, frozenset({"a", "b", "c", "d"})).tables()
    assert arena.class_size == 4
    for rooted in (False, True):
        got, got_counts = run_fixpoints(bisim.Arena.fixpoint, arena, family, rooted)
        want, want_counts = run_fixpoints(sequential_fixpoint, arena, family, rooted)
        assert got_counts == want_counts
        for g, w in [(got, want)] + [(got.plain, want.plain)] * rooted:
            assert g.row_kills == w.row_kills
            assert (g.rows, g.trows) == (w.rows, w.trows)
        shared = {(rnd, key[1:], sum(m for m, _ in fails))
                  for rnd, key, fails in got.row_kills}
        assert len(shared) < len(got.row_kills)


@pytest.mark.parametrize("rooted", [False, True])
def test_row_log_lookups_match_entered_records(rooted):
    # the engine's lookups off its row log against the records the
    # reference enters entry by entry, over every declared mask
    cases = list(sampled_pairs(12, 5))
    cases.append((ring(4, {1}, False), ring(4, {1, 2}, True), frozenset("abcd")))
    wide = found = 0
    for l1, l2, sig in cases:
        for family in FAMILIES:
            arena = Arena(l1, l2, sig)
            store = bisim._row_fixpoints(bisim._PairContext(arena), l1.initial,
                                         l2.initial, family, family, rooted)
            found += bool(store.row_kills)
            wide += arena.class_size > 1
            ref, _ = ref_check(family, l1, l2, sig, rooted)
            for st, want in [(store, ref), (store.plain, ref.plain)][:1 + rooted]:
                same_lookups(st, want, triples=True)
    assert found and wide


# ---------------------------------------------------------------------------
# revalidation


def damaged(store):
    """Each symmetric pair and triple taken out of the rows in turn (one
    orientation of the first pair alone too); the rows are put back
    afterwards."""
    for i, j in sorted(e for e in store.pairs if e[0] < e[1]):
        with taken_out(store, (i, j), (j, i)):
            yield
    for i, x, j in sorted(e for e in store.triples if e[0] < e[2]):
        with taken_out(store, (i, x, j), (j, x, i)):
            yield
    i, j = min(store.pairs)
    with taken_out(store, (j, i)):
        yield


@pytest.mark.parametrize("family", FAMILIES)
def test_witnesses_revalidate(family):
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, family != "cbrb"), frozenset({"a", "b"})
    for rooted in (False, True):
        relation = family + ("-rooted" if rooted else "")
        v = CHECKS[family](l1, l1.initial, l2, l2.initial, rooted=rooted, sigma=sig)
        assert v.equivalent
        # before and after reading the sets, which leaves the rows as they are
        assert revalidate(v.witness, relation)
        assert v.witness.size == len(v.witness.pairs) + len(v.witness.triples)
        assert revalidate(v.witness, relation)


@pytest.mark.parametrize("family", FAMILIES)
def test_damaged_witnesses_match_reference(family):
    l1, l2, sig = ring(4, {1}, False), ring(4, {1}, family != "cbrb"), frozenset({"a", "b"})
    store = CHECKS[family](l1, l1.initial, l2, l2.initial, sigma=sig).witness
    verdicts = []
    for _ in damaged(store):
        verdicts.append(revalidate(store, family))
        assert verdicts[-1] == ref_revalidate(store, family, False)
    assert not all(verdicts)
    assert revalidate(store, family)


@pytest.mark.parametrize("family", FAMILIES)
def test_damaged_rooted_witnesses_match_reference(family):
    l1, l2, sig = ring(4, {1}, False), ring(4, {1}, family != "cbrb"), frozenset({"a", "b"})
    store = CHECKS[family](l1, l1.initial, l2, l2.initial, rooted=True, sigma=sig).witness
    relation = family + "-rooted"
    verdicts = []
    for damaged_store in (store, store.plain):
        for _ in damaged(damaged_store):
            verdicts.append(revalidate(store, relation))
            assert verdicts[-1] == ref_revalidate(store, family, True)
    assert not all(verdicts)
    assert revalidate(store, relation)
    store.plain = None
    assert not revalidate(store, relation)


def test_asymmetric_triple_witness_fails():
    # two tau loops: the triple under the empty environment passes every
    # clause without a pair, so only the symmetry check can reject the
    # one-sided store
    loop = Lts(["s0"], [(0, TAU, 0)], 0, sigma={"a"})
    store = make_store(loop, Lts(["s0"], [(0, TAU, 0)], 0, sigma={"a"}), "brb",
                       triples=[(0, (), 0)])
    assert store.triples == {(0, 0, 1), (1, 0, 0)}
    assert revalidate(store, "brb") and ref_revalidate(store, "brb", False)
    with taken_out(store, (1, 0, 0)):
        assert not revalidate(store, "brb")
        assert not ref_revalidate(store, "brb", False)


@pytest.mark.parametrize("family", FAMILIES)
def test_damage_under_one_declared_mask_matches_reference(family):
    # c and d are declared but offered by no state, so four masks share each
    # class; taking a triple out under one of them splits its class, and
    # the store must be judged as the declared masks judge it
    l1, l2 = ring(4, {1}, False), ring(4, {1}, family != "cbrb")
    sig = frozenset({"a", "b", "c", "d"})
    for rooted in (False, True):
        store = CHECKS[family](l1, l1.initial, l2, l2.initial, rooted=rooted,
                               sigma=sig).witness
        relation = family + ("-rooted" if rooted else "")
        verdicts = []
        for damaged_store in (store, store.plain)[:1 + rooted]:
            for _ in damaged(damaged_store):
                verdicts.append(revalidate(store, relation))
                assert verdicts[-1] == ref_revalidate(store, family, rooted)
        assert not all(verdicts)


def test_store_split_within_a_class_matches_reference():
    # s1 offers a and no state offers c, so {} and {c} are one class (and
    # {a} and {a,c} another); each store names a triple under some masks
    # of a class and not under others
    def system():
        return Lts(["s0", "s1"], [(0, TAU, 0), (1, "a", 1)], 0, sigma={"a", "c"})

    stores = [((), [()]), ((), [("c",)]), ((), [("a", "c")]),
              ([(0, 0)], [(), ("a",), ("a", "c")]),
              ([(0, 0)], [(), ("c",), ("a",), ("a", "c")])]
    answers = []
    for family in FAMILIES:
        for pairs, envs in stores:
            store = make_store(system(), system(), family, pairs=pairs,
                               triples=[(0, env, 0) for env in envs])
            answers.append(revalidate(store, family))
            assert answers[-1] == ref_revalidate(store, family, False), (family, pairs, envs)
    assert set(answers) == {True, False}
