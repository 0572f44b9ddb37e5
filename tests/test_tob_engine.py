"""The row engine for time-out bisimulation against a per-pair reference.

The reference below is the per-pair formulation the row engine replaced for
``tob`` and ``tob-rooted`` over the environment-augmented ``ThetaArena``:
one clause check per stored pair, in sorted order, against the store the
round started with.  Both must agree on every observable field and under
every environment query.

The reference reads the arena's ``wrap``, so over a ``ThetaArena`` it shares
the normal form that nested wrappers take there.  ``NestedThetaArena`` builds
nested wrappers as states of their own instead, and the engine must agree
with the reference over it on the base states and their wrappers.
"""

import copy
import random
from functools import partial

import pytest

from ccspt import encode, make_store, revalidate, tob_check
from ccspt import bisim
from ccspt.bisim import Arena, ThetaArena
from ccspt.errors import LabelUniverseMismatch
from ccspt.semantics import TAU, TIMEOUT, Lts, label_kind
from conftest import lts_of
from test_reactive_engine import damaged, declared, engine_store, same_store  # noqa: F401
from test_tb_engine import (SetStore, reaches_stable, ref_fixpoint, ring, sampled_pairs,
                            seed_pairs, taken_out)


# ---------------------------------------------------------------------------
# per-pair reference


class RefTob:
    """Clauses t1-t3 of time-out bisimulation, one pair at a time."""

    def __init__(self, arena, store):
        self.a = arena
        self.st = store

    def check_pair(self, u, v):
        a = self.a
        for lab, targets in a.moves_vt[u]:
            for u2 in targets:
                if not self._match(u, lab, u2, v):
                    return ("t1", {"action": lab, "derivative": u2})
        if a.t_succ[u]:
            for x in declared(a):
                if a.idle(u, x):
                    for u2 in a.t_succ[u]:
                        if not self._tobpath(u, x, u2, v):
                            return ("t2", {"env": x, "derivative": u2})
        if not a.has_tau[u] and not reaches_stable(a, v):
            return ("t3", {})
        return None

    def _match(self, u, lab, u2, v):
        a, pairs = self.a, self.st.pairs
        for v1 in a.weak[v]:
            if (u, v1) not in pairs:
                continue
            if lab == TAU and (u2, v1) in pairs:
                return True
            for v2 in a.out[v1].get(lab, ()):
                if (u2, v2) in pairs:
                    return True
        return False

    def _tobpath(self, u, x, u2, v):
        a, pairs = self.a, self.st.pairs
        lhs2 = a.wrap(x, u2)
        if lhs2 is None:
            return False
        stack = []
        for v1 in a.weak[v]:
            if a.has_tau[v1]:
                continue
            w1 = a.wrap(x, v1)
            if w1 is not None and (lhs2, w1) in pairs:
                return True
            for v2 in a.t_succ[v1]:
                w2 = a.wrap(x, v2)
                if w2 is not None and (lhs2, w2) in pairs:
                    return True
                stack.append(v2)
        seen = set()
        while stack:
            s = stack.pop()
            if s in seen:
                continue
            seen.add(s)
            lhs = a.wrap(x, s)
            if lhs is None or (u, lhs) not in pairs:
                continue
            for s1 in a.weak[s]:
                if not a.idle(s1, x):
                    continue
                if (lhs2, s1) in pairs:
                    return True
                for s2 in a.t_succ[s1]:
                    w2 = a.wrap(x, s2)
                    if w2 is not None and (lhs2, w2) in pairs:
                        return True
                    if s2 not in seen:
                        stack.append(s2)
        return False


class RefRootedTob:
    """Clauses rt1/rt2: first steps matched strongly into the plain store."""

    def __init__(self, arena, plain):
        self.a = arena
        self.plain = plain

    def check_pair(self, p, q):
        a, plain = self.a, self.plain.pairs
        for lab, targets in a.moves_vt[p]:
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((p2, q2) in plain for q2 in qsucc):
                    return ("rt1", {"action": lab, "derivative": p2})
        if a.t_succ[p]:
            for x in declared(a):
                if a.idle(p, x):
                    for p2 in a.t_succ[p]:
                        w2 = a.wrap(x, p2)
                        if not any(w2 is not None and a.wrap(x, q2) is not None
                                   and (w2, a.wrap(x, q2)) in plain
                                   for q2 in a.t_succ[q]):
                            return ("rt2", {"env": x, "derivative": p2})
        return None


class DeclaredThetaArena(ThetaArena):
    """One wrapper per declared mask, as if no mask were quotiented by V."""

    def _build_tables(self, start=0):
        super()._build_tables(start)
        self.vmask, self.class_size = self.full_mask, 1


def test_rebuilt_tables_start_with_an_empty_memo():
    # the mask memo holds functions of the engine tables, so it goes with
    # them: a rebuild, such as the one by which the declared arena keys its
    # wrappers by every declared mask, starts it empty
    l1, l2 = lts_of("a.t.b.0 + b.0", sigma={"c"}), lts_of("a.t.t.b.0 + b.0", sigma={"c"})
    arena = DeclaredThetaArena(l1, l2, {"a", "b", "c"})
    assert arena._memo == {} and arena.vmask == arena.full_mask
    store = arena.seeded("tob", arena.side_states(0), arena.side_states(arena.state2(0)), False)
    arena.fixpoint(store, "tob")
    assert arena._memo and arena.pred is not None
    arena._build_tables(arena.n)
    assert arena._memo == {} and arena.pred is None
    again = arena.seeded("tob", arena.side_states(0), arena.side_states(arena.state2(0)), False)
    arena.fixpoint(again, "tob")
    assert again.rows == store.rows and again.row_kills == store.row_kills


class NestedThetaArena(ThetaArena):
    """Wrappers nested ``depth`` levels deep, built by the theta rules with
    no normal form: each wrapper of a wrapper is a state of its own, and
    ``wrap`` is a plain lookup that returns None past the depth.  The
    inherited ``side_states`` finds every level in one pass, as a wrapper is
    entered after the state it wraps."""

    def __init__(self, l1, l2=None, sigma=(), depth=1):
        Arena.__init__(self, l1, l2, sigma)
        self.wrapped, self.wrap_key = {}, {}
        frontier = list(range(self.n))
        for _ in range(depth):
            level = [self._new_wrap(x, s) for s in frontier for x in self.xmasks
                     if not self.idle(s, x)]
            for w in level:
                x, s = self.wrap_key[w]
                moves = {}
                for d in self.out[s].get(TAU, ()):
                    moves.setdefault(TAU, []).append(
                        d if self.idle(d, x) else self._new_wrap(x, d))
                for lab, ds in sorted(self.out[s].items()):
                    if label_kind(lab)[0] == "visible" and self.bit.get(lab, 0) & x:
                        moves.setdefault(lab, []).extend(ds)
                self.out[w] = {lab: tuple(dict.fromkeys(ds)) for lab, ds in moves.items()}
            self._build_tables()
            frontier = level

    def _new_wrap(self, x, s):
        w = self.wrapped.get((x, s))
        if w is None:
            w = self.wrapped[x, s] = len(self.tags)
            self.wrap_key[w] = (x, s)
            self.tags.append(f"theta{{{','.join(self.mask_names(x))}}}({self.describe(s)})")
            self.out.append({})
        return w

    def wrap(self, x, s):
        x &= self.vmask
        return s if self.idle(s, x) else self.wrapped.get((x, s))


def ref_tob(l1, l2, sig, rooted, kind=ThetaArena):
    """The reference store behind a verdict, and the global index of q."""
    arena = kind(l1, None if l2 is l1 else l2, sig)
    p, gq = l1.initial, arena.state2(l2.initial)
    lefts, rights = arena.side_states(p), arena.side_states(gq)
    store = SetStore(arena, "tob")
    seed_pairs(store, lefts, rights)
    store.iterations, store.checked = ref_fixpoint(store, RefTob(arena, store))
    return (ref_rooted(store, (p, gq)) if rooted else store), gq


def ref_rooted(plain, entry):
    """The reference's rooted layer over ``plain``, seeded with the queried
    entry alone: the pair, or the wrapped pair under an environment."""
    store = SetStore(plain.arena, "tob-rooted")
    seed_pairs(store, entry[:1], entry[1:])
    store.plain = plain
    it, ch = ref_fixpoint(store, RefRootedTob(plain.arena, plain))
    store.iterations, store.checked = it + plain.iterations, ch + plain.checked
    return store


def ref_revalidate(store, rooted):
    store = SetStore.of(store)
    if rooted:
        if store.plain is None or not ref_revalidate(store.plain, False):
            return False
        checker = RefRootedTob(store.arena, store.plain)
    else:
        checker = RefTob(store.arena, store)
    return all((j, i) in store.pairs and checker.check_pair(i, j) is None
               for i, j in sorted(store.pairs)) and not store.triples


# ---------------------------------------------------------------------------
# helpers


def assert_same(engine_store, l1, l2, sig, rooted, envs=False):
    """Field-identical verdicts, stores and records; with ``envs``, the
    verdicts of the wrapped pair under every environment mask too (the same
    plain store, another entry, and when rooted the layer seeded with it)."""
    ref, gq = ref_tob(l1, l2, sig, rooted)
    arena = ref.arena

    def same_verdict(v, store, entry, ref, x=None):
        assert v.equivalent == (entry in ref.pairs)
        assert (v.iterations, v.entries_checked) == (ref.iterations, ref.checked)
        assert v.refutation == ([] if v.equivalent else
                                bisim._refutation_records(ref, [entry, entry[::-1]], x))
        same_store(store, ref, triples=False)
        if rooted:
            same_store(store.plain, ref.plain, triples=False)

    v, store = engine_store(tob_check, l1, l2, sig, rooted=rooted)
    same_verdict(v, store, (l1.initial, gq), ref)
    for x in (declared(arena) if envs else ()):
        entry = (arena.wrap(x, l1.initial), arena.wrap(x, gq))
        ve, st = engine_store(tob_check, l1, l2, sig, rooted=rooted, env=arena.mask_names(x))
        same_verdict(ve, st, entry, ref_rooted(ref.plain, entry) if rooted else ref, x)
    return v


# ---------------------------------------------------------------------------
# field-identical results


@pytest.mark.parametrize("rooted", [False, True])
def test_sampled_pairs_match_reference(engine_store, rooted):
    verdicts = [assert_same(engine_store, l1, l2, sig, rooted, envs=True)
                for l1, l2, sig in sampled_pairs(40, 7)]
    # the sample must exercise both outcomes and more than one round
    assert {v.equivalent for v in verdicts} == {True, False}
    assert max(v.iterations for v in verdicts) > 2


@pytest.mark.parametrize("depth", [2, 3])
def test_nested_wrappers_match_reference(engine_store, depth):
    # the engine's one level of wrappers, onto which nested ones normalise,
    # against the reference over wrappers nested depth levels deep: the same
    # verdicts, records and rounds under every environment, and the same
    # pairs and ranks among the states both arenas number alike, the base
    # states and their wrappers
    pairs = list(sampled_pairs(12, 5))
    pairs.append((ring(12, {1}, False), ring(12, {1}, True), frozenset({"a", "b"})))
    verdicts = []
    for l1, l2, sig in pairs:
        for rooted in (False, True):
            ref, gq = ref_tob(l1, l2, sig, rooted, partial(NestedThetaArena, depth=depth))
            nested = ref.arena
            v, store = engine_store(tob_check, l1, l2, sig, rooted=rooted)
            n = store.arena.n
            shared = [(i, j) for i in range(n) for j in range(n)]
            for got, want in ([(store, ref), (store.plain, ref.plain)] if rooted
                              else [(store, ref)]):
                assert ({e for e in got.pairs if max(e) < n}
                        == {e for e in want.pairs if max(e) < n})
                assert ([got.lookup(e)[0] for e in shared]
                        == [want.lookup(e)[0] for e in shared])
            for x in (None, *declared(nested)):
                want = ref
                if x is not None:
                    v, _ = engine_store(tob_check, l1, l2, sig, rooted=rooted,
                                        env=nested.mask_names(x))
                entry = ((l1.initial, gq) if x is None else
                         (nested.wrap(x, l1.initial), nested.wrap(x, gq)))
                if rooted and x is not None:
                    want = ref_rooted(ref.plain, entry)
                assert v.equivalent == (entry in want.pairs)
                assert v.iterations == want.iterations
                assert v.refutation == ([] if v.equivalent else
                                        bisim._refutation_records(want, [entry, entry[::-1]], x))
                verdicts.append(v)
    assert {v.equivalent for v in verdicts} == {True, False}


@pytest.mark.parametrize("rooted", [False, True])
def test_ring_matches_reference(engine_store, rooted):
    # the base rings whose encodings the tb engine tests check
    base, sig = ring(12, {1}, False), frozenset({"a", "b"})
    same = assert_same(engine_store, base, ring(12, {1}, True), sig, rooted, envs=True)
    differ = assert_same(engine_store, base, ring(12, {1, 6}, True), sig, rooted)
    assert same.equivalent and not differ.equivalent
    assert differ.iterations > 3


@pytest.mark.parametrize("rooted", [False, True])
def test_unused_actions_ring_matches_reference(engine_store, rooted):
    # |Sigma| = 4 with two actions no state offers: 16 masks per wrapper
    base, sig = ring(8, {1}, False), frozenset({"a", "b", "c", "d"})
    same = assert_same(engine_store, base, ring(8, {1}, True), sig, rooted, envs=True)
    differ = assert_same(engine_store, base, ring(8, {1, 4}, True), sig, rooted)
    assert same.equivalent and not differ.equivalent


@pytest.mark.parametrize("rooted", [False, True])
def test_merged_wrappers_match_declared_reference(engine_store, rooted):
    # the reference wraps each state under every declared mask; the engine
    # has one wrapper for X and X & V.  Verdicts, rounds and records agree,
    # and each declared pair shares the fate of the pair it maps to
    base = ring(8, {1}, False)
    pairs = [(base, ring(8, {1}, True), frozenset({"a", "b", "c", "d"})),
             (base, ring(8, {1, 4}, True), frozenset({"a", "b", "c", "d"}))]
    pairs += [(l1, l2, sig | {"u", "v"}) for l1, l2, sig in sampled_pairs(12, 7)]
    for l1, l2, sig in pairs:
        ref, gq = ref_tob(l1, l2, sig, rooted, kind=DeclaredThetaArena)
        v, store = engine_store(tob_check, l1, l2, sig, rooted=rooted)
        arena, declared_arena = store.arena, ref.arena

        def image(s):
            if s not in declared_arena.wrap_key:
                return s
            x, t = declared_arena.wrap_key[s]
            return arena.wrapped[(x & arena.vmask, image(t))]

        assert v.equivalent == ((l1.initial, gq) in ref.pairs)
        assert v.iterations == ref.iterations
        assert v.refutation == ([] if v.equivalent else bisim._refutation_records(
            ref, [(l1.initial, gq), (gq, l1.initial)]))
        assert {(image(i), image(j)) for i, j in ref.pairs} == store.pairs
        rank = {(i, j): store.lookup((i, j))[0]
                for i in range(arena.n) for j in range(arena.n)}
        assert ({e for e, k in rank.items() if k is not None}
                == {(image(i), image(j)) for i, j in ref.rank})
        assert all(rank[image(i), image(j)] == k for (i, j), k in ref.rank.items())
        for x in declared(arena):
            entry = (declared_arena.wrap(x, l1.initial), declared_arena.wrap(x, gq))
            ve, _ = engine_store(tob_check, l1, l2, sig, rooted=rooted,
                                 env=arena.mask_names(x))
            want = ref_rooted(ref.plain, entry) if rooted else ref
            assert ve.equivalent == (entry in want.pairs)


def test_random_raw_systems_match_reference(engine_store):
    # tiny raw systems reach corners the sampled terms do not: tau cycles,
    # time-outs from unstable states, several time-outs in a row
    rng = random.Random(11)
    labels = ("a", "b", TAU, TAU, TIMEOUT, TIMEOUT)
    for _ in range(150):
        systems = []
        for _ in range(2):
            n = rng.randint(1, 5)
            moves = [(rng.randrange(n), rng.choice(labels), rng.randrange(n))
                     for _ in range(rng.randint(0, 2 * n))]
            systems.append(Lts([f"s{i}" for i in range(n)], moves, 0, sigma={"a", "b"}))
        for rooted in (False, True):
            assert_same(engine_store, *systems, frozenset({"a", "b"}), rooted)


@pytest.mark.parametrize("left, right", [
    # a row whose t-successor's wrapper loses a partner in a round where
    # the row's own successors keep theirs: the row is judged again only
    # because the wrapper's row is among the rows it reads
    ((2, [(0, TIMEOUT, 0)]),
     (7, [(2, TAU, 0), (5, TIMEOUT, 2), (2, TIMEOUT, 5), (0, "a", 2)])),
    # a partner's time-out path whose station is related to the left state
    # through its wrapper, not as a bare state
    ((7, [(0, TIMEOUT, 4), (4, "a", 1)]),
     (7, [(5, TIMEOUT, 1), (0, TIMEOUT, 4), (1, "a", 5), (4, "b", 2), (4, TAU, 5)])),
])
def test_fixed_systems_match_reference(engine_store, left, right):
    # found by a search over random raw systems
    systems = [Lts([f"s{i}" for i in range(n)], moves, 0, sigma={"a", "b"})
               for n, moves in (left, right)]
    for rooted in (False, True):
        assert_same(engine_store, *systems, frozenset({"a", "b"}), rooted, envs=True)


def test_same_system_matches_reference(engine_store):
    # lefts and rights overlap when both states come from one system
    l1, _, sig = next(sampled_pairs(1, 3))
    for rooted in (False, True):
        assert_same(engine_store, l1, l1, sig, rooted, envs=True)


def test_encoded_ring_is_refused():
    # tob is defined over base systems; an encoding's labels are refused
    e = encode(ring(4, {1}, False), sigma={"a", "b"})
    with pytest.raises(LabelUniverseMismatch):
        tob_check(e, e.initial, e, e.initial)


# ---------------------------------------------------------------------------
# revalidation


@pytest.mark.parametrize("rooted", [False, True])
def test_witnesses_revalidate(rooted):
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    v = tob_check(l1, l1.initial, l2, l2.initial, rooted=rooted, sigma=sig)
    assert v.equivalent
    # before and after reading the set, which leaves the rows as they are
    assert revalidate(v.witness, v.relation)
    assert v.witness.size == len(v.witness.pairs)
    assert revalidate(v.witness, v.relation)


def test_damaged_witness_matches_reference():
    l1, l2, sig = ring(4, {1}, False), ring(4, {1}, True), frozenset({"a", "b"})
    store = tob_check(l1, l1.initial, l2, l2.initial, sigma=sig).witness
    verdicts = []
    for _ in damaged(store):
        verdicts.append(revalidate(store, "tob"))
        assert verdicts[-1] == ref_revalidate(store, False)
    assert not all(verdicts)
    assert revalidate(store, "tob")


def test_damaged_rooted_witness_matches_reference():
    l1, l2, sig = ring(4, {1}, False), ring(4, {1}, True), frozenset({"a", "b"})
    store = tob_check(l1, l1.initial, l2, l2.initial, rooted=True, sigma=sig).witness
    verdicts = []
    for damaged_store in (store, store.plain):
        for _ in damaged(damaged_store):
            verdicts.append(revalidate(store, "tob-rooted"))
            assert verdicts[-1] == ref_revalidate(store, True)
    assert not all(verdicts)
    assert revalidate(store, "tob-rooted")
    store.plain = None
    assert not revalidate(store, "tob-rooted")


def test_asymmetric_witness_fails():
    # two deadlocks: each orientation of the pair passes every clause, so
    # only the symmetry check can reject the one-sided store
    store = tob_check(Lts(["s0"], [], 0), 0, Lts(["s0"], [], 0), 0).witness
    assert store.pairs == {(0, 1), (1, 0)}
    assert revalidate(store, "tob") and ref_revalidate(store, False)
    with taken_out(store, (1, 0)):
        assert not revalidate(store, "tob")
        assert not ref_revalidate(store, False)


def test_store_from_entries_lives_on_the_theta_arena():
    # the identity on base states lacks the pairs of the wrappers the
    # time-out clause reaches; tob_check's own witness has them
    lts = lts_of("t.a.0")
    store = make_store(lts, lts, "tob", pairs=[(s, s) for s in range(len(lts))])
    assert isinstance(store.arena, ThetaArena)
    assert revalidate(store, "tob") is False
    assert ref_revalidate(store, False) is False
    witness = tob_check(lts, 0, lts, 0).witness
    assert revalidate(witness, "tob") is True


def test_wrapper_tables_equal_one_walk_over_the_final_moves():
    # a ThetaArena appends its wrappers' move tables to the base states';
    # they must equal what one fresh walk over its final ``out`` builds
    pairs = list(sampled_pairs(15, 3))
    pairs.append((ring(12, {1}, False), ring(12, {1}, True), frozenset({"a", "b", "c"})))
    tables = ("n", "tau_succ", "t_succ", "has_tau", "moves_vt", "vis_mask", "vmask",
              "class_size", "encoded")
    wrapped = 0
    for l1, l2, sig in pairs:
        arena = ThetaArena(l1, l2, sig)
        fresh = copy.copy(arena)
        fresh._build_tables()
        assert all(getattr(arena, name) == getattr(fresh, name) for name in tables)
        wrapped += len(arena.wrap_key)
    assert wrapped
