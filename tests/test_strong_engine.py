"""Strong bisimilarity against the formulations it replaced.

The reference below is the earlier ``strong_bisim``: each round builds, for
every state, a sorted tuple of per-label sorted block tuples, and the
witness compares every pair of reachable states.  ``RefStrong`` is the
per-pair clause check that ``revalidate(w, "strong")`` ran.  Verdicts,
rounds, counts, witnesses, refutations and revalidation answers must all
be identical.  ``ref_rounds`` is the full re-signing loop that the
worklist refinement (``bisim._refine``) replaced, round by round: every
round must leave the same partition.
"""

import pytest

from ccspt import bisim, revalidate, strong_bisim
from ccspt.bisim import Arena, Verdict
from ccspt.errors import LabelUniverseMismatch
from ccspt.semantics import from_aut
from conftest import pair_lts
from test_tb_engine import SetStore, ring, sampled_pairs, taken_out


# ---------------------------------------------------------------------------
# reference


def ref_strong(l1, p, l2, q):
    arena = Arena(l1, None if l2 is l1 else l2)
    gq = arena.state2(q)
    block = [0] * arena.n
    iterations = 0
    while True:
        iterations += 1
        signatures = {}
        nxt = []
        for s in range(arena.n):
            sig = (block[s], tuple(sorted(
                (lab, tuple(sorted({block[d] for d in ds})))
                for lab, ds in arena.out[s].items())))
            nxt.append(signatures.setdefault(sig, len(signatures)))
        if nxt == block:
            break
        block = nxt
    equivalent = block[p] == block[gq]
    lefts, rights = arena.reach(p), arena.reach(gq)
    store = SetStore(arena, "strong")
    for i in lefts:
        for j in rights:
            if block[i] == block[j]:
                store.pairs.add((i, j))
                store.pairs.add((j, i))
    refutation = []
    if not equivalent:
        refutation = [{
            "lhs": arena.describe(p), "rhs": arena.describe(gq), "env": None,
            "clause": "strong", "detail": "states separated by partition refinement",
        }]
    return Verdict("strong", equivalent, arena.sigma, iterations,
                   arena.n * iterations, refutation, store if equivalent else None)


def ref_rounds(out):
    """The blocks after each round of the full re-signing loop: every state
    is signed in every round, and the blocks are numbered by the first
    occurrence of a signature, until a round moves nothing (yielded last)."""
    block = [0] * len(out)
    while True:
        signatures = {}
        nxt = [signatures.setdefault(
                   (block[s], tuple(sorted({(lab, block[d]) for lab, ds in moves.items()
                                            for d in ds}))),
                   len(signatures))
               for s, moves in enumerate(out)]
        yield nxt
        if nxt == block:
            return
        block = nxt


def canonical(block):
    """A partition numbered by the first occurrence of each block."""
    first = {}
    return [first.setdefault(b, len(first)) for b in block]


def assert_same_rounds(l1, p, l2, q):
    """The worklist leaves the reference's partition after every round, in
    as many rounds; returns the number of states each round signed."""
    arena = Arena(l1, None if l2 is l1 else l2)
    got, signed = [], []
    for block, count in bisim._refine(arena.out):
        got.append(canonical(block))
        signed.append(count)
    assert got == list(ref_rounds(arena.out))
    assert strong_bisim(l1, p, l2, q).iterations == len(got)
    return arena.n, signed


class RefStrong:
    """The strong clause, one pair at a time."""

    def __init__(self, arena, store):
        self.a = arena
        self.pairs = store.pairs

    def check_pair(self, p, q):
        a = self.a
        for lab, targets in a.out[p].items():
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((p2, q2) in self.pairs for q2 in qsucc):
                    return ("strong", {"action": lab, "derivative": p2})
        return None


def ref_revalidate(store):
    store = SetStore.of(store)
    checker = RefStrong(store.arena, store)
    pairs = store.pairs
    if store.triples:
        return False
    return all((j, i) in pairs and checker.check_pair(i, j) is None
               for i, j in sorted(pairs))


def assert_same(l1, p, l2, q, sigma=()):
    """Identical verdicts; ``sigma`` against the reference over systems
    widened by it."""
    got = strong_bisim(l1, p, l2, q, sigma=sigma)
    if sigma:
        l1, l2 = l1.with_sigma(sigma), l2.with_sigma(sigma)
    want = ref_strong(l1, p, l2, q)
    assert (got.equivalent, got.iterations, got.entries_checked) == \
        (want.equivalent, want.iterations, want.entries_checked)
    assert got.refutation == want.refutation
    assert got.sigma == want.sigma
    assert got.to_json() == want.to_json()
    if want.witness is None:
        assert got.witness is None
    else:
        assert got.witness.pairs == want.witness.pairs
    return got


def assert_revalidation_matches(store):
    """Intact, then with each entry taken out in turn (one orientation: the
    rest is an asymmetric store), then each symmetric pair taken out."""
    assert revalidate(store, "strong") and ref_revalidate(store)
    answers = []
    for entry in sorted(store.pairs):
        with taken_out(store, entry):
            answers.append(revalidate(store, "strong"))
            assert answers[-1] == ref_revalidate(store)
    for i, j in sorted(e for e in store.pairs if e[0] < e[1]):
        with taken_out(store, (i, j), (j, i)):
            answers.append(revalidate(store, "strong"))
            assert answers[-1] == ref_revalidate(store)
    assert revalidate(store, "strong")
    return answers


# ---------------------------------------------------------------------------
# inputs

INTERLEAVED = ("hide{c}(<x|{x = a.c.x + b.x}> ||{c} <y|{y = c.a.y + t.y}>)"
               " ||{a} <z|{z = tau.a.z + b.0}>")
REORDERED = ("<z|{z = tau.a.z + b.0}> ||{a}"
             " hide{c}(<y|{y = c.a.y + t.y}> ||{c} <x|{x = a.c.x + b.x}>)")
ALTERED = ("hide{c}(<x|{x = a.c.x + b.x}> ||{c} <y|{y = c.a.0 + t.y}>)"
           " ||{a} <z|{z = tau.a.z + b.0}>")



def component(i, altered=False):
    """A 4-state recursive component over its own actions; the altered one
    loops back to ``y`` instead of ``x``."""
    back = "y" if altered else "x"
    return f"<x|{{x = a{i}.y + tau.z; y = b{i}.z; z = t.w; w = c{i}.{back}}}>"


def interleaving(order, altered=None):
    return " ||{} ".join(component(i, i == altered) for i in order)


# duplicate transitions, a nondeterministic choice and a self-loop
DUPLICATES = """des (0, 8, 4)
(0,"a",1)
(0,"a",1)
(0,"a",2)
(1,"b",3)
(2,"b",3)
(2,"b",3)
(3,"tau",3)
(3,"t",0)
"""
COLLAPSED = """des (0, 4, 3)
(0,"a",1)
(1,"b",2)
(2,"tau",2)
(2,"t",0)
"""


def test_sampled_pairs_match_reference():
    equivalent = 0
    for l1, l2, _ in sampled_pairs(200, seed=8080):
        v = assert_same(l1, l1.initial, l2, l2.initial)
        equivalent += v.equivalent
        if v.equivalent:
            assert_revalidation_matches(v.witness)
    assert 30 < equivalent < 170


def test_same_system_queries_match_reference():
    queried = 0
    for l1, l2, _ in sampled_pairs(40, seed=2020):
        for lts in (l1, l2):
            for s in range(len(lts)):
                assert_same(lts, lts.initial, lts, s)
                queried += 1
    assert queried > 100


def test_interleaving_with_sync_and_hiding_matches_reference():
    l1, l2, _ = pair_lts(INTERLEAVED, REORDERED)
    l3, _, _ = pair_lts(ALTERED, REORDERED)
    v = assert_same(l1, 0, l2, 0)
    assert v.equivalent and v.iterations > 2
    assert_revalidation_matches(v.witness)
    assert not assert_same(l1, 0, l3, 0).equivalent
    for s in range(len(l1)):
        assert_same(l1, 0, l1, s)


def test_aut_with_duplicate_transitions_matches_reference():
    l1, l2 = from_aut(DUPLICATES), from_aut(COLLAPSED)
    v = assert_same(l1, 0, l2, 0)
    assert v.equivalent and len(v.witness.pairs) == 2 * 4
    assert not all(assert_revalidation_matches(v.witness))
    assert_same(l1, 0, l1, 2)
    assert_same(l1, 1, l1, 2)


def test_ring_matches_reference():
    l1, l2 = ring(16, {1}, False), ring(16, {1, 8}, False)
    v = assert_same(l1, 0, l2, 0)
    assert not v.equivalent and v.iterations > 4
    assert_revalidation_matches(assert_same(l1, 0, ring(16, {1}, False), 0).witness)


def test_sigma_widens_both_systems():
    # the label universes differ until sigma names both sides' actions
    l1 = from_aut('des (0, 1, 2)\n(0,"a",1)\n')
    l2 = from_aut('des (0, 1, 2)\n(0,"b",1)\n')
    with pytest.raises(LabelUniverseMismatch):
        strong_bisim(l1, 0, l2, 0)
    v = assert_same(l1, 0, l2, 0, sigma={"a", "b", "z"})
    assert not v.equivalent and v.sigma == ("a", "b", "z")
    assert assert_same(l1, 1, l2, 1, sigma={"a", "b"}).equivalent


def test_asymmetric_witness_fails():
    # two deadlocks: each orientation of the pair passes the clause, so only
    # the symmetry check can reject the one-sided store
    dead = from_aut("des (0, 0, 1)\n")
    store = strong_bisim(dead, 0, from_aut("des (0, 0, 1)\n"), 0).witness
    assert store.pairs == {(0, 1), (1, 0)}
    with taken_out(store, (1, 0)):
        assert not revalidate(store, "strong")
        assert not ref_revalidate(store)


def test_strong_builds_no_weak_closure(monkeypatch):
    monkeypatch.setattr(bisim, "weak_closure", lambda succ: pytest.fail("weak closure built"))
    l1, l2, _ = pair_lts(INTERLEAVED, REORDERED)
    v = strong_bisim(l1, 0, l2, 0)
    assert v.equivalent and revalidate(v.witness, "strong")
    assert not strong_bisim(l1, 0, l1, 1).equivalent


# ---------------------------------------------------------------------------
# the worklist, round by round


def test_rounds_match_full_resigning_on_sampled_pairs():
    rounds = []
    for l1, l2, _ in sampled_pairs(120, seed=4242):
        rounds.append(len(assert_same_rounds(l1, l1.initial, l2, l2.initial)[1]))
        assert_same_rounds(l2, l2.initial, l2, len(l2) - 1)
    assert max(rounds) > 3


def test_rounds_match_full_resigning_on_rings():
    for n in (8, 12, 16):
        for markers, double_t in (({1}, False), ({1}, True), ({1, n // 2}, True)):
            assert_same_rounds(ring(n, {1}, False), 0, ring(n, markers, double_t), 0)
    _, signed = assert_same_rounds(ring(16, {1}, False), 0, ring(16, {1, 8}, False), 0)
    assert len(signed) > 4


@pytest.mark.parametrize("k", [2, 3])
def test_rounds_match_full_resigning_on_interleavings(k):
    left = interleaving(range(k))
    for right in [interleaving(reversed(range(k)))] + [
            interleaving(range(k), altered) for altered in range(k)]:
        l1, l2, _ = pair_lts(left, right)
        assert_same_rounds(l1, 0, l2, 0)
    l1, l2, _ = pair_lts(left, interleaving(reversed(range(k))))
    assert strong_bisim(l1, 0, l2, 0).equivalent
    assert not strong_bisim(l1, 0, pair_lts(left, interleaving(range(k), 0))[1], 0).equivalent


def test_worklist_signs_fewer_states_than_full_rounds():
    # a count, not a timing: the full loop signs every state in every round
    l1, l2, _ = pair_lts(interleaving(range(3)), interleaving(range(3), 1))
    n, signed = assert_same_rounds(l1, 0, l2, 0)
    assert len(signed) > 3 and signed[0] == n
    assert sum(signed) < n * len(signed)
