"""Greatest-fixpoint checkers for the behavioural equivalences.

Every non-strong relation is decided the same way: initialise a symmetric
store of pairs (and, for the reactive definitions, environment-indexed
triples) over the reachable state spaces, then delete, in synchronous
rounds, the entries whose defining clauses fail against the store the round
started with, until nothing moves.  The queried states are equivalent iff
their entry survives.  Deletion order is deterministic, so ranks and
refutation records are reproducible.

Two engines run these rounds.  ``brb``, ``gbrb``, ``cbrb`` and ``tob`` check
each stored entry on its own (``_run_fixpoint``).  t-branching bisimilarity
(``tb`` over encoded systems, and its rooted layer) uses the row engine
``TbRows``: the relation is one bit mask per state, and a state's clauses
are decided for all of its partners at once, with the same rounds, ranks
and refutation records as a per-pair check.

Strong bisimilarity alone uses partition refinement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import LabelUniverseMismatch, StateBudgetExceeded
from .semantics import TAU, TIMEOUT, Lts, is_encoded_label, label_kind

TRIPLE_BUDGET = 50_000_000


# ---------------------------------------------------------------------------
# Arenas


class Arena:
    """Disjoint union of one or two LTSs with per-state move tables.

    States are integers; those of the second system are shifted by the size
    of the first.  ``sigma`` is the shared visible alphabet, realised as bit
    masks so environment sets enumerate cheaply.
    """

    def __init__(self, l1: Lts, l2: Optional[Lts] = None,
                 sigma: Iterable[str] = (), allow_encoded: bool = False):
        self.l1, self.l2 = l1, l2
        systems = [l1] if l2 is None else [l1, l2]
        if not allow_encoded:
            for lts in systems:
                if any(is_encoded_label(l) for l in lts.labels):
                    raise LabelUniverseMismatch(
                        "reactive checkers take base systems, not encoded ones")
        self.offset = len(l1)
        sig = set(sigma)
        for lts in systems:
            sig |= lts.sigma
        self.sigma = tuple(sorted(sig))
        self.bit = {a: 1 << i for i, a in enumerate(self.sigma)}
        self.full_mask = (1 << len(self.sigma)) - 1
        self._xmasks = None

        self.n = sum(len(s) for s in systems)
        self.tags = []
        self.out: List[Dict[str, Tuple[int, ...]]] = []
        for k, lts in enumerate(systems):
            off = 0 if k == 0 else self.offset
            self.tags.extend(lts.tags)
            for s in range(len(lts)):
                self.out.append({lab: tuple(d + off for d in ds)
                                 for lab, ds in lts.out(s).items()})
        self.tau_succ = [self.out[s].get(TAU, ()) for s in range(self.n)]
        self.t_succ = [self.out[s].get(TIMEOUT, ()) for s in range(self.n)]
        self.has_tau = [bool(self.tau_succ[s]) for s in range(self.n)]
        self.vis_moves: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = []
        self.moves_vt: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = []
        self.vis_mask = []
        for s in range(self.n):
            vis = tuple((lab, ds) for lab, ds in sorted(self.out[s].items())
                        if label_kind(lab)[0] == "visible")
            self.vis_moves.append(vis)
            vt = vis + ((TAU, self.tau_succ[s]),) if self.has_tau[s] else vis
            self.moves_vt.append(vt)
            mask = 0
            for lab, _ in vis:
                mask |= self.bit.get(lab, 0)
            self.vis_mask.append(mask)
        self.weak = self._weak_closure()
        self.stable = [any(not self.has_tau[u] for u in self.weak[s])
                       for s in range(self.n)]

    @property
    def xmasks(self) -> Tuple[int, ...]:
        if self._xmasks is None:
            _budget_check(self.n, 1 << len(self.sigma))
            self._xmasks = tuple(range(1 << len(self.sigma)))
        return self._xmasks

    def _weak_closure(self) -> List[Tuple[int, ...]]:
        closure = []
        for s in range(self.n):
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for v in self.tau_succ[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            closure.append(tuple(sorted(seen)))
        return closure

    def state2(self, q: int) -> int:
        """Global index of state ``q`` of the second system."""
        return q if self.l2 is None else q + self.offset

    def mask_of(self, actions: Iterable[str]) -> int:
        mask = 0
        for a in actions:
            mask |= self.bit.get(a, 0)   # names outside sigma canonicalise away
        return mask

    def mask_names(self, mask: int) -> Tuple[str, ...]:
        return tuple(a for a in self.sigma if self.bit[a] & mask)

    def idle(self, s: int, xmask: int) -> bool:
        return not self.has_tau[s] and not (self.vis_mask[s] & xmask)

    def reach(self, s: int) -> Tuple[int, ...]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for ds in self.out[u].values():
                for v in ds:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return tuple(sorted(seen))

    def describe(self, s: int) -> str:
        return str(self.tags[s])


class ThetaArena(Arena):
    """Arena augmented with environment-wrapped copies of its states.

    ``wrap(X, s)`` is the state ``s`` plunged into an environment allowing
    exactly X.  When ``s`` cannot move within X or by tau, the wrapper is
    transparent (its transitions coincide with those of ``s``), so it is
    normalised to ``s`` itself; only non-transparent wrappers become fresh
    states.  Nesting past ``theta_depth`` is unresolved: lookups return None
    and path searches skip that option (sound: it can only under-match,
    which the cross-characterisation agreement suite would expose).
    """

    def __init__(self, l1, l2=None, sigma=(), theta_depth: int = 1):
        super().__init__(l1, l2, sigma)
        self.theta_depth = theta_depth
        self.base_n = self.n
        self.depth = [0] * self.n
        self.wrapped: Dict[Tuple[int, int], int] = {}
        self.wrap_key: Dict[int, Tuple[int, int]] = {}
        self.unresolved = 0
        frontier = list(range(self.base_n))
        for _ in range(theta_depth):
            level = []
            for s in frontier:
                for x in self.xmasks:
                    if not self.idle(s, x):
                        level.append(self._new_wrap(x, s))
            for w in level:
                self._wrap_moves(w)
            self._refresh_tables()
            frontier = level

    def _wrap_moves(self, w: int):
        """Transitions of a non-transparent wrapper per the theta rules."""
        x, s = self.wrap_key[w]
        moves: Dict[str, List[int]] = {}
        for d in self.out[s].get(TAU, ()):
            moves.setdefault(TAU, []).append(self._wrap_target(x, d))
        for lab, ds in sorted(self.out[s].items()):
            if label_kind(lab)[0] == "visible" and self.bit.get(lab, 0) & x:
                moves.setdefault(lab, []).extend(ds)
        self.out[w] = {lab: tuple(dict.fromkeys(ds)) for lab, ds in moves.items()}

    def _wrap_target(self, x: int, d: int) -> int:
        """Wrapped tau-target; transparent wrappers collapse to the bare state."""
        if not self.out[d].get(TAU) and not any(
                label_kind(lab)[0] == "visible" and self.bit.get(lab, 0) & x
                for lab in self.out[d]):
            return d
        return self._new_wrap(x, d)

    def vis_moves_of(self, s):
        return tuple((lab, ds) for lab, ds in sorted(self.out[s].items())
                     if label_kind(lab)[0] == "visible")

    def _new_wrap(self, x: int, s: int) -> int:
        key = (x, s)
        w = self.wrapped.get(key)
        if w is None:
            w = len(self.tags)
            self.wrapped[key] = w
            self.wrap_key[w] = key
            self.tags.append(f"theta{{{','.join(self.mask_names(x))}}}({self.describe(s)})")
            self.out.append({})
            self.depth.append(self.depth[s] + 1)
        return w

    def wrap(self, x: int, s: int) -> Optional[int]:
        """Index of the wrapped state, ``s`` itself if transparent, None if too deep."""
        if self.idle(s, x):
            return s
        w = self.wrapped.get((x, s))
        if w is None:
            self.unresolved += 1
        return w

    def _refresh_tables(self):
        self.n = len(self.tags)
        self.tau_succ = [self.out[s].get(TAU, ()) for s in range(self.n)]
        self.t_succ = [self.out[s].get(TIMEOUT, ()) for s in range(self.n)]
        self.has_tau = [bool(self.tau_succ[s]) for s in range(self.n)]
        self.vis_moves = []
        self.moves_vt = []
        self.vis_mask = []
        for s in range(self.n):
            vis = self.vis_moves_of(s)
            self.vis_moves.append(vis)
            vt = vis + ((TAU, self.tau_succ[s]),) if self.has_tau[s] else vis
            self.moves_vt.append(vt)
            mask = 0
            for lab, _ in vis:
                mask |= self.bit.get(lab, 0)
            self.vis_mask.append(mask)
        self.weak = self._weak_closure()
        self.stable = [any(not self.has_tau[u] for u in self.weak[s])
                       for s in range(self.n)]

    def side_states(self, root: int) -> Tuple[int, ...]:
        base = self.reach_base(root)
        extra = [w for (x, s), w in self.wrapped.items() if s in base]
        deeper = True
        members = set(base) | set(extra)
        while deeper:
            deeper = False
            for (x, s), w in self.wrapped.items():
                if s in members and w not in members:
                    members.add(w)
                    deeper = True
        return tuple(sorted(members))

    def reach_base(self, s: int) -> Set[int]:
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for lab, ds in self.out[u].items() if u < self.base_n else ():
                for v in ds:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
        return seen


# ---------------------------------------------------------------------------
# Relation stores and verdicts


class RelationStore:
    """Symmetric store of pairs and environment triples with refutation records.

    ``rank`` maps each deleted entry (both orientations) to the round that
    deleted it; ``fail`` maps an entry whose own clause failed to the clause
    and its detail.  The row engine logs its deletions in ``row_kills`` as
    (round, p, [(mask of q, why), ...]); they enter ``rank`` and ``fail`` on
    first read, in the order ``kill_pair`` would have entered them.
    """

    def __init__(self, arena: Arena, relation: str):
        self.arena = arena
        self.relation = relation
        self.pairs: Set[Tuple[int, int]] = set()
        self.triples: Set[Tuple[int, int, int]] = set()  # (state, xmask, state)
        self._rank: Dict[tuple, int] = {}
        self._fail: Dict[tuple, tuple] = {}
        self.row_kills: List[Tuple[int, int, list]] = []
        self.plain: Optional["RelationStore"] = None

    @property
    def rank(self) -> Dict[tuple, int]:
        self._enter_row_kills()
        return self._rank

    @property
    def fail(self) -> Dict[tuple, tuple]:
        self._enter_row_kills()
        return self._fail

    def _enter_row_kills(self):
        kills, self.row_kills = self.row_kills, []
        for rnd, p, fails in kills:
            whys = {}
            for mask, why in fails:
                whys.update(dict.fromkeys(_bits(mask), why))
            for q in sorted(whys):
                self._rank.setdefault((p, q), rnd)
                self._rank.setdefault((q, p), rnd)
                self._fail.setdefault((p, q), whys[q])

    def failure(self, entry) -> Optional[tuple]:
        """``fail.get(entry)``, read off the row log without entering it."""
        why = self._fail.get(entry)
        if why is None and self.row_kills and len(entry) == 2:
            i, j = entry
            for _, p, fails in self.row_kills:
                if p == i:
                    for mask, w in fails:
                        if mask >> j & 1:
                            return w
        return why

    def seed_pairs(self, lefts, rights):
        for i in lefts:
            for j in rights:
                self.pairs.add((i, j))
                self.pairs.add((j, i))

    def seed_triples(self, lefts, rights, xmasks):
        for i in lefts:
            for j in rights:
                for x in xmasks:
                    self.triples.add((i, x, j))
                    self.triples.add((j, x, i))

    def has_pair(self, i, j) -> bool:
        return (i, j) in self.pairs

    def has_triple(self, i, xmask, j) -> bool:
        return (i, xmask, j) in self.triples

    def kill_pair(self, i, j, rnd, why):
        self.pairs.discard((i, j))
        self.pairs.discard((j, i))
        self._rank.setdefault((i, j), rnd)
        self._rank.setdefault((j, i), rnd)
        if why is not None:
            self._fail.setdefault((i, j), why)

    def kill_triple(self, i, x, j, rnd, why):
        self.triples.discard((i, x, j))
        self.triples.discard((j, x, i))
        self._rank.setdefault((i, x, j), rnd)
        self._rank.setdefault((j, x, i), rnd)
        if why is not None:
            self._fail.setdefault((i, x, j), why)

    @property
    def size(self) -> int:
        return len(self.pairs) + len(self.triples)


@dataclass
class Verdict:
    """Outcome of an equivalence check with either a witness or refutations."""

    relation: str
    equivalent: bool
    sigma: Tuple[str, ...]
    iterations: int
    entries_checked: int
    refutation: List[dict] = field(default_factory=list)
    witness: Optional[RelationStore] = None

    def __bool__(self):
        return self.equivalent

    @property
    def witness_size(self) -> int:
        return self.witness.size if self.witness else 0

    def to_json(self) -> str:
        return json.dumps({
            "relation": self.relation,
            "equivalent": self.equivalent,
            "sigma": list(self.sigma),
            "entries_checked": self.entries_checked,
            "iterations": self.iterations,
            "refutation": self.refutation,
            "witness_size": self.witness_size,
        }, indent=2, sort_keys=True)


def _run_fixpoint(store: RelationStore, checker) -> Tuple[int, int]:
    """Per-entry deletion in synchronous rounds: every entry is checked
    against the store the round started with, then the failures die in
    sorted order.  The entries are sorted once; each round keeps the
    survivors of the previous order, which stay sorted."""
    iterations = 0
    checked = 0
    pairs = sorted(store.pairs)
    triples = sorted(store.triples)
    while True:
        iterations += 1
        checked += len(pairs) + len(triples)
        bad_pairs = []
        bad_triples = []
        # A failing entry leaves the list at once, so the store's discard
        # frees it, as when the sorted list lived for one loop only.
        for k, (i, j) in enumerate(pairs):
            why = checker.check_pair(i, j)
            if why is not None:
                bad_pairs.append((i, j, why))
                pairs[k] = None
        for k, (i, x, j) in enumerate(triples):
            why = checker.check_triple(i, x, j)
            if why is not None:
                bad_triples.append((i, x, j, why))
                triples[k] = None
        if not bad_pairs and not bad_triples:
            return iterations, checked
        for i, j, why in bad_pairs:
            store.kill_pair(i, j, iterations, why)
        for i, x, j, why in bad_triples:
            store.kill_triple(i, x, j, iterations, why)
        if bad_pairs:
            _keep(pairs, store.pairs)
        if bad_triples:
            _keep(triples, store.triples)


def _keep(entries: list, alive: set):
    """Drop the dead entries of ``entries`` in place, keeping their order;
    a filtered copy would briefly hold the store's entries twice."""
    k = 0
    for e in entries:
        if e in alive:
            entries[k] = e
            k += 1
    del entries[k:]


def _refutation_records(store: RelationStore, entries) -> List[dict]:
    arena = store.arena
    out = []
    for entry in entries:
        why = store.failure(entry)
        if why is None:
            continue
        if len(entry) == 2:
            i, j = entry
            env = None
        else:
            i, x, j = entry
            env = sorted(arena.mask_names(x))
        clause, info = why
        detail = []
        if "action" in info:
            detail.append(f"action {info['action']}")
        if "derivative" in info:
            detail.append(f"derivative {arena.describe(info['derivative'])}")
        if "env" in info:
            detail.append(f"under environment {sorted(arena.mask_names(info['env']))}")
        out.append({
            "lhs": arena.describe(i),
            "rhs": arena.describe(j),
            "env": env,
            "clause": clause,
            "detail": "; ".join(detail) if detail else "clause condition unmet",
        })
    return out


# ---------------------------------------------------------------------------
# Clause checkers


class _ReactiveChecker:
    """Shared matching machinery for the triple-based definitions."""

    def __init__(self, arena: Arena, store: RelationStore):
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
        for x in a.xmasks:
            if (p, x, q) not in self.st.triples:
                return ("1b", {"env": x})
        return None

    def check_triple(self, p, x, q):
        a = self.a
        for p2 in a.tau_succ[p]:
            if not self._match_tau_triple(p, x, p2, q):
                return ("2a", {"derivative": p2})
        for lab, targets in a.vis_moves[p]:
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
        if not a.has_tau[p] and not a.stable[q]:
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
            for x in a.xmasks:
                if a.idle(p, x):
                    for p2 in a.t_succ[p]:
                        if not self._gpath(p, x, p2, q):
                            return ("1b", {"env": x, "derivative": p2})
        if not a.has_tau[p] and not a.stable[q]:
            return ("1c", {})
        return None

    def check_triple(self, p, x, q):
        a = self.a
        for p2 in a.tau_succ[p]:
            if not self._match_tau_triple(p, x, p2, q):
                return ("2a", {"derivative": p2})
        idle = a.idle(p, x)
        for lab, targets in a.vis_moves[p]:
            if idle or a.bit.get(lab, 0) & x:
                for p2 in targets:
                    if not self._match_vis_triple(p, x, lab, p2, q):
                        return ("2b", {"action": lab, "derivative": p2})
        if idle and a.t_succ[p]:
            for y in a.xmasks:
                if a.idle(p, y):
                    for p2 in a.t_succ[p]:
                        if not self._gpath(p, y, p2, q):
                            return ("2c", {"env": y, "derivative": p2})
        if not a.has_tau[p] and not a.stable[q]:
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
        for x in a.xmasks:
            if (p, x, q) not in self.st.triples:
                return ("r1b", {"env": x})
        return None

    def check_triple(self, p, x, q):
        a, plain = self.a, self.plain
        for p2 in a.tau_succ[p]:
            if not any((p2, x, q2) in plain.triples for q2 in a.tau_succ[q]):
                return ("r2a", {"derivative": p2})
        for lab, targets in a.vis_moves[p]:
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
            for x in a.xmasks:
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
        for lab, targets in a.vis_moves[p]:
            if idle or a.bit.get(lab, 0) & x:
                qsucc = a.out[q].get(lab, ())
                for p2 in targets:
                    if not any((p2, q2) in plain.pairs for q2 in qsucc):
                        return ("r2b", {"action": lab, "derivative": p2})
        if idle and a.t_succ[p]:
            for y in a.xmasks:
                if a.idle(p, y):
                    for p2 in a.t_succ[p]:
                        if not any((p2, y, q2) in plain.triples
                                   for q2 in a.t_succ[q]):
                            return ("r2c", {"env": y, "derivative": p2})
        return None


class TobChecker:
    """Binary time-out bisimulation over the environment-augmented arena."""

    def __init__(self, arena: ThetaArena, store: RelationStore):
        self.a = arena
        self.st = store

    def check_pair(self, u, v):
        a = self.a
        for lab, targets in a.moves_vt[u]:
            for u2 in targets:
                if not self._match(u, lab, u2, v):
                    return ("t1", {"action": lab, "derivative": u2})
        if a.t_succ[u]:
            for x in a.xmasks:
                if a.idle(u, x):
                    for u2 in a.t_succ[u]:
                        if not self._tobpath(u, x, u2, v):
                            return ("t2", {"env": x, "derivative": u2})
        if not a.has_tau[u] and not a.stable[v]:
            return ("t3", {})
        return None

    check_triple = None  # pairs only

    def _match(self, u, lab, u2, v):
        a, pairs = self.a, self.st.pairs
        istau = lab == TAU
        for v1 in a.weak[v]:
            if (u, v1) not in pairs:
                continue
            if istau and (u2, v1) in pairs:
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
            if lhs is None:
                continue
            # theta_X(u) normalises to u itself: clause 2 fires only when u idles
            if (u, lhs) not in pairs:
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


class RootedTobChecker:
    def __init__(self, arena: ThetaArena, store, plain):
        self.a = arena
        self.st = store
        self.plain = plain

    def check_pair(self, p, q):
        a, plain = self.a, self.plain
        for lab, targets in a.moves_vt[p]:
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((p2, q2) in plain.pairs for q2 in qsucc):
                    return ("rt1", {"action": lab, "derivative": p2})
        if a.t_succ[p]:
            for x in a.xmasks:
                if a.idle(p, x):
                    for p2 in a.t_succ[p]:
                        w2 = a.wrap(x, p2)
                        ok = False
                        for q2 in a.t_succ[q]:
                            wq = a.wrap(x, q2)
                            if w2 is not None and wq is not None \
                                    and (w2, wq) in plain.pairs:
                                ok = True
                                break
                        if not ok:
                            return ("rt2", {"env": x, "derivative": p2})
        return None

    check_triple = None


class TbRows:
    """Row engine for t-branching bisimilarity over an encoded arena.

    The relation is one int per state: bit ``t`` of ``row[s]`` is set iff
    the pair (s, t) is alive.  From the predecessor masks of every label and
    the reverse weak closure, the clauses of the pairs (p, q) are decided for
    every q in ``row[p]`` at once, in the order a per-pair check would try
    them, so each failing pair gets the same first failing clause.
    """

    def __init__(self, arena: Arena):
        self.a = arena
        n = arena.n
        labels = sorted({lab for out in arena.out for lab in out})
        branch = [lab for lab in labels
                  if lab != TIMEOUT and label_kind(lab)[0] != "t_set"]
        # pred[lab][y]: states with a lab-step to y
        self.pred = {lab: [0] * n for lab in labels}
        # rweak[y]: states q with y in weak[q]
        self.rweak = [0] * n
        # deps[s]: s and its successors, the rows its clauses read
        self.deps = [0] * n
        self.unstable = 0
        for s in range(n):
            bit = 1 << s
            deps = bit
            for lab, ds in arena.out[s].items():
                col = self.pred[lab]
                for d in ds:
                    col[d] |= bit
                    deps |= 1 << d
            self.deps[s] = deps
            for y in arena.weak[s]:
                self.rweak[y] |= bit
            if not arena.stable[s]:
                self.unstable |= bit
        self.branch_moves = [
            [(lab, arena.out[s][lab]) for lab in branch if lab in arena.out[s]]
            for s in range(n)]

    def seeded(self, lefts, rights) -> List[int]:
        """Rows of the symmetric store seeded with lefts x rights."""
        lmask = sum(1 << s for s in set(lefts))
        rmask = sum(1 << s for s in set(rights))
        rows = [0] * self.a.n
        for s in lefts:
            rows[s] |= rmask
        for s in rights:
            rows[s] |= lmask
        return rows

    def rows_of(self, pairs) -> List[int]:
        rows = [0] * self.a.n
        for i, j in pairs:
            rows[i] |= 1 << j
        return rows

    @staticmethod
    def pairs_of(rows) -> Set[Tuple[int, int]]:
        return {(s, t) for s, row in enumerate(rows) for t in _bits(row)}

    def _pre(self, lab, mask: int, memo) -> int:
        """States with a ``lab``-step into ``mask``.

        Memoised by value: states with equal rows, common once the relation
        settles into classes (and all of one side in round one), share it.
        """
        key = (lab, mask)
        got = memo.get(key)
        if got is None:
            got = memo[key] = _gather(self.pred[lab], mask)
        return got

    def _reaching(self, good: int, live: int, memo) -> int:
        """The states of ``live`` whose weak closure meets ``good``."""
        key = (None, good)   # None: the weak closure, beside the labels of _pre
        got = memo.get(key)
        if got is None:
            got = memo[key] = _gather(self.rweak, good)
        return got & live

    def _tpath(self, alive, live, p2, rows, memo) -> int:
        """States of ``live`` that match a time-out of p to p2.

        A match is an alternating weak/t path that stays among ``alive``
        (the partners of p) and ends at, or one t-step before, a partner of
        p2.  ``hit`` gathers the path states that end a match; the states
        weakly reaching one of them win, and the t-predecessors of winners
        end a match too, until nothing is added or every live state won.
        """
        hit = alive & (rows[p2] | self._pre(TIMEOUT, rows[p2], memo))
        won = self._reaching(hit, alive, memo)
        new = won
        tpred = self.pred[TIMEOUT]
        while new and live & ~won:
            more = _gather(tpred, new) & alive & ~hit
            if not more:
                break
            hit |= more
            new = self._reaching(more, alive & ~won, memo)
            won |= new
        return won

    def tb_failures(self, p: int, rows: List[int], memo) -> List[Tuple[int, tuple]]:
        """Failing partners of p under the tb clauses, as (mask, why) in
        clause order; every failing q sits in the mask of its first failure."""
        a = self.a
        alive = live = rows[p]
        fails = []
        for lab, ds in self.branch_moves[p]:
            for p2 in ds:
                good = self._pre(lab, rows[p2], memo)
                if lab == TAU:
                    good |= rows[p2]
                bad = live & ~self._reaching(good & alive, live, memo)
                if bad:
                    fails.append((bad, ("tb1", {"action": lab, "derivative": p2})))
                    live ^= bad
                    if not live:
                        return fails
        for p2 in a.t_succ[p]:
            bad = live & ~self._tpath(alive, live, p2, rows, memo)
            if bad:
                fails.append((bad, ("tb2", {"derivative": p2})))
                live ^= bad
                if not live:
                    return fails
        if not a.has_tau[p]:
            bad = live & self.unstable
            if bad:
                fails.append((bad, ("tb3", {})))
        return fails

    def rooted_failures(self, plain: List[int]):
        """The rooted clause: every first step of p matched by the same step
        of q into the plain relation."""
        def failures(p, rows, memo):
            live = rows[p]
            fails = []
            for lab, targets in sorted(self.a.out[p].items()):
                for p2 in targets:
                    bad = live & ~self._pre(lab, plain[p2], memo)
                    if bad:
                        fails.append((bad, ("rtb1", {"action": lab, "derivative": p2})))
                        live ^= bad
                        if not live:
                            return fails
            return fails
        return failures

    def fixpoint(self, store: RelationStore, rows: List[int], failures) -> Tuple[int, int]:
        """Delete failing pairs from ``rows`` in synchronous rounds.

        As in ``_run_fixpoint``, every row is judged against the rows the
        round started with before any pair dies, so the rounds, and the
        ranks and refutation records entered from ``store.row_kills``, come
        out the same.  A row is judged again only when it or a row its
        clauses read has changed.
        """
        iterations = checked = 0
        changed = -1
        memo = {}
        while True:
            iterations += 1
            bad = []
            for p, row in enumerate(rows):
                if not row:
                    continue
                checked += row.bit_count()
                if self.deps[p] & changed:
                    fails = failures(p, rows, memo)
                    if fails:
                        bad.append((p, fails))
            if not bad:
                return iterations, checked
            changed = 0
            for p, fails in bad:
                store.row_kills.append((iterations, p, fails))
                dead = 0
                for mask, _ in fails:
                    dead |= mask
                rows[p] &= ~dead
                keep = ~(1 << p)
                for q in _bits(dead):
                    rows[q] &= keep
                changed |= dead | (1 << p)

    def holds(self, rows: List[int], failures) -> bool:
        """True iff no pair of ``rows`` fails (one pass, nothing killed)."""
        memo = {}
        return not any(row and failures(p, rows, memo) for p, row in enumerate(rows))


def _bits(mask: int) -> List[int]:
    """Indices of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _gather(table: List[int], mask: int) -> int:
    """Union of ``table[i]`` over the set bits i of ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc |= table[low.bit_length() - 1]
        mask ^= low
    return acc


# ---------------------------------------------------------------------------
# Drivers


def _budget_check(n_states: int, n_masks: int):
    if n_states * n_states * n_masks > TRIPLE_BUDGET:
        raise StateBudgetExceeded(n_states * n_states * n_masks, TRIPLE_BUDGET)


def _seed(store: RelationStore, lefts, rights, with_triples: bool):
    store.seed_pairs(lefts, rights)
    if with_triples:
        store.seed_triples(lefts, rights, store.arena.xmasks)


def _make_arena(l1, l2, sigma):
    return Arena(l1, None if l2 is l1 else l2, sigma)


def _reactive_fixpoint(arena, p, q, relation, checker_cls) -> RelationStore:
    gq = arena.state2(q)
    lefts, rights = arena.reach(p), arena.reach(gq)
    _budget_check(len(lefts) + len(rights), 1 << len(arena.sigma))
    store = RelationStore(arena, relation)
    _seed(store, lefts, rights, with_triples=True)
    checker = checker_cls(arena, store)
    store.iterations, store.checked = _run_fixpoint(store, checker)
    return store


def _verdict(store: RelationStore, entry, relation) -> Verdict:
    arena = store.arena
    alive = (store.has_pair(*entry) if len(entry) == 2
             else store.has_triple(*entry))
    return Verdict(
        relation=relation,
        equivalent=alive,
        sigma=arena.sigma,
        iterations=getattr(store, "iterations", 0),
        entries_checked=getattr(store, "checked", 0),
        refutation=[] if alive else _refutation_records(
            store, [entry, entry[::-1]]),
        witness=store if alive else None,
    )


def _rooted_layer(arena, p, q, plain, relation, checker_cls) -> RelationStore:
    gq = arena.state2(q)
    lefts, rights = arena.reach(p), arena.reach(gq)
    store = RelationStore(arena, relation)
    _seed(store, lefts, rights, with_triples=True)
    store.plain = plain
    checker = checker_cls(arena, store, plain)
    it, ch = _run_fixpoint(store, checker)
    store.iterations = it + getattr(plain, "iterations", 0)
    store.checked = ch + getattr(plain, "checked", 0)
    return store


def brb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
              sigma: Iterable[str] = ()) -> Verdict:
    """Decide branching reactive bisimilarity of two states (Verdict)."""
    arena = _make_arena(l1, l2, sigma)
    plain = _reactive_fixpoint(arena, p, q, "brb", BrbChecker)
    if not rooted:
        return _verdict(plain, (p, arena.state2(q)), "brb")
    store = _rooted_layer(arena, p, q, plain, "brb-rooted", RootedBrbChecker)
    return _verdict(store, (p, arena.state2(q)), "brb-rooted")


def brb_X_check(l1: Lts, p: int, l2: Lts, q: int, env: Iterable[str],
                sigma: Iterable[str] = (), rooted: bool = False) -> Verdict:
    """Branching X-bisimilarity: the queried entry is the environment triple."""
    arena = _make_arena(l1, l2, sigma)
    xmask = arena.mask_of(env)
    plain = _reactive_fixpoint(arena, p, q, "brbX", BrbChecker)
    entry = (p, xmask, arena.state2(q))
    if not rooted:
        return _verdict(plain, entry, "brbX")
    store = _rooted_layer(arena, p, q, plain, "brbX-rooted", RootedBrbChecker)
    return _verdict(store, entry, "brbX-rooted")


def gbrb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
               sigma: Iterable[str] = ()) -> Verdict:
    arena = _make_arena(l1, l2, sigma)
    plain = _reactive_fixpoint(arena, p, q, "gbrb", GbrbChecker)
    if not rooted:
        return _verdict(plain, (p, arena.state2(q)), "gbrb")
    store = _rooted_layer(arena, p, q, plain, "gbrb-rooted", RootedGbrbChecker)
    return _verdict(store, (p, arena.state2(q)), "gbrb-rooted")


def cbrb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
               sigma: Iterable[str] = ()) -> Verdict:
    arena = _make_arena(l1, l2, sigma)
    plain = _reactive_fixpoint(arena, p, q, "cbrb", CbrbChecker)
    if not rooted:
        return _verdict(plain, (p, arena.state2(q)), "cbrb")
    store = _rooted_layer(arena, p, q, plain, "cbrb-rooted", RootedBrbChecker)
    return _verdict(store, (p, arena.state2(q)), "cbrb-rooted")


def tob_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
              sigma: Iterable[str] = (), env: Optional[Iterable[str]] = None,
              theta_depth: int = 1) -> Verdict:
    """Branching time-out bisimulation over the theta-augmented state space.

    With ``env`` given, the verdict reads off the wrapped pair, deciding
    X-bisimilarity through the environment operator.
    """
    arena = ThetaArena(l1, None if l2 is l1 else l2, sigma, theta_depth=theta_depth)
    gq = arena.state2(q)
    lefts, rights = arena.side_states(p), arena.side_states(gq)
    _budget_check(len(lefts) + len(rights), 1)
    store = RelationStore(arena, "tob")
    _seed(store, lefts, rights, with_triples=False)
    store.iterations, store.checked = _run_fixpoint(store, TobChecker(arena, store))

    if env is not None:
        x = arena.mask_of(env)
        u, v = arena.wrap(x, p), arena.wrap(x, gq)
        entry = (u, v) if u is not None and v is not None else None
    else:
        entry = (p, gq)
    relation = "tob"
    if rooted:
        relation = "tob-rooted"
        rooted_store = RelationStore(arena, relation)
        _seed(rooted_store, lefts, rights, with_triples=False)
        rooted_store.plain = store
        it, ch = _run_fixpoint(rooted_store, RootedTobChecker(arena, rooted_store, store))
        rooted_store.iterations = it + store.iterations
        rooted_store.checked = ch + store.checked
        store = rooted_store
    if entry is None:
        raise StateBudgetExceeded(arena.n, arena.n)
    return _verdict(store, entry, relation)


def tb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False) -> Verdict:
    """t-branching bisimilarity over encoded labels (pairs only), decided by
    the row engine; the rooted layer is one more row pass against the plain
    rows."""
    if l1.labels != l2.labels and l2 is not l1:
        raise LabelUniverseMismatch(
            f"label universes differ: {sorted(l1.labels)} vs {sorted(l2.labels)}")
    arena = Arena(l1, None if l2 is l1 else l2, allow_encoded=True)
    gq = arena.state2(q)
    lefts, rights = arena.reach(p), arena.reach(gq)
    _budget_check(len(lefts) + len(rights), 1)
    engine = TbRows(arena)
    store = RelationStore(arena, "tb")
    rows = engine.seeded(lefts, rights)
    store.iterations, store.checked = engine.fixpoint(store, rows, engine.tb_failures)
    store.pairs = engine.pairs_of(rows)
    relation = "tb"
    if rooted:
        relation = "tb-rooted"
        rooted_store = RelationStore(arena, relation)
        rooted_store.plain = store
        rooted_rows = engine.seeded(lefts, rights)
        it, ch = engine.fixpoint(rooted_store, rooted_rows, engine.rooted_failures(rows))
        rooted_store.pairs = engine.pairs_of(rooted_rows)
        rooted_store.iterations = it + store.iterations
        rooted_store.checked = ch + store.checked
        store = rooted_store
    return _verdict(store, (p, gq), relation)


def strong_bisim(l1: Lts, p: int, l2: Lts, q: int) -> Verdict:
    """Strong bisimilarity by partition refinement on the disjoint union."""
    if l1.labels != l2.labels and l2 is not l1:
        raise LabelUniverseMismatch(
            f"label universes differ: {sorted(l1.labels)} vs {sorted(l2.labels)}")
    arena = Arena(l1, None if l2 is l1 else l2, allow_encoded=True)
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
    store = RelationStore(arena, "strong")
    for i in lefts:
        for j in rights:
            if block[i] == block[j]:
                store.pairs.add((i, j))
                store.pairs.add((j, i))
    store.iterations = iterations
    store.checked = arena.n * iterations
    refutation = []
    if not equivalent:
        refutation = [{
            "lhs": arena.describe(p), "rhs": arena.describe(gq), "env": None,
            "clause": "strong", "detail": "states separated by partition refinement",
        }]
    return Verdict("strong", equivalent, arena.sigma, iterations,
                   store.checked, refutation, store if equivalent else None)


# ---------------------------------------------------------------------------
# Revalidation


class _StrongChecker:
    def __init__(self, arena, store):
        self.a = arena
        self.st = store

    def check_pair(self, p, q):
        a = self.a
        for lab, targets in a.out[p].items():
            qsucc = a.out[q].get(lab, ())
            for p2 in targets:
                if not any((p2, q2) in self.st.pairs for q2 in qsucc):
                    return ("strong", {"action": lab, "derivative": p2})
        return None

    check_triple = None


_CHECKERS = {
    "strong": _StrongChecker,
    "brb": BrbChecker,
    "gbrb": GbrbChecker,
    "cbrb": CbrbChecker,
    "tob": TobChecker,
}


def revalidate(witness: RelationStore, definition_id: str) -> bool:
    """Re-check every clause on every stored entry in one pass."""
    arena = witness.arena
    if definition_id in ("tb", "tb-rooted"):
        return _revalidate_tb(witness, definition_id == "tb-rooted")
    if definition_id.endswith("-rooted"):
        plain = witness.plain
        if plain is None:
            return False
        base = definition_id[:-len("-rooted")]
        cls = {"brb": RootedBrbChecker, "gbrb": RootedGbrbChecker,
               "cbrb": RootedBrbChecker, "tob": RootedTobChecker}[base]
        checker = cls(arena, witness, plain)
        if not revalidate(plain, base):
            return False
    else:
        checker = _CHECKERS[definition_id](arena, witness)
    for (i, j) in sorted(witness.pairs):
        if (j, i) not in witness.pairs:
            return False
        if checker.check_pair(i, j) is not None:
            return False
    for (i, x, j) in sorted(witness.triples):
        if (j, x, i) not in witness.triples:
            return False
        if checker.check_triple is None or checker.check_triple(i, x, j) is not None:
            return False
    return True


def _revalidate_tb(witness: RelationStore, rooted: bool) -> bool:
    """One kill-free row pass over a symmetric, pairs-only tb witness."""
    if witness.triples or any((j, i) not in witness.pairs for i, j in witness.pairs):
        return False
    engine = TbRows(witness.arena)
    rows = engine.rows_of(witness.pairs)
    if not rooted:
        return engine.holds(rows, engine.tb_failures)
    plain = witness.plain
    if plain is None or not _revalidate_tb(plain, False):
        return False
    return engine.holds(rows, engine.rooted_failures(engine.rows_of(plain.pairs)))


def make_store(l1: Lts, l2: Optional[Lts], relation: str,
               pairs: Iterable[Tuple[int, int]] = (),
               triples: Iterable[Tuple[int, Iterable[str], int]] = (),
               sigma: Iterable[str] = ()) -> RelationStore:
    """Build a store from explicit entries (symmetric closure is applied).

    Pair and triple entries name states of the first and second system by
    their own indices; the second system's indices are shifted internally.
    """
    arena = _make_arena(l1, l2 if l2 is not None else l1, sigma)
    store = RelationStore(arena, relation)
    for i, j in pairs:
        gj = arena.state2(j)
        store.pairs.add((i, gj))
        store.pairs.add((gj, i))
    for i, env, j in triples:
        x = arena.mask_of(env)
        gj = arena.state2(j)
        store.triples.add((i, x, gj))
        store.triples.add((gj, x, i))
    return store
