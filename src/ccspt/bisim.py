"""Greatest-fixpoint checkers for the behavioural equivalences.

Every non-strong relation is decided the same way: initialise a symmetric
store of pairs (and, for the reactive definitions, environment-indexed
triples) over the reachable state spaces, then delete, in synchronous
rounds, the entries whose defining clauses fail against the store the round
started with, until nothing moves.  The queried states are equivalent iff
their entry survives.  Deletion order is deterministic, so ranks and
refutation records are reproducible.

One engine runs these rounds.  The row engine ``RowEngine`` decides ``brb``,
``brbX``, ``cbrb``, ``gbrb`` (the fixpoints behind ``modal.distinguish``
too), ``tob`` over the environment-augmented ``ThetaArena``, ``tb`` over
encoded systems, and the rooted layer of each.  It keeps a relation as bit
masks, one pair row per state and one triple row per state and environment
mask, and decides a row's clauses for all of its partners at once, with the
same rounds, ranks and refutation records as a per-entry check.  Each
family's clauses are written once, in ``RowEngine.clauses``: the rooted
layer reads them strongly, matching a first step by the same step into the
plain fixpoint.  ``revalidate`` judges a witness by the same rounds, run on
copies of its rows: it holds iff the first round deletes nothing.

Strong bisimilarity alone uses signature refinement over the move table
(``strong_bisim``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from .errors import FragmentUnsupported, LabelUniverseMismatch, StateBudgetExceeded
from .semantics import TAU, TIMEOUT, Lts, label_kind, visible_alphabet, weak_closure

TRIPLE_BUDGET = 50_000_000


# ---------------------------------------------------------------------------
# Arenas


class Arena:
    """Disjoint union of one or two LTSs with per-state move tables.

    States are integers; those of the second system are shifted by the size
    of the first.  ``out`` maps each state's labels to its targets, and the
    move tables are read off it when the arena is built.  The weak closure
    and stability are computed on their first read, so strong bisimilarity,
    which reads ``out`` alone, never builds them.  ``sigma`` is the shared
    visible alphabet, realised as bit masks so environment sets enumerate
    cheaply; a label is visible iff it has a bit (``Lts.sigma`` holds every
    visible label), and any other label but tau and t is one of an encoding
    (``encoded`` says whether a move carries one).

    An environment X reaches a clause only through idle and permission tests
    on the visible actions some state offers, ``vmask`` (V).  So X and X & V
    decide every entry alike, and the relations carry one triple row per
    effective mask, a submask of V (``xmasks``).  Each stands for
    ``class_size`` = 2^|Sigma - V| declared masks, of which it is the least.
    """

    def __init__(self, l1: Lts, l2: Optional[Lts] = None, sigma: Iterable[str] = ()):
        self.l1, self.l2 = l1, l2
        systems = [l1] if l2 is None else [l1, l2]
        self.offset = len(l1)
        self.sigma = tuple(sorted(visible_alphabet(sigma).union(*(l.sigma for l in systems))))
        self.bit = {a: 1 << i for i, a in enumerate(self.sigma)}
        self.full_mask = (1 << len(self.sigma)) - 1
        self._xmasks = None

        self.tags = list(l1.tags)
        # the first system's move dicts are shared: nothing writes to them
        self.out: List[Dict[str, Tuple[int, ...]]] = [l1.out(s) for s in range(len(l1))]
        if l2 is not None:
            off = self.offset
            self.tags.extend(l2.tags)
            self.out.extend({lab: tuple(d + off for d in ds) for lab, ds in l2.out(s).items()}
                            for s in range(len(l2)))
        self._build_tables()

    def _build_tables(self):
        """Move tables of every state in ``out``; the weak closure and
        stability are dropped, to be computed again on their next read."""
        self.n = len(self.out)
        self.tau_succ = [self.out[s].get(TAU, ()) for s in range(self.n)]
        self.t_succ = [self.out[s].get(TIMEOUT, ()) for s in range(self.n)]
        self.has_tau = [bool(self.tau_succ[s]) for s in range(self.n)]
        self.vis_moves: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = []
        self.moves_vt: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = []
        self.vis_mask = []
        bit = self.bit
        for s in range(self.n):
            vis = tuple((lab, ds) for lab, ds in sorted(self.out[s].items()) if lab in bit)
            self.vis_moves.append(vis)
            vt = vis + ((TAU, self.tau_succ[s]),) if self.has_tau[s] else vis
            self.moves_vt.append(vt)
            mask = 0
            for lab, _ in vis:
                mask |= bit[lab]
            self.vis_mask.append(mask)
        self.encoded = any(lab not in bit and lab != TAU and lab != TIMEOUT
                           for moves in self.out for lab in moves)
        self.vmask = 0
        for mask in self.vis_mask:
            self.vmask |= mask
        self.class_size = 1 << (len(self.sigma) - self.vmask.bit_count())
        # filled on first read; not through functools.cached_property, which
        # writes the instance dict and so materialises it, after which
        # CPython 3.11 reads every attribute of the arena at about twice the cost
        self._weak: Optional[List[Tuple[int, ...]]] = None
        self._stable: Optional[List[bool]] = None

    @property
    def weak(self) -> List[Tuple[int, ...]]:
        """The states each state reaches over tau steps, itself included."""
        if self._weak is None:
            self._weak = weak_closure(self.tau_succ)
        return self._weak

    @property
    def stable(self) -> List[bool]:
        """Whether each state reaches, over tau steps, a state with no tau step."""
        if self._stable is None:
            weak, has_tau = self.weak, self.has_tau
            self._stable = [any(not has_tau[u] for u in weak[s]) for s in range(self.n)]
        return self._stable

    @property
    def xmasks(self) -> Tuple[int, ...]:
        """The effective environment masks, the submasks of V, in increasing order."""
        if self._xmasks is None:
            _budget_check(self.n, 1 << self.vmask.bit_count())
            self._xmasks = tuple(_submasks(self.vmask))
        return self._xmasks

    @property
    def unused_masks(self) -> Tuple[int, ...]:
        """The submasks of Sigma - V in increasing order: x | u over these are
        the declared masks of the effective mask x."""
        return tuple(_submasks(self.full_mask & ~self.vmask))

    def state2(self, q: int) -> int:
        """Global index of state ``q`` of the second system."""
        return q if self.l2 is None else q + self.offset

    def mask_of(self, actions: Iterable[str]) -> int:
        """The mask of an environment set, whose reserved names are refused."""
        mask = 0
        for a in visible_alphabet(actions, "an environment set"):
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

    def side_states(self, root: int) -> Tuple[int, ...]:
        """The states a store is seeded with on the side of ``root``."""
        return self.reach(root)

    def describe(self, s: int) -> str:
        return str(self.tags[s])


class ThetaArena(Arena):
    """Arena augmented with environment-wrapped copies of its states.

    ``wrap(X, s)`` is the state ``s`` plunged into an environment allowing
    exactly X.  A wrapper moves only by tau and by the actions of ``s`` in X,
    so ``wrap(X, s)`` is ``wrap(X & V, s)``: wrappers exist for the effective
    masks alone, and a tag names X & V.  When ``s`` cannot move within X or
    by tau, the wrapper is transparent (its transitions coincide with those
    of ``s``), so it is normalised to ``s`` itself; only non-transparent
    wrappers become fresh states.

    One level of wrappers, those of base states, is exact, for nested
    wrappers normalise onto it.  A wrapper never times out, so every state
    that t2 or rt2 wraps after a time-out is a base state.  A t2 path reads
    a wrapper s = ``wrap(x, b)`` under y only where s, with no tau step,
    lies in a partner's weak closure and is tested against the target set:
    no time-out leads into s, so as a station it is never read.  If s idles
    under y, its wrapper is s itself.  Otherwise that wrapper has no tau
    step either and moves only by the actions of b in x & y, to the same
    targets: exactly as ``wrap(x & y, b)`` does, which is seeded with the
    same partners, so every round treats the two alike.  ``wrap`` returns
    that state, also for a wrapper with a tau step, where no clause reads
    it.

    Before the wrappers are built, an encoded input is refused and the
    states they can add are counted against the pair budget.  A wrapper is
    named from ``wrap_key`` when it is described.
    """

    def __init__(self, l1, l2=None, sigma=()):
        super().__init__(l1, l2, sigma)
        _refuse_encoded(self, "tob")
        self.wrapped: Dict[Tuple[int, int], int] = {}
        self.wrap_key: Dict[int, Tuple[int, int]] = {}
        base = self.n
        masks = len(self.xmasks)
        # the masks a state idles under avoid its offers: 2^(|V| - |offers|)
        _budget_check(base + sum(
            masks if self.has_tau[s] else masks - (masks >> self.vis_mask[s].bit_count())
            for s in range(base)), 1)
        for s in range(base):
            for x in self.xmasks:
                if not self.idle(s, x):
                    w = self.wrapped[x, s] = base + len(self.wrap_key)
                    self.wrap_key[w] = (x, s)
        for (x, s) in self.wrapped:
            moves: Dict[str, List[int]] = {}
            for d in self.out[s].get(TAU, ()):
                moves.setdefault(TAU, []).append(self.wrap(x, d))
            for lab, ds in sorted(self.out[s].items()):
                if self.bit.get(lab, 0) & x:
                    moves.setdefault(lab, []).extend(ds)
            self.out.append({lab: tuple(dict.fromkeys(ds)) for lab, ds in moves.items()})
        self._build_tables()

    def wrap(self, x: int, s: int) -> int:
        """Index of the state ``s`` wrapped under x: ``s`` itself if
        transparent, and a nested wrapper in its normal form."""
        x &= self.vmask
        if self.idle(s, x):
            return s
        if s in self.wrap_key:
            inner, s = self.wrap_key[s]
            x &= inner
        return self.wrapped[(x, s)]

    def describe(self, s: int) -> str:
        if s in self.wrap_key:
            x, s = self.wrap_key[s]
            return f"theta{{{','.join(self.mask_names(x))}}}({self.describe(s)})"
        return super().describe(s)

    def side_states(self, root: int) -> Tuple[int, ...]:
        """The base states ``root`` reaches (a base state steps only to base
        states) and every wrapper of one of them."""
        members = set(self.reach(root))
        for (x, s), w in self.wrapped.items():
            if s in members:
                members.add(w)
        return tuple(sorted(members))


# ---------------------------------------------------------------------------
# Relation stores and verdicts


class RelationStore:
    """Symmetric store of pairs and environment triples with refutation records.

    The entries live either in bit-mask rows or in sets.  The row engine
    leaves rows: bit q of ``rows[p]`` is set iff the pair (p, q) is alive,
    bit q of ``trows[x][p]`` iff the triple (p, x, q) is, for every
    effective mask x (``Arena.xmasks``).  ``pairs`` and ``triples`` are the
    sets, whose triples name declared masks: reading one builds it from its
    rows, once, with a triple row standing for every declared mask of its
    class, and the set is the relation from then on.  A triple query maps its
    mask through X & V where rows answer it.

    The row engine logs its deletions in ``row_kills`` as (round, row key,
    [(mask of q, why), ...]), where the row key is (p,) or (p, x), one line
    per killed row; a why is the failing clause and its detail.  That log is
    the one record of a fixpoint's deletions, and ``lookup`` reads an entry
    off it.  ``iterations`` and ``checked`` count the fixpoint's rounds and
    entry checks.
    """

    def __init__(self, arena: Arena, relation: str,
                 rows: Optional[List[int]] = None,
                 trows: Optional[Dict[int, List[int]]] = None):
        self.arena = arena
        self.relation = relation
        self.rows = rows
        self.trows = trows
        self._pairs: Optional[Set[Tuple[int, int]]] = set() if rows is None else None
        # (state, xmask, state)
        self._triples: Optional[Set[Tuple[int, int, int]]] = set() if trows is None else None
        self._log: Optional[Dict[tuple, list]] = None
        self.row_kills: List[Tuple[int, tuple, list]] = []
        self.iterations = self.checked = 0
        self.plain: Optional["RelationStore"] = None

    @property
    def pairs(self) -> Set[Tuple[int, int]]:
        if self._pairs is None:
            self._pairs = {(p, q) for p, row in enumerate(self.rows) for q in _bits(row)}
            self.rows = None
        return self._pairs

    @pairs.setter
    def pairs(self, entries):
        self._pairs, self.rows = entries, None

    @property
    def triples(self) -> Set[Tuple[int, int, int]]:
        if self._triples is None:
            unused = self.arena.unused_masks
            self._triples = {(p, x | u, q) for x, rows in self.trows.items()
                             for p, row in enumerate(rows) for q in _bits(row)
                             for u in unused}
            self.trows = None
        return self._triples

    @triples.setter
    def triples(self, entries):
        self._triples, self.trows = entries, None

    @property
    def has_triples(self) -> bool:
        """Whether any triple is stored, without building the set."""
        if self.trows is not None:
            return any(any(rows) for rows in self.trows.values())
        return bool(self._triples)

    def row_form(self, xmasks: Optional[Iterable[int]] = None
                 ) -> Tuple[List[int], Optional[Dict[int, List[int]]]]:
        """New lists of the entries as pair rows and, with ``xmasks``, as
        the triple rows under each of those masks, read off the sets where
        those exist."""
        n = self.arena.n
        if self.rows is not None:
            rows = list(self.rows)
        else:
            rows = [0] * n
            for p, q in self._pairs:
                rows[p] |= 1 << q
        if xmasks is None:
            return rows, None
        if self.trows is not None:
            vmask = self.arena.vmask
            return rows, {x: list(self.trows[x & vmask]) for x in xmasks}
        trows = {x: [0] * n for x in xmasks}
        for p, x, q in self._triples:
            if x in trows:
                trows[x][p] |= 1 << q
        return rows, trows

    def lookup(self, entry) -> Tuple[Optional[int], Optional[tuple]]:
        """(round, why) of a pair or of a triple under any declared mask:
        the round that deleted it, in either orientation, and the clause it
        failed by its own check, or None where it died only as its mirror
        did.  Read off the row log, indexed by row key on first use: the
        row of p, or else of q, whose logged masks hold the partner."""
        if self._log is None:
            self._log = {}
            for rnd, key, fails in self.row_kills:
                self._log.setdefault(key, []).append((rnd, fails))
        p, q = entry[0], entry[-1]
        env = (entry[1] & self.arena.vmask,) if len(entry) == 3 else ()
        for row, partner in ((p, q), (q, p)):
            for rnd, fails in self._log.get((row,) + env, ()):
                for mask, why in fails:
                    if mask >> partner & 1:
                        return rnd, why if row == p else None
        return None, None

    def has_pair(self, i, j) -> bool:
        if self.rows is not None:
            return bool(self.rows[i] >> j & 1)
        return (i, j) in self._pairs

    def has_triple(self, i, xmask, j) -> bool:
        if self.trows is not None:
            return bool(self.trows[xmask & self.arena.vmask][i] >> j & 1)
        return (i, xmask, j) in self._triples

    @property
    def size(self) -> int:
        """Entries as the sets count them: a triple row once per declared mask."""
        pairs = len(self._pairs) if self.rows is None else _count(self.rows)
        triples = (len(self._triples) if self.trows is None
                   else self.arena.class_size * sum(_count(rows) for rows in self.trows.values()))
        return pairs + triples


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


def _refutation_records(store: RelationStore, entries) -> List[dict]:
    arena = store.arena
    out = []
    for entry in entries:
        why = store.lookup(entry)[1]
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
# The row engine


class RowEngine:
    """Row engine for ``brb``, ``cbrb``, ``gbrb``, ``tob`` and ``tb`` and
    their rooted layers.

    A relation is a list of pair rows and, for the reactive families, a
    list of triple rows per effective environment mask (the layout of
    ``RelationStore``); ``tob`` and ``tb`` are pairs only.  Triple rows may
    also be keyed by declared masks (revalidating a store built from sets):
    a clause reads a mask only through its idle states and its permissions,
    which X & V decides.

    From the predecessor masks of every label and the reverse weak closure
    (and, over a ``ThetaArena``, one inverse of ``wrap`` per effective mask,
    which maps each wrapper back to every state, bare or wrapped, that wraps
    onto it), the clauses of a row's entries are decided for every partner q
    at once: each clause gives the mask of partners it lets pass, in the
    order a per-entry check would try the clauses, so each failing partner
    gets the same first failing clause.  ``clauses`` builds them, the plain
    ones and their rooted reading alike; ``fixpoint`` runs the rounds, for
    the checks and for ``revalidate``.
    """

    FAMILIES = ("brb", "cbrb", "gbrb", "tob", "tb")
    PAIR_FAMILIES = ("tob", "tb")

    def __init__(self, arena: Arena):
        self.a = arena
        n = arena.n
        labels = {TAU, TIMEOUT} | {lab for out in arena.out for lab in out}
        # pred[lab][y]: states with a lab-step to y
        self.pred = {lab: [0] * n for lab in sorted(labels)}
        # rweak[y]: states q with y in weak[q]
        self.rweak = [0] * n
        # deps[s]: s and its successors, the states whose rows s's clauses read
        self.deps = [0] * n
        self.unstable = 0
        self.notau = 0
        weak, stable = arena.weak, arena.stable
        for s in range(n):
            bit = 1 << s
            deps = bit
            for lab, ds in arena.out[s].items():
                col = self.pred[lab]
                for d in ds:
                    col[d] |= bit
                    deps |= 1 << d
            self.deps[s] = deps
            for y in weak[s]:
                self.rweak[y] |= bit
            if not stable[s]:
                self.unstable |= bit
            if not arena.has_tau[s]:
                self.notau |= bit
        self._idle: Optional[Dict[int, int]] = None
        if isinstance(arena, ThetaArena):
            # unwrapped[x][w]: the states whose wrapper under x is w
            self.unwrapped = {x: [0] * n for x in arena.xmasks}
            for x, inverse in self.unwrapped.items():
                for s in range(n):
                    inverse[arena.wrap(x, s)] |= 1 << s
            idle, tpred = self._idle_masks(), self.pred[TIMEOUT]
            for (x, s), w in arena.wrapped.items():
                # a tob row reads the rows of its t-successors' wrappers
                for p in _bits(tpred[s] & idle[x]):
                    self.deps[p] |= 1 << w

    # -- seeding ------------------------------------------------------------
    def seeded(self, relation, lefts, rights, with_triples: bool) -> RelationStore:
        """The symmetric store seeded with lefts x rights, as rows (and the
        same rows under every effective environment mask)."""
        n = self.a.n
        lmask = sum(1 << s for s in set(lefts))
        rmask = sum(1 << s for s in set(rights))
        rows = [0] * n
        for s in lefts:
            rows[s] |= rmask
        for s in rights:
            rows[s] |= lmask
        trows = {x: list(rows) for x in self.a.xmasks} if with_triples else None
        return RelationStore(self.a, relation, rows, trows)

    # -- mask primitives -----------------------------------------------------
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

    def _reaching(self, good: int, memo) -> int:
        """The states whose weak closure meets ``good``."""
        key = (None, good)   # None: the weak closure, beside the labels of _pre
        got = memo.get(key)
        if got is None:
            got = memo[key] = _gather(self.rweak, good)
        return got

    def _weak_step(self, lab, target: int, alive: int, memo) -> int:
        """Partners that weakly reach, within ``alive``, a state with a
        ``lab``-step into ``target`` (for tau, also a state of ``target``)."""
        good = self._pre(lab, target, memo)
        if lab == TAU:
            good |= target
        return self._reaching(good & alive, memo)

    def _tpath(self, alive: int, mid: int, target: int, memo) -> int:
        """States of ``alive`` that match a time-out into ``target``.

        A match is an alternating weak/t path whose stations (its start and
        every t-target) lie in ``alive`` and whose weak steps end in ``mid``
        (the partners themselves for tb, the states idle under the
        environment for the reactive relations); it ends at, or one t-step
        before, a state of ``target``.  ``hit`` gathers the states of ``mid``
        that end a match; the stations weakly reaching one of them win, and
        the t-predecessors in ``mid`` of winners end a match too, until
        nothing is added or every station won.
        """
        hit = mid & (target | self._pre(TIMEOUT, target, memo))
        won = self._reaching(hit, memo) & alive
        new = won
        tpred = self.pred[TIMEOUT]
        while new and alive & ~won:
            more = _gather(tpred, new) & mid & ~hit
            if not more:
                break
            hit |= more
            new = self._reaching(more, memo) & alive & ~won
            won |= new
        return won

    def _idle_masks(self) -> Dict[int, int]:
        """``idle[x]``: the states idle under effective environment mask x."""
        if self._idle is None:
            a = self.a
            offers = [0] * len(a.sigma)
            for s, vis in enumerate(a.vis_mask):
                for k in _bits(vis):
                    offers[k] |= 1 << s
            busy = {0: 0}
            for x in a.xmasks[1:]:
                low = x & -x
                busy[x] = busy[x ^ low] | offers[low.bit_length() - 1]
            self._idle = {x: self.notau & ~b for x, b in busy.items()}
        return self._idle

    def _unwrap(self, x, mask: int, memo) -> int:
        """The states whose wrapper under x lies in ``mask``."""
        key = ("u", x, mask)
        got = memo.get(key)
        if got is None:
            got = memo[key] = _gather(self.unwrapped[x], mask)
        return got

    def _gpath(self, y, alive: int, target: int, memo) -> int:
        """Partners matching a time-out under y into ``target`` over the
        stations ``alive``: a stable state of their weak closure is in the
        target, or times out into it or into a station that matches (the
        first station need not be alive)."""
        key = ("g", y, alive, target)
        got = memo.get(key)
        if got is None:
            won = self._tpath(alive, self._idle_masks()[y & self.a.vmask], target, memo)
            hit = self.notau & (target | self._pre(TIMEOUT, target | won, memo))
            got = memo[key] = self._reaching(hit, memo)
        return got

    def _idle_timeouts(self, p, idle):
        """(y, p2) for every mask y of ``idle`` that p idles under and every
        time-out p -t-> p2, in the order the clauses try them."""
        t_succ = self.a.t_succ[p]
        if t_succ:
            for y, idles in idle.items():
                if idles >> p & 1:
                    for p2 in t_succ:
                        yield y, p2

    def _strong_step(self, lab, target: int, alive: int, memo) -> int:
        """Partners with a ``lab``-step into ``target``: the rooted reading
        of ``_weak_step``, which ``alive`` does not constrain."""
        return self._pre(lab, target, memo)

    # -- clauses -------------------------------------------------------------
    def clauses(self, family: str, rows, trows, plain=None):
        """(pair clauses, triple clauses or None) of a relation family over
        ``rows``/``trows``; with ``plain``, the plain fixpoint's (rows,
        trows), those of its rooted layer.  A clause function takes a row's
        key and a memo and yields, clause by clause, (mask of the partners
        that pass, clause, action, env, derivative), with None for a field
        the clause does not name.

        Each clause is written once.  A pair row has a weak step for each
        move (1a, t1, tb1); then the time-outs (gbrb's 1b and tob's t2, under
        each mask p idles under, and tb2) or, for brb and cbrb, the triple
        rows (1b); then stability (1c, t3, tb3).  A triple row has 2a-2e,
        where gbrb's 2c matches the time-outs as its 1b does and cbrb's 2d
        matches a time-out by exactly one time-out.

        The rooted layer reads the same clauses strongly: a step of p is
        matched by the same step into the plain rows, a time-out by one
        time-out into them, brb's 2c reads the rooted row itself, there is
        no stability clause, and each name takes an ``r`` prefix.  The one
        exception is ``rtb1``: rooted tb matches every first step, t and t_X
        included, in label order.
        """
        a, rooted = self.a, plain is not None
        tb, tob, generalised, concrete = (family == f for f in ("tb", "tob", "gbrb", "cbrb"))
        # the rows a step of p is matched into, and how
        mrows, mtrows = plain if rooted else (rows, trows)
        step = self._strong_step if rooted else self._weak_step
        stable = ~self.unstable
        r = "r" if rooted else ""
        c1a, c1b, c1c = (r + c for c in {"tb": ("tb1", "tb2", "tb3"), "tob": ("t1", "t2", "t3")}
                         .get(family, ("1a", "1b", "1c")))
        c2a, c2b, c2c, c2d, c2e = (r + c for c in (
            "2a", "2b", "2c", "2d", "2d-stable" if generalised else "2e"))
        if tb and rooted:   # rtb1
            moves = [sorted(out.items()) for out in a.out]
        elif tb:
            # tb1 reads no t_X label, and tb2 the time-outs
            branch = [lab for lab in self.pred
                      if lab != TIMEOUT and label_kind(lab)[0] != "t_set"]
            moves = [[(lab, out[lab]) for lab in branch if lab in out] for out in a.out]
        else:
            moves = a.moves_vt
            idle = self._idle_masks()
            if not tob:   # the masks trows is keyed by, declared ones too
                idle = {x: idle[x & a.vmask] for x in trows}
        # brb and cbrb ask a pair for its triples in 1b and have no 1c
        pair_stable = not rooted and family not in ("brb", "cbrb")

        def timeouts(p, clause, memo):
            """gbrb's 1b and 2c, tob's t2: each time-out of p under each
            mask y it idles under, matched as ``_gpath`` does (for tob over
            the states whose wrappers under y are related)."""
            for y, p2 in self._idle_timeouts(p, idle):
                if tob:
                    target = self._unwrap(y, mrows[a.wrap(y, p2)], memo)
                    alive = None if rooted else self._unwrap(y, rows[p], memo)
                else:
                    target, alive = mtrows[y][p2], trows[y][p]
                ok = (self._pre(TIMEOUT, target, memo) if rooted
                      else self._gpath(y, alive, target, memo))
                yield ok, clause, None, y, p2

        def pair(p, memo):
            alive = rows[p]
            for lab, ds in moves[p]:
                for p2 in ds:
                    yield step(lab, mrows[p2], alive, memo), c1a, lab, None, p2
            if tb:
                if not rooted:
                    for p2 in a.t_succ[p]:
                        yield self._tpath(alive, alive, rows[p2], memo), c1b, None, None, p2
            elif tob or generalised:
                yield from timeouts(p, c1b, memo)
            else:
                for x, line in trows.items():
                    yield line[p], c1b, None, x, None
            if pair_stable and not a.has_tau[p]:
                yield stable, c1c, None, None, None
        if trows is None:
            return pair, None

        def triple(p, x, memo):
            line, mline = trows[x], mtrows[x]
            alive = line[p]
            for p2 in a.tau_succ[p]:
                yield step(TAU, mline[p2], alive, memo), c2a, None, None, p2
            idles = idle[x] >> p & 1
            for lab, ds in a.vis_moves[p]:
                if (generalised and idles) or a.bit[lab] & x:
                    for p2 in ds:
                        yield step(lab, mrows[p2], alive, memo), c2b, lab, None, p2
            if idles and generalised:
                yield from timeouts(p, c2c, memo)
            elif idles:
                yield rows[p] if rooted else self._reaching(rows[p], memo), c2c, None, None, None
                for p2 in a.t_succ[p]:
                    if rooted:
                        ok = self._pre(TIMEOUT, mline[p2], memo)
                    elif concrete:
                        ok = self._reaching(self._pre(TIMEOUT, line[p2], memo), memo)
                    else:
                        ok = self._tpath(alive, idle[x], line[p2], memo)
                    yield ok, c2d, None, None, p2
            if not rooted and not a.has_tau[p]:
                yield stable, c2e, None, None, None
        return pair, triple

    # -- drivers -------------------------------------------------------------
    def fixpoint(self, store: RelationStore, pair, triple=None) -> Tuple[int, int]:
        """Delete failing entries from the store's rows in synchronous rounds.

        As in a per-entry deletion in sorted order, every row is judged
        against the rows the round started with before any entry dies, pair
        rows first and then triple rows in (p, x) order, so the rounds, and
        the ranks and refutation records read off ``store.row_kills``, come
        out the same.  A round then leaves S & ~D & ~D^T, whatever the order:
        each bad row drops its own dead partners D[p], and the rows sharing
        one line and one dead mask are cleared from each of those partners'
        rows at once.  A state's rows are judged again only when a row it
        reads has changed: its own, a successor's or, for ``tob``, that of
        a t-successor's wrapper.  A triple row counts once per declared mask
        of its class in the entries checked.
        """
        rows, trows = store.rows, store.trows
        weight = self.a.class_size
        alive = _count(rows) + (weight * sum(_count(line) for line in trows.values())
                                if trows else 0)
        iterations = checked = 0
        changed = -1
        memo = {}
        while True:
            iterations += 1
            checked += alive
            todo = [p for p, deps in enumerate(self.deps) if deps & changed]
            bad = []
            for p in todo:
                if rows[p]:
                    fails = _failures(rows[p], pair(p, memo))
                    if fails:
                        bad.append(((p,), rows, fails))
            if trows is not None:
                for p in todo:
                    for x, line in trows.items():
                        if line[p]:
                            fails = _failures(line[p], triple(p, x, memo))
                            if fails:
                                bad.append(((p, x), line, fails))
            if not bad:
                return iterations, checked
            changed = 0
            groups = {}   # (env, dead mask) -> [line, rows killing it]
            for key, line, fails in bad:
                store.row_kills.append((iterations, key, fails))
                p, env = key[0], key[1:]
                dead = 0
                for mask, _ in fails:
                    dead |= mask
                gone = line[p] & dead
                line[p] ^= gone
                alive -= (weight if env else 1) * gone.bit_count()
                changed |= dead | 1 << p
                groups.setdefault((env, dead), [line, 0])[1] |= 1 << p
            for (env, dead), (line, ps) in groups.items():
                w = weight if env else 1
                for q in _bits(dead):
                    gone = line[q] & ps
                    if gone:
                        line[q] ^= gone
                        alive -= w * gone.bit_count()


def _failures(live: int, clauses) -> List[Tuple[int, tuple]]:
    """Failing partners of ``live`` as (mask, why) in clause order; every
    failing partner sits in the mask of its first failing clause.  A why is
    (clause, info), info holding whichever of action, env and derivative
    the clause names."""
    fails = []
    for ok, clause, action, env, derivative in clauses:
        bad = live & ~ok
        if bad:
            info = {}
            if action is not None:
                info["action"] = action
            if env is not None:
                info["env"] = env
            if derivative is not None:
                info["derivative"] = derivative
            fails.append((bad, (clause, info)))
            live ^= bad
            if not live:
                break
    return fails


def _count(rows: List[int]) -> int:
    return sum(row.bit_count() for row in rows)


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


def _submasks(mask: int):
    """The submasks of ``mask`` in increasing order, from 0 to ``mask``."""
    x = 0
    while True:
        yield x
        if x == mask:
            return
        x = (x - mask) & mask


def _symmetric(rows: List[int]) -> bool:
    return all(rows[q] >> p & 1 for p, row in enumerate(rows) for q in _bits(row))


# ---------------------------------------------------------------------------
# Drivers


def _refuse_encoded(arena: Arena, family: str):
    """Only ``tb`` reads an encoded arena; every other family refuses it
    before building anything over it."""
    if arena.encoded and family != "tb":
        raise LabelUniverseMismatch("reactive checkers take base systems, not encoded ones")


def _budget_check(n_states: int, n_masks: int):
    """Refuse a store of n_states^2 pairs, each under n_masks effective masks."""
    if n_states * n_states * n_masks > TRIPLE_BUDGET:
        raise StateBudgetExceeded(n_states * n_states * n_masks, TRIPLE_BUDGET)


def _row_fixpoints(arena: Arena, p: int, q: int, family: str, relation: str,
                   rooted: bool) -> RelationStore:
    """The plain fixpoint of a family on the row engine, seeded over the
    side states of p and q; with ``rooted``, the rooted layer over it (its
    ``plain`` is the plain store)."""
    _refuse_encoded(arena, family)
    with_triples = family not in RowEngine.PAIR_FAMILIES
    lefts, rights = arena.side_states(p), arena.side_states(arena.state2(q))
    _budget_check(len(lefts) + len(rights),
                  1 << arena.vmask.bit_count() if with_triples else 1)
    engine = RowEngine(arena)
    store = engine.seeded(relation, lefts, rights, with_triples)
    store.iterations, store.checked = engine.fixpoint(
        store, *engine.clauses(family, store.rows, store.trows))
    if rooted:
        plain = store
        store = engine.seeded(relation + "-rooted", lefts, rights, with_triples)
        store.plain = plain
        it, ch = engine.fixpoint(store, *engine.clauses(
            family, store.rows, store.trows, (plain.rows, plain.trows)))
        store.iterations = it + plain.iterations
        store.checked = ch + plain.checked
    return store


def _verdict(store: RelationStore, entry, relation) -> Verdict:
    arena = store.arena
    alive = (store.has_pair(*entry) if len(entry) == 2
             else store.has_triple(*entry))
    return Verdict(
        relation=relation,
        equivalent=alive,
        sigma=arena.sigma,
        iterations=store.iterations,
        entries_checked=store.checked,
        refutation=[] if alive else _refutation_records(
            store, [entry, entry[::-1]]),
        witness=store if alive else None,
    )


def _reactive_check(family: str, relation: str, l1, p, l2, q, rooted, sigma,
                    env=None) -> Verdict:
    arena = Arena(l1, None if l2 is l1 else l2, sigma)
    gq = arena.state2(q)
    entry = (p, gq) if env is None else (p, arena.mask_of(env), gq)
    store = _row_fixpoints(arena, p, q, family, relation, rooted)
    return _verdict(store, entry, store.relation)


def brb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
              sigma: Iterable[str] = ()) -> Verdict:
    """Decide branching reactive bisimilarity of two states (Verdict)."""
    return _reactive_check("brb", "brb", l1, p, l2, q, rooted, sigma)


def brb_X_check(l1: Lts, p: int, l2: Lts, q: int, env: Iterable[str],
                sigma: Iterable[str] = (), rooted: bool = False) -> Verdict:
    """Branching X-bisimilarity: the queried entry is the environment triple."""
    return _reactive_check("brb", "brbX", l1, p, l2, q, rooted, sigma, env)


def gbrb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
               sigma: Iterable[str] = ()) -> Verdict:
    return _reactive_check("gbrb", "gbrb", l1, p, l2, q, rooted, sigma)


def cbrb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
               sigma: Iterable[str] = ()) -> Verdict:
    return _reactive_check("cbrb", "cbrb", l1, p, l2, q, rooted, sigma)


def tob_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
              sigma: Iterable[str] = (), env: Optional[Iterable[str]] = None) -> Verdict:
    """Branching time-out bisimulation over the theta-augmented state space.

    The relation is exact: the ``ThetaArena`` builds one level of wrappers,
    onto which nested wrappers normalise.  With ``env`` given, the verdict
    reads off the wrapped pair, deciding X-bisimilarity through the
    environment operator (the wrapper of X is that of X & V).
    """
    arena = ThetaArena(l1, None if l2 is l1 else l2, sigma)
    gq = arena.state2(q)
    entry = (p, gq)
    if env is not None:
        x = arena.mask_of(env)
        entry = (arena.wrap(x, p), arena.wrap(x, gq))
    store = _row_fixpoints(arena, p, q, "tob", "tob", rooted)
    return _verdict(store, entry, store.relation)


def tb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False) -> Verdict:
    """t-branching bisimilarity over encoded labels (pairs only), decided by
    the row engine; the rooted layer is one more row pass against the plain
    rows."""
    if l1.labels != l2.labels and l2 is not l1:
        raise LabelUniverseMismatch(
            f"label universes differ: {sorted(l1.labels)} vs {sorted(l2.labels)}")
    arena = Arena(l1, None if l2 is l1 else l2)
    store = _row_fixpoints(arena, p, q, "tb", "tb", rooted)
    return _verdict(store, (p, arena.state2(q)), store.relation)


def strong_bisim(l1: Lts, p: int, l2: Lts, q: int, sigma: Iterable[str] = ()) -> Verdict:
    """Strong bisimilarity by signature refinement on the disjoint union.

    Blocks start as one.  Each round gives every state the signature (its
    block, the set of (label, block of target) over its moves in
    ``Arena.out``, as a sorted tuple) and numbers the blocks of the next
    round by first occurrence of a signature, until a round moves nothing.
    Only the move table is read, so the arena's weak closure and stability
    are never built.  An equivalence's witness pairs each state reachable
    on the left with the states reachable on the right in its block, both
    orientations.
    ``sigma`` widens the visible alphabet of both systems, as it does for
    every other checker: it shows in the reported ``sigma`` and in the
    label universes compared.
    """
    sig = frozenset(sigma)
    if l2 is not l1 and l1.labels | sig != l2.labels | sig:
        raise LabelUniverseMismatch(
            f"label universes differ: {sorted(l1.labels | sig)} vs {sorted(l2.labels | sig)}")
    arena = Arena(l1, None if l2 is l1 else l2, sig)
    gq = arena.state2(q)
    block = [0] * arena.n
    iterations = 0
    while True:
        iterations += 1
        signatures = {}
        nxt = [signatures.setdefault(
                   (block[s], tuple(sorted({(lab, block[d]) for lab, ds in moves.items()
                                            for d in ds}))),
                   len(signatures))
               for s, moves in enumerate(arena.out)]
        if nxt == block:
            break
        block = nxt
    equivalent = block[p] == block[gq]
    checked = arena.n * iterations
    if not equivalent:
        return Verdict("strong", False, arena.sigma, iterations, checked, [{
            "lhs": arena.describe(p), "rhs": arena.describe(gq), "env": None,
            "clause": "strong", "detail": "states separated by partition refinement",
        }])
    members: Dict[int, List[int]] = {}
    for j in arena.reach(gq):
        members.setdefault(block[j], []).append(j)
    store = RelationStore(arena, "strong")
    pairs = store.pairs
    for i in arena.reach(p):
        for j in members.get(block[i], ()):
            pairs.add((i, j))
            pairs.add((j, i))
    store.iterations = iterations
    store.checked = checked
    return Verdict("strong", True, arena.sigma, iterations, checked, [], store)


# ---------------------------------------------------------------------------
# Revalidation


def revalidate(witness: RelationStore, definition_id: str) -> bool:
    """Re-check every clause on every stored entry in one pass; a ``brbX``
    witness is a ``brb`` store."""
    rooted = definition_id.endswith("-rooted")
    base = definition_id[:-len("-rooted")] if rooted else definition_id
    base = "brb" if base == "brbX" else base
    if base in RowEngine.FAMILIES:
        return _revalidate_rows(witness, base, rooted)
    if definition_id != "strong":
        raise FragmentUnsupported(f"no revalidation for definition {definition_id!r}")
    if witness.has_triples:
        return False
    # symmetric, and every move of p is matched by a move of q under the
    # same label into a pair: over the moves ``strong_bisim`` reads
    pairs = witness.pairs
    out = witness.arena.out
    for p, q in pairs:
        if (q, p) not in pairs:
            return False
        qmoves = out[q]
        for lab, ds in out[p].items():
            targets = qmoves.get(lab, ())
            for d in ds:
                if not any((d, t) in pairs for t in targets):
                    return False
    return True


def _revalidate_rows(witness: RelationStore, family: str, rooted: bool) -> bool:
    """Whether a symmetric witness (pairs only for tob and tb) survives
    the first round of ``fixpoint`` whole; the round deletes from copies of
    its rows.  Stores held as rows, the same under every mask of a class,
    are judged under the effective masks; a store held as sets under every
    declared mask, counted against the budget first."""
    _refuse_encoded(witness.arena, family)
    with_triples = family not in RowEngine.PAIR_FAMILIES
    if not with_triples and witness.has_triples:
        return False
    if rooted and (witness.plain is None or not _revalidate_rows(witness.plain, family, False)):
        return False
    arena = witness.arena
    xmasks = arena.xmasks if with_triples else None
    if with_triples and any(st.trows is None for st in (witness, witness.plain)[:1 + rooted]):
        _budget_check(arena.n, arena.full_mask + 1)
        xmasks = range(arena.full_mask + 1)
    # the rounds delete from copies; the witness holds iff round one kills nothing
    store = RelationStore(arena, family, *witness.row_form(xmasks))
    if not all(_symmetric(line) for line in [store.rows, *(store.trows or {}).values()]):
        return False
    plain = witness.plain.row_form(xmasks) if rooted else None
    engine = RowEngine(arena)
    iterations, _ = engine.fixpoint(store, *engine.clauses(family, store.rows, store.trows, plain))
    return iterations == 1


def make_store(l1: Lts, l2: Optional[Lts], relation: str,
               pairs: Iterable[Tuple[int, int]] = (),
               triples: Iterable[Tuple[int, Iterable[str], int]] = (),
               sigma: Iterable[str] = ()) -> RelationStore:
    """Build a store from explicit entries (symmetric closure is applied).

    Pair and triple entries name states of the first and second system by
    their own indices; the second system's indices are shifted internally.
    A triple keeps its declared mask: queries map it through X & V, and
    ``revalidate`` judges the store under every declared mask.  A ``tob``
    store lives on the ``ThetaArena`` its relation is defined over.
    """
    kind = ThetaArena if relation in ("tob", "tob-rooted") else Arena
    arena = kind(l1, None if l2 is l1 or l2 is None else l2, sigma)
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
