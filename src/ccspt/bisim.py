"""Greatest-fixpoint checkers for the behavioural equivalences.

Every non-strong relation is decided the same way: initialise a symmetric
store of pairs (and, for the reactive definitions, environment-indexed
triples) over the reachable state spaces, then delete, in synchronous
rounds, the entries whose defining clauses fail against the store the round
started with, until nothing moves.  The queried states are equivalent iff
their entry survives.  Deletion order is deterministic, so ranks and
refutation records are reproducible.

One front half, ``_query``, refuses any input a relation does not take
before a pair context exists, for every checker and ``modal.distinguish``;
one driver, ``_check``, takes every checker but ``strong_bisim`` on to its
verdict, and one engine, the arena itself, runs the rounds: ``Arena``
decides ``brb``, ``brbX``, ``cbrb``, ``gbrb`` (the fixpoints behind
``modal.distinguish`` too), ``tb`` over encoded systems and the rooted layer
of each, and the environment-augmented ``ThetaArena`` decides ``tob`` and
its rooted layer.  It keeps a relation as bit masks, one pair row per state
and one triple row per state and environment mask, and decides a row's
clauses for all of its partners at once, with the same rounds, ranks and
refutation records as a per-entry check.  Each family's clauses are written
once, in ``Arena._compile``: the rooted layer reads them strongly, matching
a first step by the same step into the plain fixpoint.  They are compiled
into a clause program per row, a tuple of ops naming their clauses, once per
arena, family and layer, on the row's first read by the one loop,
``Arena.failing``, that runs them for every row a round judges; ``lookup``
renders the op an entry failed by when it reads it.  A relation has that one
form, rows, which ``revalidate`` judges once, in place, with the same
programs: a witness holds iff no row of it fails a clause.

The checks of one pair of systems share a pair context (``_PairContext``):
the arena of each kind, with its engine tables, and each plain fixpoint are
built once and read by the verdict of that family, by its rooted layer (the
queried entry's row alone) and ``modal.distinguish``.  It dies with them.
Rooted ``tb`` over two rooted encodings judges the plain twins of the
queried states, in the pair context of their plain twin encodings, which
plain ``tb`` shares: every check runs on one arena (``tb_check``).

Strong bisimilarity alone uses signature refinement over the move table of
the pair's ``Arena`` (``strong_bisim``).
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from itertools import chain
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .encode import RootedEncoding
from .errors import FragmentUnsupported, LabelUniverseMismatch, StateBudgetExceeded
from .semantics import (TAU, TIMEOUT, Lts, label_kind, reach, t_label,
                        visible_alphabet, weak_closure)

TRIPLE_BUDGET = 50_000_000
# the families the row engine decides, and those of them without triples
FAMILIES = ("brb", "cbrb", "gbrb", "tob", "tb")
PAIR_FAMILIES = ("tob", "tb")
# the relations defined over any labels, which compare label universes instead
ANY_LABELS = ("strong", "tb")
# the kinds of a clause program's ops (``Arena._compile``); steps come first
(_WEAK, _WEAK_TAU, _STRONG, _STRONG_LINE, _TRIPLE, _CONST, _TPATH, _ROW, _CONCRETE,
 _GPATH, _TOB, _FUSED) = range(12)


# ---------------------------------------------------------------------------
# Arenas


class Arena:
    """Disjoint union of one or two LTSs with per-state move tables, and the
    row engine of the relations over it.

    States are integers; those of the second system are shifted by
    ``offset``, the size of the first, or 0 where the second system is the
    first.  The arena keeps no reference to the systems.  ``out`` maps each
    state's labels to its targets.  The move tables read off it (``tau_succ``
    to ``vmask`` and ``class_size``) are built by the first ``tables`` call,
    which each reader of them makes first (a fixpoint, ``program``,
    ``xmasks``, a ``ThetaArena``, a triple's ``lookup``), the weak closure on
    its first read, and the stability mask with the engine's tables.  So
    strong bisimilarity, which reads ``out`` alone, builds none of them on
    the arena the other checks of the pair share.  ``sigma`` is the shared
    visible alphabet, realised as bit masks so environment sets enumerate
    cheaply; a label is visible iff it has a bit (``Lts.sigma`` holds every
    visible label), and any other label but tau and t is one of an encoding
    (``encoded``, read off the systems', says whether a move carries one).

    An environment X reaches a clause only through idle and permission tests
    on the visible actions some state offers, ``vmask`` (V).  So X and X & V
    decide every entry alike, and the relations carry one triple row per
    effective mask, a submask of V (``xmasks``).  Each stands for
    ``class_size`` = 2^|Sigma - V| declared masks, of which it is the least.

    The engine keeps a relation as pair rows and, but for ``tob`` and
    ``tb``, triple rows per effective mask (the layout of ``RelationStore``;
    ``make_store`` keys them by declared masks, which a clause reads only
    through X & V).  From the predecessor masks of every label and the
    reverse weak closure, built by the first ``program`` call, a row's
    clauses are decided for every partner at once: each gives the mask of
    partners it lets pass, in the order a per-entry check tries them, so
    each failing partner gets the same first failing clause.  ``failing``
    runs them as each judged row's clause program (``program``), compiled
    on its first read, once for ``revalidate`` and in each round of
    ``fixpoint``; ``why`` renders an op a partner failed by.  A
    ``ThetaArena``'s wrappers are read from ``wrapped`` ((x, s) to the
    wrapper of s under x) and its inverse ``wrap_key``, read-only and empty
    here.
    """

    wrapped = wrap_key = MappingProxyType({})

    def __init__(self, l1: Lts, l2: Optional[Lts] = None, sigma: Iterable[str] = ()):
        systems = [l1] if l2 is None else [l1, l2]
        self.offset = 0 if l2 is None else len(l1)
        self.sigma = tuple(sorted(visible_alphabet(sigma).union(*(l.sigma for l in systems))))
        self.bit = {a: 1 << i for i, a in enumerate(self.sigma)}
        self.full_mask = (1 << len(self.sigma)) - 1
        self._xmasks = None
        self.encoded = any(l.encoded for l in systems)

        self.tags = list(l1.tags)
        # the first system's move dicts are shared: nothing writes to them
        self.out: List[Dict[str, Tuple[int, ...]]] = [l1.out(s) for s in range(len(l1))]
        if l2 is not None:
            off = self.offset
            self.tags.extend(l2.tags)
            self.out.extend({lab: tuple([d + off for d in ds]) for lab, ds in l2.out(s).items()}
                            for s in range(len(l2)))
        self.n = len(self.out)
        self.tau_succ: Optional[List[Tuple[int, ...]]] = None   # no move tables yet

    def tables(self) -> "Arena":
        """The arena, its move tables built if they are not yet."""
        if self.tau_succ is None:
            self._build_tables()
        return self

    def _build_tables(self, start: int = 0):
        """Move tables of the states of ``out`` from ``start`` on, one loop
        per state, appended to those of the states before it (a
        ``ThetaArena`` appends its wrappers'); the weak closure and the
        engine's tables are dropped until their next read, and with them the
        mask memo of ``failing`` and the mask primitives, whose values are
        functions of those tables: every fixpoint and ``revalidate`` on the
        arena shares it while they stand."""
        if not start:
            self.tau_succ, self.t_succ, self.has_tau = [], [], []
            self.moves_vt: List[Tuple[Tuple[str, Tuple[int, ...]], ...]] = []
            self.vis_mask, self.vmask = [], 0
        bit = self.bit
        for moves in self.out[start:]:
            tau = moves.get(TAU, ())
            vis, mask = [], 0
            for lab, ds in sorted(moves.items()):
                if lab in bit:
                    vis.append((lab, ds))
                    mask |= bit[lab]
            if tau:
                vis.append((TAU, tau))
            self.tau_succ.append(tau)
            self.t_succ.append(moves.get(TIMEOUT, ()))
            self.has_tau.append(bool(tau))
            self.moves_vt.append(tuple(vis))
            self.vis_mask.append(mask)
            self.vmask |= mask
        self.n = len(self.out)
        self.class_size = 1 << (len(self.sigma) - self.vmask.bit_count())
        # filled on first read; not through functools.cached_property, which
        # writes the instance dict and so materialises it, after which
        # CPython 3.11 reads every attribute of the arena at about twice the cost
        self._weak: Optional[List[Tuple[int, ...]]] = None
        # the engine's tables, built by the first ``program`` call, and the
        # clause programs compiled over them
        self.pred: Optional[Dict[str, List[int]]] = None
        self.rweak: Optional[List[int]] = None
        self._idle: Optional[Dict[int, int]] = None
        self._programs: Dict[tuple, tuple] = {}
        self._memo: Dict = {}

    @property
    def weak(self) -> List[Tuple[int, ...]]:
        """The states each state reaches over tau steps, itself included."""
        if self._weak is None:
            self._weak = weak_closure(self.tau_succ)
        return self._weak

    @property
    def xmasks(self) -> Tuple[int, ...]:
        """The effective environment masks, the submasks of V, in increasing order."""
        if self._xmasks is None:
            _budget_check(self.n, 1 << self.tables().vmask.bit_count())
            self._xmasks = tuple(_submasks(self.vmask))
        return self._xmasks

    @property
    def unused_masks(self) -> Tuple[int, ...]:
        """The submasks of Sigma - V in increasing order: x | u over these are
        the declared masks of the effective mask x."""
        return tuple(_submasks(self.full_mask & ~self.vmask))

    def state2(self, q: int) -> int:
        """Global index of state ``q`` of the second system."""
        return q + self.offset

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
        out = self.out
        return reach(lambda u: chain.from_iterable(out[u].values()), s)

    def side_states(self, root: int) -> Tuple[int, ...]:
        """The states a store is seeded with on the side of ``root``: those
        it reaches, base states alone, and every wrapper of one of them."""
        members = set(self.reach(root))
        for (x, s), w in self.wrapped.items():
            if s in members:
                members.add(w)
        return tuple(sorted(members))

    def describe(self, s: int) -> str:
        if s in self.wrap_key:
            x, s = self.wrap_key[s]
            return f"theta{{{','.join(self.mask_names(x))}}}({self.describe(s)})"
        return str(self.tags[s])

    # -- the engine's tables ------------------------------------------------
    def _engine_tables(self):
        """The tables the layers read: the predecessor masks of every label,
        each state's dependencies, the mask of states with no tau step, the
        reverse weak closure and the mask of states that weakly reach none."""
        n = self.n
        labels = {TAU, TIMEOUT} | {lab for out in self.out for lab in out}
        # pred[lab][y]: states with a lab-step to y
        pred = {lab: [0] * n for lab in sorted(labels)}
        # deps[s]: s and its successors, the states whose rows s's clauses read
        deps = [0] * n
        notau = 0
        has_tau = self.has_tau
        for s in range(n):
            bit = 1 << s
            mine = bit
            for lab, ds in self.out[s].items():
                col = pred[lab]
                for d in ds:
                    col[d] |= bit
                    mine |= 1 << d
            deps[s] = mine
            if not has_tau[s]:
                notau |= bit
        rweak = [0] * n   # rweak[y]: the states q with y in weak[q]
        for s, ys in enumerate(self.weak):
            for y in ys:
                rweak[y] |= 1 << s
        self.deps, self.notau, self.rweak = deps, notau, rweak
        self.unstable = ~_gather(rweak, notau)
        self.pred = pred   # last: set, it marks the tables built

    # -- seeding ------------------------------------------------------------
    def seeded(self, relation, lefts, rights, with_triples: bool) -> RelationStore:
        """The symmetric store seeded with lefts x rights, as rows (and the
        same rows under every effective environment mask)."""
        n = self.n
        lmask = sum(1 << s for s in set(lefts))
        rmask = sum(1 << s for s in set(rights))
        rows = [0] * n
        for s in lefts:
            rows[s] |= rmask
        for s in rights:
            rows[s] |= lmask
        trows = {x: list(rows) for x in self.xmasks} if with_triples else None
        return RelationStore(self, relation, rows, trows)

    # -- mask primitives -----------------------------------------------------
    def _pre(self, lab, mask: int) -> int:
        """States with a ``lab``-step into ``mask``.

        Memoised by value: states with equal rows, common once the relation
        settles into classes (and all of one side in round one), share it.
        """
        key = (lab, mask)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = _gather(self.pred[lab], mask)
        return got

    def _reaching(self, good: int) -> int:
        """The states whose weak closure meets ``good``."""
        got = self._memo.get(good)   # a bare mask: the weak closure, beside the keys of _pre
        if got is None:
            got = self._memo[good] = _gather(self.rweak, good)
        return got

    def _tpath(self, alive: int, mid: int, target: int) -> int:
        """States of ``alive`` that match a time-out into ``target``.

        A match is an alternating weak/t path whose stations (its start and
        every t-target) lie in ``alive`` and whose weak steps end in ``mid``
        (the partners themselves for tb, the states idle under the
        environment for the reactive relations); it ends at, or one t-step
        before, a state of ``target``.  ``hit`` gathers the states of ``mid``
        that end a match; the stations weakly reaching one of them win, and
        the t-predecessors in ``mid`` of winners end a match too, until
        nothing is added or every station won.  Memoised by value.
        """
        key = ("t", alive, mid, target)
        got = self._memo.get(key)
        if got is not None:
            return got
        hit = mid & (target | self._pre(TIMEOUT, target))
        won = self._reaching(hit) & alive
        new = won
        tpred = self.pred[TIMEOUT]
        while new and alive & ~won:
            more = _gather(tpred, new) & mid & ~hit
            if not more:
                break
            hit |= more
            new = self._reaching(more) & alive & ~won
            won |= new
        self._memo[key] = won
        return won

    def _idle_masks(self) -> Dict[int, int]:
        """``idle[x]``: the states idle under effective environment mask x."""
        if self._idle is None:
            offers = [0] * len(self.sigma)
            for s, vis in enumerate(self.vis_mask):
                for k in _bits(vis):
                    offers[k] |= 1 << s
            busy = {0: 0}
            for x in self.xmasks[1:]:
                low = x & -x
                busy[x] = busy[x ^ low] | offers[low.bit_length() - 1]
            self._idle = {x: self.notau & ~b for x, b in busy.items()}
        return self._idle

    def _gpath(self, y, alive: int, target: int) -> int:
        """Partners matching a time-out under y into ``target`` over the
        stations ``alive``: a stable state of their weak closure is in the
        target, or times out into it or into a station that matches (the
        first station need not be alive)."""
        key = ("g", y, alive, target)
        got = self._memo.get(key)
        if got is None:
            won = self._tpath(alive, self._idle_masks()[y & self.vmask], target)
            hit = self.notau & (target | self._pre(TIMEOUT, target | won))
            got = self._memo[key] = self._reaching(hit)
        return got

    # -- clause programs -----------------------------------------------------
    def program(self, family: str, keys: Optional[Tuple[int, ...]], rooted: bool):
        """The clause programs of a family's plain or rooted layer over
        triple rows keyed by ``keys`` (None for a relation of pairs), as (the
        program of each pair row, {x: the program of each triple row} or
        None, the pair row compiler, the triple row compiler).  A row's
        program is None until ``failing`` first reads it and compiles it.
        The first call for a (family, layer, keys) builds the engine tables
        if need be and the compilers, kept beside the tables."""
        if self.tables().pred is None:
            self._engine_tables()
        key = family, rooted, keys
        got = self._programs.get(key)
        if got is None:
            got = self._programs[key] = (
                [None] * self.n, None if keys is None else {x: [None] * self.n for x in keys},
                *self._compile(family, keys, rooted))
        return got

    def _compile(self, family: str, keys, rooted: bool):
        """The row compilers of ``program``, ``pair(arena, p)`` and
        ``triple(arena, p, x)``; they take the arena as an argument, so no
        closure over it is kept on it.  A program is a tuple of ops (kind,
        a, b, clause), one per clause instance in the order a per-entry
        check tries them, clause naming it; ``why`` reads its details off
        the op.  An op gives the mask of the partners that pass it, read off
        the judged row p, its line (the pair rows, or the triple rows under
        its mask) and the matched rows and line (the plain fixpoint's in the
        rooted layer, else the same):

        - ``_WEAK``: those weakly reaching, within p's row, a state with an
          a-step into the matched row of b; ``_WEAK_TAU`` for a tau step
          into the matched line's row of b, which also passes its states;
        - ``_STRONG`` and ``_STRONG_LINE``: those with an a-step into the
          matched row, or the matched line's row, of b;
        - ``_TRIPLE``: p's triple row under a; ``_CONST``: the mask a;
        - ``_TPATH``: ``_tpath`` over p's row, ending in the states a (p's
          row for None), into the line's row of b;
        - ``_CONCRETE``: those weakly reaching a time-out into the line's
          row of b; ``_ROW``: p's pair row, weakly reached unless rooted;
        - ``_GPATH`` and ``_TOB``: a time-out under a, into gbrb's matched
          triple row of b under a or into the states whose wrappers under a
          lie in tob's matched row b (b wraps the time-out's target), by
          ``_gpath`` over p's row under a, or one time-out when rooted;
        - ``_FUSED``: those with an a-step (a settling step eps_X) to a state
          with a time-out into the matched row of b.

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
        included, in label order.  At a row with eps_X steps and no t_X step,
        it reads each eps_X step followed by a t step as a t_X step
        (``_FUSED``, ordered by the t_X label), so the plain twin of a rooted
        encoding's state has that state's first steps (``tb_check``).
        """
        tb, tob, generalised, concrete = (family == f for f in ("tb", "tob", "gbrb", "cbrb"))
        stable = None if rooted else ~self.unstable
        r = "r" if rooted else ""
        c1a, c1b, c1c = (r + c for c in {"tb": ("tb1", "tb2", "tb3"), "tob": ("t1", "t2", "t3")}
                         .get(family, ("1a", "1b", "1c")))
        c2a, c2b, c2c, c2d, c2e = (r + c for c in (
            "2a", "2b", "2c", "2d", "2d-stable" if generalised else "2e"))
        if not tb:
            idle = self._idle_masks()
            if keys is not None:   # the masks triple rows are keyed by, declared ones too
                idle = {x: idle[x & self.vmask] for x in keys}

        # a step's kind: strong when rooted, and a weak tau step may stay put
        vis, tau, tau_line = (_STRONG, _STRONG, _STRONG_LINE) if rooted else (
            _WEAK, _WEAK_TAU, _WEAK_TAU)

        def timeouts(arena, p, clause):
            """gbrb's 1b and 2c, tob's t2: each time-out of p under each y it idles under."""
            return [(_TOB, y, arena.wrap(y, p2), clause) if tob else (_GPATH, y, p2, clause)
                    for y, idles in idle.items() if idles >> p & 1 for p2 in arena.t_succ[p]]

        def pair(arena, p):
            moves = [(lab, tau if lab == TAU else vis, lab, ds) for lab, ds in (
                arena.moves_vt[p] if not tb else arena.out[p].items())]
            if tb:   # tb1 reads no t or t_X, rtb1 every step, in label order
                kinds = [label_kind(lab) for lab, *_ in moves]
                if not rooted:
                    moves = [m for m, (k, _) in zip(moves, kinds) if k not in ("timeout", "t_set")]
                elif "t_set" not in (k for k, _ in kinds):   # read eps_X then t as t_X
                    moves += [(t_label(x), _FUSED, lab, [d for m in ds for d in arena.t_succ[m]])
                              for (lab, _, _, ds), (k, x) in zip(moves, kinds) if k == "eps_set"]
                moves.sort()
            ops = [(kind, a, p2, c1a) for _, kind, a, ds in moves for p2 in ds]
            if tb:
                ops += [(_TPATH, None, p2, c1b) for p2 in arena.t_succ[p] if not rooted]
            elif tob or generalised:
                ops += timeouts(arena, p, c1b)
            else:
                ops += [(_TRIPLE, x, None, c1b) for x in keys]
            # brb and cbrb ask a pair for its triples in 1b and have no 1c
            if not rooted and family not in ("brb", "cbrb") and not arena.has_tau[p]:
                ops.append((_CONST, stable, None, c1c))
            return tuple(ops)

        def triple(arena, p, x):
            ops = [(tau_line, TAU, p2, c2a) for p2 in arena.tau_succ[p]]
            idles = idle[x] >> p & 1
            # a state idle under x has no tau step, and tau has no bit
            ops += [(vis, lab, p2, c2b) for lab, ds in arena.moves_vt[p]
                    if (generalised and idles) or arena.bit.get(lab, 0) & x for p2 in ds]
            if idles and generalised:
                ops += timeouts(arena, p, c2c)
            elif idles:
                kind, a = ((_STRONG_LINE, TIMEOUT) if rooted else (_CONCRETE, None) if concrete
                           else (_TPATH, idle[x]))
                ops += [(_ROW, None, None, c2c)] + [(kind, a, p2, c2d) for p2 in arena.t_succ[p]]
            if not rooted and not arena.has_tau[p]:
                ops.append((_CONST, stable, None, c2e))
            return tuple(ops)
        return pair, triple

    def why(self, op) -> Tuple[str, dict]:
        """(clause, info) of an op, info a new dict of the action, env and
        derivative it names (for ``_TOB``, the state b wraps; for ``_FUSED``,
        the action is the t_X step it reads)."""
        kind, a, b, clause = op
        if kind == _FUSED:
            a = t_label(label_kind(a)[1])
        info = {"action": a} if clause.lstrip("r") in ("1a", "t1", "tb1", "2b") else {}
        if kind in (_TRIPLE, _GPATH, _TOB):
            info["env"] = a
        if b is not None:
            info["derivative"] = self.wrap_key[b][1] if kind == _TOB and b in self.wrap_key else b
        return clause, info

    # -- drivers -------------------------------------------------------------
    def failing(self, family, rows, trows, plain, todo):
        """The rows of ``todo`` with a failing partner, as (p, x, line,
        [(mask of partners, op), ...], mask of all failing partners), x
        None for a pair row: pair rows first, then triple rows in (p, x)
        order, each judged by its row's ``program`` of the family's layer,
        compiled on its first read, against the rows as they stand
        (``plain``, the plain fixpoint's (rows, trows), matches the rooted
        layer's steps).  A partner fails by the first op it does not pass,
        and a row stops once no partner is left.  Nothing but a row's
        program and the arena's memo is written, so a caller may stop early."""
        rooted = plain is not None
        pairs, triples, compile_pair, compile_triple = self.program(
            family, None if trows is None else tuple(trows), rooted)
        mrows, mtrows = plain if rooted else (rows, trows)
        pred, rweak, memo = self.pred, self.rweak, self._memo
        lines = [(x, trows[x], mtrows[x], progs) for x, progs in (triples or {}).items()]
        jobs = [(p, None, rows, mrows, pairs) for p in todo if rows[p]] + [
            (p, x, line, mline, progs) for p in todo for x, line, mline, progs in lines if line[p]]
        for p, x, line, mline, progs in jobs:
            prog = progs[p]
            if prog is None:   # not a truthiness test: a row may compile to ()
                prog = progs[p] = (compile_pair(self, p) if x is None
                                   else compile_triple(self, p, x))
            live = alive = line[p]
            fails = []
            for op in prog:
                kind, a, b, _ = op
                if kind <= _STRONG_LINE:   # a step, through the memo as _pre and _reaching
                    t = mline[b] if kind & 1 else mrows[b]
                    ok = memo.get((a, t))
                    if ok is None:
                        ok = memo[a, t] = _gather(pred[a], t)
                    if kind <= _WEAK_TAU:
                        if kind == _WEAK_TAU:
                            ok |= t
                        ok &= alive
                        got = memo.get(ok)
                        if got is None:
                            got = memo[ok] = _gather(rweak, ok)
                        ok = got
                elif kind == _CONST:
                    ok = a
                elif kind == _TRIPLE:
                    ok = trows[a][p]
                elif kind == _TPATH:
                    ok = self._tpath(alive, alive if a is None else a, line[b])
                elif kind == _ROW:
                    ok = rows[p] if rooted else self._reaching(rows[p])
                elif kind == _CONCRETE:
                    ok = self._reaching(self._pre(TIMEOUT, line[b]))
                elif kind == _FUSED:
                    ok = self._pre(a, self._pre(TIMEOUT, mrows[b]))
                else:   # a time-out under a
                    target = mtrows[a][b] if kind == _GPATH else self._unwrap(a, mrows[b])
                    if rooted:
                        ok = self._pre(TIMEOUT, target)
                    else:
                        ok = self._gpath(a, trows[a][p] if kind == _GPATH
                                         else self._unwrap(a, rows[p]), target)
                bad = live & ~ok
                if bad:
                    fails.append((bad, op))
                    live ^= bad
                    if not live:
                        break
            if fails:
                yield p, x, line, fails, alive ^ live

    def fixpoint(self, store: RelationStore, family: str) -> Tuple[int, int]:
        """Delete failing entries from the store's rows in synchronous rounds.

        As in a per-entry deletion in sorted order, every row is judged
        (``failing``) against the rows the round started with before any
        entry dies, so the rounds, and the ranks and refutation records read
        off ``store.row_kills``, come out the same.  A round then leaves
        S & ~D & ~D^T, whatever the order: each bad row drops its own dead
        partners D[p], and the rows sharing one line and one dead mask are
        cleared from each of those partners' rows at once.  Only the states
        seeded with an entry are judged (two in a rooted layer), and again
        only when a row they read has changed: their own, a successor's or,
        for ``tob``, that of a t-successor's wrapper.  A
        triple row counts once per declared mask of its class in the
        entries checked.  ``family`` names the clause program, and a rooted
        layer's steps are matched in the rows of its ``store.plain``.
        Every round reads the arena's one mask memo, so the fixpoints of
        every family and layer on the arena share their pre-images.
        """
        rows, trows, plain = store.rows, store.trows, store.plain
        plain = None if plain is None else (plain.rows, plain.trows)
        lines = list(trows.values()) if trows else []
        weight = self.class_size
        alive = _count(rows) + weight * sum(_count(line) for line in lines)
        iterations = checked = 0
        seeded = todo = [p for p, held in enumerate(zip(rows, *lines)) if any(held)]
        while True:
            iterations += 1
            checked += alive
            bad = list(self.failing(family, rows, trows, plain, todo))
            if not bad:
                return iterations, checked
            changed = 0
            groups = {}   # (x, dead mask) -> [line, rows killing it]
            kills = store.row_kills
            for p, x, line, fails, dead in bad:
                kills.append((iterations, (p,) if x is None else (p, x), fails))
                line[p] ^= dead   # the row holds every partner it failed
                groups.setdefault((x, dead), [line, 0])[1] |= 1 << p
            for (x, dead), (line, ps) in groups.items():
                w = 1 if x is None else weight
                changed |= dead | ps
                alive -= w * dead.bit_count() * ps.bit_count()
                for q in _bits(dead):
                    gone = line[q] & ps
                    if gone:
                        line[q] ^= gone
                        alive -= w * gone.bit_count()
            deps = self.deps
            todo = [p for p in seeded if deps[p] & changed]


class ThetaArena(Arena):
    """Arena augmented with environment-wrapped copies of its states, for ``tob``.

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

    Before the wrappers are built, the states they can add are counted
    against the pair budget; their move tables are then appended to the
    base states'.  It adds the wrappers alone: their construction, ``wrap``
    and its inverse (``_unwrap``); ``Arena`` seeds and describes them.
    """

    def __init__(self, l1, l2=None, sigma=()):
        super().__init__(l1, l2, sigma)
        self.tables()
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
        self._build_tables(base)

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

    def _engine_tables(self):
        """The tables of ``Arena``, one inverse of ``wrap`` per effective
        mask, mapping each wrapper to the states that wrap onto it, and the
        wrappers of a state's t-successors among its dependencies."""
        super()._engine_tables()
        # unwrapped[x][w]: the states whose wrapper under x is w
        self.unwrapped = {x: [0] * self.n for x in self.xmasks}
        for x, inverse in self.unwrapped.items():
            for s in range(self.n):
                inverse[self.wrap(x, s)] |= 1 << s
        idle, tpred = self._idle_masks(), self.pred[TIMEOUT]
        for (x, s), w in self.wrapped.items():
            for p in _bits(tpred[s] & idle[x]):
                self.deps[p] |= 1 << w

    def _unwrap(self, x, mask: int) -> int:
        """The states whose wrapper under x lies in ``mask``."""
        key = ("u", x, mask)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = _gather(self.unwrapped[x], mask)
        return got


# ---------------------------------------------------------------------------
# Relation stores and verdicts


class RelationStore:
    """Symmetric store of pairs and environment triples with refutation records.

    The entries live in bit-mask rows alone: bit q of ``rows[p]`` is set iff
    the pair (p, q) is alive, and bit q of ``trows[x][p]`` iff the triple
    (p, x, q) is; ``trows`` is None for a store of pairs only.  The row
    engine keys triple rows by effective mask (``Arena.xmasks``), each
    standing for every declared mask of its class; ``make_store`` keys them
    by every declared mask.  ``pairs`` and ``triples`` are read-only sets
    built from the rows on each read, whose triples name declared masks, and
    a triple query maps its mask through X & V where rows are keyed by
    effective masks.

    The row engine logs its deletions in ``row_kills`` as (round, row key,
    [(mask of q, op), ...]), where the row key is (p,) or (p, x), one line
    per killed row, and op is the clause program's op q failed by.  That
    log is the one record of a fixpoint's deletions, and ``lookup`` reads
    an entry off it.  ``iterations`` and ``checked`` count the fixpoint's rounds and
    entry checks.

    A plain store of the row engine is kept in its pair context and shared
    by every later check of the same pair of systems: the verdict of that
    family, the rooted layer over it, ``modal.distinguish``.  Treat the rows
    of a store as read-only; only ``Arena.fixpoint`` writes them.

    A rooted layer holds the queried entry alone over its ``plain`` store,
    on the same arena.
    """

    def __init__(self, arena: Arena, relation: str, rows: List[int],
                 trows: Optional[Dict[int, List[int]]] = None):
        self.arena = arena
        self.relation = relation
        self.rows = rows
        self.trows = trows
        self._log: Optional[Dict[tuple, list]] = None
        self.row_kills: List[Tuple[int, tuple, list]] = []
        self.iterations = self.checked = 0
        self.plain: Optional["RelationStore"] = None

    @property
    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        return frozenset((p, q) for p, row in enumerate(self.rows) for q in _bits(row))

    @property
    def triples(self) -> FrozenSet[Tuple[int, int, int]]:
        """(p, declared mask, q) for every triple, a row keyed by an
        effective mask standing for each declared mask of its class."""
        if self.trows is None:
            return frozenset()
        unused = (0,) if self._by_declared else self.arena.unused_masks
        return frozenset((p, x | u, q) for x, line in self.trows.items()
                         for p, row in enumerate(line) for q in _bits(row) for u in unused)

    @property
    def _by_declared(self) -> bool:
        """Whether the triple rows are keyed by every declared mask; where
        every declared mask is effective, both keyings are the same."""
        return len(self.trows) == self.arena.full_mask + 1

    def _line(self, xmask: int) -> List[int]:
        """The triple rows under a declared mask."""
        got = self.trows.get(xmask)
        return self.trows[xmask & self.arena.vmask] if got is None else got

    @property
    def has_triples(self) -> bool:
        """Whether any triple is stored, without listing the masks."""
        return self.trows is not None and any(any(line) for line in self.trows.values())

    def lookup(self, entry) -> Tuple[Optional[int], Optional[tuple]]:
        """(round, why) of a pair or of a triple under any declared mask:
        the round that deleted it, in either orientation, and ``Arena.why``
        of the op it failed by its own check, new on each call, or None where
        it died only as its mirror did.  Read off the row log, indexed by row
        key on first use: p's row, or else q's, whose masks hold the partner."""
        if self._log is None:
            self._log = {}
            for rnd, key, fails in self.row_kills:
                self._log.setdefault(key, []).append((rnd, fails))
        p, q = entry[0], entry[-1]
        env = (entry[1] & self.arena.tables().vmask,) if len(entry) == 3 else ()
        for row, partner in ((p, q), (q, p)):
            for rnd, fails in self._log.get((row,) + env, ()):
                for mask, op in fails:
                    if mask >> partner & 1:
                        return rnd, self.arena.why(op) if row == p else None
        return None, None

    def has_pair(self, i, j) -> bool:
        return bool(self.rows[i] >> j & 1)

    def has_triple(self, i, xmask, j) -> bool:
        return self.trows is not None and bool(self._line(xmask)[i] >> j & 1)

    @property
    def size(self) -> int:
        """Entries as the sets count them: a triple row once per declared mask."""
        if self.trows is None:
            return _count(self.rows)
        weight = 1 if self._by_declared else self.arena.class_size
        return _count(self.rows) + weight * sum(_count(line) for line in self.trows.values())


@dataclass
class Verdict:
    """Outcome of an equivalence check with either a witness or refutations.

    The witness of a row-engine family is shared with later checks of the
    same pair of systems (its plain store, or the plain store under a rooted
    one), so callers must treat its rows as read-only.
    """

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


def _refutation_records(store: RelationStore, entries,
                        xmask: Optional[int] = None) -> List[dict]:
    """The records of the entries that failed by their own check; a record's
    ``env`` names a triple's mask, or ``xmask``, the queried set of a
    wrapped pair, as given."""
    arena = store.arena
    out = []
    for entry in entries:
        why = store.lookup(entry)[1]
        if why is None:
            continue
        i, x, j = entry if len(entry) == 3 else (entry[0], xmask, entry[1])
        env = None if x is None else sorted(arena.mask_names(x))
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


def _count(rows: List[int]) -> int:
    return sum(map(int.bit_count, rows))


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
    """Whether q's row holds p wherever p's holds q: judged once per distinct
    row, whose states ps every partner's row must hold."""
    groups: Dict[int, int] = {}
    for p, row in enumerate(rows):
        if row:
            groups[row] = groups.get(row, 0) | 1 << p
    return all(rows[q] & ps == ps for row, ps in groups.items() for q in _bits(row))


# ---------------------------------------------------------------------------
# Drivers


def _refuse_encoded(family: str, *systems):
    """Only ``strong`` and ``tb`` read an encoding; every other relation
    refuses systems, or an arena, with a move by one of its labels."""
    if family not in ANY_LABELS and any(s.encoded for s in systems):
        raise LabelUniverseMismatch("reactive checkers take base systems, not encoded ones")


def _budget_check(n_states: int, n_masks: int):
    """Refuse a store of n_states^2 pairs, each under n_masks effective masks."""
    if n_states * n_states * n_masks > TRIPLE_BUDGET:
        raise StateBudgetExceeded(n_states * n_states * n_masks, TRIPLE_BUDGET)


class _PairContext:
    """What the checks of one pair of systems share: their arena of one kind
    over one alphabet, whose engine tables and clause programs the first
    fixpoint of each layer builds, and the plain store of each (family, p,
    q), kept once its fixpoint is done: ``brb`` and ``brbX`` read one.  It
    exists only for inputs ``_query`` let through, over an arena built.

    Nothing in it refers to the systems, and the arena refers to no store,
    so reference counting frees the context with the systems, without the
    cycle collector.
    """

    __slots__ = ("arena", "stores")

    def __init__(self, arena: Arena):
        self.arena = arena
        self.stores: Dict[Tuple[str, int, int], RelationStore] = {}


# l1 -> l2 -> {(arena kind, alphabet): context}, the systems held weakly
_CONTEXTS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _context(kind: type, l1: Lts, l2: Lts, sigma: Iterable[str]) -> _PairContext:
    """The pair context of ``l1`` and ``l2`` for an arena of ``kind`` over
    ``sigma``, widened by the systems' alphabets as the arena widens it; the
    arena is built on the first call, and kept only once it is built, so a
    refused one (a ``ThetaArena`` over budget) leaves nothing behind."""
    sig = frozenset(sigma).union(l1.sigma, l2.sigma)
    ctx = _CONTEXTS.get(l1, {}).get(l2, {}).get((kind, sig))
    if ctx is None:
        ctx = _PairContext(kind(l1, None if l2 is l1 else l2, sig))
        _CONTEXTS.setdefault(l1, weakref.WeakKeyDictionary()).setdefault(l2, {})[kind, sig] = ctx
    return ctx


def _row_fixpoints(ctx: _PairContext, p: int, q: int, family: str, relation: str,
                   rooted: bool, root: Optional[Tuple[int, int]] = None) -> RelationStore:
    """The plain fixpoint of a family on the context's arena, looked up
    first and run only where the context holds none yet, seeded over the
    side states of p and q, walked then and counted against the budget;
    with ``rooted``, the rooted layer over it (its ``plain`` is the plain
    store), whose ``iterations`` and ``checked`` add its own to the plain
    ones.  Every refusal of the input was made by ``_query``.

    The rooted layer is seeded with the queried entry alone, ``root`` (p and
    q's global index unless given) and, for the triple families, it under
    every effective mask, with the same survival, round and first failing
    clause as under a seed of every pair of side states: a rooted op reads
    the plain rows or the judged row's own rooted rows (``_ROW``,
    ``_TRIPLE``), never its other partners (``alive``), while ``_TPATH``
    and ``_CONCRETE`` occur in plain layers alone.  So (a, X, b) passes a
    round by the plain store and the entries (a, Y, b) alone, and dies with
    (b, X, a): the seeded entries decide one another."""
    arena = ctx.arena.tables()
    with_triples = family not in PAIR_FAMILIES
    plain = ctx.stores.get((family, p, q))
    if plain is None:
        lefts, rights = arena.side_states(p), arena.side_states(arena.state2(q))
        _budget_check(len(lefts) + len(rights),
                      1 << arena.vmask.bit_count() if with_triples else 1)
        plain = arena.seeded(family, lefts, rights, with_triples)
        plain.iterations, plain.checked = arena.fixpoint(plain, family)
        ctx.stores[family, p, q] = plain
    if not rooted:
        return plain
    a, b = root or (p, arena.state2(q))
    store = arena.seeded(relation + "-rooted", (a,), (b,), with_triples)
    store.plain = plain
    rounds, checked = arena.fixpoint(store, family)
    store.iterations, store.checked = rounds + plain.iterations, checked + plain.checked
    return store


def _query(family: str, l1: Lts, p: int, l2: Lts, q: int, sigma: Iterable[str],
           env: Optional[Iterable[str]]) -> Tuple[_PairContext, tuple, Optional[int]]:
    """The front half of every checker (``_check``, ``strong_bisim``) and of
    ``modal.distinguish``.  It makes every refusal of the input before any
    pair context exists, in this order: a state outside its system, a
    reserved name in ``env``, distinct label universes (``ANY_LABELS``), a
    reserved name in ``sigma`` and an encoded system (every other family).
    It then takes the context of the family's arena over ``sigma`` and reads
    the queried entry off it, as (context, the pair, the triple (p, X, q) or
    for ``tob`` the wrapped pair, X the declared mask of ``env`` or None)."""
    _refuse_states(l1, p, l2, q)
    if env is not None:
        env = visible_alphabet(env, "an environment set")
    sigma = frozenset(sigma)
    if family in ANY_LABELS:
        _same_labels(l1, l2, sigma)
    sigma = visible_alphabet(sigma)
    _refuse_encoded(family, l1, l2)
    ctx = _context(ThetaArena if family == "tob" else Arena, l1, l2, sigma)
    arena = ctx.arena
    gq = arena.state2(q)
    if env is None:
        return ctx, (p, gq), None
    x = arena.mask_of(env)
    return ctx, (arena.wrap(x, p), arena.wrap(x, gq)) if family == "tob" else (p, x, gq), x


def _check(family: str, relation: str, l1: Lts, p: int, l2: Lts, q: int,
           rooted: bool, sigma: Iterable[str] = (), env=None) -> Verdict:
    """Take the queried entry from ``_query``, run the fixpoints and judge
    that entry, under the queried relation's name."""
    ctx, entry, x = _query(family, l1, p, l2, q, sigma, env)
    store = _row_fixpoints(ctx, p, q, family, relation, rooted, (entry[0], entry[-1]))
    alive = store.has_pair(*entry) if len(entry) == 2 else store.has_triple(*entry)
    return Verdict(relation + "-rooted" if rooted else relation, alive, ctx.arena.sigma,
                   store.iterations, store.checked,
                   [] if alive else _refutation_records(store, [entry, entry[::-1]], x),
                   store if alive else None)


def _refuse_states(l1: Lts, p: int, l2: Lts, q: int):
    """Refuse a queried state outside its system."""
    for lts, s in ((l1, p), (l2, q)):
        if not 0 <= s < len(lts):
            raise ValueError(f"state {s!r} out of range for a system of {len(lts)} states")


def _same_labels(l1: Lts, l2: Lts, sigma: FrozenSet[str] = frozenset()):
    """Refuse distinct systems whose label universes, widened by ``sigma``, differ."""
    u1, u2 = l1.labels | sigma, l2.labels | sigma
    if l2 is not l1 and u1 != u2:
        raise LabelUniverseMismatch(f"label universes differ: {sorted(u1)} vs {sorted(u2)}")


def brb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
              sigma: Iterable[str] = ()) -> Verdict:
    """Decide branching reactive bisimilarity of two states (Verdict)."""
    return _check("brb", "brb", l1, p, l2, q, rooted, sigma)


def brb_X_check(l1: Lts, p: int, l2: Lts, q: int, env: Iterable[str],
                sigma: Iterable[str] = (), rooted: bool = False) -> Verdict:
    """Branching X-bisimilarity: the queried entry is the environment triple."""
    return _check("brb", "brbX", l1, p, l2, q, rooted, sigma, env)


def gbrb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
               sigma: Iterable[str] = ()) -> Verdict:
    return _check("gbrb", "gbrb", l1, p, l2, q, rooted, sigma)


def cbrb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
               sigma: Iterable[str] = ()) -> Verdict:
    return _check("cbrb", "cbrb", l1, p, l2, q, rooted, sigma)


def tob_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False,
              sigma: Iterable[str] = (), env: Optional[Iterable[str]] = None) -> Verdict:
    """Branching time-out bisimulation over the theta-augmented state space.

    The relation is exact: the ``ThetaArena`` builds one level of wrappers,
    onto which nested wrappers normalise.  With ``env`` given, the verdict
    reads off the wrapped pair, deciding X-bisimilarity through the
    environment operator (the wrapper of X is that of X & V).
    """
    return _check("tob", "tob", l1, p, l2, q, rooted, sigma, env)


def tb_check(l1: Lts, p: int, l2: Lts, q: int, rooted: bool = False) -> Verdict:
    """t-branching bisimilarity over encoded labels (pairs only), decided by
    the row engine; the rooted layer is one more row pass, over the queried
    pair, against the plain rows.  Over two rooted encodings
    (``encode.RootedEncoding``), both layers judge the plain twins of p and
    q, on the arena ``tb`` builds over the plain twin encodings.  The budget is
    checked first, before any arena, on the states the twins reach in their
    encodings, which are the twins of the side states: a root's twin
    reaches its whole encoding.  Only the roots' twins are read, so neither
    rooted encoding writes its moves.

    The twin map tw sends a rooted-mode state to the plain-mode state with
    the same base and mask, any other to itself.  Write X_s for X ∩ R(s),
    the mask ``encode`` settles s under.  trig_r(s) moves by a or tau to
    trig_r(d) and by eps_X to env_r(X_s, s), as trig(s) to trig(d) and
    env(X_s, s); env_r(X, s) by tau to env_r(X_d, d), by a in X to trig(d)
    and, idle, by t_eps to trig_r(s) and t to env_r(X_d, d), as env(X, s) to
    env(X_d, d), trig(d), trig(s) and env(X_d, d).  Only t_X moves lack a
    twin: trig_r(s) moves by t_X to env(X_d, d) for each time-out d of s
    exactly when env(X_s, s) times out to env(X_d, d) (s has no tau step and
    idles under X, so under X_s), so a t_X step of trig_r(s) is an eps_X
    step then a t step of trig(s).  No plain clause reads t_X (tb1 drops
    it, tb2 reads t alone), so tw maps the moves a plain clause reads label
    by label, and the side states onto the twins'; as a clause reads moves
    and the last round's entries alone, (a, b) survives each plain round
    iff (tw(a), tw(b)) does.  rtb1 matches each first step by the same step into the plain
    rows, in label order, and at tw(a), with eps_X steps and no t_X step,
    reads each eps_X step then t step as a t_X step (``Arena._compile``).
    So each rooted row fails each partner by the same op in the same round:
    the verdicts, rounds, entries checked and records agree, the records
    naming the twins.
    """
    if rooted and all(isinstance(lts, RootedEncoding) for lts in (l1, l2)):
        _refuse_states(l1, p, l2, q)
        _same_labels(l1, l2)   # here, so a mismatch names the rooted encodings' labels
        (l1, p), (l2, q) = [(lts.twin_encoding(), lts.twin(s)) for lts, s in ((l1, p), (l2, q))]
        _budget_check(sum(len(lts) if s == lts.initial else len(reach(
            lambda u: chain.from_iterable(lts.out(u).values()), s))
            for lts, s in ((l1, p), (l2, q))), 1)
    return _check("tb", "tb", l1, p, l2, q, rooted)


def _refine(out: List[Dict[str, Tuple[int, ...]]]):
    """The rounds of ``strong_bisim``'s refinement over the move table
    ``out``: after each round, (the block of every state, the number of
    states the round signed), until a round splits no block, which comes
    last.  Where a block splits, the states with the first signature keep
    its number, and those of each other signature take a new one; where
    some of its states are not signed, one of them is signed first."""
    n = len(out)
    block = [0] * n
    members = [list(range(n))]
    pred: List[List[int]] = [[] for _ in range(n)]
    for s, moves in enumerate(out):
        for ds in moves.values():
            for d in ds:
                pred[d].append(s)

    def signature(s):
        return frozenset([(lab, old[d]) for lab, ds in out[s].items() for d in ds])

    dirty = range(n)
    while True:
        old = block[:]
        touched: Dict[int, List[int]] = {}
        for s in dirty:
            touched.setdefault(old[s], []).append(s)
        signed = 0
        split: List[int] = []   # the states of every block that splits
        for b, states in touched.items():
            mem = members[b]
            if len(mem) == 1:
                continue
            if len(states) < len(mem):   # the others share one signature: sign one, first
                states.insert(0, next(s for s in mem if s not in dirty))
            groups: Dict[frozenset, List[int]] = {}
            for s in states:
                groups.setdefault(signature(s), []).append(s)
            signed += len(states)
            if len(groups) > 1:
                del groups[next(iter(groups))]   # the first signature's states stay
                for moved in groups.values():
                    members.append(moved)
                    for s in moved:
                        block[s] = len(members) - 1
                members[b] = [s for s in mem if block[s] == b]
                split += mem
        yield block, signed
        if not split:
            return
        dirty = {u for s in split for u in pred[s]}


def strong_bisim(l1: Lts, p: int, l2: Lts, q: int, sigma: Iterable[str] = ()) -> Verdict:
    """Strong bisimilarity by signature refinement on the disjoint union,
    from the front half the other checkers share (``_query``).

    Blocks start as one.  A state's signature is the set of (label, block
    of target) over its moves in ``Arena.out``, and each round splits the
    blocks by the signatures of their states, until a round splits none
    (``_refine``).  The rounds are synchronous: each signs against a
    snapshot of the blocks the round before left, so each leaves the
    partition that signing every state would, in as many rounds.  Yet
    round k signs only the states with a successor whose block split in
    round k-1 (every state in round 1), and splits only the blocks that
    hold such a state.  For a block none of whose states has such a
    successor does not split in round k: round k-1 kept its states
    together, so their signatures against the blocks of round k-2 were
    equal, and round k-1 changed no block their moves lead into, so their
    signatures are equal again.  By the same argument the states of a
    block that have no such successor keep one signature, so one of them
    is signed for all.  ``entries_checked`` counts every state in every
    round, as each round decides every state.

    Only the move table is read, so the arena, taken from the pair context
    the other checkers share, builds none of its tables for it.  An
    equivalence's witness pairs each state reachable on the left with the
    states reachable on the right in its block, both orientations.
    ``sigma`` widens the visible alphabet of both systems, as it does for
    every other checker: it shows in the reported ``sigma`` and in the
    label universes compared.
    """
    ctx, (p, gq), _ = _query("strong", l1, p, l2, q, sigma, None)
    arena = ctx.arena
    iterations = 0
    for block, _ in _refine(arena.out):
        iterations += 1
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
    rows = [0] * arena.n
    for i in arena.reach(p):
        for j in members.get(block[i], ()):
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    store = RelationStore(arena, "strong", rows)
    store.iterations, store.checked = iterations, checked
    return Verdict("strong", True, arena.sigma, iterations, checked, [], store)


# ---------------------------------------------------------------------------
# Revalidation


def revalidate(witness: RelationStore, definition_id: str) -> bool:
    """Re-check every clause on every stored entry in one pass; a ``brbX``
    witness is a ``brb`` store."""
    rooted = definition_id.endswith("-rooted")
    base = definition_id[:-len("-rooted")] if rooted else definition_id
    base = "brb" if base == "brbX" else base
    if base in FAMILIES:
        return _revalidate_rows(witness, base, rooted)
    if definition_id != "strong":
        raise FragmentUnsupported(f"no revalidation for definition {definition_id!r}")
    if witness.has_triples:
        return False
    # symmetric, and every move of p is matched by a move of each partner q
    # under the same label into a pair: over the moves ``strong_bisim`` reads
    rows, out = witness.rows, witness.arena.out
    if not _symmetric(rows):
        return False
    for p, row in enumerate(rows):
        for q in _bits(row):
            qmoves = out[q]
            for lab, ds in out[p].items():
                targets = 0
                for t in qmoves.get(lab, ()):
                    targets |= 1 << t
                for d in ds:
                    if not rows[d] & targets:
                        return False
    return True


def _revalidate_rows(witness: RelationStore, family: str, rooted: bool) -> bool:
    """Whether a symmetric witness (pairs only for tob and tb) passes every
    clause: one judging round of ``Arena.failing`` over its own rows, which
    writes nothing and stops at the first failing row.  A rooted witness's
    plain store is judged and then its rooted layer, each on its own
    store's arena, and only a ``ThetaArena`` holds a ``tob`` witness.
    Triple rows are judged under the keys of the more finely keyed layer,
    declared masks if either layer has them, and a store of pairs only as
    having no triples."""
    arena = witness.arena
    _refuse_encoded(family, arena)
    if rooted and witness.plain is None:
        return False
    if family == "tob" and not isinstance(arena, ThetaArena):
        return False   # tob's clauses read the wrappers of a ThetaArena
    layers = (witness.plain, witness) if rooted else (witness,)
    with_triples = family not in PAIR_FAMILIES
    if not with_triples and any(st.has_triples for st in layers):
        return False
    lines = [None] * len(layers)
    if with_triples:
        keys = max([arena.xmasks, *(st.trows or () for st in layers)], key=len)
        none = [0] * arena.n
        lines = [{x: st._line(x) if st.trows else none for x in keys} for st in layers]
    plain = None
    for st, trows in zip(layers, lines):
        if not all(_symmetric(line) for line in [st.rows, *(trows or {}).values()]):
            return False
        if next(st.arena.failing(family, st.rows, trows, plain, range(st.arena.n)), None):
            return False
        plain = st.rows, trows
    return True


def make_store(l1: Lts, l2: Optional[Lts], relation: str,
               pairs: Iterable[Tuple[int, int]] = (),
               triples: Iterable[Tuple[int, Iterable[str], int]] = (),
               sigma: Iterable[str] = ()) -> RelationStore:
    """Build a store from explicit entries (symmetric closure is applied).

    Pair and triple entries name states of the first and second system by
    their own indices; the second system's indices are shifted internally.
    An entry naming a state outside its system is refused with a
    ``ValueError`` before any row is written.
    Given triples, the store keys its triple rows by every declared mask,
    counted against the budget before they are allocated: queries and
    ``revalidate`` read each triple under its own mask.  Without triples it
    holds pairs only.  A ``tob`` store lives on the ``ThetaArena`` its
    relation is defined over.
    """
    pairs, triples = list(pairs), list(triples)
    n1, n2 = len(l1), len(l1 if l2 is None else l2)
    for entry in pairs + triples:
        if not (0 <= entry[0] < n1 and 0 <= entry[-1] < n2):
            raise ValueError(f"store entry {entry!r} out of range")
    kind = ThetaArena if relation in ("tob", "tob-rooted") else Arena
    arena = kind(l1, None if l2 is l1 or l2 is None else l2, sigma)
    n = arena.n
    _budget_check(n, arena.full_mask + 1 if triples else 1)
    rows = [0] * n
    trows = {x: [0] * n for x in range(arena.full_mask + 1)} if triples else None
    for i, j in pairs:
        gj = arena.state2(j)
        rows[i] |= 1 << gj
        rows[gj] |= 1 << i
    for i, env, j in triples:
        line = trows[arena.mask_of(env)]
        gj = arena.state2(j)
        line[i] |= 1 << gj
        line[gj] |= 1 << i
    return RelationStore(arena, relation, rows, trows)
