"""Reactive Hennessy-Milner logic: formulas, satisfaction, fragments,
and distinguishing-formula synthesis.

Formulas share the node base of terms (``terms.Node``): each class is a
frozen dataclass declared with ``terms._node``, and its recorded fields give
its structural key (``Node._make_key``), so equality and hashing need no
per-class code.

Satisfaction is evaluated either in a triggered environment (``env=None``)
or under a set Y of currently allowed visible actions.  The two branching
fragments are ``Lb`` (weak observations built from stuttering steps,
environment-indexed time-out paths, and stability) and ``Lbr`` (a strong
first observation whose continuation lives in ``Lb``).

``distinguish`` builds a formula of either fragment from the rounds in
which the ``gbrb`` fixpoint (for ``Lbr`` also its rooted layer) killed
entries: each failing clause maps to one modality over the formulas of
entries killed earlier, and an entry that died only because its mirror did
gets the negation of the mirror's formula.  One builder serves pairs and
triples, plain and rooted clauses.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from . import bisim as _bisim
from .errors import FragmentUnsupported
from .semantics import TAU, TIMEOUT, Lts, reach, stable_reachable, visible_alphabet, weak_reach
from .terms import Node, _node


class Formula(Node):
    """Base class of the formulas; the fields annotated ``Formula`` are the
    sub-formulas.  Equality and hashing read the structural key of
    ``terms.Node``: the class name, the own fields (actions, action sets as
    sorted tuples, ``And.parts`` as the tuple of their keys), then the keys
    of the sub-formulas.  A formula never equals a term.
    """

    __slots__ = ()

    def __repr__(self):
        return f"<Formula {self}>"


@_node
class Top(Formula):
    pass


@_node
class And(Formula):
    parts: tuple


@_node
class Not(Formula):
    sub: Formula


@_node
class Diamond(Formula):
    action: str
    sub: Formula


@_node
class EnvBox(Formula):
    """An idling period under an environment allowing exactly the given set."""

    allowed: frozenset
    sub: Formula


# Derived modalities.

@_node
class Eps(Formula):
    sub: Formula


@_node
class HatDiamond(Formula):
    action: str
    sub: Formula


@_node
class TimeoutDiamond(Formula):
    allowed: frozenset
    sub: Formula


@_node
class EpsX(Formula):
    """left <eps_X> right: a time-out path under X whose stations satisfy left."""

    left: Formula
    allowed: frozenset
    right: Formula


@_node
class EpsStep(Formula):
    """eps(left <a^> right): reach a state satisfying left that steps into right."""

    left: Formula
    action: str
    right: Formula


@_node
class Stable(Formula):
    pass


def conj(parts: Iterable[Formula]) -> Formula:
    items = tuple(dict.fromkeys(p for p in parts if not isinstance(p, Top)))
    if not items:
        return Top()
    if len(items) == 1:
        return items[0]
    return And(items)


# ---------------------------------------------------------------------------
# Fragments


def in_fragment(f: Formula, which: str) -> bool:
    """Grammar membership for the branching fragments ``Lb`` and ``Lbr``."""
    if which not in ("Lb", "Lbr"):
        raise FragmentUnsupported(f"unknown fragment {which!r}")
    if isinstance(f, Top):
        return True
    if isinstance(f, And):
        return all(in_fragment(p, which) for p in f.parts)
    if isinstance(f, Not):
        return in_fragment(f.sub, which)
    if which == "Lb":
        if isinstance(f, Stable):
            return True
        if isinstance(f, EpsStep):
            return (f.action != TIMEOUT
                    and in_fragment(f.left, "Lb") and in_fragment(f.right, "Lb"))
        if isinstance(f, EpsX):
            return in_fragment(f.left, "Lb") and in_fragment(f.right, "Lb")
        return False
    if isinstance(f, Diamond):
        return f.action != TIMEOUT and in_fragment(f.sub, "Lb")
    if isinstance(f, TimeoutDiamond):
        return in_fragment(f.sub, "Lb")
    return False


# ---------------------------------------------------------------------------
# Satisfaction


class Evaluator:
    """Memoising satisfaction checker for one LTS."""

    def __init__(self, lts: Lts):
        self.lts = lts
        self.weak = weak_reach(lts)
        self._memo: Dict[tuple, bool] = {}
        self._pin: Dict[int, Formula] = {}  # memo keys use id(); keep them alive

    def sat(self, s: int, f: Formula, env: Optional[frozenset] = None) -> bool:
        self._pin.setdefault(id(f), f)
        key = (s, env, id(f))
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        val = self._eval(s, f, env)
        self._memo[key] = val
        return val

    def _eval(self, s, f, env) -> bool:
        lts = self.lts
        if isinstance(f, Top):
            return True
        if isinstance(f, And):
            return all(self.sat(s, p, env) for p in f.parts)
        if isinstance(f, Not):
            return not self.sat(s, f.sub, env)
        if isinstance(f, Diamond):
            a = f.action
            if a == TAU or a == TIMEOUT:
                return any(self.sat(d, f.sub, env) for d in lts.succ(s, a))
            # a visible action under an environment needs permission or idling
            # and triggers the environment; triggered stays triggered
            if env is not None and a not in env and not lts.idle(s, env):
                return False
            return any(self.sat(d, f.sub, None) for d in lts.succ(s, a))
        if isinstance(f, HatDiamond):
            if f.action == TAU and self.sat(s, f.sub, env):
                return True
            return self.sat(s, Diamond(f.action, f.sub), env)
        if isinstance(f, EnvBox):
            x = f.allowed
            gate = x if env is None else (x | env)
            return lts.idle(s, gate) and self.sat(s, f.sub, x)
        if isinstance(f, TimeoutDiamond):
            x = f.allowed
            gate = x if env is None else (x | env)
            return lts.idle(s, gate) and any(
                self.sat(d, f.sub, x) for d in lts.succ(s, TIMEOUT))
        if isinstance(f, Eps):
            return any(self.sat(u, f.sub, env) for u in self.weak[s])
        if isinstance(f, EpsStep):
            inner = And((f.left, HatDiamond(f.action, f.right)))
            return any(self.sat(u, inner, env) for u in self.weak[s])
        if isinstance(f, Stable):
            return stable_reachable(lts, s)
        if isinstance(f, EpsX):
            return self._eps_x(s, f, env)
        raise TypeError(f"not a formula: {f!r}")

    def _eps_x(self, s, f: EpsX, env) -> bool:
        """A time-out path under x from ``s``: from a station, an x-idle
        state it weakly reaches satisfies left, and it satisfies right or
        times out into right or into a next station satisfying left.  The
        states reached from ``s`` itself must idle under env too; ``s`` is
        never marked seen, so a time-out cycle back to it explores it again
        under x alone."""
        lts = self.lts
        x = f.allowed
        gate = x if env is None else x | env
        stack, seen = [s], set()
        while stack:
            for s1 in self.weak[stack.pop()]:
                if not lts.idle(s1, gate) or not self.sat(s1, f.left, x):
                    continue
                if self.sat(s1, f.right, x):
                    return True
                for s2 in lts.succ(s1, TIMEOUT):
                    if self.sat(s2, f.right, x):
                        return True
                    if s2 not in seen and self.sat(s2, f.left, x):
                        seen.add(s2)
                        stack.append(s2)
            gate = x
        return False


def sat(lts: Lts, s: int, f: Formula) -> bool:
    """Satisfaction in a triggered environment."""
    return Evaluator(lts).sat(s, f, None)


def sat_env(lts: Lts, s: int, allowed: Iterable[str], f: Formula) -> bool:
    """Satisfaction while the environment allows exactly the given actions;
    a reserved name among them raises ``LabelUniverseMismatch``."""
    return Evaluator(lts).sat(s, f, visible_alphabet(allowed, "an environment set"))


# ---------------------------------------------------------------------------
# Formula enumeration (for the characterisation tests)


def enumerate_fragment(sigma: Iterable[str], max_size: int,
                       which: str = "Lb") -> List[Formula]:
    """All fragment formulas up to ``max_size`` nodes, structurally deduplicated."""
    sigma = sorted(set(sigma))
    subsets = [frozenset()]
    for a in sigma:
        subsets += [x | {a} for x in subsets]
    actions = sigma + [TAU]
    by_size: Dict[int, List[Formula]] = {n: [] for n in range(max_size + 1)}
    seen = set()

    def add(n, f):
        if f not in seen:
            seen.add(f)
            by_size[n].append(f)

    if max_size >= 1:
        add(1, Top())
        add(1, Stable())
    for n in range(2, max_size + 1):
        for f in by_size[n - 1]:
            add(n, Not(f))
        for n1 in range(1, n - 1):
            for f in by_size[n1]:
                for g in by_size[n - 1 - n1]:
                    add(n, conj((f, g)) if which == "Lb" else And((f, g)))
        for n1 in range(1, n - 1):
            for f in by_size[n1]:
                for g in by_size[n - 1 - n1]:
                    for a in actions:
                        add(n, EpsStep(f, a, g))
                    for x in subsets:
                        add(n, EpsX(f, x, g))
    lb = [f for size in by_size.values() for f in size]
    if which == "Lb":
        return lb
    # Lbr: strong first step over Lb continuations, each formula kept once
    out = dict.fromkeys([Top()])
    for f in lb:
        for a in actions:
            out.setdefault(Diamond(a, f))
        for x in subsets:
            out.setdefault(TimeoutDiamond(x, f))
    for f in list(out):
        out.setdefault(Not(f))
    return list(out)


# ---------------------------------------------------------------------------
# Distinguishing formulas


class _Builder:
    """Extracts distinguishing formulas from the refutation ranks of a fixpoint.

    An entry is a pair (p, q) or a triple (p, x, q).  An entry deleted at
    round k failed its clause against the relation that survived round k-1,
    so the formula for it only needs formulas of entries that died strictly
    earlier; the recursion is well-founded on ranks.  An entry that died only
    by symmetry gets the negation of its mirror's formula.

    The builder reads the store's arena, and a rooted store's builder holds
    the builder of its ``plain`` store as ``plain``: a rooted clause
    (r1a-r2c) is one strong step by its action, tau or t, continued by plain
    formulas.  Plain and rooted clause names never overlap, so one dispatch
    serves both.  A rooted clause reads plain entries alone, so the rooted
    store is read only at the queried entry and its mirror, the entries a
    rooted layer is seeded with.
    """

    def __init__(self, store: "_bisim.RelationStore"):
        self.a = store.arena
        self.st = store
        self.plain = None if store.plain is None else _Builder(store.plain)
        self.memo: Dict[tuple, Formula] = {}
        self._ttreach: Dict[int, Tuple[int, ...]] = {}

    def ttreach(self, q) -> Tuple[int, ...]:
        got = self._ttreach.get(q)
        if got is None:
            a = self.a
            got = self._ttreach[q] = reach(lambda u: a.tau_succ[u] + a.t_succ[u], q)
        return got

    def entry(self, e: tuple) -> Formula:
        got = self.memo.get(e)
        if got is None:
            rank, why = self.st.lookup(e)
            got = (Not(self.entry(e[::-1])) if why is None
                   else self._formula(e, why, rank))
            self.memo[e] = got
        return got

    def _dead(self, entries, k=None) -> Formula:
        """The conjunction of the formulas of those entries that died before
        round k (in any round when k is None)."""
        parts = []
        for e in entries:
            rank = self.st.lookup(e)[0]
            if rank is not None and (k is None or rank < k):
                parts.append(self.entry(e))
        return conj(parts)

    def _formula(self, e, why, k) -> Formula:
        a = self.a
        clause, info = why
        p, env, q = e[0], e[1:-1], e[-1]
        p2 = info.get("derivative")
        if clause in ("1a", "2a", "2b"):
            # 2a is a tau step that stays under x; 1a and 2b land in the
            # pairs.  A tau step may be matched by staying put.
            lab = info.get("action", TAU)
            cont = env if clause == "2a" else ()
            left = self._dead([(p,) + env + (q1,) for q1 in a.weak[q]], k)
            right = self._dead([(p2,) + cont + (q2,) for q1 in a.weak[q]
                                for q2 in a.out[q1].get(lab, ()) + (q1,) * (lab == TAU)], k)
            return EpsStep(left, lab, right)
        if clause in ("1b", "2c"):
            x = info["env"]
            dom = self.ttreach(q)
            return EpsX(self._dead([(p, x, u) for u in dom], k),
                        frozenset(a.mask_names(x)),
                        self._dead([(p2, x, u) for u in dom], k))
        if clause in ("1c", "2d-stable"):
            return Stable()
        if clause in ("r1a", "r2a", "r2b", "r1b", "r2c"):
            # r2a stays under the triple's mask, and a time-out carries its own
            x = info.get("env")
            lab = info.get("action", TAU) if x is None else TIMEOUT
            cont = (x,) if x is not None else env if clause == "r2a" else ()
            dead = self.plain._dead([(p2,) + cont + (q2,) for q2 in a.out[q].get(lab, ())])
            return (Diamond(lab, dead) if x is None
                    else TimeoutDiamond(frozenset(a.mask_names(x)), dead))
        raise FragmentUnsupported(f"no construction for clause {clause}")


def distinguish(l1: Lts, p: int, l2: Lts, q: int, fragment: str = "Lb",
                env: Optional[Iterable[str]] = None,
                sigma: Iterable[str] = ()) -> Optional[Formula]:
    """A fragment formula telling the two states apart, or None when equivalent.

    With ``fragment="Lb"`` the verdict follows branching reactive
    bisimilarity (triggered, or under the ``env`` set); with ``"Lbr"`` the
    rooted version.  The produced formula is built from the refutation tree
    of the generalised fixpoint and holds on exactly one of the two states;
    that fixpoint is the one ``gbrb_check`` of the same pair reads, computed
    once for the pair (``bisim._PairContext``).  The queried entry comes
    from the front half the checkers share (``bisim._query``); the store
    reads a triple's X as X & V.
    """
    if fragment not in ("Lb", "Lbr"):
        raise FragmentUnsupported(f"unknown fragment {fragment!r}")
    ctx, entry, _ = _bisim._query("gbrb", l1, p, l2, q, sigma, env)
    store = _bisim._row_fixpoints(ctx, p, q, "gbrb", "gbrb", fragment == "Lbr")
    alive = store.has_pair(*entry) if len(entry) == 2 else store.has_triple(*entry)
    return None if alive else _Builder(store).entry(entry)
