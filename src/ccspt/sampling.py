"""Seeded random generation of processes, contexts, and equivalent variants.

All generators take an explicit ``random.Random`` so every suite is
reproducible from one seed.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Sequence, Tuple

from .errors import StateBudgetExceeded, UnfoldingDiverged
from .semantics import ExplorationLimits, Lts, build_lts
from .terms import (NIL, TAU, TIMEOUT, Choice, Hide, Par, Prefix, Psi,
                    RecCall, Rename, Term, Theta, Var, children, rebuild, rec,
                    spec)

DEFAULT_SIGMA = ("a", "b", "c")


def guarded_spec_pool(sigma: Sequence[str]) -> List:
    """Well-guarded specifications to mix into random terms."""
    a = sigma[0]
    b = sigma[1 % len(sigma)]
    return [
        spec({"x": Prefix(a, Var("x"))}),
        spec({"x": Prefix(a, Choice(Prefix(b, Var("x")), NIL))}),
        spec({"x": Prefix(a, Prefix(TIMEOUT, Var("x")))}),
        spec({"x": Prefix(a, Var("y")), "y": Prefix(b, Var("x"))}),
    ]


def random_term(rng: random.Random, sigma: Sequence[str] = DEFAULT_SIGMA,
                depth: int = 4, rec_prob: float = 0.2,
                pool: Optional[List] = None) -> Term:
    """A random closed valid term using every operator of the language."""
    if pool is None:
        pool = guarded_spec_pool(sigma)
    return _rand(rng, list(sigma), depth, rec_prob, pool)


def _rand(rng, sigma, depth, rec_prob, pool) -> Term:
    if depth <= 0:
        return NIL if rng.random() < 0.5 else Prefix(rng.choice(sigma), NIL)
    roll = rng.random()
    if roll < rec_prob:
        sp = rng.choice(pool)
        return RecCall(rng.choice(sorted(sp.vars)), sp)
    choice = rng.randrange(9)
    if choice == 0:
        return NIL
    if choice in (1, 2):
        action = rng.choice(sigma + [TAU, TIMEOUT])
        return Prefix(action, _rand(rng, sigma, depth - 1, rec_prob, pool))
    if choice in (3, 4):
        return Choice(_rand(rng, sigma, depth - 1, rec_prob, pool),
                      _rand(rng, sigma, depth - 1, rec_prob, pool))
    if choice == 5:
        sync = frozenset(a for a in sigma if rng.random() < 0.4)
        return Par(sync, _rand(rng, sigma, depth - 1, rec_prob, pool),
                   _rand(rng, sigma, depth - 1, rec_prob, pool))
    if choice == 6:
        hidden = frozenset(a for a in sigma if rng.random() < 0.4)
        return Hide(hidden, _rand(rng, sigma, depth - 1, rec_prob, pool))
    if choice == 7:
        pairs = frozenset((a, rng.choice(sigma)) for a in sigma
                          if rng.random() < 0.4)
        return Rename(pairs, _rand(rng, sigma, depth - 1, rec_prob, pool))
    low = frozenset(a for a in sigma if rng.random() < 0.3)
    high = low | frozenset(a for a in sigma if rng.random() < 0.3)
    body = _rand(rng, sigma, depth - 1, rec_prob, pool)
    if rng.random() < 0.5:
        return Theta(low, high, body)
    return Psi(low, body)


def random_process(rng: random.Random, sigma: Sequence[str] = DEFAULT_SIGMA,
                   depth: int = 4, rec_prob: float = 0.2,
                   max_states: int = 40, pool=None,
                   attempts: int = 200) -> Tuple[Term, Lts]:
    """A random term together with its LTS, resampled until it fits the
    budget; past ``attempts`` draws, the last draw's error is raised."""
    if attempts < 1:
        raise ValueError("attempts must be positive")
    limits = ExplorationLimits(max_states=max_states)
    for _ in range(attempts):
        term = random_term(rng, sigma, depth, rec_prob, pool)
        try:
            return term, build_lts(term, limits)
        except (StateBudgetExceeded, UnfoldingDiverged) as exc:
            failure = exc
    raise failure


# ---------------------------------------------------------------------------
# Sound variants: rewrites preserving rooted branching reactive bisimilarity


def _positions(term: Term) -> List[tuple]:
    """Paths (of ``children`` indices) to the subterms that can be replaced
    without touching binders."""
    out = [()]
    for i, kid in enumerate(children(term)):
        out += [(i,) + p for p in _positions(kid)]
    return out


def _get(term: Term, path: tuple) -> Term:
    for i in path:
        term = children(term)[i]
    return term


def _replace(term: Term, path: tuple, new: Term) -> Term:
    if not path:
        return new
    kids = list(children(term))
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return rebuild(term, kids)


def _variant_once(rng: random.Random, term: Term) -> Term:
    """One random rewrite that is sound for the rooted congruence."""
    path = rng.choice(_positions(term))
    sub = _get(term, path)
    kind = rng.randrange(4)
    if kind == 0:
        new = Choice(sub, NIL)                         # x + 0 = x
    elif kind == 1:
        new = Choice(sub, sub)                         # x + x = x
    elif kind == 2 and isinstance(sub, Prefix):
        # branching law with an empty summand: a.(tau.F + F) = a.F
        new = Prefix(sub.action, Choice(Prefix(TAU, sub.body), sub.body))
    elif kind == 3 and isinstance(sub, Prefix):
        # its time-out twin: a.(t.F + F) = a.F
        new = Prefix(sub.action, Choice(Prefix(TIMEOUT, sub.body), sub.body))
    else:
        new = Choice(sub, NIL)
    return _replace(term, path, new)


def equivalent_variant(rng: random.Random, term: Term, steps: int = 2) -> Term:
    """A term rooted-branching-reactive-bisimilar to the input, usually distinct."""
    out = term
    for _ in range(rng.randint(1, steps)):
        out = _variant_once(rng, out)
    return out


# ---------------------------------------------------------------------------
# One-hole contexts


def random_context(rng: random.Random, sigma: Sequence[str] = DEFAULT_SIGMA,
                   depth: int = 2, pool=None) -> Callable[[Term], Term]:
    """A random one-hole context over all operators of the language."""
    if pool is None:
        pool = guarded_spec_pool(sigma)
    sigma = list(sigma)
    wrappers: List[Callable[[Term], Term]] = []
    for _ in range(rng.randint(1, depth)):
        kind = rng.randrange(8)
        if kind == 0:
            action = rng.choice(sigma + [TAU, TIMEOUT])
            wrappers.append(lambda h, a=action: Prefix(a, h))
        elif kind == 1:
            other = random_term(rng, sigma, 2, 0.2, pool)
            if rng.random() < 0.5:
                wrappers.append(lambda h, o=other: Choice(h, o))
            else:
                wrappers.append(lambda h, o=other: Choice(o, h))
        elif kind == 2:
            other = random_term(rng, sigma, 2, 0.2, pool)
            sync = frozenset(a for a in sigma if rng.random() < 0.4)
            if rng.random() < 0.5:
                wrappers.append(lambda h, o=other, s=sync: Par(s, h, o))
            else:
                wrappers.append(lambda h, o=other, s=sync: Par(s, o, h))
        elif kind == 3:
            hidden = frozenset(a for a in sigma if rng.random() < 0.4)
            wrappers.append(lambda h, i=hidden: Hide(i, h))
        elif kind == 4:
            pairs = frozenset((a, rng.choice(sigma)) for a in sigma
                              if rng.random() < 0.4)
            wrappers.append(lambda h, r=pairs: Rename(r, h))
        elif kind == 5:
            low = frozenset(a for a in sigma if rng.random() < 0.3)
            high = low | frozenset(a for a in sigma if rng.random() < 0.3)
            wrappers.append(lambda h, l=low, u=high: Theta(l, u, h))
        elif kind == 6:
            allowed = frozenset(a for a in sigma if rng.random() < 0.3)
            wrappers.append(lambda h, x=allowed: Psi(x, h))
        else:
            guard = rng.choice(sigma)
            wrappers.append(lambda h, g=guard:
                            rec("z", {"z": Prefix(g, Choice(Var("z"), h))}))

    def context(holefill: Term) -> Term:
        out = holefill
        for w in wrappers:
            out = w(out)
        return out

    return context
