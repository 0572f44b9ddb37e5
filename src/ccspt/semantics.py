"""Operational semantics: single steps, LTS construction, and graph queries.

``step`` derives the outgoing transitions of a closed valid term.  The
time-out action is an ordinary transition here; the priority of tau over t is
the business of the equivalences, not of the transition relation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import (ParseError, StateBudgetExceeded, UnfoldingDiverged, ValidityError,
                     depth_guarded)
# the label vocabulary of ``terms`` is read from here too
from .terms import (T_EPS, TAU, TIMEOUT, Hide, Nil, Par, Prefix, Psi, RecCall,
                    Rename, Term, Theta, Choice, Var, _acyclic, alphabet, eps_label,
                    is_visible, label_kind, t_label, unfold, visible_alphabet)

if sys.getrecursionlimit() < 20_000:
    sys.setrecursionlimit(20_000)

DEFAULT_MAX_STATES = 50_000
DEFAULT_UNFOLD_FUSE = 10_000


@dataclass(frozen=True)
class ExplorationLimits:
    max_states: int = DEFAULT_MAX_STATES

    def __post_init__(self):
        if self.max_states <= 0:
            raise ValueError("exploration limits must be positive")


# ---------------------------------------------------------------------------
# Single steps


class _StepCtx:
    """One exploration: the unfolding budget of the state being stepped, the
    keys of the recursion calls being unfolded, and memos that live as long
    as the context.

    ``moves`` maps the id of each subterm stepped so far to its moves, the
    number of unfoldings their derivation used, and the subterm itself
    (which keeps the id its own).  ``calls`` holds one ``RecCall`` per
    specification and variable, and ``unfolded`` the body each
    (specification, variable) unfolds to, re-tied to those calls; so the
    derivatives of a component are shared objects, and they hit ``moves``.
    ``nodes`` holds every node the SOS rules build, so a derivative reached
    from several states is one object, whose key and moves are computed
    once.  A rule finds its node with one read of ``nodes``, keyed by the
    operator, its own fields and the ids of the operand objects (the key
    ``node`` stores under), and calls ``node`` only on a miss.
    """

    __slots__ = ("budget", "active", "moves", "calls", "unfolded", "nodes")

    def __init__(self, budget: int):
        self.budget = budget
        self.active = set()
        self.moves = {}
        self.calls = {}
        self.unfolded = {}
        self.nodes = {}

    def node(self, cls, *fields) -> Term:
        """The node ``cls(*fields)`` of this context, built once: looked up
        by its class, its own fields by value and its subterms (the last
        fields of every operator) by id.  A recursion call among the
        subterms is first replaced by the context's call for its
        specification and variable, so a parsed call and the one its
        unfoldings are re-tied to give one node.  The stored node keeps
        those ids its own.  The SOS rules call this only when their own
        read of ``nodes`` under the same key misses; a key naming a parsed
        call misses there, as it is stored under the context's call."""
        own = len(fields) - len(cls._kids)
        kids = [self._calls(k.spec)[k.var] if type(k) is RecCall else k
                for k in fields[own:]]
        key = (cls, *fields[:own], *map(id, kids))
        got = self.nodes.get(key)
        if got is None:
            got = self.nodes[key] = cls(*fields[:own], *kids)
        return got

    def _calls(self, sp) -> Dict[str, RecCall]:
        """The context's one call per variable of the specification."""
        calls = self.calls.get(id(sp))
        if calls is None:
            calls = self.calls[id(sp)] = {v: RecCall(v, sp) for v in sp.vars}
        return calls

    def unfold(self, call: RecCall) -> Term:
        sp = call.spec
        body = self.unfolded.get((id(sp), call.var))
        if body is None:
            body = self.unfolded[id(sp), call.var] = unfold(call, self._calls(sp))
        return body


def step(term: Term, fuse: int = DEFAULT_UNFOLD_FUSE) -> Tuple[Tuple[str, Term], ...]:
    """All SOS-derivable transitions of a closed valid term, deduplicated."""
    return _step(term, _StepCtx(fuse), keep=False)


def initials(term: Term, fuse: int = DEFAULT_UNFOLD_FUSE) -> frozenset:
    """Initial actions: labels of outgoing transitions restricted to A and tau."""
    return frozenset(l for l, _ in step(term, fuse) if l != TIMEOUT)


def _dedup(moves):
    return tuple(dict.fromkeys(moves))


def _step(term: Term, ctx: _StepCtx, keep: bool = True) -> Tuple[Tuple[str, Term], ...]:
    """The moves of ``term``, derived at most once per context.

    A memo hit charges the unfoldings its derivation used, so the fuse
    trips exactly where a fresh derivation would trip.  Only successful
    derivations are kept, and only when ``keep`` is set.  One frame per
    level of nesting.
    """
    if isinstance(term, Prefix):
        return ((term.action, term.body),)
    if isinstance(term, Nil):
        return ()
    got = ctx.moves.get(id(term))
    if got is not None:
        moves, cost, _ = got
        if ctx.budget < cost:
            raise UnfoldingDiverged("recursion unfolded past the fuse")
        ctx.budget -= cost
        return moves
    budget, nodes = ctx.budget, ctx.nodes
    if isinstance(term, Choice):
        moves = _dedup(_step(term.left, ctx) + _step(term.right, ctx))
    elif isinstance(term, Par):
        sync, l, r = term.sync, term.left, term.right
        left = _step(l, ctx)
        right = _step(r, ctx)
        moves = []
        for lab, nxt in left:
            if lab not in sync:
                moves.append((lab, nodes.get((Par, sync, id(nxt), id(r)))
                              or ctx.node(Par, sync, nxt, r)))
        for lab, nxt in right:
            if lab not in sync:
                moves.append((lab, nodes.get((Par, sync, id(l), id(nxt)))
                              or ctx.node(Par, sync, l, nxt)))
        for lab, nl in left:
            if lab in sync:
                for lab2, nr in right:
                    if lab2 == lab:
                        moves.append((lab, nodes.get((Par, sync, id(nl), id(nr)))
                                      or ctx.node(Par, sync, nl, nr)))
        moves = _dedup(moves)
    elif isinstance(term, Hide):
        hidden, moves = term.hidden, []
        for lab, nxt in _step(term.body, ctx):
            out = TAU if lab in hidden else lab
            moves.append((out, nodes.get((Hide, hidden, id(nxt)))
                          or ctx.node(Hide, hidden, nxt)))
        moves = _dedup(moves)
    elif isinstance(term, Rename):
        pairs, moves = term.pairs, []
        for lab, nxt in _step(term.body, ctx):
            outs = (lab,) if lab in (TAU, TIMEOUT) else [b for a, b in pairs if a == lab]
            for out in outs:
                moves.append((out, nodes.get((Rename, pairs, id(nxt)))
                              or ctx.node(Rename, pairs, nxt)))
        moves = _dedup(moves)
    elif isinstance(term, Theta):
        low, high = term.low, term.high
        inner = _step(term.body, ctx)
        idles = _idles(inner, low)
        moves = []
        for lab, nxt in inner:
            if lab == TAU:
                moves.append((TAU, nodes.get((Theta, low, high, id(nxt)))
                              or ctx.node(Theta, low, high, nxt)))
            if lab in high:
                moves.append((lab, nxt))
            if idles:
                moves.append((lab, nxt))
        moves = _dedup(moves)
    elif isinstance(term, Psi):
        x = term.allowed
        inner = _step(term.body, ctx)
        idles = _idles(inner, x)
        moves = []
        for lab, nxt in inner:
            if lab != TIMEOUT:
                moves.append((lab, nxt))
            elif idles:
                moves.append((TIMEOUT, nodes.get((Theta, x, x, id(nxt)))
                              or ctx.node(Theta, x, x, nxt)))
        moves = _dedup(moves)
    elif isinstance(term, RecCall):
        added = []
        try:
            body: Term = term
            while isinstance(body, RecCall):
                key = body.key()
                if key in ctx.active:
                    raise UnfoldingDiverged(f"unguarded recursion at {body!r}")
                if ctx.budget <= 0:
                    raise UnfoldingDiverged("recursion unfolded past the fuse")
                ctx.budget -= 1
                ctx.active.add(key)
                added.append(key)
                body = ctx.unfold(body)
            moves = _step(body, ctx)
        finally:
            for key in added:
                ctx.active.discard(key)
    elif isinstance(term, Var):
        raise ValidityError(f"cannot step an open term: {term!r}")
    else:
        raise TypeError(f"not a term: {term!r}")
    if keep:
        ctx.moves[id(term)] = (moves, budget - ctx.budget, term)
    return moves


def _idles(moves, allowed) -> bool:
    """Whether the initial actions avoid tau and the allowed set."""
    for lab, _ in moves:
        if lab == TAU or lab in allowed:
            return False
    return True


# ---------------------------------------------------------------------------
# Labelled transition systems


class Lts:
    """A finite LTS with indexed states and a fixed label universe.

    ``tags`` carries one descriptive object per state (a term, an encoding
    tag, or a plain name).  The transitions are kept once each, in the order
    they first occur, and grouped in the same pass into each state's moves
    (``out``): its labels in the order they first occur, each with its
    targets in order.  An initial state or a transition outside the states
    is refused with a ``ValueError``.  ``sigma`` is the visible alphabet:
    the declared names and every visible transition label, classified once
    here, as is ``encoded``: whether a move has any other label but tau and
    t, one of an encoding.  Derived tables are computed once and cached.
    """

    def __init__(self, tags: Sequence, transitions: Iterable[Tuple[int, str, int]],
                 initial: int = 0, sigma: Iterable[str] = (),
                 labels: Optional[Iterable[str]] = None):
        tags = list(tags)
        n = len(tags)
        transitions = tuple(dict.fromkeys(transitions))
        out: List[Dict[str, list]] = [{} for _ in range(n)]
        for s, lab, d in transitions:
            if not (0 <= s < n and 0 <= d < n):
                raise ValueError(f"transition ({s},{lab!r},{d}) out of range")
            moves = out[s]
            if lab in moves:
                moves[lab].append(d)
            else:
                moves[lab] = [d]
        for moves in out:
            for lab, ds in moves.items():
                moves[lab] = tuple(ds)
        self._init(tags, transitions, out, initial, sigma, labels)

    def _init(self, tags: list, transitions: tuple, out: List[Dict[str, Tuple[int, ...]]],
              initial: int, sigma: Iterable[str], labels: Optional[Iterable[str]]):
        """Set the fields from transitions kept once each and grouped into
        ``out`` as ``Lts`` groups them (an ``Encoding`` writes its own)."""
        if not 0 <= initial < len(tags):
            raise ValueError(f"initial state {initial!r} out of range "
                             f"for a system of {len(tags)} states")
        self.tags, self.transitions, self._out, self.initial = tags, transitions, out, initial
        seen = set().union(*out)
        self.sigma = visible_alphabet(sigma) | {l for l in seen if is_visible(l)}
        self.encoded = bool(seen - self.sigma - {TAU, TIMEOUT})
        universe = set(labels) if labels is not None else set()
        universe |= seen | self.sigma | {TAU, TIMEOUT}
        self.labels = frozenset(universe)
        self._weak: Optional[List[Tuple[int, ...]]] = None

    # -- basic queries ------------------------------------------------------
    def __len__(self):
        return len(self.tags)

    @property
    def num_states(self) -> int:
        return len(self)

    @property
    def num_transitions(self) -> int:
        return len(self.transitions)

    def out(self, s: int) -> Dict[str, Tuple[int, ...]]:
        return self._out[s]

    def succ(self, s: int, label: str) -> Tuple[int, ...]:
        return self._out[s].get(label, ())

    def has_tau(self, s: int) -> bool:
        return bool(self._out[s].get(TAU))

    def initials_visible(self, s: int) -> frozenset:
        return frozenset(l for l in self._out[s] if l in self.sigma)

    def idle(self, s: int, allowed) -> bool:
        """Whether ``s`` idles under an environment allowing ``allowed``: no
        tau step and no visible action of the set (``_idles`` over its moves)."""
        return _idles(self._out[s].items(), allowed & self.sigma)

    def with_sigma(self, sigma: Iterable[str]) -> "Lts":
        return Lts(self.tags, self.transitions, self.initial,
                   sigma=self.sigma | frozenset(sigma), labels=self.labels)


def reach(succ: Callable[[int], Iterable[int]], s: int) -> Tuple[int, ...]:
    """The states reachable from ``s`` over ``succ`` (a state's successors),
    ``s`` included, as a sorted tuple."""
    seen = {s}
    stack = [s]
    while stack:
        for v in succ(stack.pop()):
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return tuple(sorted(seen))


def weak_closure(tau_succ: Sequence[Iterable[int]]) -> List[Tuple[int, ...]]:
    """Reflexive-transitive closure of a tau-successor table, one sorted
    tuple per state."""
    return [reach(tau_succ.__getitem__, s) for s in range(len(tau_succ))]


def weak_reach(lts: Lts) -> List[Tuple[int, ...]]:
    """Reflexive-transitive closure of the tau edges, one tuple per state."""
    if lts._weak is None:
        lts._weak = weak_closure([lts.succ(s, TAU) for s in range(len(lts))])
    return lts._weak


def stable_reachable(lts: Lts, s: int) -> bool:
    """Whether some tau-free state is reachable from ``s`` over tau edges."""
    return any(not lts.has_tau(u) for u in weak_reach(lts)[s])


def is_strongly_guarded(lts: Lts) -> bool:
    """No cycle in the subgraph of tau and t edges (hence no infinite such path)."""
    return _acyclic({u: lts.succ(u, TAU) + lts.succ(u, TIMEOUT) for u in range(len(lts))})


@depth_guarded
def build_lts(term: Term, limits: Optional[ExplorationLimits] = None,
              sigma: Iterable[str] = (),
              fuse: int = DEFAULT_UNFOLD_FUSE) -> Lts:
    """Breadth-first closure of ``step`` with term-keyed state identity.

    The states share one step context: each subterm object's moves are
    derived, each recursion call unfolded and each derived node built once
    per build, and nothing is kept past it.  Each state's step gets the
    whole ``fuse``.  The state index is keyed by the reached terms
    themselves: a lookup hashes through the term's cached hash and matches
    the indexed object by identity, and a distinct object with an equal
    key compares keys and meets the same state.  A reserved name, used as
    a visible action by the term or declared in ``sigma``, is refused
    before anything is explored.
    """
    limits = limits or ExplorationLimits()
    actions = visible_alphabet(alphabet(term), "the term's alphabet")
    sigma = visible_alphabet(sigma)
    index: Dict[Term, int] = {term: 0}
    tags: List[Term] = [term]
    transitions: List[Tuple[int, str, int]] = []
    frontier = [(0, term)]
    ctx = _StepCtx(fuse)
    while frontier:
        nxt = []
        for idx, t in frontier:
            ctx.budget = fuse
            for lab, target in _step(t, ctx, keep=False):
                j = index.get(target)
                if j is None:
                    j = len(tags)
                    if j >= limits.max_states:
                        raise StateBudgetExceeded(j + 1, limits.max_states)
                    index[target] = j
                    tags.append(target)
                    nxt.append((j, target))
                transitions.append((idx, lab, j))
        frontier = nxt
    return Lts(tags, transitions, 0, sigma=sigma | actions)


# ---------------------------------------------------------------------------
# Import/export


def to_aut(lts: Lts) -> str:
    """Aldebaran format: ``des (initial, transitions, states)`` plus one line per edge."""
    lines = [f"des ({lts.initial}, {lts.num_transitions}, {lts.num_states})"]
    for s, lab, d in lts.transitions:
        lines.append(f'({s},"{lab}",{d})')
    return "\n".join(lines) + "\n"


def from_aut(text: str) -> Lts:
    """Read an Aldebaran ``.aut`` file; errors name the file line at fault."""
    head_no = None
    transitions = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if head_no is None:
            head_no = lineno
            initial, m, n = _aut_header(line, lineno)
            continue
        if not (line.startswith("(") and line.endswith(")")):
            raise ParseError(f"bad aut line {line!r}", lineno, 1)
        try:
            src_s, rest = line[1:-1].split(",", 1)
            label, dst_s = rest.rsplit(",", 1)
            label = label.strip()
            if label.startswith('"') and label.endswith('"'):
                label = label[1:-1]
            src, dst = int(src_s), int(dst_s)
        except ValueError:
            raise ParseError(f"bad aut line {line!r}", lineno, 1)
        if not (0 <= src < n and 0 <= dst < n):
            raise ParseError(f"transition {line!r} names a state outside 0..{n - 1}",
                             lineno, 1)
        transitions.append((src, label, dst))
    if head_no is None:
        raise ParseError("not an aut file: missing des header", 1, 1)
    if len(transitions) != m:
        raise ParseError(f"aut header promises {m} transitions, found {len(transitions)}",
                         head_no, 1)
    return Lts([f"s{i}" for i in range(n)], transitions, initial)


def _aut_header(line: str, lineno: int) -> Tuple[int, int, int]:
    """(initial state, transition count, state count) of a ``des`` line."""
    if not line.startswith("des"):
        raise ParseError("not an aut file: missing des header", lineno, 1)
    try:
        inner = line[line.index("(") + 1:line.rindex(")")]
        initial, m, n = (int(x.strip()) for x in inner.split(","))
    except ValueError:
        raise ParseError(f"bad aut header {line!r}", lineno, 1)
    if m < 0 or n < 0:
        raise ParseError(f"negative count in aut header {line!r}", lineno, 1)
    if not 0 <= initial < n:
        raise ParseError(f"initial state {initial} out of range for {n} states",
                         lineno, 1)
    return initial, m, n


def to_dot(lts: Lts, name: str = "lts") -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;",
             f'  init [shape=point]; init -> n{lts.initial};']
    for i, tag in enumerate(lts.tags):
        label = str(tag).replace('"', r'\"')
        lines.append(f'  n{i} [shape=circle,label="{label}"];')
    for s, lab, d in lts.transitions:
        lines.append(f'  n{s} -> n{d} [label="{lab}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
