"""LTS-to-LTS encoding that reduces reactive equivalences to non-reactive ones.

Each state of the source system is wrapped in an environment operator: either
triggered (about to pick a new set of allowed actions) or settled on a set X.
Fresh labels record environment moves: ``eps_{..}`` for settling on a set,
``t_eps`` for an environment time-out, and (rooted variant only) ``t_{..}``
for a system time-out fused with the preceding settling step.  The rooted
variant is numbered from the plain one, which it reads its moves off.

A state s is settled only under the actions it can still meet: R(s), the
visible actions offered anywhere in the tau/t-closure of s.  trig(s) moves
by eps_X to env(X ∩ R(s), s), and a tau or t step of env(X, s) into d goes
to env(X ∩ R(d), d); every eps_X label stays, so two systems encoded apart
still share their labels.  This keeps the root's strong bisimilarity class
of the full encoding, in which env(X, s) exists for every X: there,

    {(env(X, s), env(Y, s)) : X ∩ R(s) = Y ∩ R(s)} ∪ Id

is a strong bisimulation.  offers(s) ⊆ R(s), so the two states have the
same a-steps, to the same trig(d), and idle alike; R(d) ⊆ R(s) for every
tau or t successor d, so their tau and t steps lead to env(X, d) and
env(Y, d) with X ∩ R(d) = Y ∩ R(d).  The rooted variant's fused t_X step of
trig_r(s) leads to env(X, d) in the full encoding and to env(X ∩ R(d), d)
here, related again.  Every move of a canonical state is a move of the full
encoding with its target replaced by a related one, so each state of the
full encoding is strongly bisimilar to its canonical one, the root to the
root; strong bisimilarity implies ``tb`` and rooted ``tb``, so no verdict
changes.  Declared but unused actions thus add no settled state.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Dict, Iterable, List, Optional, Tuple

from .errors import LabelUniverseMismatch, StateBudgetExceeded
from .semantics import (DEFAULT_MAX_STATES, T_EPS, TAU, TIMEOUT, Lts,
                        eps_label, t_label, visible_alphabet)

TRIGGERED = "trig"
TRIGGERED_ROOTED = "trig_r"
ENV = "env"
ENV_ROOTED = "env_r"
_ROOTED_MODE = {TRIGGERED: TRIGGERED_ROOTED, ENV: ENV_ROOTED}


@dataclass(frozen=True)
class EncodedState:
    """A source state wrapped in an environment mode."""

    mode: str
    allowed: Optional[frozenset]  # None in triggered modes
    base: int

    def __str__(self):
        if self.allowed is None:
            return f"{self.mode}({self.base})"
        return f"{self.mode}{{{','.join(sorted(self.allowed))}}}({self.base})"


class Encoding(Lts):
    """An encoded system whose states carry int codes.

    A state's code is ``((base * (|subsets| + 1) + slot) << 1) | rooted``,
    where slot 0 is a triggered mode and slot k + 1 the settled mode under
    the k-th subset of Sigma; ``codes`` lists them by state.  A plain
    encoding keeps ``index``, the state of each code.  In a rooted one
    (``rooted``, a ``RootedEncoding``), a state's twin is the plain-mode
    state with the same base and mask, whose code is its own with the
    rooted bit cleared, in the plain encoding ``twin_encoding`` gives.
    """

    rooted, encoded = False, True   # every encoding moves by eps labels

    def __init__(self, tags, transitions, out, sigma, labels, codes, index):
        self._init(tags, tuple(transitions), out, 0, sigma, labels)
        self.codes, self.index = codes, index

    def __len__(self):
        return len(self.codes)


class RootedEncoding(Encoding):
    """A rooted encoding, numbered from its plain twin encoding (``encode``).

    It keeps ``codes``, ``initial``, its length, ``sigma`` and ``labels``,
    and ``walk``: the order the walk expanded its states in and the t_X
    label of each eps_X label.  Its move dicts, ``transitions`` and
    ``tags`` are written on the first read of one of them (the lookup hook
    that does so is on this class alone, so attribute reads of a plain
    encoding keep the interpreter's fast path).
    """

    rooted = True

    def __init__(self, codes: List[int], twin: Encoding, labels, walk: tuple):
        self.codes, self._twin, self._walk = codes, twin, walk
        self.initial, self.sigma, self.labels, self._weak = 0, twin.sigma, labels, None

    def __getattr__(self, name):
        """Reached only for an attribute not set: the lazy fields."""
        if name in ("_out", "transitions", "tags"):
            self._write_moves()
            return getattr(self, name)
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def _write_moves(self):
        """Write the move dicts (``_twin_moves``), the transitions in the
        order the walk expanded the states, and the tags."""
        (order, fused), twin, codes = self._walk, self._twin, self.codes
        index = {code: i for i, code in enumerate(codes)}
        twins = [twin.index[code & ~1] for code in codes]
        self._out = out = [{lab: tuple([index[twin.codes[d] | bit] for d in ds])
                            for lab, ds, bit in _twin_moves(twin, t, code & 1, fused)}
                           for code, t in zip(codes, twins)]
        self.transitions = tuple((i, lab, j) for i in order for lab, js in out[i].items()
                                 for j in js)
        self.tags = [EncodedState(_ROOTED_MODE[tag.mode], tag.allowed, tag.base) if code & 1
                     else tag for code, tag in zip(codes, map(twin.tags.__getitem__, twins))]

    def twin_encoding(self) -> Encoding:
        """The plain encoding of the same system, alphabet and bound (built
        once per system, see ``encode``) this one is numbered from."""
        return self._twin


def subsets(sigma: Iterable[str]) -> List[frozenset]:
    items = sorted(sigma)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


# source system -> {(alphabet, max_states): its plain encoding}, the system held weakly
_PLAIN: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def encode(lts: Lts, rooted: bool = False, sigma: Optional[Iterable[str]] = None,
           max_states: int = DEFAULT_MAX_STATES) -> Encoding:
    """Encode a system; states are ``EncodedState`` tags over the source indices.

    ``sigma`` fixes the visible-label universe the environment ranges over;
    it must cover the system's own alphabet, name no reserved label and,
    when two systems are to be compared, be the same on both sides.  A
    system with a move by any label but a visible one, tau and t, such as an
    encoding read back from ``.aut``, is refused with
    ``LabelUniverseMismatch``: its environment moves would share labels
    with the ones the encoding adds.

    States are explored depth first by their int codes (``Encoding``), each
    settled under X ∩ R(s) (see the module docstring), and each tag is
    built once, when its state is first reached.  The plain
    encoding of one (system, alphabet, ``max_states``) is built once and
    kept while the system lives, so every call returns that same object.  A
    rooted encoding is new on each call: it is numbered from the plain one,
    in the order an exploration of the system would number it
    (``_derive_rooted``), and writes its moves only when they are read.  A
    rooted encoding over ``max_states`` is refused at the same count as a
    plain one, ``max_states + 1``; its plain twin is never larger.
    """
    sig = visible_alphabet(sigma) if sigma is not None else lts.sigma
    if not lts.sigma <= sig:
        raise LabelUniverseMismatch(
            f"encoding alphabet {sorted(sig)} must cover the system's {sorted(lts.sigma)}")
    plain = _PLAIN.get(lts, {}).get((sig, max_states))
    if plain is None:
        plain = _encode(lts, sig, max_states)
        _PLAIN.setdefault(lts, {})[sig, max_states] = plain
    return _derive_rooted(plain, max_states) if rooted else plain


def _encode(lts: Lts, sig: frozenset, max_states: int) -> Encoding:
    """Explore the plain encoding, writing each state's moves as ``Lts``
    would group them, after refusing an ``encoded`` source, one with a
    label of an encoding; no transition repeats, as each label's targets
    are distinct."""
    if lts.encoded:
        raise LabelUniverseMismatch("encode takes a base system, not an encoded one")
    xs = subsets(sig)
    bit = {a: 1 << i for i, a in enumerate(sorted(sig))}
    xmask = [sum(bit[a] for a in x) for x in xs]
    eps = [eps_label(x) for x in xs]
    stride = len(xs) + 1
    moves = [lts.out(s) for s in range(len(lts))]
    tau = [o.get(TAU, ()) for o in moves]
    tout = [o.get(TIMEOUT, ()) for o in moves]
    # s idles under X iff it has no tau step and offers no action of X
    offers = [sum(bit[a] for a in o if a in lts.sigma) for o in moves]
    meets = _meets(tau, tout, offers)
    slot_of = [0] * (1 << len(sig))   # mask -> slot
    for k, m in enumerate(xmask):
        slot_of[m] = k + 1
    if max_states < 1:
        raise StateBudgetExceeded(1, max_states)
    codes = [(lts.initial * stride) << 1]
    index: Dict[int, int] = {codes[0]: 0}
    transitions: List[Tuple[int, str, int]] = []
    out: List[Optional[Dict[str, Tuple[int, ...]]]] = [None]   # by state, once explored
    frontier = [0]
    while frontier:
        i = frontier.pop()
        s, slot = divmod(codes[i] >> 1, stride)
        # (label, target codes), each label's targets together
        if slot == 0:
            groups = [(lab, [(d * stride) << 1 for d in targets])
                      for lab, targets in moves[s].items() if lab != TIMEOUT]
            settle, r = (s * stride) << 1, meets[s]
            groups += [(eps[k], (settle + (slot_of[m & r] << 1),))
                       for k, m in enumerate(xmask)]
        else:
            m = xmask[slot - 1]
            # the tau steps or, with none, the t steps, each into d settled
            # under X ∩ R(d)
            settled = [(d * stride + slot_of[m & meets[d]]) << 1 for d in tau[s] or tout[s]]
            groups = [(TAU, settled)] if tau[s] else []
            groups += [(lab, [(d * stride) << 1 for d in targets])
                       for lab, targets in moves[s].items() if bit.get(lab, 0) & m]
            if not tau[s] and not offers[s] & m:
                groups.append((T_EPS, ((s * stride) << 1,)))
                if settled:
                    groups.append((TIMEOUT, settled))
        mine = out[i] = {}
        for lab, targets in groups:
            js = []
            for target in targets:
                j = index.get(target)
                if j is None:
                    j = len(codes)
                    if j >= max_states:
                        raise StateBudgetExceeded(j + 1, max_states)
                    index[target] = j
                    codes.append(target)
                    out.append(None)
                    frontier.append(j)
                js.append(j)
                transitions.append((i, lab, j))
            mine[lab] = tuple(js)

    tags = []
    for code in codes:
        s, slot = divmod(code >> 1, stride)
        tags.append(EncodedState(ENV if slot else TRIGGERED, xs[slot - 1] if slot else None, s))
    labels = set(chain([TAU, TIMEOUT, T_EPS], sig, eps))
    return Encoding(tags, transitions, out, sig, labels, codes, index)


def _meets(tau, tout, offers) -> List[int]:
    """R(s) by state, as a mask: the visible actions offered anywhere in the
    tau/t-closure of s.  A backward worklist over tau and t steps re-queues
    a state only when its mask grows."""
    preds: List[List[int]] = [[] for _ in offers]
    for s, ds in enumerate(map(chain, tau, tout)):
        for d in ds:
            preds[d].append(s)
    meets = list(offers)
    todo = [d for d, m in enumerate(offers) if m]
    while todo:
        d = todo.pop()
        m = meets[d]
        for s in preds[d]:
            if m & ~meets[s]:
                meets[s] |= m
                todo.append(s)
    return meets


def _twin_moves(twin: Encoding, i: int, rooted: int, fused: Dict[str, str]):
    """The moves of a rooted encoding's state whose twin is state i of the
    plain encoding ``twin``, in rooted mode or not, as (label, the twins of
    its targets, the targets' rooted bit), in the order of its moves.

    A plain-mode state moves as its twin does.  A rooted-mode state's
    targets keep the rooted bit but those of a visible step out of a
    settled state.  After its twin's moves, a rooted triggered state has a
    t_X step for each eps_X step whose target times out, to that target's
    t targets, in plain mode (proved in ``bisim.tb_check``)."""
    out = twin._out
    moves = out[i].items()
    if not rooted:
        return [(lab, ds, 0) for lab, ds in moves]
    if twin.tags[i].allowed is not None:
        return [(lab, ds, int(lab not in twin.sigma)) for lab, ds in moves]
    return [(lab, ds, 1) for lab, ds in moves] + [
        (fused[lab], ts, 0) for lab, ds in moves if lab in fused
        for ts in (out[ds[0]].get(TIMEOUT),) if ts]


def _derive_rooted(twin: Encoding, max_states: int) -> RootedEncoding:
    """The rooted encoding numbered from its plain twin encoding, depth
    first from trig_r of the initial state over ``_twin_moves``: states in
    the order ``_encode`` would number them in an exploration of the source
    system, each keyed by its twin's index and its rooted bit until its
    code is read off the twin's."""
    fused = {eps_label(x): t_label(x) for x in subsets(twin.sigma)}
    keys = [twin.initial << 1 | 1]
    seen, order, frontier = set(keys), [], [0]
    while frontier:
        i = frontier.pop()
        order.append(i)
        key = keys[i]
        for _, ds, bit in _twin_moves(twin, key >> 1, key & 1, fused):
            for d in ds:
                target = d << 1 | bit
                if target not in seen:
                    j = len(keys)
                    if j >= max_states:
                        raise StateBudgetExceeded(j + 1, max_states)
                    seen.add(target)
                    keys.append(target)
                    frontier.append(j)
    return RootedEncoding([twin.codes[k >> 1] | k & 1 for k in keys], twin,
                          twin.labels.union(fused.values()), (order, fused))


def encoded_entry(encoded: Lts, allowed: Optional[frozenset] = None) -> int:
    """Index of the wrapped initial state or, given ``allowed`` = X, of the
    state its eps_X step settles on: env(X ∩ R(s), s), in rooted mode in a
    rooted encoding.  An X outside the encoding's alphabet has no eps_X
    step and is refused with ``LabelUniverseMismatch``."""
    if allowed is None:
        return encoded.initial
    targets = encoded.out(encoded.initial).get(eps_label(allowed))
    if targets is None:
        raise LabelUniverseMismatch(
            f"environment {sorted(allowed)} not present in the encoding over "
            f"{sorted(encoded.sigma)}")
    return targets[0]
