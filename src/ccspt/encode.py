"""LTS-to-LTS encoding that reduces reactive equivalences to non-reactive ones.

Each state of the source system is wrapped in an environment operator: either
triggered (about to pick a new set of allowed actions) or settled on a set X.
Fresh labels record environment moves: ``eps_{..}`` for settling on a set,
``t_eps`` for an environment time-out, and (rooted variant only) ``t_{..}``
for a system time-out fused with the preceding settling step.
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
    (``rooted``), a state's twin is the plain-mode state with the same base
    and mask, whose code is its own with the rooted bit cleared, in the
    plain encoding ``twin_encoding`` gives.
    """

    def __init__(self, tags, transitions, out, sigma, labels, codes: List[int],
                 index: Dict[int, int], twin_of: Optional[tuple] = None):
        self._init(tags, tuple(transitions), out, 0, sigma, labels)
        self.codes = codes
        self.rooted = twin_of is not None
        self.index: Optional[Dict[int, int]] = None if self.rooted else index
        self._twin_of = twin_of

    def twin_encoding(self) -> "Encoding":
        """The plain encoding of the same system, alphabet and bound (built
        once per system, see ``encode``)."""
        lts, sig, max_states = self._twin_of
        return encode(lts, sigma=sig, max_states=max_states)


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

    States are explored depth first by their int codes (``Encoding``), and
    each tag is built once, when its state is first reached.  The plain
    encoding of one (system, alphabet, ``max_states``) is built once and
    kept while the system lives, so every call returns that same object; a
    rooted encoding is built on each call, and refers to its system for its
    plain twin encoding, which it does not build.
    """
    sig = visible_alphabet(sigma) if sigma is not None else lts.sigma
    if not lts.sigma <= sig:
        raise LabelUniverseMismatch(
            f"encoding alphabet {sorted(sig)} must cover the system's {sorted(lts.sigma)}")
    if not rooted:
        got = _PLAIN.get(lts, {}).get((sig, max_states))
        if got is None:
            got = _encode(lts, False, sig, max_states)
            _PLAIN.setdefault(lts, {})[sig, max_states] = got
        return got
    return _encode(lts, True, sig, max_states)


def _encode(lts: Lts, rooted: bool, sig: frozenset, max_states: int) -> Encoding:
    """Explore the encoding, writing each state's moves as ``Lts`` would
    group them, after refusing a source with a label of an encoding; no
    transition repeats, as each label's targets are distinct."""
    xs = subsets(sig)
    bit = {a: 1 << i for i, a in enumerate(sorted(sig))}
    xmask = [sum(bit[a] for a in x) for x in xs]
    eps = [eps_label(x) for x in xs]
    tlab = [t_label(x) for x in xs] if rooted else []
    stride = len(xs) + 1
    moves = [lts.out(s) for s in range(len(lts))]
    if set().union(*moves) - lts.sigma - {TAU, TIMEOUT}:
        raise LabelUniverseMismatch("encode takes a base system, not an encoded one")
    tau = [o.get(TAU, ()) for o in moves]
    tout = [o.get(TIMEOUT, ()) for o in moves]
    # s idles under X iff it has no tau step and offers no action of X
    offers = [sum(bit[a] for a in o if a in lts.sigma) for o in moves]
    if max_states < 1:
        raise StateBudgetExceeded(1, max_states)
    codes = [(lts.initial * stride) << 1 | rooted]
    index: Dict[int, int] = {codes[0]: 0}
    transitions: List[Tuple[int, str, int]] = []
    out: List[Optional[Dict[str, Tuple[int, ...]]]] = [None]   # by state, once explored
    frontier = [0]
    while frontier:
        i = frontier.pop()
        code = codes[i]
        s, slot = divmod(code >> 1, stride)
        rb = code & 1
        # (label, target codes), each label's targets together
        if slot == 0:
            groups = [(lab, [(d * stride) << 1 | rb for d in targets])
                      for lab, targets in moves[s].items() if lab != TIMEOUT]
            settle = (s * stride) << 1 | rb
            groups += [(eps[k], (settle + ((k + 1) << 1),)) for k in range(len(xs))]
            if rb and tout[s] and not tau[s]:   # rooted time-outs, fused with settling on X
                groups += [(tlab[k], [(d * stride + k + 1) << 1 for d in tout[s]])
                           for k, m in enumerate(xmask) if not offers[s] & m]
        else:
            m = xmask[slot - 1]
            groups = [(TAU, [(d * stride + slot) << 1 | rb for d in tau[s]])] if tau[s] else []
            groups += [(lab, [(d * stride) << 1 for d in targets])
                       for lab, targets in moves[s].items() if bit.get(lab, 0) & m]
            if not tau[s] and not offers[s] & m:
                groups.append((T_EPS, ((s * stride) << 1 | rb,)))
                if tout[s]:
                    groups.append((TIMEOUT, [(d * stride + slot) << 1 | rb for d in tout[s]]))
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

    modes = ((TRIGGERED, ENV), (TRIGGERED_ROOTED, ENV_ROOTED))
    tags = []
    for code in codes:
        s, slot = divmod(code >> 1, stride)
        tags.append(EncodedState(modes[code & 1][slot > 0], xs[slot - 1] if slot else None, s))
    labels = set(chain([TAU, TIMEOUT, T_EPS], sig, eps, tlab))
    return Encoding(tags, transitions, out, sig, labels, codes, index,
                    (lts, sig, max_states) if rooted else None)


def encoded_entry(encoded: Lts, allowed: Optional[frozenset] = None,
                  rooted: bool = False) -> int:
    """Index of the wrapped initial state, optionally under a settled environment."""
    base = encoded.tags[encoded.initial].base
    if allowed is None:
        return encoded.initial
    mode = ENV_ROOTED if rooted else ENV
    want = EncodedState(mode, frozenset(allowed), base)
    for i, tag in enumerate(encoded.tags):
        if tag == want:
            return i
    raise LabelUniverseMismatch(
        f"state {want} not present in the encoding over {sorted(encoded.sigma)}")
