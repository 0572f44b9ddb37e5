"""LTS-to-LTS encoding that reduces reactive equivalences to non-reactive ones.

Each state of the source system is wrapped in an environment operator: either
triggered (about to pick a new set of allowed actions) or settled on a set X.
Fresh labels record environment moves: ``eps_{..}`` for settling on a set,
``t_eps`` for an environment time-out, and (rooted variant only) ``t_{..}``
for a system time-out fused with the preceding settling step.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable, List, Optional, Tuple

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


def subsets(sigma: Iterable[str]) -> List[frozenset]:
    items = sorted(sigma)
    return [frozenset(c) for r in range(len(items) + 1)
            for c in combinations(items, r)]


def encode(lts: Lts, rooted: bool = False, sigma: Optional[Iterable[str]] = None,
           max_states: int = DEFAULT_MAX_STATES) -> Lts:
    """Encode a system; states are ``EncodedState`` tags over the source indices.

    ``sigma`` fixes the visible-label universe the environment ranges over;
    it must cover the system's own alphabet, name no reserved label and,
    when two systems are to be compared, be the same on both sides.
    """
    sig = visible_alphabet(sigma) if sigma is not None else lts.sigma
    if not lts.sigma <= sig:
        raise LabelUniverseMismatch(
            f"encoding alphabet {sorted(sig)} must cover the system's {sorted(lts.sigma)}")
    xs = subsets(sig)
    index = {}
    tags: List[EncodedState] = []
    transitions: List[Tuple[int, str, int]] = []

    def intern(state: EncodedState) -> int:
        i = index.get(state)
        if i is None:
            i = len(tags)
            if i >= max_states:
                raise StateBudgetExceeded(i + 1, max_states)
            index[state] = i
            tags.append(state)
        return i

    root_mode = TRIGGERED_ROOTED if rooted else TRIGGERED
    init = intern(EncodedState(root_mode, None, lts.initial))
    frontier = [init]
    seen = {init}
    while frontier:
        i = frontier.pop()
        st = tags[i]
        outgoing: List[Tuple[str, EncodedState]] = []
        s = st.base
        moves = lts.out(s)
        if st.mode in (TRIGGERED, TRIGGERED_ROOTED):
            for lab, targets in moves.items():
                if lab == TIMEOUT:
                    continue
                for d in targets:
                    outgoing.append((lab, EncodedState(st.mode, None, d)))
            env_mode = ENV_ROOTED if st.mode == TRIGGERED_ROOTED else ENV
            for x in xs:
                outgoing.append((eps_label(x), EncodedState(env_mode, x, s)))
            if st.mode == TRIGGERED_ROOTED:
                for x in xs:
                    if lts.idle(s, x):
                        for d in moves.get(TIMEOUT, ()):
                            outgoing.append((t_label(x), EncodedState(ENV, x, d)))
        else:
            x = st.allowed
            for d in moves.get(TAU, ()):
                outgoing.append((TAU, EncodedState(st.mode, x, d)))
            for lab, targets in moves.items():
                if lab in x:
                    for d in targets:
                        outgoing.append((lab, EncodedState(TRIGGERED, None, d)))
            if lts.idle(s, x):
                trig_mode = TRIGGERED_ROOTED if st.mode == ENV_ROOTED else TRIGGERED
                outgoing.append((T_EPS, EncodedState(trig_mode, None, s)))
                for d in moves.get(TIMEOUT, ()):
                    outgoing.append((TIMEOUT, EncodedState(st.mode, x, d)))
        for lab, target in outgoing:
            j = intern(target)
            transitions.append((i, lab, j))
            if j not in seen:
                seen.add(j)
                frontier.append(j)

    labels = set(chain([TAU, TIMEOUT, T_EPS], sig))
    labels.update(eps_label(x) for x in xs)
    if rooted:
        labels.update(t_label(x) for x in xs)
    return Lts(tags, transitions, init, sigma=sig, labels=labels)


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
