"""Equational axiom schemas, head-normal forms, and a randomized soundness harness.

Each schema carries a symbolic statement, a side condition over bindings, and
a sampler producing side-condition-respecting random bindings.  The harness
instantiates schemas with random closed guarded processes and asserts the
designated rooted equivalence; failures are reported as data, never raised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import bisim
from .encode import encode as _encode_lts, subsets
from .errors import SideConditionViolated, UnfoldingDiverged
from .parser import render
from .sampling import guarded_spec_pool, random_process
from .semantics import TAU, TIMEOUT, build_lts, step
from .terms import (NIL, Choice, Hide, Par, Prefix, Psi, RecCall, Rename,
                    Term, Theta, alphabet, choice, is_visible, spec_apply)


@dataclass
class AxiomSchema:
    """One axiom: symbolic statement, side condition, sampler, and builder."""

    name: str
    statement: str
    sort: str  # "both", "ax-only", "axr-only", "derived"
    build: Callable[[dict], Tuple[Term, Term]]
    side_condition: Callable[[dict], bool] = field(default=lambda b: True)
    sample: Callable[["_SampleEnv", random.Random], dict] = field(default=None)

    def __repr__(self):
        return f"<AxiomSchema {self.name}: {self.statement}>"


class _SampleEnv:
    def __init__(self, sigma, depth, max_states, rng):
        self.sigma = list(sigma)
        self.depth = depth
        self.max_states = max_states
        self.pool = guarded_spec_pool(self.sigma)
        self.rng = rng

    def term(self) -> Term:
        term, _ = random_process(self.rng, self.sigma, self.depth,
                                 max_states=self.max_states, pool=self.pool)
        return term

    def action(self) -> str:
        return self.rng.choice(self.sigma + [TAU, TIMEOUT])

    def subset(self, prob=0.4) -> frozenset:
        return frozenset(a for a in self.sigma if self.rng.random() < prob)


def instantiate(schema: AxiomSchema, bindings: dict) -> Tuple[Term, Term]:
    """Ground equation pair; raises when the side condition is violated."""
    if not schema.side_condition(bindings):
        raise SideConditionViolated(f"{schema.name}: side condition fails")
    return schema.build(bindings)


# ---------------------------------------------------------------------------
# Schema definitions


def _xyz(env, rng, names=("x", "y", "z")):
    return {n: env.term() for n in names}


_SCHEMAS: List[AxiomSchema] = []


def _schema(name, statement, sort, build, side=None, sample=_xyz):
    """Register a schema.  With a side condition, the sampler draws again
    until the condition holds (``_pick``)."""
    schema = AxiomSchema(name, statement, sort, build, sample=sample)
    if side is not None:
        schema.side_condition = side
        schema.sample = lambda env, rng: _pick(sample(env, rng), side, env, sample)
    _SCHEMAS.append(schema)


_schema("sum-assoc", "x + (y + z) = (x + y) + z", "both",
        lambda b: (Choice(b["x"], Choice(b["y"], b["z"])),
                   Choice(Choice(b["x"], b["y"]), b["z"])))

_schema("sum-comm", "x + y = y + x", "both",
        lambda b: (Choice(b["x"], b["y"]), Choice(b["y"], b["x"])),
        sample=lambda env, rng: _xyz(env, rng, ("x", "y")))

# printed with 0 on the right in the source table; idempotence is what is
# sound, and the harness is the arbiter
_schema("sum-idem", "x + x = x", "both",
        lambda b: (Choice(b["x"], b["x"]), b["x"]),
        sample=lambda env, rng: _xyz(env, rng, ("x",)))

_schema("sum-unit", "x + 0 = x", "both",
        lambda b: (Choice(b["x"], NIL), b["x"]),
        sample=lambda env, rng: _xyz(env, rng, ("x",)))


def _sample_hide(env, rng):
    return {"x": env.term(), "y": env.term(), "I": env.subset(),
            "alpha": env.action()}


_schema("hide-choice", "hide_I(x + y) = hide_I(x) + hide_I(y)", "both",
        lambda b: (Hide(b["I"], Choice(b["x"], b["y"])),
                   Choice(Hide(b["I"], b["x"]), Hide(b["I"], b["y"]))),
        sample=_sample_hide)

_schema("hide-prefix-free", "hide_I(alpha.x) = alpha.hide_I(x) if alpha not in I",
        "both",
        lambda b: (Hide(b["I"], Prefix(b["alpha"], b["x"])),
                   Prefix(b["alpha"], Hide(b["I"], b["x"]))),
        side=lambda b: b["alpha"] not in b["I"],
        sample=_sample_hide)

_schema("hide-prefix-hidden", "hide_I(a.x) = tau.hide_I(x) if a in I", "both",
        lambda b: (Hide(b["I"], Prefix(b["alpha"], b["x"])),
                   Prefix(TAU, Hide(b["I"], b["x"]))),
        side=lambda b: b["alpha"] in b["I"],
        sample=lambda env, rng: {"x": env.term(),
                                 "I": (s := env.subset(0.6) or
                                       frozenset([env.sigma[0]])),
                                 "alpha": rng.choice(sorted(s))})


_PICK_TRIES = 50


def _pick(bindings, cond, env, resample):
    rng = env.rng
    tries = _PICK_TRIES
    while not cond(bindings) and tries:
        bindings = resample(env, rng)
        tries -= 1
    if not cond(bindings):
        raise SideConditionViolated("sampler failed to satisfy the side condition")
    return bindings


def _sample_rename(env, rng):
    pairs = frozenset((a, rng.choice(env.sigma)) for a in env.sigma
                      if rng.random() < 0.5)
    return {"x": env.term(), "y": env.term(), "R": pairs,
            "a": rng.choice(env.sigma)}


_schema("rename-choice", "R(x + y) = R(x) + R(y)", "both",
        lambda b: (Rename(b["R"], Choice(b["x"], b["y"])),
                   Choice(Rename(b["R"], b["x"]), Rename(b["R"], b["y"]))),
        sample=_sample_rename)

_schema("rename-tau", "R(tau.x) = tau.R(x)", "both",
        lambda b: (Rename(b["R"], Prefix(TAU, b["x"])),
                   Prefix(TAU, Rename(b["R"], b["x"]))),
        sample=_sample_rename)

_schema("rename-timeout", "R(t.x) = t.R(x)", "both",
        lambda b: (Rename(b["R"], Prefix(TIMEOUT, b["x"])),
                   Prefix(TIMEOUT, Rename(b["R"], b["x"]))),
        sample=_sample_rename)

_schema("rename-prefix", "R(a.x) = sum of b.R(x) over (a,b) in R", "both",
        lambda b: (Rename(b["R"], Prefix(b["a"], b["x"])),
                   choice(*[Prefix(bb, Rename(b["R"], b["x"]))
                         for (aa, bb) in sorted(b["R"]) if aa == b["a"]])),
        side=lambda b: is_visible(b["a"]),
        sample=_sample_rename)


def _sample_expansion(env, rng):
    def head(n):
        return [(env.action(), env.term()) for _ in range(rng.randint(0, n))]
    return {"left": head(2), "right": head(2), "S": env.subset()}


def _build_expansion(b):
    sync = b["S"]
    left, right = b["left"], b["right"]
    p = choice(*[Prefix(a, t) for a, t in left])
    q = choice(*[Prefix(a, t) for a, t in right])
    parts = []
    for a, t in left:
        if a not in sync:
            parts.append(Prefix(a, Par(sync, t, q)))
    for a, t in right:
        if a not in sync:
            parts.append(Prefix(a, Par(sync, p, t)))
    for a, t in left:
        if a in sync:
            for a2, t2 in right:
                if a2 == a:
                    parts.append(Prefix(a, Par(sync, t, t2)))
    return Par(sync, p, q), choice(*parts)


_schema("expansion", "P ||_S Q expands into interleavings and synchronisations",
        "both", _build_expansion, sample=_sample_expansion)


def _sample_branching(env, rng):
    return {"alpha": env.action(), "x": env.term(), "y": env.term(),
            "ys": [env.term() for _ in range(rng.randint(0, 2))]}


_schema("branching", "alpha.(tau.(x + y) + x) = alpha.(x + y)", "both",
        lambda b: (Prefix(b["alpha"], Choice(Prefix(TAU, Choice(b["x"], b["y"])),
                                             b["x"])),
                   Prefix(b["alpha"], Choice(b["x"], b["y"]))),
        sample=_sample_branching)

def _tb_inner(b):
    if not b["ys"]:
        return b["x"]
    return Choice(b["x"], choice(*[Prefix(TIMEOUT, y) for y in b["ys"]]))


_schema("t-branching",
        "alpha.(t.(x + sum t.y_i) + x) = alpha.(x + sum t.y_i)", "both",
        lambda b: (Prefix(b["alpha"], Choice(Prefix(TIMEOUT, _tb_inner(b)), b["x"])),
                   Prefix(b["alpha"], _tb_inner(b))),
        sample=_sample_branching)


_schema("tau-t-branching",
        "alpha.(tau.(x + y) + t.(x + y) + x) = alpha.(x + y)", "ax-only",
        lambda b: (Prefix(b["alpha"],
                          Choice(Choice(Prefix(TAU, Choice(b["x"], b["y"])),
                                        Prefix(TIMEOUT, Choice(b["x"], b["y"]))),
                                 b["x"])),
                   Prefix(b["alpha"], Choice(b["x"], b["y"]))),
        sample=_sample_branching)

_schema("l-tau", "tau.x + t.y = tau.x", "derived",
        lambda b: (Choice(Prefix(TAU, b["x"]), Prefix(TIMEOUT, b["y"])),
                   Prefix(TAU, b["x"])),
        sample=lambda env, rng: _xyz(env, rng, ("x", "y")))


def _sample_rdp(env, rng):
    sp = rng.choice(env.pool)
    return {"S": sp, "var": rng.choice(sorted(sp.vars))}


_schema("rdp", "<x|S> = <S_x|S>", "both",
        lambda b: (RecCall(b["var"], b["S"]),
                   spec_apply(b["S"].body(b["var"]), b["S"])),
        sample=_sample_rdp)


def _sample_theta(env, rng):
    low = env.subset(0.3)
    high = low | env.subset(0.3)
    return {"x": env.term(), "y": env.term(), "z": env.term(),
            "L": low, "U": high,
            "alpha": env.action(), "beta": env.action()}


def _theta_heads(env, rng):
    b = _sample_theta(env, rng)
    b["moves"] = [(env.action(), env.term())
                  for _ in range(rng.randint(0, 3))]
    return b


_schema("theta-stuck",
        "theta_L^U(sum alpha_i.x_i) = sum alpha_i.x_i if no alpha_i in L or tau",
        "both",
        lambda b: (Theta(b["L"], b["U"], choice(*[Prefix(a, t) for a, t in b["moves"]])),
                   choice(*[Prefix(a, t) for a, t in b["moves"]])),
        side=lambda b: all(a not in b["L"] and a != TAU for a, _ in b["moves"]),
        sample=_theta_heads)

_schema("theta-prune",
        "theta_L^U(x + alpha.y + beta.z) = theta_L^U(x + alpha.y) "
        "if alpha in L+tau and beta not in U+tau", "both",
        lambda b: (Theta(b["L"], b["U"],
                         Choice(Choice(b["x"], Prefix(b["alpha"], b["y"])),
                                Prefix(b["beta"], b["z"]))),
                   Theta(b["L"], b["U"],
                         Choice(b["x"], Prefix(b["alpha"], b["y"])))),
        side=lambda b: ((b["alpha"] in b["L"] or b["alpha"] == TAU)
                        and b["beta"] not in b["U"] and b["beta"] != TAU),
        sample=_sample_theta)

_schema("theta-split",
        "theta_L^U(x + alpha.y + beta.z) = theta_L^U(x + alpha.y) + theta_L^U(beta.z) "
        "if alpha in L+tau and beta in U+tau", "both",
        lambda b: (Theta(b["L"], b["U"],
                         Choice(Choice(b["x"], Prefix(b["alpha"], b["y"])),
                                Prefix(b["beta"], b["z"]))),
                   Choice(Theta(b["L"], b["U"],
                                Choice(b["x"], Prefix(b["alpha"], b["y"]))),
                          Theta(b["L"], b["U"], Prefix(b["beta"], b["z"])))),
        side=lambda b: ((b["alpha"] in b["L"] or b["alpha"] == TAU)
                        and (b["beta"] in b["U"] or b["beta"] == TAU)),
        sample=_sample_theta)

_schema("theta-prefix", "theta_L^U(alpha.x) = alpha.x if alpha is not tau", "both",
        lambda b: (Theta(b["L"], b["U"], Prefix(b["alpha"], b["x"])),
                   Prefix(b["alpha"], b["x"])),
        side=lambda b: b["alpha"] != TAU,
        sample=_sample_theta)

_schema("theta-tau", "theta_L^U(tau.x) = tau.theta_L^U(x)", "both",
        lambda b: (Theta(b["L"], b["U"], Prefix(TAU, b["x"])),
                   Prefix(TAU, Theta(b["L"], b["U"], b["x"]))),
        sample=_sample_theta)


def _sample_psi(env, rng):
    return {"x": env.term(), "y": env.term(), "z": env.term(),
            "X": env.subset(), "alpha": env.action(), "beta": env.action(),
            "ys": [env.term() for _ in range(rng.randint(0, 3))]}


_schema("psi-foreign",
        "psi_X(x + alpha.y) = psi_X(x) + alpha.y if alpha not in X+tau+t", "both",
        lambda b: (Psi(b["X"], Choice(b["x"], Prefix(b["alpha"], b["y"]))),
                   Choice(Psi(b["X"], b["x"]), Prefix(b["alpha"], b["y"]))),
        side=lambda b: (b["alpha"] not in b["X"]
                        and b["alpha"] not in (TAU, TIMEOUT)),
        sample=_sample_psi)

_schema("psi-prune",
        "psi_X(x + alpha.y + t.z) = psi_X(x + alpha.y) if alpha in X+tau", "both",
        lambda b: (Psi(b["X"], Choice(Choice(b["x"], Prefix(b["alpha"], b["y"])),
                                      Prefix(TIMEOUT, b["z"]))),
                   Psi(b["X"], Choice(b["x"], Prefix(b["alpha"], b["y"])))),
        side=lambda b: b["alpha"] in b["X"] or b["alpha"] == TAU,
        sample=_sample_psi)

_schema("psi-split",
        "psi_X(x + alpha.y + beta.z) = psi_X(x + alpha.y) + beta.z "
        "if alpha, beta in X+tau", "both",
        lambda b: (Psi(b["X"], Choice(Choice(b["x"], Prefix(b["alpha"], b["y"])),
                                      Prefix(b["beta"], b["z"]))),
                   Choice(Psi(b["X"], Choice(b["x"], Prefix(b["alpha"], b["y"]))),
                          Prefix(b["beta"], b["z"]))),
        side=lambda b: ((b["alpha"] in b["X"] or b["alpha"] == TAU)
                        and (b["beta"] in b["X"] or b["beta"] == TAU)),
        sample=_sample_psi)

_schema("psi-prefix", "psi_X(alpha.x) = alpha.x if alpha is not t", "both",
        lambda b: (Psi(b["X"], Prefix(b["alpha"], b["x"])),
                   Prefix(b["alpha"], b["x"])),
        side=lambda b: b["alpha"] != TIMEOUT,
        sample=_sample_psi)

# printed with psi_X on the right in the source table; the theta form is what
# the operational rules produce, and the harness is the arbiter
_schema("psi-timeout-sum",
        "psi_X(sum t.y_i) = sum t.theta_X(y_i)", "both",
        lambda b: (Psi(b["X"], choice(*[Prefix(TIMEOUT, y) for y in b["ys"]])),
                   choice(*[Prefix(TIMEOUT, Theta(b["X"], b["X"], y))
                         for y in b["ys"]])),
        sample=_sample_psi)


def schema_set(which: str) -> List[AxiomSchema]:
    """The axiom families: ``Ax`` for rooted t-branching bisimilarity, ``Axr``
    for rooted branching reactive bisimilarity (``Axr`` drops the
    tau/t-branching axiom, which its reactive approximation axiom makes
    redundant).  Derived laws belong to neither set."""
    if which == "Ax":
        return [s for s in _SCHEMAS if s.sort in ("both", "ax-only")]
    if which == "Axr":
        return [s for s in _SCHEMAS if s.sort in ("both", "axr-only")]
    if which == "derived":
        return [s for s in _SCHEMAS if s.sort == "derived"]
    raise ValueError(f"unknown axiom family {which!r}")


def named_schema(name: str) -> AxiomSchema:
    for s in _SCHEMAS:
        if s.name == name:
            return s
    raise KeyError(name)


def all_schemas() -> List[AxiomSchema]:
    return list(_SCHEMAS)


# ---------------------------------------------------------------------------
# Head-normal form


def head_normal_form(term: Term) -> Term:
    """The sum of prefixed derivatives over the term's outgoing transitions."""
    moves = step(term)
    ordered = sorted(moves, key=lambda mv: (mv[0], render(mv[1])))
    return choice(*[Prefix(lab, target) for lab, target in ordered])


# ---------------------------------------------------------------------------
# Equivalence backends and the harness


def _systems(t1: Term, t2: Term, sigma: Iterable[str]):
    """The systems of two terms over their alphabets and ``sigma``, and that alphabet."""
    sig = frozenset(sigma) | alphabet(t1) | alphabet(t2)
    return build_lts(t1, sigma=sig), build_lts(t2, sigma=sig), sig


def rooted_brb_equiv(t1: Term, t2: Term, sigma: Iterable[str] = ()) -> bool:
    l1, l2, sig = _systems(t1, t2, sigma)
    return bisim.brb_check(l1, l1.initial, l2, l2.initial,
                           rooted=True, sigma=sig).equivalent


def rooted_tb_equiv(t1: Term, t2: Term, sigma: Iterable[str] = ()) -> bool:
    l1, l2, sig = _systems(t1, t2, sigma)
    e1, e2 = (_encode_lts(lts, rooted=True, sigma=sig) for lts in (l1, l2))
    return bisim.tb_check(e1, e1.initial, e2, e2.initial, rooted=True).equivalent


def soundness_suite(which: str, checker: Optional[Callable[[Term, Term], bool]] = None,
                    samples: int = 50, seed: int = 0,
                    sigma: Sequence[str] = ("a", "b"), depth: int = 3,
                    max_states: int = 16, axiom: Optional[str] = None) -> dict:
    """Randomized soundness: every schema instantiation must satisfy the
    designated relation.  Failures are collected, not raised.  ``samples``
    must be positive: with none, every schema would read as sound."""
    if samples <= 0:
        raise ValueError(f"samples must be positive, not {samples}")
    if checker is None:
        checker = rooted_tb_equiv if which == "Ax" else rooted_brb_equiv
    schemas = schema_set(which) if axiom is None else [named_schema(axiom)]
    rng = random.Random(seed)
    env = _SampleEnv(sigma, depth, max_states, rng)
    report = {"which": which, "samples": samples, "seed": seed, "axioms": []}
    for schema in schemas:
        passes = 0
        failures = []
        for _ in range(samples):
            bindings = schema.sample(env, rng)
            lhs, rhs = instantiate(schema, bindings)
            try:
                ok = checker(lhs, rhs)
            except UnfoldingDiverged:
                ok = False
            if ok:
                passes += 1
            else:
                failures.append({"lhs": render(lhs), "rhs": render(rhs)})
        report["axioms"].append({"axiom": schema.name, "passes": passes,
                                 "failures": failures})
    return report


def soundness_raa(p: Term, q: Term, sigma: Iterable[str] = ()) -> bool:
    """The reactive approximation axiom as an implication over all X.

    Whenever psi_X(p) and psi_X(q) are rooted-equivalent for every X in the
    powerset of the shared alphabet, p and q must be rooted-equivalent too;
    vacuously true when the premise fails.
    """
    sig = frozenset(sigma) | alphabet(p) | alphabet(q)
    for x in subsets(sig):
        if not rooted_brb_equiv(Psi(x, p), Psi(x, q), sig):
            return True
    return rooted_brb_equiv(p, q, sig)
