"""Abstract syntax for process expressions with time-outs.

The term language has prefixing over visible actions, the hidden action
``tau`` and the time-out action ``t``, binary choice, alphabetised parallel
composition, abstraction (hiding), relational renaming, the two environment
operators ``theta`` / ``psi``, and calls into recursive specifications.

Each operator is a frozen dataclass declared with ``_node``, which records
its fields once; the fields annotated ``Term`` are its subterms.  Walks that
only visit subterms (canonical keys, substitution, free variables, validity,
guardedness) go through ``children`` and ``rebuild`` and name no operator
but the ones whose own rule they apply: mostly a variable and a recursion
call, whose equations lie under its binder, outside ``children``.  What
gives each operator an output of its own stays written out per operator:
the SOS rules (``semantics._step``), rendering (``parser``) and the action
names an operator itself mentions (``_OWN_ACTIONS``).

Terms are immutable.  Equality and hashing go through a canonical key, the
structural key of every node (``Node._make_key``) in which a variable bound
by a recursion call is numbered by its binding structure, so terms that
differ only in the names of bound variables compare equal.  That is the
state identity used by the LTS builder.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields, replace
from functools import cache, cached_property
from graphlib import CycleError, TopologicalSorter
from inspect import get_annotations
from operator import attrgetter
from typing import Iterable, Mapping, Optional, Tuple, Union

from .errors import InvalidResult, LabelUniverseMismatch

TAU = "tau"
TIMEOUT = "t"
# Labels carried by encoded systems only.
T_EPS = "t_eps"

ActionSet = frozenset

_fresh_counter = itertools.count()


def eps_label(members: Iterable[str]) -> str:
    return "eps_{%s}" % ",".join(sorted(members))


def t_label(members: Iterable[str]) -> str:
    return "t_{%s}" % ",".join(sorted(members))


@cache
def label_kind(label: str) -> Tuple[str, Optional[frozenset]]:
    """Classify a transition label; memoised, as it is pure on the string.

    Returns one of ``("tau", None)``, ``("timeout", None)``,
    ``("visible", None)``, ``("t_eps", None)``, ``("eps_set", X)``,
    ``("t_set", X)``.
    """
    if label == TAU:
        return ("tau", None)
    if label == TIMEOUT:
        return ("timeout", None)
    if label == T_EPS:
        return ("t_eps", None)
    for prefix, kind in (("eps_{", "eps_set"), ("t_{", "t_set")):
        if label.startswith(prefix) and label.endswith("}"):
            inner = label[len(prefix):-1]
            members = frozenset(n for n in inner.split(",") if n)
            return (kind, members)
    return ("visible", None)


def is_visible(name: str) -> bool:
    """Whether a name can be a visible action: not tau, t or a label of the encoding."""
    return label_kind(name)[0] == "visible"


def visible_alphabet(names: Iterable[str], what: str = "a declared alphabet") -> frozenset:
    """Freeze a set of visible action names; a reserved name raises
    ``LabelUniverseMismatch``, whose message names the set as ``what``."""
    out = frozenset(names)
    reserved = sorted(a for a in out if not is_visible(a))
    if reserved:
        raise LabelUniverseMismatch(f"reserved names in {what}: {reserved}")
    return out


class Node:
    """Base of the syntax trees: terms here, formulas in ``modal``.

    Subclasses are frozen dataclasses declared with ``_node``.  Equality and
    hashing go through ``key()``, the structural key of ``_make_key`` (for
    a term, through ``_canon_raw``), cached on the node.  A node only ever
    equals a node of its own family.

    Caches live on the instance and are read as attributes, over these
    class-level defaults: reading ``__dict__`` would materialise it, and
    CPython then reads the node's fields more slowly.
    """

    __slots__ = ()
    _key = _hash = _fv = _alpha = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if Node in cls.__bases__:
            cls._family = cls

    def key(self):
        k = self._key
        if k is None:
            k = _canon_raw(self, (), frozenset())
            object.__setattr__(self, "_key", k)
        return k

    def _make_key(self, env, names):
        """The class name, then the class's own fields, then the keys of its
        children, with the variables of ``names`` resolved through ``env``
        (see ``_canon_raw``).  A frozenset becomes a sorted tuple and a tuple
        of nodes the tuple of their keys.  A child's key that depends on no
        enclosing binder is cached on the child."""
        out = [type(self).__name__]
        for v in self._get_own(self):
            if isinstance(v, frozenset):
                v = tuple(sorted(v))
            elif isinstance(v, tuple):
                v = tuple(map(Node.key, v))
            out.append(v)
        # a plain loop, and key() inlined: a comprehension or one more call
        # would take another stack frame per level of a deep term
        for kid in self._get_kids(self):
            if names and free_vars(kid) & names:
                key = _canon_raw(kid, env, names)
            else:
                key = kid._key
                if key is None:
                    key = _canon_raw(kid, (), frozenset())
                    object.__setattr__(kid, "_key", key)
            out.append(key)
        return tuple(out)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, self._family):
            return NotImplemented
        return self.key() == other.key()

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        from .parser import render
        return render(self)


def _node(cls):
    """Freeze ``cls`` and record its structure: ``_fields`` in declaration
    order, ``_kids``, those annotated with its family's base class, and the
    getters of its kids and of its own (other) fields.  A node refuses a
    kid outside its family when it is built, before the class's own
    ``__post_init__`` runs."""
    family, own = cls._family, cls.__dict__.get("__post_init__")
    kids = tuple(name for name, kind in get_annotations(cls).items() if kind == family.__name__)
    get_kids = _getter(kids)
    if kids:   # a leaf adds no call to its construction: a build makes many
        def __post_init__(self):
            for kid in get_kids(self):
                if not isinstance(kid, family):
                    raise TypeError(f"not a {family.__name__.lower()}: {kid!r}")
            if own is not None:
                own(self)

        cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True, eq=False, repr=False)(cls)
    cls._fields = tuple(f.name for f in fields(cls))
    cls._kids = kids
    cls._get_kids = staticmethod(get_kids)
    cls._get_own = staticmethod(_getter(tuple(f for f in cls._fields if f not in kids)))
    return cls


def _getter(names):
    """A function from a node to the tuple of its ``names`` fields; a
    comprehension over the names costs several times as much per call."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda node: (get(node),)
    return lambda node: ()


class Term(Node):
    """Base class of the process operators."""

    __slots__ = ()

    def __repr__(self):
        return f"<{type(self).__name__} {self}>"


def children(term: Term) -> Tuple[Term, ...]:
    """The direct subterms of ``term`` outside recursion binders, in field order."""
    return term._get_kids(term)


def rebuild(term: Term, kids) -> Term:
    """``term`` with its ``children`` replaced, in order, by ``kids``."""
    return replace(term, **dict(zip(term._kids, kids)))


@_node
class Nil(Term):
    pass


@_node
class Var(Term):
    name: str


@_node
class Prefix(Term):
    action: str
    body: Term


@_node
class Choice(Term):
    left: Term
    right: Term


@_node
class Par(Term):
    sync: frozenset
    left: Term
    right: Term


@_node
class Hide(Term):
    hidden: frozenset
    body: Term


@_node
class Rename(Term):
    pairs: frozenset  # of (old, new) visible-name pairs
    body: Term


@_node
class Theta(Term):
    low: frozenset
    high: frozenset
    body: Term

    def __post_init__(self):
        if not self.low <= self.high:
            raise ValueError("theta requires its lower set to be included in the upper set")


@_node
class Psi(Term):
    allowed: frozenset
    body: Term


@dataclass(frozen=True, eq=False, repr=False)
class RecSpec:
    """A set of recursive equations ``x = body`` binding the variables on the left."""

    equations: Tuple[Tuple[str, Term], ...]
    _ckey = _orders = None   # caches, set on the instance

    def __post_init__(self):
        seen = set()
        for name, _ in self.equations:
            if name in seen:
                raise ValueError(f"duplicate equation for {name!r}")
            seen.add(name)

    @cached_property
    def vars(self) -> frozenset:
        return frozenset(name for name, _ in self.equations)

    @property
    def bodies(self) -> Tuple[Term, ...]:
        return tuple(body for _, body in self.equations)

    def body(self, name: str) -> Term:
        for n, b in self.equations:
            if n == name:
                return b
        raise KeyError(name)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, RecSpec):
            return NotImplemented
        return self._cmp_key() == other._cmp_key()

    def _cmp_key(self):
        """The key of a call of the first equation's variable."""
        k = self._ckey
        if k is None:
            k = _call_key(self, self.equations[0][0], (), frozenset()) if self.equations else ()
            object.__setattr__(self, "_ckey", k)
        return k

    def __hash__(self):
        return hash(self._cmp_key())

    def __repr__(self):
        eqs = "; ".join(f"{n} = {b}" for n, b in self.equations)
        return f"<RecSpec {eqs}>"


def spec(equations: Union[Mapping[str, Term], Iterable[Tuple[str, Term]]]) -> RecSpec:
    if isinstance(equations, Mapping):
        equations = equations.items()
    return RecSpec(tuple(equations))


@_node
class RecCall(Term):
    var: str
    spec: RecSpec

    def __post_init__(self):
        if self.var not in self.spec.vars:
            raise ValueError(f"{self.var!r} is not bound by the specification")


NIL = Nil()


# ---------------------------------------------------------------------------
# Canonical keys


def _spec_order(sp: RecSpec, entry: str) -> Tuple[str, ...]:
    """Deterministic ordering of a specification's variables, entry point first.

    Variables are numbered in the order they are first referenced, breadth
    first over equations; unreferenced equations follow sorted by name.
    Computed once per specification and entry.
    """
    orders = sp._orders
    if orders is None:
        orders = {}
        object.__setattr__(sp, "_orders", orders)
    got = orders.get(entry)
    if got is None:
        got = orders[entry] = _first_references(sp, entry)
    return got


def _first_references(sp: RecSpec, entry: str) -> Tuple[str, ...]:
    order = [entry]
    seen = {entry}
    queue = [entry]
    while queue:
        v = queue.pop(0)
        for ref in _spec_refs(sp.body(v), sp.vars, frozenset()):
            if ref not in seen:
                seen.add(ref)
                order.append(ref)
                queue.append(ref)
    for name, _ in sorted(sp.equations):
        if name not in seen:
            seen.add(name)
            order.append(name)
    return tuple(order)


def _spec_refs(term: Term, names: frozenset, shadow: frozenset):
    """Yield references to ``names`` in ``term`` in a deterministic order."""
    if isinstance(term, Var):
        if term.name in names and term.name not in shadow:
            yield term.name
    elif isinstance(term, RecCall):
        inner = shadow | term.spec.vars
        for body in term.spec.bodies:
            yield from _spec_refs(body, names, inner)
    else:
        for kid in children(term):
            yield from _spec_refs(kid, names, shadow)


def _call_key(sp: RecSpec, entry: str, env, names):
    """The key of a call of ``entry`` into ``sp``: its bodies in the order
    of ``_spec_order``, under one more binder that numbers its variables."""
    order = _spec_order(sp, entry)
    env = env + ({name: i for i, name in enumerate(order)},)
    names = names | sp.vars
    out = []
    for name in order:
        out.append(_canon_raw(sp.body(name), env, names))
    return tuple(out)


def _canon_raw(term: Node, env, names):
    """Canonical key of a term (or formula) with the variables of ``names``
    bound through ``env``, a tuple of per-binder maps (innermost last): a
    bound variable becomes (distance-to-binder, index-within-binder).  Every
    other node gets its structural key (``Node._make_key``)."""
    if isinstance(term, Var):
        for dist, scope in enumerate(reversed(env)):
            if term.name in scope:
                return ("b", dist, scope[term.name])
    elif isinstance(term, RecCall):
        return ("RecCall", _call_key(term.spec, term.var, env, names))
    elif not isinstance(term, Node):
        raise TypeError(f"not a term: {term!r}")
    return term._make_key(env, names)


# ---------------------------------------------------------------------------
# Free variables, validity, alphabet


def free_vars(term: Term) -> frozenset:
    """Variables with at least one free occurrence."""
    cached = term._fv
    if cached is not None:
        return cached
    if isinstance(term, Var):
        fv = frozenset((term.name,))
    elif isinstance(term, RecCall):
        fv = frozenset()
        for body in term.spec.bodies:
            fv |= free_vars(body)
        fv -= term.spec.vars
    else:
        fv = frozenset()
        for kid in children(term):
            fv = (fv | free_vars(kid)) if fv else free_vars(kid)
    object.__setattr__(term, "_fv", fv)
    return fv


def is_valid(term: Term) -> bool:
    """False iff a theta/psi argument has a free variable bound by an enclosing binder."""
    return _valid(term, frozenset())


def _valid(term: Term, bound: frozenset) -> bool:
    if isinstance(term, RecCall):
        bound = bound | term.spec.vars
        kids = term.spec.bodies
    else:
        if isinstance(term, (Theta, Psi)) and free_vars(term.body) & bound:
            return False
        kids = children(term)
    for kid in kids:
        if not _valid(kid, bound):
            return False
    return True


# The visible action names an operator itself mentions, beside its subterms'.
# A prefix names its action unless it is tau or t: a reserved label used as
# an action stays in the alphabet, where ``build_lts`` refuses it by name.
_OWN_ACTIONS = {
    Prefix: lambda t: frozenset() if t.action in (TAU, TIMEOUT) else frozenset((t.action,)),
    Par: attrgetter("sync"),
    Hide: attrgetter("hidden"),
    Rename: lambda t: frozenset(a for pair in t.pairs for a in pair),
    Theta: lambda t: t.low | t.high,
    Psi: attrgetter("allowed"),
}


def alphabet(term: Term) -> frozenset:
    """Union of all visible action names occurring syntactically."""
    cached = term._alpha
    if cached is not None:
        return cached
    if isinstance(term, RecCall):
        out, kids = frozenset(), term.spec.bodies
    else:
        own = _OWN_ACTIONS.get(type(term))
        out, kids = (own(term) if own else frozenset()), children(term)
    for kid in kids:
        out = (out | alphabet(kid)) if out else alphabet(kid)
    object.__setattr__(term, "_alpha", out)
    return out


# ---------------------------------------------------------------------------
# Substitution


def substitute(term: Term, mapping: Mapping[str, Term]) -> Term:
    """Capture-avoiding simultaneous substitution; the result must stay valid."""
    out = _subst(term, dict(mapping))
    if not is_valid(out):
        raise InvalidResult(f"substitution produced an invalid expression: {out!r}")
    return out


def _subst(term: Term, mapping) -> Term:
    if not mapping:
        return term
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if isinstance(term, RecCall):
        live = {v: t for v, t in mapping.items()
                if v not in term.spec.vars and v in free_vars(term)}
        if not live:
            return term
        clashes = term.spec.vars & frozenset().union(
            *(free_vars(t) for t in live.values()))
        sp = term.spec
        var = term.var
        if clashes:
            ren = {v: f"{v}~{next(_fresh_counter)}" for v in clashes}
            renaming = {v: Var(n) for v, n in ren.items()}
            sp = RecSpec(tuple((ren.get(n, n), _subst(b, renaming))
                               for n, b in sp.equations))
            var = ren.get(var, var)
        sp = RecSpec(tuple((n, _subst(b, live)) for n, b in sp.equations))
        return RecCall(var, sp)
    if not isinstance(term, Term):
        raise TypeError(f"not a term: {term!r}")
    kids = children(term)
    if not kids:
        return term
    # a plain loop: a comprehension would take a stack frame per level
    new = []
    for kid in kids:
        new.append(_subst(kid, mapping))
    return rebuild(term, new)


def unfold(call: RecCall, calls: Mapping[str, RecCall] = None) -> Term:
    """The body of a recursion call with every bound variable re-tied to the spec.

    ``calls`` gives the call each variable is re-tied to; by default they
    are made afresh for this unfolding.
    """
    sp = call.spec
    if calls is None:
        calls = {v: RecCall(v, sp) for v in sp.vars}
    return _subst(sp.body(call.var), calls)


def spec_apply(term: Term, sp: RecSpec) -> Term:
    """Substitute a call for each of the specification's variables in ``term``."""
    return substitute(term, {v: RecCall(v, sp) for v in sp.vars})


# ---------------------------------------------------------------------------
# Syntactic well-guardedness


def is_well_guarded(sp: RecSpec) -> bool:
    """Whether repeated substitution can make every variable visibly guarded.

    Detected by a dependency analysis: an occurrence of a bound variable not
    under a visible-action prefix induces an edge, and the specification is
    accepted iff that graph is acyclic and no hiding operator occurs in it.
    tau and t do not guard.
    """
    edges = {name: set() for name, _ in sp.equations}
    for name, body in sp.equations:
        if _has_hide(body):
            return False
        _unguarded(body, sp.vars, frozenset(), False, edges[name])
    return _acyclic(edges)


def _acyclic(graph: Mapping) -> bool:
    """Whether the graph, each node mapped to its successors, has no cycle,
    a self-loop included."""
    try:
        TopologicalSorter(graph).prepare()
    except CycleError:
        return False
    return True


def _has_hide(term: Term) -> bool:
    if isinstance(term, Hide):
        return True
    for kid in term.spec.bodies if isinstance(term, RecCall) else children(term):
        if _has_hide(kid):
            return True
    return False


def _unguarded(term, names, shadow, guarded, out):
    if isinstance(term, Var):
        if term.name in names and term.name not in shadow and not guarded:
            out.add(term.name)
    elif isinstance(term, RecCall):
        inner = shadow | term.spec.vars
        for body in term.spec.bodies:
            _unguarded(body, names, inner, guarded, out)
    else:
        guarded = guarded or (isinstance(term, Prefix) and is_visible(term.action))
        for kid in children(term):
            _unguarded(kid, names, shadow, guarded, out)


def is_guarded(term: Term) -> bool:
    """Every recursive specification occurring in the term is well-guarded."""
    if isinstance(term, RecCall):
        if not is_well_guarded(term.spec):
            return False
        kids = term.spec.bodies
    else:
        kids = children(term)
    for kid in kids:
        if not is_guarded(kid):
            return False
    return True


# ---------------------------------------------------------------------------
# Convenience constructors


def prefix(action: str, body: Term = NIL) -> Term:
    return Prefix(action, body)


def seq(*actions: str) -> Term:
    """a.b.c.0 style chains."""
    out: Term = NIL
    for a in reversed(actions):
        out = Prefix(a, out)
    return out


def choice(*parts: Term) -> Term:
    if not parts:
        return NIL
    out = parts[0]
    for p in parts[1:]:
        out = Choice(out, p)
    return out


def par(sync: Iterable[str], left: Term, right: Term) -> Term:
    return Par(visible_alphabet(sync, "an action set"), left, right)


def hide(hidden: Iterable[str], body: Term) -> Term:
    return Hide(visible_alphabet(hidden, "an action set"), body)


def rename(pairs: Iterable[Tuple[str, str]], body: Term) -> Term:
    frozen = frozenset(pairs)
    visible_alphabet((a for pair in frozen for a in pair), "a renaming")
    return Rename(frozen, body)


def theta(low: Iterable[str], high: Iterable[str], body: Term) -> Term:
    return Theta(visible_alphabet(low, "an action set"),
                 visible_alphabet(high, "an action set"), body)


def theta_x(allowed: Iterable[str], body: Term) -> Term:
    x = visible_alphabet(allowed, "an action set")
    return Theta(x, x, body)


def psi(allowed: Iterable[str], body: Term) -> Term:
    return Psi(visible_alphabet(allowed, "an action set"), body)


def rec(var: str, equations) -> RecCall:
    return RecCall(var, equations if isinstance(equations, RecSpec) else spec(equations))
