import random
import typing

import pytest

from ccspt import (NIL, Choice, InvalidResult, Prefix, RecCall, Var, alphabet,
                   free_vars, is_valid, is_well_guarded, parse_spec,
                   parse_term, rec, render, spec, substitute, theta, theta_x, psi)
from ccspt.sampling import guarded_spec_pool, random_term
from ccspt.terms import Term, _has_hide, _unguarded, children, is_guarded, rebuild, seq


def test_free_vars():
    assert free_vars(NIL) == frozenset()
    assert free_vars(Var("x")) == {"x"}
    assert free_vars(rec("x", {"x": Prefix("a", Var("x"))})) == frozenset()
    assert free_vars(Choice(Var("x"), Var("y"))) == {"x", "y"}


def test_validity():
    bad = rec("y", {"y": theta([], ["a"], Var("y"))})
    assert not is_valid(bad)
    assert is_valid(theta([], ["a"], parse_term("a.0")))
    assert is_valid(psi(["a"], Var("x")))


def test_theta_requires_lower_in_upper():
    with pytest.raises(ValueError):
        theta(["a", "b"], ["a"], NIL)


def test_constructors_refuse_reserved_names():
    from ccspt import LabelUniverseMismatch, hide, par, rename
    for build in (lambda: hide(["t_eps"], NIL), lambda: par(["tau"], NIL, NIL),
                  lambda: theta_x(["t"], NIL), lambda: psi(["eps_{a}"], NIL)):
        with pytest.raises(LabelUniverseMismatch, match="an action set"):
            build()
    with pytest.raises(LabelUniverseMismatch, match="a renaming: \\['t_eps'\\]"):
        rename([("a", "t_eps")], NIL)


def test_substitute_examples():
    out = substitute(Prefix("a", Var("x")), {"x": parse_term("b.0")})
    assert out == parse_term("a.b.0")
    out = substitute(Choice(Var("x"), Var("y")), {"x": NIL})
    assert out == Choice(NIL, Var("y"))
    call = rec("x", {"x": Prefix("a", Var("x"))})
    assert substitute(call, {"x": NIL}) == call


def test_substitute_capture_avoiding():
    # the substituted body mentions x, which the spec binds: must be freshened
    call = rec("x", {"x": Prefix("a", Choice(Var("x"), Var("u")))})
    out = substitute(call, {"u": Var("x")})
    assert free_vars(out) == {"x"}
    inner = out.spec.body(out.var)
    assert isinstance(inner, Prefix)
    left = inner.body.left
    assert isinstance(left, Var) and left.name != "x"


def test_substitute_preserves_validity_by_freshening():
    body = theta([], ["a"], Var("u"))
    outer = rec("y", {"y": Prefix("a", Choice(Var("y"), body))})
    assert is_valid(outer)
    # substituting y for u must rename the binder, not capture
    out = substitute(outer, {"u": Var("y")})
    assert is_valid(out)
    assert free_vars(out) == {"y"}
    assert out.var != "y"


def test_substitute_invalid_input_detected():
    # raw construction can bypass validity; substitution refuses to return it
    invalid = RecCall("y", spec({"y": theta([], ["a"], Var("y"))}))
    assert not is_valid(invalid)
    with pytest.raises(InvalidResult):
        substitute(Choice(invalid, Var("w")), {"w": NIL})


def test_substitute_composition(rng):
    from ccspt.sampling import random_term
    for _ in range(25):
        closed1 = random_term(rng, ("a", "b"), 2)
        closed2 = random_term(rng, ("a", "b"), 2)
        expr = Choice(Prefix("a", Var("u")), Choice(Var("v"), Prefix("t", Var("u"))))
        one = substitute(substitute(expr, {"u": closed1}), {"v": closed2})
        both = substitute(expr, {"u": closed1, "v": closed2})
        assert one == both


def test_alphabet():
    assert alphabet(parse_term("a.0 ||{b} c.0")) == {"a", "b", "c"}
    assert alphabet(theta(["d"], ["d", "e"], NIL)) == {"d", "e"}
    assert alphabet(NIL) == frozenset()


def test_alpha_invariant_equality():
    a = rec("x", {"x": Prefix("a", Var("x"))})
    b = rec("v", {"v": Prefix("a", Var("v"))})
    assert a == b
    assert hash(a) == hash(b)
    c = rec("x", {"x": Prefix("a", Var("y")), "y": Prefix("b", Var("x"))})
    d = rec("p", {"p": Prefix("a", Var("q")), "q": Prefix("b", Var("p"))})
    assert c == d
    assert a != c


def test_well_guardedness():
    assert is_well_guarded(parse_spec("x = a.x"))
    assert not is_well_guarded(parse_spec("x = x"))
    assert not is_well_guarded(parse_spec("x = t.(a.0 + tau.x)"))
    assert not is_well_guarded(parse_spec("x = tau.x"))
    assert not is_well_guarded(spec({"x": Prefix("a", Var("y")),
                                     "y": Var("x")})) is False  # acyclic via a-guard
    # substitution chain: x unguarded on y, y guarded; acyclic, so accepted
    assert is_well_guarded(spec({"x": Var("y"), "y": Prefix("a", Var("x"))}))
    # hiding anywhere disqualifies
    from ccspt.terms import hide
    assert not is_well_guarded(spec({"x": hide(["a"], Prefix("a", Var("x")))}))


def reference_well_guarded(sp):
    """The recursive depth-first cycle search ``is_well_guarded`` ran before
    it asked ``graphlib``: the reference it is compared against."""
    edges = {name: set() for name, _ in sp.equations}
    for name, body in sp.equations:
        if _has_hide(body):
            return False
        _unguarded(body, sp.vars, frozenset(), False, edges[name])
    state = {}  # 0 visiting, 1 done

    def dfs(v):
        state[v] = 0
        for w in edges[v]:
            if state.get(w) == 0:
                return False
            if w not in state and not dfs(w):
                return False
        state[v] = 1
        return True

    return all(dfs(v) for v in edges if v not in state)


def specs_in(term):
    """The specifications of every recursion call in ``term``, nested ones too."""
    found, stack = {}, [term]
    while stack:
        t = stack.pop()
        if isinstance(t, RecCall):
            if id(t.spec) not in found:
                found[id(t.spec)] = t.spec
                stack.extend(t.spec.bodies)
        else:
            stack.extend(children(t))
    return list(found.values())


def test_well_guardedness_matches_the_reference_search():
    from test_acceptance import _sample_pair
    pool = [sp for sigma in (("a",), ("a", "b")) for sp in guarded_spec_pool(sigma)]
    hand = [parse_spec(text) for text in (
        "x = x", "x = y; y = z; z = x", "x = y + a.x; y = tau.x", "x = a.y; y = b.z; z = x",
        "x = y; y = z; z = w; w = a.x", "x = y; y = z; z = w; w = tau.x",
        "x = t.y; y = x ||{} a.0", "x = <y|{y = x}>", "x = a.<y|{y = y}>",
        "x = y + z; y = a.x; z = w; w = x", "x = y + z; y = w; z = w; w = a.x")]
    rng = random.Random(20240)
    sampled = [sp for i in range(500) for t in _sample_pair(rng, i)[:2] for sp in specs_in(t)]
    specs = pool + hand + sampled
    assert len(sampled) > 100
    verdicts = [is_well_guarded(sp) for sp in specs]
    assert verdicts == [reference_well_guarded(sp) for sp in specs]
    assert True in verdicts and False in verdicts[len(pool):len(pool) + len(hand)]


def test_is_guarded_checks_nested_specs():
    good = rec("x", {"x": Prefix("a", Var("x"))})
    assert is_guarded(good)
    bad = Choice(good, rec("y", {"y": Var("y")}))
    assert not is_guarded(bad)


def test_seq_builder():
    assert seq("a", "t", "b") == parse_term("a.t.b.0")


def test_walks_take_one_frame_per_level():
    def chain():
        out = Var("x")
        for _ in range(12_000):
            out = Prefix("a", out)
        return out

    assert free_vars(chain()) == {"x"}
    assert alphabet(chain()) == {"a"}
    assert is_valid(chain())
    assert is_guarded(chain())
    assert free_vars(substitute(chain(), {"x": NIL})) == frozenset()
    assert render(chain()).startswith("a.a.")


def test_kids_are_the_fields_annotated_term():
    operators = Term.__subclasses__()
    assert len(operators) == 10
    for cls in operators:
        hints = typing.get_type_hints(cls)
        assert cls._kids == tuple(n for n, t in hints.items() if t is Term), cls


def test_rebuild_from_children_is_identity(rng):
    for _ in range(200):
        t = random_term(rng, ("a", "b"), 4)
        assert rebuild(t, children(t)) == t
    swapped = rebuild(Choice(NIL, Var("x")), (Var("x"), NIL))
    assert swapped == Choice(Var("x"), NIL)


# ---------------------------------------------------------------------------
# the one structural key


def test_same_shape_operators_keep_distinct_keys_and_states():
    from ccspt import build_lts, hide
    from ccspt.modal import Diamond, EnvBox, HatDiamond, TimeoutDiamond, Top
    p = parse_term("b.0")
    assert hide(["a"], p) != psi(["a"], p)
    # root, hide{a}(b.0), psi{a}(b.0), hide{a}(0) and 0
    lts = build_lts(Choice(Prefix("tau", hide(["a"], p)), Prefix("tau", psi(["a"], p))))
    assert lts.num_states == 5
    x = frozenset({"a"})
    for f, g in ((EnvBox(x, Top()), TimeoutDiamond(x, Top())),
                 (Diamond("a", Top()), HatDiamond("a", Top()))):
        assert f != g and len({f, g}) == 2


def test_a_term_never_equals_a_formula():
    from ccspt.modal import EnvBox, Top
    x = frozenset({"a"})
    term, formula = psi(x, NIL), EnvBox(x, Top())
    assert term != formula and formula != term
    assert {term: 1}.get(formula) is None and {formula: 1}.get(term) is None


def test_spec_equality_up_to_renaming():
    one = parse_spec("x = a.y + tau.z; y = b.z; z = t.x")
    two = parse_spec("p = a.q + tau.r; q = b.r; r = t.p")
    assert one == two and hash(one) == hash(two)
    assert one != parse_spec("p = a.q + tau.r; q = b.r; r = t.q")
    assert one != parse_spec("p = a.q + tau.r; q = c.r; r = t.p")


def test_substitute_keeps_each_operator_own_fields():
    from ccspt import hide, par, rename
    x, b = Var("x"), parse_term("b.0")
    for build in (lambda s: par(["a"], s, Prefix("a", s)), lambda s: hide(["a"], s),
                  lambda s: rename([("a", "c")], s), lambda s: theta(["a"], ["a", "b"], s),
                  lambda s: psi(["a"], s)):
        got = substitute(build(x), {"x": b})
        assert got == build(b) and render(got) == render(build(b))


def test_a_non_term_is_a_type_error():
    from ccspt.modal import Diamond, Not
    from ccspt.terms import _canon_raw
    with pytest.raises(TypeError, match="not a term: 42"):
        _canon_raw(42, (), frozenset())
    with pytest.raises(TypeError, match="not a term: 42"):
        substitute(Prefix("a", 42), {"x": NIL})
    # a child outside the node's family is refused when the node is built
    with pytest.raises(TypeError, match="not a term: 42"):
        Prefix("a", 42)
    with pytest.raises(TypeError, match="not a term: 42"):
        Choice(NIL, 42)
    with pytest.raises(TypeError, match="not a formula: <Nil 0>"):
        Diamond("a", NIL)
    with pytest.raises(TypeError, match="not a formula: 42"):
        Not(42)
