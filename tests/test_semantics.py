import random

import pytest

from ccspt import (ExplorationLimits, LabelUniverseMismatch, ParseError,
                   StateBudgetExceeded, TermTooDeep, UnfoldingDiverged, ValidityError,
                   alphabet, build_lts, from_aut, initials, parse_term,
                   step, to_aut, weak_reach)
from ccspt.sampling import guarded_spec_pool
from ccspt.semantics import (DEFAULT_UNFOLD_FUSE, TAU, TIMEOUT, Lts, _step, _StepCtx,
                             is_strongly_guarded, label_kind, stable_reachable,
                             to_dot)
from ccspt.terms import (NIL, Choice, Hide, Node, Par, Prefix, Psi, RecCall, Rename,
                         Theta, children, is_visible)
from conftest import lts_of


def moves(src):
    return {(lab, str(t)) for lab, t in step(parse_term(src))}


def test_step_choice_keeps_timeout():
    assert moves("tau.a.0 + t.b.0") == {("tau", "a.0"), ("t", "b.0")}


def test_step_psi_timeout_into_environment():
    assert moves("psi{}(t.b.0)") == {("t", "theta{}{}(b.0)")}


def test_step_theta_blocks_unallowed():
    assert moves("theta{a}{a}(b.0 + a.c.0)") == {("a", "c.0")}


def test_step_theta_idle_exits_everything():
    assert moves("theta{a}{a}(b.0 + t.c.0)") == {("b", "0"), ("t", "c.0")}


def test_step_parallel():
    assert moves("a.0 ||{a} a.b.0") == {("a", "0 ||{a} b.0")}
    assert moves("a.0 ||{} b.0") == {("a", "0 ||{} b.0"), ("b", "a.0 ||{} 0")}
    # tau and t always interleave
    assert moves("t.0 ||{a} tau.0") == {("t", "0 ||{a} tau.0"),
                                        ("tau", "t.0 ||{a} 0")}


def test_step_hide_and_rename():
    assert moves("hide{a}(a.b.0)") == {("tau", "hide{a}(b.0)")}
    assert moves("rename{a->b,a->c}(a.0)") == {("b", "rename{a->b,a->c}(0)"),
                                               ("c", "rename{a->b,a->c}(0)")}
    assert moves("rename{a->b}(t.0)") == {("t", "rename{a->b}(0)")}


def test_step_recursion():
    assert moves("<x|{x = a.x}>") == {("a", "<x|{x = a.x}>")}


def test_initials_exclude_timeout():
    assert initials(parse_term("t.0")) == frozenset()
    assert initials(parse_term("a.0 + tau.0")) == {"a", "tau"}
    assert initials(parse_term("theta{a}{a}(b.0 + a.c.0)")) == {"a"}


def test_unfolding_diverges():
    with pytest.raises(UnfoldingDiverged):
        step(parse_term("<x|{x = x}>"))
    with pytest.raises(UnfoldingDiverged):
        step(parse_term("<x|{x = x + a.0}>"))


def test_build_lts_chain_and_loop():
    lts = lts_of("a.t.b.0")
    assert (lts.num_states, lts.num_transitions) == (4, 3)
    lts = lts_of("<x|{x = a.x}>")
    assert (lts.num_states, lts.num_transitions) == (1, 1)


def test_build_lts_budget():
    grower = parse_term("<x|{x = a.(x ||{} x)}>")
    with pytest.raises(StateBudgetExceeded):
        build_lts(grower, ExplorationLimits(max_states=100))
    with pytest.raises(ValueError, match="exploration limits must be positive"):
        ExplorationLimits(max_states=0)


def test_weak_reach():
    chain = Lts(["s0", "s1", "s2"], [(0, "tau", 1), (1, "tau", 2)])
    assert weak_reach(chain) == [(0, 1, 2), (1, 2), (2,)]
    cycle = Lts(["s0", "s1"], [(0, "tau", 1), (1, "tau", 0)])
    assert weak_reach(cycle) == [(0, 1), (0, 1)]
    none = Lts(["s0", "s1"], [(0, "a", 1)])
    assert weak_reach(none) == [(0,), (1,)]


def test_stable_reachable():
    lone = Lts(["s0"], [])
    assert stable_reachable(lone, 0)
    loop = Lts(["s0"], [(0, "tau", 0)])
    assert not stable_reachable(loop, 0)
    escape = Lts(["s0", "s1"], [(0, "tau", 0), (0, "tau", 1)])
    assert stable_reachable(escape, 0)


def test_strong_guardedness():
    assert is_strongly_guarded(lts_of("a.t.b.0"))
    assert not is_strongly_guarded(lts_of("<x|{x = t.x}>"))
    assert not is_strongly_guarded(lts_of("<x|{x = t.(a.0 + tau.x)}>"))


def reference_strongly_guarded(lts):
    """The iterative colouring search ``is_strongly_guarded`` ran before it
    asked ``graphlib``: the reference it is compared against."""
    n = len(lts)
    colour = [0] * n  # 0 unseen, 1 on stack, 2 done

    def edges(u):
        return lts.succ(u, TAU) + lts.succ(u, TIMEOUT)

    for root in range(n):
        if colour[root]:
            continue
        stack = [(root, iter(edges(root)))]
        colour[root] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for v in it:
                if colour[v] == 1:
                    return False
                if colour[v] == 0:
                    colour[v] = 1
                    stack.append((v, iter(edges(v))))
                    advanced = True
                    break
            if not advanced:
                colour[u] = 2
                stack.pop()
    return True


def test_strong_guardedness_matches_the_reference_search():
    from test_acceptance import _sample_pair
    hand = [Lts([f"s{i}" for i in range(n)], moves) for n, moves in (
        (1, [(0, "t", 0)]),
        (3, [(0, "tau", 1), (1, "t", 2), (2, "tau", 0)]),
        (2, [(0, "tau", 1), (1, "a", 0)]),
        (4, [(0, "tau", 1), (0, "t", 2), (1, "tau", 3), (2, "t", 3)]),
        (3, [(0, "tau", 1), (1, "t", 2), (2, "tau", 1)]),
        (4, [(0, "a", 1), (1, "tau", 2), (2, "t", 3), (3, "t", 1)]),
        (4, [(3, "tau", 2), (2, "tau", 1), (1, "tau", 0), (0, "b", 3)]))]
    rng = random.Random(20240)
    sampled = [lts for i in range(500) for lts in _sample_pair(rng, i)[2:4]]
    systems = hand + sampled + [lts_of(RecCall("x", sp))
                                for sp in guarded_spec_pool(("a", "b"))]
    verdicts = [is_strongly_guarded(lts) for lts in systems]
    assert verdicts == [reference_strongly_guarded(lts) for lts in systems]
    assert True in verdicts[len(hand):] and False in verdicts[len(hand):]


def test_alphabet_covers_reachable_labels(rng):
    from ccspt.sampling import random_process
    for _ in range(40):
        term, lts = random_process(rng, ("a", "b", "c"), depth=3, max_states=20)
        labels = {lab for _, lab, _ in lts.transitions}
        assert labels <= alphabet(term) | {"tau", "t"}


def test_theta_tau_selfloop_property(rng):
    # tau steps of the argument stay wrapped, exactly
    from ccspt.sampling import random_process
    from ccspt.terms import theta_x
    for _ in range(25):
        term, _ = random_process(rng, ("a", "b"), depth=2, max_states=10)
        wrapped = theta_x(["a"], term)
        inner_taus = {str(t) for lab, t in step(term) if lab == "tau"}
        got = {str(t.body) for lab, t in step(wrapped)
               if lab == "tau" and type(t).__name__ == "Theta"}
        assert got == inner_taus


def test_aut_round_trip():
    lts = lts_of("a.t.b.0 + tau.a.0")
    text = to_aut(lts)
    assert text.splitlines()[0] == f"des (0, {lts.num_transitions}, {lts.num_states})"
    back = from_aut(text)
    assert back.num_states == lts.num_states
    assert sorted(back.transitions) == sorted(lts.transitions)


def test_label_kinds():
    assert label_kind("tau") == ("tau", None)
    assert label_kind("t") == ("timeout", None)
    assert label_kind("t_eps") == ("t_eps", None)
    assert label_kind("eps_{a,b}") == ("eps_set", frozenset({"a", "b"}))
    assert label_kind("t_{}") == ("t_set", frozenset())
    assert label_kind("collect") == ("visible", None)
    for name in ("tau", "t", "t_eps", "eps_{a}", "t_{}"):
        assert not is_visible(name), name
    for name in ("eps_", "a"):
        assert is_visible(name), name


def test_reserved_prefix_action_built_in_code_is_refused():
    # the parser refuses t_eps.0; a term built in code reaches build_lts
    with pytest.raises(LabelUniverseMismatch, match="the term's alphabet: \\['t_eps'\\]"):
        build_lts(Prefix("t_eps", NIL))


RESERVED = ("tau", "t", "t_eps", "eps_{a}", "t_{}")


@pytest.mark.parametrize("name", RESERVED)
def test_reserved_names_in_a_declared_alphabet_are_refused(name):
    # a reserved name declared visible would count as an unused action
    with pytest.raises(LabelUniverseMismatch, match="reserved names"):
        build_lts(parse_term("a.0"), sigma={"a", name})
    with pytest.raises(LabelUniverseMismatch, match="reserved names"):
        Lts(["s0"], [], 0, sigma={name})
    with pytest.raises(LabelUniverseMismatch, match="reserved names"):
        lts_of("a.0").with_sigma({name})
    assert lts_of("a.0").with_sigma({"b"}).sigma == {"a", "b"}


def test_dot_export_smoke():
    assert "digraph" in to_dot(lts_of("a.0"))


def test_reachable_states_stay_valid(rng):
    from ccspt import is_valid
    from ccspt.sampling import random_process
    for _ in range(25):
        _, lts = random_process(rng, ("a", "b"), depth=3, max_states=12)
        assert all(is_valid(tag) for tag in lts.tags)


def test_renaming_branching_bound(rng):
    from ccspt.sampling import random_process
    from ccspt.terms import rename as mk_rename
    from ccspt import step
    for _ in range(25):
        term, _ = random_process(rng, ("a", "b"), depth=2, max_states=8)
        pairs = frozenset((a, rng.choice(("a", "b"))) for a in ("a", "b")
                          if rng.random() < 0.6)
        image = {a: len({b for (x, b) in pairs if x == a}) for a in ("a", "b")}
        widest = max(image.values(), default=0)
        renamed = mk_rename(pairs, term)
        assert len(step(renamed)) <= max(1, widest, 1) * max(len(step(term)), 1)


def test_too_deep_terms_raise_a_named_error():
    # parsing a 12 000-prefix chain fits the recursion limit, building it not
    with pytest.raises(TermTooDeep, match="build_lts"):
        build_lts(parse_term("a." * 12_000 + "0"))
    with pytest.raises(TermTooDeep, match="parse_term"):
        parse_term("a." * 25_000 + "0")


def test_open_term_build_is_a_validity_error():
    with pytest.raises(ValidityError, match="open term"):
        build_lts(parse_term("a.x"))


# ---------------------------------------------------------------------------
# Memoised exploration against a reference that steps each state afresh


def reference_build(term, sigma=()):
    """Breadth-first over the public ``step`` of each state, which shares
    nothing between states; the same numbering as ``build_lts``."""
    index = {term.key(): 0}
    tags = [term]
    transitions = []
    s = 0
    while s < len(tags):
        for lab, target in step(tags[s]):
            j = index.setdefault(target.key(), len(tags))
            if j == len(tags):
                tags.append(target)
            transitions.append((s, lab, j))
        s += 1
    return Lts(tags, transitions, 0, sigma=frozenset(sigma) | alphabet(term))


def assert_same_build(term, sigma=()):
    got, want = build_lts(term, sigma=sigma), reference_build(term, sigma)
    assert to_aut(got) == to_aut(want)
    assert [str(t) for t in got.tags] == [str(t) for t in want.tags]
    assert got.sigma == want.sigma
    return got


def walk(term):
    """Every node under ``term``, specification bodies included."""
    seen, stack = set(), [term]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        if isinstance(node, RecCall):
            yield node.spec
            stack.extend(node.spec.bodies)
        else:
            stack.extend(children(node))


def component(i):
    return f"<x|{{x = a{i}.y + tau.z; y = b{i}.z; z = t.w; w = c{i}.x}}>"


def test_build_matches_fresh_steps_on_random_terms(rng):
    # three random processes side by side, their recursion calls drawn from
    # one pool of specification objects, so that derivations are shared
    from ccspt.sampling import guarded_spec_pool, random_process
    sigma = ("a", "b", "c")
    pool = guarded_spec_pool(sigma)
    kinds, states = set(), 0
    for _ in range(60):
        t1, t2, t3 = (random_process(rng, sigma, depth=4, rec_prob=0.3,
                                     max_states=20, pool=pool)[0]
                      for _ in range(3))
        sync = frozenset(a for a in sigma if rng.random() < 0.3)
        term = Par(sync, t1, Par(frozenset(), t2, t3))
        kinds |= {type(n).__name__ for n in walk(term)}
        states += len(assert_same_build(term, sigma=("d",)))
    assert kinds >= {"RecCall", "Par", "Hide", "Rename", "Theta", "Psi"}
    assert states > 500


def test_build_matches_fresh_steps_on_interleaving():
    # five components are the size of the benchmark's compose systems
    for k in (4, 5):
        term = parse_term(" ||{} ".join(component(i) for i in range(k)))
        assert assert_same_build(term).num_states == 4 ** k


def test_equal_key_objects_meet_as_one_state():
    # the two b.0 are distinct objects with one key: one state
    term = parse_term("a.b.0 + c.b.0")
    (_, left), (_, right) = step(term)
    assert left is not right and left == right
    assert assert_same_build(term).num_states == 3
    # two separately parsed copies of one component, side by side and in
    # choice, meet their derivatives as one state each
    one, other = parse_term(component(0)), parse_term(component(0))
    assert one is not other and one == other
    assert assert_same_build(Par(frozenset(), one, other)).num_states == 16
    assert assert_same_build(Choice(one, Prefix("d", other))).num_states == 5


@pytest.mark.parametrize("src, states", [
    ("<x|{x = a.b.x}>", 2),
    (component(0), 4),
    (component(0) + " ||{} " + component(1), 16),
    ("hide{a0}(" + component(0) + ") ||{} rename{b1->d}(" + component(1) + ")", 12),
])
def test_derivatives_cycle_back_to_the_parsed_root(src, states):
    # the derivatives reach the context's recursion calls, which are
    # distinct from the parsed ones but have their keys: the root again
    lts = assert_same_build(parse_term(src))
    assert lts.num_states == states
    assert any(d == 0 for _, _, d in lts.transitions)


def test_each_node_built_and_each_key_read_once_per_object(monkeypatch):
    # one build of the 1024-state interleaving reads each derived node
    # from the context by its operand objects, and each reached state from
    # the index by its cached hash; counts, not timings
    keys, built = {}, []
    key, node = Node.key, _StepCtx.node

    def counted_key(self):
        keys[id(self)] = keys.get(id(self), 0) + 1
        return key(self)

    def counted_node(ctx, cls, *fields):
        built.append(ctx)
        return node(ctx, cls, *fields)

    monkeypatch.setattr(Node, "key", counted_key)
    monkeypatch.setattr(_StepCtx, "node", counted_node)
    lts = build_lts(parse_term(" ||{} ".join(component(i) for i in range(5))))
    assert (lts.num_states, lts.num_transitions) == (1024, 6400)
    [ctx] = set(built)
    assert len(built) <= len({id(n) for n in ctx.nodes.values()})
    assert sum(keys.values()) <= 2 * len(keys)


def test_reserved_names_in_sigma_are_refused_before_exploring(monkeypatch):
    # as encode refuses them, with the same error and message, and before
    # a single state is stepped
    from ccspt import encode
    calls = []
    original = _step

    def spy(term, ctx, keep=True):
        calls.append(term)
        return original(term, ctx, keep)

    monkeypatch.setattr("ccspt.semantics._step", spy)
    term = parse_term(" ||{} ".join(component(i) for i in range(5)))
    with pytest.raises(LabelUniverseMismatch) as built:
        build_lts(term, sigma={"tau"})
    assert calls == []
    with pytest.raises(LabelUniverseMismatch) as encoded:
        encode(lts_of("a.0"), sigma={"tau"})
    assert str(built.value) == str(encoded.value)
    assert "reserved names in a declared alphabet: ['tau']" in str(built.value)


# Each term reaches, over several states, the node one SOS rule builds for a
# derivative: a synchronising Par, Hide, Rename, Theta under a tau move, and
# the Theta that Psi wraps a time-out's target in.
BUILT_NODES = {
    Par: "<x|{x = a.b.x + c.a.x}> ||{a} <y|{y = a.c.y + b.a.y}> ||{} (d.0 + e.0)",
    Hide: "hide{a}(<x|{x = a.b.x + b.a.0}>) ||{} (c.0 + d.0)",
    Rename: "rename{a->b,a->c}(<x|{x = a.tau.x + t.a.0}>) ||{} d.0",
    Theta: "theta{a}{a,b}(<x|{x = tau.(b.x + tau.a.0) + c.0}>) ||{} d.0",
    Psi: "psi{b}(<x|{x = t.(a.x + t.b.0) + c.0}>) ||{} d.0",
}


@pytest.mark.parametrize("built", list(BUILT_NODES), ids=lambda cls: cls.__name__)
def test_shared_derivatives_match_fresh_steps(built, monkeypatch):
    seen = []
    original = _StepCtx.node

    def node(ctx, cls, *fields):
        seen.append(cls)
        return original(ctx, cls, *fields)

    monkeypatch.setattr(_StepCtx, "node", node)
    lts = assert_same_build(parse_term(BUILT_NODES[built]))
    assert lts.num_states > 4
    assert (Theta if built is Psi else built) in seen


def test_states_share_their_unchanged_components():
    # states that differ in their last component alone hold one object for
    # the rest (the parser nests to the left)
    term = parse_term("a.b.c.0 ||{} d.e.f.0 ||{} g.h.i.0 ||{} j.k.0")
    lts = build_lts(term)
    groups = {}
    for tag in lts.tags:
        groups.setdefault(tag.left.key(), []).append(tag)
    derived = [g for g in groups.values() if g[0].left is not term.left]
    assert len(derived) == 4 * 4 * 4 - 1
    assert all(len(g) == 3 and t.left is g[0].left for g in derived for t in g)
    # a.0 ||{} b.0 reaches 0 ||{} 0 by two routes: one context builds that
    # derivative once, another context builds its own
    ctx = _StepCtx(DEFAULT_UNFOLD_FUSE)
    (_, after_a), (_, after_b) = _step(parse_term("a.0 ||{} b.0"), ctx)
    [(_, done)] = _step(after_a, ctx)
    [(_, same)] = _step(after_b, ctx)
    [(_, fresh)] = _step(after_a, _StepCtx(DEFAULT_UNFOLD_FUSE))
    assert same is done
    assert fresh is not done and fresh == done


CHAIN = "<x0|{%s; x9 = a.x0 + b.x5}>" % "; ".join(
    f"x{i} = x{i + 1}" for i in range(9))


@pytest.mark.parametrize("shared", [False, True])
def test_fuse_counts_every_unfolding_of_a_shared_derivation(shared):
    # the first state unfolds ten calls per copy; when the copies are one
    # object, the second and third are memo hits that charge the same ten
    if shared:
        one = parse_term(CHAIN)
        term = Par(frozenset(), Par(frozenset(), one, one), one)
    else:
        term = parse_term(" ||{} ".join([CHAIN] * 3))
    with pytest.raises(UnfoldingDiverged, match="past the fuse"):
        build_lts(term, fuse=29)
    assert build_lts(term, fuse=30).num_states == 8


def test_unguarded_cycle_still_named():
    with pytest.raises(UnfoldingDiverged, match="unguarded recursion"):
        build_lts(parse_term("<x|{x = y; y = x}>"))


def test_build_leaves_no_cache_on_terms():
    allowed = {"_key", "_hash", "_fv", "_alpha", "_orders", "vars"}
    term = parse_term(" ||{} ".join(component(i) for i in range(3))
                      + " ||{} hide{a}(psi{b}(t.a.0)) ||{} " + CHAIN)
    lts = build_lts(term)
    for tag in lts.tags:
        for node in walk(tag):
            own = set(node.__dict__)
            own -= set(node._fields) if isinstance(node, Node) else {"equations"}
            assert own <= allowed, (node, own - allowed)


def test_deep_choice_chain_still_builds():
    # one frame per level of nesting, as for the canonical keys
    term = Prefix("a", NIL)
    for _ in range(9_950):
        term = Choice(term, Prefix("b", NIL))
    assert build_lts(term).num_states == 2


@pytest.mark.parametrize("initial", [-1, 1, 3])
def test_an_initial_state_outside_the_states_is_refused(initial):
    # as a transition out of range is, before anything reads the system
    # (encode used to fail on such an initial state with a bare IndexError)
    with pytest.raises(ValueError, match=f"initial state {initial} out of range"):
        Lts(["s0"], [], initial=initial)
    with pytest.raises(ValueError, match=r"transition \(0,'a',1\) out of range"):
        Lts(["s0"], [(0, "a", 1)])
    assert Lts(["s0", "s1"], [(0, "a", 1)], initial=1).initial == 1


@pytest.mark.parametrize("text, message", [
    ("", "not an aut file: missing des header at 1:1"),
    ('des (0, 2, 2)\n(0,"a",1)\n', "aut header promises 2 transitions, found 1 at 1:1"),
])
def test_an_aut_file_that_breaks_its_header_is_refused_at_1_1(text, message):
    with pytest.raises(ParseError) as err:
        from_aut(text)
    assert type(err.value) is ParseError
    assert str(err.value) == message
    assert (err.value.line, err.value.col) == (1, 1)
