import pytest

from ccspt import (Diamond, EpsStep, EpsX, FragmentUnsupported, LabelUniverseMismatch,
                   Not, Stable, TimeoutDiamond, Top, bisim, brb_X_check, brb_check,
                   distinguish, enumerate_fragment, in_fragment, parse_formula,
                   parse_term, render, sat, sat_env, tob_check)
from ccspt.modal import And, Evaluator
from ccspt.semantics import Lts
from conftest import lts_of, pair_lts


def test_formula_equality_is_structural():
    f = EpsX(Not(Stable()), frozenset({"b", "a"}), Diamond("a", Top()))
    g = parse_formula(render(f))
    assert f is not g and f == g and hash(f) == hash(g)
    assert f != EpsX(Not(Stable()), frozenset({"a"}), Diamond("a", Top()))
    assert And((Top(), Stable())) != And((Stable(), Top()))
    assert Top() != parse_term("0") and parse_term("0") != Top()


def test_fragments():
    assert in_fragment(Stable(), "Lb")
    assert not in_fragment(Diamond("a", Top()), "Lb")
    assert in_fragment(Diamond("a", Top()), "Lbr")
    assert in_fragment(EpsX(Top(), frozenset({"a"}), Top()), "Lb")
    assert in_fragment(EpsStep(Top(), "tau", Top()), "Lb")
    assert not in_fragment(EpsStep(Top(), "t", Top()), "Lb")
    assert not in_fragment(Diamond("t", Top()), "Lbr")
    assert in_fragment(TimeoutDiamond(frozenset(), Stable()), "Lbr")
    assert in_fragment(Not(And((Top(), Stable()))), "Lb")
    # stability is an Lb observation; an Lbr formula reaches it only past a first step
    assert not in_fragment(Stable(), "Lbr")
    assert not in_fragment(Not(And((Top(), Stable()))), "Lbr")
    assert in_fragment(Not(And((Top(), Diamond("a", Stable())))), "Lbr")
    assert not in_fragment(TimeoutDiamond(frozenset(), Top()), "Lb")
    with pytest.raises(FragmentUnsupported):
        in_fragment(Top(), "Lx")


def test_sat_basics():
    lts = lts_of("t.b.0")
    assert sat(lts, 0, Top())
    assert sat_env(lts, 0, {"b"}, Top())
    assert sat(lts, 0, parse_formula("[{}]<t><b>T"))
    assert sat(lts, 0, parse_formula("[{b}]<t><b>T"))  # I(t.b.0) is empty
    busy = lts_of("b.0 + t.b.0")
    assert not sat(busy, 0, parse_formula("[{b}]<t><b>T"))
    assert sat(busy, 0, parse_formula("[{}]<t><b>T"))


def test_sat_timeout_diamond_requires_idling():
    lts = lts_of("tau.0 + t.b.0")
    assert not sat(lts, 0, parse_formula("[{}]<t>T"))


def test_sat_visible_under_environment():
    lts = lts_of("a.b.0")
    f = parse_formula("<a>T")
    assert sat_env(lts, 0, {"a"}, f)
    # a not allowed, but the state idles only if a is absent from the set;
    # here I(P) = {a} and the environment allows nothing, so the state idles
    # and the action may fire as the environment is triggered
    assert sat_env(lts, 0, frozenset(), f)
    lts2 = lts_of("a.0 + b.0")
    assert not sat_env(lts2, 0, {"b"}, f)
    # the a step triggers the environment, so b then needs no permission,
    # where under {a, c} it would be neither allowed nor idle
    assert sat_env(lts_of("a.(b.0 + c.0)"), 0, {"a", "c"}, parse_formula("<a><b>T"))
    # [{X}] needs the state to idle under X and under the current set
    box = parse_formula("[{b}]<a>T")
    assert sat(lts_of("a.0"), 0, box)
    assert not sat(lts_of("a.0"), 0, parse_formula("[{a}]<a>T"))
    assert not sat_env(lts_of("a.0"), 0, {"a"}, box)


def test_one_evaluator_keeps_each_environment_apart():
    # under {b}, a.0 + b.0 neither allows a nor idles, so <a>T fails; the
    # same evaluator must answer it again, triggered, where it holds
    ev = Evaluator(lts_of("a.0 + b.0"))
    f = Diamond("a", Top())
    assert ev.sat(0, f, frozenset({"b"})) is False
    assert ev.sat(0, f, None) is True


def test_sat_stability():
    assert sat(lts_of("tau.0"), 0, Stable())
    assert not sat(lts_of("<x|{x = tau.x}>"), 0, Stable())
    lts = lts_of("tau.a.0")
    assert sat(lts, 0, parse_formula("eps(stable)"))
    assert sat(lts, 0, parse_formula("eps(<a>T)"))
    assert not sat(lts, 0, parse_formula("<a>T"))


def test_sat_eps_x_elision():
    lts1, lts2, sig = pair_lts("t.b.0", "t.t.b.0")
    f = EpsX(Top(), frozenset(), parse_formula("eps(T <b^> T)"))
    assert sat(lts1, 0, f)
    assert sat(lts2, 0, f)
    # zero-time-out reading: holds of the target itself
    assert sat(lts_of("b.0"), 0, f)


def test_sat_eps_x_revisits_its_start_under_x_alone():
    # under env {b}, the first station s1 idles and times out back to s0;
    # from there s2, which offers b and so idles under x = {} but not under
    # env, is a station, and it alone has no c
    lts = Lts([f"s{i}" for i in range(6)],
              [(0, "tau", 1), (0, "tau", 2), (0, "c", 4), (1, "c", 5), (1, "t", 0),
               (2, "b", 3)], 0)
    f = EpsX(Top(), frozenset(), Not(EpsStep(Top(), "c", Top())))
    assert sat_env(lts, 0, {"b"}, f)
    assert not sat_env(lts, 1, {"b"}, Not(EpsStep(Top(), "c", Top())))


def test_environment_idling_collapse(rng):
    # whenever a state idles under Y, satisfaction under Y matches triggered
    from ccspt.sampling import random_process
    froms = enumerate_fragment(("a", "b"), 4, "Lb")
    for _ in range(10):
        _, lts = random_process(rng, ("a", "b"), depth=3, max_states=8)
        ev = Evaluator(lts)
        for s in range(lts.num_states):
            for y in (frozenset(), frozenset({"a"}), frozenset({"a", "b"})):
                if not ev.lts.idle(s, y):
                    continue
                for f in froms[:220]:
                    assert ev.sat(s, f, y) == ev.sat(s, f, None), (s, sorted(y), render(f))


def test_enumeration_counts():
    lb = enumerate_fragment(("a",), 3, "Lb")
    assert any(isinstance(f, EpsX) for f in lb)
    assert any(isinstance(f, EpsStep) for f in lb)
    assert all(in_fragment(f, "Lb") for f in lb)
    lbr = enumerate_fragment(("a",), 3, "Lbr")
    assert all(in_fragment(f, "Lbr") for f in lbr)


def test_distinguish_goldens():
    l1, l2, sig = pair_lts("a.0 + b.0", "tau.a.0 + b.0")
    f = distinguish(l1, 0, l2, 0, fragment="Lb", sigma=sig)
    assert f is not None and in_fragment(f, "Lb")
    assert sat(l1, 0, f) != sat(l2, 0, f)

    l1, l2, sig = pair_lts("a.0", "tau.a.0")
    assert distinguish(l1, 0, l2, 0, fragment="Lb", sigma=sig) is None
    f = distinguish(l1, 0, l2, 0, fragment="Lbr", sigma=sig)
    assert f is not None and in_fragment(f, "Lbr")
    assert sat(l1, 0, f) != sat(l2, 0, f)
    assert isinstance(f, (Diamond, Not, TimeoutDiamond, And))


# (left, right, fragment, environment, rendered formula); together the cases
# reach every clause the builder turns into a formula: 1a-1c and 2a-2d-stable
# for Lb, r1a, r1b and r2a-r2c for Lbr
PINNED_FORMULAS = [
    ("a.t.b.0", "a.t.c.0", "Lb", None,
     "eps(T <a^> !eps(T <c^> T) <eps_{}> eps(T <b^> T))"),
    ("t.a.0", "a.0", "Lb", None, "!eps(T <a^> T)"),
    ("t.a.0", "t.b.0", "Lb", (), "!eps(T <b^> T) <eps_{}> eps(T <a^> T)"),
    ("tau.a.0 + b.0", "a.0 + b.0", "Lb", (), "eps(T <tau^> !eps(T <b^> T))"),
    ("<x|{x = tau.x}>", "0", "Lb", None, "!stable"),
    ("<x|{x = tau.x}>", "0", "Lb", (), "!stable"),
    ("a.t.b.0", "a.t.c.0", "Lbr", None,
     "<a>(!eps(T <c^> T) <eps_{}> eps(T <b^> T))"),
    ("a.t.b.0", "a.t.c.0", "Lbr", ("a",),
     "<a>(!eps(T <c^> T) <eps_{}> eps(T <b^> T))"),
    ("tau.t.a.0 + b.0", "tau.t.b.0 + b.0", "Lbr", (),
     "<tau>(!eps(T <b^> T) <eps_{}> eps(T <a^> T))"),
    ("t.a.0", "t.b.0", "Lbr", None, "[{}]<t>eps(T <a^> T)"),
    ("t.a.0", "t.b.0", "Lbr", ("b",), "[{}]<t>eps(T <a^> T)"),
    ("<x|{x = a.t.x}>", "tau.a.0 + a.0 + <y|{x = a.y; y = a.x}>", "Lbr", None,
     "<a>&(T <eps_{}> eps(T <a^> T),!eps(T <a^> T))"),
    ("tau.(hide{a}(a.0) + a.0 ||{} 0)", "hide{a}(<x|{x = a.x}>)", "Lbr", (),
     "<tau>eps(T <tau^> stable)"),
]


@pytest.mark.parametrize("left,right,fragment,env,want", PINNED_FORMULAS)
def test_distinguish_formula_text(left, right, fragment, env, want):
    l1, l2, sig = pair_lts(left, right)
    f = distinguish(l1, 0, l2, 0, fragment=fragment,
                    env=None if env is None else frozenset(env), sigma=sig)
    assert str(f) == want


def test_distinguish_same_state_is_none():
    lts = lts_of("a.t.b.0")
    assert distinguish(lts, 0, lts, 0, fragment="Lb") is None
    assert distinguish(lts, 0, lts, 0, fragment="Lbr") is None


def test_distinguish_under_environment():
    l1, l2, sig = pair_lts("t.b.0 + a.b.0", "tau.a.b.0 + a.0")
    f = distinguish(l1, 0, l2, 0, fragment="Lb", env=frozenset(), sigma=sig)
    assert f is not None and in_fragment(f, "Lb")
    assert sat_env(l1, 0, frozenset(), f) != sat_env(l2, 0, frozenset(), f)


def test_distinguish_stability_fixture():
    from ccspt.gallery import divergent_timeout_trio
    trio = divergent_timeout_trio()
    p, q = trio["stable_after_t"], trio["cycle_with_exit"]
    f = distinguish(p, 0, q, 0, fragment="Lb", sigma={"a"})
    assert f is not None and in_fragment(f, "Lb")
    assert sat(p, 0, f) != sat(q, 0, f)


def test_distinguish_unknown_fragment():
    lts = lts_of("a.0")
    with pytest.raises(FragmentUnsupported):
        distinguish(lts, 0, lts, 0, fragment="Ls")


def test_theorem_soundness_small(rng):
    # equivalent states satisfy the same Lb formulas (size-bounded sweep)
    from ccspt.sampling import random_process, equivalent_variant
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    froms = enumerate_fragment(("a", "b"), 4, "Lb")
    done = 0
    while done < 10:
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2 = equivalent_variant(rng, t1)
        try:
            build_lts(t2)
        except Exception:
            continue
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)
        if not brb_check(l1, 0, l2, 0, sigma=sig).equivalent:
            continue
        done += 1
        e1, e2 = Evaluator(l1), Evaluator(l2)
        for f in froms:
            assert e1.sat(0, f, None) == e2.sat(0, f, None), render(f)


def test_reserved_name_in_an_environment_set_is_a_named_error():
    # refused before any pair context, and so any arena, is built
    l1, l2, sig = pair_lts("a.0 + b.0", "a.0")
    for query in (lambda env: distinguish(l1, 0, l2, 0, env=env, sigma=sig),
                  lambda env: brb_X_check(l1, 0, l2, 0, env, sigma=sig),
                  lambda env: tob_check(l1, 0, l2, 0, sigma=sig, env=env)):
        for env in (["t_eps"], ["tau"], ["a", "t"]):
            with pytest.raises(LabelUniverseMismatch, match="an environment set"):
                query(env)
            assert l1 not in bisim._CONTEXTS
    with pytest.raises(LabelUniverseMismatch, match="an environment set"):
        sat_env(l1, 0, ["tau"], Top())


@pytest.mark.parametrize("fragment", ["Lb", "Lbr"])
def test_distinguish_reads_an_environment_under_the_offered_actions(fragment):
    # z is declared but offered by no state: {b, z} and {b} are one
    # environment, whose triple is read under {b}
    l1, l2, sig = pair_lts("t.a.0", "t.b.0", sigma={"z"})
    want = distinguish(l1, 0, l2, 0, fragment=fragment, env={"b"}, sigma=sig)
    got = distinguish(l1, 0, l2, 0, fragment=fragment, env={"b", "z"}, sigma=sig)
    assert want is not None and str(got) == str(want)
