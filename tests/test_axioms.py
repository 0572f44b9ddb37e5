import pytest

from ccspt import (SideConditionViolated, head_normal_form, instantiate,
                   named_schema, parse_term, render, schema_set,
                   soundness_raa, soundness_suite, strong_bisim)
from ccspt.axioms import rooted_brb_equiv, rooted_tb_equiv
from ccspt.terms import NIL, Prefix, TAU
from conftest import pair_lts


def test_schema_families():
    ax = {s.name for s in schema_set("Ax")}
    axr = {s.name for s in schema_set("Axr")}
    assert "t-branching" in ax and "t-branching" in axr
    assert "tau-t-branching" in ax and "tau-t-branching" not in axr
    assert "rdp" in ax and "rdp" in axr
    assert "sum-idem" in ax  # shipped as x + x = x, not the misprinted x + x = 0
    assert "l-tau" not in ax and "l-tau" not in axr
    assert {s.name for s in schema_set("derived")} == {"l-tau"}


def test_sum_idem_correction_is_forced():
    # the misprinted right-hand side fails even strong bisimilarity
    l1, l2, _ = pair_lts("a.0 + a.0", "0")
    assert not strong_bisim(l1, 0, l2, 0).equivalent
    l1, l2, _ = pair_lts("a.0 + a.0", "a.0")
    assert strong_bisim(l1, 0, l2, 0).equivalent


def test_instantiate_branching():
    schema = named_schema("branching")
    lhs, rhs = instantiate(schema, {"alpha": "a", "x": parse_term("b.0"),
                                    "y": parse_term("c.0"), "ys": []})
    assert lhs == parse_term("a.(tau.(b.0 + c.0) + b.0)")
    assert rhs == parse_term("a.(b.0 + c.0)")


def test_instantiate_theta_tau():
    schema = named_schema("theta-tau")
    lhs, rhs = instantiate(schema, {"L": frozenset({"a"}), "U": frozenset({"a"}),
                                    "x": NIL, "y": NIL, "z": NIL,
                                    "alpha": TAU, "beta": "a"})
    assert lhs == parse_term("theta{a}{a}(tau.0)")
    assert rhs == parse_term("tau.theta{a}{a}(0)")


def test_instantiate_l_tau():
    schema = named_schema("l-tau")
    lhs, rhs = instantiate(schema, {"x": parse_term("a.0"), "y": parse_term("b.0")})
    assert lhs == parse_term("tau.a.0 + t.b.0")
    assert rhs == parse_term("tau.a.0")


def test_side_condition_violation():
    schema = named_schema("theta-prefix")
    with pytest.raises(SideConditionViolated):
        instantiate(schema, {"L": frozenset(), "U": frozenset(),
                             "x": NIL, "alpha": TAU})


def test_head_normal_form():
    hnf = head_normal_form(parse_term("a.0 ||{} b.0"))
    assert hnf == parse_term("a.(0 ||{} b.0) + b.(a.0 ||{} 0)")
    assert head_normal_form(NIL) == NIL
    call = parse_term("<x|{x = a.x}>")
    assert head_normal_form(call) == Prefix("a", call)


def test_hnf_is_strongly_equivalent(rng):
    from ccspt.sampling import random_process
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    for _ in range(20):
        term, _ = random_process(rng, ("a", "b"), depth=3, max_states=10)
        hnf = head_normal_form(term)
        sig = alphabet(term) | alphabet(hnf) | {"a", "b"}
        l1, l2 = build_lts(term, sigma=sig), build_lts(hnf, sigma=sig)
        assert strong_bisim(l1, 0, l2, 0).equivalent, str(term)


def test_t_branching_degenerate_index_set():
    schema = named_schema("t-branching")
    lhs, rhs = instantiate(schema, {"alpha": "a", "x": parse_term("b.0"), "ys": []})
    assert lhs == parse_term("a.(t.b.0 + b.0)")
    assert rhs == parse_term("a.b.0")
    assert rooted_tb_equiv(lhs, rhs)


def test_soundness_smoke_axr():
    report = soundness_suite("Axr", samples=4, seed=5)
    assert all(not ax["failures"] for ax in report["axioms"]), report


def test_soundness_smoke_ax_single():
    report = soundness_suite("Ax", samples=4, seed=5, axiom="tau-t-branching")
    assert report["axioms"][0]["passes"] == 4


def test_soundness_reports_failures_as_data():
    # a deliberately wrong checker shows up as failure entries, not exceptions
    report = soundness_suite("Axr", checker=lambda a, b: False, samples=2,
                             seed=1, axiom="sum-comm")
    assert report["axioms"][0]["passes"] == 0
    assert len(report["axioms"][0]["failures"]) == 2
    assert {"lhs", "rhs"} <= set(report["axioms"][0]["failures"][0])


@pytest.mark.parametrize("samples", [0, -3])
def test_nonpositive_samples_are_refused(samples):
    # no sample would pass every schema vacuously
    with pytest.raises(ValueError, match="samples must be positive"):
        soundness_suite("Axr", samples=samples, axiom="sum-comm")


def test_raa_examples():
    p = parse_term("tau.a.0 + t.b.0")
    q = parse_term("tau.a.0")
    assert soundness_raa(p, q)
    assert rooted_brb_equiv(p, q)
    # premise fails vacuously for distinct visible behaviour
    assert soundness_raa(parse_term("a.0"), parse_term("b.0"))


def test_raa_random(rng):
    from ccspt.sampling import random_process, equivalent_variant
    from ccspt.semantics import build_lts
    done = 0
    while done < 6:
        t1, _ = random_process(rng, ("a", "b"), depth=2, max_states=6)
        t2 = equivalent_variant(rng, t1)
        try:
            build_lts(t2)
        except Exception:
            continue
        done += 1
        assert soundness_raa(t1, t2), (str(t1), str(t2))
