import re
import time

import pytest

from ccspt import (FragmentUnsupported, LabelUniverseMismatch, StateBudgetExceeded,
                   bisim, brb_X_check, brb_check, cbrb_check, distinguish, encode,
                   gbrb_check, make_store,
                   parse_term, revalidate, strong_bisim, tb_check, tob_check)
from ccspt.gallery import (divergent_timeout_trio, divergent_timeout_witness,
                           visible_choice_pair, visible_choice_terms)
from conftest import lts_of, pair_lts
from test_tb_engine import ring, taken_out


def verdict(checker, s1, s2, sigma=(), **kw):
    l1, l2, sig = pair_lts(s1, s2, sigma)
    return checker(l1, 0, l2, 0, sigma=sig, **kw)


@pytest.mark.parametrize("checker", [brb_check, cbrb_check, gbrb_check, tob_check,
                                     strong_bisim])
def test_reserved_name_in_sigma_is_a_named_error(checker):
    lts = lts_of("a.0")
    with pytest.raises(LabelUniverseMismatch, match="reserved names"):
        checker(lts, 0, lts, 0, sigma={"a", "t"})


# ---------------------------------------------------------------------------
# strong bisimilarity


def test_strong_goldens():
    assert strong_bisim(lts_of("0"), 0, lts_of("0"), 0).equivalent
    l1, l2, _ = pair_lts("a.0", "a.0 + a.0")
    assert strong_bisim(l1, 0, l2, 0).equivalent
    l1, l2, _ = pair_lts("a.0", "tau.a.0")
    assert not strong_bisim(l1, 0, l2, 0).equivalent


def test_strong_label_universe_mismatch():
    l1 = lts_of("a.0")
    l2 = lts_of("b.0")
    with pytest.raises(LabelUniverseMismatch):
        strong_bisim(l1, 0, l2, 0)


# ---------------------------------------------------------------------------
# branching reactive bisimilarity


def test_brb_elides_timeouts():
    assert verdict(brb_check, "a.t.b.0", "a.t.t.b.0").equivalent
    assert verdict(brb_check, "a.t.b.0", "a.t.tau.t.b.0").equivalent


def test_brb_rooted_tau_priority_law():
    assert verdict(brb_check, "tau.a.0 + t.b.0", "tau.a.0", rooted=True).equivalent


def test_brb_choice_context_separates():
    assert not verdict(brb_check, "a.0 + b.0", "tau.a.0 + b.0").equivalent


def test_brb_tau_prefix_plain_vs_rooted():
    assert verdict(brb_check, "a.0", "tau.a.0").equivalent
    assert not verdict(brb_check, "a.0", "tau.a.0", rooted=True).equivalent


def family_verdicts(s1, s2, rooted, sigma=()):
    """The verdict of each row-engine family on a pair, tb's over its encodings."""
    l1, l2, sig = pair_lts(s1, s2, sigma)
    checks = {"brb": brb_check, "gbrb": gbrb_check, "cbrb": cbrb_check, "tob": tob_check}
    out = {name: check(l1, 0, l2, 0, rooted=rooted, sigma=sig) for name, check in checks.items()}
    e1, e2 = encode(l1, rooted=rooted, sigma=sig), encode(l2, rooted=rooted, sigma=sig)
    out["tb"] = tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted)
    return out


@pytest.mark.parametrize("rooted", [False, True])
def test_two_tau_steps_in_a_row_are_inert(rooted):
    # b's match lies two tau steps after a: a weak closure that takes one
    # tau step separates the pair in every family
    verdicts = family_verdicts("a.tau.tau.b.0", "a.b.0", rooted)
    assert {name: v.equivalent for name, v in verdicts.items()} == dict.fromkeys(verdicts, True)


def test_a_root_time_out_decides_the_rooted_pair():
    # the pair differs only in the time-outs of the root: rooted tb matches
    # the rooted encoding's t_X step, on the plain twins an eps_X step then
    # a t step, by the same step, which t.t.a.0 has into no equivalent state;
    # the derivative is settled on {a,b} ∩ R(a.0) = {a}
    plain, rooted = (family_verdicts("t.a.0", "t.t.a.0", r, {"b"}) for r in (False, True))
    for name in ("brb", "gbrb", "tob", "tb"):
        assert plain[name].equivalent and not rooted[name].equivalent, name
    assert [(r["clause"], r["detail"]) for r in rooted["tb"].refutation] == [
        ("rtb1", "action t_{a,b}; derivative env{a}(1)")] * 2


def test_brb_visible_first_clause_fixture():
    g = visible_choice_pair()
    assert not brb_check(g["with_root_a"], 0, g["without_root_a"], 0).equivalent


def test_brb_visible_first_clause_parallel_context():
    from ccspt.terms import par
    wa, woa = visible_choice_terms()
    ctx = parse_term("tau.0 + a.0")
    l1 = lts_of(par({"a"}, wa, ctx), sigma={"a", "b"})
    l2 = lts_of(par({"a"}, woa, ctx), sigma={"a", "b"})
    assert not brb_check(l1, 0, l2, 0, sigma={"a", "b"}).equivalent


def test_brb_stability_fixture():
    trio = divergent_timeout_trio()
    p, q, r = trio["stable_after_t"], trio["cycle_with_exit"], trio["cycle_plain"]
    assert not brb_check(p, 0, q, 0).equivalent
    assert brb_check(q, 0, r, 0).equivalent


def test_brb_rejects_encoded_inputs():
    enc = encode(lts_of("a.0"))
    with pytest.raises(LabelUniverseMismatch):
        brb_check(enc, 0, enc, 0)


def contexts():
    """The pair contexts kept, by system, partner and (arena kind, alphabet)."""
    return {l1: {l2: set(kinds) for l2, kinds in partners.items()}
            for l1, partners in bisim._CONTEXTS.items()}


def test_encoded_input_refused_before_engine_or_wrappers(monkeypatch):
    # only tb reads an encoding; every other family refuses one before it
    # builds a pair context, the engine tables or a tob wrapper
    e = encode(ring(8, {1}, False), sigma={"a", "b"})
    p = e.initial
    brb_store = make_store(e, None, "brb", pairs=[(p, p)])
    built = lambda *args: pytest.fail("built over an encoded input")
    monkeypatch.setattr(bisim.Arena, "_engine_tables", built)
    monkeypatch.setattr(bisim.ThetaArena, "idle", built)   # the wrapper loop
    calls = [(brb_X_check, (e, p, e, p, {"a"})), (tob_check, (e, p, e, p), {"env": {"a"}}),
             (revalidate, (brb_store, "brb")), (revalidate, (brb_store, "brb-rooted"))]
    calls += [(check, (e, p, e, p), {"rooted": rooted}) for rooted in (False, True)
              for check in (brb_check, cbrb_check, gbrb_check, tob_check)]
    calls += [(distinguish, (e, p, e, p, fragment)) for fragment in ("Lb", "Lbr")]
    before = contexts()
    for fn, args, *kw in calls:
        with pytest.raises(LabelUniverseMismatch, match="not encoded ones"):
            fn(*args, **(kw[0] if kw else {}))
        assert contexts() == before, fn.__name__
    # the relations defined over any labels still answer over the encoding
    monkeypatch.undo()
    v = tb_check(e, p, e, p)
    assert v.equivalent and revalidate(make_store(e, None, "tb", v.witness.pairs), "tb")
    assert strong_bisim(e, p, e, p).equivalent
    # a ThetaArena refused over budget leaves no context behind either
    wide = lts_of(" + ".join(f"x{i}.0" for i in range(30)))
    with pytest.raises(StateBudgetExceeded):
        tob_check(wide, 0, wide, 0)
    assert wide not in bisim._CONTEXTS


def test_brb_triple_budget():
    # thirty offered actions: 2^30 environment masks per pair
    lts = lts_of(" + ".join(f"x{i}.0" for i in range(30)))
    with pytest.raises(StateBudgetExceeded):
        brb_check(lts, 0, lts, 0, sigma=lts.sigma)
    # thirty actions no state offers leave one mask per pair
    lts = lts_of("a.0", sigma=[f"x{i}" for i in range(30)])
    assert brb_check(lts, 0, lts, 0, sigma=lts.sigma).equivalent


def test_unused_actions_turn_refusals_into_answers():
    # ten actions no state offers once meant 2^12 masks a pair: tob built
    # 24 594 states and refused (604.9 M pairs), gbrb ran for minutes
    base, variant = ring(8, {1}, False), ring(8, {1}, True)
    used = frozenset({"a", "b"})
    wide = used | {f"u{i}" for i in range(10)}
    for check in (brb_check, gbrb_check, tob_check):
        want = check(base, 0, variant, 0, sigma=used)
        start = time.perf_counter()
        got = check(base, 0, variant, 0, sigma=wide)
        assert time.perf_counter() - start < 0.5, check.__name__
        assert got.sigma == tuple(sorted(wide)) and want.equivalent
        assert (got.equivalent, got.iterations) == (want.equivalent, want.iterations)


def test_tob_budget_before_any_wrapper(monkeypatch):
    # 8191 wrappers of the root would make 8193^2 pairs: refused before
    # the wrapper loop asks whether a state idles under a mask
    monkeypatch.setattr(bisim.ThetaArena, "idle",
                        lambda *args: pytest.fail("a wrapper was built"))
    lts = lts_of(" + ".join(f"x{i}.0" for i in range(13)))
    with pytest.raises(StateBudgetExceeded):
        tob_check(lts, 0, lts, 0)


# ---------------------------------------------------------------------------
# X-indexed verdicts


def test_brb_X_goldens():
    # pre-registered oracle: idling under {} forces the triggered pair, whose
    # first clause must match the visible a; hence inequivalent
    assert not verdict(brb_X_check, "a.0", "b.0", env=frozenset()).equivalent
    assert not verdict(brb_X_check, "t.b.0 + a.b.0", "tau.a.b.0 + a.0",
                       env=frozenset()).equivalent
    lts = lts_of("a.t.b.0")
    assert brb_X_check(lts, 0, lts, 0, frozenset({"a", "b"})).equivalent


def test_brb_X_canonicalises_against_sigma():
    l1, l2, sig = pair_lts("t.b.0", "t.t.b.0")
    v1 = brb_X_check(l1, 0, l2, 0, frozenset(), sigma=sig)
    v2 = brb_X_check(l1, 0, l2, 0, frozenset({"zzz"}), sigma=sig)
    assert v1.equivalent == v2.equivalent


# ---------------------------------------------------------------------------
# generalised / concrete / time-out / encoded characterisations


def test_gbrb_matches_brb_on_goldens():
    cases = [("a.t.b.0", "a.t.t.b.0"), ("0", "0"), ("a.0", "tau.a.0"),
             ("a.0 + b.0", "tau.a.0 + b.0"), ("tau.a.0 + t.b.0", "tau.a.0")]
    for s1, s2 in cases:
        for rooted in (False, True):
            assert (verdict(gbrb_check, s1, s2, rooted=rooted).equivalent
                    == verdict(brb_check, s1, s2, rooted=rooted).equivalent), (s1, s2)


def test_cbrb_counts_timeouts():
    assert not verdict(cbrb_check, "a.t.b.0", "a.t.t.b.0").equivalent
    assert verdict(cbrb_check, "a.t.b.0", "a.t.b.0").equivalent
    # rooted variant keeps the tau-priority law: the time-out side never idles
    assert verdict(cbrb_check, "tau.a.0 + t.b.0", "tau.a.0", rooted=True).equivalent


def test_tob_matches_brb_on_goldens():
    cases = [("a.t.b.0", "a.t.t.b.0"), ("a.0", "tau.a.0"),
             ("a.0 + b.0", "tau.a.0 + b.0"), ("tau.a.0 + t.b.0", "tau.a.0")]
    for s1, s2 in cases:
        for rooted in (False, True):
            assert (verdict(tob_check, s1, s2, rooted=rooted).equivalent
                    == verdict(brb_check, s1, s2, rooted=rooted).equivalent), (s1, s2)


def test_tob_environment_entry():
    l1, l2, sig = pair_lts("t.a.0", "t.t.a.0")
    assert tob_check(l1, 0, l2, 0, sigma=sig, env=frozenset()).equivalent
    assert brb_X_check(l1, 0, l2, 0, frozenset(), sigma=sig).equivalent


def test_tob_environment_reads_nested_wrappers():
    # the mirror entry's t2 wraps the wrapper theta{..}(a.0) once more; that
    # nested wrapper normalises onto the first level, so the clause holds in
    # round one and the mirror entry dies only with the queried one
    l1, l2, sig = pair_lts("a.0", "t.b.0", {"a", "b"})
    for env in (["a"], ["a", "b"]):
        v = tob_check(l1, 0, l2, 0, sigma=sig, env=env)
        assert v.refutation == [{
            "lhs": f"theta{{{','.join(env)}}}(a.0)", "rhs": "t.b.0", "env": env,
            "clause": "t1", "detail": "action a; derivative 0"}]


def test_tb_on_encodings():
    l1, l2, sig = pair_lts("a.t.b.0", "a.t.t.b.0")
    e1, e2 = encode(l1, sigma=sig), encode(l2, sigma=sig)
    assert tb_check(e1, e1.initial, e2, e2.initial).equivalent
    assert tb_check(e1, e1.initial, e1, e1.initial).equivalent


def test_tb_reduces_to_branching_without_timeouts():
    # on timeout-free systems, plain tb over raw labels is stability-respecting
    # branching bisimilarity
    l1, l2, sig = pair_lts("a.0", "tau.a.0")
    assert tb_check(l1, 0, l2, 0).equivalent
    l1, l2, sig = pair_lts("a.0 + b.0", "tau.a.0 + b.0")
    assert not tb_check(l1, 0, l2, 0).equivalent


def test_tb_label_universe_mismatch():
    l1, l2, sig = pair_lts("a.0", "a.0")
    e1 = encode(l1, sigma=sig)
    with pytest.raises(LabelUniverseMismatch):
        tb_check(e1, 0, encode(l2, sigma=sig | {"z"}), 0)


# ---------------------------------------------------------------------------
# witnesses, refutations, revalidation


def test_witness_revalidates():
    # one tau elided, same number of time-outs: accepted by all four
    for checker in (brb_check, gbrb_check, cbrb_check, tob_check):
        v = verdict(checker, "a.tau.t.b.0", "a.t.b.0")
        assert v.equivalent, checker
        assert revalidate(v.witness, v.relation)


def test_rooted_witness_revalidates():
    v = verdict(brb_check, "tau.a.0 + t.b.0", "tau.a.0", rooted=True)
    assert v.equivalent
    assert revalidate(v.witness, "brb-rooted")


def test_damaged_witness_fails():
    v = verdict(brb_check, "a.t.b.0", "a.t.t.b.0")
    store = v.witness
    with taken_out(store, min(store.pairs)):
        assert not revalidate(store, "brb")


# The first pair elides a tau after a visible action, which every relation
# but strong bisimilarity allows; the second reorders a choice, for strong.
WITNESS_PAIRS = {"branching": ("a.tau.t.b.0", "a.t.b.0"),
                 "strong": ("a.t.b.0 + b.0", "b.0 + a.t.b.0")}


def _equivalent_verdict(relation):
    rooted = relation.endswith("-rooted")
    base = relation[:-len("-rooted")] if rooted else relation
    l1, l2, sig = pair_lts(*WITNESS_PAIRS["strong" if base == "strong" else "branching"])
    if base == "strong":
        return strong_bisim(l1, 0, l2, 0, sigma=sig)
    if base == "brbX":
        return brb_X_check(l1, 0, l2, 0, ["a"], sigma=sig, rooted=rooted)
    if base == "tb":
        e1, e2 = encode(l1, rooted=rooted, sigma=sig), encode(l2, rooted=rooted, sigma=sig)
        return tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted)
    checker = {"brb": brb_check, "cbrb": cbrb_check, "gbrb": gbrb_check, "tob": tob_check}
    return checker[base](l1, 0, l2, 0, rooted=rooted, sigma=sig)


@pytest.mark.parametrize("relation", [
    "strong", "brb", "brb-rooted", "brbX", "brbX-rooted", "cbrb", "cbrb-rooted",
    "gbrb", "gbrb-rooted", "tob", "tob-rooted", "tb", "tb-rooted"])
def test_every_witness_revalidates_under_its_own_relation(relation):
    v = _equivalent_verdict(relation)
    assert v.equivalent and v.relation == relation
    assert revalidate(v.witness, v.relation)


def _contents(store):
    """Copies of what ``revalidate`` reads of a store and of its plain
    store: rows, triple rows and the row log."""
    return [(list(st.rows),
             None if st.trows is None else {x: list(line) for x, line in st.trows.items()},
             list(st.row_kills))
            for st in (store, store.plain) if st is not None]


@pytest.mark.parametrize("rooted", [False, True])
@pytest.mark.parametrize("family", ["gbrb", "tb"])
def test_revalidate_leaves_the_witness_untouched(family, rooted):
    # revalidate judges the witness's own rows and writes nothing
    l1, l2, sig = ring(4, {1}, False), ring(4, {1}, True), frozenset({"a", "b"})
    relation = family + "-rooted" * rooted
    if family == "tb":
        e1, e2 = encode(l1, rooted=rooted, sigma=sig), encode(l2, rooted=rooted, sigma=sig)
        store = tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted).witness
    else:
        store = gbrb_check(l1, 0, l2, 0, rooted=rooted, sigma=sig).witness

    def judged(want):
        before = _contents(store)
        assert revalidate(store, relation) == want
        assert _contents(store) == before

    judged(True)
    # the damage: every entry of the first related state, in the store whose
    # clauses read it (the plain one when rooted)
    damaged = store.plain or store
    i = next(p for p, row in enumerate(damaged.rows) if row)
    lines = [damaged.rows, *(damaged.trows or {}).values()]
    kept = [list(line) for line in lines]
    for line in lines:
        for j in bisim._bits(line[i]):
            line[j] ^= 1 << i
        line[i] = 0
    judged(False)
    assert store.pairs and damaged.pairs   # reading the sets writes nothing
    judged(False)
    for line, old in zip(lines, kept):
        line[:] = old
    judged(True)


@pytest.mark.parametrize("rooted", [False, True])
@pytest.mark.parametrize("family", ["brb", "cbrb", "gbrb", "tob", "tb"])
def test_damaged_witness_is_judged_without_a_fixpoint(family, rooted, monkeypatch):
    # one judging round decides a witness: no fixpoint runs, nothing is
    # logged, and a damaged witness fails
    l1, l2, sig = ring(4, {1}, False), ring(4, {1}, family != "cbrb"), frozenset({"a", "b"})
    if family == "tb":
        l1, l2 = encode(l1, rooted=rooted, sigma=sig), encode(l2, rooted=rooted, sigma=sig)
        store = tb_check(l1, l1.initial, l2, l2.initial, rooted=rooted).witness
    else:
        checks = {"brb": brb_check, "cbrb": cbrb_check, "gbrb": gbrb_check, "tob": tob_check}
        store = checks[family](l1, 0, l2, 0, rooted=rooted, sigma=sig).witness
    monkeypatch.setattr(bisim.Arena, "fixpoint",
                        lambda *args: pytest.fail("revalidate ran a fixpoint"))
    relation = family + "-rooted" * rooted
    layers = [st for st in (store, store.plain) if st is not None]
    kills = [list(st.row_kills) for st in layers]
    assert revalidate(store, relation)
    # the root pair and its triples, in the store whose clauses read them
    # (the plain one when rooted, on the arena of the plain twin encodings
    # for tb, where the roots' twins are the initial states): the ring's
    # time-out leads back to them
    damaged = store.plain or store
    p, q = l1.initial, damaged.arena.state2(l2.initial)
    masks = range(store.arena.full_mask + 1) if damaged.trows else ()
    entries = [(p, q), (q, p)] + [e for x in masks for e in ((p, x, q), (q, x, p))]
    with taken_out(damaged, *entries):
        assert not revalidate(store, relation)
    assert [st.row_kills for st in layers] == kills


@pytest.mark.parametrize("family", ["brb", "tob", "tb"])
def test_a_warm_memo_still_rejects_a_damaged_witness(family):
    # the fixpoints and revalidate on one arena share its mask memo: once
    # the pair's plain and rooted fixpoints and revalidate have filled it,
    # a damaged witness still fails, in either layer, and the whole one passes
    l1, l2, sig = ring(8, {1}, False), ring(8, {1}, True), frozenset({"a", "b"})
    if family == "tb":
        l1, l2 = encode(l1, sigma=sig), encode(l2, sigma=sig)

        def check(rooted):
            return tb_check(l1, l1.initial, l2, l2.initial, rooted=rooted)
    else:
        def check(rooted):
            checker = brb_check if family == "brb" else tob_check
            return checker(l1, 0, l2, 0, rooted=rooted, sigma=sig)
    store, rooted = check(False).witness, check(True).witness
    assert rooted.plain is store and rooted.arena is store.arena
    assert revalidate(store, family) and revalidate(rooted, family + "-rooted")
    arena = store.arena
    warm = dict(arena._memo)
    assert warm
    p, q = l1.initial, arena.state2(l2.initial)
    masks = range(arena.full_mask + 1) if store.trows else ()
    entries = [(p, q), (q, p)] + [e for x in masks for e in ((p, x, q), (q, x, p))]
    with taken_out(store, *entries):
        assert not revalidate(store, family)
        assert not revalidate(rooted, family + "-rooted")
    assert warm.items() <= arena._memo.items()
    assert revalidate(store, family) and revalidate(rooted, family + "-rooted")


def test_witness_sets_are_read_only_views_of_the_rows():
    # c is declared and offered by no state, so each triple row stands for
    # two declared masks, and the triples name both
    l1, l2, sig = pair_lts("a.t.0", "a.t.t.0", {"c"})
    store = brb_check(l1, 0, l2, 0, sigma=sig).witness
    pairs = {(0, 3), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6)}
    pairs |= {(q, p) for p, q in pairs}
    assert store.pairs == pairs
    assert store.triples == {(p, x, q) for p, q in pairs for x in range(4)}
    for view in (store.pairs, store.triples):
        with pytest.raises(AttributeError):
            view.add(min(view))
        with pytest.raises(AttributeError):
            view.discard(min(view))
    with pytest.raises(AttributeError):
        store.pairs = set()
    with pytest.raises(AttributeError):
        store.triples = set()
    # reading the sets keeps the rows
    assert store.pairs == pairs and revalidate(store, "brb")


def test_hand_built_tb_store_over_encodings_revalidates():
    l1, l2, sig = pair_lts("a.0", "a.0")
    e1, e2 = encode(l1, sigma=sig), encode(l2, sigma=sig)
    v = tb_check(e1, e1.initial, e2, e2.initial)
    n1 = len(e1)
    pairs = [(i, j - n1) for i, j in v.witness.pairs if i < n1 <= j]
    store = make_store(e1, e2, "tb", pairs=pairs)
    assert revalidate(store, "tb")
    with taken_out(store, min(store.pairs)):
        assert not revalidate(store, "tb")


def test_set_store_over_many_declared_masks_is_refused_before_judging():
    # a store from explicit triples keys its rows by every declared mask,
    # 2^30 here: it is refused before any row is allocated
    lts = lts_of("a.0", sigma=[f"x{i}" for i in range(30)])
    with pytest.raises(StateBudgetExceeded):
        make_store(lts, lts, "brb", pairs=[(0, 0)], triples=[(0, ["a"], 0)])


def test_reserved_name_in_an_environment_set_is_a_named_error(monkeypatch):
    l1, l2, sig = pair_lts("a.0 + b.0", "a.0")
    for check in (tob_check, brb_X_check):
        with pytest.raises(LabelUniverseMismatch, match="an environment set: \\['t'\\]"):
            check(l1, 0, l2, 0, sigma=sig, env=["t"])
    # the queried entry is read before any engine or store is built
    monkeypatch.setattr(bisim.Arena, "_engine_tables",
                        lambda self: pytest.fail("engine tables built"))
    for check in (tob_check, brb_X_check):
        with pytest.raises(LabelUniverseMismatch, match="an environment set"):
            check(l1, 0, l2, 0, sigma=sig, env=["t"])


def test_revalidate_unknown_definition_is_a_named_error():
    v = verdict(brb_check, "a.0", "a.0")
    for definition in ("strong-rooted", "nosuch"):
        with pytest.raises(FragmentUnsupported, match=repr(definition)):
            revalidate(v.witness, definition)


def test_triple_witness_under_pair_definitions_lists_no_masks(monkeypatch):
    # thirty unused actions: the witness's triple set would list 2^30 masks
    # a row, so a pair definition must refuse it from the rows alone
    lts = lts_of("a.0", sigma=[f"x{i}" for i in range(30)])
    v = brb_check(lts, 0, lts, 0, sigma=lts.sigma)
    monkeypatch.setattr(bisim.Arena, "unused_masks",
                        property(lambda self: pytest.fail("declared masks listed")))
    for definition in ("strong", "tob", "tb"):
        assert not revalidate(v.witness, definition)
    assert revalidate(v.witness, "brb")


def test_tob_revalidation_of_a_store_off_the_theta_arena_fails():
    # tob's clauses read the wrappers of a ThetaArena; a store on a plain
    # Arena, a strong witness or an explicit brb store, has none
    l1, l2, sig = pair_lts("a.0 + t.b.0", "a.0 + t.b.0")
    witness = strong_bisim(l1, 0, l2, 0, sigma=sig).witness
    explicit = make_store(l1, l2, "brb", pairs=[(s, s) for s in range(len(l1))])
    for store in (witness, explicit):
        assert revalidate(store, "strong")
        for definition in ("tob", "tob-rooted"):
            assert not revalidate(store, definition)
    # an encoded input is still refused by name first
    enc = encode(l1, sigma=sig)
    with pytest.raises(LabelUniverseMismatch, match="not encoded ones"):
        revalidate(make_store(enc, None, "tb", pairs=[(enc.initial, enc.initial)]), "tob")


def test_explicit_store_refuses_states_outside_their_system():
    # every entry names states of its own system, checked before any row
    l1, l2, _ = pair_lts("a.0", "a.0 + b.0")
    bad = [dict(pairs=[(0, -1)]), dict(pairs=[(0, len(l2))]), dict(pairs=[(-1, 0)]),
           dict(pairs=[(len(l1), 0)]), dict(triples=[(0, ["a"], len(l2))]),
           dict(pairs=[(0, 0)], triples=[(-1, (), 0)])]
    for entries in bad:
        entry = next(iter(entries.get("triples") or entries["pairs"]))
        with pytest.raises(ValueError, match=f"{re.escape(repr(entry))} out of range"):
            make_store(l1, l2, "brb", **entries)
    with pytest.raises(ValueError, match="out of range"):
        make_store(l1, None, "brb", pairs=[(0, len(l1))])
    assert make_store(l1, l2, "brb", pairs=[(len(l1) - 1, len(l2) - 1)]).pairs


def test_checks_refuse_states_outside_their_system():
    # a negative state must not wrap round onto the other system's states,
    # where brb_check(l1, 0, l2, -2) would judge l1's state 0 against
    # itself: every checker refuses it by name before building any context
    l1, l2, sig = pair_lts("a.0", "a.0 + b.0")
    e1, e2 = encode(l1, sigma=sig), encode(l2, sigma=sig)
    checks = [(l1, l2, lambda p, q, check=check: check(l1, p, l2, q, sigma=sig))
              for check in (brb_check, gbrb_check, cbrb_check, tob_check, strong_bisim)]
    checks += [
        (l1, l2, lambda p, q: brb_check(l1, p, l2, q, rooted=True, sigma=sig)),
        (l1, l2, lambda p, q: brb_X_check(l1, p, l2, q, ["a"], sigma=sig)),
        (l1, l2, lambda p, q: tob_check(l1, p, l2, q, sigma=sig, env=["a"])),
        (l1, l2, lambda p, q: distinguish(l1, p, l2, q, "Lbr", sigma=sig)),
        (e1, e2, lambda p, q: tb_check(e1, p, e2, q)),
        (l1, l1, lambda p, q: brb_check(l1, p, l1, q, sigma=sig)),
    ]
    for one, two, check in checks:
        for p, q, bad in [(0, -2, -2), (0, -1, -1), (-1, 0, -1), (0, len(two), len(two)),
                          (len(one), 0, len(one)), (0, -100, -100)]:
            with pytest.raises(ValueError, match=f"state {bad} out of range"):
                check(p, q)
        assert one not in bisim._CONTEXTS
    assert not brb_check(l1, 0, l2, len(l2) - 2, sigma=sig)


def test_manual_witness_from_the_gallery():
    assert revalidate(divergent_timeout_witness(), "brb")


def test_manual_witness_missing_triples_fails():
    trio = divergent_timeout_trio()
    q, r = trio["cycle_with_exit"], trio["cycle_plain"]
    store = make_store(q, r, "brb", pairs=[(0, 0), (1, 1)],
                       triples=[(0, (), 0), (1, (), 1)], sigma={"a"})
    assert not revalidate(store, "brb")


def test_refutation_records():
    v = verdict(brb_check, "a.0 + b.0", "tau.a.0 + b.0")
    assert not v.equivalent
    assert v.refutation
    record = v.refutation[0]
    assert {"lhs", "rhs", "env", "clause", "detail"} <= set(record)
    assert v.to_json()


def test_verdict_json_schema():
    import json
    v = verdict(brb_check, "a.t.b.0", "a.t.t.b.0")
    data = json.loads(v.to_json())
    assert set(data) == {"relation", "equivalent", "sigma", "entries_checked",
                         "iterations", "refutation", "witness_size"}
    assert data["equivalent"] is True
    assert data["witness_size"] > 0


def test_deterministic_reports():
    a = verdict(brb_check, "a.0 + b.0", "tau.a.0 + b.0").to_json()
    b = verdict(brb_check, "a.0 + b.0", "tau.a.0 + b.0").to_json()
    assert a == b


# ---------------------------------------------------------------------------
# relation laws on small samples (the full-size versions live in acceptance)


def test_inclusion_chain(rng):
    from ccspt.sampling import random_process
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    for _ in range(15):
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)
        strong = strong_bisim(l1, 0, l2, 0).equivalent
        rooted = brb_check(l1, 0, l2, 0, rooted=True, sigma=sig).equivalent
        plain = brb_check(l1, 0, l2, 0, sigma=sig).equivalent
        assert not strong or rooted
        assert not rooted or plain


def test_stuttering_lemma_on_witnesses(rng):
    from ccspt.sampling import random_process, equivalent_variant
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts, weak_reach
    checked = 0
    for _ in range(20):
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2 = equivalent_variant(rng, t1)
        try:
            build_lts(t2)
        except Exception:
            continue
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)
        v = brb_check(l1, 0, l2, 0, sigma=sig)
        if not v.equivalent:
            continue
        pairs, arena = v.witness.pairs, v.witness.arena
        for (p, q) in pairs:
            for p1 in arena.weak[p]:
                if (p1, q) in pairs:
                    continue
                # p => p1 => p2 with both ends related to q forces p1 related
                assert not any((p2, q) in pairs for p2 in arena.weak[p1]), \
                    (str(t1), str(t2))
                checked += 1
    assert checked >= 0


def test_stable_pairs_share_initials(rng):
    from ccspt.sampling import random_process, equivalent_variant
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    for _ in range(15):
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2 = equivalent_variant(rng, t1)
        try:
            build_lts(t2)
        except Exception:
            continue
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)
        v = brb_check(l1, 0, l2, 0, sigma=sig)
        if not v.equivalent:
            continue
        arena = v.witness.arena
        for (p, q) in v.witness.pairs:
            if not arena.has_tau[p] and not arena.has_tau[q]:
                assert arena.vis_mask[p] == arena.vis_mask[q]


def test_random_witnesses_revalidate(rng):
    from ccspt.sampling import random_process, equivalent_variant
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    done = 0
    while done < 8:
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2 = equivalent_variant(rng, t1)
        try:
            build_lts(t2)
        except Exception:
            continue
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)
        checks = [
            ("brb", brb_check(l1, 0, l2, 0, sigma=sig)),
            ("gbrb", gbrb_check(l1, 0, l2, 0, sigma=sig)),
            ("cbrb", cbrb_check(l1, 0, l2, 0, sigma=sig)),
            ("tob", tob_check(l1, 0, l2, 0, sigma=sig)),
            ("brb-rooted", brb_check(l1, 0, l2, 0, rooted=True, sigma=sig)),
        ]
        if not all(v.equivalent for _, v in checks):
            continue
        done += 1
        for relation, v in checks:
            assert revalidate(v.witness, relation), (relation, str(t1), str(t2))


def test_timeout_free_coincidence(rng):
    # without time-outs the reactive relation degenerates: plain tb over the
    # raw labels must agree, giving a fifth cross-check on that fragment
    from ccspt.sampling import random_process
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    done = 0
    while done < 40:
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1, l2 = build_lts(t1, sigma=sig), build_lts(t2, sigma=sig)
        if any(lab == "t" for _, lab, _ in l1.transitions + l2.transitions):
            continue
        done += 1
        reactive = brb_check(l1, 0, l2, 0, sigma=sig).equivalent
        raw = tb_check(l1, 0, l2, 0).equivalent
        assert reactive == raw, (str(t1), str(t2))


def test_a_rooted_layer_judges_only_its_seeded_states(monkeypatch):
    # a rooted layer is seeded with the queried entry alone, so each of its
    # rounds judges the rows of those two states and no other state's;
    # rooted tb judges the twins of the roots, the initial states of the
    # plain twin encodings
    todos = []
    failing = bisim.Arena.failing

    def spy(self, family, rows, trows, plain, todo):
        if plain is not None:
            todos.append(list(todo))
        return failing(self, family, rows, trows, plain, todo)

    monkeypatch.setattr(bisim.Arena, "failing", spy)
    # in the rings, a killed root has predecessors, whose rows read its row
    pairs = [pair_lts("a.(b.0 + t.a.0) + tau.a.b.0", "a.(b.0 + t.a.0) + tau.a.0"),
             (ring(8, {1}, False), ring(8, {2}, True), frozenset({"a", "b"}))]
    for l1, l2, sig in pairs:
        e1, e2 = encode(l1, rooted=True), encode(l2, rooted=True)
        runs = [(check, l1, l2, {"sigma": sig})
                for check in (brb_check, gbrb_check, cbrb_check, tob_check)]
        runs += [(tob_check, l1, l2, {"sigma": sig, "env": ["a"]}), (tb_check, e1, e2, {})]
        for check, left, right, kw in runs:
            todos.clear()
            check(left, 0, right, 0, rooted=True, **kw)
            # the queried pair, or under an environment its two wrappers
            assert todos and all(0 < len(set(todo)) <= 2 for todo in todos), check
            if "env" not in kw:
                first = left.twin_encoding() if check is tb_check else left
                assert all(set(todo) <= {0, len(first)} for todo in todos), check


@pytest.mark.parametrize("rooted", [False, True])
def test_tob_records_name_the_queried_environment(rooted):
    # a tob query under an environment judges the wrapped pair, and its
    # records name the environment as given, as brbX's name their triple's
    l1, l2, sig = pair_lts("a.0 + t.b.0", "a.0")
    for env in (["b"], []):   # under {a} the pair is equivalent
        tob = tob_check(l1, 0, l2, 0, rooted=rooted, sigma=sig, env=env)
        brbx = brb_X_check(l1, 0, l2, 0, env, sigma=sig, rooted=rooted)
        assert not tob.equivalent and not brbx.equivalent
        assert tob.refutation and {r["env"] == env for r in tob.refutation} == {True}
        assert {r["env"] == env for r in brbx.refutation} == {True}
    assert all(r["env"] is None for r in tob_check(l1, 0, l2, 0, rooted=rooted,
                                                  sigma=sig).refutation)
