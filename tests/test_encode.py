
import random
from itertools import chain

import pytest

from ccspt import (LabelUniverseMismatch, StateBudgetExceeded, brb_check, brb_X_check,
                   encode, strong_bisim, tb_check)
from ccspt.encode import (ENV, ENV_ROOTED, TRIGGERED, TRIGGERED_ROOTED, EncodedState,
                          encoded_entry, subsets)
from ccspt.sampling import equivalent_variant, random_process
from ccspt.semantics import (T_EPS, TAU, TIMEOUT, Lts, build_lts, eps_label, from_aut,
                             reach, t_label, to_aut)
from ccspt.terms import alphabet
from conftest import lts_of
from test_tb_engine import ring


def test_encode_nil_with_one_action():
    # R(0) is empty, so both eps steps settle on env{}(0)
    lts = Lts(["0"], [], sigma={"a"})
    enc = encode(lts)
    assert enc.num_states == 2
    tags = set(map(str, enc.tags))
    assert tags == {"trig(0)", "env{}(0)"}
    labels = sorted(lab for _, lab, _ in enc.transitions)
    assert labels.count("t_eps") == 1
    assert eps_label(frozenset()) in labels and eps_label({"a"}) in labels
    assert enc.out(enc.initial) == {eps_label(frozenset()): (1,), eps_label({"a"}): (1,)}
    assert enc.num_transitions == 3


def test_encode_no_environment_timeout_under_tau():
    enc = encode(lts_of("tau.0"))
    # env states of tau.0 never idle, so no t_eps from them
    for s, lab, d in enc.transitions:
        if lab == T_EPS:
            assert enc.tags[s].base != enc.initial


def test_rooted_encoding_has_fused_timeouts():
    enc = encode(lts_of("t.0"), rooted=True)
    labels = {lab for _, lab, _ in enc.transitions}
    assert t_label(frozenset()) in labels
    targets = {str(enc.tags[d]) for _, lab, d in enc.transitions
               if lab == t_label(frozenset())}
    assert targets == {"env{}(1)"}


def test_plain_encoding_never_carries_t_sets(rng):
    from ccspt.sampling import random_process
    for _ in range(20):
        _, lts = random_process(rng, ("a", "b"), depth=3, max_states=10)
        enc = encode(lts)
        assert not any(lab.startswith("t_{") for _, lab, _ in enc.transitions)


def test_timeout_successors_only_when_idle(rng):
    from ccspt.sampling import random_process
    for _ in range(20):
        _, lts = random_process(rng, ("a", "b"), depth=3, max_states=10)
        enc = encode(lts, rooted=True)
        for s, lab, d in enc.transitions:
            if lab == "t":
                tag = enc.tags[s]
                assert tag.mode in (ENV, "env_r")
                assert not lts.has_tau(tag.base)
                assert not (lts.initials_visible(tag.base) & tag.allowed)


def test_size_bound(rng):
    from ccspt.sampling import random_process
    for _ in range(20):
        _, lts = random_process(rng, ("a", "b"), depth=3, max_states=10)
        enc = encode(lts, rooted=True)
        bound = lts.num_states * (2 * 2 ** len(lts.sigma) + 2)
        assert enc.num_states <= bound


def test_encoded_entry_lookup():
    enc = encode(lts_of("a.0"))
    i = encoded_entry(enc, frozenset({"a"}))
    assert enc.tags[i] == EncodedState(ENV, frozenset({"a"}), enc.tags[enc.initial].base)
    # the entry under X is the target of the eps_X step, env(X ∩ R(s), s):
    # under {a, b}, b.0 + t.a.0 meets both, and t.a.0 meets only a
    for source, want in (("b.0 + t.a.0", "env{a,b}(0)"), ("t.a.0", "env{a}(0)")):
        for rooted in (False, True):
            enc = encode(lts_of(source), rooted=rooted, sigma={"a", "b"})
            i = encoded_entry(enc, frozenset({"a", "b"}))
            assert (i,) == enc.out(enc.initial)[eps_label({"a", "b"})]
            assert str(enc.tags[i]) == want.replace("env", "env_r" if rooted else "env")


def test_encoded_entry_outside_the_alphabet_is_a_named_error():
    enc = encode(lts_of("a.0"))
    with pytest.raises(LabelUniverseMismatch, match="not present in the encoding over"):
        encoded_entry(enc, frozenset({"b"}))


def test_sigma_not_covering_the_alphabet_is_a_named_error():
    with pytest.raises(LabelUniverseMismatch, match="must cover the system's"):
        encode(lts_of("a.b.0"), sigma={"a"})


@pytest.mark.parametrize("name", ["tau", "t", "t_eps", "eps_{a}"])
def test_reserved_name_in_the_encoding_alphabet_is_a_named_error(name):
    with pytest.raises(LabelUniverseMismatch, match="reserved names"):
        encode(lts_of("a.0"), sigma={"a", name})


def test_correspondence_on_pairs(rng):
    # encoded verdicts match the direct checker, including X-environments
    from ccspt.sampling import random_process
    from ccspt.terms import alphabet
    from ccspt.semantics import build_lts
    for i in range(15):
        t1, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        t2, _ = random_process(rng, ("a", "b"), depth=3, max_states=8)
        sig = alphabet(t1) | alphabet(t2) | {"a", "b"}
        l1 = build_lts(t1, sigma=sig)
        l2 = build_lts(t2, sigma=sig)
        e1, e2 = encode(l1, sigma=sig), encode(l2, sigma=sig)
        direct = brb_check(l1, 0, l2, 0, sigma=sig).equivalent
        via = tb_check(e1, e1.initial, e2, e2.initial).equivalent
        assert direct == via, (str(t1), str(t2))
        x = frozenset(a for a in sig if rng.random() < 0.5)
        directx = brb_X_check(l1, 0, l2, 0, x, sigma=sig).equivalent
        viax = tb_check(e1, encoded_entry(e1, x), e2, encoded_entry(e2, x)).equivalent
        assert directx == viax, (str(t1), str(t2), sorted(x))


def test_plain_encoding_is_built_once_per_system_and_alphabet():
    # one (system, alphabet, bound) has one plain encoding, which a rooted
    # encoding of the same numbers its twins on; a rooted encoding is new
    lts = lts_of("a.t.0 + tau.b.0")
    sig = {"a", "b"}
    plain = encode(lts, sigma=sig)
    assert encode(lts, sigma=sig) is plain
    assert encode(lts, sigma=sig | {"c"}) is not plain
    assert encode(lts, sigma=sig, max_states=100) is not plain
    rooted = encode(lts, rooted=True, sigma=sig)
    assert encode(lts, rooted=True, sigma=sig) is not rooted
    assert rooted.twin_encoding() is plain
    assert rooted.rooted and not plain.rooted


def test_twins_are_the_plain_mode_states_with_the_same_base_and_mask():
    lts = lts_of("a.t.0 + tau.b.0")
    rooted = encode(lts, rooted=True, sigma={"a", "b"})
    plain = rooted.twin_encoding()
    for code, tag in zip(rooted.codes, rooted.tags):
        twin = plain.tags[plain.index[code & ~1]]
        assert (twin.mode, twin.allowed, twin.base) == (
            tag.mode.removesuffix("_r"), tag.allowed, tag.base)
    # and every plain state is the twin of one
    assert {plain.index[code & ~1] for code in rooted.codes} == set(range(len(plain)))


@pytest.mark.parametrize("rooted", [False, True])
def test_an_encoding_groups_its_moves_as_lts_does(rng, rooted):
    # an encoding writes each state's moves while it explores; they must be
    # what Lts groups from the same transitions, labels and targets in the
    # same order, with no transition repeated
    from ccspt.sampling import random_process
    systems = [random_process(rng, ("a", "b"), depth=3, max_states=10)[1] for _ in range(25)]
    for lts in systems:
        enc = encode(lts, rooted=rooted, sigma={"a", "b"})
        grouped = Lts(enc.tags, enc.transitions, enc.initial, enc.sigma, enc.labels)
        assert enc.transitions == grouped.transitions
        assert ([list(enc.out(s).items()) for s in range(len(enc))]
                == [list(grouped.out(s).items()) for s in range(len(grouped))])
        assert (enc.sigma, enc.labels) == (grouped.sigma, grouped.labels)


@pytest.mark.parametrize("rooted", [False, True])
def test_encode_refuses_an_encoded_system(rooted):
    # an encoding moves by eps_X, t_eps and t_X labels, which encoding it
    # again would merge with the settling moves it adds: an encoding, or one
    # read back from .aut, is refused as the reactive checkers refuse it
    for source_rooted in (False, True):
        enc = encode(lts_of("a.0 + t.b.0"), rooted=source_rooted)
        for system in (enc, from_aut(to_aut(enc))):
            with pytest.raises(LabelUniverseMismatch, match="not an encoded one"):
                encode(system, rooted=rooted)


# ---------------------------------------------------------------------------
# encodings explored from the source system, as the reference


def meets(lts):
    """R(s) by state: the visible actions offered anywhere in the tau/t-closure
    of s, by a forward search from each state."""
    out = []
    for s in range(len(lts)):
        seen, todo, names = {s}, [s], set()
        while todo:
            u = todo.pop()
            for lab, ds in lts.out(u).items():
                if lab in (TAU, TIMEOUT):
                    todo += [d for d in ds if d not in seen]
                    seen.update(ds)
                elif lab in lts.sigma:
                    names.add(lab)
        out.append(frozenset(names))
    return out


def explored(lts, sig, max_states, rooted=True, full=False):
    """The encoding explored from the source system, depth first by int
    codes, as ``encode`` explored a rooted one before it numbered it from
    its plain twin: (codes, tags, transitions, out, labels).  A state
    settles under X as env(X ∩ R(s), s), or, ``full``, as env(X, s): with
    ``rooted`` false, that is the plain encoding ``encode`` built before it
    settled states in canonical form."""
    xs = subsets(sig)
    bit = {a: 1 << i for i, a in enumerate(sorted(sig))}
    xmask = [sum(bit[a] for a in x) for x in xs]
    slot_of = {m: k + 1 for k, m in enumerate(xmask)}
    r = [sum(bit[a] for a in (sig if full else names)) for names in meets(lts)]
    eps, tlab = [eps_label(x) for x in xs], [t_label(x) for x in xs]
    stride = len(xs) + 1
    moves = [lts.out(s) for s in range(len(lts))]
    tau = [o.get(TAU, ()) for o in moves]
    tout = [o.get(TIMEOUT, ()) for o in moves]
    offers = [sum(bit[a] for a in o if a in lts.sigma) for o in moves]
    if max_states < 1:
        raise StateBudgetExceeded(1, max_states)
    codes = [(lts.initial * stride) << 1 | rooted]
    index, transitions, out, frontier = {codes[0]: 0}, [], [None], [0]
    while frontier:
        i = frontier.pop()
        s, slot = divmod(codes[i] >> 1, stride)
        rb = codes[i] & 1
        if slot == 0:
            groups = [(lab, [(d * stride) << 1 | rb for d in targets])
                      for lab, targets in moves[s].items() if lab != TIMEOUT]
            settle = (s * stride) << 1 | rb
            groups += [(eps[k], (settle + (slot_of[m & r[s]] << 1),))
                       for k, m in enumerate(xmask)]
            if rb and tout[s] and not tau[s]:
                groups += [(tlab[k], [(d * stride + slot_of[m & r[d]]) << 1 for d in tout[s]])
                           for k, m in enumerate(xmask) if not offers[s] & m]
        else:
            m = xmask[slot - 1]
            groups = [(TAU, [(d * stride + slot_of[m & r[d]]) << 1 | rb for d in tau[s]])
                      ] if tau[s] else []
            groups += [(lab, [(d * stride) << 1 for d in targets])
                       for lab, targets in moves[s].items() if bit.get(lab, 0) & m]
            if not tau[s] and not offers[s] & m:
                groups.append((T_EPS, ((s * stride) << 1 | rb,)))
                if tout[s]:
                    groups.append((TIMEOUT, [(d * stride + slot_of[m & r[d]]) << 1 | rb
                                             for d in tout[s]]))
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
    labels = frozenset(chain([TAU, TIMEOUT, T_EPS], sig, eps, tlab if rooted else ()))
    return codes, tags, tuple(transitions), out, labels


def reference_systems():
    """(system, alphabet): criterion-3 style pairs, the n=12 rings, states
    with only tau or only time-out steps, and declared but unused actions."""
    rng = random.Random(20240)
    for i in range(100):
        sigma = ("a",) if i % 6 == 0 else (("a", "b") if i % 3 else ("a", "b", "c"))
        t1, _ = random_process(rng, sigma, depth=4, max_states=10)
        if rng.random() < 0.45:
            t2 = equivalent_variant(rng, t1)
            try:
                build_lts(t2)
            except Exception:
                t2, _ = random_process(rng, sigma, depth=4, max_states=10)
        else:
            t2, _ = random_process(rng, sigma, depth=4, max_states=10)
        sig = frozenset(sigma) | alphabet(t1) | alphabet(t2)
        yield build_lts(t1, sigma=sig), sig
        yield build_lts(t2, sigma=sig), sig
    for double_t in (False, True):
        yield ring(12, {1}, double_t), frozenset({"a", "b"})
    for source in ("tau.tau.0", "t.t.0", "tau.a.0 + t.b.0", "t.0 + t.tau.0", "a.t.t.b.0"):
        lts = lts_of(source)
        yield lts, lts.sigma | {"a"}
        yield lts, lts.sigma | {"a", "c", "d"}


def test_rooted_encoding_matches_the_explored_one():
    # a rooted encoding numbered from its plain twin has every field of the
    # one explored from the source system, in the same order
    count = 0
    for lts, sig in reference_systems():
        codes, tags, transitions, out, labels = explored(lts, sig, 10_000)
        enc = encode(lts, rooted=True, sigma=sig)
        assert (enc.codes, len(enc), enc.sigma, enc.labels) == (codes, len(codes), sig, labels)
        assert enc.tags == tags
        assert enc.transitions == transitions
        assert [list(enc.out(s).items()) for s in range(len(enc))] == [
            list(moves.items()) for moves in out]
        assert enc.num_transitions == len(transitions) and enc.num_states == len(codes)
        assert to_aut(enc) == to_aut(Lts(tags, transitions, 0, sig, labels))
        count += 1
    assert count == 212


def test_rooted_encoding_is_refused_at_the_explored_count():
    # a rooted encoding over max_states is refused with the count and the
    # message of the explored one, also where the plain twin is refused
    for source in ("a.t.t.b.0", "tau.a.0 + t.b.0"):
        lts = lts_of(source)
        n = len(explored(lts, lts.sigma, 10_000)[0])
        assert len(encode(lts)) < n
        for max_states in range(-1, n + 2):
            want = got = None
            try:
                explored(lts, lts.sigma, max_states)
            except StateBudgetExceeded as exc:
                want = str(exc)
            try:
                encode(lts, rooted=True, max_states=max_states)
            except StateBudgetExceeded as exc:
                got = str(exc)
            assert got == want, max_states
            assert (want is None) == (max_states >= n)


@pytest.mark.parametrize("rooted", [False, True])
def test_the_encoding_is_strongly_bisimilar_to_the_full_one(rooted):
    # settling each state under X ∩ R(s), in place of every X, keeps the
    # root's strong bisimilarity class (the relation in encode's docstring),
    # and so every tb verdict; no encoding grows
    for lts, sig in reference_systems():
        _, tags, transitions, _, labels = explored(lts, sig, 10_000, rooted, full=True)
        full = Lts(tags, transitions, 0, sig, labels)
        enc = encode(lts, rooted=rooted, sigma=sig)
        assert len(enc) <= len(full)
        assert strong_bisim(full, 0, enc, enc.initial).equivalent, (str(lts.tags[0]), sig)


@pytest.mark.parametrize("rooted", [False, True])
def test_every_settled_mask_is_a_submask_of_what_its_base_meets(rooted):
    for lts, sig in reference_systems():
        r = meets(lts)
        enc = encode(lts, rooted=rooted, sigma=sig)
        assert all(tag.allowed is None or tag.allowed <= r[tag.base] for tag in enc.tags)


def test_the_plain_encoding_matches_the_explored_one():
    for lts, sig in list(reference_systems())[::5]:
        codes, tags, transitions, out, labels = explored(lts, sig, 10_000, rooted=False)
        enc = encode(lts, sigma=sig)
        assert (enc.codes, enc.tags, enc.transitions, enc.labels) == (
            codes, tags, transitions, labels)


def test_the_twins_a_state_reaches_are_those_its_twin_reaches():
    # the budget of rooted tb is checked on the twin's reachable states
    for lts, sig in list(reference_systems())[::10]:
        enc = encode(lts, rooted=True, sigma=sig)
        plain = enc.twin_encoding()
        for s in range(len(enc)):
            reached = reach(lambda u: chain.from_iterable(enc.out(u).values()), s)
            twin = plain.index[enc.codes[s] & ~1]
            twins = reach(lambda u: chain.from_iterable(plain.out(u).values()), twin)
            assert {enc.codes[u] & ~1 for u in reached} == {plain.codes[v] for v in twins}
        assert len(reach(lambda u: chain.from_iterable(plain.out(u).values()),
                         plain.initial)) == len(plain)


def test_rooted_tb_writes_no_moves_of_the_rooted_encodings():
    # rooted tb over two rooted encodings reads their roots' codes alone:
    # neither encoding writes its move dicts, transitions or tags
    l1, l2 = ring(12, {1}, False), ring(12, {1}, True)
    sig = frozenset({"a", "b"})
    r1, r2 = encode(l1, rooted=True, sigma=sig), encode(l2, rooted=True, sigma=sig)
    lazy = {"_out", "transitions", "tags"}
    assert tb_check(r1, r1.initial, r2, r2.initial, rooted=True).equivalent
    assert not lazy & (vars(r1).keys() | vars(r2).keys())
    r1.out(r1.initial)
    assert lazy <= vars(r1).keys()
