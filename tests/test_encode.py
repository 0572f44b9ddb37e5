
import pytest

from ccspt import LabelUniverseMismatch, brb_check, brb_X_check, encode, tb_check
from ccspt.encode import ENV, EncodedState, encoded_entry
from ccspt.semantics import T_EPS, Lts, eps_label, from_aut, t_label, to_aut
from conftest import lts_of


def test_encode_nil_with_one_action():
    lts = Lts(["0"], [], sigma={"a"})
    enc = encode(lts)
    assert enc.num_states == 3
    tags = set(map(str, enc.tags))
    assert tags == {"trig(0)", "env{}(0)", "env{a}(0)"}
    labels = sorted(lab for _, lab, _ in enc.transitions)
    assert labels.count("t_eps") == 2
    assert eps_label(frozenset()) in labels and eps_label({"a"}) in labels
    assert enc.num_transitions == 4


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
