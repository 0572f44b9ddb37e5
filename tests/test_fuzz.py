"""Seeded fuzzing of parse -> build -> every check -> CLI.

Random terms, their truncations and mutations, mutated ``.aut`` files and a
chain too deep to build go through the library and through ``ccspt``.  Only
a ``CcsptError`` may escape the library, and the CLI must exit 2 -- never 1,
which means "inequivalent" -- whenever the library raised.
"""

import random

import pytest

from ccspt import (CcsptError, ExplorationLimits, StateBudgetExceeded, brb_X_check,
                   brb_check, build_lts, cbrb_check, encode, from_aut, gbrb_check,
                   parse_term, render, strong_bisim, tb_check, to_aut,
                   tob_check)
from ccspt.cli import main
from ccspt.sampling import random_process, random_term

MAX_STATES = 30
PARTNER = "a.t.b.0 + tau.b.0"
TOKENS = ["a", "b", "t", "tau", ".", "+", "0", "(", ")", "||{a}", "{", "}",
          "<", ">", "|", "=", ",", "x", "psi{a}", "theta{}{a}", "hide{a}",
          "rename{a->b}", "->", " ", "\n"]


def texts(rng, count):
    """(kind, text): random terms, truncated and mutated, and mutated .aut."""
    for i in range(count):
        text = render(random_term(rng, ("a", "b"), depth=3))
        if i % 4 == 1:
            text = text[:rng.randrange(len(text) + 1)]
        elif i % 4 == 2:
            for _ in range(rng.randint(1, 3)):
                k = rng.randrange(len(text) + 1)
                text = text[:k] + rng.choice(TOKENS) + text[k + rng.randint(0, 2):]
        elif i % 4 == 3:
            lines = to_aut(build_lts(parse_term("a.t.b.0 + tau.a.0"))).splitlines()
            k = rng.randrange(len(lines))
            lines[k] = lines[k][:rng.randrange(len(lines[k]) + 1)] + rng.choice(
                ["", "-1", "9", ",", ")", '"t"', "(0,"])
            yield "aut", "\n".join(lines) + "\n"
            continue
        yield "term", text
    yield "term", "a." * 12_000 + "0"


def checks(l1, l2):
    """Every relation of ``ccspt check`` as the CLI runs it, through the
    library."""
    sig = l1.sigma | l2.sigma
    s1, s2 = l1.with_sigma(sig), l2.with_sigma(sig)

    def run(check, **kw):
        return lambda: check(l1, l1.initial, l2, l2.initial, sigma=sig, **kw)

    def tb(rooted):
        e1, e2 = (encode(l, rooted=rooted, sigma=sig, max_states=MAX_STATES)
                  for l in (l1, l2))
        return tb_check(e1, e1.initial, e2, e2.initial, rooted=rooted)

    return {
        "strong": lambda: strong_bisim(s1, s1.initial, s2, s2.initial),
        "brb": run(brb_check), "brb-rooted": run(brb_check, rooted=True),
        "brbX": run(brb_X_check, env=frozenset()),
        "gbrb": run(gbrb_check), "gbrb-rooted": run(gbrb_check, rooted=True),
        "cbrb": run(cbrb_check),
        "tob": run(tob_check), "tob-rooted": run(tob_check, rooted=True),
        "tb": lambda: tb(False), "tb-rooted": lambda: tb(True),
    }


def outcome(call):
    """The verdict, or the CcsptError raised; anything else escapes."""
    try:
        return call()
    except CcsptError as exc:
        return exc


def test_only_named_errors_escape(tmp_path, capsys):
    rng = random.Random(20_240)
    partner = build_lts(parse_term(PARTNER))
    other = tmp_path / "partner.proc"
    other.write_text(PARTNER)

    def cli(command, *argv):
        code = main([command, "--max-states", str(MAX_STATES), *argv])
        err = capsys.readouterr().err
        assert "internal error" not in err, (command, argv, err)
        assert (code == 2) == err.startswith("error: "), (command, argv, code, err)
        return code, err

    failed = {"build": 0, "check": 0}
    for k, (kind, text) in enumerate(texts(rng, 200)):
        path = tmp_path / f"input{k}.{kind}"
        path.write_text(text)
        if kind == "aut":
            lts = outcome(lambda: from_aut(text))
        else:
            lts = outcome(lambda: build_lts(parse_term(text),
                                            ExplorationLimits(max_states=MAX_STATES)))
        code, err = cli("lts", str(path))
        if isinstance(lts, CcsptError):
            failed["build"] += 1
            assert code == 2 and f"error: {type(lts).__name__}" in err, (text[:80], err)
            continue
        assert code == 0
        results = {rel: outcome(call) for rel, call in checks(lts, partner).items()}
        rel = sorted(results)[k % len(results)]
        env = ["--env", ""] if rel == "brbX" else []
        code, err = cli("check", "--rel", rel, *env, str(path), str(other))
        want = results[rel]
        if isinstance(want, CcsptError):
            failed["check"] += 1
            assert code == 2 and f"error: {type(want).__name__}" in err, (text[:80], rel)
        else:
            assert code == (0 if want.equivalent else 1), (text[:80], rel, code)
    # the sample must reach errors in both stages
    assert failed["build"] > 20 and failed["check"] > 0, failed


def test_sampling_that_gives_up_raises_its_last_named_error():
    with pytest.raises(CcsptError) as err:
        random_process(random.Random(0), ("a", "b"), depth=4, max_states=1, attempts=5)
    assert type(err.value) is StateBudgetExceeded
    assert str(err.value) == "state budget exceeded: 2 > 1"
    # a draw that fits after one refused draw: the campaign's inputs come
    # from the generator, so both the term and the next number are pinned
    rng = random.Random(0)
    term, lts = random_process(rng, ("a", "b"), depth=4, max_states=3)
    assert render(term) == "rename{}(<x|{x = a.x}>) + hide{}(rename{b->b}(b.a.0))"
    assert len(lts) == 2 and rng.random() == 0.23861592861522019
