import json

import pytest

from ccspt import ParseError, cli, from_aut, strong_bisim
from ccspt.cli import main
from conftest import lts_of


@pytest.fixture
def proc(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


def test_check_exit_codes(proc, capsys):
    one = proc("one.proc", "a.t.b.0")
    two = proc("two.proc", "a.t.t.b.0")
    assert main(["check", "--rel", "brb", one, two]) == 0
    assert main(["check", "--rel", "cbrb", one, two]) == 1
    assert main(["check", "--rel", "brb-rooted",
                 proc("l.proc", "tau.a.0 + t.b.0"), proc("r.proc", "tau.a.0")]) == 0


def test_check_every_relation(proc, capsys):
    one = proc("one.proc", "a.t.b.0")
    two = proc("two.proc", "a.t.t.b.0")
    expected = {"strong": 1, "brb": 0, "brb-rooted": 0, "gbrb": 0,
                "gbrb-rooted": 0, "tob": 0, "tob-rooted": 0, "tb": 0,
                "tb-rooted": 0, "cbrb": 1}
    for rel, code in expected.items():
        assert main(["check", "--rel", rel, one, two]) == code, rel
    assert main(["check", "--rel", "brbX", "--env", "", one, two]) == 0


def test_check_tob_reads_env(proc, capsys):
    # a.0 + b.0 and a.0 differ by b, which the environment {a} never allows
    one = proc("one.proc", "a.0 + b.0")
    two = proc("two.proc", "a.0")
    assert main(["check", "--rel", "tob", one, two]) == 1
    for rel in ("tob", "tob-rooted", "brbX"):
        assert main(["check", "--rel", rel, "--env", "a", one, two]) == 0, rel
    assert main(["check", "--rel", "tob", "--env", "b", one, two]) == 1


def test_records_under_an_environment_name_it_as_given(proc, capsys):
    # tob judges the wrapped pair, brbX the triple; both name the set queried
    one = proc("one.proc", "a.0 + t.b.0")
    two = proc("two.proc", "a.0")
    for rel in ("tob", "tob-rooted", "brbX"):
        capsys.readouterr()
        assert main(["check", "--fmt", "json", "--rel", rel, "--env", "b", one, two]) == 1
        records = json.loads(capsys.readouterr().out)["refutation"]
        assert records and all(r["env"] == ["b"] for r in records), rel


def test_env_without_an_environment_relation_is_a_usage_error(proc, capsys):
    path = proc("p.proc", "a.0")
    for rel in set(cli.RELATIONS) - set(cli.ENV_RELATIONS):
        with pytest.raises(SystemExit) as exit_:
            main(["check", "--rel", rel, "--env", "a", path, path])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"--env applies to brbX, tob, tob-rooted, not {rel}" in err
        assert "internal error" not in err


def test_check_json_schema(proc, capsys):
    one = proc("one.proc", "a.0 + b.0")
    two = proc("two.proc", "tau.a.0 + b.0")
    assert main(["check", "--rel", "brb", "--fmt", "json", one, two]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["equivalent"] is False
    assert data["refutation"]


def test_parse_and_hnf(proc, capsys):
    assert main(["parse", proc("p.proc", "a . t . b . 0")]) == 0
    assert capsys.readouterr().out.strip() == "a.t.b.0"
    assert main(["hnf", proc("h.proc", "a.0 ||{} b.0")]) == 0
    assert capsys.readouterr().out.strip() == "a.(0 ||{} b.0) + b.(a.0 ||{} 0)"


def test_lts_aut_round_trip(proc, capsys, tmp_path):
    src = proc("p.proc", "a.t.b.0 + tau.a.0")
    assert main(["lts", "--fmt", "aut", src]) == 0
    text = capsys.readouterr().out
    back = from_aut(text).with_sigma({"a", "b"})
    orig = lts_of("a.t.b.0 + tau.a.0", sigma={"a", "b"})
    assert strong_bisim(orig, 0, back, back.initial).equivalent
    aut = proc("p.aut", text)
    assert main(["check", "--rel", "strong", "--sigma", "a,b", src, aut]) == 0


def test_encode_subcommand(proc, capsys):
    assert main(["encode", proc("p.proc", "t.0"), "--rooted"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("des (")
    assert 't_{}' in out


def test_modal_subcommands(proc, capsys):
    p = proc("p.proc", "a.t.b.0")
    q = proc("q.proc", "a.t.t.b.0")
    assert main(["modal", "eval", p, "--formula", "<a>[{}]<t><b>T"]) == 0
    assert json.loads(capsys.readouterr().out)["holds"] is True
    assert main(["modal", "distinguish", p, q]) == 0
    assert json.loads(capsys.readouterr().out)["formula"] is None
    r = proc("r.proc", "a.0 + b.0")
    s = proc("s.proc", "tau.a.0 + b.0")
    assert main(["modal", "distinguish", r, s, "--fragment", "Lbr"]) == 1
    assert json.loads(capsys.readouterr().out)["formula"]


def test_axioms_subcommand(capsys):
    assert main(["axioms", "soundcheck", "--which", "Axr", "--axiom",
                 "sum-comm", "--samples", "3", "--seed", "1"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["axioms"][0]["axiom"] == "sum-comm"
    assert data["axioms"][0]["passes"] == 3


def test_bad_input_exits_2(proc, capsys, tmp_path):
    assert main(["parse", proc("bad.proc", "a..0")]) == 2
    # a bare term with a free variable, as a root line with one is
    assert main(["parse", proc("open.proc", "a.x")]) == 2
    assert "ValidityError" in capsys.readouterr().err
    assert main(["parse", "--open", proc("open.proc", "a.x")]) == 0
    assert main(["check", proc("x.proc", "<x|{x = x}>"),
                 proc("y.proc", "0")]) == 2
    capsys.readouterr()
    # a file that cannot be read
    missing = str(tmp_path / "absent.proc")
    assert main(["lts", missing]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert missing in err


def test_aut_out_of_range_state_exits_2(proc, capsys):
    good = proc("good.aut", 'des (0, 1, 2)\n(0,"a",1)\n')
    bad_initial = proc("init.aut", 'des (5, 1, 2)\n(0,"a",1)\n')
    assert main(["check", bad_initial, good]) == 2
    assert "initial state 5" in capsys.readouterr().err
    bad_target = proc("target.aut", 'des (0, 1, 2)\n(0,"a",7)\n')
    assert main(["check", good, bad_target]) == 2
    assert "at 2:1" in capsys.readouterr().err


def test_aut_negative_count_is_parse_error():
    with pytest.raises(ParseError) as err:
        from_aut("des (0, -1, 2)\n")
    assert err.value.line == 1


def test_internal_error_exits_2(proc, capsys, monkeypatch):
    def broken(args, sigma):
        raise IndexError("list index out of range")
    monkeypatch.setattr(cli, "_dispatch", broken)
    assert main(["parse", proc("p.proc", "a.0")]) == 2
    assert capsys.readouterr().err.startswith("internal error: IndexError")


def test_too_deep_term_exits_2_with_its_name(proc, capsys):
    deep = proc("deep.proc", "a." * 12_000 + "0")
    assert main(["lts", deep]) == 2
    assert capsys.readouterr().err.startswith("error: TermTooDeep: build_lts")
    assert main(["check", deep, proc("nil.proc", "0")]) == 2
    assert capsys.readouterr().err.startswith("error: TermTooDeep: build_lts")


@pytest.mark.parametrize("argv", [
    ["check", "--max-states", "0", "p.proc", "p.proc"],
    ["--max-states", "-1", "check", "p.proc", "p.proc"],
    ["lts", "--max-states", "0", "p.proc"],
])
def test_nonpositive_max_states_is_a_usage_error(proc, capsys, argv):
    path = proc("p.proc", "a.0")
    with pytest.raises(SystemExit) as exit_:
        main([path if arg == "p.proc" else arg for arg in argv])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "--max-states" in err and "internal error" not in err


def test_unknown_axiom_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["axioms", "soundcheck", "--axiom", "nosuch"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "'nosuch'" in err and "internal error" not in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_nonpositive_samples_is_a_usage_error(capsys, samples):
    # zero samples would report every schema sound on no evidence
    with pytest.raises(SystemExit) as exit_:
        main(["axioms", "soundcheck", "--axiom", "sum-comm",
              "--samples", samples])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert f"--samples must be positive, not {samples}" in err
    assert "internal error" not in err and "Traceback" not in err


def test_non_integer_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("PABR_SEED", "seven")
    with pytest.raises(SystemExit) as exit_:
        main(["axioms", "soundcheck", "--axiom", "sum-comm", "--samples", "1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "PABR_SEED must be an integer, not 'seven'" in err
    assert "internal error" not in err and "Traceback" not in err
    # an explicit --seed does not read the environment
    assert main(["axioms", "soundcheck", "--axiom", "sum-comm",
                 "--samples", "1", "--seed", "4"]) == 0


def test_sigma_override(proc, capsys):
    p = proc("p.proc", "t.b.0")
    q = proc("q.proc", "t.t.b.0")
    assert main(["--sigma", "z1,z2", "check", "--rel", "brb", p, q]) == 0


def test_check_strong_reports_the_shared_alphabet(proc, capsys):
    # the systems' own label universes differ; --sigma and each other's
    # actions widen both, and the verdict reports the union
    left = proc("left.proc", "a.0")
    same = proc("same.aut", 'des (0, 1, 2)\n(0,"a",1)\n')
    other = proc("other.aut", 'des (0, 1, 2)\n(0,"b",1)\n')
    for right, code in ((same, 0), (other, 1)):
        assert main(["check", "--rel", "strong", "--sigma", "z", "--fmt", "json",
                     left, right]) == code
        data = json.loads(capsys.readouterr().out)
        assert data["equivalent"] is (code == 0)
        assert data["sigma"] == (["a", "z"] if code == 0 else ["a", "b", "z"])


@pytest.mark.parametrize("rel", ["tb", "brb", "gbrb", "tob", "strong"])
def test_reserved_name_in_sigma_exits_2(proc, capsys, rel):
    # declared visible, tau used to count as an unused action, and tb alone
    # then told tau.a.0 from a.0
    left, right = proc("l.proc", "tau.a.0"), proc("r.proc", "a.0")
    assert main(["check", "--rel", rel, "--sigma", "tau", left, right]) == 2
    err = capsys.readouterr().err
    assert "LabelUniverseMismatch: reserved names in a declared alphabet: ['tau']" in err


@pytest.mark.parametrize("name", ["tau", "t", "t_eps"])
def test_reserved_name_in_an_alphabet_line_exits_2(proc, capsys, name):
    path = proc("p.proc", f"alphabet {name}\nroot a.0\n")
    aut = proc("p.aut", 'des (0, 1, 2)\n(0,"a",1)\n')
    for argv in (["lts", path], ["check", path, path], ["lts", "--sigma", name, aut]):
        assert main(argv) == 2, argv
        assert "reserved names" in capsys.readouterr().err


def test_reserved_name_in_an_environment_set_exits_2(proc, capsys):
    # a.0 + b.0 against a.0 under the empty environment is inequivalent: a
    # dropped tau would read as exit 1
    one, two = proc("ab.proc", "a.0 + b.0"), proc("a.proc", "a.0")
    for argv in (["check", "--rel", "brbX", "--env", "tau", one, two],
                 ["modal", "eval", one, "--formula", "T", "--env", "tau"]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "LabelUniverseMismatch: reserved names in an environment set: ['tau']" in err


def test_a_name_that_is_no_identifier_exits_2(proc, capsys):
    # --sigma and --env name actions as an alphabet line does: '<z' and
    # 'a b' used to be taken as action names, with exit 0
    path = proc("a.proc", "a.0")
    two = proc("ab.proc", "a.0 + b.0")
    for argv, bad in ((["--sigma", "<z, a b", "lts", "--fmt", "json", path], "'<z'"),
                      (["check", "--rel", "brb", "--sigma", "a,b c", path, two], "'b c'"),
                      (["check", "--rel", "brbX", "--env", "a-b", path, two], "'a-b'"),
                      (["modal", "eval", path, "--formula", "T", "--env", "1a"], "'1a'")):
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert not captured.out
        option = "--env" if "--env" in argv else "--sigma"
        assert f"error: ParseError: {option} names {bad}" in captured.err, argv


def test_sigma_before_the_subcommand_survives(proc, capsys):
    p = proc("p.proc", "a.0")
    assert main(["--sigma", "z1,z2", "lts", "--fmt", "json", p]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == ["a", "z1", "z2"]
    # given on both sides, the subcommand's value wins
    assert main(["--sigma", "z1", "lts", "--sigma", "z2", "--fmt", "json", p]) == 0
    assert json.loads(capsys.readouterr().out)["sigma"] == ["a", "z2"]


def test_max_states_before_the_subcommand_survives(proc, capsys):
    chain = proc("chain.proc", "a." * 40 + "0")
    assert main(["check", chain, chain]) == 0
    assert main(["--max-states", "30", "check", chain, chain]) == 2
    assert capsys.readouterr().err.startswith("error: StateBudgetExceeded")


def test_seed_env_fallback(proc, capsys, monkeypatch):
    monkeypatch.setenv("PABR_SEED", "9")
    assert main(["axioms", "soundcheck", "--which", "Axr", "--axiom",
                 "sum-unit", "--samples", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seed"] == 9


def test_check_reads_each_aut_system_once(proc, capsys, monkeypatch):
    # widening a system's alphabet builds a second Lts; a --sigma a file
    # already declares needs none (here only the right file lacks a)
    from ccspt.semantics import Lts
    built = []
    real = Lts.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Lts, "__init__", counted)
    left = proc("left.aut", 'des (0, 2, 2)\n(0,"a",1)\n(1,"t",0)\n')
    right = proc("right.aut", 'des (0, 2, 2)\n(0,"b",1)\n(1,"t",0)\n')
    for sigma, lts_count, shared in (([], 2, ["a", "b"]), (["--sigma", "a"], 3, ["a", "b"]),
                                     (["--sigma", "a,z"], 4, ["a", "b", "z"])):
        built.clear()
        assert main(["check", "--rel", "strong", "--fmt", "json", *sigma, left, right]) == 1
        assert len(built) == lts_count
        assert json.loads(capsys.readouterr().out)["sigma"] == shared


def test_encode_and_lts_in_every_format(proc, capsys):
    src = proc("left.proc", "a.0 + a.0")
    assert main(["encode", "--fmt", "human", src]) == 0
    assert capsys.readouterr().out == "5 states, 8 transitions\n"
    assert main(["encode", "--fmt", "dot", src]) == 0
    dot = capsys.readouterr().out
    assert dot.startswith("digraph lts {\n") and dot.endswith("}\n")
    assert 'n0 [shape=circle,label="trig(0)"];' in dot
    assert 'n0 -> n3 [label="eps_{a}"];' in dot
    assert dot.count(" -> n") == 8 + 1   # every transition and the initial arrow
    assert main(["lts", "--fmt", "dot", src]) == 0
    assert capsys.readouterr().out == (
        'digraph lts {\n  rankdir=LR;\n  init [shape=point]; init -> n0;\n'
        '  n0 [shape=circle,label="a.0 + a.0"];\n  n1 [shape=circle,label="0"];\n'
        '  n0 -> n1 [label="a"];\n}\n')
