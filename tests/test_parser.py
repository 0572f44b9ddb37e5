
import pytest

from ccspt import (Choice, DuplicateEquation, ParseError, Prefix, TAU,
                   UnboundReference, ValidityError, parse_formula,
                   parse_source, parse_spec, parse_term, render)
from ccspt.modal import (And, Diamond, EnvBox, Eps, EpsStep, EpsX,
                         HatDiamond, Not, Stable, TimeoutDiamond, Top)
from ccspt.terms import NIL, Par, Theta, Var


def test_prefix_chain():
    t = parse_term("a.t.b.0")
    assert t == Prefix("a", Prefix("t", Prefix("b", NIL)))


def test_choice_of_prefixes():
    t = parse_term("tau.a.0 + t.b.0")
    assert isinstance(t, Choice)
    assert t.left.action == TAU
    assert t.right.action == "t"


def test_parallel_with_sync_set():
    t = parse_term("a.0 ||{a} (tau.0 + a.0)")
    assert isinstance(t, Par)
    assert t.sync == {"a"}


def test_precedence():
    t = parse_term("a.b.0 + c.0 ||{} d.0")
    assert isinstance(t, Choice)
    assert isinstance(t.right, Par)
    assert t.left == parse_term("a.b.0")


def test_par_left_associative():
    t = parse_term("a.0 ||{} b.0 ||{c} c.0")
    assert isinstance(t, Par) and t.sync == {"c"}
    assert isinstance(t.left, Par) and t.left.sync == frozenset()


def test_operators():
    assert render(parse_term("hide{a}(a.0)")) == "hide{a}(a.0)"
    assert render(parse_term("rename{a->b,a->c}(a.0)")) == "rename{a->b,a->c}(a.0)"
    t = parse_term("theta{a}{a,b}(0)")
    assert isinstance(t, Theta) and t.low == {"a"} and t.high == {"a", "b"}
    assert render(t) == "theta{a}{a,b}(0)"
    assert render(Choice(NIL, NIL)) == "0 + 0"


def test_theta_set_inclusion_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_term("theta{a,b}{a}(0)")


@pytest.mark.parametrize("text, line, col", [
    ("t_eps.0", 1, 1),
    ("a.t_eps.0", 1, 3),
    ("rename{tau->a}(0)", 1, 8),
    ("rename{a->t}(a.0)", 1, 11),
    ("hide{t_eps}(a.0)", 1, 6),
    ("a.0 ||{b, t} b.0", 1, 11),
    ("(a.0 +\n psi{a,tau}(0))", 2, 8),
])
def test_reserved_name_as_a_visible_action_is_refused_at_its_position(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_term(text)
    assert (err.value.line, err.value.col) == (line, col)
    assert "reserved" in str(err.value)


@pytest.mark.parametrize("text, col", [("<t_eps>T", 2), ("eps(T <t_eps^> T)", 8),
                                       ("[{a,t}]T", 5)])
def test_reserved_name_in_a_formula_is_refused_at_its_position(text, col):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert (err.value.line, err.value.col) == (1, col)


def test_recursion_forms():
    inline = parse_term("<x|{x = a.x}>")
    named = parse_term("<x|S>", specs={"S": parse_spec("x = a.x")})
    assert inline == named
    with pytest.raises(UnboundReference):
        parse_term("<x|Missing>")
    with pytest.raises(UnboundReference):
        parse_term("<z|{x = a.x}>")


def test_spec_parsing():
    sp = parse_spec("x = a.x")
    assert sp.body("x") == Prefix("a", Var("x"))
    sp = parse_spec("x = t.(a.0 + tau.x)")
    assert sp.body("x") == parse_term("t.(a.0 + tau.x)", require_valid=False)
    assert parse_spec("x = x").body("x") == Var("x")
    with pytest.raises(DuplicateEquation):
        parse_spec("x = a.x\nx = b.x")


def test_validity_error_on_parse():
    with pytest.raises(ValidityError):
        parse_term("<y|{y = theta{}{a}(y)}>")


def test_source_files():
    src = parse_source("a.t.b.0")
    assert src.root == parse_term("a.t.b.0")
    text = """
    # a named specification and a root
    alphabet a, b, z
    spec S
    x = a.t.x
    root <x|S> + b.0
    """
    src = parse_source(text)
    assert src.alphabet == {"a", "b", "z"}
    assert "S" in src.specs
    assert src.root == parse_term("<x|{x=a.t.x}> + b.0")
    with pytest.raises(ValidityError):
        parse_source("root a.x")
    assert parse_source("root a.x", open_terms=True).root == Prefix("a", Var("x"))


def test_formula_surface():
    assert parse_formula("<a>T") == Diamond("a", Top())
    assert parse_formula("[{}]<t>T") == TimeoutDiamond(frozenset(), Top())
    assert parse_formula("eps(T <a^> T)") == EpsStep(Top(), "a", Top())
    assert parse_formula("[{a,b}]T") == EnvBox(frozenset({"a", "b"}), Top())
    assert parse_formula("T <eps_{a}> T") == EpsX(Top(), frozenset({"a"}), Top())
    assert parse_formula("stable") == Stable()
    assert parse_formula("&(T,!T)") == And((Top(), Not(Top())))


def test_term_round_trip_random(rng):
    from ccspt.sampling import random_term
    for _ in range(150):
        t = random_term(rng, ("a", "b", "c"), depth=4)
        assert parse_term(render(t), require_valid=False) == t


def test_formula_round_trip_random(rng):
    formulas = [
        Top(), Stable(), Not(Top()), And((Top(), Stable())),
        Diamond("a", Top()), Diamond(TAU, Stable()), Diamond("t", Top()),
        HatDiamond("a", Top()), EnvBox(frozenset({"a"}), Diamond("a", Top())),
        TimeoutDiamond(frozenset(), Top()), Eps(Stable()),
        EpsX(Stable(), frozenset({"a", "b"}), Top()),
        EpsStep(Top(), TAU, EpsX(Top(), frozenset(), Stable())),
        Not(EpsX(EpsX(Top(), frozenset(), Top()), frozenset({"b"}), Top())),
    ]
    for f in formulas:
        assert parse_formula(render(f)) == f


def test_render_after_substitution_round_trips():
    # freshened bound names must re-print as parseable canonical names
    from ccspt import rec, substitute
    call = rec("x", {"x": Prefix("a", Choice(Var("x"), Var("u")))})
    out = substitute(call, {"u": Var("x")})
    assert parse_term(render(out), require_valid=False) == out


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_term("a..0")
    assert err.value.line == 1
    assert err.value.col is not None
    # input after a whole term or formula; a specification's equations run
    # to the end of input, so a stray token there is a missing identifier
    for parse, text, message in [
            (parse_term, "a.0 )", "trailing input ')' at 1:5"),
            (parse_formula, "T )", "trailing input ')' at 1:3"),
            (parse_spec, "x = a.0\n)", "found ')' at 2:1 (expected an identifier)")]:
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message


def test_spec_round_trip(rng):
    from ccspt import spec, substitute
    from ccspt.sampling import guarded_spec_pool
    for sp in guarded_spec_pool(["a", "b"]):
        assert parse_spec(render(sp)) == sp
    # a spec with a freshened bound name still renders parseably
    call = parse_term("<x|{x = a.(x + u)}>", require_valid=False)
    renamed = substitute(call, {"u": Var("x")}).spec
    assert parse_spec(render(renamed)) == renamed
