
import pytest

from ccspt import (CcsptError, Choice, DuplicateEquation, ParseError, Prefix, TAU,
                   UnboundReference, ValidityError, parse_formula,
                   parse_source, parse_spec, parse_term, render)
from ccspt.modal import (And, Diamond, EnvBox, Eps, EpsStep, EpsX,
                         HatDiamond, Not, Stable, TimeoutDiamond, Top)
from ccspt.sampling import random_term
from ccspt.terms import NIL, Par, Theta, Var, free_vars, is_valid


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


def _line_based_parse_source(text, open_terms=False):
    """The line-based reader ``parse_source`` replaced, kept as the reference
    for valid files: comments stripped line by line, keywords found at line
    heads, and each spec block and root line re-parsed on its own."""
    lines = [line.split("#", 1)[0] for line in text.splitlines()]
    keywords = ("alphabet", "spec", "root", "endspec")
    if not any(line.strip().split(" ", 1)[0] in keywords for line in lines if line.strip()):
        return frozenset(), {}, parse_term("\n".join(lines))
    alphabet, specs, root, name, eqs = frozenset(), {}, None, None, []

    def close_block():
        nonlocal name, eqs
        if name is not None:
            specs[name] = parse_spec("\n".join(eqs), specs)
            name, eqs = None, []

    for lineno, line in enumerate(lines, start=1):
        body = line.strip()
        if not body:
            continue
        head = body.split(" ", 1)[0]
        if head in keywords:
            close_block()
        if head == "alphabet":
            rest = body[len("alphabet"):].strip()
            alphabet |= frozenset(n.strip() for n in rest.split(",") if n.strip())
        elif head == "spec":
            name = body[len("spec"):].strip()
            if not name:
                raise ParseError("spec block needs a name", lineno, 1)
            if name in specs:
                raise DuplicateEquation(f"specification {name!r} redefined", lineno, 1)
        elif head == "root":
            if root is not None:
                raise ParseError("more than one root term", lineno, 1)
            root = parse_term(body[len("root"):], specs, require_valid=False)
        elif head != "endspec":
            if name is None:
                raise ParseError(f"stray line {body!r}", lineno, 1)
            eqs.append(body)
    close_block()
    if root is None:
        raise ParseError("no root term", len(lines), 1)
    if not is_valid(root):
        raise ValidityError("root term is invalid")
    if not open_terms and free_vars(root):
        raise ValidityError(f"root term has free variables {sorted(free_vars(root))}")
    return alphabet, specs, root


_COMMENTS = ["", "", "", "  # note", " #root a.0", "\t# spec S; x = a.x", "#"]


def _declaration_file(rng):
    """A random valid process file: comments, alphabet lines, 0-3 spec blocks
    with and without ``endspec``, and a root that calls them."""
    acts = ["a", "b", "c"]
    lines = [f"# process {rng.randrange(99)}"] if rng.random() < 0.5 else []
    for _ in range(rng.randint(0, 2)):
        names = rng.sample(["a", "b", "z", "q_1", "tau", "t_eps"], rng.randint(1, 3))
        indent = " " * rng.randint(0, 2)
        lines.append(f"{indent}alphabet {', '.join(names)}" + rng.choice(_COMMENTS))
    calls = []
    for i in range(rng.randint(0, 3)):
        lines.append(f"spec S{i}" + rng.choice(_COMMENTS))
        variables = rng.sample(["x", "y", "w"], rng.randint(1, 3))
        for v in variables:
            body = f"{rng.choice(acts)}.{rng.choice(variables)}"
            if rng.random() < 0.5:
                body += f" + {render(random_term(rng, acts, depth=2))}"
            if calls and rng.random() < 0.4:
                body += f" + {rng.choice(calls)}"
            lines.append(f"{v} = {body}" + rng.choice(_COMMENTS))
            if rng.random() < 0.2:
                lines.append("")
        calls.append(f"<{rng.choice(variables)}|S{i}>")
        if rng.random() < 0.5:
            lines.append("endspec" + rng.choice(_COMMENTS))
    parts = rng.sample(calls, rng.randint(0, len(calls)))
    parts.append(render(random_term(rng, acts, depth=3)))
    lines.append("root " + " + ".join(parts) + rng.choice(_COMMENTS))
    return "\n".join(lines) + rng.choice(["", "\n", "\n# end\n"])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_declaration_files_parse_as_the_line_based_reader_did(seed):
    import random
    rng = random.Random(seed)
    for _ in range(400):
        text = _declaration_file(rng)
        alphabet, specs, root = _line_based_parse_source(text)
        src = parse_source(text)
        assert src.alphabet == alphabet, text
        assert {n: render(sp) for n, sp in src.specs.items()} == \
            {n: render(sp) for n, sp in specs.items()}, text
        assert src.root == root, text


@pytest.mark.parametrize("text, line, col", [
    # in a spec block, after a comment line and a blank one
    ("# header\nalphabet a, b\nspec S\nx = a.x  # loops\n\ny = b.(x + ]\nroot <x|S>\n", 6, 12),
    # on a root line, and an unclosed one
    ("alphabet a  # extra\nroot a.0 + b..0\n", 2, 14),
    ("spec S\nx = a.x\nendspec\nroot (<x|S> + b.0", 4, 18),
    # a name that is no identifier on an alphabet line
    ("alphabet <z, a\nroot a.0\n", 1, 10),
    ("alphabet a b\nroot a.0\n", 1, 12),
    ("alphabet a,\nroot a.0\n", 2, 1),
    # a spec name, which stands alone on its line
    ("spec S x = a.x\nroot a.0\n", 1, 8),
])
def test_declaration_file_faults_name_the_files_own_position(text, line, col):
    with pytest.raises(ParseError) as err:
        parse_source(text)
    assert (err.value.line, err.value.col) == (line, col), str(err.value)


def test_comments_and_lines_in_every_entry_point():
    assert parse_term("a.0 # first\n + b.0 # second") == parse_term("a.0 + b.0")
    assert parse_formula("<a>T # holds") == Diamond("a", Top())
    with pytest.raises(ParseError) as err:
        parse_term("# a.0\n a..0")
    assert (err.value.line, err.value.col) == (2, 4)
    # a root may span lines, and a keyword is one only opening a line
    assert parse_source("root a.0 +\n  b.0\n").root == parse_term("a.0 + b.0")
    term = "a.0 + <root|{root = a.root}>"
    assert parse_source(term).root == parse_term(term)
    assert parse_source("spec S\nx = root.x\nroot <x|S>").root == parse_term("<x|{x = root.x}>")


def test_an_open_bare_term_file_is_refused_unless_open_terms():
    with pytest.raises(ValidityError):
        parse_source("a.x")
    assert parse_source("a.x", open_terms=True).root == Prefix("a", Var("x"))


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


@pytest.mark.parametrize("text, error, message, where", [
    ("spec S\nroot a.0\n", ParseError, "empty specification at 2:1", (2, 1)),
    ("spec S\nx = a.x\nspec S\ny = b.y\nroot a.0\n", DuplicateEquation,
     "specification 'S' redefined at 3:6", (3, 6)),
    ("root a.0\nroot b.0\n", ParseError, "more than one root term at 2:1", (2, 1)),
    ("alphabet a\n", ParseError, "found 'end of input' at 2:1 (expected a root line)", (2, 1)),
    ("root <x|{x = theta{}{}(x)}>\n", ValidityError, "root term is invalid", None),
])
def test_each_declaration_file_refusal_is_named_with_its_position(text, error, message, where):
    with pytest.raises(CcsptError) as err:
        parse_source(text)
    assert type(err.value) is error
    assert str(err.value) == message
    if where is not None:
        assert (err.value.line, err.value.col) == where
