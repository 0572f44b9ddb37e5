"""Concrete syntax for terms, specifications, source files and modal formulas.

Grammar (terms)::

    term   := sum
    sum    := par ("+" par)*
    par    := prefix ("||{" acts "}" prefix)*
    prefix := action "." prefix | atom
    atom   := "0" | ident | "(" term ")"
            | "hide{" acts "}(" term ")"
            | "rename{" a->b ("," a->b)* "}(" term ")"
            | "theta{" acts "}{" acts "}(" term ")"
            | "psi{" acts "}(" term ")"
            | "<" ident "|" ident ">"            -- call into a named spec
            | "<" ident "|" "{" eqs "}" ">"      -- call with inline equations
    action := "tau" | "t" | visible ident
    acts   := (visible ident ("," visible ident)*)?

A visible ident, as in renamings and the actions of formulas too, is one
``terms.is_visible`` accepts: not ``tau``, ``t`` or ``t_eps``, a label of
the encoding.

A process file is a bare term or lines each opened by a keyword, which is
one only as a line's first token: ``alphabet a, b`` (identifiers on one
line), ``spec NAME`` (alone on its line, then ``var = term`` equations up to
the next keyword), ``endspec``, and one ``root TERM``.  ``#`` comments run
to the end of a line in every entry point; positions are the input's own.
Rendering is the inverse: ``parse(render(x))`` is structurally equal to ``x``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, NoReturn, Optional, Tuple

from . import modal as _modal
from .errors import (DuplicateEquation, ParseError, UnboundReference, ValidityError,
                     depth_guarded)
from .terms import (NIL, TAU, TIMEOUT, Choice, Hide, Nil, Par, Prefix, Psi,
                    RecCall, RecSpec, Rename, Term, Theta, Var, children,
                    free_vars, is_valid, is_visible, spec)

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow>->)
  | (?P<parpar>\|\|)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
  | (?P<sym>[0-9().{},<>|+=;\[\]!&^~])
""", re.VERBOSE)
_KEYWORDS = ("alphabet", "spec", "endspec", "root")


@dataclass
class _Tok:
    kind: str   # 'ident', 'sym', 'arrow', 'parpar', 'eof'
    text: str
    line: int
    col: int


def _tokenize(text: str) -> List[_Tok]:
    toks = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        chunk = m.group(0)
        if m.lastgroup not in ("ws", "comment"):
            toks.append(_Tok(m.lastgroup, chunk, line, col))
        nl = chunk.count("\n")
        if nl:
            line += nl
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


def is_identifier(name: str) -> bool:
    """Whether ``name`` is one identifier token, as an ``alphabet`` line names
    an action: a letter, then letters, digits and underscores."""
    m = _TOKEN_RE.fullmatch(name)
    return m is not None and m.lastgroup == "ident"


class _Parser:
    def __init__(self, text: str, specs: Optional[Dict[str, RecSpec]] = None,
                 keywords: Tuple[str, ...] = ()):
        self.toks = _tokenize(text)
        self.pos = 0
        self.specs = specs or {}
        self.keywords = keywords

    # -- token plumbing ----------------------------------------------------
    def peek(self, ahead=0) -> _Tok:
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, expected: str) -> NoReturn:
        """Refuse the next token, where the grammar ``expected`` another."""
        tok = self.peek()
        raise ParseError(f"found {tok.text or 'end of input'!r}", tok.line, tok.col,
                         expected=expected)

    def expect(self, text: str) -> _Tok:
        if self.peek().text != text:
            self.fail(repr(text))
        return self.next()

    def expect_ident(self) -> _Tok:
        if self.peek().kind != "ident":
            self.fail("an identifier")
        return self.next()

    def visible(self) -> str:
        """An identifier naming a visible action; a reserved name is refused
        at its own position."""
        tok = self.expect_ident()
        if not is_visible(tok.text):
            raise ParseError(f"{tok.text!r} is reserved and cannot name a visible action",
                             tok.line, tok.col)
        return tok.text

    def action(self) -> str:
        """``tau``, ``t`` or a visible action name."""
        return self.next().text if self.peek().text in (TAU, TIMEOUT) else self.visible()

    def keyword(self) -> Optional[str]:
        """The next token's text if it is a keyword opening a line."""
        tok = self.peek()
        head = self.pos == 0 or self.toks[self.pos - 1].line < tok.line
        return tok.text if head and tok.text in self.keywords else None

    def line_ident(self, head: _Tok) -> _Tok:
        """An identifier on ``head``'s line."""
        if self.peek().line != head.line:
            self.fail(f"an identifier on line {head.line}")
        return self.expect_ident()

    def finish(self, out):
        """``out``, once no input is left after it."""
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return out

    # -- terms ---------------------------------------------------------
    def term(self) -> Term:
        out = self.par()
        while self.peek().text == "+":
            self.next()
            out = Choice(out, self.par())
        return out

    def par(self) -> Term:
        out = self.prefix()
        while self.peek().kind == "parpar":
            self.next()
            out = Par(self.braced(), out, self.prefix())
        return out

    def prefix(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident" and self.peek(1).text == ".":
            action = self.action()
            self.next()
            return Prefix(action, self.prefix())
        return self.atom()

    def atom(self) -> Term:
        tok = self.peek()
        if tok.text == "0":
            self.next()
            return NIL
        if tok.text == "(":
            self.next()
            out = self.term()
            self.expect(")")
            return out
        if tok.text == "<":
            return self.rec_call()
        if tok.kind == "ident":
            if tok.text == "hide":
                self.next()
                return Hide(self.braced(), self.parenthesised())
            if tok.text == "rename":
                self.next()
                self.expect("{")
                pairs = self.renpairs()
                self.expect("}")
                return Rename(pairs, self.parenthesised())
            if tok.text == "theta":
                self.next()
                low, high = self.braced(), self.braced()
                try:
                    return Theta(low, high, self.parenthesised())
                except ValueError as exc:
                    raise ParseError(str(exc), tok.line, tok.col)
            if tok.text == "psi":
                self.next()
                return Psi(self.braced(), self.parenthesised())
            self.next()
            return Var(tok.text)
        self.fail("a term")

    def parenthesised(self) -> Term:
        self.expect("(")
        out = self.term()
        self.expect(")")
        return out

    def rec_call(self) -> Term:
        opening = self.expect("<")
        var = self.expect_ident().text
        self.expect("|")
        if self.peek().text == "{":
            self.next()
            sp = self.equations(stop="}")
            self.expect("}")
        else:
            name = self.expect_ident()
            if name.text not in self.specs:
                raise UnboundReference(f"unknown specification {name.text!r}",
                                       name.line, name.col)
            sp = self.specs[name.text]
        self.expect(">")
        if var not in sp.vars:
            raise UnboundReference(f"{var!r} is not bound by the specification",
                                   opening.line, opening.col)
        return RecCall(var, sp)

    def equations(self, stop: str) -> RecSpec:
        eqs: List[Tuple[str, Term]] = []
        seen = set()
        while self.peek().text != stop and not self.keyword():
            name = self.expect_ident()
            if name.text in seen:
                raise DuplicateEquation(f"duplicate equation for {name.text!r}",
                                        name.line, name.col)
            seen.add(name.text)
            self.expect("=")
            eqs.append((name.text, self.term()))
            if self.peek().text == ";":
                self.next()
        if not eqs:
            tok = self.peek()
            raise ParseError("empty specification", tok.line, tok.col)
        return spec(eqs)

    def braced(self) -> frozenset:
        """``{`` acts ``}``."""
        self.expect("{")
        acts = self.acts()
        self.expect("}")
        return acts

    def acts(self) -> frozenset:
        names = []
        if self.peek().kind == "ident":
            names.append(self.visible())
            while self.peek().text == ",":
                self.next()
                names.append(self.visible())
        return frozenset(names)

    def renpairs(self) -> frozenset:
        pairs = []
        while self.peek().kind == "ident":
            a = self.visible()
            self.expect("->")
            b = self.visible()
            pairs.append((a, b))
            if self.peek().text != ",":
                break
            self.next()
        return frozenset(pairs)

    # -- process files -----------------------------------------------
    def source(self) -> Tuple[List[str], Term]:
        """The alphabet names and root term of a bare term or of keyword lines;
        a ``spec`` block, which any keyword line ends, goes into ``self.specs``."""
        if not self.keyword():
            return [], self.finish(self.term())
        names: List[str] = []
        root: Optional[Term] = None
        while self.peek().kind != "eof":
            if not self.keyword():
                self.fail("alphabet, spec, endspec or root opening a line")
            tok = self.next()
            if tok.text == "alphabet":
                names.append(self.line_ident(tok).text)
                while self.peek().text == ",":
                    self.next()
                    names.append(self.line_ident(tok).text)
            elif tok.text == "spec":
                name = self.line_ident(tok)
                if name.text in self.specs:
                    raise DuplicateEquation(f"specification {name.text!r} redefined",
                                            name.line, name.col)
                if self.peek().line == tok.line:
                    self.fail("equations from the next line")
                self.specs[name.text] = self.equations(stop="")
            elif tok.text == "root":
                if root is not None:
                    raise ParseError("more than one root term", tok.line, tok.col)
                root = self.term()
        if root is None:
            self.fail("a root line")
        return names, root

    # -- formulas ------------------------------------------------------
    def formula(self) -> _modal.Formula:
        out = self.formula_unary()
        while self.peek().text == "<" and self.peek(1).text == "eps_":
            self.next()
            self.next()
            acts = self.braced()
            self.expect(">")
            out = _modal.EpsX(out, acts, self.formula_unary())
        return out

    def formula_unary(self) -> _modal.Formula:
        tok = self.peek()
        if tok.text == "T":
            self.next()
            return _modal.Top()
        if tok.text == "stable":
            self.next()
            return _modal.Stable()
        if tok.text == "!":
            self.next()
            return _modal.Not(self.formula_unary())
        if tok.text == "&":
            self.next()
            self.expect("(")
            parts = [self.formula()]
            while self.peek().text == ",":
                self.next()
                parts.append(self.formula())
            self.expect(")")
            return _modal.And(tuple(parts))
        if tok.text == "(":
            self.next()
            out = self.formula()
            self.expect(")")
            return out
        if tok.text == "[":
            self.next()
            acts = self.braced()
            self.expect("]")
            body = self.formula_unary()
            if isinstance(body, _modal.Diamond) and body.action == "t":
                return _modal.TimeoutDiamond(acts, body.sub)
            return _modal.EnvBox(acts, body)
        if tok.text == "<":
            self.next()
            action = self.action()
            if self.peek().text == "^":
                self.next()
                self.expect(">")
                return _modal.HatDiamond(action, self.formula_unary())
            self.expect(">")
            return _modal.Diamond(action, self.formula_unary())
        if tok.text == "eps":
            self.next()
            self.expect("(")
            left = self.formula()
            if self.peek().text == ")":
                self.next()
                return _modal.Eps(left)
            self.expect("<")
            action = self.action()
            self.expect("^")
            self.expect(">")
            right = self.formula()
            self.expect(")")
            return _modal.EpsStep(left, action, right)
        self.fail("a formula")


# ---------------------------------------------------------------------------
# Entry points


@depth_guarded
def parse_term(text: str, specs: Optional[Dict[str, RecSpec]] = None,
               require_valid: bool = True) -> Term:
    p = _Parser(text, specs)
    out = p.finish(p.term())
    if require_valid and not is_valid(out):
        raise ValidityError(f"invalid expression: {text.strip()!r}")
    return out


@depth_guarded
def parse_spec(text: str, specs: Optional[Dict[str, RecSpec]] = None) -> RecSpec:
    """One ``name = term`` equation per line, up to the end of input; mutual
    references allowed."""
    return _Parser(text, specs).equations(stop="")


@depth_guarded
def parse_formula(text: str) -> "_modal.Formula":
    p = _Parser(text)
    return p.finish(p.formula())


@dataclass
class SourceFile:
    """A parsed process file: optional alphabet pragma, named specs, one root term."""

    alphabet: frozenset
    specs: Dict[str, RecSpec]
    root: Term


@depth_guarded
def parse_source(text: str, open_terms: bool = False) -> SourceFile:
    """Parse a process file: a bare term, or an optional ``alphabet a, b``
    line, any number of ``spec NAME`` blocks of ``var = term`` equations, and
    one ``root TERM``, which may span lines.  Either way the root must be
    valid and, unless ``open_terms``, closed.
    """
    p = _Parser(text, keywords=_KEYWORDS)
    names, root = p.source()
    if not is_valid(root):
        raise ValidityError("root term is invalid")
    if not open_terms and free_vars(root):
        raise ValidityError(f"root term has free variables {sorted(free_vars(root))}")
    return SourceFile(frozenset(names), p.specs, root)


# ---------------------------------------------------------------------------
# Rendering

_SUM, _PAR, _PREFIX = 0, 1, 2


def render(x) -> str:
    """Deterministic pretty-printer; parse(render(x)) == x."""
    if isinstance(x, Term):
        return _render_term(x, _SUM, {})
    if isinstance(x, RecSpec):
        names = _spec_display_names(x, {})
        return "\n".join(f"{names.get(n, n)} = {_render_term(b, _SUM, names)}"
                         for n, b in x.equations)
    if isinstance(x, _modal.Formula):
        return _render_formula(x, top=True)
    raise TypeError(f"cannot render {x!r}")


def _acts(names) -> str:
    return ",".join(sorted(names))


def _render_term(t: Term, level: int, names: Dict[str, str]) -> str:
    if isinstance(t, Nil):
        return "0"
    if isinstance(t, Var):
        return names.get(t.name, t.name)
    if isinstance(t, Prefix):
        return f"{t.action}.{_render_term(t.body, _PREFIX, names)}"
    if isinstance(t, Choice):
        body = (f"{_render_term(t.left, _SUM, names)} + "
                f"{_render_term(t.right, _PAR, names)}")
        return f"({body})" if level > _SUM else body
    if isinstance(t, Par):
        body = (f"{_render_term(t.left, _PAR, names)} ||{{{_acts(t.sync)}}} "
                f"{_render_term(t.right, _PREFIX, names)}")
        return f"({body})" if level > _PAR else body
    if isinstance(t, Hide):
        return f"hide{{{_acts(t.hidden)}}}({_render_term(t.body, _SUM, names)})"
    if isinstance(t, Rename):
        pairs = ",".join(f"{a}->{b}" for a, b in sorted(t.pairs))
        return f"rename{{{pairs}}}({_render_term(t.body, _SUM, names)})"
    if isinstance(t, Theta):
        return (f"theta{{{_acts(t.low)}}}{{{_acts(t.high)}}}"
                f"({_render_term(t.body, _SUM, names)})")
    if isinstance(t, Psi):
        return f"psi{{{_acts(t.allowed)}}}({_render_term(t.body, _SUM, names)})"
    if isinstance(t, RecCall):
        inner = _spec_display_names(t.spec, names)
        eqs = "; ".join(f"{inner.get(n, n)} = {_render_term(b, _SUM, inner)}"
                        for n, b in t.spec.equations)
        return f"<{inner.get(t.var, t.var)}|{{{eqs}}}>"
    raise TypeError(f"not a term: {t!r}")


_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


def _spec_display_names(sp: RecSpec, outer: Dict[str, str]) -> Dict[str, str]:
    """Choose printable names for bound variables freshened during substitution."""
    names = dict(outer)
    taken = set(outer.values())
    for n, body in sp.equations:
        taken |= {v for v in _all_var_names(body) if v not in sp.vars}
    for n, _ in sp.equations:
        if _IDENT_RE.match(n) and n not in taken:
            names[n] = n
            taken.add(n)
            continue
        base = n.split("~", 1)[0] or "v"
        cand = base
        k = 0
        while cand in taken or not _IDENT_RE.match(cand) or cand in (TAU, TIMEOUT):
            k += 1
            cand = f"{base}_{k}"
        names[n] = cand
        taken.add(cand)
    return names


def _all_var_names(t: Term):
    if isinstance(t, Var):
        yield t.name
    for kid in t.spec.bodies if isinstance(t, RecCall) else children(t):
        yield from _all_var_names(kid)


def _render_formula(f, top=False) -> str:
    m = _modal
    if isinstance(f, m.Top):
        return "T"
    if isinstance(f, m.Stable):
        return "stable"
    if isinstance(f, m.Not):
        return f"!{_render_formula(f.sub)}"
    if isinstance(f, m.And):
        return "&(" + ",".join(_render_formula(p, top=True) for p in f.parts) + ")"
    if isinstance(f, m.Diamond):
        return f"<{f.action}>{_render_formula(f.sub)}"
    if isinstance(f, m.HatDiamond):
        return f"<{f.action}^>{_render_formula(f.sub)}"
    if isinstance(f, m.EnvBox):
        return f"[{{{_acts(f.allowed)}}}]{_render_formula(f.sub)}"
    if isinstance(f, m.TimeoutDiamond):
        return f"[{{{_acts(f.allowed)}}}]<t>{_render_formula(f.sub)}"
    if isinstance(f, m.Eps):
        return f"eps({_render_formula(f.sub, top=True)})"
    if isinstance(f, m.EpsStep):
        return (f"eps({_render_formula(f.left, top=True)} <{f.action}^> "
                f"{_render_formula(f.right, top=True)})")
    if isinstance(f, m.EpsX):
        body = (f"{_render_formula(f.left)} <eps_{{{_acts(f.allowed)}}}> "
                f"{_render_formula(f.right)}")
        return body if top else f"({body})"
    raise TypeError(f"not a formula: {f!r}")
