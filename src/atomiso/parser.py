"""Concrete syntax for set-builder expressions and guard formulas.

`parse` turns source text into a canonical expression AST and `print_expr`
renders one back; the two are mutually inverse on canonical ASTs (those the
parser itself produces).  Set-shaped syntax always lands in a `Union` node:
a bare comprehension becomes a one-clause union, an enumeration becomes a
union of binder-free clauses, and `empty` is the empty union.  `atoms` stays
a bare `AtomsSet` unless it meets `+`.

Atom literals are read by one scanner, `_scan_atom`, which also serves
`parse_atoms` for the command line's atom lists.  Comments start with `#`
unless a digit follows and run to the end of the line: `#` and ASCII digits
are an atom literal, `#` and any other digit is an error naming it.

Closedness is decided here, once.  The parser keeps one list of variable
uses in input order; a comprehension or quantifier, once complete, drops
the uses since its start that it binds (`_Parser.bind`), so the first use
left over is the first unbound one, reported with its line and column.
"""

from fractions import Fraction

from .errors import ParseError
from .exprs import (
    ATOMS,
    AtomParam,
    AtomsSet,
    ETuple,
    EVar,
    Expr,
    SetComp,
    Union,
    clauses,
)
from .theories.base import Backend
from .theories.formulas import (
    FALSE,
    TRUE,
    And,
    Bot,
    Const,
    Exists,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    Rel,
    Term,
    Top,
    Var,
    format_atom_value,
    land,
    lnot,
    lor,
)

KEYWORDS = {
    "in",
    "atoms",
    "empty",
    "and",
    "or",
    "not",
    "exists",
    "forall",
    "true",
    "false",
    "R",
}

_SYMBOLS = ("->", "!=", "<=", "{", "}", "(", ")", "|", ",", ".", "+", "=", "<")

# Deepest nesting the parser accepts.  A level is a set or tuple inside
# another expression, a parenthesized or quantified formula, or one more
# arrow of an implication chain.  Each level costs a handful of interpreter
# frames here and in the layers that walk the result, so the limit keeps
# deep input a ParseError instead of a RecursionError.
MAX_NESTING = 100


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind  # 'ident' | 'kw' | 'atom' | 'sym' | 'eof'
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.value!r}, {self.line}, {self.col})"


def _digits_end(text: str, i: int) -> int:
    while i < len(text) and "0" <= text[i] <= "9":
        i += 1
    return i


def _scan_atom(text: str, i: int, line: int, col: int):
    """The atom literal starting at text[i] as (value, end), or None when
    none starts there.  `#n` is an equality atom; `n`, `-n`, `n/d` and
    `-n/d` are rationals.  Digits are ASCII only."""
    start = i + 1 if text[i] in "#-" else i
    end = _digits_end(text, start)
    if end == start:
        return None
    if text[i] == "#":
        return int(text[start:end]), end
    denominator_end = _digits_end(text, end + 1) if text.startswith("/", end) else end
    if denominator_end > end + 1:
        end = denominator_end
    frag = text[i:end]
    try:
        return Fraction(frag), end
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in atom literal {frag!r}", line, col) from None


def parse_atoms(text: str | None, backend: Backend) -> frozenset:
    """The atoms of a comma- or whitespace-separated list of literals, each
    checked by the backend; an empty list means no atoms.  A word that is
    not a literal goes to the backend's check as written, which rejects it."""
    spaced = (text or "").replace(",", " ")
    atoms = set()
    end = 0
    for word in spaced.split():
        start = spaced.index(word, end)
        end = start + len(word)
        lit = _scan_atom(spaced, start, 1, start + 1)
        value = lit[0] if lit is not None and lit[1] == end else word
        backend.check_atom(value)
        atoms.add(value)
    return frozenset(atoms)


def _tokenize(text: str) -> list[_Token]:
    toks: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def err(msg):
        raise ParseError(msg, line, col)

    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#" or ch == "-" or "0" <= ch <= "9":
            lit = _scan_atom(text, i, line, col)
            if lit is not None:
                value, j = lit
                toks.append(_Token("atom", value, line, col))
                col += j - i
                i = j
                continue
            if ch == "#":
                j = i + 1
                while j < n and text[j].isdigit():
                    j += 1
                if j > i + 1:
                    # a digit that is not ASCII: a mistyped literal, not a comment
                    err(f"atom literals take ASCII digits only, got {text[i:j]!r}")
                while i < n and text[i] != "\n":
                    i += 1
                continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            toks.append(_Token("kw" if word in KEYWORDS else "ident", word, line, col))
            col += j - i
            i = j
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                toks.append(_Token("sym", sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            err(f"unexpected character {ch!r}")
    toks.append(_Token("eof", None, line, col))
    return toks


def _nested(production):
    """Count one nesting level for the duration of a recursive production."""

    def parse_nested(self):
        self.depth += 1
        try:
            if self.depth > MAX_NESTING:
                self.err_here(f"input nested deeper than {MAX_NESTING} levels")
            return production(self)
        finally:
            self.depth -= 1

    return parse_nested


class _Parser:
    """Recursive descent over the token stream; each production returns its
    AST.  Each variable use appends its token to `uses`, and a completed
    comprehension or quantifier discharges its binders' uses by `bind`."""

    def __init__(self, toks: list[_Token]):
        self.toks = toks
        self.pos = 0
        self.depth = 0
        self.uses: list[_Token] = []

    # -- token plumbing -------------------------------------------------

    def peek(self) -> _Token:
        return self.toks[self.pos]

    def next(self) -> _Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.value == s

    def at_kw(self, w: str) -> bool:
        t = self.peek()
        return t.kind == "kw" and t.value == w

    def expect_sym(self, s: str) -> _Token:
        t = self.next()
        if t.kind != "sym" or t.value != s:
            raise ParseError(f"expected {s!r}", t.line, t.col)
        return t

    def expect_kw(self, w: str) -> _Token:
        t = self.next()
        if t.kind != "kw" or t.value != w:
            raise ParseError(f"expected {w!r}", t.line, t.col)
        return t

    def expect_ident(self) -> _Token:
        t = self.next()
        if t.kind != "ident":
            raise ParseError("expected an identifier", t.line, t.col)
        return t

    def err_here(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t.line, t.col)

    def bind(self, mark: int, names) -> None:
        """Drop the uses recorded since `mark` of the names a binder binds."""
        self.uses[mark:] = [t for t in self.uses[mark:] if t.value not in names]

    # -- expressions -----------------------------------------------------

    @_nested
    def parse_expr(self):
        t0 = self.peek()
        ast = self.parse_primary()
        if not self.at_sym("+"):
            return ast
        parts = [(ast, t0)]
        while self.at_sym("+"):
            self.next()
            tn = self.peek()
            parts.append((self.parse_primary(), tn))
        out: list[SetComp] = []
        for p, tok in parts:
            if not isinstance(p, (Union, SetComp, AtomsSet)):
                raise ParseError("operands of + must be sets", tok.line, tok.col)
            out.extend(clauses(p))
        return Union(tuple(out))

    def parse_primary(self):
        t = self.peek()
        if t.kind == "kw" and t.value == "atoms":
            self.next()
            return ATOMS
        if t.kind == "kw" and t.value == "empty":
            self.next()
            return Union(())
        if t.kind == "atom":
            self.next()
            return AtomParam(t.value)
        if t.kind == "ident":
            self.uses.append(self.next())
            return EVar(t.value)
        if t.kind == "sym" and t.value == "(":
            return self.parse_tuple()
        if t.kind == "sym" and t.value == "{":
            return self.parse_brace()
        self.err_here("expected an expression")

    def parse_tuple(self):
        opener = self.expect_sym("(")
        items = [self.parse_expr()]
        while self.at_sym(","):
            self.next()
            items.append(self.parse_expr())
        self.expect_sym(")")
        if len(items) < 2:
            raise ParseError(
                "a tuple needs at least two components", opener.line, opener.col
            )
        return ETuple(tuple(items))

    def parse_brace(self):
        self.expect_sym("{")
        mark = len(self.uses)
        head = self.parse_expr()
        if self.at_sym("|"):
            self.next()
            return self.parse_comp_tail(head, mark)
        elements = [head]
        while self.at_sym(","):
            self.next()
            elements.append(self.parse_expr())
        self.expect_sym("}")
        return Union(tuple(SetComp(e, (), TRUE) for e in elements))

    def parse_comp_tail(self, element, mark: int):
        binders = []
        while True:
            t = self.expect_ident()
            if t.value in binders:
                raise ParseError(f"duplicate binder {t.value!r}", t.line, t.col)
            binders.append(t.value)
            if self.at_sym(","):
                self.next()
                continue
            break
        self.expect_kw("in")
        self.expect_kw("atoms")
        guard = TRUE
        if self.at_sym(","):
            self.next()
            guard = self.parse_formula()
        self.expect_sym("}")
        self.bind(mark, binders)
        return Union((SetComp(element, tuple(binders), guard),))

    # -- formulas ----------------------------------------------------------

    def parse_formula(self):
        return self.parse_implies()

    @_nested
    def parse_implies(self):
        lhs = self.parse_or()
        if self.at_sym("->"):
            self.next()
            return Implies(lhs, self.parse_implies())
        return lhs

    def parse_or(self):
        parts = [self.parse_and()]
        while self.at_kw("or"):
            self.next()
            parts.append(self.parse_and())
        return lor(*parts) if len(parts) > 1 else parts[0]

    def parse_and(self):
        parts = [self.parse_unary()]
        while self.at_kw("and"):
            self.next()
            parts.append(self.parse_unary())
        return land(*parts) if len(parts) > 1 else parts[0]

    def parse_unary(self):
        # a run of negations is read in a loop: it does not deepen the
        # result, since double negations cancel
        negations = 0
        while self.at_kw("not"):
            self.next()
            negations += 1
        if self.at_kw("exists") or self.at_kw("forall"):
            ctor = Exists if self.peek().value == "exists" else Forall
            self.next()
            v = self.expect_ident()
            self.expect_sym(".")
            mark = len(self.uses)
            out = ctor(v.value, self.parse_formula())
            self.bind(mark, (v.value,))
        else:
            out = self.parse_atomic()
        for _ in range(negations):
            out = lnot(out)
        return out

    def parse_atomic(self):
        t = self.peek()
        if t.kind == "kw" and t.value == "true":
            self.next()
            return TRUE
        if t.kind == "kw" and t.value == "false":
            self.next()
            return FALSE
        if t.kind == "kw" and t.value == "R":
            self.next()
            self.expect_sym("(")
            args = [self.parse_term()]
            for _ in range(2):
                self.expect_sym(",")
                args.append(self.parse_term())
            self.expect_sym(")")
            return Rel("R", tuple(args))
        if t.kind == "sym" and t.value == "(":
            self.next()
            inner = self.parse_formula()
            self.expect_sym(")")
            return inner
        lhs = self.parse_term()
        op = self.next()
        if op.kind != "sym" or op.value not in ("=", "!=", "<", "<="):
            raise ParseError("expected a comparison operator", op.line, op.col)
        rhs = self.parse_term()
        if op.value == "!=":
            return lnot(Rel("=", (lhs, rhs)))
        return Rel(op.value, (lhs, rhs))

    def parse_term(self):
        t = self.next()
        if t.kind == "ident":
            self.uses.append(t)
            return Var(t.value)
        if t.kind == "atom":
            return Const(t.value)
        raise ParseError("expected a variable or an atom literal", t.line, t.col)


def _closed(p: _Parser, ast, what: str):
    """ast, once p is at the end of its input and no use is left unbound;
    the first unbound use is reported."""
    t = p.peek()
    if t.kind != "eof":
        raise ParseError(f"trailing input after {what}", t.line, t.col)
    if p.uses:
        u = p.uses[0]
        raise ParseError(f"unbound variable {u.value!r}", u.line, u.col)
    return ast


def parse(text: str, backend: Backend | None = None) -> Expr:
    """Parse a closed expression; with a backend, also validate guards and
    atom literals against its vocabulary."""
    p = _Parser(_tokenize(text))
    ast = _closed(p, p.parse_expr(), "expression")
    if backend is not None:
        validate_expr(ast, backend)
    return ast


def parse_formula(text: str, backend: Backend | None = None) -> Formula:
    """Parse a closed formula (no free variables)."""
    p = _Parser(_tokenize(text))
    ast = _closed(p, p.parse_formula(), "formula")
    if backend is not None:
        backend.validate(ast)
    return ast


def validate_expr(e: Expr, backend: Backend) -> None:
    """Check every guard and every atom of e against the backend."""
    if isinstance(e, (EVar, AtomsSet)):
        return
    if isinstance(e, AtomParam):
        backend.check_atom(e.value)
        return
    if isinstance(e, ETuple):
        for i in e.items:
            validate_expr(i, backend)
        return
    if isinstance(e, SetComp):
        validate_expr(e.element, backend)
        backend.validate(e.guard)
        return
    if isinstance(e, Union):
        for c in e.clauses:
            validate_expr(c, backend)
        return
    raise TypeError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# canonical printing

_LVL_IMPLIES = 0
_LVL_OR = 1
_LVL_AND = 2
_LVL_UNARY = 3


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    return format_atom_value(t.value)


def print_formula(f: Formula, level: int = _LVL_IMPLIES) -> str:
    if isinstance(f, Top):
        return "true"
    if isinstance(f, Bot):
        return "false"
    if isinstance(f, Rel):
        if f.name in ("=", "<", "<="):
            return f"{print_term(f.args[0])} {f.name} {print_term(f.args[1])}"
        args = ", ".join(print_term(a) for a in f.args)
        return f"{f.name}({args})"
    if isinstance(f, Not):
        if isinstance(f.body, Rel) and f.body.name == "=":
            a, b = f.body.args
            return f"{print_term(a)} != {print_term(b)}"
        return _wrap(f"not {print_formula(f.body, _LVL_UNARY)}", _LVL_UNARY, level)
    if isinstance(f, And):
        body = " and ".join(print_formula(g, _LVL_UNARY) for g in f.args)
        return _wrap(body, _LVL_AND, level)
    if isinstance(f, Or):
        body = " or ".join(print_formula(g, _LVL_AND) for g in f.args)
        return _wrap(body, _LVL_OR, level)
    if isinstance(f, Implies):
        body = (
            f"{print_formula(f.premise, _LVL_OR)} -> "
            f"{print_formula(f.conclusion, _LVL_IMPLIES)}"
        )
        return _wrap(body, _LVL_IMPLIES, level)
    if isinstance(f, Exists):
        return _wrap(f"exists {f.var}. {print_formula(f.body)}", _LVL_IMPLIES, level)
    if isinstance(f, Forall):
        return _wrap(f"forall {f.var}. {print_formula(f.body)}", _LVL_IMPLIES, level)
    raise TypeError(f"not a formula: {f!r}")


def _wrap(body: str, own: int, required: int) -> str:
    return f"({body})" if own < required else body


def print_expr(e: Expr) -> str:
    if isinstance(e, EVar):
        return e.name
    if isinstance(e, AtomParam):
        return format_atom_value(e.value)
    if isinstance(e, AtomsSet):
        return "atoms"
    if isinstance(e, ETuple):
        return "(" + ", ".join(print_expr(i) for i in e.items) + ")"
    if isinstance(e, SetComp):
        return _print_clause(e)
    if isinstance(e, Union):
        if not e.clauses:
            return "empty"
        return " + ".join(_print_clause(c) for c in e.clauses)
    raise TypeError(f"not an expression: {e!r}")


def _print_clause(c: SetComp) -> str:
    if not c.binders:
        return "{" + print_expr(c.element) + "}"
    head = print_expr(c.element)
    binders = ", ".join(c.binders)
    if c.guard == TRUE:
        return f"{{{head} | {binders} in atoms}}"
    return f"{{{head} | {binders} in atoms, {print_formula(c.guard)}}}"
