"""Lexer, parser and syntax tree for the analyzable C subset.

The subset ("MiniC") covers the control and data skeleton of embedded
HAL client code: function definitions over ints and opaque pointers,
``int`` locals, assignments, direct calls, ``if``/``else``, ``while``,
``for``, ``switch`` over constants, ``return``, and ``#define NAME
<integer>``.  Everything a HAL call receives beyond its descriptor and
discriminator arguments is opaque and carried along unparsed (string
literals, ``&var``, arbitrary arithmetic).

Deliberate exclusions surface as diagnostics rather than crashes:
``goto`` and labels, pointer arithmetic/dereference writes, function
pointers, arrays, struct/typedef/enum, ``break`` outside ``switch``,
``continue``, and preprocessor machinery beyond ``#define`` of an
integer literal.  ``#include`` lines are tolerated and ignored so that
instrumented sources (which gain an ``assert.h`` include) stay
parseable, and comments of every kind are skipped, including ``/*@ ...
*/`` annotation comments.

Calls may appear anywhere in an expression; the control-flow lowering
hoists them out.  ``switch`` cases must end in ``break`` or ``return``
(fallthrough is rejected); several case labels may stack on one body.

Integer literals are decimal, ``0x`` hex or leading-``0`` octal (``0644``
is 420) with any ``u``/``U``/``l``/``L`` suffixes; a ``#define`` value is
one, optionally negated.  A character literal is one character or one C
escape (``'\\n'``, ``'\\x41'``, ``'\\101'``).  Nesting is capped at
:data:`MAX_NESTING` levels (see there).
"""

from __future__ import annotations

import re
from typing import Callable, NamedTuple, Optional, TypeVar, Union

from .diagnostics import Diagnostic, DiagnosticError

__all__ = [
    "MiniCError",
    "Program",
    "FunctionDef",
    "GlobalDecl",
    "MAX_NESTING",
    "parse_source",
    "tokenize",
    "UnrollTooDeep",
    "unroll_loops",
]


class MiniCError(DiagnosticError):
    """Raised when a source file falls outside the accepted subset."""


MAX_NESTING = 100
"""Deepest nesting the parser accepts.  Each enclosing statement (an
``else if`` too), parenthesis, operator and call argument list on the
way to the deepest operand is one level; deeper programs get an
``unsupported-construct`` diagnostic."""


# ---------------------------------------------------------------------------
# Syntax tree
# ---------------------------------------------------------------------------

class _Record:
    """Base of the syntax-tree records: plain ``__slots__`` records, like
    :class:`thadc.cfg.CfgNode`, built once and never changed.  The slots
    are the fields, in order.  ``repr`` is the one a dataclass would
    give, ``Num(value=4, line=3)``; two records are equal when they are
    of one class and their fields are equal, and equal records hash
    alike."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}"
                            for name in self.__slots__])
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class Num(_Record):
    __slots__ = ("value", "line")

    def __init__(self, value: int, line: int = 0):
        self.value = value
        self.line = line


class Str(_Record):
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int = 0):
        self.value = value
        self.line = line


class Var(_Record):
    __slots__ = ("name", "line")

    def __init__(self, name: str, line: int = 0):
        self.name = name
        self.line = line


class Unary(_Record):
    __slots__ = ("op", "operand", "line")

    def __init__(self, op: str, operand: Expr, line: int = 0):
        self.op = op  # "-", "!", "~", "&"
        self.operand = operand
        self.line = line


class Binary(_Record):
    __slots__ = ("op", "lhs", "rhs", "line")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0):
        self.op = op
        self.lhs = lhs
        self.rhs = rhs
        self.line = line


class CallExpr(_Record):
    __slots__ = ("callee", "args", "line")

    def __init__(self, callee: str, args: tuple[Expr, ...], line: int = 0):
        self.callee = callee
        self.args = args
        self.line = line


Expr = Union[Num, Str, Var, Unary, Binary, CallExpr]


class Declare(_Record):
    __slots__ = ("type_text", "name", "init", "line")

    def __init__(self, type_text: str, name: str, init: Optional[Expr],
                 line: int = 0):
        self.type_text = type_text
        self.name = name
        self.init = init
        self.line = line


class Assign(_Record):
    __slots__ = ("name", "value", "line")

    def __init__(self, name: str, value: Expr, line: int = 0):
        self.name = name
        self.value = value
        self.line = line


class ExprStmt(_Record):
    __slots__ = ("expr", "line")

    def __init__(self, expr: Expr, line: int = 0):
        self.expr = expr
        self.line = line


class Return(_Record):
    __slots__ = ("value", "line")

    def __init__(self, value: Optional[Expr], line: int = 0):
        self.value = value
        self.line = line


class Block(_Record):
    __slots__ = ("stmts", "line")

    def __init__(self, stmts: tuple[Stmt, ...], line: int = 0):
        self.stmts = stmts
        self.line = line


class If(_Record):
    __slots__ = ("cond", "then", "orelse", "line")

    def __init__(self, cond: Expr, then: Block, orelse: Optional[Block],
                 line: int = 0):
        self.cond = cond
        self.then = then
        self.orelse = orelse
        self.line = line


class While(_Record):
    __slots__ = ("cond", "body", "line")

    def __init__(self, cond: Expr, body: Block, line: int = 0):
        self.cond = cond
        self.body = body
        self.line = line


class For(_Record):
    __slots__ = ("init", "cond", "step", "body", "line")

    def __init__(self, init: Optional[Stmt], cond: Optional[Expr],
                 step: Optional[Stmt], body: Block, line: int = 0):
        self.init = init
        self.cond = cond
        self.step = step
        self.body = body
        self.line = line


class SwitchCase(_Record):
    __slots__ = ("labels", "body", "line")

    def __init__(self, labels: tuple[Optional[Expr], ...], body: Block,
                 line: int = 0):
        self.labels = labels  # None = default
        self.body = body
        self.line = line


class Switch(_Record):
    __slots__ = ("expr", "cases", "line")

    def __init__(self, expr: Expr, cases: tuple[SwitchCase, ...],
                 line: int = 0):
        self.expr = expr
        self.cases = cases
        self.line = line


Stmt = Union[Declare, Assign, ExprStmt, Return, Block, If, While, For, Switch]


class ParamDecl(_Record):
    __slots__ = ("type_text", "name", "line")

    def __init__(self, type_text: str, name: str, line: int = 0):
        self.type_text = type_text
        self.name = name
        self.line = line


class FunctionDef(_Record):
    __slots__ = ("name", "params", "body", "return_type", "varargs", "line")

    def __init__(self, name: str, params: tuple[ParamDecl, ...], body: Block,
                 return_type: str = "int", varargs: bool = False,
                 line: int = 0):
        self.name = name
        self.params = params
        self.body = body
        self.return_type = return_type
        self.varargs = varargs
        self.line = line


class GlobalDecl(_Record):
    __slots__ = ("type_text", "name", "init", "line")

    def __init__(self, type_text: str, name: str, init: Optional[Expr],
                 line: int = 0):
        self.type_text = type_text
        self.name = name
        self.init = init
        self.line = line


class Program(_Record):
    __slots__ = ("functions", "globals", "defines", "path")

    def __init__(self, functions: tuple[FunctionDef, ...],
                 globals: tuple[GlobalDecl, ...] = (),
                 defines: Optional[dict[str, int]] = None,
                 path: str = "<input>"):
        self.functions = functions
        self.globals = globals
        self.defines = {} if defines is None else defines
        self.path = path


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

class Token(NamedTuple):
    kind: str  # IDENT, NUM, STR, PUNCT, EOF
    text: str
    line: int
    col: int


_TYPE_WORDS = {
    "void", "char", "short", "int", "long", "unsigned", "signed",
    "float", "double", "bool", "size_t", "ssize_t",
    "int8_t", "int16_t", "int32_t", "int64_t",
    "uint8_t", "uint16_t", "uint32_t", "uint64_t",
}

# One match per token, newline or directive.  A directive is a ``#``
# preceded only by blanks on its line.  Any other match first skips the
# blanks and the ``//`` comment before its token; NUM leaves the integer
# suffix out of its group, PUNCT leaves a ``/*`` to COMMENT, and OPEN is
# the start of a comment or literal the alternatives above could not
# close.  BAD takes any other character, and END the end of the text.
_TOKEN_RE = re.compile(r"""
    (?P<DIRECTIVE>^[ \t]*\#[^\n]*)
  | [ \t\r]*(?://[^\n]*)?
    (?:(?P<IDENT>[^\W\d]\w*)
     | (?P<PUNCT>\.\.\.|[-+*/%|&^=!<>]=|&&|\|\||<<|>>|\+\+|--|->
                |[-+*%<>=!&|^~(){}\[\];,.?:]|/(?!\*))
     | (?P<NEWLINE>\n)
     | (?P<NUM>0[xX][0-9a-fA-F]*|[0-9]+)[uUlL]*
     | (?P<STR>"(?:\\[\s\S]|[^"\\])*")
     | (?P<COMMENT>/\*[\s\S]*?\*/)
     | (?P<CHAR>'(?:\\[^\n]|[^'\\\n])*')
     | (?P<OPEN>/\*|["'])
     | (?P<BAD>.)
     | (?P<END>\Z))
""", re.MULTILINE | re.VERBOSE)

_INT_RE = re.compile(r"(0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)[uUlL]*")

_UNTERMINATED = {"/*": "comment", '"': "string literal",
                 "'": "character literal"}


def c_int_value(text: str) -> Optional[int]:
    """The value of a C integer literal (decimal, ``0x`` hex or leading-``0``
    octal, with optional ``u``/``l`` suffixes), or None if it is not one
    or does not fit in 64 bits."""
    m = _INT_RE.fullmatch(text)
    if m is None:
        return None
    digits = m.group(1)
    base = 16 if digits[:2] in ("0x", "0X") else 8 if digits[0] == "0" else 10
    if len(digits.lstrip("0xX")) > 22:  # 2**64 has 22 octal digits
        return None
    value = int(digits, base)
    return value if value < 2**64 else None


_ESCAPE_RE = re.compile(r"\\(?:([0-7]{1,3})|x([0-9a-fA-F]+)|([ntvbrfa\\?'\"]))")
_ESCAPED = dict(zip("ntvbrfa", "\n\t\v\b\r\f\a"))


def _char_value(body: str) -> Optional[int]:
    """The code of a character literal's body, or None unless the body is
    one character or one C escape sequence."""
    if len(body) == 1:
        return ord(body)
    m = _ESCAPE_RE.fullmatch(body)
    if m is None:
        return None
    octal, hexa, simple = m.groups()
    if simple:
        return ord(_ESCAPED.get(simple, simple))
    return int(octal, 8) if octal else int(hexa, 16)


def _directive(body: str, line: int, col: int, defines: dict[str, int],
               diags: list[Diagnostic]) -> None:
    parts = body.split()
    if parts[0] == "#include" or parts[:2] == ["#", "include"]:
        return
    if parts[0] == "#define" and len(parts) == 3:
        name, value = parts[1], parts[2]
        number = c_int_value(value.removeprefix("-"))
        if number is not None:
            defines[name] = -number if value.startswith("-") else number
            return
        message = f"#define {name} must expand to an integer literal"
    else:
        message = f"unsupported preprocessor directive {parts[0]!r}"
    diags.append(Diagnostic(line, col, message, "unsupported-construct"))


def tokenize(text: str) -> tuple[list[Token], dict[str, int], list[Diagnostic]]:
    """Split MiniC source into tokens, ``#define`` values and diagnostics
    (see :func:`_lex`)."""
    return _lex(text)[:3]


def _lex(text: str) -> tuple[list[Token], dict[str, int], list[Diagnostic],
                             dict[str, Optional[int]]]:
    """Split MiniC source into tokens, ``#define`` values and diagnostics,
    plus the value of each integer token's text (None where it is not a
    valid literal), computed once per spelling for the parser.

    The token list ends with an EOF token.  A malformed literal still
    yields its token, so one mistake gives one diagnostic; an unterminated
    comment, string or character literal ends the scan.

    Each regex match is one token, one newline or one directive: blanks
    and ``//`` comments are skipped as the prefix of the match that
    follows them, so the loop below sees no match it drops.  The prefix,
    ``[ \t\r]*(?://[^\n]*)?``, has no nested quantifier, and after it
    one alternative always matches (``BAD`` takes any character but a
    newline, ``NEWLINE`` a newline and ``END`` the end of the text), so the
    engine never backtracks into it: the scan takes time linear in the
    text.  The pattern uses neither atomic groups nor possessive
    quantifiers, which Python has only from 3.11 on.
    """
    tokens: list[Token] = []
    append = tokens.append
    # new(Token, fields) is Token(*fields) without the Python-level
    # __new__ a NamedTuple gets, about 10 ms of 75 on the 15 seed-53
    # ``wide`` programs.  It holds because a NamedTuple cannot override
    # __new__ and every field is given here.
    new = tuple.__new__
    defines: dict[str, int] = {}
    diags: list[Diagnostic] = []
    numbers: dict[str, Optional[int]] = {}
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "IDENT" or kind == "PUNCT":
            start = m.start(kind)
            append(new(Token, (kind, m[kind], line, start - line_start + 1)))
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        if kind == "END":
            break
        value = m[kind]
        start = m.start(kind)
        col = start - line_start + 1
        if kind == "NUM":
            if value not in numbers:
                numbers[value] = c_int_value(value)
            if numbers[value] is None:
                diags.append(Diagnostic(line, col,
                                        f"invalid integer literal {value!r}"))
            append(new(Token, (kind, value, line, col)))
        elif kind == "STR" or kind == "COMMENT":
            if kind == "STR":
                append(new(Token, (kind, value[1:-1], line, col)))
            newlines = value.count("\n")
            if newlines:
                line += newlines
                line_start = start + value.rindex("\n") + 1
        elif kind == "CHAR":
            code = _char_value(value[1:-1])
            if code is None:
                diags.append(Diagnostic(
                    line, col,
                    f"character literal {value} must hold exactly one character"))
            spelling = value if code is None else str(code)
            numbers.setdefault(spelling, code)
            append(new(Token, ("NUM", spelling, line, col)))
        elif kind == "DIRECTIVE":
            hash_col = col + len(value) - len(value.lstrip(" \t"))
            _directive(value, line, hash_col, defines, diags)
        elif kind == "OPEN":
            diags.append(Diagnostic(line, col,
                                    f"unterminated {_UNTERMINATED[value]}"))
            break
        else:
            diags.append(Diagnostic(line, col, f"unexpected character {value!r}"))
    append(new(Token, ("EOF", "", text.count("\n") + 1,
                       len(text) - text.rfind("\n"))))
    return tokens, defines, diags, numbers


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binary operator -> precedence; every binary operator is left-associative.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

_T = TypeVar("_T")


class _Parser:
    """Recursive descent over a token list that ends in EOF.

    The parser keeps its own copy of the list with one more EOF token at
    the end, so ``peek(1)`` on the last token needs no bound check; the
    cursor never moves past the first EOF.
    """

    def __init__(self, tokens: list[Token], defines: dict[str, int],
                 numbers: dict[str, Optional[int]]):
        self.tokens = [*tokens, tokens[-1]]
        self.pos = 0
        self.defines = defines
        self.numbers = numbers
        self.diags: list[Diagnostic] = []
        self.depth = 0   # nesting levels open around the current position
        self.height = 0  # height of the expression parsed last
        self.defined: dict[str, int] = {}  # function name -> line defined

    # -- token helpers ------------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.kind in ("PUNCT", "IDENT")

    def accept(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in ("PUNCT", "IDENT"):
            self.pos += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text == text and tok.kind in ("PUNCT", "IDENT"):
            self.pos += 1
            return tok
        raise _Reject(tok, f"expected {text!r}, found {tok.text!r}")

    def error(self, tok: Token, message: str, code: str = "syntax") -> None:
        self.diags.append(Diagnostic(tok.line, tok.col, message, code))

    def _check_depth(self, tok: Token, levels: int) -> None:
        if levels > MAX_NESTING:
            raise _Reject(tok, f"nesting deeper than {MAX_NESTING} levels is "
                               "outside the accepted subset",
                          "unsupported-construct")

    def _deeper(self, tok: Token, parse: Callable[[], _T]) -> _T:
        """Run ``parse`` one nesting level further down."""
        depth = self.depth
        self._check_depth(tok, depth + 1)
        self.depth = depth + 1
        try:
            return parse()
        finally:
            self.depth = depth

    # -- types --------------------------------------------------------------

    def at_type(self) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and (tok.text in _TYPE_WORDS or tok.text == "const")

    def parse_type(self) -> str:
        words = []
        while self.at_type():
            words.append(self.next().text)
        while self.accept("*"):
            words.append("*")
        # "const char *path" style post-star const
        while self.at("const"):
            words.append(self.next().text)
            while self.accept("*"):
                words.append("*")
        return " ".join(words)

    # -- top level ----------------------------------------------------------

    def parse_program(self, path: str) -> Program:
        functions: list[FunctionDef] = []
        globals_: list[GlobalDecl] = []
        while self.peek().kind != "EOF":
            tok = self.peek()
            if tok.kind == "IDENT" and tok.text in ("struct", "typedef", "enum", "union"):
                self.error(
                    tok, f"{tok.text} is outside the accepted subset",
                    "unsupported-construct",
                )
                if (self._skip_past(";", "}") == "}" and not self.accept(";")
                        and not self.at_type()):
                    # the declarators of "struct s { ... } v, *w;"
                    self._skip_past(";")
                continue
            while self.peek().kind == "IDENT" and self.peek().text in (
                "extern", "static", "inline",
            ):
                self.next()
            if not self.at_type():
                self.error(tok, f"expected a declaration, found {tok.text!r}")
                self._skip_past(";", "}")
                continue
            try:
                item = self._top_level_item()
            except _Reject as r:
                self.error(r.token, r.message)
                self._skip_past(";", "}")
                continue
            if isinstance(item, FunctionDef):
                functions.append(item)
            elif isinstance(item, GlobalDecl):
                globals_.append(item)
        return Program(
            tuple(functions), tuple(globals_), dict(self.defines), path
        )

    def _top_level_item(self):
        type_text = self.parse_type()
        name_tok = self.next()
        if name_tok.kind != "IDENT":
            raise _Reject(name_tok, f"expected a name, found {name_tok.text!r}")
        if self.at("("):
            return self._function_rest(type_text, name_tok)
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return GlobalDecl(type_text, name_tok.text, init, name_tok.line)

    def _function_rest(self, return_type: str, name_tok: Token):
        self.expect("(")
        params: list[ParamDecl] = []
        varargs = False
        if not self.at(")"):
            while True:
                if self.at("..."):
                    self.next()
                    varargs = True
                    break
                if self.at("void") and self.peek(1).text == ")":
                    self.next()
                    break
                ptype = self.parse_type()
                ptok = self.next()
                if ptok.kind != "IDENT":
                    raise _Reject(ptok, f"expected a param name, found {ptok.text!r}")
                params.append(ParamDecl(ptype, ptok.text, ptok.line))
                if not self.accept(","):
                    break
        self.expect(")")
        if self.accept(";"):
            return None  # prototype only; externals need no body
        body = self.parse_block()
        name = name_tok.text
        if name in self.defined:
            self.error(name_tok, f"redefinition of {name!r} (first defined "
                                 f"on line {self.defined[name]})", "redefinition")
        else:
            self.defined[name] = name_tok.line
        return FunctionDef(
            name, tuple(params), body, return_type, varargs, name_tok.line
        )

    def _skip_past(self, *stops: str) -> str:
        """Skip to just past the first of ``stops`` outside braces, or
        past the brace that closes the braces skipped, and return the stop
        skipped last ("" at the end of the file).  A string literal stops
        nothing."""
        depth = 0
        while self.tokens[self.pos].kind != "EOF":
            tok = self.next()
            if tok.kind == "STR":
                continue
            if tok.text == "{":
                depth += 1
            elif tok.text == "}":
                depth -= 1
                if depth <= 0 and "}" in stops:
                    return "}"
            elif tok.text in stops and depth == 0:
                return tok.text
        return ""

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        open_tok = self.expect("{")
        stmts: list[Stmt] = []
        tokens = self.tokens
        while True:
            tok = tokens[self.pos]
            if tok.text == "}" and tok.kind == "PUNCT" or tok.kind == "EOF":
                break
            stmt = self.parse_stmt()
            if stmt is not None:
                stmts.append(stmt)
        self.expect("}")
        return Block(tuple(stmts), open_tok.line)

    def parse_stmt(self) -> Optional[Stmt]:
        tok = self.tokens[self.pos]
        depth = self.depth
        try:
            self._check_depth(tok, depth + 1)
            self.depth = depth + 1
            return self._stmt_inner(tok)
        except _Reject as r:
            self.error(r.token, r.message, r.code)
            self._skip_past(";", "}")
            return None
        finally:
            self.depth = depth

    def _stmt_inner(self, tok: Token) -> Optional[Stmt]:
        if tok.text == "{":
            return self.parse_block()
        if self.accept(";"):
            return None
        if tok.kind == "IDENT":
            if tok.text == "goto":
                raise _Reject(tok, "goto is outside the accepted subset",
                              "unsupported-construct")
            if tok.text == "continue":
                raise _Reject(tok, "continue is outside the accepted subset",
                              "unsupported-construct")
            if tok.text == "break":
                raise _Reject(tok, "break outside switch is outside the accepted "
                                   "subset", "unsupported-construct")
            if tok.text == "if":
                return self._parse_if()
            if tok.text == "while":
                return self._parse_while()
            if tok.text == "for":
                return self._parse_for()
            if tok.text == "switch":
                return self._parse_switch()
            if tok.text == "return":
                self.next()
                value = None if self.at(";") else self.parse_expr()
                self.expect(";")
                return Return(value, tok.line)
            if self.at_type():
                return self._parse_declare()
            # label?  `name:` is goto territory
            if self.peek(1).text == ":":
                raise _Reject(tok, "labels are outside the accepted subset",
                              "unsupported-construct")
            return self._parse_simple_stmt()
        if tok.text == "*":
            raise _Reject(tok, "pointer-dereference writes are outside the "
                               "accepted subset", "unsupported-construct")
        raise _Reject(tok, f"cannot parse statement at {tok.text!r}")

    def _parse_declare(self) -> Declare:
        start = self.peek()
        type_text = self.parse_type()
        name_tok = self.next()
        if name_tok.kind != "IDENT":
            raise _Reject(name_tok, f"expected a name, found {name_tok.text!r}")
        if self.at("["):
            raise _Reject(name_tok, "arrays are outside the accepted subset",
                          "unsupported-construct")
        if self.at(","):
            raise _Reject(self.peek(), "one declarator per statement",
                          "unsupported-construct")
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return Declare(type_text, name_tok.text, init, start.line)

    def _parse_simple_stmt(self, terminated: bool = True) -> Stmt:
        """Assignment, compound assignment, ++/--, or a bare call."""
        tok = self.next()
        name, line = tok.text, tok.line
        op = self.peek().text if self.peek().kind == "PUNCT" else ""
        if op == "(":
            stmt: Stmt = ExprStmt(self._parse_call(tok), line)
        elif op in ("++", "--"):
            self.next()
            delta = Num(1 if op == "++" else -1, line)
            stmt = Assign(name, Binary("+", Var(name, line), delta, line), line)
        elif op in ("=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^="):
            self.next()
            value = self.parse_expr()
            if op != "=":
                value = Binary(op[0], Var(name, line), value, line)
            stmt = Assign(name, value, line)
        else:
            raise _Reject(tok, f"cannot parse statement at {name!r}")
        if terminated:
            self.expect(";")
        return stmt

    def _parse_if(self) -> If:
        tok = self.next()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._branch_body()
        orelse = None
        if self.accept("else"):
            if self.at("if"):
                nested = self._deeper(self.peek(), self._parse_if)
                orelse = Block((nested,), nested.line)
            else:
                orelse = self._branch_body()
        return If(cond, then, orelse, tok.line)

    def _branch_body(self) -> Block:
        if self.at("{"):
            return self.parse_block()
        tok = self.peek()
        stmt = self.parse_stmt()
        return Block(() if stmt is None else (stmt,), tok.line)

    def _parse_while(self) -> While:
        tok = self.next()
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return While(cond, self._branch_body(), tok.line)

    def _parse_for(self) -> For:
        tok = self.next()
        self.expect("(")
        init: Optional[Stmt] = None
        if not self.at(";"):
            if self.at_type():
                init = self._parse_declare()
            else:
                init = self._parse_simple_stmt()
        else:
            self.next()
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        step = None if self.at(")") else self._parse_simple_stmt(terminated=False)
        self.expect(")")
        return For(init, cond, step, self._branch_body(), tok.line)

    def _parse_switch(self) -> Switch:
        tok = self.next()
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: list[SwitchCase] = []
        while not self.at("}") and self.peek().kind != "EOF":
            labels: list[Optional[Expr]] = []
            label_tok = self.peek()
            while True:
                if self.accept("case"):
                    labels.append(self.parse_expr())
                    self.expect(":")
                elif self.accept("default"):
                    labels.append(None)
                    self.expect(":")
                else:
                    break
            if not labels:
                raise _Reject(self.peek(), "expected a case label")
            stmts: list[Stmt] = []
            closed = False
            while not self.at("}") and self.peek().kind != "EOF":
                if self.at("case") or self.at("default"):
                    break
                if self.accept("break"):
                    self.expect(";")
                    closed = True
                    break
                inner = self.parse_stmt()
                if inner is not None:
                    stmts.append(inner)
                    if isinstance(inner, Return):
                        closed = True
                        break
            if not closed and not self.at("}"):
                raise _Reject(
                    label_tok,
                    "switch fallthrough is outside the accepted subset "
                    "(end the case with break or return)",
                    "unsupported-construct",
                )
            cases.append(SwitchCase(tuple(labels), Block(tuple(stmts), label_tok.line),
                                    label_tok.line))
        self.expect("}")
        return Switch(expr, tuple(cases), tok.line)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing: operands joined by binary operators of
        precedence ``min_prec`` or higher.  Leaves the height of the
        returned tree in ``self.height``."""
        tokens = self.tokens
        lhs = self._parse_primary()
        height = self.height
        while True:
            op = tokens[self.pos]
            prec = _PRECEDENCE.get(op.text, 0) if op.kind == "PUNCT" else 0
            if prec < min_prec:
                self.height = height
                return lhs
            self.pos += 1
            rhs = self.parse_expr(prec + 1)
            height = max(height, self.height) + 1
            self._check_depth(op, self.depth + height)
            lhs = Binary(op.text, lhs, rhs, op.line)

    def _parse_primary(self) -> Expr:
        """One operand: a prefix operator and its operand, a name, call,
        literal, cast or parenthesized expression.  Leaves its height in
        ``self.height``."""
        tok = self.next()
        self.height = 0
        kind = tok.kind
        if kind == "IDENT":
            if tok.text == "sizeof":
                raise _Reject(tok, "sizeof is outside the accepted subset",
                              "unsupported-construct")
            after = self.tokens[self.pos]
            if after.text == "(" and after.kind == "PUNCT":
                return self._parse_call(tok)
            return Var(tok.text, tok.line)
        if kind == "NUM":
            # None only for a literal the lexer has already reported
            return Num(self.numbers[tok.text], tok.line)
        if kind == "STR":
            return Str(tok.text, tok.line)
        text = tok.text
        if kind == "PUNCT" and text in ("-", "!", "~", "&"):
            operand = self._deeper(tok, self._parse_primary)
            if text == "&" and not isinstance(operand, Var):
                raise _Reject(tok, "address-of applies to plain variables only",
                              "unsupported-construct")
            self.height += 1
            return Unary(text, operand, tok.line)
        if text == "(":
            if self.at_type():
                self.parse_type()  # a cast changes nothing the analyses see
                self.expect(")")
                inner = self._deeper(tok, self._parse_primary)
            else:
                inner = self._deeper(tok, self.parse_expr)
                self.expect(")")
            self.height += 1
            return inner
        if text == "*" and kind == "PUNCT":
            raise _Reject(tok, "pointer dereference is outside the accepted subset",
                          "unsupported-construct")
        raise _Reject(tok, f"cannot parse expression at {text!r}")

    def _parse_call(self, name_tok: Token) -> CallExpr:
        self.expect("(")
        args: tuple[Expr, ...] = ()
        self.height = 0
        if not self.at(")"):
            args = self._deeper(name_tok, self._parse_args)
        self.expect(")")
        self.height += 1
        return CallExpr(name_tok.text, args, name_tok.line)

    def _parse_args(self) -> tuple[Expr, ...]:
        """A call's arguments, all one nesting level below the call.
        Leaves the height of the highest in ``self.height``."""
        args: list[Expr] = []
        height = 0
        while True:
            args.append(self.parse_expr())
            height = max(height, self.height)
            if not self.accept(","):
                break
        self.height = height
        return tuple(args)


class _Reject(Exception):
    def __init__(self, token: Token, message: str, code: str = "syntax"):
        self.token = token
        self.message = message
        self.code = code
        super().__init__(message)


def parse_source(text: str, path: str = "<input>") -> Program:
    """Parse MiniC source into a syntax tree, or raise :class:`MiniCError`."""
    tokens, defines, lex_diags, numbers = _lex(text)
    parser = _Parser(tokens, defines, numbers)
    program = parser.parse_program(path)
    diags = sorted(lex_diags + parser.diags, key=lambda d: (d.line, d.column))
    if diags:
        raise MiniCError(diags, path)
    return program


# ---------------------------------------------------------------------------
# Loop unrolling (feeds the exhaustive path oracle)
# ---------------------------------------------------------------------------

class UnrollTooDeep(Exception):
    """Unrolling would nest the program deeper than :data:`MAX_NESTING`."""

    def __init__(self, k: int, levels: int):
        self.k = k
        self.levels = levels
        super().__init__(f"unrolling loops {k} times nests {levels} levels, "
                         f"limit is {MAX_NESTING}")


def _unrolled_height(node, k: int) -> int:
    """Nesting levels of a statement or expression once its loops are
    unrolled ``k`` times, counted as the parser counts them except for
    parentheses, which the tree does not keep."""
    def most(*children) -> int:
        return max((_unrolled_height(c, k) for c in children if c is not None),
                   default=0)

    if isinstance(node, (Num, Str, Var)):
        return 0
    if isinstance(node, While):
        return k + most(node.cond, *node.body.stmts)
    if isinstance(node, For):
        loop = k + most(node.cond, node.step, *node.body.stmts)
        return loop if node.init is None else 1 + max(loop, most(node.init))
    if isinstance(node, If):
        children = (node.cond, *node.then.stmts,
                    *(node.orelse.stmts if node.orelse else ()))
    elif isinstance(node, Switch):
        children = (node.expr, *(x for c in node.cases
                                 for x in c.labels + c.body.stmts))
    elif isinstance(node, Block):
        children = node.stmts
    elif isinstance(node, CallExpr):
        children = node.args
    elif isinstance(node, Unary):
        children = (node.operand,)
    elif isinstance(node, Binary):
        children = (node.lhs, node.rhs)
    elif isinstance(node, Declare):
        children = (node.init,)
    elif isinstance(node, (Assign, Return)):
        children = (node.value,)
    else:  # ExprStmt
        children = (node.expr,)
    return 1 + most(*children)


def unroll_loops(program: Program, k: int) -> Program:
    """Replace every loop with ``k`` nested guarded copies of its body.

    The result is loop-free and every one of its control-flow paths
    projects onto a path of the original program (iterations beyond the
    k-th are simply not represented), which is exactly what a must-style
    checker needs from an under-approximating oracle.  Raises
    :class:`UnrollTooDeep` when the result would nest deeper than
    :data:`MAX_NESTING` levels, the limit every parsed program meets.
    """
    if k < 1:
        raise ValueError("unroll factor must be >= 1")
    levels = max((_unrolled_height(stmt, k) for f in program.functions
                  for stmt in f.body.stmts), default=0)
    if levels > MAX_NESTING:
        raise UnrollTooDeep(k, levels)

    def stmt(s: Stmt) -> Stmt:
        if isinstance(s, Block):
            return block(s)
        if isinstance(s, If):
            return If(s.cond, block(s.then),
                      block(s.orelse) if s.orelse else None, s.line)
        if isinstance(s, While):
            body = block(s.body)
            out: Optional[If] = None
            for _ in range(k):
                inner = body.stmts + ((out,) if out else ())
                out = If(s.cond, Block(inner, s.line), None, s.line)
            assert out is not None
            return out
        if isinstance(s, For):
            body = block(s.body)
            cond = s.cond if s.cond is not None else Num(1, s.line)
            out = None
            for _ in range(k):
                inner = body.stmts
                if s.step is not None:
                    inner = inner + (s.step,)
                if out is not None:
                    inner = inner + (out,)
                out = If(cond, Block(inner, s.line), None, s.line)
            assert out is not None
            if s.init is not None:
                return Block((s.init, out), s.line)
            return out
        if isinstance(s, Switch):
            cases = tuple(
                SwitchCase(c.labels, block(c.body), c.line) for c in s.cases
            )
            return Switch(s.expr, cases, s.line)
        return s

    def block(b: Block) -> Block:
        return Block(tuple(stmt(s) for s in b.stmts), b.line)

    functions = tuple(
        FunctionDef(f.name, f.params, block(f.body), f.return_type, f.varargs, f.line)
        for f in program.functions
    )
    return Program(functions, program.globals, dict(program.defines), program.path)
