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
        self.value, self.line = value, line


class Str(_Record):
    __slots__ = ("value", "line")

    def __init__(self, value: str, line: int = 0):
        self.value, self.line = value, line


class Var(_Record):
    __slots__ = ("name", "line")

    def __init__(self, name: str, line: int = 0):
        self.name, self.line = name, line


class Unary(_Record):
    __slots__ = ("op", "operand", "line")

    def __init__(self, op: str, operand: Expr, line: int = 0):
        self.op = op  # "-", "!", "~", "&"
        self.operand = operand
        self.line = line


class Binary(_Record):
    __slots__ = ("op", "lhs", "rhs", "line")

    def __init__(self, op: str, lhs: Expr, rhs: Expr, line: int = 0):
        self.op, self.lhs, self.rhs, self.line = op, lhs, rhs, line


class CallExpr(_Record):
    __slots__ = ("callee", "args", "line")

    def __init__(self, callee: str, args: tuple[Expr, ...], line: int = 0):
        self.callee, self.args, self.line = callee, args, line


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
        self.name, self.value, self.line = name, value, line


class ExprStmt(_Record):
    __slots__ = ("expr", "line")

    def __init__(self, expr: Expr, line: int = 0):
        self.expr, self.line = expr, line


class Return(_Record):
    __slots__ = ("value", "line")

    def __init__(self, value: Optional[Expr], line: int = 0):
        self.value, self.line = value, line


class Block(_Record):
    __slots__ = ("stmts", "line")

    def __init__(self, stmts: tuple[Stmt, ...], line: int = 0):
        self.stmts, self.line = stmts, line


class If(_Record):
    __slots__ = ("cond", "then", "orelse", "line")

    def __init__(self, cond: Expr, then: Block, orelse: Optional[Block],
                 line: int = 0):
        self.cond, self.then, self.orelse, self.line = cond, then, orelse, line


class While(_Record):
    __slots__ = ("cond", "body", "line")

    def __init__(self, cond: Expr, body: Block, line: int = 0):
        self.cond, self.body, self.line = cond, body, line


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
        self.expr, self.cases, self.line = expr, cases, line


Stmt = Union[Declare, Assign, ExprStmt, Return, Block, If, While, For, Switch]


class ParamDecl(_Record):
    __slots__ = ("type_text", "name", "line")

    def __init__(self, type_text: str, name: str, line: int = 0):
        self.type_text, self.name, self.line = type_text, name, line


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
        self.functions, self.globals = functions, globals
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
    "uint8_t", "uint16_t", "uint32_t", "uint64_t", "const",
}

# One match per token, newline or comment; its one group is the spelling.
# Blanks and ``//`` comments are the prefix of the match after them.  A
# newline takes along a directive on the line it starts (the text is lexed
# with a newline in front, so the first line has one too); any other ``#``
# is a bad character.  A literal or comment without its closing quote or
# ``*/`` runs to the end of its line (a character) or of the text.  After
# the prefix some branch always matches, so the engine never backtracks
# into it, and a branch that scans to the end of the text keeps what it
# scanned: the scan is linear in the text, with no atomic groups or
# possessive quantifiers (Python has them only from 3.11 on).
_TOKEN_RE = re.compile(r"""
    [ \t\r]*(?://[^\n]*)?
    ( [^\W\d]\w*
    | \.\.\.|[-+*/%|&^=!<>]=|&&|\|\||<<|>>|\+\+|--|->
      |[-+*%<>=!&|^~(){}\[\];,.?:]|/(?!\*)
    | \n(?:[ \t]*\#[^\n]*)?
    | (?:0[xX][0-9a-fA-F]*|[0-9]+)[uUlL]*
    | "(?:\\[\s\S]|[^"\\])*"?
    | /\*(?:[\s\S]*?\*/|[\s\S]*)
    | '(?:\\[^\n]|[^'\\\n])*'?
    | .
    | \Z)
""", re.VERBOSE)

# First characters: of punctuation, of the spellings the lexer takes as
# they come, and of the spellings that are no name (EOF's is empty).
_PUNCT_START = frozenset(".-+*/%|&^=!<>~(){}[];,?:")
_DIGITS = frozenset("0123456789")
_PLAIN = (frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
          | _PUNCT_START - {"/"})
_NOT_NAME = _PUNCT_START | _DIGITS | {'"', "'", ""}
_NAME_START = re.compile(r"[^\W\d]").match

_INT_RE = re.compile(r"(0[xX][0-9a-fA-F]+|0[0-7]*|[1-9][0-9]*)[uUlL]*")

_UNTERMINATED = {"/*": "comment", '"': "string literal",
                 "'": "character literal"}
# The comment and literal branches of _TOKEN_RE when they close
_CLOSED_RE = re.compile(r"""/\*[\s\S]*\*/|"(?:\\[\s\S]|[^"\\])*"|'(?:\\[^\n]|[^'\\\n])*'""")


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


# A comment that closes on a directive's line, or runs to its end
_LINE_COMMENT_RE = re.compile(r"/\*.*?\*/|//.*")


def _directive(body: str, line: int, col: int, defines: dict[str, int],
               diags: list[Diagnostic]) -> None:
    """Read one directive line; its comments count as blanks, as in cpp."""
    parts = _LINE_COMMENT_RE.sub(" ", body).split()
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


def _kind_and_text(spelling: str, numbers: dict[str, Optional[int]]
                   ) -> tuple[str, str]:
    """:class:`Token` kind and text of a spelling: a string's text is
    its contents, an integer's its digits, a valid character literal's
    its code."""
    first = spelling[:1]
    if first == '"':
        return "STR", spelling[1:-1]
    if first == "'" and numbers[spelling] is not None:
        return "NUM", str(numbers[spelling])
    if first in _DIGITS or first == "'":
        return "NUM", spelling.rstrip("uUlL")
    return ("PUNCT" if first in _PUNCT_START else "IDENT" if first
            else "EOF"), spelling


# A lexical problem without its column: (index of the token that is or
# follows it, spelling, line, message)
_Problem = tuple[int, str, int, str]


def _lex(text: str) -> tuple[list[str], list[int], dict[str, int],
                             dict[str, Optional[int]], list[Diagnostic],
                             list[_Problem]]:
    """Split MiniC source into two parallel lists, each token's spelling
    and its line, ending with EOF's; plus the ``#define`` values, the value
    of each integer and character literal's spelling (None if invalid), the
    directives' diagnostics, and the other problems for :func:`_place`.

    The spelling alone gives a token's kind: literals keep their quotes,
    integers their suffix, and EOF's is empty.  One ``findall`` scans the
    text; the loop counts newlines and takes a spelling as it comes if it
    starts with one of :data:`_PLAIN` or is a valid literal met before.  A
    malformed literal still yields its token, so one mistake gives one
    problem; an unterminated comment, string or character literal ends the
    scan.  Columns are not counted: :func:`_place` finds them when a
    diagnostic or :func:`tokenize` needs them."""
    spell: list[str] = []
    lines: list[int] = []
    add_spelling, add_line = spell.append, lines.append
    defines: dict[str, int] = {}
    numbers: dict[str, Optional[int]] = {}
    diags: list[Diagnostic] = []
    problems: list[_Problem] = []
    line = 0
    found = _TOKEN_RE.findall("\n" + text)
    while not found[-1]:  # the empty matches at the end
        found.pop()
    for s in found:
        if s == "\n":
            line += 1
            continue
        if s[0] not in _PLAIN and numbers.get(s) is None:
            first = s[0]
            if first == "\n":
                line += 1
                _directive(s[1:], line, s.index("#"), defines, diags)
                continue
            if first in _DIGITS:
                numbers[s] = c_int_value(s)
                if numbers[s] is None:
                    problems.append((len(spell), s, line, "invalid integer "
                                     f"literal {s.rstrip('uUlL')!r}"))
            elif first == "'" or first == '"' or s[:2] == "/*":
                if not _CLOSED_RE.fullmatch(s):
                    opener = s[:2] if first == "/" else first
                    problems.append((len(spell), s, line,
                                     f"unterminated {_UNTERMINATED[opener]}"))
                    break
                if first == "'":
                    numbers[s] = _char_value(s[1:-1])
                    if numbers[s] is None:
                        problems.append((len(spell), s, line, f"character "
                                         f"literal {s} must hold exactly one character"))
                else:  # a string or comment, either may span lines
                    if first == '"':
                        add_spelling(s)
                        add_line(line)
                    line += s.count("\n")
                    continue
            elif first != "/" and not _NAME_START(first):
                problems.append((len(spell), s, line, f"unexpected character {s!r}"))
                continue
        add_spelling(s)
        add_line(line)
    add_spelling("")
    add_line(text.count("\n") + 1)
    return spell, lines, defines, numbers, diags, problems


def _place(text: str, spell: list[str], diags: list[Diagnostic],
           problems: list[_Problem]) -> tuple[list[Diagnostic], list[int]]:
    """The lexer's ``diags`` and ``problems`` placed and in order, and each
    token's column, from one ``finditer`` pass of :data:`_TOKEN_RE`.  A
    match is the next token if it has its spelling (no match the lexer
    drops has a token's), and a problem is at the first match with its
    spelling after the tokens before it (one spelling, one verdict)."""
    cols: list[int] = []
    diags = [*diags]
    todo = problems[::-1]  # the next problem to place last
    line_start = 0
    for m in _TOKEN_RE.finditer("\n" + text):
        s, col = m[1], m.start(1) - line_start + 1
        if todo and todo[-1][:2] == (len(cols), s):
            _, _, line, message = todo.pop()
            diags.append(Diagnostic(line, col, message))
        if s == spell[len(cols)]:
            cols.append(col)
            if not s:  # EOF
                break
        if "\n" in s:
            line_start = m.start(1) + s.rindex("\n") + 1
    return sorted(diags, key=lambda d: (d.line, d.column)), cols


def tokenize(text: str) -> tuple[list[Token], dict[str, int], list[Diagnostic]]:
    """Split MiniC source into tokens, ending with EOF's, ``#define``
    values and diagnostics (see :func:`_lex`)."""
    spell, lines, defines, numbers, diags, problems = _lex(text)
    diags, cols = _place(text, spell, diags, problems)
    return ([Token(*_kind_and_text(s, numbers), line, col)
             for s, line, col in zip(spell, lines, cols)], defines, diags)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

# Binary operator -> precedence; every binary operator is left-associative.
_PRECEDENCE = {
    "||": 1, "&&": 2, "|": 3, "^": 4, "&": 5, "==": 6, "!=": 6,
    "<": 7, "<=": 7, ">": 7, ">=": 7, "<<": 8, ">>": 8,
    "+": 9, "-": 9, "*": 10, "/": 10, "%": 10,
}

# What follows the name that starts a simple statement
_SIMPLE_OPS = ("(", "++", "--", "=", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=")

_T = TypeVar("_T")


class _Parser:
    """Recursive descent over the spellings and lines :func:`_lex` gives.

    A token is its index in those lists.  The parser keeps its own copy
    of each with one more EOF at the end, so looking one token past the
    last needs no bound check; the cursor never moves past the first EOF.
    A quoted string can never be spelled like punctuation or a name, so
    comparing spellings is enough to recognize either.
    """

    def __init__(self, spell: list[str], lines: list[int],
                 defines: dict[str, int], numbers: dict[str, Optional[int]]):
        self.spell = [*spell, ""]
        self.lines = [*lines, lines[-1]]
        self.pos = 0
        self.defines = defines
        self.numbers = numbers
        self.problems: list[tuple[int, str, str]] = []  # (token, message, code)
        self.depth = 0   # nesting levels open around the current position
        self.height = 0  # height of the expression parsed last
        self.defined: dict[str, int] = {}  # function name -> line defined

    # -- token helpers ------------------------------------------------------

    def text(self, pos: int) -> str:
        return _kind_and_text(self.spell[pos], self.numbers)[1]

    def at(self, spelling: str) -> bool:
        return self.spell[self.pos] == spelling

    def accept(self, spelling: str) -> bool:
        if self.spell[self.pos] == spelling:
            self.pos += 1
            return True
        return False

    def expect(self, spelling: str) -> int:
        pos = self.pos
        if self.spell[pos] == spelling:
            self.pos = pos + 1
            return pos
        raise _Reject(pos, f"expected {spelling!r}, found {self.text(pos)!r}")

    def _name(self, what: str) -> int:
        """The name at the cursor, consumed; anything else is rejected
        and left for error recovery."""
        pos = self.pos
        if self.spell[pos][:1] in _NOT_NAME:
            raise _Reject(pos, f"expected {what}, found {self.text(pos)!r}")
        self.pos = pos + 1
        return pos

    def error(self, pos: int, message: str, code: str = "syntax") -> None:
        self.problems.append((pos, message, code))

    def _check_depth(self, pos: int, levels: int) -> None:
        if levels > MAX_NESTING:
            raise _Reject(pos, f"nesting deeper than {MAX_NESTING} levels is "
                               "outside the accepted subset",
                          "unsupported-construct")

    def _deeper(self, pos: int, parse: Callable[[], _T]) -> _T:
        """Run ``parse`` one nesting level further down."""
        depth = self.depth
        self._check_depth(pos, depth + 1)
        self.depth = depth + 1
        try:
            return parse()
        finally:
            self.depth = depth

    # -- types --------------------------------------------------------------

    def parse_type(self) -> str:
        spell = self.spell
        words = []
        while spell[self.pos] in _TYPE_WORDS:
            words.append(spell[self.pos])
            self.pos += 1
        while self.accept("*"):
            words.append("*")
        while self.accept("const"):  # "const char *const path"
            words.append("const")
            while self.accept("*"):
                words.append("*")
        return " ".join(words)

    # -- top level ----------------------------------------------------------

    def parse_program(self, path: str) -> Program:
        functions: list[FunctionDef] = []
        globals_: list[GlobalDecl] = []
        spell = self.spell
        while spell[self.pos]:
            pos = self.pos
            if spell[pos] in ("struct", "typedef", "enum", "union"):
                self.error(pos, f"{spell[pos]} is outside the accepted subset",
                           "unsupported-construct")
                if (self._skip_past(";", "}") == "}" and not self.accept(";")
                        and spell[self.pos] not in _TYPE_WORDS):
                    # the declarators of "struct s { ... } v, *w;"
                    self._skip_past(";")
                continue
            while spell[self.pos] in ("extern", "static", "inline"):
                self.pos += 1
            if spell[self.pos] not in _TYPE_WORDS:
                self.error(pos, f"expected a declaration, found {self.text(pos)!r}")
                self._skip_past(";", "}")
                continue
            try:
                item = self._top_level_item()
            except _Reject as r:
                self.error(r.pos, r.message)
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
        name = self._name("a name")
        if self.at("("):
            return self._function_rest(type_text, name)
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return GlobalDecl(type_text, self.spell[name], init, self.lines[name])

    def _function_rest(self, return_type: str, name_pos: int):
        self.expect("(")
        params: list[ParamDecl] = []
        varargs = False
        if not self.at(")"):
            while True:
                if self.accept("..."):
                    varargs = True
                    break
                if self.at("void") and self.spell[self.pos + 1] == ")":
                    self.pos += 1
                    break
                ptype = self.parse_type()
                param = self._name("a param name")
                params.append(ParamDecl(ptype, self.spell[param], self.lines[param]))
                if not self.accept(","):
                    break
        self.expect(")")
        if self.accept(";"):
            return None  # prototype only; externals need no body
        body = self.parse_block()
        name, line = self.spell[name_pos], self.lines[name_pos]
        if name in self.defined:
            self.error(name_pos, f"redefinition of {name!r} (first defined "
                                 f"on line {self.defined[name]})", "redefinition")
        else:
            self.defined[name] = line
        return FunctionDef(name, tuple(params), body, return_type, varargs, line)

    def _skip_past(self, *stops: str) -> str:
        """Skip to just past the first of ``stops`` outside braces, or
        past the brace that closes the braces skipped, and return the stop
        skipped last.  Inside a function body a ``}`` that closes a block
        around the skipped tokens is left in place; "" is returned there
        and at the end of the file."""
        spell = self.spell
        depth = 0
        while spell[self.pos]:
            s = spell[self.pos]
            if s == "}" and not depth and self.depth:  # depth > 0 in a body
                return ""
            self.pos += 1
            if s == "{":
                depth += 1
            elif s == "}":
                depth -= 1
                if depth <= 0 and "}" in stops:
                    return "}"
            elif s in stops and depth == 0:
                return s
        return ""

    # -- statements ----------------------------------------------------------

    def parse_block(self) -> Block:
        line = self.lines[self.expect("{")]
        stmts: list[Stmt] = []
        spell = self.spell
        while spell[self.pos] not in ("}", ""):
            stmt = self.parse_stmt()
            if stmt is not None:
                stmts.append(stmt)
        self.expect("}")
        return Block(tuple(stmts), line)

    def parse_stmt(self) -> Optional[Stmt]:
        pos = self.pos
        depth = self.depth
        try:
            self._check_depth(pos, depth + 1)
            self.depth = depth + 1
            return self._stmt_inner(pos)
        except _Reject as r:
            self.error(r.pos, r.message, r.code)
            self._skip_past(";", "}")
            return None
        finally:
            self.depth = depth

    def _stmt_inner(self, pos: int) -> Optional[Stmt]:
        s = self.spell[pos]
        if s == "{":
            return self.parse_block()
        if s == ";":
            self.pos = pos + 1
            return None
        if s[:1] not in _NOT_NAME:
            if s == "if":
                return self._parse_if()
            if s in _TYPE_WORDS:
                return self._parse_declare()
            if s in _UNSUPPORTED_STATEMENTS:
                raise _Reject(pos, _UNSUPPORTED_STATEMENTS[s],
                              "unsupported-construct")
            if s == "while":
                return self._parse_while()
            if s == "for":
                return self._parse_for()
            if s == "switch":
                return self._parse_switch()
            if s == "return":
                self.pos = pos + 1
                value = None if self.at(";") else self.parse_expr()
                self.expect(";")
                return Return(value, self.lines[pos])
            # label?  `name:` is goto territory
            if self.spell[pos + 1] == ":":
                raise _Reject(pos, "labels are outside the accepted subset",
                              "unsupported-construct")
            return self._parse_simple_stmt()
        if s == "*":
            raise _Reject(pos, "pointer-dereference writes are outside the "
                               "accepted subset", "unsupported-construct")
        raise _Reject(pos, f"cannot parse statement at {self.text(pos)!r}")

    def _parse_declare(self) -> Declare:
        line = self.lines[self.pos]
        type_text = self.parse_type()
        name = self._name("a name")
        if self.at("["):
            raise _Reject(name, "arrays are outside the accepted subset",
                          "unsupported-construct")
        if self.at(","):
            raise _Reject(self.pos, "one declarator per statement",
                          "unsupported-construct")
        init = None
        if self.accept("="):
            init = self.parse_expr()
        self.expect(";")
        return Declare(type_text, self.spell[name], init, line)

    def _parse_simple_stmt(self, terminated: bool = True) -> Stmt:
        """Assignment, compound assignment, ++/--, or a bare call."""
        pos = self.pos
        name, op, line = self.spell[pos], self.spell[pos + 1], self.lines[pos]
        if name[:1] in _NOT_NAME or op not in _SIMPLE_OPS:  # a literal is no target
            raise _Reject(pos, f"cannot parse statement at {self.text(pos)!r}")
        self.pos = pos + 2
        if op == "(":
            self.pos = pos + 1
            stmt: Stmt = ExprStmt(self._parse_call(pos), line)
        elif op in ("++", "--"):
            delta = Num(1 if op == "++" else -1, line)
            stmt = Assign(name, Binary("+", Var(name, line), delta, line), line)
        else:
            value = self.parse_expr()
            if op != "=":
                value = Binary(op[0], Var(name, line), value, line)
            stmt = Assign(name, value, line)
        if terminated:
            self.expect(";")
        return stmt

    def _parse_if(self) -> If:
        line = self.lines[self.expect("if")]
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self._branch_body()
        orelse = None
        if self.accept("else"):
            if self.at("if"):
                nested = self._deeper(self.pos, self._parse_if)
                orelse = Block((nested,), nested.line)
            else:
                orelse = self._branch_body()
        return If(cond, then, orelse, line)

    def _branch_body(self) -> Block:
        if self.at("{"):
            return self.parse_block()
        line = self.lines[self.pos]
        stmt = self.parse_stmt()
        return Block(() if stmt is None else (stmt,), line)

    def _parse_while(self) -> While:
        line = self.lines[self.expect("while")]
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        return While(cond, self._branch_body(), line)

    def _parse_for(self) -> For:
        line = self.lines[self.expect("for")]
        self.expect("(")
        init: Optional[Stmt] = None
        if not self.accept(";"):
            if self.spell[self.pos] in _TYPE_WORDS:
                init = self._parse_declare()
            else:
                init = self._parse_simple_stmt()
        cond = None if self.at(";") else self.parse_expr()
        self.expect(";")
        step = None if self.at(")") else self._parse_simple_stmt(terminated=False)
        self.expect(")")
        return For(init, cond, step, self._branch_body(), line)

    def _parse_switch(self) -> Switch:
        line = self.lines[self.expect("switch")]
        self.expect("(")
        expr = self.parse_expr()
        self.expect(")")
        self.expect("{")
        cases: list[SwitchCase] = []
        spell = self.spell
        while spell[self.pos] not in ("}", ""):
            labels: list[Optional[Expr]] = []
            label_pos = self.pos
            while spell[self.pos] in ("case", "default"):
                self.pos += 1
                labels.append(None if spell[self.pos - 1] == "default"
                              else self.parse_expr())
                self.expect(":")
            if not labels:
                raise _Reject(self.pos, "expected a case label")
            stmts: list[Stmt] = []
            closed = False
            while spell[self.pos] not in ("}", "", "case", "default"):
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
                    label_pos,
                    "switch fallthrough is outside the accepted subset "
                    "(end the case with break or return)",
                    "unsupported-construct",
                )
            label_line = self.lines[label_pos]
            cases.append(SwitchCase(tuple(labels), Block(tuple(stmts), label_line),
                                    label_line))
        self.expect("}")
        return Switch(expr, tuple(cases), line)

    # -- expressions ---------------------------------------------------------

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing: operands joined by binary operators of
        precedence ``min_prec`` or higher.  Leaves the height of the
        returned tree in ``self.height``."""
        spell = self.spell
        lhs = self._parse_primary()
        height = self.height
        while True:
            pos = self.pos
            prec = _PRECEDENCE.get(spell[pos], 0)
            if prec < min_prec:
                self.height = height
                return lhs
            self.pos = pos + 1
            rhs = self.parse_expr(prec + 1)
            height = max(height, self.height) + 1
            self._check_depth(pos, self.depth + height)
            lhs = Binary(spell[pos], lhs, rhs, self.lines[pos])

    def _parse_primary(self) -> Expr:
        """One operand: a prefix operator and its operand, a name, call,
        literal, cast or parenthesized expression.  Leaves its height in
        ``self.height``.  A token no operand starts with is rejected and
        left for error recovery."""
        pos = self.pos
        s = self.spell[pos]
        self.height = 0
        first = s[:1]
        if first not in _NOT_NAME:
            if s == "sizeof":
                raise _Reject(pos, "sizeof is outside the accepted subset",
                              "unsupported-construct")
            self.pos = pos + 1
            if self.spell[pos + 1] == "(":
                return self._parse_call(pos)
            return Var(s, self.lines[pos])
        if s in self.numbers:
            self.pos = pos + 1
            # None only for a literal the lexer has already reported
            return Num(self.numbers[s], self.lines[pos])
        if first == '"':
            self.pos = pos + 1
            return Str(s[1:-1], self.lines[pos])
        if s in ("-", "!", "~", "&"):
            self.pos = pos + 1
            operand = self._deeper(pos, self._parse_primary)
            if s == "&" and not isinstance(operand, Var):
                raise _Reject(pos, "address-of applies to plain variables only",
                              "unsupported-construct")
            self.height += 1
            return Unary(s, operand, self.lines[pos])
        if s == "(":
            self.pos = pos + 1
            if self.spell[pos + 1] in _TYPE_WORDS:
                self.parse_type()  # a cast changes nothing the analyses see
                self.expect(")")
                inner = self._deeper(pos, self._parse_primary)
            else:
                inner = self._deeper(pos, self.parse_expr)
                self.expect(")")
            self.height += 1
            return inner
        if s == "*":
            raise _Reject(pos, "pointer dereference is outside the accepted subset",
                          "unsupported-construct")
        raise _Reject(pos, f"cannot parse expression at {self.text(pos)!r}")

    def _parse_call(self, name_pos: int) -> CallExpr:
        self.expect("(")
        args: tuple[Expr, ...] = ()
        self.height = 0
        if not self.at(")"):
            args = self._deeper(name_pos, self._parse_args)
        self.expect(")")
        self.height += 1
        return CallExpr(self.spell[name_pos], args, self.lines[name_pos])

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


_UNSUPPORTED_STATEMENTS = {
    "goto": "goto is outside the accepted subset",
    "continue": "continue is outside the accepted subset",
    "break": "break outside switch is outside the accepted subset",
}


class _Reject(Exception):
    def __init__(self, pos: int, message: str, code: str = "syntax"):
        self.pos = pos  # index of the token rejected
        self.message = message
        self.code = code
        super().__init__(message)


def parse_source(text: str, path: str = "<input>") -> Program:
    """Parse MiniC source into a syntax tree, or raise :class:`MiniCError`."""
    spell, lines, defines, numbers, diags, problems = _lex(text)
    parser = _Parser(spell, lines, defines, numbers)
    program = parser.parse_program(path)
    if diags or problems or parser.problems:
        diags, cols = _place(text, spell, diags, problems)
        diags += [Diagnostic(lines[pos], cols[pos], message, code)
                  for pos, message, code in parser.problems]
        raise MiniCError(sorted(diags, key=lambda d: (d.line, d.column)), path)
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
    else:  # the records among its fields, alone or in a tuple
        children = tuple(x for f in node._fields()
                         for x in (f if type(f) is tuple else (f,))
                         if isinstance(x, _Record))
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
        if isinstance(s, (While, For)):
            cond = s.cond if s.cond is not None else Num(1, s.line)
            body = block(s.body).stmts
            if isinstance(s, For) and s.step is not None:
                body += (s.step,)
            out = If(cond, Block(body, s.line), None, s.line)
            for _ in range(k - 1):
                out = If(cond, Block(body + (out,), s.line), None, s.line)
            if isinstance(s, For) and s.init is not None:
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
