"""Polynomial expression parser shared by the library and the CLI.

Grammar: variables are names like x, y, u2 or x1..xN; literals are integers
(rationals are written with the division operator, e.g. 1/2 or x/3); the
operators are + - * / ^ with parentheses.  Division is only allowed by a
nonzero constant subexpression, and exponents are constant expressions,
evaluated like any other, whose value is a nonnegative integer, so every
accepted expression denotes an exact polynomial.

Unless an explicit variable list is supplied, variables are bound in order of
first appearance.  An error in an expression is a ParseError carrying the
offending position in the input; a bad variable list, and an expression nested
too deeply for the recursive parser and evaluator, are plain ValueErrors.
"""

from __future__ import annotations

from fractions import Fraction

from .series import Jet


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_OPS = set("+-*/^()")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", len(text)))
    return tokens


def _is_name(text: str) -> bool:
    """Whether the tokenizer reads ``text`` as exactly one name token."""
    try:
        return _tokenize(text) == [("name", text, 0), ("end", "", len(text))]
    except ParseError:
        return False


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        if value is not None and tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    # expr := term (('+'|'-') term)*
    def expr(self):
        node = self.term()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs)
        return node

    # term := factor (('*'|'/') factor)*
    def term(self):
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/":
            op = self.take()
            rhs = self.factor()
            node = ("mul" if op[1] == "*" else "div", node, rhs, op[2])
        return node

    # factor := ('+'|'-')* power
    def factor(self):
        sign = 1
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            if self.take()[1] == "-":
                sign = -sign
        node = self.power()
        return node if sign > 0 else ("neg", node)

    # power := atom ('^' factor)?   (right associative)
    def power(self):
        node = self.atom()
        if self.peek()[0] == "op" and self.peek()[1] == "^":
            op = self.take()
            exponent = self.factor()
            node = ("pow", node, exponent, op[2])
        return node

    def atom(self):
        tok = self.peek()
        if tok[0] == "num":
            self.take()
            return ("num", Fraction(tok[1]))
        if tok[0] == "name":
            self.take()
            return ("var", tok[1], tok[2])
        if tok[0] == "op" and tok[1] == "(":
            self.take()
            node = self.expr()
            self.take("op", ")")
            return node
        raise ParseError(f"expected a value, found {tok[1]!r}", tok[2])


def _collect_names(node, out):
    tag = node[0]
    if tag == "var":
        if node[1] not in out:
            out.append(node[1])
    elif tag in ("add", "sub", "mul", "div", "pow"):
        _collect_names(node[1], out)
        _collect_names(node[2], out)
    elif tag == "neg":
        _collect_names(node[1], out)


def _eval(node, env, trunc):
    tag = node[0]
    if tag == "num":
        n = len(env)
        return Jet.constant(node[1], n, trunc)
    if tag == "var":
        name = node[1]
        if name not in env:
            raise ParseError(f"unknown variable {name!r}", node[2])
        return Jet.variable(env[name], len(env), trunc)
    if tag == "neg":
        return -_eval(node[1], env, trunc)
    if tag == "add":
        return _eval(node[1], env, trunc) + _eval(node[2], env, trunc)
    if tag == "sub":
        return _eval(node[1], env, trunc) - _eval(node[2], env, trunc)
    if tag == "mul":
        return _eval(node[1], env, trunc) * _eval(node[2], env, trunc)
    if tag == "div":
        denom = _eval(node[2], env, trunc)
        if not denom.is_unit() or denom != Jet.constant(denom.constant_term, denom.nvars, trunc):
            raise ParseError("division is only allowed by a nonzero constant", node[3])
        return _eval(node[1], env, trunc).scale(Fraction(1) / denom.constant_term)
    if tag == "pow":
        names = []
        _collect_names(node[2], names)
        if names:
            raise ParseError("exponents must be constant expressions", node[3])
        exponent = _eval(node[2], env, trunc).constant_term
        if exponent.denominator != 1 or exponent < 0:
            raise ParseError("non-integer exponent", node[3])
        return _eval(node[1], env, trunc) ** int(exponent)
    raise AssertionError(f"unhandled node {tag}")


def _parse(text: str):
    """The syntax tree of one expression; trailing input is an error."""
    parser = _Parser(_tokenize(text))
    ast = parser.expr()
    end = parser.peek()
    if end[0] != "end":
        raise ParseError(f"unexpected trailing input {end[1]!r}", end[2])
    return ast


def parse_polynomial(text: str, var_names=None, trunc: int = 24):
    """Parse an expression into a jet.

    Returns ``(jet, names)``; ``names`` is the variable binding order.  With
    an explicit ``var_names`` list, unknown names in the expression are
    rejected and the jet uses exactly the given frame.
    """
    jets, names = parse_many([text], var_names, trunc)
    return jets[0], names


def parse_many(texts, var_names=None, trunc: int = 24):
    """Parse several expressions into one shared variable frame.  A bad
    ``var_names`` entry, and an expression nested too deeply for the
    recursive parser and evaluator, are ValueErrors without a position."""
    try:
        asts = [_parse(text) for text in texts]
        if var_names is None:
            names = []
            for ast in asts:
                _collect_names(ast, names)
            names = names or ["x"]
        else:
            names = list(var_names)
            for i, name in enumerate(names):
                if not _is_name(name):
                    raise ValueError(f"variable {name!r} is not a name")
                if name in names[:i]:
                    raise ValueError(f"variable {name!r} is listed twice")
        env = {name: i for i, name in enumerate(names)}
        return [_eval(ast, env, trunc) for ast in asts], names
    except RecursionError:
        raise ValueError(
            "an expression is nested too deeply (parentheses, powers or operators)"
        ) from None
