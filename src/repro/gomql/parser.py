"""Recursive-descent parser for GOMql statements."""

from __future__ import annotations

from functools import lru_cache

from repro.errors import ParseError
from repro.gomql.ast import (
    AGGREGATES,
    MaterializeStmt,
    QAgg,
    QAnd,
    QAttr,
    QBin,
    QCall,
    QCmp,
    QConst,
    QExpr,
    QIn,
    QName,
    QNeg,
    QNot,
    QOr,
    QPred,
    Query,
    RangeDecl,
)
from repro.gomql.lexer import Token, tokenize


#: Statements whose parse is kept (least recently used evicted first).
#: Applications re-run a handful of statement texts with different
#: parameters, so a small bound holds the whole working set.
PARSE_CACHE_SIZE = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_statement(text: str) -> Query | MaterializeStmt:
    """Parse one GOMql statement (``retrieve`` query or ``materialize``).

    The same text returns the same AST object: ASTs are frozen
    dataclasses over tuples, so callers share them.  A text that fails
    to parse is not cached and raises on every call.
    """
    return _Parser(tokenize(text)).statement()


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0

    # -- token plumbing ----------------------------------------------------------

    @property
    def _current(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._current
        if token.kind != "eof":
            self._index += 1
        return token

    def _check(self, kind: str, text: str | None = None) -> bool:
        token = self._current
        return token.kind == kind and (text is None or token.text == text)

    def _accept(self, kind: str, text: str | None = None) -> Token | None:
        if self._check(kind, text):
            return self._advance()
        return None

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._accept(kind, text)
        if token is None:
            wanted = text or kind
            actual = self._current.text or self._current.kind
            raise ParseError(
                f"expected {wanted!r}, found {actual!r} "
                f"(offset {self._current.position})"
            )
        return token

    # -- grammar -------------------------------------------------------------------

    def statement(self) -> Query | MaterializeStmt:
        ranges = self._ranges()
        if self._accept("keyword", "retrieve"):
            projections = [self._projection()]
            while self._accept("symbol", ","):
                projections.append(self._projection())
            where = self._where()
            self._expect("eof")
            return Query(tuple(ranges), tuple(projections), where)
        if self._accept("keyword", "materialize"):
            targets = [self._materialize_target()]
            while self._accept("symbol", ","):
                targets.append(self._materialize_target())
            where = self._where()
            self._expect("eof")
            return MaterializeStmt(tuple(ranges), tuple(targets), where)
        raise ParseError("expected 'retrieve' or 'materialize' after range clause")

    def _ranges(self) -> list[RangeDecl]:
        self._expect("keyword", "range")
        ranges = [self._range_decl()]
        while self._accept("symbol", ","):
            ranges.append(self._range_decl())
        return ranges

    def _range_decl(self) -> RangeDecl:
        var = self._expect("ident").text
        self._expect("symbol", ":")
        type_name = self._expect("ident").text
        return RangeDecl(var, type_name)

    def _where(self) -> QPred | None:
        if self._accept("keyword", "where"):
            return self._or_pred()
        return None

    def _projection(self) -> QExpr:
        if (
            self._current.kind == "ident"
            and self._current.text in AGGREGATES
            and self._tokens[self._index + 1].kind == "symbol"
            and self._tokens[self._index + 1].text == "("
        ):
            func = self._advance().text
            self._expect("symbol", "(")
            argument = self._expr()
            self._expect("symbol", ")")
            return QAgg(func, argument)
        return self._expr()

    def _materialize_target(self) -> QCall:
        expr = self._expr()
        if isinstance(expr, QAttr):
            # ``materialize c.volume`` — the paper writes the parentheses
            # optional; normalize to a call with no arguments.
            expr = QCall(expr.base, expr.name, ())
        if not isinstance(expr, QCall):
            raise ParseError(
                "materialize targets must be function invocations "
                "such as c.volume or c.distance(r)"
            )
        return expr

    # -- predicates -----------------------------------------------------------------

    def _or_pred(self) -> QPred:
        parts = [self._and_pred()]
        while self._accept("keyword", "or"):
            parts.append(self._and_pred())
        return parts[0] if len(parts) == 1 else QOr(tuple(parts))

    def _and_pred(self) -> QPred:
        parts = [self._not_pred()]
        while self._accept("keyword", "and"):
            parts.append(self._not_pred())
        return parts[0] if len(parts) == 1 else QAnd(tuple(parts))

    def _not_pred(self) -> QPred:
        if self._accept("keyword", "not"):
            return QNot(self._not_pred())
        return self._primary_pred()

    def _primary_pred(self) -> QPred:
        # Parenthesized predicates vs parenthesized expressions are
        # disambiguated by backtracking: try a predicate first.
        if self._check("symbol", "("):
            mark = self._index
            self._advance()
            try:
                inner = self._or_pred()
                self._expect("symbol", ")")
                return inner
            except ParseError:
                self._index = mark
        left = self._expr()
        if self._accept("keyword", "in"):
            return QIn(left, self._expr())
        for op in ("<=", ">=", "!=", "<", ">", "="):
            if self._accept("symbol", op):
                return QCmp(op, left, self._expr())
        raise ParseError(
            f"expected a comparison operator "
            f"(offset {self._current.position})"
        )

    # -- expressions -----------------------------------------------------------------

    def _expr(self) -> QExpr:
        left = self._term()
        while True:
            if self._accept("symbol", "+"):
                left = QBin("+", left, self._term())
            elif self._accept("symbol", "-"):
                left = QBin("-", left, self._term())
            else:
                return left

    def _term(self) -> QExpr:
        left = self._factor()
        while True:
            if self._accept("symbol", "*"):
                left = QBin("*", left, self._factor())
            elif self._accept("symbol", "/"):
                left = QBin("/", left, self._factor())
            else:
                return left

    def _factor(self) -> QExpr:
        if self._accept("symbol", "-"):
            return QNeg(self._factor())
        token = self._current
        if token.kind == "number":
            self._advance()
            return QConst(token.value)
        if token.kind == "string":
            self._advance()
            return QConst(token.value)
        if token.kind == "symbol" and token.text == "(":
            self._advance()
            inner = self._expr()
            self._expect("symbol", ")")
            return self._postfix(inner)
        if token.kind == "ident":
            self._advance()
            return self._postfix(QName(token.text))
        raise ParseError(
            f"unexpected token {token.text or token.kind!r} "
            f"(offset {token.position})"
        )

    def _postfix(self, base: QExpr) -> QExpr:
        while self._accept("symbol", "."):
            name = self._expect("ident").text
            if self._accept("symbol", "("):
                args: list[QExpr] = []
                if not self._check("symbol", ")"):
                    args.append(self._expr())
                    while self._accept("symbol", ","):
                        args.append(self._expr())
                self._expect("symbol", ")")
                base = QCall(base, name, tuple(args))
            else:
                base = QAttr(base, name)
        return base
