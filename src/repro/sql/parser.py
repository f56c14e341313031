"""Recursive-descent SQL parser producing unresolved logical plans.

Stands in for Spark's ANTLR parser (``AstBuilder``) with the skyline
grammar extension of Listing 5:

.. code-block:: text

    skylineClause : SKYLINE OF DISTINCT? COMPLETE? skylineItem (',' skylineItem)*
    skylineItem   : expression (MIN | MAX | DIFF)

A ``SKYLINE OF`` clause follows HAVING (if any) and precedes ORDER BY,
exactly as the paper specifies.
"""

from __future__ import annotations

from ..core.dominance import DimensionKind
from ..engine import expressions as E
from ..errors import ParseError
from ..plan import logical as L
from .lexer import Token, TokenKind, tokenize

#: Keywords that may terminate a FROM alias position.
_CLAUSE_KEYWORDS = {
    "where", "group", "having", "skyline", "order", "limit", "on", "using",
    "join", "inner", "left", "right", "full", "cross",
}


class _Parser:
    def __init__(self, tokens: list[Token], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.pos = 0

    # -- token helpers ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def check_keyword(self, *words: str) -> bool:
        return self.current.is_keyword(*words)

    def accept_keyword(self, *words: str) -> bool:
        if self.check_keyword(*words):
            self.advance()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.check_keyword(word):
            raise ParseError(
                f"expected {word.upper()}, found {self.current.value!r}",
                self.current.position, self.current.line)
        return self.advance()

    def check_punct(self, value: str) -> bool:
        return (self.current.kind is TokenKind.PUNCT
                and self.current.value == value)

    def accept_punct(self, value: str) -> bool:
        if self.check_punct(value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> Token:
        if not self.check_punct(value):
            raise ParseError(
                f"expected {value!r}, found {self.current.value!r}",
                self.current.position, self.current.line)
        return self.advance()

    def check_operator(self, *values: str) -> bool:
        return (self.current.kind is TokenKind.OPERATOR
                and self.current.value in values)

    def accept_operator(self, *values: str) -> str | None:
        if self.check_operator(*values):
            return self.advance().value
        return None

    def expect_identifier(self) -> str:
        token = self.current
        if token.kind is TokenKind.IDENTIFIER:
            self.advance()
            return token.value
        # Soft keywords (min/max/diff/complete/of...) are legal identifiers
        # outside their clause position.
        if token.kind is TokenKind.KEYWORD and token.value in (
                "min", "max", "diff", "complete", "of", "first", "last",
                "nulls"):
            self.advance()
            return token.value
        raise ParseError(f"expected identifier, found {token.value!r}",
                         token.position, token.line)

    # -- entry points --------------------------------------------------------

    def parse_query(self) -> L.LogicalPlan:
        plan = self.parse_select()
        if self.current.kind is not TokenKind.EOF:
            raise ParseError(
                f"unexpected trailing input: {self.current.value!r}",
                self.current.position, self.current.line)
        return plan

    # -- SELECT -------------------------------------------------------------

    def parse_select(self) -> L.LogicalPlan:
        self.expect_keyword("select")
        is_distinct = self.accept_keyword("distinct")
        select_list = self.parse_select_list()

        plan: L.LogicalPlan
        if self.accept_keyword("from"):
            plan = self.parse_from()
        else:
            # SELECT without FROM: a single-row relation.
            plan = L.LocalRelation([], [()])

        if self.accept_keyword("where"):
            plan = L.Filter(self.parse_expression(), plan)

        grouping: list[E.Expression] = []
        has_group_by = False
        if self.accept_keyword("group"):
            self.expect_keyword("by")
            has_group_by = True
            grouping.append(self.parse_expression())
            while self.accept_punct(","):
                grouping.append(self.parse_expression())

        named_select = [self._ensure_named(e) for e in select_list]
        uses_aggregates = any(_contains_aggregate_call(e)
                              for e in select_list)
        if has_group_by or uses_aggregates:
            plan = L.Aggregate(grouping, named_select, plan)
        else:
            plan = L.Project(named_select, plan)

        if self.accept_keyword("having"):
            plan = L.Filter(self.parse_expression(), plan)

        if self.check_keyword("skyline"):
            plan = self.parse_skyline_clause(plan)

        if self.accept_keyword("order"):
            self.expect_keyword("by")
            order = [self.parse_sort_item()]
            while self.accept_punct(","):
                order.append(self.parse_sort_item())
            plan = L.Sort(order, True, plan)

        if self.accept_keyword("limit"):
            token = self.current
            if token.kind is not TokenKind.NUMBER:
                raise ParseError("LIMIT expects a number", token.position,
                                 token.line)
            self.advance()
            plan = L.Limit(int(token.value), plan)

        if is_distinct:
            plan = L.Distinct(plan)
        return plan

    def parse_select_list(self) -> list[E.Expression]:
        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> E.Expression:
        if self.check_operator("*"):
            self.advance()
            return E.UnresolvedStar()
        # t.* form
        if (self.current.kind is TokenKind.IDENTIFIER
                and self.pos + 2 < len(self.tokens)
                and self.tokens[self.pos + 1].kind is TokenKind.PUNCT
                and self.tokens[self.pos + 1].value == "."
                and self.tokens[self.pos + 2].kind is TokenKind.OPERATOR
                and self.tokens[self.pos + 2].value == "*"):
            qualifier = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return E.UnresolvedStar(qualifier)
        expr = self.parse_expression()
        if self.accept_keyword("as"):
            return E.Alias(expr, self.expect_identifier())
        if self.current.kind is TokenKind.IDENTIFIER:
            return E.Alias(expr, self.advance().value)
        return expr

    def _ensure_named(self, expr: E.Expression) -> E.Expression:
        """Give computed select-list entries a deterministic alias."""
        if isinstance(expr, (E.Alias, E.UnresolvedStar, E.UnresolvedAttribute,
                             E.AttributeReference)):
            return expr
        return E.Alias(expr, expr.display_name)

    # -- skyline clause (Listing 5) -----------------------------------------

    def parse_skyline_clause(self, child: L.LogicalPlan) -> L.LogicalPlan:
        self.expect_keyword("skyline")
        self.expect_keyword("of")
        skyline_distinct = self.accept_keyword("distinct")
        skyline_complete = self.accept_keyword("complete")
        items = [self.parse_skyline_item()]
        while self.accept_punct(","):
            items.append(self.parse_skyline_item())
        return L.SkylineOperator(skyline_distinct, skyline_complete, items,
                                 child)

    def parse_skyline_item(self) -> E.SkylineDimension:
        expr = self.parse_expression()
        token = self.current
        if token.is_keyword("min"):
            kind = DimensionKind.MIN
        elif token.is_keyword("max"):
            kind = DimensionKind.MAX
        elif token.is_keyword("diff"):
            kind = DimensionKind.DIFF
        else:
            raise ParseError(
                f"skyline dimension must end with MIN, MAX or DIFF; "
                f"found {token.value!r}", token.position, token.line)
        self.advance()
        return E.SkylineDimension(expr, kind)

    # -- FROM / joins ---------------------------------------------------------

    def parse_from(self) -> L.LogicalPlan:
        plan = self.parse_relation()
        while True:
            join_type = self._parse_join_type()
            if join_type is None:
                if self.accept_punct(","):
                    right = self.parse_relation()
                    plan = L.Join(plan, right, L.JoinType.CROSS)
                    continue
                break
            right = self.parse_relation()
            condition: E.Expression | None = None
            using: tuple[str, ...] = ()
            if self.accept_keyword("on"):
                condition = self.parse_expression()
            elif self.accept_keyword("using"):
                self.expect_punct("(")
                columns = [self.expect_identifier()]
                while self.accept_punct(","):
                    columns.append(self.expect_identifier())
                self.expect_punct(")")
                using = tuple(columns)
            elif join_type not in (L.JoinType.CROSS,):
                raise ParseError(
                    "JOIN requires an ON or USING clause",
                    self.current.position, self.current.line)
            plan = L.Join(plan, right, join_type, condition, using)
        return plan

    def _parse_join_type(self) -> str | None:
        if self.accept_keyword("join"):
            return L.JoinType.INNER
        if self.check_keyword("inner"):
            self.advance()
            self.expect_keyword("join")
            return L.JoinType.INNER
        if self.check_keyword("left"):
            self.advance()
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return L.JoinType.LEFT_OUTER
        if self.check_keyword("right"):
            self.advance()
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return L.JoinType.RIGHT_OUTER
        if self.check_keyword("full"):
            self.advance()
            self.accept_keyword("outer")
            self.expect_keyword("join")
            return L.JoinType.FULL_OUTER
        if self.check_keyword("cross"):
            self.advance()
            self.expect_keyword("join")
            return L.JoinType.CROSS
        return None

    def parse_relation(self) -> L.LogicalPlan:
        if self.accept_punct("("):
            inner = self.parse_select()
            self.expect_punct(")")
            alias = self._parse_optional_alias()
            if alias is not None:
                return L.SubqueryAlias(alias, inner)
            return inner
        name = self.expect_identifier()
        plan: L.LogicalPlan = L.UnresolvedRelation(name)
        alias = self._parse_optional_alias()
        if alias is not None:
            return L.SubqueryAlias(alias, plan)
        return L.SubqueryAlias(name, plan)

    def _parse_optional_alias(self) -> str | None:
        if self.accept_keyword("as"):
            return self.expect_identifier()
        token = self.current
        if (token.kind is TokenKind.IDENTIFIER
                and token.value.lower() not in _CLAUSE_KEYWORDS):
            self.advance()
            return token.value
        return None

    # -- ORDER BY -----------------------------------------------------------------

    def parse_sort_item(self) -> L.SortOrder:
        expr = self.parse_expression()
        ascending = True
        if self.accept_keyword("desc"):
            ascending = False
        else:
            self.accept_keyword("asc")
        nulls_first: bool | None = None
        if self.accept_keyword("nulls"):
            if self.accept_keyword("first"):
                nulls_first = True
            elif self.accept_keyword("last"):
                nulls_first = False
            else:
                raise ParseError("expected FIRST or LAST after NULLS",
                                 self.current.position, self.current.line)
        return L.SortOrder(expr, ascending, nulls_first)

    # -- expressions ------------------------------------------------------------

    def parse_expression(self) -> E.Expression:
        return self.parse_or()

    def parse_or(self) -> E.Expression:
        left = self.parse_and()
        while self.accept_keyword("or"):
            left = E.Or(left, self.parse_and())
        return left

    def parse_and(self) -> E.Expression:
        left = self.parse_not()
        while self.accept_keyword("and"):
            left = E.And(left, self.parse_not())
        return left

    def parse_not(self) -> E.Expression:
        if self.accept_keyword("not"):
            return E.Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> E.Expression:
        left = self.parse_additive()
        while True:
            if self.accept_keyword("is"):
                negated = self.accept_keyword("not")
                self.expect_keyword("null")
                left = E.IsNotNull(left) if negated else E.IsNull(left)
                continue
            if self.check_keyword("between", "in", "not"):
                negated = self.accept_keyword("not")
                if self.accept_keyword("between"):
                    low = self.parse_additive()
                    self.expect_keyword("and")
                    high = self.parse_additive()
                    between = E.And(E.GreaterThanOrEqual(left, low),
                                    E.LessThanOrEqual(left, high))
                    left = E.Not(between) if negated else between
                    continue
                if self.accept_keyword("in"):
                    self.expect_punct("(")
                    options = [self.parse_expression()]
                    while self.accept_punct(","):
                        options.append(self.parse_expression())
                    self.expect_punct(")")
                    membership = E.disjunction(
                        [E.EqualTo(left, option) for option in options])
                    left = E.Not(membership) if negated else membership
                    continue
                if negated:
                    raise ParseError("unexpected NOT",
                                     self.current.position,
                                     self.current.line)
            op = self.accept_operator("=", "<>", "!=", "<", "<=", ">", ">=",
                                      "<=>")
            if op is None:
                return left
            right = self.parse_additive()
            left = _COMPARISONS[op](left, right)

    def parse_additive(self) -> E.Expression:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-")
            if op is None:
                return left
            right = self.parse_multiplicative()
            left = E.Add(left, right) if op == "+" else E.Subtract(left,
                                                                   right)

    def parse_multiplicative(self) -> E.Expression:
        left = self.parse_unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            right = self.parse_unary()
            if op == "*":
                left = E.Multiply(left, right)
            elif op == "/":
                left = E.Divide(left, right)
            else:
                left = E.Modulo(left, right)

    def parse_unary(self) -> E.Expression:
        if self.accept_operator("-"):
            return E.Negate(self.parse_unary())
        if self.accept_operator("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> E.Expression:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            self.advance()
            if any(c in token.value for c in ".eE"):
                return E.Literal(float(token.value))
            return E.Literal(int(token.value))
        if token.kind is TokenKind.STRING:
            self.advance()
            return E.Literal(token.value)
        if token.is_keyword("true"):
            self.advance()
            return E.Literal(True)
        if token.is_keyword("false"):
            self.advance()
            return E.Literal(False)
        if token.is_keyword("null"):
            self.advance()
            return E.Literal(None)
        if token.is_keyword("exists"):
            self.advance()
            self.expect_punct("(")
            plan = self.parse_select()
            self.expect_punct(")")
            return E.Exists(plan)
        if token.is_keyword("case"):
            return self.parse_case()
        if token.is_keyword("not"):
            self.advance()
            return E.Not(self.parse_primary())
        if self.check_punct("("):
            self.advance()
            if self.check_keyword("select"):
                plan = self.parse_select()
                self.expect_punct(")")
                return E.ScalarSubquery(plan)
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        if token.kind is TokenKind.IDENTIFIER or token.kind is \
                TokenKind.KEYWORD:
            return self.parse_identifier_expression()
        raise ParseError(f"unexpected token {token.value!r}",
                         token.position, token.line)

    def parse_case(self) -> E.Expression:
        self.expect_keyword("case")
        branches: list[tuple[E.Expression, E.Expression]] = []
        # Simple CASE (CASE expr WHEN v ...) or searched CASE.
        subject: E.Expression | None = None
        if not self.check_keyword("when"):
            subject = self.parse_expression()
        while self.accept_keyword("when"):
            condition = self.parse_expression()
            if subject is not None:
                condition = E.EqualTo(subject, condition)
            self.expect_keyword("then")
            value = self.parse_expression()
            branches.append((condition, value))
        if not branches:
            raise ParseError("CASE requires at least one WHEN branch",
                             self.current.position, self.current.line)
        else_value: E.Expression | None = None
        if self.accept_keyword("else"):
            else_value = self.parse_expression()
        self.expect_keyword("end")
        return E.CaseWhen(branches, else_value)

    def parse_identifier_expression(self) -> E.Expression:
        """An identifier: column ref, qualified ref, or function call."""
        token = self.current
        # min/max can appear as aggregate function names even though they
        # are skyline keywords.
        if token.kind is TokenKind.KEYWORD and token.value not in (
                "min", "max", "left", "right"):
            raise ParseError(f"unexpected keyword {token.value!r}",
                             token.position, token.line)
        name = self.advance().value
        if self.check_punct("("):
            return self.parse_function_call(name)
        if self.accept_punct("."):
            column = self.expect_identifier()
            return E.UnresolvedAttribute(column, qualifier=name)
        return E.UnresolvedAttribute(name)

    def parse_function_call(self, name: str) -> E.Expression:
        self.expect_punct("(")
        is_distinct = False
        args: list[E.Expression] = []
        if self.check_operator("*"):
            self.advance()
            self.expect_punct(")")
            if name.lower() != "count":
                raise ParseError(f"{name}(*) is not supported",
                                 self.current.position, self.current.line)
            return E.Count(E.Literal(1))
        if not self.check_punct(")"):
            is_distinct = self.accept_keyword("distinct")
            args.append(self.parse_expression())
            while self.accept_punct(","):
                args.append(self.parse_expression())
        self.expect_punct(")")
        return E.UnresolvedFunction(name, args, is_distinct)


def _contains_aggregate_call(expr: E.Expression) -> bool:
    """True if the (possibly unresolved) expression calls an aggregate."""
    for node in expr.iter_tree():
        if isinstance(node, E.AggregateFunction):
            return True
        if isinstance(node, E.UnresolvedFunction) and \
                node.name in E.AGGREGATE_FUNCTIONS:
            return True
    return False


_COMPARISONS = {
    "=": E.EqualTo,
    "<>": E.NotEqualTo,
    "!=": E.NotEqualTo,
    "<": E.LessThan,
    "<=": E.LessThanOrEqual,
    ">": E.GreaterThan,
    ">=": E.GreaterThanOrEqual,
    "<=>": E.EqualNullSafe,
}


def parse_query(sql: str) -> L.LogicalPlan:
    """Parse a SQL query string into an unresolved logical plan."""
    return _Parser(tokenize(sql), sql).parse_query()


def parse_expression(sql: str) -> E.Expression:
    """Parse a standalone SQL expression (used by tests and the API)."""
    parser = _Parser(tokenize(sql), sql)
    expr = parser.parse_expression()
    if parser.current.kind is not TokenKind.EOF:
        raise ParseError(
            f"unexpected trailing input: {parser.current.value!r}",
            parser.current.position, parser.current.line)
    return expr
