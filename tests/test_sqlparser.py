"""Tests for the SQL tokenizer and parser."""

import pytest

from repro.errors import ParseError
from repro.sqlparser import (
    Aggregate,
    And,
    Between,
    BinaryOp,
    ColumnRef,
    Comparison,
    InList,
    Like,
    Literal,
    Not,
    Or,
    column_refs,
    has_aggregate,
    parse,
    statement_shape,
    tokenize,
    TokenType,
    walk,
)
from repro.workloads import SSB_QUERIES


class TestTokenizer:
    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM Where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]

    def test_identifiers_keep_spelling(self):
        tokens = tokenize("Lo_Revenue")
        assert tokens[0].type == TokenType.IDENT
        assert tokens[0].value == "Lo_Revenue"

    def test_string_literal(self):
        tokens = tokenize("'ASIA'")
        assert tokens[0].type == TokenType.STRING
        assert tokens[0].value == "ASIA"

    def test_string_escape(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize("'oops")

    def test_numbers(self):
        tokens = tokenize("42 3.14")
        assert [t.value for t in tokens[:2]] == ["42", "3.14"]

    def test_operators(self):
        values = [t.value for t in tokenize("a >= 1 and b <> 2 and c != 3")]
        assert ">=" in values
        assert values.count("<>") == 2  # != normalized to <>

    def test_comments_skipped(self):
        tokens = tokenize("select -- comment\n x from t")
        assert [t.value for t in tokens[:2]] == ["SELECT", "x"]

    def test_bad_character(self):
        with pytest.raises(ParseError):
            tokenize("select @")

    def test_eof_token(self):
        assert tokenize("")[-1].type == TokenType.EOF


class TestParserBasics:
    def test_minimal(self):
        stmt = parse("SELECT a FROM t")
        assert stmt.tables == ("t",)
        assert stmt.items[0].expr == ColumnRef("a")

    def test_multiple_tables(self):
        stmt = parse("SELECT a FROM t1, t2, t3")
        assert stmt.tables == ("t1", "t2", "t3")

    def test_alias_with_as(self):
        stmt = parse("SELECT sum(x) AS total FROM t")
        assert stmt.items[0].alias == "total"

    def test_bare_alias(self):
        stmt = parse("SELECT sum(x) total FROM t")
        assert stmt.items[0].alias == "total"

    def test_qualified_column(self):
        stmt = parse("SELECT t.a FROM t")
        assert stmt.items[0].expr == ColumnRef("a", table="t")

    def test_count_star(self):
        stmt = parse("SELECT count(*) FROM t")
        agg = stmt.items[0].expr
        assert isinstance(agg, Aggregate) and agg.func == "COUNT" and agg.arg is None

    def test_count_empty_parens(self):
        # the paper writes count() in several queries
        agg = parse("SELECT count() FROM t").items[0].expr
        assert isinstance(agg, Aggregate) and agg.arg is None

    def test_group_order_limit(self):
        stmt = parse(
            "SELECT a, sum(b) FROM t GROUP BY a ORDER BY a ASC, sum(b) DESC LIMIT 10"
        )
        assert stmt.group_by == (ColumnRef("a"),)
        assert stmt.order_by[0].descending is False
        assert stmt.order_by[1].descending is True
        assert stmt.limit == 10

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("SELECT a FROM t nonsense extra")

    def test_missing_from(self):
        with pytest.raises(ParseError):
            parse("SELECT a")


class TestExpressions:
    def test_arithmetic_precedence(self):
        expr = parse("SELECT a + b * c FROM t").items[0].expr
        assert isinstance(expr, BinaryOp) and expr.op == "+"
        assert isinstance(expr.right, BinaryOp) and expr.right.op == "*"

    def test_parenthesized(self):
        expr = parse("SELECT (a + b) * c FROM t").items[0].expr
        assert expr.op == "*"
        assert isinstance(expr.left, BinaryOp) and expr.left.op == "+"

    def test_paper_q3_expression(self):
        expr = parse(
            "SELECT sum(l_extendedprice * (1 - l_discount)) FROM lineitem"
        ).items[0].expr
        assert isinstance(expr, Aggregate)
        inner = expr.arg
        assert isinstance(inner, BinaryOp) and inner.op == "*"
        assert isinstance(inner.right, BinaryOp) and inner.right.op == "-"

    def test_unary_minus_literal(self):
        expr = parse("SELECT a FROM t WHERE a > -5").where
        assert expr.right == Literal(-5)

    def test_where_and_flattening(self):
        where = parse(
            "SELECT a FROM t WHERE a = 1 AND b = 2 AND c = 3"
        ).where
        assert isinstance(where, And) and len(where.terms) == 3

    def test_or_precedence(self):
        where = parse("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3").where
        assert isinstance(where, Or)
        assert isinstance(where.terms[1], And)

    def test_not(self):
        where = parse("SELECT a FROM t WHERE NOT a = 1").where
        assert isinstance(where, Not)

    def test_between(self):
        where = parse("SELECT a FROM t WHERE a BETWEEN 1 AND 3").where
        assert isinstance(where, Between)
        assert where.low == Literal(1) and where.high == Literal(3)

    def test_not_between(self):
        where = parse("SELECT a FROM t WHERE a NOT BETWEEN 1 AND 3").where
        assert isinstance(where, Between) and where.negated

    def test_in_list(self):
        where = parse("SELECT a FROM t WHERE r IN ('x', 'y')").where
        assert isinstance(where, InList)
        assert [v.value for v in where.values] == ["x", "y"]

    def test_like(self):
        where = parse("SELECT a FROM t WHERE name LIKE 'MFGR#12%'").where
        assert isinstance(where, Like) and where.pattern == "MFGR#12%"

    def test_comparison_between_columns(self):
        where = parse("SELECT a FROM t, u WHERE t.fk = u.pk").where
        assert isinstance(where, Comparison)
        assert where.left == ColumnRef("fk", "t")
        assert where.right == ColumnRef("pk", "u")


class TestPaperQueries:
    def test_q1_from_paper(self):
        stmt = parse("""
            SELECT c_nation, s_nation, d_year, sum(lo_revenue) as revenue
            FROM customer, lineorder, supplier, date
            WHERE lo_custkey = c_custkey
              AND lo_suppkey = s_suppkey
              AND lo_orderdate = d_datekey
              AND c_region = 'ASIA' AND s_region = 'ASIA'
              AND d_year >= 1992 AND d_year <= 1997
            GROUP BY c_nation, s_nation, d_year
            ORDER BY d_year asc, revenue desc
        """)
        assert len(stmt.tables) == 4
        assert len(stmt.group_by) == 3
        assert stmt.order_by[1].expr == ColumnRef("revenue")
        assert isinstance(stmt.where, And) and len(stmt.where.terms) == 7

    def test_helpers(self):
        stmt = parse("SELECT sum(a + b) FROM t WHERE c = 1")
        assert has_aggregate(stmt.items[0].expr)
        refs = column_refs(stmt.items[0].expr)
        assert {r.name for r in refs} == {"a", "b"}


class TestStatementShape:
    """A statement's shape: its tokens with the WHERE literals lifted."""

    def test_whitespace_case_and_comments_collapse(self):
        a = statement_shape(
            "SELECT d_year, count(*) AS n FROM lineorder, date "
            "WHERE d_year = 1993 GROUP BY d_year")
        b = statement_shape(
            "select  D_Year,count(*) as N -- per year\n from LINEORDER ,"
            "\tdate where d_year=1993 group by d_year;")
        assert a == b
        assert a[1] == (1993,)

    def test_where_literals_lift_in_order(self):
        shape, values = statement_shape(
            "SELECT a FROM t WHERE b BETWEEN 1 AND 2.5 AND c IN ('x', 'y') "
            "AND d LIKE 'M%'")
        assert values == (1, 2.5, "x", "y", "M%")
        assert shape == ("SELECT a FROM t WHERE b BETWEEN ?int AND ?float "
                         "AND c IN ( ?str , ?str ) AND d LIKE ?str")

    @pytest.mark.parametrize("first, second", [
        ("WHERE a = 5", "WHERE a = 5.0"),                 # literal type
        ("WHERE a = 5", "WHERE a = '5'"),
        ("WHERE a IN (1, 2)", "WHERE a IN (1, 2, 3)"),    # IN-list length
        ("WHERE a = 1 LIMIT 3", "WHERE a = 1 LIMIT 4"),   # LIMIT value
        ("WHERE a = 1 ORDER BY a", "WHERE a = 1 ORDER BY b"),
    ])
    def test_shapes_that_differ(self, first, second):
        assert (statement_shape(f"SELECT a FROM t {first}")[0]
                != statement_shape(f"SELECT a FROM t {second}")[0])

    def test_select_literals_stay_in_the_shape(self):
        a = statement_shape("SELECT sum(x + 1) FROM t WHERE y = 2")
        b = statement_shape("SELECT sum(x + 2) FROM t WHERE y = 2")
        assert a[0] != b[0] and a[1] == b[1] == (2,)

    def test_quote_escapes_round_trip(self):
        sql = "SELECT a FROM t WHERE s = 'it''s' AND u = ''''"
        assert statement_shape(sql)[1] == ("it's", "'")
        where = parse(sql).where
        assert [term.right.value for term in where.terms] == ["it's", "'"]

    @pytest.mark.parametrize("query_id", list(SSB_QUERIES))
    def test_parser_slots_number_the_shape_values(self, query_id):
        sql = SSB_QUERIES[query_id]
        values = statement_shape(sql)[1]
        slots = {}
        for node in walk(parse(sql).where):
            if isinstance(node, Literal) and node.slot is not None:
                slots[node.slot] = node.value
            elif isinstance(node, Like) and node.slot is not None:
                slots[node.slot] = node.pattern
        assert values and slots == dict(enumerate(values))

    def test_negated_literal_takes_no_slot(self):
        stmt = parse("SELECT a FROM t WHERE a > -5 AND b = 3")
        lhs, rhs = stmt.where.terms
        assert lhs.right == Literal(-5) and lhs.right.slot is None
        assert rhs.right.slot == 1  # numbering follows the tokens

    @pytest.mark.parametrize("sql, position", [
        ("select @", 7),
        ("select 'oops", 7),
        ("select a from t where s = 'a''", 26),
        ("select a from t where x = 1 !", 28),
    ])
    def test_parse_error_positions(self, sql, position):
        with pytest.raises(ParseError) as caught:
            parse(sql)
        assert caught.value.position == position
