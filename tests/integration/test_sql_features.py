"""SQL feature coverage: the skyline clause interacting with the rest
of the language, plus general SQL semantics end to end."""

import random

import pytest

from repro import DOUBLE, INTEGER, STRING, connect
from repro.errors import AnalysisError


@pytest.fixture
def shop():
    session = connect(num_executors=2)
    session.create_table(
        "products",
        [("id", INTEGER, False), ("category", STRING, False),
         ("price", DOUBLE, False), ("quality", INTEGER, False)],
        [
            (1, "phone", 700.0, 8),
            (2, "phone", 500.0, 7),
            (3, "phone", 900.0, 8),   # dominated by 1 (price)
            (4, "laptop", 1200.0, 9),
            (5, "laptop", 1000.0, 6),
            (6, "laptop", 1500.0, 9),  # dominated by 4
            (7, "tablet", 300.0, 5),
        ])
    session.create_table(
        "stock",
        [("id", INTEGER, False), ("units", INTEGER, False)],
        [(1, 3), (2, 0), (4, 7), (7, 2)])
    return session


class TestSkylineWithDiff:
    def test_diff_partitions_by_category(self, shop):
        rows = shop.sql(
            "SELECT id FROM products "
            "SKYLINE OF category DIFF, price MIN, quality MAX "
            "ORDER BY id").to_tuples()
        # Per-category skylines: phones {1,2}, laptops {4,5}, tablet {7}.
        assert rows == [(1,), (2,), (4,), (5,), (7,)]

    def test_diff_equals_groupwise_skyline(self, shop):
        with_diff = shop.sql(
            "SELECT id FROM products "
            "SKYLINE OF category DIFF, price MIN, quality MAX").to_tuples()
        manual = []
        for category in ("phone", "laptop", "tablet"):
            manual.extend(shop.sql(
                f"SELECT id FROM products WHERE category = '{category}' "
                f"SKYLINE OF price MIN, quality MAX").to_tuples())
        assert sorted(with_diff) == sorted(manual)


class TestSkylineDistinctSql:
    def test_distinct_removes_dimension_duplicates(self, shop):
        shop.create_table(
            "dupes", [("a", INTEGER, False), ("b", INTEGER, False),
                      ("tag", STRING, False)],
            [(1, 1, "x"), (1, 1, "y"), (0, 2, "z")])
        rows = shop.sql(
            "SELECT a, b FROM dupes "
            "SKYLINE OF DISTINCT a MIN, b MIN").to_tuples()
        assert sorted(rows) == [(0, 2), (1, 1)]


class TestSkylineComposition:
    def test_skyline_then_order_by_then_limit(self, shop):
        rows = shop.sql(
            "SELECT id, price FROM products "
            "SKYLINE OF price MIN, quality MAX "
            "ORDER BY price DESC LIMIT 2").to_tuples()
        assert len(rows) == 2
        assert rows[0][1] >= rows[1][1]

    def test_skyline_over_where_filter(self, shop):
        rows = shop.sql(
            "SELECT id FROM products WHERE category = 'phone' "
            "SKYLINE OF price MIN, quality MAX").to_tuples()
        assert sorted(rows) == [(1,), (2,)]

    def test_skyline_of_computed_expression(self, shop):
        # Price per quality point as a single derived dimension.
        rows = shop.sql(
            "SELECT id FROM products "
            "SKYLINE OF price / quality MIN").to_tuples()
        assert rows == [(7,)]  # 300/5 = 60 is the minimum ratio

    def test_skyline_in_subquery(self, shop):
        rows = shop.sql("""
            SELECT count(*) AS n FROM (
                SELECT id, price, quality FROM products
                SKYLINE OF price MIN, quality MAX
            )
        """).to_tuples()
        assert rows == [(4,)]  # ids 1, 2, 4, 7

    def test_nested_skylines(self, shop):
        # Outer skyline over the result of an inner skyline.
        rows = shop.sql("""
            SELECT id FROM (
                SELECT id, price, quality FROM products
                SKYLINE OF category DIFF, price MIN, quality MAX
            ) SKYLINE OF price MIN, quality MAX
        """).to_tuples()
        assert sorted(rows) == [(1,), (2,), (4,), (7,)]

    def test_skyline_after_join(self, shop):
        rows = shop.sql("""
            SELECT products.id FROM products JOIN stock
                ON products.id = stock.id
            WHERE stock.units > 0
            SKYLINE OF price MIN, quality MAX
        """).to_tuples()
        assert sorted(rows) == [(1,), (4,), (7,)]

    def test_skyline_with_group_by_having(self, shop):
        rows = shop.sql("""
            SELECT category, min(price) AS cheapest, max(quality) AS best
            FROM products GROUP BY category
            HAVING count(*) > 1
            SKYLINE OF cheapest MIN, best MAX
        """).to_tuples()
        # phones (500, 8) dominate laptops (1000, 9)? No: 9 > 8, so both
        # survive; tablet filtered out by HAVING.
        assert len(rows) == 2


class TestGeneralSqlSemantics:
    def test_full_outer_join_using_coalesces_key(self, shop):
        rows = shop.sql("""
            SELECT id, units FROM products FULL JOIN stock USING (id)
            ORDER BY id
        """).to_tuples()
        ids = [r[0] for r in rows]
        assert ids == sorted(ids)
        assert all(i is not None for i in ids)
        by_id = dict(rows)
        assert by_id[3] is None      # product without stock
        assert by_id[1] == 3

    def test_case_when_in_projection(self, shop):
        rows = shop.sql("""
            SELECT id, CASE WHEN price < 600 THEN 'cheap'
                            ELSE 'pricey' END AS bucket
            FROM products ORDER BY id LIMIT 2
        """).to_tuples()
        assert rows == [(1, "pricey"), (2, "cheap")]

    def test_between_and_in(self, shop):
        rows = shop.sql(
            "SELECT id FROM products "
            "WHERE price BETWEEN 400 AND 1000 "
            "AND category IN ('phone', 'laptop') ORDER BY id").to_tuples()
        assert rows == [(1,), (2,), (3,), (5,)]

    def test_count_distinct(self, shop):
        rows = shop.sql(
            "SELECT count(DISTINCT category) AS n FROM products"
        ).to_tuples()
        assert rows == [(3,)]

    def test_avg_and_division(self, shop):
        rows = shop.sql(
            "SELECT category, avg(price) AS mean FROM products "
            "WHERE category = 'phone' GROUP BY category").to_tuples()
        assert rows == [("phone", 700.0)]

    def test_scalar_subquery_in_where(self, shop):
        rows = shop.sql("""
            SELECT id FROM products
            WHERE price = (SELECT min(price) AS m FROM products)
        """).to_tuples()
        assert rows == [(7,)]

    def test_order_by_nulls_placement(self, shop):
        shop.create_table(
            "maybe", [("v", INTEGER, True)], [(1,), (None,), (2,)])
        first = shop.sql(
            "SELECT v FROM maybe ORDER BY v ASC NULLS FIRST").to_tuples()
        assert first[0] == (None,)
        last = shop.sql(
            "SELECT v FROM maybe ORDER BY v ASC NULLS LAST").to_tuples()
        assert last[-1] == (None,)

    @pytest.mark.parametrize("columnar", (True, False))
    def test_order_by_double_with_nan_is_a_total_order(self, columnar):
        """Spark's rule: NaN equals NaN and is greater than every other
        number, so every input order sorts alike; NULLs still follow
        NULLS FIRST / LAST (by default first ascending, last descending)."""
        nan = float("nan")
        values = [3.0, nan, 1.0, nan, 2.0, 0.5, nan, 4.0, None]
        ascending = [0.5, 1.0, 2.0, 3.0, 4.0, "NaN", "NaN", "NaN"]
        expected = {
            "ASC": [None] + ascending,
            "ASC NULLS LAST": ascending + [None],
            "DESC": ascending[::-1] + [None],
            "DESC NULLS FIRST": [None] + ascending[::-1],
        }
        for seed in range(20):
            rows = [(v,) for v in values]
            random.Random(seed).shuffle(rows)
            session = connect(num_executors=3, columnar=columnar)
            session.create_table("t", [("x", DOUBLE, True)], rows)
            for order, want in expected.items():
                got = session.sql(
                    f"SELECT x FROM t ORDER BY x {order}").to_tuples()
                assert ["NaN" if v != v else v for (v,) in got] == want, \
                    (seed, order)


class TestNullLiteralAndDeclaredTypes:
    """A bare ``NULL`` takes the type of what it meets (Spark's
    NullType), and a CASE whose results do not share a type is an
    error, as in ``coalesce``, on both planes."""

    ROWS = [(1.5, 1), (None, 2), (2.5, None), (None, None)]

    @staticmethod
    def _session(columnar):
        session = connect(num_executors=2, columnar=columnar,
                          vectorized=columnar)
        session.create_table("t", [("a", DOUBLE, True), ("b", INTEGER, True)],
                             TestNullLiteralAndDeclaredTypes.ROWS)
        return session

    @pytest.mark.parametrize("columnar", (True, False), ids=("batch", "row"))
    def test_null_literal_meets_a_typed_argument(self, columnar):
        session = self._session(columnar)
        for sql, want in [
                ("SELECT coalesce(a, NULL) FROM t",
                 [(1.5,), (None,), (2.5,), (None,)]),
                ("SELECT ifnull(a, NULL) FROM t",
                 [(1.5,), (None,), (2.5,), (None,)]),
                ("SELECT coalesce(NULL, a, b) FROM t",
                 [(1.5,), (2.0,), (2.5,), (None,)]),
                ("SELECT ifnull(NULL, b) FROM t",
                 [(1,), (2,), (None,), (None,)]),
                ("SELECT CASE WHEN b > 1 THEN a ELSE NULL END FROM t",
                 [(None,), (None,), (None,), (None,)]),
                ("SELECT CASE WHEN b > 1 THEN NULL ELSE b END FROM t",
                 [(1,), (None,), (None,), (None,)]),
                ("SELECT b = NULL FROM t", [(None,)] * 4)]:
            result = session.sql(sql).run()
            assert list(map(repr, result.as_tuples())) == \
                list(map(repr, want)), sql
            assert result.context.summary()["fallbacks"] == {}
        plan = session.sql("SELECT ifnull(b, NULL) AS x, "
                           "coalesce(NULL, a) AS y FROM t").plan
        assert [a.dtype for a in session.analyze(plan).output] == \
            [INTEGER, DOUBLE]

    @pytest.mark.parametrize("columnar", (True, False), ids=("batch", "row"))
    def test_case_results_that_do_not_merge_are_an_error(self, columnar):
        session = self._session(columnar)
        for sql in ("SELECT CASE WHEN b > 1 THEN a ELSE 'z' END FROM t",
                    "SELECT CASE WHEN b > 1 THEN 'z' ELSE a END FROM t",
                    "SELECT CASE WHEN b > 1 THEN a WHEN b < 0 THEN 'z' "
                    "END FROM t"):
            with pytest.raises(AnalysisError, match="incompatible types"):
                session.sql(sql).run()
        with pytest.raises(AnalysisError, match="incompatible types"):
            session.sql("SELECT coalesce(a, 'z') FROM t").run()
        got = session.sql("SELECT CASE WHEN b > 1 THEN b ELSE a END "
                          "FROM t").to_tuples()
        assert list(map(repr, got)) == ["(1.5,)", "(2.0,)", "(2.5,)",
                                        "(None,)"]


class TestCorrelatedExists:
    """``[NOT] EXISTS`` ignores the subquery's select list: the
    correlated conjuncts pulled up into the join condition still read
    columns a narrow select list prunes."""

    DOMINATED = ("i.a <= o.a AND i.b <= o.b AND (i.a < o.a OR i.b < o.b)")

    @pytest.mark.parametrize("columnar", (True, False),
                             ids=("batch", "row"))
    @pytest.mark.parametrize("exists", ("EXISTS", "NOT EXISTS"))
    @pytest.mark.parametrize("select", ("*", "1", "i.id"))
    def test_select_list_does_not_matter(self, select, exists, columnar):
        rng = random.Random(7)
        rows = [(i, float(rng.randint(0, 9)), float(rng.randint(0, 9)))
                for i in range(40)]
        session = connect(num_executors=3, columnar=columnar,
                          vectorized=columnar)
        session.create_table(
            "t", [("id", INTEGER, False), ("a", DOUBLE, False),
                  ("b", DOUBLE, False)], rows)

        def ids(select_list):
            return session.sql(
                f"SELECT id FROM t AS o WHERE {exists} (SELECT "
                f"{select_list} FROM t AS i WHERE {self.DOMINATED}) "
                "ORDER BY id").to_tuples()

        got = ids(select)
        assert got == ids("*")
        if exists == "NOT EXISTS":
            assert got == session.sql(
                "SELECT id FROM t SKYLINE OF a MIN, b MIN "
                "ORDER BY id").to_tuples()
        else:
            assert 0 < len(got) < len(rows)
