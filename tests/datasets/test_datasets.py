"""Dataset generators and workload descriptors."""

import pytest

from repro import connect
from repro.datasets import (AIRBNB_SKYLINE_DIMENSIONS,
                            MUSICBRAINZ_SKYLINE_DIMENSIONS,
                            STORE_SALES_SKYLINE_DIMENSIONS,
                            airbnb_workload, anticorrelated_rows,
                            correlated_rows, generate_airbnb,
                            generate_musicbrainz, generate_store_sales,
                            independent_rows, musicbrainz_workload,
                            store_sales_workload)


class TestGenericGenerators:
    def test_independent_deterministic(self):
        assert independent_rows(10, 3, seed=1) == \
            independent_rows(10, 3, seed=1)
        assert independent_rows(10, 3, seed=1) != \
            independent_rows(10, 3, seed=2)

    def test_shapes(self):
        rows = independent_rows(25, 4)
        assert len(rows) == 25
        assert all(len(r) == 4 for r in rows)

    def test_null_injection(self):
        rows = independent_rows(500, 2, null_probability=0.3)
        nulls = sum(1 for r in rows for v in r if v is None)
        assert 0.15 < nulls / 1000 < 0.45

    def test_correlated_smaller_skyline_than_anticorrelated(self):
        from repro.core import make_dimensions, skyline
        dims = make_dimensions([(0, "min"), (1, "min"), (2, "min")])
        correlated = skyline(correlated_rows(400, 3, seed=3), dims)
        anti = skyline(anticorrelated_rows(400, 3, seed=3), dims)
        assert len(correlated) < len(anti)


class TestAirbnb:
    def test_schema_matches_table1(self):
        wl = airbnb_workload(100)
        assert [c[0] for c in wl.columns] == [
            "id", "price", "accommodates", "bedrooms", "beds",
            "number_of_reviews", "review_scores_rating"]
        assert AIRBNB_SKYLINE_DIMENSIONS[0] == ("price", "min")
        assert len(AIRBNB_SKYLINE_DIMENSIONS) == 6

    def test_complete_variant_has_no_nulls(self):
        wl = airbnb_workload(300)
        assert all(v is not None for row in wl.rows for v in row)
        assert not wl.incomplete

    def test_incomplete_rate_roughly_one_third(self):
        raw = generate_airbnb(3000, incomplete=True)
        incomplete = sum(1 for row in raw if any(v is None for v in row))
        # Paper: 1,193,465 raw vs 820,698 complete -> ~31% incomplete.
        assert 0.2 < incomplete / len(raw) < 0.45

    def test_complete_is_filtered_subset_of_raw(self):
        complete = airbnb_workload(500, seed=9)
        raw = airbnb_workload(500, seed=9, incomplete=True)
        assert complete.num_rows < raw.num_rows
        raw_ids = {row[0] for row in raw.rows}
        assert all(row[0] in raw_ids for row in complete.rows)

    def test_price_correlates_with_capacity(self):
        rows = generate_airbnb(2000)
        small = [r[1] for r in rows if r[2] <= 2]
        large = [r[1] for r in rows if r[2] >= 6]
        assert sum(large) / len(large) > sum(small) / len(small)


class TestStoreSales:
    def test_schema_matches_table2(self):
        wl = store_sales_workload(100)
        assert [c[0] for c in wl.columns] == [
            "ss_item_sk", "ss_ticket_number", "ss_quantity",
            "ss_wholesale_cost", "ss_list_price", "ss_sales_price",
            "ss_ext_discount_amt", "ss_ext_sales_price"]
        assert STORE_SALES_SKYLINE_DIMENSIONS[0] == ("ss_quantity", "max")

    def test_pricing_chain_invariants(self):
        for row in generate_store_sales(500):
            (_, _, quantity, wholesale, list_price, sales_price,
             discount_amt, ext_sales) = row
            assert list_price >= wholesale
            assert sales_price <= list_price
            assert discount_amt == pytest.approx(
                quantity * (list_price - sales_price), abs=0.1)
            assert ext_sales == pytest.approx(
                quantity * sales_price, abs=0.1)

    def test_quantity_has_many_ties_at_max(self):
        rows = generate_store_sales(5000)
        at_max = sum(1 for r in rows if r[2] == 100)
        assert at_max > 10  # the 1-dim reference pain point

    def test_incomplete_same_size_as_complete(self):
        complete = store_sales_workload(400)
        incomplete = store_sales_workload(400, incomplete=True)
        assert complete.num_rows == incomplete.num_rows
        assert incomplete.incomplete

    def test_keys_never_null(self):
        for row in generate_store_sales(500, incomplete=True):
            assert row[0] is not None and row[1] is not None


class TestWorkloadSql:
    def test_skyline_sql_uses_dimension_prefix(self):
        wl = airbnb_workload(50)
        sql = wl.skyline_sql(2)
        assert "SKYLINE OF price MIN, accommodates MAX" in sql

    def test_skyline_sql_complete_keyword(self):
        wl = airbnb_workload(50)
        assert "SKYLINE OF COMPLETE" in wl.skyline_sql(
            1, complete_keyword=True)

    def test_reference_sql_matches_listing4(self):
        wl = airbnb_workload(50)
        sql = wl.reference_sql(2)
        assert "NOT EXISTS" in sql
        assert "i.price <= o.price" in sql
        assert "i.accommodates >= o.accommodates" in sql
        assert "i.price < o.price" in sql

    def test_dimension_count_validated(self):
        wl = airbnb_workload(50)
        with pytest.raises(ValueError):
            wl.skyline_sql(7)
        with pytest.raises(ValueError):
            wl.dimensions(0)

    def test_queries_parse_and_run(self):
        session = connect(num_executors=2)
        wl = store_sales_workload(120)
        wl.register(session)
        sky = session.sql(wl.skyline_sql(3)).to_tuples()
        ref = session.sql(wl.reference_sql(3)).to_tuples()
        assert sorted(sky) == sorted(ref)


class TestMusicBrainz:
    def test_tables_generated(self):
        tables = generate_musicbrainz(200)
        assert set(tables) == {"recording_complete",
                               "recording_incomplete", "recording_meta",
                               "track"}
        assert len(tables["recording_complete"][1]) == 200
        assert len(tables["recording_meta"][1]) == 200

    def test_every_recording_has_a_track(self):
        tables = generate_musicbrainz(200)
        tracked = {row[0] for row in tables["track"][1]}
        assert tracked == {row[0]
                           for row in tables["recording_complete"][1]}

    def test_about_a_third_rated(self):
        tables = generate_musicbrainz(3000)
        rated = sum(1 for row in tables["recording_meta"][1]
                    if row[1] is not None)
        assert 0.25 < rated / 3000 < 0.42

    def test_workload_queries_run_and_agree(self):
        session = connect(num_executors=2)
        wl = musicbrainz_workload(150)
        wl.register(session)
        sky = session.sql(wl.skyline_sql(3)).to_tuples()
        ref = session.sql(wl.reference_sql(3)).to_tuples()
        assert sorted(sky) == sorted(ref)
        assert wl.skyline_dimensions == MUSICBRAINZ_SKYLINE_DIMENSIONS

    def test_incomplete_workload_runs(self):
        session = connect(num_executors=2)
        wl = musicbrainz_workload(150, incomplete=True)
        wl.register(session)
        rows = session.sql(wl.skyline_sql(4)).collect()
        assert rows
