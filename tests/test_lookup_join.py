"""Tests for lookup-to-LEFT-JOIN translation (server-side enrichment)."""

import pytest

from repro.core import VegaPlus
from repro.datagen import generate_flights
from repro.engine import Table, sqlast
from repro.sqlgen import Untranslatable, translate_transform
from repro.sqlgen.translate import LookupTable

AIRLINES = [
    {"iata": "AA", "name": "American"},
    {"iata": "DL", "name": "Delta"},
    {"iata": "UA", "name": "United"},
]

LOOKUP_SPEC = {
    "data": [
        {"name": "airlines", "url": "x://airlines"},
        {"name": "flights", "url": "x://flights"},
        {"name": "enriched", "source": "flights", "transform": [
            {"type": "lookup", "from": {"data": "airlines"},
             "key": "iata", "fields": ["carrier"],
             "values": ["name"], "as": ["airline"],
             "default": "(unknown)"},
            {"type": "aggregate", "groupby": ["airline"],
             "ops": ["count"], "as": ["n"]},
        ]},
    ],
    "marks": [
        {"type": "rect", "from": {"data": "enriched"},
         "encode": {"update": {"x": {"field": "airline"},
                               "y": {"field": "n"}}}},
    ],
}


class TestTranslator:
    def test_left_join_emitted(self):
        translation = translate_transform(
            "lookup",
            {"from_rows": LookupTable("airlines"), "key": "iata",
             "fields": ["carrier"], "values": ["name"], "as": ["airline"]},
            sqlast.TableRef("flights"), ["carrier", "dep_delay"], {},
        )
        sql = translation.select.to_sql()
        assert "LEFT JOIN" in sql
        assert '"airlines"' in sql
        assert translation.columns == ["carrier", "dep_delay", "airline"]

    def test_default_uses_match_test_not_value(self):
        translation = translate_transform(
            "lookup",
            {"from_rows": LookupTable("airlines",
                                      types=(("name", "str"),)),
             "key": "iata",
             "fields": ["carrier"], "values": ["name"],
             "as": ["airline"], "default": "?"},
            sqlast.TableRef("flights"), ["carrier"], {},
        )
        sql = translation.select.to_sql()
        assert "CASE WHEN" in sql and "IS NULL" in sql

    def test_default_type_mismatch_untranslatable(self):
        # A numeric default over a string value column would be silently
        # coerced by some backends (and crash others): pinned to client.
        with pytest.raises(Untranslatable):
            translate_transform(
                "lookup",
                {"from_rows": LookupTable("airlines",
                                          types=(("name", "str"),)),
                 "key": "iata",
                 "fields": ["carrier"], "values": ["name"],
                 "as": ["airline"], "default": 0.0},
                sqlast.TableRef("flights"), ["carrier"], {},
            )

    def test_default_without_type_info_untranslatable(self):
        # No column type info: the translator cannot prove the default's
        # type matches, so it conservatively refuses.
        with pytest.raises(Untranslatable):
            translate_transform(
                "lookup",
                {"from_rows": LookupTable("airlines"), "key": "iata",
                 "fields": ["carrier"], "values": ["name"],
                 "as": ["airline"], "default": "?"},
                sqlast.TableRef("flights"), ["carrier"], {},
            )

    def test_rows_secondary_untranslatable(self):
        with pytest.raises(Untranslatable):
            translate_transform(
                "lookup",
                {"from_rows": AIRLINES, "key": "iata",
                 "fields": ["carrier"], "values": ["name"]},
                sqlast.TableRef("flights"), ["carrier"], {},
            )

    def test_missing_values_untranslatable(self):
        with pytest.raises(Untranslatable):
            translate_transform(
                "lookup",
                {"from_rows": LookupTable("airlines"), "key": "iata",
                 "fields": ["carrier"]},
                sqlast.TableRef("flights"), ["carrier"], {},
            )


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def started(self):
        instance = VegaPlus(
            LOOKUP_SPEC,
            data={
                "flights": generate_flights(20000),
                "airlines": Table.from_rows(AIRLINES),
            },
            latency_ms=20,
        )
        return instance, instance.startup()

    @pytest.fixture(scope="class")
    def session(self, started):
        return started[0]

    def test_lookup_offloads(self, started):
        session, startup = started
        # lookup + aggregate both run on the server.
        assert session.plan.datasets["enriched"].max_cut == 2
        assert session.plan.datasets["enriched"].cut == 2
        sqls = [entry.sql for entry in startup.queries]
        assert any("LEFT JOIN" in sql for sql in sqls)

    def test_results_match_client_execution(self, session):
        hybrid = {
            row["airline"]: row["n"]
            for row in session.results("enriched")
        }
        baseline = session.run_client_only()
        client = {
            row["airline"]: row["n"]
            for row in baseline.datasets["enriched"]
        }
        assert hybrid == client

    def test_default_applied_to_unmatched(self, session):
        names = {row["airline"] for row in session.results("enriched")}
        assert "(unknown)" in names  # carriers beyond AA/DL/UA
        assert "American" in names

    def test_counts_total(self, session):
        assert sum(row["n"] for row in session.results("enriched")) == 20000


class TestDerivedSecondaryStaysClient:
    def test_transformed_secondary_not_offloaded(self):
        spec = {
            "data": [
                {"name": "airlines", "url": "x://a"},
                {"name": "majors", "source": "airlines", "transform": [
                    {"type": "filter", "expr": "datum.iata != 'UA'"},
                ]},
                {"name": "flights", "url": "x://f"},
                {"name": "enriched", "source": "flights", "transform": [
                    {"type": "lookup", "from": {"data": "majors"},
                     "key": "iata", "fields": ["carrier"],
                     "values": ["name"], "as": ["airline"]},
                ]},
            ],
            "marks": [
                {"type": "rect", "from": {"data": "enriched"},
                 "encode": {"update": {"x": {"field": "airline"}}}},
            ],
        }
        session = VegaPlus(
            spec,
            data={
                "flights": generate_flights(2000),
                "airlines": Table.from_rows(AIRLINES),
            },
        )
        session.startup()
        # The secondary has transforms -> lookup stays on the client.
        assert session.plan.datasets["enriched"].max_cut == 0
        rows = session.results("enriched")
        assert rows and "airline" in rows[0]
