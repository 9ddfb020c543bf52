"""Dictionary-coded VARCHAR columns.

The contract: a VARCHAR column's codes are the ranks of its values among
the sorted distinct valid values, so every consumer that used to sort
the strings (``factorize_column``, ``compute_stats``, the client
aggregate) gets bit-identical answers from the codes.  The references
below are the ``np.unique`` implementations the codes replaced.
"""

import numpy as np
import pytest

from repro.core import VegaPlus
from repro.core.session import HISTORY_LIMIT
from repro.data import Column, ColumnBatch, SQLType
from repro.data.batch import concat_columns
from repro.data.chunked import consolidation_count
from repro.data.dictcode import code_dtype, merge_dictionaries
from repro.datagen import generate_flights
from repro.dataflow.transforms.aggregate import _value_codes
from repro.engine import catalog as catalog_module
from repro.engine.catalog import compute_stats
from repro.engine.database import Database
from repro.engine.executor import factorize_column
from repro.spec import flights_histogram_spec

#: includes the NULL placeholder "", composed vs decomposed accents and
#: non-Latin scripts, so order follows code points like ``np.unique``
POOL = ["", " ", "a", "ab", "B", "\u00e9", "e\u0301", "\u65e5\u672c",
        "\U0001f600", "zz", "Z", "\x00"]


def reference_factorize(column):
    """``factorize_column`` as it was: ``np.unique`` over the strings."""
    if len(column) == 0:
        return np.zeros(0, dtype=np.int64), 0
    valid_values = column.data[column.valid]
    if len(valid_values) == 0:
        return np.zeros(len(column), dtype=np.int64), 1
    uniques = np.unique(valid_values)
    codes = np.searchsorted(uniques, column.data)
    codes = np.clip(codes, 0, len(uniques) - 1).astype(np.int64)
    codes = np.where(column.valid, codes, np.int64(len(uniques)))
    count = len(uniques) + (0 if column.valid.all() else 1)
    return codes, count


def reference_distinct(column, sample_rows=100_000):
    """``compute_stats``'s distinct estimate as it was."""
    valid_data = column.data[column.valid]
    if len(valid_data) > sample_rows:
        sample = valid_data[:sample_rows]
        scale = len(valid_data) / sample_rows
        return int(min(len(valid_data), len(np.unique(sample)) * scale**0.5))
    return int(len(np.unique(valid_data))) if len(valid_data) else 0


def reference_avg_width(column, sample_rows=100_000):
    valid_data = column.data[column.valid]
    if not len(valid_data):
        return 0.0
    sample = valid_data[:sample_rows]
    return float(sum(len(value) for value in sample) / len(sample))


def random_column(rng, rows, pool=POOL, null_rate=0.2):
    values = [pool[i] for i in rng.integers(0, len(pool), size=rows)]
    valid = rng.random(rows) >= null_rate
    data = np.empty(rows, dtype=object)
    data[:] = [value if ok else "" for value, ok in zip(values, valid)]
    return Column(SQLType.VARCHAR, data, valid)


def assert_factorize_identical(column):
    codes, count = factorize_column(column)
    expected_codes, expected_count = reference_factorize(column)
    assert codes.dtype == expected_codes.dtype
    assert np.array_equal(codes, expected_codes)
    assert count == expected_count


def derived_columns(column, rng):
    """The column itself plus mask/take/slice/concat derivations of its
    encoded form, each with and without a carried encoding."""
    encoded = Column(SQLType.VARCHAR, column.data, column.valid)
    encoded.string_codes()
    n = len(column)
    keep = rng.random(n) < 0.5
    order = rng.permutation(n)
    other = random_column(rng, 37, pool=POOL[3:] + ["new", "ü"])
    out = [column, encoded]
    for base in (column, encoded):
        out += [
            base.mask(keep),
            base.take(order),
            base.take(order[: n // 3]),
            base.slice(n // 4, n // 2),
            base.slice(3, 3),
            concat_columns([base, other]),
            concat_columns([other, base]),
            concat_columns([base.mask(keep), base.take(order)]),
            concat_columns([base, Column.nulls(SQLType.VARCHAR, 5)]),
            concat_columns([Column.nulls(SQLType.VARCHAR, 5), base]),
        ]
    other.string_codes()
    out.append(concat_columns([encoded, other]))
    out.append(concat_columns([encoded, other]).mask(
        rng.random(n + 37) < 0.3))
    return out


class TestFactorizeEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_columns(self, seed):
        rng = np.random.default_rng(seed)
        column = random_column(rng, int(rng.integers(1, 400)),
                               null_rate=float(rng.random() * 0.6))
        for derived in derived_columns(column, rng):
            assert_factorize_identical(derived)

    @pytest.mark.parametrize("values, valid", [
        ([], []),
        (["x"], [True]),
        (["only"] * 9, [True] * 9),
        ([""] * 6, [False] * 6),
        (["", "", "a", ""], [True, False, True, False]),
        (["", "b", ""], [True, True, True]),
        (["\u00e9", "e\u0301", "\u00e9", "E"], [True] * 4),
    ])
    def test_edge_columns(self, values, valid):
        data = np.empty(len(values), dtype=object)
        data[:] = values
        column = Column(SQLType.VARCHAR, data, np.array(valid, dtype=bool))
        rng = np.random.default_rng(0)
        for derived in derived_columns(column, rng):
            assert_factorize_identical(derived)

    def test_few_rows_of_a_large_dictionary(self):
        # Slices and filters far smaller than their dictionary.
        rng = np.random.default_rng(11)
        pool = ["k{:05d}".format(i) for i in range(3000)]
        column = random_column(rng, 6000, pool=pool, null_rate=0.1)
        column.string_codes()
        for derived in (column.slice(100, 140), column.take([5, 9, 5, 0]),
                        column.mask(rng.random(6000) < 0.01)):
            assert_factorize_identical(derived)

    def test_real_empty_string_is_not_null(self):
        column = Column.from_values(["", None, "a", "", None])
        codes, count = factorize_column(column)
        assert list(codes) == [0, 2, 1, 0, 2]
        assert count == 3

    def test_after_append_data(self):
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(3000)},
            latency_ms=5,
        )
        session.startup()
        session.append_data("flights", [
            {"carrier": "ZZ-new", "distance": 500.0},
            {"carrier": None, "distance": 700.0},
            {"carrier": "AA", "distance": 900.0},
        ])
        table = session.backend.db.table("flights")
        for name in ("carrier", "origin", "dest"):
            column = table.column(name)
            assert column.encoding is not None
            assert_factorize_identical(column)


class TestEncoding:
    def test_codes_are_narrow_and_sorted_ranks(self):
        column = generate_flights(2000).column("carrier")
        codes, dictionary = column.string_codes()
        assert codes.dtype == np.uint8
        assert list(dictionary) == sorted(set(column.data[column.valid]))
        assert np.array_equal(dictionary[codes][column.valid],
                              column.data[column.valid])

    def test_code_dtype_boundaries(self):
        assert code_dtype(0) == np.uint8
        assert code_dtype(256) == np.uint8
        assert code_dtype(257) == np.uint16
        assert code_dtype(65537) == np.uint32

    @pytest.mark.parametrize("seed", range(6))
    def test_merge_dictionaries(self, seed):
        rng = np.random.default_rng(seed)
        words = ["w{:03d}".format(i) for i in range(60)]
        first = sorted(set(rng.choice(words, size=rng.integers(0, 30))))
        second = sorted(set(rng.choice(words, size=rng.integers(0, 30))))
        first = np.array(first, dtype=object)
        second = np.array(second, dtype=object)
        union, first_remap, second_remap = merge_dictionaries(first, second)
        assert list(union) == sorted(set(first) | set(second))
        for values, remap in ((first, first_remap), (second, second_remap)):
            mapped = np.arange(len(values)) if remap is None else remap
            assert list(union[mapped]) == list(values)

    def test_catalog_encodes_once_and_appends_encode_only_new_rows(
            self, monkeypatch):
        import repro.data.batch as batch_module

        encoded_rows = []
        real = batch_module.encode_strings

        def spy(data, valid):
            if len(data):  # the planner's zero-row probe tables
                encoded_rows.append(len(data))
            return real(data, valid)

        monkeypatch.setattr(batch_module, "encode_strings", spy)
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(3000)},
            latency_ms=5,
        )
        assert encoded_rows == [3000, 3000, 3000]  # carrier, origin, dest
        session.startup()
        session.interact("maxbins", 25)
        assert encoded_rows == [3000, 3000, 3000]
        session.append_data("flights", [{"carrier": "AA"}, {"carrier": "QQ"}])
        assert encoded_rows == [3000] * 3 + [2] * 3

    def test_catalog_leaves_chunked_columns_alone(self):
        table = generate_flights(500).rechunk(64)
        before = consolidation_count()
        Database().load_table("flights", table)
        assert consolidation_count() == before
        assert table.column("carrier").encoding is None


def _spy_unique(monkeypatch):
    dtypes = []
    real = np.unique

    def spy(values, *args, **kwargs):
        dtypes.append(np.asarray(values).dtype)
        return real(values, *args, **kwargs)

    monkeypatch.setattr(np, "unique", spy)
    return dtypes


class TestNoStringSorts:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_filtered_group_by_over_catalog_table(self, monkeypatch,
                                                  parallelism):
        db = Database(parallelism=parallelism, morsel_rows=1000)
        db.load_table("flights", generate_flights(5000))
        dtypes = _spy_unique(monkeypatch)
        result = db.execute(
            "SELECT carrier, COUNT(*) AS n FROM flights "
            "WHERE distance < 1500 GROUP BY carrier ORDER BY carrier"
        )
        db.execute("SELECT DISTINCT origin FROM flights WHERE month > 6")
        assert result.num_rows > 1
        assert np.dtype(object) not in dtypes

    def test_stats_and_client_codes(self, monkeypatch):
        batch = generate_flights(5000)
        Database().load_table("flights", batch)
        dtypes = _spy_unique(monkeypatch)
        stats = compute_stats(batch)
        codes, cardinality, _ = _value_codes(batch, "carrier")
        assert np.dtype(object) not in dtypes
        assert stats.columns["carrier"].distinct_estimate == cardinality
        assert set(codes) == set(range(cardinality))


class TestStatsEquivalence:
    @pytest.mark.parametrize("rows, distinct", [
        (0, 1), (50, 7), (5000, 300), (130_000, 40), (130_000, 20_000),
    ])
    @pytest.mark.parametrize("encoded", [False, True])
    def test_distinct_and_width(self, rows, distinct, encoded):
        rng = np.random.default_rng(rows + distinct)
        pool = ["s{}é".format(i) * (i % 3 + 1) for i in range(distinct)]
        column = random_column(rng, rows, pool=pool, null_rate=0.1)
        if encoded:
            column.string_codes()
        stats = compute_stats(ColumnBatch({"c": column})).columns["c"]
        assert stats.distinct_estimate == reference_distinct(column)
        assert stats.avg_width == reference_avg_width(column)
        assert stats.null_count == int((~column.valid).sum())
        # Profiling an unencoded column encodes only its sample and
        # keeps no codes on it.
        assert (column.encoding is not None) == encoded

    def test_all_null_column(self):
        column = Column.nulls(SQLType.VARCHAR, 10)
        stats = compute_stats(ColumnBatch({"c": column})).columns["c"]
        assert stats.distinct_estimate == 0
        assert stats.avg_width == 0.0


class TestSessionBounds:
    def test_second_session_scans_no_column(self, monkeypatch):
        table = generate_flights(2000)
        first = VegaPlus(flights_histogram_spec(), data={"flights": table},
                         latency_ms=5)
        scans = []
        real = catalog_module.column_stats

        def spy(column):
            scans.append(column)
            return real(column)

        monkeypatch.setattr(catalog_module, "column_stats", spy)
        second = VegaPlus(flights_histogram_spec(), data={"flights": table},
                          backend=first.backend, latency_ms=5)
        assert scans == []
        assert second.table_stats["flights"].columns == \
            first.table_stats["flights"].columns
        # An append builds new column objects, so their stats are new.
        second.startup()
        second.append_data("flights", [{"carrier": "AA", "distance": 10.0}])
        assert len(scans) == len(table.column_names)
        assert second.table_stats["flights"].row_count == 2001

    def test_history_is_bounded(self):
        session = VegaPlus(
            flights_histogram_spec(),
            data={"flights": generate_flights(500)},
            latency_ms=5,
        )
        startup = session.startup()
        for step in range(500):
            session.interact("maxbins", 10 + step % 20)
        assert len(session.history) == HISTORY_LIMIT
        assert session.stats()["runs"] == 501
        assert session.last_result() is session.history[-1]
        assert startup not in session.history
