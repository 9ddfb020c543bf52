"""Catalog: named tables plus per-table statistics.

Statistics feed two consumers: the engine's own EXPLAIN output, and the
VegaPlus partition planner's cardinality/transfer-size estimates
(:mod:`repro.planner.cardinality`).
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.data.dictcode import encode_strings
from repro.engine.errors import CatalogError
from repro.engine.table import Table
from repro.engine.types import SQLType

_DISTINCT_SAMPLE = 100_000


@dataclass
class ColumnStats:
    """Summary statistics for one column."""

    type: SQLType
    null_count: int
    distinct_estimate: int
    min_value: Optional[float] = None
    max_value: Optional[float] = None
    avg_width: float = 8.0


@dataclass
class TableStats:
    """Summary statistics for one table."""

    row_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def row_width(self):
        """Estimated bytes per row across all columns."""
        return sum(stats.avg_width for stats in self.columns.values())


def compute_stats(table):
    """TableStats for ``table``.  Each column is scanned once in its
    lifetime: its :class:`ColumnStats` are kept on the column, so a
    second session over the same loaded table scans nothing."""
    stats = TableStats(row_count=table.num_rows)
    for name, column in table.columns.items():
        if column.stats is None:
            column.stats = column_stats(column)
        stats.columns[name] = column.stats
    return stats


def column_stats(column):
    """Scan one column (sampling distincts on huge columns)."""
    valid = column.valid
    if column.type is SQLType.VARCHAR:
        # Read the codes the catalog built.  A column without them has
        # only its sample encoded, and keeps no codes.
        if column.encoding is None:
            values = column.data[valid]
            valid_count = len(values)
            values = values[:_DISTINCT_SAMPLE]
            sample, dictionary = encode_strings(
                values, np.ones(len(values), dtype=np.bool_))
        else:
            codes, dictionary = column.encoding
            valid_codes = codes[valid]
            valid_count = len(valid_codes)
            sample = valid_codes[:_DISTINCT_SAMPLE]
        sample_distinct = np.count_nonzero(
            np.bincount(sample, minlength=len(dictionary)))
    else:
        valid_data = column.data[valid]
        valid_count = len(valid_data)
        sample_distinct = len(np.unique(valid_data[:_DISTINCT_SAMPLE]))
    if valid_count > _DISTINCT_SAMPLE:
        scale = valid_count / _DISTINCT_SAMPLE
        distinct = int(min(valid_count, sample_distinct * scale**0.5))
    else:
        distinct = int(sample_distinct)
    min_value = max_value = None
    avg_width = 8.0
    if column.type is SQLType.DOUBLE and valid_count:
        min_value = float(valid_data.min())
        max_value = float(valid_data.max())
    elif column.type is SQLType.VARCHAR:
        if valid_count:
            lengths = np.fromiter(map(len, dictionary), dtype=np.int64,
                                  count=len(dictionary))
            avg_width = float(int(lengths[sample].sum()) / len(sample))
        else:
            avg_width = 0.0
    elif column.type is SQLType.BOOLEAN:
        avg_width = 1.0
    return ColumnStats(
        type=column.type,
        null_count=column.null_count(),
        distinct_estimate=distinct,
        min_value=min_value,
        max_value=max_value,
        avg_width=avg_width,
    )


class Catalog:
    """Named tables with lazily computed statistics."""

    def __init__(self):
        self._tables = {}
        self._stats = {}

    def create(self, name, table, replace=False):
        if name in self._tables and not replace:
            raise CatalogError("table {!r} already exists".format(name))
        if not isinstance(table, Table):
            raise CatalogError("expected a Table, got {!r}".format(type(table)))
        # Encode strings once here, not per query.  Chunked columns stay
        # as they are: encoding them would consolidate their chunks.
        for column in table.columns.values():
            if column.type is SQLType.VARCHAR and not column.is_chunked:
                column.string_codes()
        self._tables[name] = table
        self._stats.pop(name, None)

    def drop(self, name):
        if name not in self._tables:
            raise CatalogError("unknown table {!r}".format(name))
        del self._tables[name]
        self._stats.pop(name, None)

    def get(self, name):
        if name not in self._tables:
            raise CatalogError("unknown table {!r}".format(name))
        return self._tables[name]

    def has(self, name):
        return name in self._tables

    def names(self):
        return sorted(self._tables)

    def stats(self, name):
        if name not in self._stats:
            self._stats[name] = compute_stats(self.get(name))
        return self._stats[name]

    def invalidate_stats(self, name):
        self._stats.pop(name, None)
