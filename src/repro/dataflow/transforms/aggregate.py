"""Group-by aggregation transforms (Vega `aggregate` and `joinaggregate`)."""

import numpy as np

from repro.data import Column, ColumnBatch, SQLType
from repro.data.grouping import grouped_counts, grouped_minmax, grouped_sums
from repro.dataflow.transforms.aggops import (
    aggregate_op,
    default_output_name,
    group_rows,
)
from repro.dataflow.transforms.base import (
    Transform,
    TransformError,
    register_transform,
)
from repro.dataflow.vectorized import Unvectorizable


def _measures(params):
    """Normalize ops/fields/as into (op, field, output_name) triples."""
    ops = params.get("ops") or ["count"]
    fields = params.get("fields") or [None] * len(ops)
    names = params.get("as") or [None] * len(ops)
    if len(fields) != len(ops):
        raise TransformError("aggregate 'fields' must match 'ops' length")
    if len(names) < len(ops):
        names = list(names) + [None] * (len(ops) - len(names))
    triples = []
    for op, field, name in zip(ops, fields, names):
        if name is None:
            name = default_output_name(op, field)
        triples.append((op, field, name))
    return triples


def _apply_measures(rows, triples):
    out = {}
    for op, field, name in triples:
        fn = aggregate_op(op)
        if field is None:
            values = rows
        else:
            values = [row.get(field) for row in rows]
        out[name] = fn(values)
    return out


def _effective_valid(column):
    """Slots holding a real value for grouping/aggregation purposes: the
    validity mask, minus NaN for DOUBLE (``group_key`` folds NaN into
    None and ``_valid``/``_numbers`` drop it)."""
    if column.type is SQLType.DOUBLE:
        with np.errstate(invalid="ignore"):
            return column.valid & ~np.isnan(column.data)
    return column.valid


def _value_codes(batch, field):
    """(codes, cardinality, column) for one field: dense non-negative
    integer codes per distinct value, -1 for NULL."""
    count = batch.num_rows
    column = batch.columns.get(field)
    if column is None:
        return np.full(count, -1, dtype=np.int64), 0, None
    valid = _effective_valid(column)
    if column.type is SQLType.VARCHAR:
        codes, cardinality = column.dense_codes()
        return np.where(valid, codes, -1), cardinality, column
    data = column.data
    if column.type is SQLType.DOUBLE:
        # neutralize masked slots so unique() never sees NaN
        data = np.where(valid, data, 0.0)
    elif column.type is SQLType.BOOLEAN:
        data = data.astype(np.int8)
    _, inverse = np.unique(data, return_inverse=True)
    codes = np.where(valid, inverse.astype(np.int64), -1)
    cardinality = int(inverse.max()) + 1 if count else 0
    return codes, cardinality, column


def _group_ids(batch, groupby):
    """First-seen-order group assignment over the groupby columns.

    Returns (gid, n_groups, first_rows): a group index per row, the group
    count, and the row index of each group's first member (in output
    order).  With no groupby there is a single global group — present
    even for an empty batch, matching the row path's one-row output.
    """
    count = batch.num_rows
    if not groupby:
        return (np.zeros(count, dtype=np.int64), 1,
                np.zeros(0, dtype=np.int64))
    combined = np.zeros(count, dtype=np.int64)
    for field in groupby:
        codes, cardinality, _ = _value_codes(batch, field)
        combined = combined * (cardinality + 1) + (codes + 1)
    uniq, first_idx, inverse = np.unique(
        combined, return_index=True, return_inverse=True)
    order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return rank[inverse], len(uniq), first_idx[order]


def _key_column(batch, field, first_rows):
    """The output column for one groupby field: each group's key value,
    taken from its first row (NaN folded to NULL like ``group_key``)."""
    column = batch.columns.get(field)
    if column is None:
        return Column.nulls(SQLType.DOUBLE, len(first_rows))
    return Column(
        column.type, column.data, _effective_valid(column)).take(first_rows)


def _grouped_distinct(data, gid, n_groups, valid):
    """Per-group count of distinct valid values."""
    selected = np.flatnonzero(valid)
    if selected.size == 0:
        return np.zeros(n_groups, dtype=np.float64)
    _, codes = np.unique(data[selected], return_inverse=True)
    cardinality = int(codes.max()) + 1
    pairs = gid[selected].astype(np.int64) * cardinality + codes
    distinct_pairs = np.unique(pairs)
    return np.bincount(
        distinct_pairs // cardinality, minlength=n_groups
    ).astype(np.float64)


def _measure_column(batch, op, field, gid, n_groups, sizes):
    """One aggregate measure as an output column, replicating the
    semantics of the row-path ``op_*`` functions exactly."""
    if field is None:
        # the row path aggregates over the row dicts themselves; only
        # count is meaningful there
        if op != "count":
            raise Unvectorizable("field-less op {!r}".format(op))
        return Column(SQLType.DOUBLE, sizes)
    if op == "count":
        return Column(SQLType.DOUBLE, sizes)
    column = batch.columns.get(field)
    if column is None:
        valid = np.zeros(batch.num_rows, dtype=np.bool_)
        data = np.zeros(batch.num_rows, dtype=np.float64)
        sql_type = SQLType.DOUBLE
    else:
        valid = _effective_valid(column)
        data = column.data
        sql_type = column.type
    valid_counts = grouped_counts(gid, n_groups, valid)
    if op == "valid":
        return Column(SQLType.DOUBLE, valid_counts)
    if op == "missing":
        return Column(SQLType.DOUBLE, sizes - valid_counts)
    if op == "distinct":
        return Column(
            SQLType.DOUBLE, _grouped_distinct(data, gid, n_groups, valid))
    # numeric slots: _numbers() keeps numbers and booleans, drops strings
    if sql_type is SQLType.VARCHAR:
        numeric_valid = np.zeros(len(valid), dtype=np.bool_)
        numeric_data = np.zeros(len(valid), dtype=np.float64)
    else:
        numeric_valid = valid
        numeric_data = data.astype(np.float64) \
            if sql_type is SQLType.BOOLEAN else data
    if op == "sum":
        return Column(SQLType.DOUBLE,
                      grouped_sums(gid, n_groups, numeric_data, numeric_valid))
    if op in ("mean", "average"):
        counts = grouped_counts(gid, n_groups, numeric_valid)
        sums = grouped_sums(gid, n_groups, numeric_data, numeric_valid)
        present = counts > 0
        means = np.where(present, sums / np.maximum(counts, 1), 0.0)
        return Column(SQLType.DOUBLE, means, present)
    if op in ("min", "max"):
        if sql_type is SQLType.VARCHAR:
            # keep the row path's string comparison semantics
            raise Unvectorizable("string min/max")
        reducer = np.minimum if op == "min" else np.maximum
        if sql_type is SQLType.BOOLEAN:
            out_data, out_valid = grouped_minmax(
                data.astype(np.int8), gid, n_groups, valid, reducer)
            return Column(
                SQLType.BOOLEAN, out_data.astype(np.bool_), out_valid)
        out_data, out_valid = grouped_minmax(
            data, gid, n_groups, valid, reducer)
        return Column(SQLType.DOUBLE, out_data, out_valid)
    # variance/stdev/median/quantiles: fall back to the row path
    raise Unvectorizable("aggregate op {!r}".format(op))


@register_transform("aggregate")
class AggregateTransform(Transform):
    """Group rows and compute summary measures (Vega `aggregate`).

    ``cross=True`` is not supported (the demo scenarios do not use it);
    ``drop=False`` (keeping empty groups) requires `cross` and is likewise
    out of scope.
    """

    def transform(self, rows, params, signals):
        groupby = params.get("groupby") or []
        triples = _measures(params)
        order, groups = group_rows(rows, groupby)
        out = []
        for key in order:
            members = groups[key]
            result = dict(zip(groupby, key))
            result.update(_apply_measures(members, triples))
            out.append(result)
        if not groupby and not out:
            # Global aggregate over empty input still yields one row.
            out.append(_apply_measures([], triples))
        return out

    def transform_batch(self, batch, params, signals):
        groupby = params.get("groupby") or []
        triples = _measures(params)
        gid, n_groups, first_rows = _group_ids(batch, groupby)
        sizes = np.bincount(gid, minlength=n_groups).astype(np.float64)
        out = ColumnBatch()
        for field in groupby:
            out.set_column(field, _key_column(batch, field, first_rows))
        for op, field, name in triples:
            out.set_column(
                name, _measure_column(batch, op, field, gid, n_groups, sizes))
        return out


@register_transform("joinaggregate")
class JoinAggregateTransform(Transform):
    """Compute group measures and join them back onto each row."""

    def transform(self, rows, params, signals):
        groupby = params.get("groupby") or []
        triples = _measures(params)
        order, groups = group_rows(rows, groupby)
        measures = {
            key: _apply_measures(groups[key], triples) for key in order
        }
        out = []
        for row in rows:
            key = tuple(row.get(field) for field in groupby)
            derived = dict(row)
            derived.update(measures[key])
            out.append(derived)
        return out
