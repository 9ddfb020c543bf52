"""Dictionary codes for VARCHAR columns.

A VARCHAR :class:`~repro.data.Column` carries one integer encoding of
its strings: ``codes``, in the narrowest unsigned dtype that fits,
index ``dictionary``, the sorted distinct *valid* values.  A code is
therefore the value's rank among the distinct values — exactly the
order ``np.unique`` gives — so grouping, DISTINCT, sorting and
statistics can work on small integers instead of comparing Python
strings.  Rows with ``valid == False`` hold code 0 and must never be
decoded.

The encoding is built once, by :func:`encode_strings` (one hash pass
plus a sort of the distinct values only), when a column enters the
engine catalog or, for a computed column, on first use.  ``mask``,
``take`` and ``slice`` carry it along; concatenation merges the
dictionaries with :func:`merge_dictionaries` and remaps only the codes,
so appending rows never re-encodes the rows already held.  A derived
column's dictionary may hold values none of its rows use any more;
:func:`dense_codes` compacts the codes actually present.
"""

import itertools

import numpy as np

__all__ = [
    "code_dtype",
    "dense_codes",
    "encode_strings",
    "merge_dictionaries",
]


def code_dtype(size):
    """The narrowest unsigned integer dtype holding codes ``[0, size)``."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if size <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def encode_strings(data, valid):
    """``(codes, dictionary)`` for an object array of strings.

    One dict pass assigns each row the position of its value's first
    occurrence; only the distinct values are then sorted, so the cost is
    one hash lookup per row plus ``O(k log k)`` comparisons for ``k``
    distinct values — never a comparison sort of every row.
    """
    all_valid = bool(valid.all())
    values = data if all_valid else data[valid]
    first_seen = {}
    positions = np.fromiter(
        map(first_seen.setdefault, values, itertools.count()),
        dtype=np.int64, count=len(values),
    )
    distinct = list(first_seen)
    order = sorted(range(len(distinct)), key=distinct.__getitem__)
    rank = np.empty(len(distinct), dtype=np.int64)
    rank[order] = np.arange(len(distinct))
    dtype = code_dtype(len(distinct))
    # Dict insertion order is first-occurrence order, so the distinct
    # values' first positions are increasing and searchsorted recovers
    # each row's insertion index.
    firsts = np.fromiter(first_seen.values(), dtype=np.int64,
                         count=len(distinct))
    valid_codes = rank[np.searchsorted(firsts, positions)].astype(dtype)
    if all_valid:
        codes = valid_codes
    else:
        codes = np.zeros(len(data), dtype=dtype)
        codes[valid] = valid_codes
    dictionary = np.empty(len(distinct), dtype=object)
    dictionary[:] = [distinct[i] for i in order]
    return codes, dictionary


def merge_dictionaries(first, second):
    """Merge two sorted dictionaries.

    Returns ``(union, first_remap, second_remap)``: ``union`` is sorted
    and distinct, and ``remap[code]`` is the union code of an old code
    (``None`` when the codes keep their values).  Locating the second
    dictionary in the first costs ``O(m log k)`` comparisons, so a small
    append against a large dictionary never touches all of it.
    """
    if first is second or len(second) == 0:
        return first, None, None
    size = len(first)
    positions = np.searchsorted(first, second)
    found = positions < size
    found[found] = first[positions[found]] == second[found]
    missing = ~found
    if not missing.any():
        return first, None, positions
    at = positions[missing]
    union = np.insert(first, at, second[missing])
    dtype = code_dtype(len(union))
    # Each old entry moves up by the number of new values inserted at or
    # before its position.
    shift = np.searchsorted(at, np.arange(size), side="right")
    first_remap = (np.arange(size) + shift).astype(dtype)
    second_remap = np.empty(len(second), dtype=dtype)
    second_remap[found] = first_remap[positions[found]]
    second_remap[missing] = at + np.arange(len(at))
    if not shift.any():
        first_remap = None
    return union, first_remap, second_remap


def dense_codes(codes, valid, size):
    """Compact dictionary codes to the ranks of the values present.

    Returns ``(dense, count)``: ``dense`` (int64) numbers the distinct
    valid codes ``0..count-1`` in dictionary order — the
    ``np.unique``-over-values order — and holds an arbitrary value at
    invalid rows.  A ``bincount`` + ``cumsum`` over the dictionary does
    it without a sort.
    """
    if size == 0:
        return np.zeros(len(codes), dtype=np.int64), 0
    present = np.bincount(codes[valid], minlength=size) > 0
    rank = np.cumsum(present, dtype=np.int64) - 1
    return rank[codes], int(rank[-1]) + 1
