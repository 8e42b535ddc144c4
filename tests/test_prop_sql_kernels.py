"""Differential property test: bulk SQL kernels vs the per-row walk.

The columnar kernels read whole column runs at once (one ``tolist()``,
one blob decode, a slice per prefix) and top-k materializes late.  Over
random tables and every query shape three answers must be equal: the
columnar engine's, the row-major engine's, and a plain-Python oracle
that evaluates the query over the original row tuples the way the
engine did before the bulk kernels (materialize every match, then
``list.sort(reverse=...)``, then slice).

One level down, the per-row reader loops the bulk methods replaced are
kept here as the oracle, written against the point accessors
``get``/``get_prefix`` that survive as the ``row()`` API: every bulk
reader method must return exactly what the old loop returns.
"""

import operator
from contextlib import ExitStack

from hypothesis import given, settings, strategies as st

from repro.config import DecaConfig, MB
from repro.sql import (
    Column,
    ColumnType,
    ColumnarTable,
    SqlEngine,
    TableSchema,
    groupby_agg,
    select,
    top_k,
)
from repro.sql.columnar import RowMajorTable

OPS = {">": operator.gt, ">=": operator.ge, "<": operator.lt,
       "<=": operator.le, "=": operator.eq, "!=": operator.ne}
PREFIXES = (None, 0, 1, 3, 64)
NUMERIC = (ColumnType.INT, ColumnType.LONG, ColumnType.DOUBLE)

# Narrow draws make duplicate keys, ties and multi-row groups; wide ones
# reach the type's limits and the whole of Unicode (st.text() spans
# every code point UTF-8 can encode: multi-byte and astral included).
_VALUES = {
    ColumnType.INT: st.integers(-3, 3) | st.integers(-2**31, 2**31 - 1),
    ColumnType.LONG: st.integers(-3, 3) | st.integers(-2**63, 2**63 - 1),
    ColumnType.DOUBLE: st.sampled_from([-1.5, 0.0, 0.25, 2.0])
    | st.floats(allow_nan=False, allow_infinity=False),
    ColumnType.STRING: st.text(alphabet="aé\U0001F600b", max_size=5)
    | st.text(max_size=8),
}


@st.composite
def tables(draw):
    """``(schema, rows)``: 2–5 columns with at least one numeric and one
    string column, 0…200 rows."""
    ctypes = draw(st.lists(st.sampled_from(list(_VALUES)), max_size=3))
    ctypes += [draw(st.sampled_from(NUMERIC)), ColumnType.STRING]
    ctypes = draw(st.permutations(ctypes))
    schema = TableSchema("t", [Column(f"c{i}", ctype)
                               for i, ctype in enumerate(ctypes)])
    rows = draw(st.lists(
        st.tuples(*(_VALUES[ctype] for ctype in ctypes)), max_size=200))
    return schema, rows


def draw_column(draw, schema, ctypes=tuple(_VALUES)):
    return draw(st.sampled_from(
        [i for i, c in enumerate(schema.columns) if c.ctype in ctypes]))


def draw_literal(draw, schema, rows, index):
    """A comparison literal: a value of the column, or a fresh draw."""
    fresh = _VALUES[schema.columns[index].ctype]
    if not rows:
        return draw(fresh)
    return draw(st.sampled_from([row[index] for row in rows]) | fresh)


def draw_where(draw, schema, rows):
    """``None`` or ``(column index, literal)``; the test loops the ops."""
    if draw(st.booleans()):
        return None
    index = draw_column(draw, schema)
    return index, draw_literal(draw, schema, rows, index)


def run_both(schema, rows, queries):
    """Each query's rows, asserted equal across the two layouts."""
    with ExitStack() as stack:
        engines = []
        for layout in ("columnar", "row"):
            engine = stack.enter_context(
                SqlEngine(DecaConfig(heap_bytes=64 * MB)))
            engine.register_table("t", schema, rows)
            engine.cache_table("t", layout=layout)
            assert engine.layout_of("t") == layout
            engines.append(engine)
        out = []
        for query in queries:
            columnar, row_major = (e.run(query).rows for e in engines)
            assert columnar == row_major
            out.append(columnar)
        return out


# -- the plain-Python oracle --------------------------------------------------

def oracle_scan(rows, projection, where=None, order_by=None,
                descending=False, limit=None):
    out = [tuple(row[i] for i in projection) for row in rows
           if where is None or OPS[where[1]](row[where[0]], where[2])]
    if order_by is not None:
        key_index = projection.index(order_by)
        out.sort(key=lambda row: row[key_index], reverse=descending)
    return out if limit is None else out[:limit]


def oracle_aggregate(rows, func, key_index, value_index, prefix):
    acc = {}
    for row in rows:
        key, value = row[key_index], row[value_index]
        if prefix is not None:
            key = key[:prefix]
        slot = acc.get(key)
        if slot is None:
            acc[key] = [value, 1, value, value]
        else:
            slot[0] += value
            slot[1] += 1
            slot[2] = min(slot[2], value)
            slot[3] = max(slot[3], value)
    pick = {"SUM": lambda s: s[0], "COUNT": lambda s: s[1],
            "AVG": lambda s: s[0] / s[1], "MIN": lambda s: s[2],
            "MAX": lambda s: s[3]}[func]
    return sorted((key, pick(slot)) for key, slot in acc.items())


# -- query shapes -------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_select_matches_oracle(data):
    schema, rows = data.draw(tables())
    names = [c.name for c in schema.columns]
    projection = data.draw(st.lists(
        st.sampled_from(range(len(names))), min_size=1, max_size=4))
    columns = [names[i] for i in projection]
    index = draw_column(data.draw, schema)
    literal = draw_literal(data.draw, schema, rows, index)
    queries = [select(columns, "t")]
    expected = [oracle_scan(rows, projection)]
    for op in OPS:
        queries.append(select(columns, "t",
                              where=(names[index], op, literal)))
        expected.append(oracle_scan(rows, projection,
                                    where=(index, op, literal)))
    assert run_both(schema, rows, queries) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_groupby_matches_oracle(data):
    schema, rows = data.draw(tables())
    names = [c.name for c in schema.columns]
    func = data.draw(st.sampled_from(["SUM", "COUNT", "AVG", "MIN", "MAX"]))
    key = draw_column(data.draw, schema)
    value = draw_column(data.draw, schema, NUMERIC)
    string_key = schema.columns[key].ctype is ColumnType.STRING
    prefixes = PREFIXES if string_key else (None,)
    queries = [groupby_agg("t", func, names[key], names[value],
                           key_prefix=prefix) for prefix in prefixes]
    expected = [oracle_aggregate(rows, func, key, value, prefix)
                for prefix in prefixes]
    assert run_both(schema, rows, queries) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_k_matches_oracle(data):
    schema, rows = data.draw(tables())
    names = [c.name for c in schema.columns]
    projection = data.draw(st.lists(
        st.sampled_from(range(len(names))), min_size=1, max_size=4,
        unique=True))
    columns = [names[i] for i in projection]
    order_by = data.draw(st.sampled_from(projection))
    where = draw_where(data.draw, schema, rows)
    op = data.draw(st.sampled_from(sorted(OPS)))
    queries, expected = [], []
    for descending in (False, True):
        for k in (0, 1, len(rows), len(rows) + 5):
            queries.append(top_k(
                columns, "t", order_by=names[order_by], k=k,
                descending=descending,
                where=None if where is None
                else (names[where[0]], op, where[1])))
            expected.append(oracle_scan(
                rows, projection,
                where=None if where is None else (where[0], op, where[1]),
                order_by=order_by, descending=descending, limit=k))
    assert run_both(schema, rows, queries) == expected


# -- reader level: the per-row loops the bulk methods replaced ---------------

def loop_values(reader):
    return [reader.get(row) for row in range(reader.count)]


def loop_prefix_values(reader, length):
    return [reader.get_prefix(row, length) for row in range(reader.count)]


def loop_select(reader, op, literal):
    return [row for row in range(reader.count)
            if op(reader.get(row), literal)]


def loop_gather(reader, rows):
    return [reader.get(row) for row in rows]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bulk_readers_match_per_row_loops(data):
    schema, rows = data.draw(tables())
    count = len(rows)
    picks = data.draw(st.lists(st.integers(0, count - 1), max_size=30)) \
        if count else []
    index = draw_column(data.draw, schema)
    column = schema.columns[index]
    literal = draw_literal(data.draw, schema, rows, index)
    for cls in (ColumnarTable, RowMajorTable):
        table = cls(schema, rows)
        reader = table.column(column.name)
        truth = [row[index] for row in rows]
        assert loop_values(reader) == truth
        assert list(reader.values()) == truth
        for name, op in OPS.items():
            assert reader.select(name, literal) \
                == loop_select(reader, op, literal)
        for selection in (range(count), list(range(count)), picks,
                          range(count // 2)):
            assert reader.gather(selection) \
                == loop_gather(reader, selection)
        if column.ctype is ColumnType.STRING:
            for length in PREFIXES[1:]:
                assert loop_prefix_values(reader, length) \
                    == [value[:length] for value in truth]
                assert reader.prefix_values(length) \
                    == loop_prefix_values(reader, length)
            if cls is ColumnarTable:
                assert list(table.string_view(index)) == truth
        assert table.gather(picks, [column.name]) \
            == [(value,) for value in loop_gather(reader, picks)]
        table.release()
