"""Property test: ``TableSchema.validate_rows`` against the per-row loop.

The cache build checks a relation a column at a time (one C-level
``isinstance`` pass per column, one ``len`` pass for the arity) and runs
the per-row loop only when a pass fails.  The loop is the oracle here:
on tables mixing every column type with the values a type refuses —
short and long rows, ``bool`` in INT/LONG, ``int`` or ``bytes`` in
STRING, ``str`` in DOUBLE, a row with no length at all — both must
accept exactly the same tables and raise the same exception with the
same message.
"""

from hypothesis import given, settings, strategies as st

from repro.sql import Column, ColumnType, TableSchema

#: A value of every kind some column type accepts or refuses.
_ANY = st.sampled_from([
    0, -7, 2**40, True, False, 1.5, -0.0, "", "ab", "é", b"", b"\x01",
    bytearray(b"x"), None,
])
_GOOD = {
    ColumnType.INT: st.integers(-2**31, 2**31 - 1),
    ColumnType.LONG: st.integers(-2**63, 2**63 - 1),
    ColumnType.DOUBLE: st.floats(allow_nan=False) | st.integers(-5, 5),
    ColumnType.STRING: st.text(max_size=4),
    ColumnType.OPAQUE: st.binary(max_size=4),
}


def _loop(schema, rows):
    """What the per-row loop raises, as ``(type, message)``, or None."""
    try:
        for row in rows:
            schema.validate_row(row)
    except Exception as exc:   # the oracle records whatever it raised
        return type(exc), str(exc)
    return None


def _bulk(schema, rows):
    try:
        schema.validate_rows(rows)
    except Exception as exc:   # compared with the oracle's, not handled
        return type(exc), str(exc)
    return None


@st.composite
def tables(draw):
    """``(schema, rows)``: 1–4 columns of any type, 0…25 rows.  Each
    table draws how often a cell is any value instead of one of its
    column's type, and how often a row is a cell short or long, a list
    or not a row at all — either rate may be zero, so a single refused
    value is not always hidden behind a malformed row."""
    ctypes = draw(st.lists(st.sampled_from(list(_GOOD)), min_size=1,
                           max_size=4))
    schema = TableSchema("t", [Column(f"c{i}", ctype)
                               for i, ctype in enumerate(ctypes)])
    wrong = draw(st.sampled_from([0.0, 0.02, 0.1, 0.3]))
    malformed = draw(st.sampled_from([0.0, 0.0, 0.05, 0.2]))
    rows = []
    for _ in range(draw(st.integers(0, 25))):
        row = [draw(_ANY) if draw(st.floats(0.0, 1.0)) < wrong
               else draw(_GOOD[ctype]) for ctype in ctypes]
        shape = "tuple"
        if draw(st.floats(0.0, 1.0)) < malformed:
            shape = draw(st.sampled_from(["list", "short", "long", "none"]))
        if shape == "short":
            row = row[:-1]
        elif shape == "long":
            row = row + [draw(_ANY)]
        rows.append(None if shape == "none"
                    else row if shape == "list" else tuple(row))
    return schema, rows


@settings(max_examples=200, deadline=None)
@given(tables())
def test_validate_rows_is_the_per_row_loop(table):
    schema, rows = table
    assert _bulk(schema, rows) == _loop(schema, rows)


def test_named_rejections_keep_their_messages():
    """The cases the column passes single out, one by one."""
    schema = TableSchema("t", [Column("i", ColumnType.INT),
                               Column("l", ColumnType.LONG),
                               Column("d", ColumnType.DOUBLE),
                               Column("s", ColumnType.STRING)])
    good = (1, 2, 3.0, "x")
    cases = [
        (1, 2, 3.0),                  # short row
        (1, 2, 3.0, "x", "y"),        # long row
        (True, 2, 3.0, "x"),          # bool in INT
        (1, False, 3.0, "x"),         # bool in LONG
        (1, 2, 3.0, 4),               # int in STRING
        (1, 2, "3", "x"),             # str in DOUBLE
        (1, 2, 3.0, b"x"),            # bytes in STRING
    ]
    for bad in cases:
        for rows in ([good, bad, good], [good, bad, (1,)]):
            outcome = _bulk(schema, rows)
            assert outcome is not None and outcome == _loop(schema, rows)
    assert _bulk(schema, [good, (0, -1, True, "")]) is None
