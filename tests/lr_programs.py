"""Variants of LR's map UDF (Fig. 1) for the analysis tests.

The engine's program, :data:`repro.apps.udts.LR_STAGE`, reads the
dimension as a symbol.  These build the same loop over the same declared
types with a literal dimension, optionally allocating a second feature
array of another length (a dense/sparse mix) and storing it into
``features``, which keeps ``LabeledPoint`` variable-sized.
"""

from repro.analysis import (
    Assign,
    Const,
    Local,
    Loop,
    Method,
    NewArray,
    Return,
    StoreField,
    SymInput,
)
from repro.apps.udts import DOUBLE_ARRAY, DenseVector, LabeledPoint, new


def lr_stage(dimensions: int = 10, fixed_length: bool = True) -> Method:
    body = [
        NewArray("features_arr", DOUBLE_ARRAY, Const(dimensions)),
        new("features_vec", DenseVector, Local("features_arr")),
        Assign("label", SymInput("label")),
        new("point", LabeledPoint, Local("label"), Local("features_vec")),
    ]
    if not fixed_length:
        body += [
            NewArray("other_arr", DOUBLE_ARRAY, Const(dimensions + 7)),
            new("other_vec", DenseVector, Local("other_arr")),
            StoreField("point", LabeledPoint.field("features"),
                       Local("other_vec")),
        ]
    return Method("lr.stage0", body=(Loop(tuple(body)), Return()))
