"""The benchmark applications' record types, each declared once.

These declarations are the Python analogue of what Deca's pre-processing
phase extracts from the applications' compiled bytecode: class shapes,
field finality, runtime type-sets and the constructor bodies that assign
the fields.  The Deca optimizer classifies them with Algorithms 1–4.

Each record type is an annotated class in the shape of its Scala case
class.  :func:`record` turns it into the :class:`ClassType` the analysis
reads and derives its constructor the way scalac compiles one: every
parameter is stored into its field, and a field the declaration
initialises is stored from that expression.  The stage entries below (the
map UDFs that allocate the records) are written against the same types,
so an app's ``UdtInfo`` objects and its lint targets share one model
instance — the classifiers key fields and array types by identity.

A declaration also fixes the one value a record has everywhere, built by
the UDF, packed and measured (:func:`repro.memory.layout.record_shape`):
a class is its constructor's arguments in order (one without a
constructor, like :func:`tuple2`, is its fields); a field the declaration
initialises (``DenseVector.length``) is stored, computed on write and
dropped on read; a one-argument record is its argument; a ``char[]`` is a
``str`` of UTF-16 code units.  So ``LabeledPoint`` is ``(label, features)``
and ``ClusterStat`` ``(cluster, (sum, count))``.

The central example is the paper's Fig. 1/Fig. 3 ``LabeledPoint``:

* locally, ``features`` is a non-final field holding RFST ``DenseVector``
  objects, so ``LabeledPoint`` is classified VST;
* globally, ``features`` is init-only (assigned once, in the constructor)
  and ``features.data`` is a fixed-length array (every allocation uses the
  global dimension ``D``), so ``LabeledPoint`` refines to SFST.
"""

from dataclasses import dataclass

from ..analysis import (
    ArrayLength,
    ArrayType,
    Assign,
    CHAR,
    ClassType,
    Const,
    DOUBLE,
    DataType,
    Field,
    INT,
    LONG,
    Loop,
    Method,
    NewArray,
    NewObject,
    Return,
    StoreField,
    SymInput,
)
from ..analysis.ir import Expr, Local, Stmt


@dataclass(frozen=True)
class _Slot:
    """One field annotation: declared type, runtime type-set, finality."""

    declared: DataType
    type_set: tuple[DataType, ...]
    final: bool


def val(declared: DataType) -> _Slot:
    """A field assigned once, in the constructor (Scala ``val``)."""
    return _Slot(declared, (), True)


def var(declared: DataType, *type_set: DataType) -> _Slot:
    """A reassignable field (Scala ``var``) whose runtime types are
    *type_set*; a bare type annotation is a ``var`` of that type."""
    return _Slot(declared, type_set, False)


def record(declaration: type) -> ClassType:
    """The class type an annotated class declares, with its constructor.

    Annotations name the fields in order (a type, :func:`val` or
    :func:`var`); a class attribute is the IR expression the constructor
    stores into that field, and every other field is a parameter.
    """
    cls = ClassType(declaration.__name__)
    params: list[str] = []
    body: list[Stmt] = []
    for name, slot in declaration.__annotations__.items():
        if not isinstance(slot, _Slot):
            slot = var(slot)
        field = cls.add_field(Field(name, slot.declared,
                                    type_set=slot.type_set or None,
                                    final=slot.final))
        init = getattr(declaration, name, None)
        if init is None:
            params.append(name)
            init = Local(name)
        body.append(StoreField("this", field, init))
    cls.constructor = Method("<init>", params=tuple(params), body=body,
                             owner=cls, is_constructor=True)
    return cls


def new(target: str, cls: ClassType, *args: Expr) -> NewObject:
    """``target = new cls(args...)``, running the declared constructor."""
    return NewObject(target, cls, ctor=cls.constructor, args=args)


def tuple2(first: DataType, second: DataType) -> ClassType:
    """Scala's ``Tuple2[A, B]``: how Spark holds a pair as objects."""
    return ClassType(f"Tuple2[{first.name}, {second.name}]", [
        Field("_1", first, final=True), Field("_2", second, final=True)])


DOUBLE_ARRAY = ArrayType(DOUBLE)
LONG_ARRAY = ArrayType(LONG)
CHAR_ARRAY = ArrayType(CHAR)


# -- boxed primitives (what Spark's object form allocates) ------------------
@record
class Integer:
    value: INT


@record
class Long:
    value: LONG


@record
class String:
    value: val(CHAR_ARRAY)


# -- LR and KMeans (Fig. 1) --------------------------------------------------
#: The abstract supertype: the declared type of ``features``.
Vector = ClassType("Vector")


@record
class DenseVector:
    data: val(DOUBLE_ARRAY)
    offset: INT = Const(0)
    stride: INT = Const(1)
    length: INT = ArrayLength("data")


@record
class LabeledPoint:
    label: DOUBLE
    features: var(Vector, DenseVector)


#: The map UDF of Fig. 1 (lines 13–17): parse one line, build the feature
#: array, wrap it into DenseVector and LabeledPoint.  The dimension is
#: read once from the dataset header and hoisted before the input loop
#: (Fig. 4's symbolized constant); the Loop iterates over the input split.
LR_STAGE = Method("lr.stage0", body=(
    Assign("D", SymInput("D")),
    Loop((
        NewArray("features_arr", DOUBLE_ARRAY, Local("D")),
        new("features_vec", DenseVector, Local("features_arr")),
        Assign("label", SymInput("label")),
        new("point", LabeledPoint, Local("label"), Local("features_vec")),
    )),
    Return(),
))


@record
class SumCount:
    """The ``(vector_sum, count)`` value of a KMeans aggregation pair."""

    sum: val(DOUBLE_ARRAY)
    count: INT


@record
class ClusterStat:
    """KMeans' ``(cluster, (vector_sum, count))`` aggregation record."""

    cluster: INT
    stat: val(SumCount)


#: The assignment map: every sum array has the dataset dimension.
KM_ASSIGN_STAGE = Method("km.assignStage", body=(
    Assign("D", SymInput("D")),
    Loop((
        NewArray("sum", DOUBLE_ARRAY, Local("D")),
        new("sumCount", SumCount, Local("sum"), SymInput("count")),
        new("stat", ClusterStat, SymInput("cluster"), Local("sumCount")),
    )),
    Return(),
))

#: What Spark actually allocates per ClusterStat: Tuple2(Integer,
#: Tuple2(DenseVector, Integer)) — wrappers and boxes included.
CLUSTER_STAT_OBJECTS = tuple2(Integer, tuple2(DenseVector, Integer))


# -- WordCount ---------------------------------------------------------------
@record
class Tuple2:
    """WC's shuffle record ``Tuple2[String, Int]`` — an RFST (strings vary
    in length across instances but never grow), decomposable in the
    hash-based shuffle buffer with segment reuse for the count (§4.3.2)."""

    word: val(String)
    count: INT


WC_STAGE = Method("wc.stage0", body=(
    Loop((
        # Each word read from the split has its own length.
        NewArray("chars", CHAR_ARRAY, SymInput("wordlen")),
        new("word", String, Local("chars")),
        new("pair", Tuple2, Local("word"), Const(1)),
    )),
    Return(),
))


# -- PageRank and ConnectedComponent -----------------------------------------
@record
class Edge:
    src: LONG
    dst: LONG


@record
class AdjacencyList:
    """The adjacency list's ``neighbors`` array is built by ``groupByKey``
    appends — a VST inside the shuffle buffer (the growable buffer
    reassigns it), but init-only in the iterate stages that only read the
    cached adjacency RDD, where it therefore refines to an RFST (§3.4,
    Fig. 7(b))."""

    vid: LONG
    neighbors: LONG_ARRAY


@record
class RankMessage:
    target: LONG
    rank: DOUBLE


#: Stage 0 groups edges into adjacency lists: the neighbor array of one
#: vertex is reallocated as values arrive (growable append), so the store
#: to ``neighbors`` happens outside the constructor too.
GRAPH_BUILD = Method("graph.build", body=(
    Loop((
        new("e", Edge, SymInput("src"), SymInput("dst")),
        NewArray("grown", LONG_ARRAY, SymInput("degree")),
        new("adj", AdjacencyList, SymInput("vid"), Local("grown")),
        NewArray("regrown", LONG_ARRAY, SymInput("degree2")),
        StoreField("adj", AdjacencyList.field("neighbors"),
                   Local("regrown")),
    )),
    Return(),
))

#: Iterate stages only read the cached adjacency lists and emit fresh rank
#: messages; they never assign ``neighbors``.
GRAPH_ITERATE = Method("graph.iterate", body=(
    Loop((new("msg", RankMessage, SymInput("target"), SymInput("rank")),)),
    Return(),
))

#: Spark holds an edge as a ``Tuple2`` of two boxed ``Long``s.
EDGE_OBJECTS = tuple2(Long, Long)


# -- the hand-written RDD versions of the SQL queries ------------------------
@record
class Ranking:
    """Strings give the row per-instance sizes, so the global
    classification lands on RFST — decomposable with length-prefixed
    string fields."""

    pageURL: val(String)
    pageRank: INT
    avgDuration: INT


@record
class UserVisit:
    sourceIP: val(String)
    destURL: val(String)
    visitDate: INT
    adRevenue: DOUBLE
    userAgent: val(String)
    countryCode: val(String)
    languageCode: val(String)
    searchWord: val(String)
    duration: INT


def _scan(name: str, row: ClassType) -> Method:
    """The scan UDF that builds one *row* per input line: each string
    column's characters have their own length."""
    body: list[Stmt] = []
    args: list[Expr] = []
    for field in row.fields:
        if field.declared_type is String:
            body += (NewArray(f"{field.name}_arr", CHAR_ARRAY,
                              SymInput(f"{field.name}_len")),
                     new(f"{field.name}_str", String,
                         Local(f"{field.name}_arr")))
            args.append(Local(f"{field.name}_str"))
        else:
            args.append(SymInput(field.name))
    body.append(new("row", row, *args))
    return Method(name, body=(Loop(tuple(body)), Return()))


RANKINGS_SCAN = _scan("sql.scanRankings", Ranking)
USERVISITS_SCAN = _scan("sql.scanUserVisits", UserVisit)
