"""Tests for footprint measurement, the serializer model and the profiler."""

import dataclasses

import pytest

from repro.analysis import ArrayType, ClassType, DOUBLE, Field, INT
from repro.apps.wordcount import wordcount_udt_info
from repro.config import DecaConfig, MB, SerializerCosts
from repro.errors import MemoryLayoutError
from repro.jvm import SimHeap, Lifetime, sizing
from repro.simtime import SimClock
from repro.spark.measure import (
    RecordFootprint,
    measure_generic,
    measure_typed,
)
from repro.spark.profiler import HeapProfiler
from repro.spark.rdd import UdtInfo
from repro.spark.serializer import SerializerModel


class TestMeasureTyped:
    def labeled_point(self):
        arr = ArrayType(DOUBLE)
        dense = ClassType("DenseVector", [
            Field("data", arr, final=True),
            Field("offset", INT), Field("stride", INT),
            Field("length", INT),
        ])
        return ClassType("LabeledPoint", [
            Field("label", DOUBLE),
            Field("features", dense, final=False),
        ])

    def test_figure2_object_graph(self):
        """Fig. 2: LabeledPoint = 3 objects; data-size = primitives only."""
        lp = self.labeled_point()
        value = (1.0, ((1.0, 2.0, 3.0), 0, 1, 3))
        fp = measure_typed(lp, value)
        assert fp.objects == 3  # LabeledPoint + DenseVector + double[]
        # data: label + 3 doubles + offset/stride/length ints
        assert fp.data_bytes == 8 + 24 + 12
        # object form: 24 (LP) + 32 (DV) + header+3 doubles array
        assert fp.object_bytes == 24 + 32 + sizing.array_bytes(8, 3)

    def test_object_form_dwarfs_data_for_small_vectors(self):
        lp = self.labeled_point()
        fp = measure_typed(lp, (1.0, ((1.0,) * 10, 0, 1, 10)))
        assert fp.object_bytes > 1.4 * fp.data_bytes

    def test_high_dimension_closes_the_gap(self):
        """Fig. 9(d): at 4096 dims headers are negligible."""
        lp = self.labeled_point()
        fp = measure_typed(lp, (1.0, ((1.0,) * 4096, 0, 1, 4096)))
        assert fp.object_bytes < 1.01 * fp.data_bytes

    def test_arity_mismatch_raises(self):
        lp = self.labeled_point()
        with pytest.raises(MemoryLayoutError):
            measure_typed(lp, (1.0,))

    def test_footprint_addition(self):
        a = RecordFootprint(1, 10, 5)
        b = RecordFootprint(2, 20, 10)
        assert a + b == RecordFootprint(3, 30, 15)

    def test_serialized_adds_tag(self):
        fp = RecordFootprint(1, 100, 40)
        assert fp.serialized_bytes == 42


class TestUdtInfoMeasureEncode:
    """``UdtInfo.measure`` shapes records with ``measure_encode`` if given."""

    def test_measure_encode_is_honoured_without_an_object_model(self):
        arr = ArrayType(DOUBLE)
        info = UdtInfo(
            udt=ClassType("Vec", [Field("data", arr, final=True)]),
            encode=lambda rec: 1 / 0,          # packing only: never measured
            measure_encode=lambda rec: (rec,))
        assert info.object_model is None
        assert info.measure((1.0, 2.0, 3.0)) == RecordFootprint(
            2, 16 + sizing.array_bytes(8, 3), 24)

    def test_measure_encode_is_honoured_with_an_object_model(self):
        boxed = ClassType("Boxed", [Field("v", ArrayType(INT))])
        info = UdtInfo(udt=ArrayType(INT), object_model=boxed,
                       measure_encode=lambda rec: (rec,))
        assert info.measure((1, 2)).objects == 2

    def test_wordcount_measures_the_word_itself(self):
        info = wordcount_udt_info()
        without = dataclasses.replace(info, measure_encode=None)
        for record in (("", 1), ("deca", 1), ("lifetime-based", 40_000)):
            # A char[] is measured by its length alone, so the cheap shape
            # (the word) and the packing shape (its code points) agree.
            assert info.measure(record) == without.measure(record)
            assert info.measure_encode(record) == ((record[0],), record[1])
            # ``encode`` still produces what the page layout packs.
            assert info.to_schema_value(record) == (
                (tuple(ord(c) for c in record[0]),), record[1])
            assert info.from_schema_value(
                info.to_schema_value(record)) == record


class TestMeasureGeneric:
    def test_numbers_box(self):
        assert measure_generic(1.5).objects == 1
        assert measure_generic(1.5).object_bytes == 24

    def test_string_is_two_objects(self):
        fp = measure_generic("hello")
        assert fp.objects == 2
        assert fp.data_bytes == 10  # UTF-16 code units

    def test_tuple_nests(self):
        fp = measure_generic((1, 2.0))
        assert fp.objects == 3  # tuple + two boxes

    def test_none_is_free(self):
        assert measure_generic(None).objects == 0

    def test_dict_counts_entries(self):
        fp = measure_generic({"a": 1})
        assert fp.objects >= 3


class TestSerializerModel:
    def make(self):
        clock = SimClock()
        return SerializerModel(SerializerCosts(), clock), clock

    def test_deser_costs_more_than_ser(self):
        model, clock = self.make()
        ser = model.kryo_serialize(1000, 50_000)
        deser = model.kryo_deserialize(1000, 50_000)
        assert deser > 5 * ser

    def test_deca_read_is_free(self):
        model, clock = self.make()
        before = clock.now_ms
        model.deca_read(100_000, 5_000_000)
        assert clock.now_ms == before

    def test_parallelism_scales_charges(self):
        costs = SerializerCosts()
        c1, c4 = SimClock(), SimClock()
        serial = SerializerModel(costs, c1, parallelism=1)
        parallel = SerializerModel(costs, c4, parallelism=4)
        serial.kryo_serialize(1000, 0)
        parallel.kryo_serialize(1000, 0)
        assert abs(c1.now_ms - 4 * c4.now_ms) < 1e-9

    def test_totals_accumulate(self):
        model, _ = self.make()
        model.kryo_serialize(10, 100)
        model.kryo_deserialize(10, 100)
        assert model.ser_ms_total > 0
        assert model.deser_ms_total > model.ser_ms_total


class TestHeapProfiler:
    def test_samples_on_period_boundaries(self):
        cfg = DecaConfig(heap_bytes=16 * MB)
        clock = SimClock()
        heap = SimHeap(cfg, clock)
        profiler = HeapProfiler(heap, clock, period_ms=10.0)
        group = heap.new_group("cache", Lifetime.PINNED)
        for _ in range(5):
            heap.allocate(group, 100, 1000)
            clock.advance(25.0)
            profiler.maybe_sample()
        times = [s.time_ms for s in profiler.samples]
        assert times == sorted(times)
        assert len(times) >= 10  # every crossed boundary sampled

    def test_tracked_counter(self):
        cfg = DecaConfig(heap_bytes=16 * MB)
        clock = SimClock()
        heap = SimHeap(cfg, clock)
        population = {"n": 7}
        profiler = HeapProfiler(heap, clock, 10.0,
                                tracked_counter=lambda: population["n"])
        profiler.force_sample()
        assert profiler.samples[-1].tracked_objects == 7

    def test_rejects_bad_period(self):
        cfg = DecaConfig(heap_bytes=16 * MB)
        clock = SimClock()
        with pytest.raises(ValueError):
            HeapProfiler(SimHeap(cfg, clock), clock, 0.0)

    def test_timeline_shape(self):
        cfg = DecaConfig(heap_bytes=16 * MB)
        clock = SimClock()
        heap = SimHeap(cfg, clock)
        profiler = HeapProfiler(heap, clock, 5.0)
        profiler.force_sample()
        (row,) = profiler.timeline()
        assert len(row) == 3
