"""Tests for footprint measurement, the serializer model and the profiler."""

import pytest

from repro.analysis import ArrayLength, ArrayType, ClassType, DOUBLE, Field, INT
from repro.apps.udts import String, record, val
from repro.apps.wordcount import wordcount_udt_info
from repro.config import DecaConfig, MB
from repro.errors import MemoryLayoutError
from repro.jvm import SimHeap, Lifetime, sizing
from repro.simtime import Prices, SimClock, ms_to_ticks
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
    """How ``UdtInfo.measure`` reads a record: as its UDT's value — the
    constructor's arguments, a one-argument record as its argument."""

    def test_a_one_argument_record_is_its_argument(self):
        @record
        class Vec:
            data: val(ArrayType(DOUBLE))
            length: INT = ArrayLength("data")

        info = UdtInfo(udt=Vec)
        assert info.object_model is None
        assert info.measure((1.0, 2.0, 3.0)) == RecordFootprint(
            2, 24 + sizing.array_bytes(8, 3), 28)

    def test_an_object_model_is_measured_on_the_same_value(self):
        @record
        class Boxed:
            v: ArrayType(INT)

        info = UdtInfo(udt=ArrayType(INT), object_model=Boxed)
        assert info.measure((1, 2)).objects == 2

    def test_wordcount_measures_the_word_itself(self):
        info = wordcount_udt_info()
        for word, units in (("", 0), ("deca", 4), ("lifetime-based", 14),
                            ("ünïcödé", 7), ("b\U0001F600", 3)):
            # A char[] costs its UTF-16 code units: an astral character
            # is a surrogate pair, as the page layout packs it.
            footprint = info.measure((word, 1))
            assert footprint.data_bytes == 2 * units + 4
            assert footprint == measure_typed(info.udt, ("x" * units, 1))


class TestMeasureGeneric:
    def test_numbers_box(self):
        assert measure_generic(1.5).objects == 1
        assert measure_generic(1.5).object_bytes == 24

    def test_string_is_two_objects(self):
        fp = measure_generic("hello")
        assert fp.objects == 2
        assert fp.data_bytes == 10  # UTF-16 code units
        # Untyped or a typed char[], a str costs the same code units: an
        # astral character is a surrogate pair.
        for text in ("hello", "ünïcödé", "b\U0001F600"):
            assert measure_generic(text).data_bytes \
                == measure_typed(String, text).data_bytes
        assert measure_generic("b\U0001F600").data_bytes == 6

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
        return SerializerModel(Prices(DecaConfig(tasks_per_executor=1)),
                               clock), clock

    def test_deser_costs_more_than_ser(self):
        model, clock = self.make()
        ser = model.kryo_serialize(1000, 50_000)
        deser = model.kryo_deserialize(1000, 50_000)
        assert deser > 5 * ser

    def test_deca_read_is_free(self):
        model, clock = self.make()
        before = clock.ticks
        model.deca_read(100_000, 5_000_000)
        assert clock.ticks == before

    def test_parallelism_scales_charges(self):
        c1, c4 = SimClock(), SimClock()
        serial = SerializerModel(
            Prices(DecaConfig(tasks_per_executor=1)), c1)
        parallel = SerializerModel(
            Prices(DecaConfig(tasks_per_executor=4)), c4)
        serial.kryo_serialize(1000, 10_000)
        parallel.kryo_serialize(1000, 10_000)
        assert c1.ticks == 4 * c4.ticks

    def test_totals_accumulate(self):
        model, _ = self.make()
        model.kryo_serialize(10, 100)
        model.kryo_deserialize(10, 100)
        assert model.ser_ticks > 0
        assert model.deser_ticks > model.ser_ticks


class TestHeapProfiler:
    def test_samples_on_period_boundaries(self):
        cfg = DecaConfig(heap_bytes=16 * MB)
        clock = SimClock()
        heap = SimHeap(cfg, clock)
        profiler = HeapProfiler(heap, clock, period_ms=10.0)
        group = heap.new_group("cache", Lifetime.PINNED)
        for _ in range(5):
            heap.allocate(group, 100, 1000)
            clock.advance(ms_to_ticks(25.0))
            profiler.maybe_sample()
        times = [s.time_ms for s in profiler.samples]
        assert times == sorted(times)
        assert len(times) >= 10  # every crossed boundary sampled

    def test_samples_land_on_the_exact_tick_grid(self):
        """A 0.1 ms period over ten periods: sample k is taken at exactly
        k periods (summing 0.1 ms in floats reads 0.30000000000000004
        at k = 3 and 0.9999999999999999 at k = 10)."""
        clock = SimClock()
        profiler = HeapProfiler(SimHeap(DecaConfig(heap_bytes=16 * MB),
                                        clock), clock, period_ms=0.1)
        for _ in range(10):
            clock.advance(profiler.period_ticks)
            profiler.maybe_sample()
        assert [s.time_ticks for s in profiler.samples] == [
            k * profiler.period_ticks for k in range(11)]
        assert [s.time_ms for s in profiler.samples] == [
            k / 10 for k in range(11)]

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
