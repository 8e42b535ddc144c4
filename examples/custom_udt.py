#!/usr/bin/env python3
"""Bringing your own UDT through the whole Deca pipeline, by hand.

Walks a custom ``Measurement`` type through every stage a dataset goes
through inside the optimizer:

1. declare the type (fields, finality, type-sets) and its constructor IR;
2. run the local classification (Algorithm 1) — conservative verdict;
3. run the global refinement (Algorithms 2–4) over the stage call graph;
4. build the byte layout and the synthesized accessor class (SUDT);
5. store records into the container's page group and read them back
   through the accessor — no per-record objects anywhere;
6. end the container's lifetime: its owner reclaims the group at once.

Run:  python examples/custom_udt.py
"""

from repro.analysis import (
    ArrayType,
    Assign,
    CallGraph,
    ClassType,
    DOUBLE,
    Field,
    GlobalClassifier,
    INT,
    Local,
    Loop,
    Method,
    NewArray,
    NewObject,
    Return,
    StoreField,
    SymInput,
    classify_locally,
)
from repro.memory import PageGroup, build_schema, synthesize_sudt


def declare_measurement():
    """A sensor measurement: id, timestamp, and a channel array whose
    length is read once from the device header."""
    samples_array = ArrayType(DOUBLE)
    samples_field = Field("samples", samples_array, final=True)
    measurement = ClassType("Measurement", [
        Field("sensor_id", INT),
        Field("timestamp", INT),
        samples_field,
    ])
    ctor = Method(
        "<init>", params=("sensor_id", "timestamp", "samples"),
        body=(
            StoreField("this", measurement.field("sensor_id"),
                       Local("sensor_id")),
            StoreField("this", measurement.field("timestamp"),
                       Local("timestamp")),
            StoreField("this", samples_field, Local("samples")),
        ),
        owner=measurement, is_constructor=True)
    stage = Method(
        name="ingest",
        body=(
            # The channel count is read once and hoisted (Fig. 4).
            Assign("channels", SymInput("channels")),
            Loop((
                NewArray("buf", samples_array, Local("channels")),
                NewObject("m", measurement, ctor=ctor,
                          args=(SymInput("id"), SymInput("ts"),
                                Local("buf"))),
            )),
            Return(),
        ))
    return measurement, samples_array, stage


def main() -> None:
    measurement, samples_array, stage = declare_measurement()

    local = classify_locally(measurement)
    print(f"1. local classification : {local.value}")

    callgraph = CallGraph.build(stage, known_types=(measurement,))
    classifier = GlobalClassifier(callgraph)
    refined = classifier.classify(measurement)
    print(f"2. global refinement    : {refined.value} "
          f"(fixed-length samples: "
          f"{classifier.is_fixed_length(samples_array)})")

    # The runtime optimizer knows channels == 6 for this job.
    channels = 6
    schema = build_schema(measurement, refined,
                          fixed_lengths={id(samples_array): channels})
    print(f"3. byte layout          : {schema.fixed_size} bytes/record "
          f"(vs ~{16 + 8 + 16 + 8 * channels + 16} in object form)")

    Sudt = synthesize_sudt(schema)
    group = PageGroup("measurements", page_bytes=4096)
    for i in range(100):
        group.append_record(
            schema, (i, 1_700_000_000 + i,
                     tuple(float(i + c) for c in range(channels))))
    group.trim()
    print(f"4. page group           : {group.page_count} pages, "
          f"{group.used_bytes} bytes for 100 records")

    accessor = Sudt()
    total = 0.0
    for buf, offset in group.scan(schema):
        accessor.bind(buf, offset)
        total += accessor.samples[0]
    print(f"5. accessor scan        : sum(samples[0]) = {total}")

    accessor.bind(*group.read(group.append_record(
        schema, (999, 0, (0.0,) * channels))))
    accessor.timestamp = 42  # writes go straight to the page bytes
    assert accessor.timestamp == 42

    records = group.used_bytes
    group.reclaim()            # the container's lifetime ended: its owner
    assert group.reclaimed     # frees every page (and record) at once
    print(f"6. bulk reclamation     : group reclaimed by its owner "
          f"({records} bytes at once)")


if __name__ == "__main__":
    main()
