"""Code transformation made concrete (paper Appendix B, Fig. 12).

Deca rewrites UDF bytecode so that field accesses become offset-based
reads of the page bytes: Fig. 12 shows the transformed LR gradient loop —
``block.readDouble(offset)`` with hand-scheduled offset arithmetic, one
reused result array, no object creation.

This module performs the equivalent transformation as *Python source
generation*: given a record schema, :func:`generate_scan_source` emits the
text of a function that walks a page group with inline
``struct.unpack_from`` calls at precomputed offsets (no accessor objects,
no per-record tuples beyond what the caller's body builds), and
:func:`compile_scan` compiles it.  The generated source is kept on the
function (``__deca_source__``) so users can inspect their transformed
loops the way Fig. 12 displays the transformed Scala.

Only fixed-size schemas qualify — exactly the SFST condition under which
Deca can schedule offsets statically (§3.1, Appendix B).  The offset
schedule is the slot table of the schema's compiled codec
(``Schema.flat_codec().slots``), the one the engine's own page scans
(``Schema.iter_unpack``) are compiled from.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator

from ..errors import MemoryLayoutError
from ..memory.layout import RecordSchema
from ..memory.page import PageGroup


def generate_scan_source(schema: RecordSchema,
                         fn_name: str = "scan_records") -> str:
    """Generate the source of a page-group scan function.

    The function signature is ``fn(page_group)`` and it yields one tuple
    ``(field0, field1, ...)`` per record, with array fields as tuples —
    the same values ``schema.unpack`` produces, but with offsets scheduled
    at generation time (Appendix B's "absolute field offset = object
    start offset + relative field offset").
    """
    if schema.fixed_size is None:
        raise MemoryLayoutError(
            "static offset scheduling needs a fixed-size (SFST) schema; "
            "runtime fixed-sized types keep the accessor path")
    slots = schema.flat_codec().slots

    lines = [
        f"def {fn_name}(page_group):",
        f'    """Generated Deca scan for {schema.name} '
        f'({schema.fixed_size} B/record)."""',
        f"    stride = {schema.fixed_size}",
    ]
    for index, (name, _, offset, _) in enumerate(slots):
        lines.append(f"    _u{index} = _structs[{index}].unpack_from"
                     f"  # {name} @ +{offset}")
    lines.append("    for page in page_group.pages:")
    lines.append("        data = page.data")
    lines.append("        used = page.used")
    lines.append("        base = 0")
    lines.append("        while base < used:")
    parts = []
    for index, (_, _, offset, count) in enumerate(slots):
        lines.append(f"            v{index} = _u{index}(data, base + {offset})"
                     + ("[0]" if count is None else ""))
        parts.append(f"v{index}")
    lines.append(f"            yield ({', '.join(parts)},)")
    lines.append("            base += stride")
    return "\n".join(lines) + "\n"


def compile_scan(schema: RecordSchema,
                 fn_name: str = "scan_records"
                 ) -> Callable[[PageGroup], Iterator[tuple]]:
    """Compile the generated scan function for *schema*.

    The result carries its source on ``__deca_source__`` and the field
    slot table on ``__deca_slots__``.
    """
    source = generate_scan_source(schema, fn_name)
    slots = schema.flat_codec().slots
    structs = [struct.Struct(f"<{'' if count is None else count}{code}")
               for _, code, _, count in slots]
    namespace: dict = {"_structs": structs}
    exec(compile(source, f"<deca-scan:{schema.name}>", "exec"), namespace)
    fn = namespace[fn_name]
    fn.__deca_source__ = source
    fn.__deca_slots__ = slots
    return fn


def scan_flat(page_group: PageGroup, schema: RecordSchema
              ) -> Iterator[tuple]:
    """Scan *page_group* with a freshly compiled flat reader.

    Values come out *flattened* — nested records are splatted into the
    top-level tuple in field order, arrays stay tuples — which is how the
    transformed loops of Fig. 12 see the data (no object nesting exists
    anymore).
    """
    return compile_scan(schema)(page_group)
