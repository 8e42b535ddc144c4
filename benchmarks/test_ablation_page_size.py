"""Ablation: page size (§2.3, §4.3.1).

The paper: "the size of each byte array should not be too small or too
large, otherwise it would incur high GC overheads or large unused memory
spaces."  We sweep the page size on the LR-80GB point and report the GC
time (more pages → more objects for the collector) and the allocation
waste (bigger last pages → more unused tail before trimming kicks in,
plus coarser eviction units).
"""

from repro.config import ExecutionMode
from repro.bench.harness import run_lr_point
from repro.bench.report import format_table, write_result

PAGE_SIZES = (16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024)


def test_ablation_page_size():
    def scenario():
        rows = []
        for page_bytes in PAGE_SIZES:
            point = run_lr_point("80GB", ExecutionMode.DECA,
                                 iterations=3, page_bytes=page_bytes)
            run = point.extra["run"]
            pages = sum(e.memory_manager.page_count
                        for e in run.ctx.executors)
            used = sum(e.memory_manager.used_bytes
                       for e in run.ctx.executors)
            allocated = sum(e.memory_manager.allocated_bytes
                            for e in run.ctx.executors)
            rows.append((page_bytes, point, pages, used, allocated))
        return rows

    rows = scenario()
    table = format_table(
        "Ablation: Deca page size (LR 80GB)",
        ["page(KB)", "exec(s)", "gc(s)", "pages", "waste(KB)"],
        [[size // 1024, point.exec_s, point.gc_s, pages,
          (allocated - used) // 1024]
         for size, point, pages, used, allocated in rows])
    print(table)
    write_result("ablation_page_size", table)

    by_size = {size: (point, pages, used, allocated)
               for size, point, pages, used, allocated in rows}
    smallest = by_size[PAGE_SIZES[0]]
    largest = by_size[PAGE_SIZES[-1]]
    # Smaller pages mean strictly more page objects on the heap...
    assert smallest[1] > 4 * largest[1]
    # ...while every size still keeps GC negligible at this scale and
    # correctness identical.
    for size, (point, pages, used, allocated) in by_size.items():
        assert point.gc_s < 0.05, size
    # Waste (allocated-but-unused bytes) never exceeds one page per block.
    for size, (point, pages, used, allocated) in by_size.items():
        blocks = 8  # LR_PARTITIONS
        assert allocated - used <= (size + 4096) * blocks, size
