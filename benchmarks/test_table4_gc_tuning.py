"""Table 4: GC tuning — memory fractions and collector choice vs Deca.

The paper's finding: tuning can rescue the GC-bound LR job (CMS/G1 cut its
execution time severalfold; fraction changes help too), but it is far less
effective for the shuffle-heavy PR job (concurrent collectors lower the
reported GC time while *increasing* execution time) — and no tuning
approaches Deca.
"""

from repro.config import ExecutionMode, GcAlgorithm
from repro.bench.harness import (
    run_graph_point,
    run_lr_point,
    run_lr_tuning_point,
    run_pr_tuning_point,
)
from repro.bench.report import format_table, write_result


def test_table4_gc_tuning():
    def scenario():
        lr_fracs = [(f, run_lr_tuning_point(f,
                                            GcAlgorithm.PARALLEL_SCAVENGE))
                    for f in (0.8, 0.6, 0.4)]
        lr_algos = [(a, run_lr_tuning_point(0.9, a)) for a in GcAlgorithm]
        lr_deca = run_lr_point("80GB", ExecutionMode.DECA, iterations=3)
        pr_fracs = [(f, run_pr_tuning_point(f,
                                            GcAlgorithm.PARALLEL_SCAVENGE))
                    for f in (0.4, 0.1, 0.0)]
        pr_algos = [(a, run_pr_tuning_point(0.4, a)) for a in GcAlgorithm]
        pr_deca = run_graph_point("PR", "WB", ExecutionMode.DECA,
                                  iterations=2)
        return lr_fracs, lr_algos, lr_deca, pr_fracs, pr_algos, pr_deca

    lr_fracs, lr_algos, lr_deca, pr_fracs, pr_algos, pr_deca = \
        scenario()

    body = []
    for frac, row in lr_fracs:
        body.append(["LR:80GB", f"frac={frac:.1f}", "ps", row.exec_s,
                     row.gc_s])
    for algo, row in lr_algos:
        body.append(["LR:80GB", "frac=0.9", algo.value, row.exec_s,
                     row.gc_s])
    body.append(["LR:80GB", "Deca", "-", lr_deca.exec_s, lr_deca.gc_s])
    for frac, row in pr_fracs:
        body.append(["PR:30GB", f"frac={frac:.1f}", "ps", row.exec_s,
                     row.gc_s])
    for algo, row in pr_algos:
        body.append(["PR:30GB", "frac=0.4", algo.value, row.exec_s,
                     row.gc_s])
    body.append(["PR:30GB", "Deca", "-", pr_deca.exec_s, pr_deca.gc_s])
    table = format_table("Table 4: GC tuning vs Deca",
                         ["app", "tuning", "algo", "exec(s)", "gc(s)"],
                         body)
    print(table)
    write_result("table4_gc_tuning", table)

    lr_by_algo = {a: r for a, r in lr_algos}
    ps = lr_by_algo[GcAlgorithm.PARALLEL_SCAVENGE]
    cms = lr_by_algo[GcAlgorithm.CMS]
    g1 = lr_by_algo[GcAlgorithm.G1]
    # LR is GC-bound: concurrent collectors rescue it (paper: 3102 ->
    # 423/332 s), with G1 ahead of CMS.
    assert cms.exec_s < 0.8 * ps.exec_s
    assert g1.exec_s <= cms.exec_s
    # But even the best tuning stays well above Deca (paper: 152 s).
    assert lr_deca.exec_s < 0.5 * g1.exec_s

    # Lower storage fractions reduce LR's GC time (live set shrinks).
    lr_frac_rows = [r for _, r in lr_fracs]
    assert lr_frac_rows[-1].gc_s < lr_frac_rows[0].gc_s

    pr_by_algo = {a: r for a, r in pr_algos}
    pr_ps = pr_by_algo[GcAlgorithm.PARALLEL_SCAVENGE]
    pr_g1 = pr_by_algo[GcAlgorithm.G1]
    # PR is much less sensitive: G1's reported GC time drops, but its
    # execution time does not improve the way LR's does (paper: G1 makes
    # PR slower; we only require the LR-style rescue to be absent).
    assert pr_g1.gc_s < pr_ps.gc_s
    lr_rescue = ps.exec_s / g1.exec_s
    pr_rescue = pr_ps.exec_s / pr_g1.exec_s
    assert pr_rescue < 0.6 * lr_rescue
    # And Deca beats every PR tuning.
    for _, row in pr_fracs + pr_algos:
        assert pr_deca.exec_s < row.exec_s
