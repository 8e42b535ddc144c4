"""deca-lint: diagnostics and soundness verification for the analysis.

Two layers over the Deca lifetime analysis (see ``docs/static_analysis.md``):

* **static rules** (``DECA001``–``DECA007``) — walk the UDT models, method
  IR, call graphs, symbolized-constant facts and optimizer plans, flagging
  patterns that force object form or undermine the analysis' assumptions;
* **shadow validation** (``DECA101``/``DECA102``) — run the app in DECA
  mode with ``sanitize=True``, then differentially compare the record
  sizes in the sanitizer's lifetime book and the arena bytes in the trace
  against the static classification;
* **closure rules** (``DECA201``–``DECA206``, ``DECA211``/``DECA212``) —
  run the bytecode-level closure analyzer over every UDF the shadow run
  registered, then double-run a sampled task and diff the outputs
  (``docs/closure_analysis.md``);
* **borrow rules** (``DECA301``–``DECA303``, ``DECA306``) — the
  zero-copy borrow checker over the engine's own mmap/shm plumbing,
  reported under the ``engine`` pseudo-app; the runtime counterpart is
  the sanitizer's borrow half (``DecaConfig(sanitize=True)``,
  :mod:`repro.obs.sanitizer`), which alone checks DECA304/305/308;
* **race rules** (``DECA401``/``DECA402``, ``DECA404``/``DECA405``) —
  the happens-before race detector over the engine's concurrency
  surface (mp backend, shm protocol, scheduler, arena, cold tier),
  reported under the ``race`` pseudo-app; the runtime counterpart is
  the same sanitizer's vector clocks, which alone check DECA406–410.

Entry points: :func:`run_lint` (library) and ``python -m repro.bench lint``
(CLI, with text/JSON/SARIF output and a committed baseline checked in CI).
"""

from .borrow import ENGINE_MODULES, analyze_source, run_borrow_rules
from .closure_rules import app_sites, run_closure_rules
from .engine import (
    ENGINE_APP,
    PSEUDO_APPS,
    RACE_APP,
    AppLintResult,
    LintReport,
    lint_app,
    lint_engine,
    lint_race,
    run_lint,
)
from ..obs.rules import RULES, RULES_BY_ID, Rule, Severity
from .findings import Finding, make_finding, sort_findings
from .output import (
    baseline_gate,
    filter_report,
    render_text,
    report_payload,
    serialize,
    to_sarif,
)
from .race import RACE_MODULES, analyze_race_source, run_race_rules
from .rules import LintTarget, run_plan_rules, run_static_rules
from .shadow import (
    check_arena_accounting,
    check_imprecision,
    check_observations,
    shadow_summary,
)
from .targets import LINT_APPS, LINT_APPS_BY_NAME, LintApp

__all__ = [
    "AppLintResult",
    "ENGINE_APP",
    "ENGINE_MODULES",
    "Finding",
    "LINT_APPS",
    "LINT_APPS_BY_NAME",
    "LintApp",
    "LintReport",
    "LintTarget",
    "PSEUDO_APPS",
    "RACE_APP",
    "RACE_MODULES",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "Severity",
    "analyze_race_source",
    "analyze_source",
    "app_sites",
    "baseline_gate",
    "check_arena_accounting",
    "check_imprecision",
    "check_observations",
    "filter_report",
    "lint_app",
    "lint_engine",
    "lint_race",
    "run_borrow_rules",
    "run_closure_rules",
    "run_race_rules",
    "make_finding",
    "render_text",
    "report_payload",
    "run_lint",
    "run_plan_rules",
    "run_static_rules",
    "serialize",
    "shadow_summary",
    "sort_findings",
    "to_sarif",
]
