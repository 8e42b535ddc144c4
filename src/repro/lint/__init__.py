"""deca-lint: diagnostics and soundness verification for the analysis.

Two layers over the Deca lifetime analysis (see ``docs/static_analysis.md``):

* **static rules** (``DECA001``–``DECA007``) — walk the UDT models, method
  IR, call graphs, symbolized-constant facts and optimizer plans, flagging
  patterns that force object form or undermine the analysis' assumptions;
* **shadow validation** (``DECA101``/``DECA102``) — instrument the runtime
  during a real DECA-mode run and differentially compare observed record
  sizes and accessor writes against the static classification;
* **closure rules** (``DECA201``–``DECA206``, ``DECA211``/``DECA212``) —
  run the bytecode-level closure analyzer over every UDF the shadow run
  registered, then double-run a sampled task and diff the outputs
  (``docs/closure_analysis.md``);
* **borrow rules** (``DECA301``–``DECA308``) — the zero-copy borrow
  checker over the engine's own mmap/shm plumbing, reported under the
  ``engine`` pseudo-app; the runtime counterpart is the alias sanitizer
  (``DecaConfig(sanitize=True)``, :mod:`repro.memory.provenance`);
* **race rules** (``DECA401``–``DECA410``) — the happens-before race
  detector over the engine's concurrency surface (mp backend, shm
  protocol, scheduler, arena, cold tier), reported under the ``race``
  pseudo-app; the runtime counterpart is the vector-clock sanitizer
  (:mod:`repro.obs.vclock`).

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
from .findings import (
    Finding,
    Rule,
    RULES,
    RULES_BY_ID,
    Severity,
    make_finding,
    sort_findings,
)
from .output import (
    baseline_diff,
    filter_report,
    render_text,
    report_payload,
    serialize,
    to_sarif,
)
from .race import RACE_MODULES, analyze_race_source, run_race_rules
from .rules import LintTarget, run_plan_rules, run_static_rules
from .shadow import (
    ArenaEvent,
    PageAppend,
    ShadowRecorder,
    check_arena_accounting,
    check_imprecision,
    check_observations,
    shadow_summary,
)
from .targets import LINT_APPS, LINT_APPS_BY_NAME, LintApp

__all__ = [
    "AppLintResult",
    "ArenaEvent",
    "ENGINE_APP",
    "ENGINE_MODULES",
    "Finding",
    "LINT_APPS",
    "LINT_APPS_BY_NAME",
    "LintApp",
    "LintReport",
    "LintTarget",
    "PSEUDO_APPS",
    "PageAppend",
    "RACE_APP",
    "RACE_MODULES",
    "RULES",
    "RULES_BY_ID",
    "Rule",
    "Severity",
    "ShadowRecorder",
    "analyze_race_source",
    "analyze_source",
    "app_sites",
    "baseline_diff",
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
