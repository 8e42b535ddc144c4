"""The lint driver: static rules + shadow validation, per application.

``lint_app`` audits one registered application: it runs every static rule
over the app's targets, then (unless disabled) executes the app's shadow
run under ``sanitize=True``, checks the optimizer's decomposition plans
against the sanitizer's lifetime book and the run's trace, and folds
everything into one deterministic :class:`AppLintResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .borrow import run_borrow_rules
from .closure_rules import run_closure_rules
from .race import run_race_rules
from ..obs.rules import Severity
from .findings import Finding, sort_findings
from .rules import run_plan_rules, run_static_rules
from .shadow import (
    check_arena_accounting,
    check_imprecision,
    check_observations,
    shadow_summary,
)
from .targets import LINT_APPS, LINT_APPS_BY_NAME, LintApp


@dataclass(frozen=True)
class AppLintResult:
    """Everything the linter concluded about one application."""

    app: str
    title: str
    findings: tuple[Finding, ...]
    summary: dict[str, object]

    def count(self, severity: Severity) -> int:
        return sum(1 for f in self.findings if f.severity is severity)


@dataclass(frozen=True)
class LintReport:
    """All per-app results of one lint run."""

    apps: tuple[AppLintResult, ...]

    def all_findings(self) -> tuple[Finding, ...]:
        return tuple(f for result in self.apps for f in result.findings)

    def count(self, severity: Severity) -> int:
        return sum(result.count(severity) for result in self.apps)

    @property
    def has_errors(self) -> bool:
        return self.count(Severity.ERROR) > 0


def lint_app(app: LintApp, shadow: bool = True) -> AppLintResult:
    """Audit one application; ``shadow=False`` skips the shadow run."""
    targets = app.make_targets()
    findings: list[Finding] = []
    for target in targets:
        findings.extend(run_static_rules(target))

    summary: dict[str, object] = {"shadow": shadow}
    if shadow:
        ctx = app.shadow_run()
        sanitizer = ctx.sanitizer
        if sanitizer is None:
            raise ValueError(
                f"shadow run of {app.name!r} ran without sanitize=True")
        plans = tuple(ctx._optimizer.reports)
        findings.extend(run_plan_rules(app.name, plans, targets))
        findings.extend(check_observations(app.name, sanitizer, plans))
        findings.extend(check_arena_accounting(app.name, sanitizer,
                                               ctx.tracer, plans))
        findings.extend(check_imprecision(app.name, ctx, plans))
        summary.update(shadow_summary(sanitizer, plans))
        # Closure rules go last: the differential double-run replays
        # tasks on the finished context, which must not perturb the
        # book- and trace-based checks above.
        closure_findings, closure_summary = run_closure_rules(app.name,
                                                              ctx)
        findings.extend(closure_findings)
        summary["closures"] = closure_summary

    return AppLintResult(app=app.name, title=app.title,
                         findings=sort_findings(findings),
                         summary=summary)


#: Name of the pseudo-app auditing the engine itself (DECA301–303/306).
ENGINE_APP = "engine"

#: Name of the pseudo-app race-checking the engine (DECA401–402/404–405).
RACE_APP = "race"

#: Pseudo-apps ride along with the full registry, in this order.
PSEUDO_APPS = (ENGINE_APP, RACE_APP)


def lint_engine() -> AppLintResult:
    """Borrow-check the engine's zero-copy modules (DECA301–303, 306).

    Unlike the registered apps, the target here is the engine source
    itself: the mmap tier, page groups, cache store and shm plumbing.
    There is no shadow run — the dynamic counterpart is the runtime
    sanitizer (``DecaConfig(sanitize=True)``; every configuration cell
    runs under it in tests/test_config_matrix.py), the only checker of
    DECA304, DECA305 and DECA308.
    """
    findings, summary = run_borrow_rules(target=ENGINE_APP)
    return AppLintResult(
        app=ENGINE_APP,
        title="Engine zero-copy borrow audit (DECA301–303, 306)",
        findings=findings, summary=summary)


def lint_race() -> AppLintResult:
    """Race-check the engine's concurrency surface (DECA401, 402, 404,
    405).

    Like :func:`lint_engine`, the target is the engine source itself —
    the mp backend, the shm protocol, the scheduler/shuffle pair, the
    arena and the cold tier.  No shadow run; the dynamic counterpart is
    the runtime sanitizer's vector clocks (:mod:`repro.obs.sanitizer`),
    the only checker of DECA406–DECA410.
    """
    findings, summary = run_race_rules(target=RACE_APP)
    return AppLintResult(
        app=RACE_APP,
        title="Engine concurrency race audit (DECA401–402, 404–405)",
        findings=findings, summary=summary)


def resolve_apps(names: list[str]) -> tuple[LintApp, ...]:
    """Turn CLI app names into registry entries (``all`` = every app)."""
    if not names or names == ["all"]:
        return LINT_APPS
    apps = []
    for name in names:
        app = LINT_APPS_BY_NAME.get(name)
        if app is None:
            known = ", ".join(sorted(LINT_APPS_BY_NAME))
            raise KeyError(f"unknown lint app {name!r} (known: {known})")
        apps.append(app)
    return tuple(apps)


def run_lint(names: list[str], shadow: bool = True) -> LintReport:
    """Lint the named applications (``all``/empty = the full registry).

    The ``engine`` and ``race`` pseudo-apps (the zero-copy borrow audit
    and the concurrency race audit) ride along with the full registry
    and can be requested by name; they are never registry entries, so
    they must be filtered out before app resolution.
    """
    app_names = [name for name in names if name not in PSEUDO_APPS]
    requested = {name for name in names if name in PSEUDO_APPS}
    full_registry = not names or names == ["all"]
    results: list[AppLintResult] = []
    if full_registry or app_names:
        # resolve_apps([]) means "every registered app", so a bare
        # pseudo-app request must not reach it.
        results.extend(lint_app(app, shadow=shadow)
                       for app in resolve_apps(app_names))
    if full_registry or ENGINE_APP in requested:
        results.append(lint_engine())
    if full_registry or RACE_APP in requested:
        results.append(lint_race())
    return LintReport(apps=tuple(results))
