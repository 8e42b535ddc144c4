"""Shared plumbing for the benchmark applications."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..config import DecaConfig
from ..spark.context import DecaContext
from ..spark.metrics import RunMetrics


@dataclass
class AppRun:
    """The outcome of one application run under one mode."""

    result: Any
    metrics: RunMetrics
    ctx: DecaContext
    cached_bytes: int = 0
    swapped_cache_bytes: int = 0

    @classmethod
    def finish(cls, ctx: DecaContext, result: Any, cached: Any) -> "AppRun":
        """Finish *ctx*'s run; the cache bars are *cached*'s bytes."""
        metrics = ctx.finish()
        return cls(result=result, metrics=metrics, ctx=ctx,
                   cached_bytes=ctx.cached_bytes_of(cached),
                   swapped_cache_bytes=ctx.swapped_bytes_of(cached))

    @property
    def wall_s(self) -> float:
        return self.metrics.wall_ms / 1000.0

    @property
    def gc_s(self) -> float:
        return self.metrics.gc_pause_ms / 1000.0


def make_context(config: DecaConfig | None = None,
                 profile_prefix: str | None = None,
                 **overrides) -> DecaContext:
    """Build a context, optionally with profiling enabled.

    *profile_prefix* attaches heap samplers tracking allocation groups
    whose name starts with the prefix (e.g. ``"cache:"`` to follow cached
    LabeledPoint populations, Figs. 8a/9a).
    """
    cfg = (config or DecaConfig()).with_options(**overrides) \
        if overrides else (config or DecaConfig())
    ctx = DecaContext(cfg)
    if profile_prefix is not None:
        ctx.enable_profiling(tracked_prefix=profile_prefix)
    return ctx
