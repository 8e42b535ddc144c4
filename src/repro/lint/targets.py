"""What deca-lint audits: one entry per benchmark application.

Each :class:`LintApp` bundles the static lint targets (the UDT-bearing
containers the app creates) with a small, fully seeded *shadow run* — the
app executed in DECA mode with ``sanitize=True`` on a miniature dataset,
so the shadow validator can read the runtime's actual memory behaviour.
Everything here is deterministic: the data generators take fixed seeds
and the run emits no wall-clock values, so two lint runs produce
byte-identical JSON.

The targets take their ``UdtInfo`` objects from the app modules'
``*_udt_info()`` helpers and their phase call graphs from the stage
entries the apps declare (:mod:`repro.apps.udts`), so lint audits the
model the engine plans with, not a copy of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..analysis.callgraph import CallGraph
from ..analysis.phased import Phase
from ..apps.connected_components import (
    label_message_udt_info,
    run_connected_components,
)
from ..apps.kmeans import cluster_stat_udt_info, point_udt_info, run_kmeans
from ..apps.logistic_regression import (
    labeled_point_udt_info,
    run_logistic_regression,
)
from ..apps.pagerank import (
    adjacency_udt_info,
    message_udt_info,
    run_pagerank,
)
from ..apps.sql_queries import (
    ranking_udt_info,
    run_query1,
    run_query2,
    uservisit_udt_info,
)
from ..apps.udts import (
    AdjacencyList,
    Edge,
    GRAPH_BUILD,
    GRAPH_ITERATE,
    RankMessage,
)
from ..apps.wordcount import run_wordcount, wordcount_udt_info
from ..config import DecaConfig, ExecutionMode, MB
from ..data.graphs import power_law_graph
from ..data.tables import rankings_table, uservisits_table
from ..data.text import random_words
from ..data.vectors import clustered_points, labeled_points
from ..spark.context import DecaContext
from .rules import LintTarget

UDTS_LOCATION = "src/repro/apps/udts.py"


@dataclass(frozen=True)
class LintApp:
    """One lintable application: its targets and its shadow run."""

    name: str
    title: str
    make_targets: Callable[[], tuple[LintTarget, ...]]
    shadow_run: Callable[[], DecaContext]


def _shadow_config(heap_mb: int = 32) -> DecaConfig:
    # Shadow runs keep the sanitizer's lifetime book (every page-group
    # append) and use the unified arena, whose storage ledger the trace
    # records, so the DECA101 checks can compare both against the static
    # size-type claims (repro.lint.shadow).
    return DecaConfig(mode=ExecutionMode.DECA, heap_bytes=heap_mb * MB,
                      num_executors=2, tasks_per_executor=2,
                      memory_mode="unified", sanitize=True)


# -- per-app target builders -------------------------------------------------
def _adjacency_target(app: str) -> LintTarget:
    """The PR/CC cached adjacency lists with their two-phase context.

    The ``neighbors`` array is a VST while ``groupByKey`` grows it (the
    *build* phase) and an RFST in the *iterate* phases that only read the
    cache — Fig. 7(b).  The iterate phase reads ``neighbors`` as the
    build phase materialized it, which the target vouches for.
    """
    known = (AdjacencyList, RankMessage, Edge)
    phases = (
        Phase("build", CallGraph.build(GRAPH_BUILD, known_types=known)),
        Phase("iterate", CallGraph.build(GRAPH_ITERATE, known_types=known),
              reads_materialized=True),
    )
    return LintTarget(
        name=f"{app}/cache:{app}.adjacency",
        udt_info=adjacency_udt_info(),
        container="cache",
        location=UDTS_LOCATION,
        phases=phases,
        materialized_fields=(AdjacencyList.field("neighbors"),),
        container_phase="iterate",
    )


def _lr_targets() -> tuple[LintTarget, ...]:
    return (LintTarget(name="lr/cache:lr.points",
                       udt_info=labeled_point_udt_info(8),
                       container="cache", location=UDTS_LOCATION),)


def _kmeans_targets() -> tuple[LintTarget, ...]:
    return (
        LintTarget(name="kmeans/cache:km.points",
                   udt_info=point_udt_info(6),
                   container="cache", location=UDTS_LOCATION),
        LintTarget(name="kmeans/shuffle:km.update",
                   udt_info=cluster_stat_udt_info(6),
                   container="shuffle",
                   location="src/repro/apps/kmeans.py"),
    )


def _wordcount_targets() -> tuple[LintTarget, ...]:
    return (LintTarget(name="wordcount/shuffle:wc.counts",
                       udt_info=wordcount_udt_info(),
                       container="shuffle", location=UDTS_LOCATION),)


def _pagerank_targets() -> tuple[LintTarget, ...]:
    return (
        _adjacency_target("pr"),
        LintTarget(name="pr/shuffle:pr.sumContribs",
                   udt_info=message_udt_info(),
                   container="shuffle", location=UDTS_LOCATION),
    )


def _cc_targets() -> tuple[LintTarget, ...]:
    return (
        _adjacency_target("cc"),
        LintTarget(name="cc/shuffle:cc.minLabel",
                   udt_info=label_message_udt_info(),
                   container="shuffle", location=UDTS_LOCATION),
    )


def _q1_targets() -> tuple[LintTarget, ...]:
    return (LintTarget(name="q1/cache:q1.rows",
                       udt_info=ranking_udt_info(),
                       container="cache", location=UDTS_LOCATION),)


def _q2_targets() -> tuple[LintTarget, ...]:
    return (LintTarget(name="q2/cache:q2.rows",
                       udt_info=uservisit_udt_info(),
                       container="cache", location=UDTS_LOCATION),)


# -- per-app shadow runs -----------------------------------------------------
def _lr_shadow() -> DecaContext:
    points = labeled_points(600, dimensions=8)
    run = run_logistic_regression(points, _shadow_config(),
                                  iterations=2, num_partitions=4)
    return run.ctx


def _kmeans_shadow() -> DecaContext:
    points = clustered_points(400, dimensions=6, clusters=4)
    run = run_kmeans(points, k=4, config=_shadow_config(),
                     iterations=2, num_partitions=4)
    return run.ctx


def _wordcount_shadow() -> DecaContext:
    words = random_words(1500, 120)
    run = run_wordcount(words, _shadow_config(), num_partitions=4)
    return run.ctx


def _pagerank_shadow() -> DecaContext:
    edges = power_law_graph(200, 1200)
    run = run_pagerank(edges, _shadow_config(), iterations=2,
                       num_partitions=4)
    return run.ctx


def _cc_shadow() -> DecaContext:
    edges = power_law_graph(150, 900)
    run = run_connected_components(edges, _shadow_config(), iterations=2,
                                   num_partitions=4)
    return run.ctx


def _q1_shadow() -> DecaContext:
    rankings = rankings_table(400)
    run = run_query1(rankings, _shadow_config(), num_partitions=4)
    return run.ctx


def _q2_shadow() -> DecaContext:
    visits = uservisits_table(500)
    run = run_query2(visits, _shadow_config(), num_partitions=4)
    return run.ctx


LINT_APPS: tuple[LintApp, ...] = (
    LintApp("lr", "Logistic Regression", _lr_targets, _lr_shadow),
    LintApp("kmeans", "KMeans", _kmeans_targets, _kmeans_shadow),
    LintApp("wordcount", "WordCount", _wordcount_targets,
            _wordcount_shadow),
    LintApp("pr", "PageRank", _pagerank_targets, _pagerank_shadow),
    LintApp("cc", "ConnectedComponent", _cc_targets, _cc_shadow),
    LintApp("q1", "SQL Query 1", _q1_targets, _q1_shadow),
    LintApp("q2", "SQL Query 2", _q2_targets, _q2_shadow),
)

LINT_APPS_BY_NAME: dict[str, LintApp] = {app.name: app
                                         for app in LINT_APPS}
