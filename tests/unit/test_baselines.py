"""Tests for the published FasterTransformer baseline tables."""

from repro.baselines import (
    FT_BASELINES,
    FT_TP16,
    FT_TP32,
    PAPER_MTNLG_TOTAL,
    PAPER_PALM_TOTAL,
    WORKLOADS,
    pareto_frontier_cells,
)


class TestPublishedTables:
    def test_all_workloads_present(self):
        for table in FT_BASELINES.values():
            assert set(table) == {w.name for w in WORKLOADS}

    def test_batch_columns_ascend(self):
        for table in list(FT_BASELINES.values()) + [PAPER_PALM_TOTAL,
                                                    PAPER_MTNLG_TOTAL]:
            for rows in table.values():
                batches = [r.batch for r in rows]
                assert batches == sorted(batches)

    def test_known_anchor_cells(self):
        # Spot checks straight from Table D.3.
        row = next(r for r in FT_TP16["60in-20out"] if r.batch == 128)
        assert (row.time_ms, row.mfu_pct) == (5406, 40)
        row = next(r for r in PAPER_PALM_TOTAL["60in-20out"]
                   if r.batch == 64)
        assert (row.time_ms, row.mfu_pct) == (1218, 26)

    def test_oom_cells_are_none(self):
        row = next(r for r in FT_TP16["60in-20out"] if r.batch == 256)
        assert row.time_ms is None

    def test_paper_headline_16_vs_32_way(self):
        """Section 5: FT TP32 tops out at 33% MFU vs 46% for TP16 — the
        communication bottleneck of scaling tensor parallelism on GPUs."""
        best_tp32 = max(r.mfu_pct for rows in FT_TP32.values()
                        for r in rows if r.mfu_pct is not None)
        best_tp16 = max(r.mfu_pct for rows in FT_TP16.values()
                        for r in rows if r.mfu_pct is not None)
        assert best_tp32 == 33
        assert best_tp16 == 46

    def test_palm_beats_mtnlg_on_our_stack(self):
        """Section 5: parallel layers + multiquery give PaLM up to ~10%
        MFU over Megatron on the same hardware."""
        gains = []
        for workload in PAPER_PALM_TOTAL:
            for palm, mtnlg in zip(PAPER_PALM_TOTAL[workload],
                                   PAPER_MTNLG_TOTAL[workload]):
                assert palm.batch == mtnlg.batch
                gains.append(palm.mfu_pct - mtnlg.mfu_pct)
        assert max(gains) >= 3
        assert sum(g >= 0 for g in gains) > len(gains) * 0.7


class TestParetoCells:
    def test_frontier_not_dominated(self):
        cells = FT_TP16["20in-8out"]
        frontier = pareto_frontier_cells(list(cells))
        for f in frontier:
            for other in cells:
                if other.time_ms is None:
                    continue
                assert not (other.time_ms < f.time_ms
                            and other.mfu_pct > f.mfu_pct)

    def test_extremes_always_on_frontier(self):
        cells = [c for c in FT_TP32["60in-20out"] if c.time_ms is not None]
        frontier = pareto_frontier_cells(cells)
        fastest = min(cells, key=lambda c: c.time_ms)
        best_mfu = max(cells, key=lambda c: c.mfu_pct)
        assert fastest in frontier
        assert best_mfu in frontier
