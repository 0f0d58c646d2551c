"""The halo subsystem: multi-level ghost-zone closures (GhostPlan)."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla.halo import EXPAND_MODES, GhostPlan, HaloPlan
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ConfigurationError
from repro.matrices.stencil import laplace2d
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition


def tridiag(n: int) -> sp.csr_matrix:
    """1-D Laplacian: each closure level grows by exactly one row per
    side, which makes every level set predictable by hand."""
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1]).tocsr()


class TestGhostPlanClosure:
    def test_levels_grow_by_one_ring(self):
        n, ranks, depth = 16, 4, 3
        part = Partition(n, ranks)
        plan = GhostPlan.analyze(tridiag(n), part, depth)
        # rank 1 owns rows 4..7; level l reaches l rows past each edge
        for lvl in range(depth + 1):
            expect = np.arange(4 - lvl, 8 + lvl)
            np.testing.assert_array_equal(plan.levels[1][lvl], expect)
        # edge rank 0 grows only rightward
        np.testing.assert_array_equal(plan.levels[0][depth],
                                      np.arange(0, 4 + depth))

    def test_levels_are_nested(self):
        part = Partition(400, 8)
        plan = GhostPlan.analyze(laplace2d(20), part, 4)
        for per_rank in plan.levels:
            for shallow, deep in zip(per_rank, per_rank[1:]):
                assert np.isin(shallow, deep).all()

    def test_ghost_rows_and_peer_counts(self):
        n, ranks = 16, 4
        part = Partition(n, ranks)
        plan = GhostPlan.analyze(tridiag(n), part, 2)
        # rank 1 needs rows {2, 3} from rank 0 and {8, 9} from rank 2
        np.testing.assert_array_equal(plan.ghost_rows[1], [2, 3, 8, 9])
        assert plan.recv_counts_by_peer[1] == {0: 2, 2: 2}
        # edge ranks have one neighbour only
        assert plan.recv_counts_by_peer[0] == {1: 2}

    def test_depth_one_matches_halo_plan(self):
        """The depth-1 ghost closure is exactly the standard halo."""
        a = laplace2d(12)
        part = Partition(a.shape[0], 6)
        blocks = [a[part.local_slice(r), :].tocsr() for r in range(6)]
        halo = HaloPlan.analyze(blocks, part)
        plan = GhostPlan.analyze(a, part, 1)
        assert plan.recv_counts_by_peer == halo.recv_counts_by_peer
        np.testing.assert_array_equal(plan.ghost_counts(), halo.halo_counts)

    def test_level_blocks_are_row_submatrices(self):
        a = laplace2d(10)
        part = Partition(100, 4)
        plan = GhostPlan.analyze(a, part, 2)
        for rank in range(4):
            for lvl in range(2):
                rows = plan.levels[rank][lvl]
                block = plan.level_blocks[rank][lvl]
                assert block.shape == (rows.size, 100)
                np.testing.assert_array_equal(block.toarray(),
                                              a[rows, :].toarray())
                assert plan.level_nnz[rank, lvl] == block.nnz
                assert plan.level_rows[rank, lvl] == rows.size

    def test_block_expand_rounds_to_owner_blocks(self):
        n, ranks = 16, 4
        part = Partition(n, ranks)
        plan = GhostPlan.analyze(tridiag(n), part, 1, expand="block")
        # one hop from rank 1's rows touches ranks 0 and 2 -> their whole
        # blocks join the closure
        np.testing.assert_array_equal(plan.levels[1][1], np.arange(0, 12))
        assert plan.recv_counts_by_peer[1] == {0: 4, 2: 4}
        np.testing.assert_array_equal(plan.level_ranks[1][1], [0, 1, 2])

    def test_block_diagonal_matrix_has_empty_ghosts(self):
        """Ghost-level-0 degenerate case: no inter-rank coupling."""
        part = Partition(12, 3)
        a = sp.block_diag([tridiag(4)] * 3).tocsr()
        plan = GhostPlan.analyze(a, part, 3)
        assert all(g.size == 0 for g in plan.ghost_rows)
        assert all(not by_peer for by_peer in plan.recv_counts_by_peer)
        np.testing.assert_array_equal(plan.ghost_counts(), 0)

    def test_single_rank_has_empty_ghosts(self):
        part = Partition(9, 1)
        plan = GhostPlan.analyze(tridiag(9), part, 4)
        assert plan.ghost_rows[0].size == 0
        assert plan.recv_counts_by_peer == [{}]


class TestGhostPlanPayloads:
    def test_recv_bytes_scales_with_word_size(self):
        part = Partition(16, 4)
        plan = GhostPlan.analyze(tridiag(16), part, 2)
        b64 = plan.recv_bytes(8.0)
        b32 = plan.recv_bytes(4.0)
        for d64, d32 in zip(b64, b32):
            assert set(d64) == set(d32)
            for peer in d64:
                assert d32[peer] == pytest.approx(d64[peer] / 2.0)

    def test_recv_bytes_scales_with_vector_count(self):
        part = Partition(16, 4)
        plan = GhostPlan.analyze(tridiag(16), part, 2)
        one = plan.recv_bytes(8.0, n_vectors=1)
        two = plan.recv_bytes(8.0, n_vectors=2)
        for d1, d2 in zip(one, two):
            for peer in d1:
                assert d2[peer] == pytest.approx(2.0 * d1[peer])

    def test_halo_plan_default_recv_bytes_is_fp64(self):
        a = laplace2d(8)
        part = Partition(64, 4)
        blocks = [a[part.local_slice(r), :].tocsr() for r in range(4)]
        halo = HaloPlan.analyze(blocks, part)
        default = halo.recv_bytes()
        for by_peer, counts in zip(default, halo.recv_counts_by_peer):
            for peer, nbytes in by_peer.items():
                assert nbytes == counts[peer] * 8.0


class TestGhostPlanValidation:
    def test_rejects_negative_depth(self):
        with pytest.raises(ConfigurationError):
            GhostPlan.analyze(tridiag(8), Partition(8, 2), -1)

    def test_rejects_unknown_expand(self):
        assert "pointwise" in EXPAND_MODES
        with pytest.raises(ConfigurationError):
            GhostPlan.analyze(tridiag(8), Partition(8, 2), 1,
                              expand="diagonal")

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            GhostPlan.analyze(tridiag(8), Partition(9, 3), 1)

    def test_depth_zero_is_owned_rows_only(self):
        part = Partition(8, 2)
        plan = GhostPlan.analyze(tridiag(8), part, 0)
        assert plan.ghost_rows[0].size == 0
        assert plan.level_blocks == [[], []]
        np.testing.assert_array_equal(plan.levels[0][0], np.arange(4))


class TestDistSparseMatrixGhostPlans:
    def test_plans_are_cached_per_depth_and_expand(self):
        comm = SimComm(generic_cpu(), 4)
        a = DistSparseMatrix(laplace2d(8), Partition(64, 4), comm)
        p1 = a.ghost_plan(3)
        p2 = a.ghost_plan(3)
        assert p1 is p2
        p3 = a.ghost_plan(3, expand="block")
        assert p3 is not p1 and p3.expand == "block"
        assert a.ghost_plan(2) is not p1
