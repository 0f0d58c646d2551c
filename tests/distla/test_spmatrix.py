"""Distributed sparse matrix: SpMV equivalence and halo analysis."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ShapeError
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.obs.metrics import MetricsRegistry
from repro.parallel.communicator import SimComm
from repro.parallel.costmodel import CostModel
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition


class TestMatvec:
    def test_matches_scipy(self, comm4, rng):
        a = laplace2d(10)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = rng.standard_normal(a.shape[0])
        dx = DistMultiVector.from_global(x, part, comm4)
        y = da.matvec(dx)
        np.testing.assert_allclose(y.to_global()[:, 0], a @ x, rtol=1e-13)

    def test_out_parameter_reused(self, comm4, rng):
        a = laplace2d(8)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = DistMultiVector.from_global(rng.standard_normal(a.shape[0]),
                                        part, comm4)
        out = DistMultiVector.zeros(part, comm4, 1)
        res = da.matvec(x, out=out)
        assert res is out

    def test_multicolumn_rejected(self, comm4):
        a = laplace2d(8)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = DistMultiVector.zeros(part, comm4, 2)
        with pytest.raises(ShapeError):
            da.matvec(x)

    def test_charges_halo_and_local(self, comm4, rng):
        a = laplace2d(10)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        x = DistMultiVector.from_global(rng.standard_normal(a.shape[0]),
                                        part, comm4)
        with comm4.tracer.phase("spmv"):
            da.matvec(x)
        assert comm4.tracer.kernel_seconds("spmv", "halo") > 0
        assert comm4.tracer.kernel_seconds("spmv", "spmv_local") > 0


def _noncanonical(a: sp.csr_matrix, rng) -> sp.csr_matrix:
    """``a`` with every entry split in two and each row's entries
    shuffled: duplicate, unsorted column indices (not canonical CSR)."""
    a = a.tocsr()
    data, indices, indptr = [], [], [0]
    for i in range(a.shape[0]):
        lo, hi = a.indptr[i], a.indptr[i + 1]
        cols = np.concatenate([a.indices[lo:hi], a.indices[lo:hi]])
        vals = np.concatenate([0.25 * a.data[lo:hi], 0.75 * a.data[lo:hi]])
        perm = rng.permutation(cols.size)
        indices.append(cols[perm])
        data.append(vals[perm])
        indptr.append(indptr[-1] + cols.size)
    m = sp.csr_matrix((np.concatenate(data), np.concatenate(indices),
                       np.array(indptr)), shape=a.shape)
    assert not m.has_canonical_format
    return m


def _per_rank_reference(da, x, out_storage):
    """What one product must give: each rank's local block times the
    gathered operand, rounded to ``out_storage``, and the per-rank halo
    and local SpMV charges evaluated afresh."""
    comm = da.comm
    out = DistMultiVector.zeros(da.partition, comm, 1, storage=out_storage)
    x_global = x.to_global()[:, 0]
    ys = []
    for block in da.local_blocks:
        y = block @ x_global
        ys.append(y if out_storage == "fp64" else out.quantize(y))
    halo = max(comm.cost.halo_exchange(recv, rank, comm.size)
               for rank, recv in enumerate(da.halo.recv_bytes(x.word_bytes)))
    word = max(x.word_bytes, out.word_bytes)
    local = max(comm.cost.spmv(block.nnz, block.shape[0],
                               da.partition.local_count(rank)
                               + int(da.halo.halo_counts[rank]),
                               word_bytes=word)
                for rank, block in enumerate(da.local_blocks))
    return ys, halo, local


def _assert_matches_reference(da, x, out):
    """Two products into ``out``: values and charges bitwise equal to
    the per-rank reference (the second product runs on cached charges)."""
    ys, halo, local = _per_rank_reference(da, x, out.storage)
    tracer = da.comm.tracer
    for calls in (1, 2):
        with tracer.phase("spmv"):
            res = da.matvec(x, out=out)
        assert res is out
        for shard, y in zip(out.shards, ys):
            assert shard.dtype == y.dtype
            np.testing.assert_array_equal(shard[:, 0], y)
        assert tracer.kernel_count("spmv", "halo") == calls
        assert tracer.kernel_seconds("spmv", "halo") == halo * calls
        assert tracer.kernel_seconds("spmv", "spmv_local") == local * calls


class TestOneProductPath:
    """The one-call product against the per-rank loop it replaced."""

    @pytest.mark.parametrize("ranks", [4, 5], ids=["uniform", "ragged"])
    @pytest.mark.parametrize("x_storage,out_storage", [
        ("fp64", "fp64"), ("fp64", "fp32"), ("fp64", "bf16"),
        ("fp32", "bf16"), ("bf16", "fp64")])
    def test_bitwise_equal_to_per_rank(self, ranks, x_storage, out_storage,
                                       rng):
        a = laplace2d(12)
        part = Partition(a.shape[0], ranks)
        comm = SimComm(generic_cpu(), ranks)
        da = DistSparseMatrix(a, part, comm)
        x = DistMultiVector.from_global(rng.standard_normal(a.shape[0]),
                                        part, comm, storage=x_storage)
        out = DistMultiVector.zeros(part, comm, 1, storage=out_storage)
        assert (out.stack is not None) == (ranks == 4)
        _assert_matches_reference(da, x, out)

    def test_strided_basis_columns(self, comm4, rng):
        a = laplace2d(12)
        part = Partition(a.shape[0], 4)
        da = DistSparseMatrix(a, part, comm4)
        basis = DistMultiVector.from_global(
            rng.standard_normal((a.shape[0], 5)), part, comm4)
        x, out = basis.view_cols(1), basis.view_cols(2)
        assert not x.stack.flags.c_contiguous
        before = basis.to_global()
        _assert_matches_reference(da, x, out)
        after = basis.to_global()
        np.testing.assert_array_equal(after[:, [0, 1, 3, 4]],
                                      before[:, [0, 1, 3, 4]])

    @pytest.mark.parametrize("ranks", [4, 5], ids=["uniform", "ragged"])
    def test_noncanonical_csr(self, ranks, rng):
        a = _noncanonical(laplace2d(12), rng)
        part = Partition(a.shape[0], ranks)
        comm = SimComm(generic_cpu(), ranks)
        da = DistSparseMatrix(a, part, comm)
        x = DistMultiVector.from_global(rng.standard_normal(a.shape[0]),
                                        part, comm)
        out = DistMultiVector.zeros(part, comm, 1)
        _assert_matches_reference(da, x, out)


class TestChargeCaches:
    @staticmethod
    def _count_cost_calls(monkeypatch) -> dict[str, int]:
        calls = {"spmv": 0, "halo_exchange": 0}
        for name in calls:
            original = getattr(CostModel, name)

            def counted(self, *args, _name=name, _orig=original, **kwargs):
                calls[_name] += 1
                return _orig(self, *args, **kwargs)
            monkeypatch.setattr(CostModel, name, counted)
        return calls

    @pytest.mark.parametrize("ranks", [4, 5], ids=["uniform", "ragged"])
    def test_repeat_products_evaluate_no_costs(self, ranks, monkeypatch, rng):
        sim = Simulation(laplace2d(12), ranks=ranks, machine=generic_cpu())
        x = sim.vector_from(rng.standard_normal(sim.n))
        out = DistMultiVector.zeros(sim.partition, sim.comm, 1)
        calls = self._count_cost_calls(monkeypatch)
        sim.matrix.matvec(x, out=out)
        assert calls == {"spmv": ranks, "halo_exchange": ranks}
        clock = sim.tracer.clock
        for _ in range(3):
            sim.matrix.matvec(x, out=out)
        assert calls == {"spmv": ranks, "halo_exchange": ranks}
        assert sim.tracer.clock == clock * 4

    def test_new_word_size_and_cost_model_reevaluate(self, monkeypatch, rng):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        x = sim.vector_from(rng.standard_normal(sim.n))
        calls = self._count_cost_calls(monkeypatch)
        sim.matrix.matvec(x)
        x32 = DistMultiVector.from_global(x.to_global(), sim.partition,
                                          sim.comm, storage="fp32")
        sim.matrix.matvec(x32, out=DistMultiVector.zeros(
            sim.partition, sim.comm, 1, storage="fp32"))
        assert calls == {"spmv": 8, "halo_exchange": 8}
        sim.comm.cost = CostModel(sim.comm.cost.machine)  # equal, not same
        sim.matrix.matvec(x)
        assert calls == {"spmv": 12, "halo_exchange": 12}

    def test_metrics_enabled_after_caching_still_counted(self, monkeypatch,
                                                        rng):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        x = sim.vector_from(rng.standard_normal(sim.n))
        with sim.tracer.phase("spmv"):
            sim.matrix.matvec(x)  # fills the charge caches
        sim.enable_metrics()
        calls = self._count_cost_calls(monkeypatch)
        with sim.tracer.phase("spmv"):
            sim.matrix.matvec(x)
            sim.matrix.matvec(x)
        # every product evaluates per rank while metrics are on
        assert calls == {"spmv": 8, "halo_exchange": 8}
        ref = MetricsRegistry(sim.machine, sim.ranks)
        cost = CostModel(sim.machine, metrics=ref)
        da = sim.matrix
        for _ in range(2):
            for rank, block in enumerate(da.local_blocks):
                cost.spmv(block.nnz, block.shape[0],
                          da.partition.local_count(rank)
                          + int(da.halo.halo_counts[rank]))
            ref.observe("spmv", "spmv_local", 0.0, 1, None, False)
        key = ("spmv", "spmv_local")
        assert ref.flops[key] > 0.0
        assert sim.metrics.flops[key] == ref.flops[key]
        assert sim.metrics.mem_bytes[key] == ref.mem_bytes[key]
        assert sim.metrics.calls[key] == 2


class TestHaloPlan:
    def test_block_diagonal_has_no_halo(self, comm4):
        blocks = [sp.random(10, 10, density=0.5, random_state=1) + sp.eye(10)
                  for _ in range(4)]
        a = sp.block_diag(blocks).tocsr()
        part = Partition(40, 4)
        da = DistSparseMatrix(a, part, comm4)
        assert all(not peers for peers in da.halo.recv_bytes())
        assert np.all(da.halo.halo_counts == 0)

    def test_tridiagonal_touches_neighbours_only(self, comm4):
        n = 40
        a = sp.diags([np.ones(n - 1), 2 * np.ones(n), np.ones(n - 1)],
                     [-1, 0, 1]).tocsr()
        part = Partition(n, 4)
        da = DistSparseMatrix(a, part, comm4)
        for rank, peers in enumerate(da.halo.recv_bytes()):
            for peer in peers:
                assert abs(peer - rank) == 1
        # interior ranks see exactly two external entries (one per side)
        assert da.halo.halo_counts[1] == 2

    def test_laplace2d_halo_is_one_grid_row(self, comm4):
        nx = 12
        a = laplace2d(nx)
        part = Partition(nx * nx, 4)
        da = DistSparseMatrix(a, part, comm4)
        # interior ranks need one grid row from each side
        assert da.halo.halo_counts[1] == 2 * nx

    def test_diagonal_and_shape(self, comm4):
        a = laplace2d(6)
        part = Partition(36, 4)
        da = DistSparseMatrix(a, part, comm4)
        np.testing.assert_array_equal(da.diagonal(), a.diagonal())
        assert da.shape == (36, 36)
        assert da.nnz == a.nnz

    def test_to_scipy_roundtrip(self, comm4):
        a = laplace2d(6)
        da = DistSparseMatrix(a, Partition(36, 4), comm4)
        assert (da.to_scipy() != a).nnz == 0

    def test_rectangular_rejected(self, comm4):
        with pytest.raises(ShapeError):
            DistSparseMatrix(sp.random(5, 6), Partition(5, 4), comm4)

    def test_partition_mismatch_rejected(self, comm4):
        with pytest.raises(ShapeError):
            DistSparseMatrix(laplace2d(6), Partition(35, 4), comm4)
