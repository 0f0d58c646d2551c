"""Distributed sketch application: stacked vs per-shard equivalence,
costs, syncs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla.engine import BatchedEngine, LoopEngine
from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import make_operator, sketch_multivector

FAMILIES = ["sparse", "gaussian", "srht"]
M_ROWS = 24
K = 3


def sketch_under(engine: LoopEngine, family: str, n: int, ranks: int,
                 seed: int = 17):
    comm = SimComm(generic_cpu(), ranks, Tracer())
    part = Partition(n, ranks)
    rng = np.random.default_rng(0)
    v = DistMultiVector.from_global(rng.standard_normal((n, K)), part, comm)
    op = make_operator(family, n, M_ROWS, seed=seed)
    out = engine.sketch_apply(v, op)
    return out, comm.tracer, op, v


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("ranks,n", [(4, 96), (8, 96), (8, 101), (3, 37)],
                         ids=["uniform4", "uniform8", "ragged8", "ragged3"])
class TestEngineEquivalence:
    def test_bit_identical_across_engines(self, family, ranks, n):
        loop, _, _, _ = sketch_under(LoopEngine(), family, n, ranks)
        batched, _, _, _ = sketch_under(BatchedEngine(), family, n, ranks)
        np.testing.assert_array_equal(batched, loop)

    def test_charged_costs_identical(self, family, ranks, n):
        _, t_loop, _, _ = sketch_under(LoopEngine(), family, n, ranks)
        _, t_batched, _, _ = sketch_under(BatchedEngine(), family, n, ranks)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)

    def test_matches_in_memory_apply(self, family, ranks, n):
        out, _, op, v = sketch_under(BatchedEngine(), family, n, ranks)
        ref = op.apply(v.to_global())
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-13)


class TestProtocol:
    def test_single_synchronization(self):
        for engine in (LoopEngine(), BatchedEngine()):
            _, tracer, _, _ = sketch_under(engine, "sparse", 96, 8)
            assert tracer.sync_count() == 1

    def test_rank_count_invariance(self):
        """The sketch is a property of (operator, V), not of the
        partition: different rank counts agree to reduction rounding."""
        ref, _, _, _ = sketch_under(LoopEngine(), "sparse", 96, 2)
        for ranks in (3, 8):
            out, _, _, _ = sketch_under(BatchedEngine(), "sparse", 96, ranks)
            np.testing.assert_allclose(out, ref, rtol=1e-13, atol=1e-14)

    def test_height_mismatch_rejected(self):
        comm = SimComm(generic_cpu(), 4, Tracer())
        part = Partition(96, 4)
        v = DistMultiVector.zeros(part, comm, K)
        op = make_operator("sparse", 97, M_ROWS, seed=0)
        with pytest.raises(ShapeError):
            sketch_multivector(v, op)


class TestFusedDotSketch:
    @pytest.mark.parametrize("n", [96, 101], ids=["uniform", "ragged"])
    def test_fused_matches_separate_and_one_sync(self, n):
        from repro.ortho.backend import DistBackend
        comm = SimComm(generic_cpu(), 8, Tracer())
        part = Partition(n, 8)
        rng = np.random.default_rng(5)
        q = DistMultiVector.from_global(rng.standard_normal((n, 4)),
                                        part, comm)
        v = DistMultiVector.from_global(rng.standard_normal((n, K)),
                                        part, comm)
        op = make_operator("sparse", n, M_ROWS, seed=9)
        backend = DistBackend(comm)
        for engine in (LoopEngine(), BatchedEngine()):
            before = comm.tracer.sync_count()
            (p,), sv = engine.fused_dot_sketch([(q, v)], v, op)
            assert comm.tracer.sync_count() - before == 1
            np.testing.assert_allclose(p, backend.dot(q, v), rtol=1e-13)
            np.testing.assert_array_equal(sv, backend.sketch(v, op))
