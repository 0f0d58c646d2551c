"""The kernel engine: stacked vs per-shard equivalence, costs, fallbacks.

:class:`BatchedEngine` runs a kernel stacked when its operands carry a
``(ranks, rows, k)`` stack and per shard (the inherited
:class:`LoopEngine` bodies) otherwise.  Choosing between the two must be
a pure execution-strategy change: on every partition shape (uniform and
ragged) the stacked path has to match the per-shard reference at FP64
tolerance — bitwise for elementwise kernels and the reduction tree — and
charge *identical* modeled costs, so paper artifacts never depend on
which path ran.  The tests call both engine classes directly.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro
from repro.distla import blas
from repro.distla import engine as dengine
from repro.distla.engine import BatchedEngine, LoopEngine
from repro.distla.multivector import DistMultiVector
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch.operators import SparseSignSketch

N_UNIFORM = 96   # divisible by 8 -> uniform partition, stacked storage
N_RAGGED = 101   # prime-ish -> ragged partition, per-shard path
RANKS = 8
KQ, KV = 6, 3


def make_comm():
    return SimComm(generic_cpu(), RANKS, Tracer())


def apply_ops(engine: LoopEngine, n: int):
    """Run one of every costed kernel on ``engine``; return
    (results, tracer)."""
    part = Partition(n, RANKS)
    comm = make_comm()
    rng = np.random.default_rng(7)
    q = DistMultiVector.from_global(rng.standard_normal((n, KQ)), part, comm)
    v = DistMultiVector.from_global(rng.standard_normal((n, KV)), part, comm)
    out = DistMultiVector.zeros(part, comm, KV)
    small = DistMultiVector.zeros(part, comm, 1)
    r_proj = rng.standard_normal((KQ, KV))
    r_tri = np.triu(rng.standard_normal((KV, KV))) + 3.0 * np.eye(KV)
    coeffs = rng.standard_normal((KV, 1))
    results = [
        engine.block_dot(q, v),
        *engine.block_dot_multi([(q, v), (v, v)]),
        engine.column_norms(q),
    ]
    engine.block_update(v, q, r_proj)
    engine.trsm_inplace(v, r_tri)
    engine.scale_columns(v, np.array([2.0, -1.0, 0.5]))
    engine.lincomb(out, [(2.0, v), (-1.0, v)])
    engine.copy_into(out, v)
    engine.matvec_small(v, coeffs, small)
    results += [v.to_global(), out.to_global(), small.to_global()]
    return results, comm.tracer


@pytest.mark.parametrize("n", [N_UNIFORM, N_RAGGED],
                         ids=["uniform", "ragged"])
class TestEngineEquivalence:
    def test_results_match(self, n):
        loop, _ = apply_ops(LoopEngine(), n)
        batched, _ = apply_ops(BatchedEngine(), n)
        for got, want in zip(batched, loop):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)

    def test_charged_costs_identical(self, n):
        _, t_loop = apply_ops(LoopEngine(), n)
        _, t_batched = apply_ops(BatchedEngine(), n)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)

    def test_reduction_tree_bitwise(self, n):
        """Tree-sum folds identically whether vectorized or per-rank."""
        part = Partition(n, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(11)
        x = DistMultiVector.from_global(rng.standard_normal((n, KQ)),
                                        part, comm)
        ref = LoopEngine().block_dot(x, x)
        got = BatchedEngine().block_dot(x, x)
        np.testing.assert_array_equal(got, ref)


class TestStackedStorage:
    def test_uniform_constructors_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        assert mv.stack is not None
        assert mv.stack.shape == (RANKS, N_UNIFORM // RANKS, KV)

    def test_ragged_has_no_stack(self):
        part = Partition(N_RAGGED, RANKS)
        comm = make_comm()
        assert DistMultiVector.zeros(part, comm, KV).stack is None

    def test_shards_alias_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        mv.shards[3][0, 1] = 42.0
        assert mv.stack[3, 0, 1] == 42.0
        mv.stack[5, 1, 2] = -1.0
        assert mv.shards[5][1, 2] == -1.0

    def test_column_views_keep_stack(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        mv = DistMultiVector.zeros(part, comm, KV)
        view = mv.view_cols(slice(1, 3))
        assert view.stack is not None
        view.stack[...] = 3.0
        assert float(mv.shards[0][0, 1]) == 3.0
        assert float(mv.shards[0][0, 0]) == 0.0

    def test_caller_supplied_shards_fall_back(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        shards = [np.zeros((part.local_count(r), KV)) for r in range(RANKS)]
        mv = DistMultiVector(part, comm, shards)
        assert mv.stack is None
        # the engine must still work (per-shard path), with equal costs
        blas.scale_columns(mv, np.ones(KV))
        assert comm.tracer.clock > 0

    def test_mixed_stacked_unstacked_operands(self):
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(3)
        arr = rng.standard_normal((N_UNIFORM, KV))
        stacked = DistMultiVector.from_global(arr, part, comm)
        unstacked = DistMultiVector(
            part, comm, [np.array(arr[part.local_slice(r)], copy=True)
                         for r in range(RANKS)])
        got = blas.block_dot(stacked, unstacked)
        np.testing.assert_allclose(got, arr.T @ arr, rtol=1e-13)


@pytest.mark.parametrize("ranks", [3, 8])
@pytest.mark.parametrize("n", [N_UNIFORM, N_RAGGED],
                         ids=["uniform", "ragged"])
class TestSketchDotEngineEquivalence:
    """The sparse-sign sketch product ``S @ V`` is an
    execution-strategy-free operation: stacked and per-shard paths must
    produce bit-identical sketches and charge identical modeled costs on
    every partition shape."""

    M_ROWS = 24

    def run_sketch(self, engine, n, ranks):
        part = Partition(n, ranks)
        comm = SimComm(generic_cpu(), ranks, Tracer())
        rng = np.random.default_rng(23)
        v = DistMultiVector.from_global(rng.standard_normal((n, KV)),
                                        part, comm)
        out = engine.sketch_apply(v, SparseSignSketch(n, self.M_ROWS,
                                                      seed=42))
        return out, comm.tracer

    def test_bit_identical(self, n, ranks):
        loop, _ = self.run_sketch(LoopEngine(), n, ranks)
        batched, _ = self.run_sketch(BatchedEngine(), n, ranks)
        np.testing.assert_array_equal(batched, loop)

    def test_charged_costs_identical(self, n, ranks):
        _, t_loop = self.run_sketch(LoopEngine(), n, ranks)
        _, t_batched = self.run_sketch(BatchedEngine(), n, ranks)
        assert t_batched.clock == t_loop.clock
        assert dict(t_batched.by_kernel) == dict(t_loop.by_kernel)
        assert dict(t_batched.counts) == dict(t_loop.counts)

    def test_one_synchronization(self, n, ranks):
        _, tracer = self.run_sketch(BatchedEngine(), n, ranks)
        assert tracer.sync_count() == 1


def _public_callables():
    """``(qualified name, callable)`` for every public function and
    class defined under :mod:`repro`."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) \
                    != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj


class TestEngineSelection:
    """The one engine picks stacked or per-shard execution per call,
    from its operands; nothing else selects it."""

    def test_costed_calls_share_one_batched_engine(self):
        assert type(dengine.ENGINE) is BatchedEngine
        assert blas.ENGINE is dengine.ENGINE

    def test_no_public_callable_accepts_engine(self):
        offenders = []
        for qualname, obj in _public_callables():
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            if "engine" in params:
                offenders.append(qualname)
        assert offenders == []

    def test_stream_cutoff_preserves_results(self):
        """Above the cache cutoff the engine runs per shard; results must
        not depend on where the cutoff sits."""
        part = Partition(N_UNIFORM, RANKS)
        comm = make_comm()
        rng = np.random.default_rng(9)
        v = DistMultiVector.from_global(
            rng.standard_normal((N_UNIFORM, KV)), part, comm)
        out = DistMultiVector.zeros(part, comm, KV)
        eng = BatchedEngine()
        tiny = BatchedEngine()
        tiny.stream_elems_max = 0  # force the per-shard path
        eng.lincomb(out, [(1.0, v), (0.5, v)])
        ref = out.to_global().copy()
        tiny.lincomb(out, [(1.0, v), (0.5, v)])
        np.testing.assert_array_equal(out.to_global(), ref)
