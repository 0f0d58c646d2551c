"""Host wall-time microbenchmarks of the library's hot kernels.

Unlike the artifact benches (which time *regenerating* a paper table),
these measure the real Python/NumPy execution speed of the core kernels —
the numbers a developer profiling this library cares about.

The ``test_block_dot`` / ``test_block_dot_fused`` / ``test_block_axpy`` /
``test_block_update`` / ``test_trsm`` benches run once per operand
layout in the many-ranks strong-scaling regime where per-rank Python
dispatch dominates: ``[stacked]`` operands carry the contiguous
``(ranks, rows, k)`` stack, so the kernel engine runs one batched kernel;
``[shards]`` operands are built from caller-supplied shards, have no
stack, and take the engine's per-shard path.
``scripts/compare_bench.py --check-speedup`` gates CI on the stacked path
staying >= 1.5x faster on block_dot and block_axpy — the reason the
engine runs stacked whenever it can.  Each layout bench also records the
*modeled* seconds one call charges (identical for both layouts), so
``BENCH_kernels.json`` tracks modeled vs. wall time.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla import blas
from repro.distla.multivector import DistMultiVector
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho.backend import DistBackend, NumpyBackend
from repro.ortho.base import BlockDriver
from repro.ortho.bcgs_pip import BCGSPIP2Scheme, bcgs_pip_panel
from repro.ortho.cholqr import CholQR2
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer

N = 120_000
K = 30

#: Layout-comparison setting: the strong-scaling regime (many ranks,
#: small per-rank shards) where the paper's machines actually operate and
#: where per-rank Python dispatch is the bottleneck the stacked kernels
#: remove.
ENGINE_N = 8_192
ENGINE_RANKS = 64

#: Operand layouts of the engine benches (see the module docstring).
LAYOUTS = ["shards", "stacked"]


@pytest.fixture
def dist_setup():
    comm = SimComm(generic_cpu(), 8, Tracer())
    part = Partition(N, 8)
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((N, K))
    # BCGS-PIP assumes an orthonormal prefix; orthonormalize columns 0..24
    q, _ = np.linalg.qr(arr[:, :25])
    arr[:, :25] = q
    basis = DistMultiVector.from_global(arr, part, comm)
    return comm, part, basis


def _operand(part, comm, arr, layout):
    """``arr`` distributed over ``part`` in the given operand layout."""
    if layout == "stacked":
        return DistMultiVector.from_global(arr, part, comm)
    return DistMultiVector(part, comm, [np.array(arr[part.local_slice(r)])
                                        for r in range(part.ranks)])


@pytest.fixture(params=LAYOUTS)
def engine_setup(request, benchmark):
    """Strong-scaling operands for the layout comparison benches:
    ``(comm, make, basis)`` with ``make(k)`` a zero k-column operand in
    the same layout as ``basis``."""
    layout = request.param
    benchmark.extra_info["layout"] = layout
    benchmark.extra_info["ranks"] = ENGINE_RANKS
    comm = SimComm(generic_cpu(), ENGINE_RANKS, Tracer())
    part = Partition(ENGINE_N, ENGINE_RANKS)
    rng = np.random.default_rng(0)
    basis = _operand(part, comm, rng.standard_normal((ENGINE_N, K)), layout)
    assert (basis.stack is None) == (layout == "shards")

    def make(k):
        return _operand(part, comm, np.zeros((ENGINE_N, k)), layout)

    return comm, make, basis


def _bench_layout(benchmark, comm, op):
    """Benchmark ``op``, recording modeled seconds too."""
    before = comm.tracer.clock
    op()
    benchmark.extra_info["modeled_seconds"] = comm.tracer.clock - before
    benchmark(op)


def test_block_dot(benchmark, engine_setup):
    comm, _, basis = engine_setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    _bench_layout(benchmark, comm, lambda: blas.block_dot(q, v))


def test_block_dot_fused(benchmark, engine_setup):
    comm, _, basis = engine_setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    _bench_layout(benchmark, comm,
                  lambda: blas.block_dot_multi([(q, v), (v, v)]))


def test_block_axpy(benchmark, engine_setup):
    comm, make, basis = engine_setup
    v = basis.view_cols(slice(25, 30))
    out = make(5)
    _bench_layout(benchmark, comm,
                  lambda: blas.lincomb(out, [(1.0, out), (-0.5, v)]))


def test_block_update(benchmark, engine_setup):
    comm, _, basis = engine_setup
    q = basis.view_cols(slice(0, 25))
    v = basis.view_cols(slice(25, 30))
    r = np.zeros((25, 5))
    _bench_layout(benchmark, comm, lambda: blas.block_update(v, q, r))


def test_trsm(benchmark, engine_setup):
    comm, _, basis = engine_setup
    v = basis.view_cols(slice(25, 30))
    # Identity R: full dtrsm work, but iterating the bench cannot drift v
    # into denormals/overflow and skew the timing.
    r = np.eye(5)
    _bench_layout(benchmark, comm, lambda: blas.trsm_inplace(v, r))


def test_bcgs_pip_panel(benchmark, dist_setup):
    comm, part, basis = dist_setup
    backend = DistBackend(comm)
    work = basis.copy()

    def op():
        w = work.copy()
        return bcgs_pip_panel(backend, w, 25, 25, 30)

    benchmark(op)


def test_cholqr2_numpy(benchmark, rng=np.random.default_rng(1)):
    v = logscaled_matrix(N, 5, 1e4, rng)
    nb = NumpyBackend()
    benchmark(lambda: CholQR2().factor(nb, v.copy()))


def test_full_driver_pip2(benchmark):
    rng = np.random.default_rng(2)
    v = logscaled_matrix(40_000, 30, 1e4, rng)
    benchmark(lambda: BlockDriver(BCGSPIP2Scheme(), 5).run(v))


def test_full_driver_two_stage(benchmark):
    rng = np.random.default_rng(2)
    v = logscaled_matrix(40_000, 30, 1e4, rng)
    benchmark(lambda: BlockDriver(TwoStageScheme(big_step=30), 5).run(v))


def test_spmv_distributed(benchmark):
    sim = Simulation(laplace2d(120), ranks=8, machine=generic_cpu())
    x = sim.vector_from(np.random.default_rng(3).standard_normal(sim.n))
    out = sim.zeros(1)
    benchmark(lambda: sim.matrix.matvec(x, out=out))


def test_sstep_gmres_one_cycle(benchmark):
    from repro.krylov.sstep_gmres import sstep_gmres
    a = laplace2d(60)

    def solve():
        sim = Simulation(a, ranks=4, machine=generic_cpu())
        return sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=30,
                           tol=1e-30, maxiter=30)

    benchmark(solve)
