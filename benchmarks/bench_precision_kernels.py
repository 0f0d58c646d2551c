"""Wall-time + modeled-cost benchmarks of the multi-precision subsystem.

Emits the ``BENCH_precision.json`` artifact (see ``conftest.py``'s alias
map).  Three groups:

* ``test_block_dot`` / ``test_block_update`` — the hot costed-BLAS
  kernels over fp64 vs fp32 storage, in a
  bandwidth-bound regime (15k rows per rank).  Each bench records the
  *modeled* seconds one call charges and asserts the storage-precision
  claim the subsystem exists for: fp32 panels are charged roughly half
  the fp64 bytes, so the bytes-dominated modeled time drops
  accordingly.
* ``test_driver_mixed_two_stage`` — the dd-Gram two-stage scheme at a
  condition number (1e9) past the classical Pythagorean-Cholesky cliff,
  asserting the classical scheme breaks down where the mixed-precision
  scheme stays O(eps)-orthogonal while timing the mixed run.
* ``test_gmres_ir_fp32`` — end-to-end GMRES-IR: fp32-storage inner
  solves + fp64 refinement reach fp64-level true backward error.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla import blas as dblas
from repro.distla.multivector import DistMultiVector
from repro.exceptions import CholeskyBreakdownError
from repro.krylov.ir import gmres_ir
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.ortho.analysis import orthogonality_error
from repro.ortho.base import BlockDriver
from repro.ortho.registry import get_scheme
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.utils.rng import default_rng, random_with_condition

#: Bandwidth-bound regime: big local shards so the cost model's bytes
#: term dominates its latency term.
N = 120_000
RANKS = 8
KQ = 30
KV = 5


def _operands(storage: str):
    comm = SimComm(generic_cpu(), RANKS, Tracer())
    part = Partition(N, RANKS)
    rng = np.random.default_rng(0)
    q = DistMultiVector.from_global(
        rng.standard_normal((N, KQ)), part, comm, storage=storage)
    v = DistMultiVector.from_global(
        rng.standard_normal((N, KV)), part, comm, storage=storage)
    return comm, q, v


def _modeled(comm, fn) -> float:
    before = comm.tracer.clock
    fn()
    return comm.tracer.clock - before


@pytest.mark.parametrize("storage", ["fp64", "fp32"])
def test_block_dot(benchmark, check, storage):
    comm, q, v = _operands(storage)
    modeled = _modeled(comm, lambda: dblas.block_dot(q, v))
    if storage == "fp32":
        comm64, q64, v64 = _operands("fp64")
        ref = _modeled(comm64, lambda: dblas.block_dot(q64, v64))
        check(modeled < 0.65 * ref,
              "fp32 storage must charge roughly half the fp64 bytes "
              "on the bandwidth-bound Gram GEMM")
    benchmark.extra_info["storage"] = storage
    benchmark.extra_info["ranks"] = RANKS
    benchmark.extra_info["modeled_seconds"] = modeled
    benchmark(lambda: dblas.block_dot(q, v))


@pytest.mark.parametrize("storage", ["fp64", "fp32"])
def test_block_update(benchmark, check, storage):
    comm, q, v = _operands(storage)
    r = np.random.default_rng(1).standard_normal((KQ, KV))
    modeled = _modeled(comm, lambda: dblas.block_update(v, q, r))
    if storage == "fp32":
        comm64, q64, v64 = _operands("fp64")
        ref = _modeled(comm64, lambda: dblas.block_update(v64, q64, r))
        check(modeled < 0.65 * ref,
              "fp32 storage must charge roughly half the fp64 bytes "
              "on the tall panel update")
    benchmark.extra_info["storage"] = storage
    benchmark.extra_info["ranks"] = RANKS
    benchmark.extra_info["modeled_seconds"] = modeled
    benchmark(lambda: dblas.block_update(v, q, r))


def test_driver_mixed_two_stage(benchmark, check):
    """dd-Gram two-stage past the classical cliff (kappa = 1e9)."""
    rng = default_rng(2)
    v = random_with_condition(10_000, KQ, 1e9, rng)
    classical = get_scheme("two-stage")(big_step=KQ, breakdown="shift")
    with pytest.raises(CholeskyBreakdownError):
        BlockDriver(classical, 5).run(v)
    mixed = get_scheme("mixed-two-stage")(big_step=KQ, breakdown="shift")
    result = BlockDriver(mixed, 5).run(v)
    check(orthogonality_error(result.q) < 1e-13,
          "mixed-precision (dd-Gram) two-stage must stay O(eps)-orthogonal "
          "at kappa=1e9, past the classical Pythagorean-Cholesky cliff")
    benchmark(lambda: BlockDriver(mixed, 5).run(v))


def test_gmres_ir_fp32(benchmark, check):
    """End-to-end: fp32-storage inner solves + fp64 refinement."""
    a = laplace2d(24)

    def solve():
        sim = Simulation(a, ranks=RANKS, machine=generic_cpu())
        b = sim.ones_solution_rhs()
        return gmres_ir(sim, b, precision="fp32", tol=1e-12, s=5,
                        restart=30), b

    res, b = solve()
    true_res = float(np.linalg.norm(b - a @ res.x) / np.linalg.norm(b))
    check(res.converged and true_res < 1e-11,
          "GMRES-IR over fp32 storage must reach fp64-level true "
          "backward error")
    benchmark.extra_info["refinements"] = res.diagnostics["refinements"]
    benchmark.extra_info["iterations"] = res.iterations
    benchmark.extra_info["modeled_seconds"] = res.total_time
    benchmark(lambda: solve())
