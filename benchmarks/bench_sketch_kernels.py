"""Wall-time microbenchmarks of the random-sketching subsystem.

Emits the ``BENCH_sketch.json`` artifact (see ``conftest.py``'s alias
map).  Three groups:

* ``test_sketch_apply`` — the distributed shard-local sketch for all
  three operator families, in the many-ranks strong-scaling regime of
  ``bench_kernels.py``; each bench records the *modeled* seconds one
  application charges.
* ``test_sketched_cholqr`` — the randomized intra-block factorization
  on the distributed backend.
* ``test_driver_*`` — full :class:`BlockDriver` runs of the randomized
  inter-block schemes at a condition number (1e12) where the classical
  two-stage scheme breaks down, asserting the stability claim the
  subsystem exists for while timing it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distla.multivector import DistMultiVector
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho import get_intra_qr, get_scheme
from repro.ortho.analysis import orthogonality_error
from repro.ortho.backend import DistBackend
from repro.ortho.base import BlockDriver
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer
from repro.sketch import make_operator, sketch_multivector, sketch_rows

#: Strong-scaling regime of the layout benches in ``bench_kernels.py``.
ENGINE_N = 8_192
ENGINE_RANKS = 64
K = 30


@pytest.fixture
def sketch_setup():
    comm = SimComm(generic_cpu(), ENGINE_RANKS, Tracer())
    part = Partition(ENGINE_N, ENGINE_RANKS)
    rng = np.random.default_rng(0)
    basis = DistMultiVector.from_global(
        rng.standard_normal((ENGINE_N, K)), part, comm)
    return comm, part, basis


@pytest.mark.parametrize("family", ["sparse", "gaussian", "srht"])
def test_sketch_apply(benchmark, sketch_setup, family):
    comm, part, basis = sketch_setup
    m = sketch_rows(K, ENGINE_N, family=family)
    op = make_operator(family, ENGINE_N, m, seed=0xC0FFEE)
    before = comm.tracer.clock
    sketch_multivector(basis, op)
    benchmark.extra_info["family"] = family
    benchmark.extra_info["ranks"] = ENGINE_RANKS
    benchmark.extra_info["m_rows"] = m
    benchmark.extra_info["modeled_seconds"] = comm.tracer.clock - before
    benchmark(lambda: sketch_multivector(basis, op))


def test_sketched_cholqr(benchmark):
    comm = SimComm(generic_cpu(), 8, Tracer())
    part = Partition(120_000, 8)
    rng = np.random.default_rng(1)
    v = logscaled_matrix(120_000, 5, 1e10, rng)
    dv = DistMultiVector.from_global(v, part, comm)
    kernel = get_intra_qr("sketched_cholqr")()
    backend = DistBackend(comm)
    work = dv.copy()

    def op():
        w = work.copy()
        return kernel.factor(backend, w)

    benchmark(op)


def _driver_bench(benchmark, check, scheme_name, **scheme_kw):
    rng = np.random.default_rng(2)
    v = logscaled_matrix(40_000, K, 1e12, rng)
    scheme = get_scheme(scheme_name)(**scheme_kw)
    result = BlockDriver(scheme, 5).run(v)
    check(orthogonality_error(result.q) < 1e-11,
          f"{scheme_name} must stay O(eps)-orthogonal at kappa=1e12, "
          f"past the classical Pythagorean-Cholesky cliff")
    benchmark(lambda: BlockDriver(scheme, 5).run(v))


def test_driver_rbcgs(benchmark, check):
    _driver_bench(benchmark, check, "rbcgs")


def test_driver_sketched_two_stage(benchmark, check):
    _driver_bench(benchmark, check, "sketched-two-stage", big_step=K)
