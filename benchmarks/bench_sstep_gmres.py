"""End-to-end s-step GMRES solver benchmarks -> ``BENCH_gmres.json``.

The solver-level baseline CI gates: one full solve per configuration on
a 2-D Laplacian, covering the paper's classical pipeline (BCGS-PIP2 and
the two-stage scheme) plus the randomized
solve path added with the sketching subsystem (fused
``SketchedTwoStageScheme`` + ``solve_mode="sketched"``).  Each bench
asserts its qualitative claim (convergence; the two-stage
synchronization advantage; the fused scheme's one-collective stage
passes) and records the *modeled* solver seconds and synchronization
counts as ``extra_info`` so modeled and wall time travel together in
the artifact.
"""

from __future__ import annotations

from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.randomized import SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

NX = 24          # 576 unknowns
RANKS = 8
S = 5
RESTART = 30
TOL = 1e-8


def _solve(scheme_factory, options=None):
    sim = Simulation(laplace2d(NX), ranks=RANKS, machine=generic_cpu())
    b = sim.ones_solution_rhs()
    return sstep_gmres(sim, b, s=S, restart=RESTART, tol=TOL,
                       maxiter=6000, scheme=scheme_factory(),
                       options=options)


def _record(benchmark, res):
    benchmark.extra_info["ranks"] = RANKS
    benchmark.extra_info["n"] = NX * NX
    benchmark.extra_info["iterations"] = res.iterations
    benchmark.extra_info["sync_count"] = res.sync_count
    benchmark.extra_info["modeled_seconds"] = res.total_time


def test_solve_two_stage(benchmark, check):
    factory = lambda: TwoStageScheme(big_step=RESTART)  # noqa: E731
    res = _solve(factory)
    check(res.converged, "two-stage s-step GMRES converges on the "
                         "Laplacian")
    _record(benchmark, res)
    benchmark(lambda: _solve(factory))


def test_solve_bcgs_pip2(benchmark, check):
    res = _solve(BCGSPIP2Scheme)
    two = _solve(lambda: TwoStageScheme(big_step=RESTART))
    check(res.converged, "BCGS-PIP2 s-step GMRES converges")
    check(two.sync_count / max(two.iterations, 1)
          < res.sync_count / max(res.iterations, 1),
          "two-stage charges fewer synchronizations per iteration than "
          "one-stage BCGS-PIP2 (the paper's core claim)")
    _record(benchmark, res)
    benchmark(lambda: _solve(BCGSPIP2Scheme))


def test_solve_rgs_sketched(benchmark, check):
    """The randomized solve path: fused sketched two-stage scheme plus
    sketch-space least squares."""
    factory = lambda: SketchedTwoStageScheme(  # noqa: E731
        big_step=RESTART, fused=True)
    res = _solve(factory, options=SolverOptions(solve_mode="sketched"))
    classical = _solve(lambda: TwoStageScheme(big_step=RESTART))
    check(res.converged, "randomized GMRES converges on the Laplacian")
    check(res.diagnostics.get("solve_mode") == "sketched",
          "sketched solve path emits diagnostics")
    check(res.sync_count <= classical.sync_count
          * max(res.iterations, 1) / max(classical.iterations, 1) * 1.5,
          "fused single-collective stage passes keep the sketched solve "
          "in the same synchronization regime as the classical two-stage")
    _record(benchmark, res)
    benchmark(lambda: _solve(factory,
                             options=SolverOptions(solve_mode="sketched")))
