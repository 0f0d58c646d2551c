"""Randomized inter-block schemes: stability, determinism, solver use."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import EPS
from repro.distla.multivector import DistMultiVector
from repro.exceptions import CholeskyBreakdownError
from repro.matrices.stencil import laplace2d
from repro.matrices.synthetic import logscaled_matrix
from repro.ortho import (
    BlockDriver,
    NumpyBackend,
    RBCGSScheme,
    SketchedTwoStageScheme,
    TwoStageScheme,
)
from repro.ortho.analysis import orthogonality_error
from repro.ortho.backend import DistBackend
from repro.parallel.partition import Partition


def drive(scheme, v, s=5):
    return BlockDriver(scheme, s).run(v)


class TestRBCGS:
    def test_well_conditioned_qr(self, rng):
        v = logscaled_matrix(2000, 20, 1e3, rng)
        res = drive(RBCGSScheme(), v)
        assert orthogonality_error(res.q) < 100 * EPS
        np.testing.assert_allclose(res.q @ res.r, v, rtol=1e-9, atol=1e-10)
        assert np.allclose(res.r, np.triu(res.r))

    @pytest.mark.parametrize("kappa", [1e12, 1e15])
    def test_survives_extreme_conditioning(self, rng, kappa):
        v = logscaled_matrix(3000, 20, kappa, rng)
        res = drive(RBCGSScheme(), v)
        assert orthogonality_error(res.q) < 1e-12

    @pytest.mark.parametrize("family", ["sparse", "gaussian", "srht"])
    def test_operator_families(self, rng, family):
        v = logscaled_matrix(1500, 10, 1e8, rng)
        res = drive(RBCGSScheme(operator=family), v)
        assert orthogonality_error(res.q) < 1e-12

    def test_no_reorth_still_bounded(self, rng):
        v = logscaled_matrix(2000, 20, 1e4, rng)
        res = drive(RBCGSScheme(reorth=False), v)
        # single projection pass: error grows like kappa * eps (classical
        # BCGS behaviour) but never breaks down
        assert orthogonality_error(res.q) < 1e-8

    def test_reuse_is_deterministic(self, rng):
        v = logscaled_matrix(1000, 20, 1e10, rng)
        scheme = RBCGSScheme()
        a = drive(scheme, v)
        b = drive(scheme, v)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.q, b.q)

    def test_cycles_draw_distinct_operators(self, rng):
        scheme = RBCGSScheme()
        nb = NumpyBackend()
        basis = rng.standard_normal((500, 10))
        r = np.zeros((10, 10))
        scheme.begin_cycle(nb, basis.copy(), r, cycle=0)
        op0 = scheme._op
        scheme.begin_cycle(nb, basis.copy(), r, cycle=1)
        assert not np.array_equal(op0.matrix(), scheme._op.matrix())


class TestSketchedTwoStage:
    def test_matches_two_stage_contract(self, rng):
        """Same finality granularity and a valid QR on benign input."""
        v = logscaled_matrix(2000, 30, 1e4, rng)
        scheme = SketchedTwoStageScheme(big_step=15)
        assert scheme.finality == "big_panel"
        res = drive(scheme, v)
        assert orthogonality_error(res.q) < 100 * EPS
        np.testing.assert_allclose(res.q @ res.r, v, rtol=1e-9, atol=1e-10)

    @pytest.mark.parametrize("kappa", [1e12, 1e15])
    def test_converges_where_classical_breaks(self, rng, kappa):
        """The subsystem's acceptance claim: at kappa up to 1e15 the
        classical two-stage scheme breaks down (even with shifted
        recovery) while the sketched variant stays at O(eps)."""
        v = logscaled_matrix(3000, 30, kappa, rng)
        with pytest.raises(CholeskyBreakdownError):
            drive(TwoStageScheme(big_step=30, breakdown="shift"), v)
        res = drive(SketchedTwoStageScheme(big_step=30), v)
        assert orthogonality_error(res.q) < 1e-12
        rep = np.linalg.norm(res.q @ res.r - v) / np.linalg.norm(v)
        assert rep < 1e-10

    def test_reuse_is_deterministic(self, rng):
        v = logscaled_matrix(1000, 20, 1e10, rng)
        scheme = SketchedTwoStageScheme(big_step=20)
        a = drive(scheme, v)
        b = drive(scheme, v)
        np.testing.assert_array_equal(a.r, b.r)

    def test_partial_big_panel_flush(self, rng):
        """finish_cycle must flush a partly-filled big panel like the
        parent scheme."""
        v = logscaled_matrix(1500, 25, 1e6, rng)
        scheme = SketchedTwoStageScheme(big_step=20)
        res = drive(scheme, v)  # 25 cols: one big panel + 5-col flush
        assert scheme.final_cols == 25
        assert orthogonality_error(res.q) < 1e-13


class TestFusedSketchedTwoStage:
    """The single-collective (RGS-style) stage pass, fused=True."""

    def test_whitened_full_rank_basis(self, rng):
        """The fused pass trades l2 orthogonality for communication: it
        guarantees an exact factorization and a *numerically full-rank*
        whitened basis (condition knocked down orders of magnitude from
        the input, far from 1/eps), which is all the sketch-space solve
        needs.  The O(eps)-orthogonal variant is the unfused path."""
        v = logscaled_matrix(2000, 20, 1e12, rng)
        scheme = SketchedTwoStageScheme(big_step=10, fused=True)
        res = drive(scheme, v)
        rep = np.linalg.norm(res.q @ res.r - v) / np.linalg.norm(v)
        assert rep < 1e-12
        assert np.linalg.cond(res.q) < 1e12 / 10.0
        assert np.allclose(res.r, np.triu(res.r))
        assert scheme.basis_sketch.shape == (scheme._op.m_rows, 20)
        # on benign input the whitening is essentially exact
        v2 = logscaled_matrix(2000, 20, 1e2, rng)
        res2 = drive(SketchedTwoStageScheme(big_step=10, fused=True), v2)
        assert np.linalg.cond(res2.q) < 10.0

    def test_one_collective_per_stage_pass(self, comm4, rng, per_shard):
        """Acceptance: exactly one allreduce-equivalent collective per
        stage pass (stage-1 per panel + one per big panel), with
        identical charged costs and bit-identical results whether the
        kernel engine runs stacked or per shard."""
        n, k, s, bs = 600, 20, 5, 10
        v = logscaled_matrix(n, k, 1e10, rng)
        part = Partition(n, 4)
        from repro.parallel.communicator import SimComm
        from repro.parallel.machine import generic_cpu
        from repro.parallel.tracing import Tracer

        def run():
            tracer = Tracer()
            comm = SimComm(generic_cpu(), 4, tracer)
            dv = DistMultiVector.from_global(v, part, comm)
            scheme = SketchedTwoStageScheme(big_step=bs, fused=True)
            r = np.zeros((k, k))
            scheme.begin_cycle(DistBackend(comm), dv, r)
            snap = tracer.snapshot()
            for lo in range(0, k, s):
                scheme.panel_arrived(lo, lo + s)
            scheme.finish_cycle()
            totals = tracer.since(snap)
            allreduces = sum(
                c for (_, kern), c in totals.counts.items()
                if kern == "allreduce")
            return dv.to_global(), r.copy(), allreduces, totals.clock

        outputs = {"batched": run()}
        with per_shard():
            outputs["loop"] = run()
        stage_passes = k // s + k // bs  # 4 stage-1 + 2 big-panel
        assert outputs["loop"][2] == stage_passes
        assert outputs["batched"][2] == stage_passes
        assert outputs["loop"][3] == outputs["batched"][3]
        np.testing.assert_array_equal(outputs["loop"][0],
                                      outputs["batched"][0])
        np.testing.assert_array_equal(outputs["loop"][1],
                                      outputs["batched"][1])

    def test_fewer_syncs_than_unfused(self, rng):
        """fused=True must charge 3x fewer collectives than the unfused
        sketched scheme on the NumPy-free distributed path."""
        from repro.parallel.communicator import SimComm
        from repro.parallel.machine import generic_cpu
        from repro.parallel.tracing import Tracer
        n, k = 400, 20
        v = logscaled_matrix(n, k, 1e8, rng)
        part = Partition(n, 4)
        counts = {}
        for fused in (False, True):
            tracer = Tracer()
            comm = SimComm(generic_cpu(), 4, tracer)
            dv = DistMultiVector.from_global(v, part, comm)
            scheme = SketchedTwoStageScheme(big_step=10, fused=fused)
            r = np.zeros((k, k))
            scheme.begin_cycle(DistBackend(comm), dv, r)
            for lo in range(0, k, 5):
                scheme.panel_arrived(lo, lo + 5)
            scheme.finish_cycle()
            counts[fused] = sum(c for (_, kern), c in tracer.counts.items()
                                if kern == "allreduce")
        # fused: 1 per stage pass (4 stage-1 + 2 big-panel); unfused: 3
        # per pass except the two prefix-free lo=0 passes (2 each)
        assert counts[True] == 6
        assert counts[False] == 16

    def test_reuse_is_deterministic(self, rng):
        v = logscaled_matrix(1000, 20, 1e10, rng)
        scheme = SketchedTwoStageScheme(big_step=20, fused=True)
        a = drive(scheme, v)
        b = drive(scheme, v)
        np.testing.assert_array_equal(a.r, b.r)
        np.testing.assert_array_equal(a.q, b.q)

    def test_survives_extreme_conditioning(self, rng):
        """At kappa=1e15 the whitened basis stays numerically full rank
        and the factorization stays exact — the RGS contract."""
        v = logscaled_matrix(3000, 20, 1e15, rng)
        res = drive(SketchedTwoStageScheme(big_step=20, fused=True), v)
        rep = np.linalg.norm(res.q @ res.r - v) / np.linalg.norm(v)
        assert rep < 1e-10
        sv = np.linalg.svd(res.q, compute_uv=False)
        assert sv[-1] > 0.0 and np.linalg.cond(res.q) < 0.1 / EPS


class TestDistributedEquivalence:
    @pytest.mark.parametrize("make_scheme", [
        lambda: RBCGSScheme(),
        lambda: SketchedTwoStageScheme(big_step=10),
    ], ids=["rbcgs", "sketched-two-stage"])
    def test_numpy_vs_dist_and_loop_vs_batched(self, comm4, rng,
                                               make_scheme, per_shard):
        n, k = 600, 10
        v = logscaled_matrix(n, k, 1e8, rng)
        ref = drive(make_scheme(), v)
        part = Partition(n, 4)

        def run():
            dv = DistMultiVector.from_global(v, part, comm4)
            scheme = make_scheme()
            r = np.zeros((k, k))
            scheme.begin_cycle(DistBackend(comm4), dv, r)
            for lo in range(0, k, 5):
                scheme.panel_arrived(lo, lo + 5)
            scheme.finish_cycle()
            return dv.to_global(), r.copy()

        outputs = {"batched": run()}
        with per_shard():
            outputs["loop"] = run()
        # stacked and per-shard kernels agree bitwise on the full
        # scheme output
        np.testing.assert_array_equal(outputs["loop"][0],
                                      outputs["batched"][0])
        np.testing.assert_array_equal(outputs["loop"][1],
                                      outputs["batched"][1])
        # and the distributed run matches the NumPy substrate's quality
        q, r = outputs["loop"]
        assert orthogonality_error(q) < 1e-12
        np.testing.assert_allclose(r, ref.r, rtol=1e-6, atol=1e-9)


class TestInSStepGMRES:
    @pytest.mark.parametrize("make_scheme", [
        lambda: RBCGSScheme(),
        lambda: SketchedTwoStageScheme(big_step=10),
    ], ids=["rbcgs", "sketched-two-stage"])
    def test_solver_converges(self, make_scheme):
        from repro.krylov.simulation import Simulation
        from repro.krylov.sstep_gmres import sstep_gmres
        from repro.parallel.machine import generic_cpu
        sim = Simulation(laplace2d(16), ranks=4, machine=generic_cpu())
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                          tol=1e-8, scheme=make_scheme())
        assert res.converged
        np.testing.assert_allclose(res.x, np.ones(sim.n), rtol=1e-6,
                                   atol=1e-6)
