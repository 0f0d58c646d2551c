"""Sketch-space least squares + the sstep_gmres solve_mode switch."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.hessenberg import (
    least_squares_residual,
    sketched_least_squares,
)
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.randomized import RBCGSScheme, SketchedTwoStageScheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu

#: Each test so marked runs stacked ("batched") and per shard ("loop").
KERNEL_PATHS = pytest.mark.parametrize("kernel_path", ["loop", "batched"],
                                       indirect=True)


def make_sim(a, ranks=4):
    return Simulation(a, ranks=ranks, machine=generic_cpu())


def random_hessenberg(rng, c):
    h = np.triu(rng.standard_normal((c + 1, c)), -1)
    return h


class TestSketchedLeastSquares:
    def test_orthonormal_sketch_matches_classical(self, rng):
        """With an orthonormal sketched basis the sketch-space solve is
        the classical coordinate solve."""
        c = 8
        h = random_hessenberg(rng, c)
        rhs = rng.standard_normal(c + 1)
        sq, _ = np.linalg.qr(rng.standard_normal((4 * (c + 1), c + 1)))
        y_ref, r_ref = least_squares_residual(h, 1.0, rhs=rhs)
        y, resid, info = sketched_least_squares(sq, h, rhs)
        np.testing.assert_allclose(y, y_ref, rtol=1e-10, atol=1e-12)
        assert resid == pytest.approx(r_ref, rel=1e-10, abs=1e-14)
        assert info["basis_condition"] == pytest.approx(1.0, rel=1e-10)
        assert info["embedding_rows"] == 4 * (c + 1)
        assert not info["rank_deficient"]

    def test_minimizes_embedded_residual_on_skewed_basis(self, rng):
        """On a non-orthogonal basis the sketch-space minimizer beats the
        coordinate minimizer in the *embedded* (true-residual) metric."""
        c = 6
        h = random_hessenberg(rng, c)
        rhs = rng.standard_normal(c + 1)
        # a deliberately skewed "basis sketch": SV with cond ~ 1e6
        sq = (np.linalg.qr(rng.standard_normal((40, c + 1)))[0]
              * np.logspace(0, -6, c + 1)[np.newaxis, :])
        y, resid, info = sketched_least_squares(sq, h, rhs)
        y_dense = np.linalg.lstsq(sq @ h, sq @ rhs, rcond=None)[0]
        np.testing.assert_allclose(y, y_dense, rtol=1e-6, atol=1e-9)
        assert resid == pytest.approx(
            float(np.linalg.norm(sq @ rhs - (sq @ h) @ y)), rel=1e-8,
            abs=1e-12)
        y_cls, _ = least_squares_residual(h, 1.0, rhs=rhs)
        cls_embedded = float(np.linalg.norm(sq @ (rhs - h @ y_cls)))
        assert resid <= cls_embedded + 1e-12
        assert info["basis_condition"] == pytest.approx(1e6, rel=1e-3)

    def test_rank_deficient_sketch_falls_back(self, rng):
        c = 4
        h = random_hessenberg(rng, c)
        sq = rng.standard_normal((20, c + 1))
        sq[:, -1] = 0.0  # exactly dependent sketched column
        y, resid, info = sketched_least_squares(sq, h, np.ones(c + 1))
        assert info["rank_deficient"]
        assert np.isinf(info["basis_condition"])
        assert np.all(np.isfinite(y)) and np.isfinite(resid)

    def test_shape_errors(self, rng):
        h = random_hessenberg(rng, 4)
        good = rng.standard_normal((20, 5))
        with pytest.raises(ShapeError):  # not a Hessenberg shape
            sketched_least_squares(good, np.zeros((4, 4)), np.ones(4))
        with pytest.raises(ShapeError):  # sketch misses basis columns
            sketched_least_squares(good[:, :4], h, np.ones(5))
        with pytest.raises(ShapeError):  # fewer sketch rows than columns
            sketched_least_squares(good[:4], h, np.ones(5))
        with pytest.raises(ShapeError):  # rhs length mismatch
            sketched_least_squares(good, h, np.ones(4))


class TestSolveModeSwitch:
    def test_unknown_mode_rejected(self):
        sim = make_sim(laplace2d(8))
        with pytest.raises(ConfigurationError):
            sstep_gmres(sim, np.ones(sim.n),
                        options=SolverOptions(solve_mode="randomised"))

    def test_classical_mode_has_no_diagnostics(self):
        sim = make_sim(laplace2d(8))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=3, restart=9)
        assert res.diagnostics == {}

    @KERNEL_PATHS
    def test_sketched_with_classical_scheme(self, kernel_path):
        """A deterministic scheme has no basis sketch; the solver
        maintains one itself and still converges."""
        sim = make_sim(laplace2d(16))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=20, tol=1e-8, maxiter=3000,
                          scheme=TwoStageScheme(big_step=20),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-5)
        d = res.diagnostics
        assert d["solve_mode"] == "sketched"
        assert d["basis_condition_max"] >= 1.0
        # residual gap bounded by the embedding distortion, not eps
        assert d["residual_gap_max"] < 1e-2
        assert d["embedding_rows"] > 21

    @pytest.mark.parametrize("make_scheme", [
        lambda: RBCGSScheme(),
        lambda: SketchedTwoStageScheme(big_step=10, fused=True),
    ], ids=["rbcgs", "fused-sketched-two-stage"])
    def test_sketched_reuses_scheme_sketch(self, make_scheme):
        """Randomized schemes expose their basis sketch; over one fixed
        restart cycle the sketched solve must charge exactly as many
        collectives as the classical mode (ZERO extra sketches)."""
        a = laplace2d(16)
        results = {}
        for mode in ("classical", "sketched"):
            sim = make_sim(a)
            # tol unreachable + maxiter == restart: exactly one full
            # cycle runs in both modes, so collectives are comparable.
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                              tol=1e-30, maxiter=20, scheme=make_scheme(),
                              options=SolverOptions(solve_mode=mode))
            results[mode] = res
        assert (results["sketched"].sync_count
                == results["classical"].sync_count)

    def test_solver_sketch_costs_one_collective_per_checkpoint(self):
        """Without a scheme sketch the solver sketches newly-finalized
        columns itself: one extra allreduce per checkpoint."""
        a = laplace2d(16)
        results = {}
        for mode in ("classical", "sketched"):
            sim = make_sim(a)
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                              tol=1e-30, maxiter=20,
                              scheme=TwoStageScheme(big_step=10),
                              options=SolverOptions(solve_mode=mode))
            results[mode] = res
        checkpoints = len(results["sketched"].history) - 1  # minus iter 0
        assert (results["sketched"].sync_count
                == results["classical"].sync_count + checkpoints)

    @KERNEL_PATHS
    def test_fused_rgs_converges(self, kernel_path):
        sim = make_sim(laplace2d(16))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=20, tol=1e-8, maxiter=3000,
                          scheme=SketchedTwoStageScheme(big_step=20,
                                                        fused=True),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        a = sim.matrix.to_scipy()
        true_rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
        assert true_rel <= 1e-7

    def test_engines_bit_identical(self, per_shard):
        """The full sketched solve is bit-reproducible whether the kernel
        engine runs stacked or per shard."""
        a = laplace2d(14)

        def solve():
            sim = make_sim(a)
            res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                              tol=1e-8, maxiter=2000,
                              scheme=SketchedTwoStageScheme(big_step=20,
                                                            fused=True),
                              options=SolverOptions(solve_mode="sketched"))
            return res.x, res.iterations, res.relative_residual

        stacked = solve()
        with per_shard():
            shards = solve()
        np.testing.assert_array_equal(stacked[0], shards[0])
        assert stacked[1:] == shards[1:]


class TestEdgeCases:
    """Hessenberg-recovery edge cases, both solve modes, stacked and
    per shard."""

    @KERNEL_PATHS
    @pytest.mark.parametrize("solve_mode", ["classical", "sketched"])
    def test_zero_rhs(self, kernel_path, solve_mode):
        sim = make_sim(laplace2d(8))
        res = sstep_gmres(sim, np.zeros(sim.n), s=3, restart=9,
                          options=SolverOptions(solve_mode=solve_mode))
        assert res.converged and res.iterations == 0

    @KERNEL_PATHS
    @pytest.mark.parametrize("solve_mode", ["classical", "sketched"])
    def test_s_equals_one_degenerate_cycle(self, kernel_path, solve_mode):
        """s=1: every panel is a single column (the first block two);
        the mixed Hessenberg recovery degenerates to standard Arnoldi
        bookkeeping and must still converge."""
        sim = make_sim(laplace2d(10))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=1, restart=12, tol=1e-8, maxiter=3000,
                          options=SolverOptions(solve_mode=solve_mode))
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-5)

    @KERNEL_PATHS
    @pytest.mark.parametrize("solve_mode", ["classical", "sketched"])
    def test_happy_breakdown_mid_panel(self, kernel_path, solve_mode):
        """An operator with minimal polynomial degree 4 closes the
        Krylov space mid-cycle: the second panel's Cholesky breaks down,
        the solver truncates at the last sound checkpoint, and the
        restart loop still drives the residual to tol."""
        n = 64
        diag = np.repeat([1.0, 2.0, 3.0, 4.0], n // 4)
        a = sp.diags(diag).tocsr()
        sim = make_sim(a)
        b = np.asarray(a @ np.ones(n)).ravel()
        res = sstep_gmres(sim, b, s=2, restart=8, tol=1e-10, maxiter=200,
                          options=SolverOptions(solve_mode=solve_mode))
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-8)
        # the space closed at dimension 4: no cycle ran to full restart
        assert res.iterations < 8 * res.restarts + 8

    def test_total_breakdown_still_stalls(self):
        """A = I closes the space immediately in every cycle; the solver
        must stop with stalled=True in sketched mode too (no checkpoint
        is ever produced)."""
        a = sp.identity(32, format="csr") * 2.0
        sim = make_sim(a)
        b = np.ones(32) * 2.0
        res = sstep_gmres(sim, b, s=3, restart=9, tol=1e-20, maxiter=100,
                          options=SolverOptions(solve_mode="sketched"))
        assert not res.converged
        assert res.stalled


class TestAutomaticResketch:
    """The leave-one-out monitor redraws the embedding mid-solve."""

    def test_healthy_embedding_never_resketches(self):
        sim = make_sim(laplace2d(16))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=20,
                          tol=1e-8, maxiter=3000,
                          scheme=TwoStageScheme(big_step=20),
                          options=SolverOptions(solve_mode="sketched"))
        assert res.converged
        assert res.diagnostics["resketch_count"] == 0

    def test_threshold_crossing_redraws_operator(self):
        """With the threshold below any achievable distortion, every
        cycle's checkpoint arms a redraw; the solve keeps converging on
        the freshly drawn embeddings and reports the count."""
        sim = make_sim(laplace2d(16))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=10,
                          tol=1e-8, maxiter=3000,
                          scheme=TwoStageScheme(big_step=10),
                          options=SolverOptions(solve_mode="sketched",
                                                resketch_threshold=-1.0))
        assert res.converged
        assert res.diagnostics["resketch_count"] >= 1
        # at most one redraw per restart cycle, however many checkpoints
        assert res.diagnostics["resketch_count"] <= res.restarts

    def test_resketch_overrides_scheme_sketch(self):
        """After a redraw the solver cannot keep reusing the scheme's
        basis sketch (it cannot redraw the scheme's operators), so it
        maintains its own — and still converges with the fused scheme."""
        sim = make_sim(laplace2d(16))
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=5, restart=10,
                          tol=1e-8, maxiter=3000,
                          scheme=SketchedTwoStageScheme(big_step=10,
                                                        fused=True),
                          options=SolverOptions(solve_mode="sketched",
                                                resketch_threshold=-1.0))
        assert res.converged
        assert res.diagnostics["resketch_count"] >= 1

    def test_disabled_threshold_matches_default_on_healthy_solve(self):
        """None disables the trigger; on a healthy solve the default
        threshold never fires either, so results are bit-identical."""
        def solve(threshold):
            sim = make_sim(laplace2d(12))
            return sstep_gmres(sim, sim.ones_solution_rhs(), s=4,
                               restart=12, tol=1e-8, maxiter=2000,
                               scheme=TwoStageScheme(big_step=12),
                               options=SolverOptions(
                                   solve_mode="sketched",
                                   resketch_threshold=threshold))
        from repro.krylov.options import DEFAULT_RESKETCH_THRESHOLD
        a = solve(None)
        b = solve(DEFAULT_RESKETCH_THRESHOLD)
        np.testing.assert_array_equal(a.x, b.x)
        assert a.iterations == b.iterations
        assert a.diagnostics["resketch_count"] == 0
        assert b.diagnostics["resketch_count"] == 0
