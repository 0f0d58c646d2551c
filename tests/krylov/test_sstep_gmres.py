"""s-step GMRES with every block-orthogonalization scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.krylov.basis import NewtonBasis
from repro.krylov.gmres import gmres
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import _panel_bounds, sstep_gmres
from repro.matrices.stencil import convection_diffusion_2d, laplace2d
from repro.ortho.bcgs import BCGS2Scheme
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu
from repro.precond.block_jacobi import BlockJacobiPreconditioner


def make_sim(a, ranks=4):
    return Simulation(a, ranks=ranks, machine=generic_cpu())


ALL_SCHEMES = [
    lambda: BCGS2Scheme(),
    lambda: BCGSPIP2Scheme(),
    lambda: TwoStageScheme(big_step=30),
    lambda: TwoStageScheme(big_step=10),
]


class TestPanelBounds:
    def test_first_panel_includes_start(self):
        assert _panel_bounds(5, 31) == [(0, 6), (6, 11), (11, 16), (16, 21),
                                        (21, 26), (26, 31)]

    def test_clipping(self):
        assert _panel_bounds(4, 7) == [(0, 5), (5, 7)]


class TestConvergence:
    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_laplace(self, scheme_factory):
        sim = make_sim(laplace2d(16))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          scheme=scheme_factory())
        assert res.converged
        np.testing.assert_allclose(res.x, 1.0, atol=1e-4)
        a = sim.matrix.to_scipy()
        true_rel = np.linalg.norm(b - a @ res.x) / np.linalg.norm(b)
        assert true_rel <= 1e-7

    @pytest.mark.parametrize("scheme_factory", ALL_SCHEMES)
    def test_nonsymmetric(self, scheme_factory):
        sim = make_sim(convection_diffusion_2d(12))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=4, restart=20, tol=1e-8, maxiter=4000,
                          scheme=scheme_factory())
        assert res.converged

    def test_iteration_quantization(self):
        """One-stage schemes stop on panel boundaries, two-stage on big
        panel boundaries — the paper's Table III iteration pattern."""
        a = laplace2d(20)
        sim1, sim2 = make_sim(a), make_sim(a)
        b = sim1.ones_solution_rhs()
        one = sstep_gmres(sim1, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          scheme=BCGSPIP2Scheme())
        two = sstep_gmres(sim2, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                          scheme=TwoStageScheme(big_step=30))
        assert one.iterations % 5 == 0
        assert two.iterations % 30 == 0
        assert two.iterations >= one.iterations

    def test_two_stage_bs_s_equals_pip2(self):
        a = laplace2d(14)
        sim1, sim2 = make_sim(a), make_sim(a)
        b = sim1.ones_solution_rhs()
        pip = sstep_gmres(sim1, b, s=5, restart=30, tol=1e-8, maxiter=3000,
                          scheme=BCGSPIP2Scheme())
        ts = sstep_gmres(sim2, b, s=5, restart=30, tol=1e-8, maxiter=3000,
                         scheme=TwoStageScheme(big_step=5))
        assert pip.iterations == ts.iterations
        np.testing.assert_allclose(pip.x, ts.x, rtol=1e-12, atol=1e-12)

    def test_matches_standard_gmres_trajectory(self):
        """In exact arithmetic s-step GMRES == GMRES; check the residual
        at the first common checkpoint agrees to rounding."""
        a = laplace2d(14)
        sim1, sim2 = make_sim(a), make_sim(a)
        b = sim1.ones_solution_rhs()
        std = gmres(sim1, b, restart=30, tol=1e-30, maxiter=30)
        sst = sstep_gmres(sim2, b, s=5, restart=30, tol=1e-30, maxiter=30)
        it_std, r_std = std.history.as_arrays()
        it_sst, r_sst = sst.history.as_arrays()
        # compare at iteration 30 (end of first cycle for both)
        r1 = r_std[it_std == 30][-1]
        r2 = r_sst[it_sst == 30][-1]
        assert r2 == pytest.approx(r1, rel=1e-6)

    def test_zero_rhs(self):
        sim = make_sim(laplace2d(8))
        res = sstep_gmres(sim, np.zeros(sim.n), s=3, restart=9)
        assert res.converged and res.iterations == 0

    def test_restart_smaller_than_s_rejected(self):
        sim = make_sim(laplace2d(8))
        with pytest.raises(ConfigurationError):
            sstep_gmres(sim, np.ones(sim.n), s=10, restart=5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_b_or_x0_rejected_before_any_work(self, bad):
        sim = make_sim(laplace2d(8))
        poisoned = np.ones(sim.n)
        poisoned[7] = bad
        with pytest.raises(ConfigurationError, match="non-finite"):
            sstep_gmres(sim, poisoned, s=3, restart=9)
        with pytest.raises(ConfigurationError, match="x0"):
            sstep_gmres(sim, np.ones(sim.n), poisoned, s=3, restart=9)
        assert sim.tracer.clock == 0.0

    def test_unknown_basis_rejected(self):
        sim = make_sim(laplace2d(8))
        with pytest.raises(ConfigurationError):
            sstep_gmres(sim, np.ones(sim.n), basis="legendre")

    def test_maxiter_cap(self):
        sim = make_sim(laplace2d(20))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=20, tol=1e-14, maxiter=40)
        assert not res.converged
        assert res.iterations <= 40


class TestBases:
    def test_newton_basis_converges(self):
        sim = make_sim(laplace2d(14))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=3000,
                          basis="newton")
        assert res.converged

    def test_newton_instance(self):
        sim = make_sim(laplace2d(12))
        b = sim.ones_solution_rhs()
        res = sstep_gmres(sim, b, s=4, restart=20, tol=1e-8, maxiter=3000,
                          basis=NewtonBasis())
        assert res.converged


class TestPreconditioned:
    def test_block_jacobi_gs(self):
        # large enough that one restart cycle cannot converge, so the
        # preconditioner's iteration win is visible through the panel
        # quantization
        a = laplace2d(28)
        sim, plain_sim = make_sim(a), make_sim(a)
        b = sim.ones_solution_rhs()
        plain = sstep_gmres(plain_sim, b, s=5, restart=20, tol=1e-8,
                            maxiter=6000)
        pc = sstep_gmres(sim, b, s=5, restart=20, tol=1e-8, maxiter=6000,
                         precond=BlockJacobiPreconditioner())
        assert pc.converged
        assert pc.iterations < plain.iterations
        true_rel = np.linalg.norm(b - a @ pc.x) / np.linalg.norm(b)
        assert true_rel <= 1e-7


class TestAccounting:
    def test_sync_counts_ordered_by_scheme(self):
        """BCGS2 (5/panel) > PIP2 (2/panel) > two-stage (1 + s/bs)."""
        a = laplace2d(16)
        counts = {}
        for name, factory in [("bcgs2", lambda: BCGS2Scheme()),
                              ("pip2", lambda: BCGSPIP2Scheme()),
                              ("two", lambda: TwoStageScheme(big_step=30))]:
            sim = make_sim(a)
            b = sim.ones_solution_rhs()
            res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8,
                              maxiter=2000, scheme=factory())
            counts[name] = res.sync_count / max(res.iterations, 1)
        assert counts["bcgs2"] > counts["pip2"] > counts["two"]

    def test_ortho_time_ordered_by_scheme(self):
        a = laplace2d(16)
        times = {}
        for name, factory in [("bcgs2", lambda: BCGS2Scheme()),
                              ("pip2", lambda: BCGSPIP2Scheme()),
                              ("two", lambda: TwoStageScheme(big_step=30))]:
            sim = Simulation(a, ranks=12)  # summit machine: latency matters
            b = sim.ones_solution_rhs()
            res = sstep_gmres(sim, b, s=5, restart=30, tol=1e-8,
                              maxiter=2000, scheme=factory())
            times[name] = res.ortho_time / max(res.iterations, 1)
        assert times["bcgs2"] > times["pip2"] > times["two"]
