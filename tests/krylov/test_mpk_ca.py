"""Communication-avoiding MPK: bit-identity, communication profile,
preconditioner composition, degenerate paths."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.krylov.basis import ChebyshevBasis, MonomialBasis, NewtonBasis
from repro.krylov.mpk import MPK_MODES, MatrixPowersKernel, \
    PreconditionedOperator
from repro.krylov.options import SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu
from repro.precond.block_jacobi import BlockJacobiPreconditioner
from repro.precond.jacobi import JacobiPreconditioner
from repro.precond.polynomial import ChebyshevPreconditioner

def make_basis(sim, k, rng, storage="fp64"):
    basis = sim.zeros(k, storage=storage)
    v0 = rng.standard_normal(sim.n)
    v0 /= np.linalg.norm(v0)
    basis.view_cols(0).assign_from(sim.vector_from(v0, storage=storage))
    return basis


def generate(mode, *, nx=12, ranks=4, poly=None, precond_factory=None,
             panels=((1, 6), (6, 9)), storage="fp64", seed=3):
    sim = Simulation(laplace2d(nx), ranks=ranks, machine=generic_cpu())
    pc = (precond_factory().setup(sim.matrix)
          if precond_factory is not None else None)
    op = PreconditionedOperator(sim.matrix, pc)
    mpk = MatrixPowersKernel(op, poly, mode=mode)
    basis = make_basis(sim, max(hi for _, hi in panels),
                       np.random.default_rng(seed), storage=storage)
    for lo, hi in panels:
        mpk.extend(basis, lo, hi)
    return basis.to_global(), sim.tracer

#: Each test so marked runs stacked ("batched") and per shard ("loop").
KERNEL_PATHS = pytest.mark.parametrize("kernel_path", ["loop", "batched"],
                                       indirect=True)


POLYS = {
    "monomial": MonomialBasis,
    "newton": lambda: NewtonBasis(np.array([0.4, 1.3, 2.9, 4.1, 5.5])),
    "chebyshev": lambda: ChebyshevBasis(0.1, 8.0),
}


class TestBitIdentity:
    @KERNEL_PATHS
    @pytest.mark.parametrize("poly", sorted(POLYS))
    def test_ca_matches_standard(self, kernel_path, poly):
        std, _ = generate("standard", poly=POLYS[poly]())
        ca, _ = generate("ca", poly=POLYS[poly]())
        np.testing.assert_array_equal(std, ca)

    @pytest.mark.parametrize("poly", sorted(POLYS))
    def test_ca_matches_standard_ragged(self, poly):
        """144 rows over 5 ranks: no stack, per-shard kernels."""
        std, _ = generate("standard", ranks=5, poly=POLYS[poly]())
        ca, _ = generate("ca", ranks=5, poly=POLYS[poly]())
        np.testing.assert_array_equal(std, ca)

    @pytest.mark.parametrize("pc", [JacobiPreconditioner,
                                    BlockJacobiPreconditioner])
    def test_ca_matches_standard_preconditioned(self, pc):
        std, _ = generate("standard", precond_factory=pc)
        ca, _ = generate("ca", precond_factory=pc)
        np.testing.assert_array_equal(std, ca)

    @KERNEL_PATHS
    def test_ca_matches_standard_three_term_preconditioned(self, kernel_path):
        """Chebyshev recurrence (gamma != 0) reaches back across the
        panel boundary — the prev vector rides in the same exchange."""
        std, _ = generate("standard",
                          poly=ChebyshevBasis(0.1, 8.0),
                          precond_factory=BlockJacobiPreconditioner)
        ca, _ = generate("ca", poly=ChebyshevBasis(0.1, 8.0),
                         precond_factory=BlockJacobiPreconditioner)
        np.testing.assert_array_equal(std, ca)

    @KERNEL_PATHS
    def test_ca_matches_standard_fp32_storage(self, kernel_path):
        std, _ = generate("standard", storage="fp32")
        ca, _ = generate("ca", storage="fp32")
        np.testing.assert_array_equal(std, ca)

    def test_engines_bit_identical_in_ca_mode(self, per_shard):
        """Stacked and per-shard kernels give the same CA basis."""
        stacked, _ = generate("ca", poly=POLYS["newton"]())
        with per_shard():
            shards, _ = generate("ca", poly=POLYS["newton"]())
        np.testing.assert_array_equal(stacked, shards)


class TestCommunicationProfile:
    @KERNEL_PATHS
    def test_one_exchange_per_panel(self, kernel_path):
        _, tr_std = generate("standard")
        _, tr_ca = generate("ca")
        # two panels of 5 + 3 steps: standard pays one halo per step
        assert tr_std.kernel_count("spmv", "halo") == 8
        assert tr_ca.kernel_count("spmv", "halo") == 2

    def test_same_spmv_call_count(self):
        _, tr_std = generate("standard")
        _, tr_ca = generate("ca")
        assert (tr_std.kernel_count("spmv", "spmv_local")
                == tr_ca.kernel_count("spmv", "spmv_local") == 8)

    def test_ca_charges_redundant_work(self):
        """CA's local SpMV seconds exceed standard's (ghost rings are
        recomputed) while its halo seconds shrink."""
        _, tr_std = generate("standard", nx=16, ranks=8)
        _, tr_ca = generate("ca", nx=16, ranks=8)
        assert (tr_ca.kernel_seconds("spmv", "spmv_local")
                > tr_std.kernel_seconds("spmv", "spmv_local"))
        assert (tr_ca.kernel_seconds("spmv", "halo")
                < tr_std.kernel_seconds("spmv", "halo"))

    def test_s1_panels_degenerate_to_standard_costs(self):
        """With s=1 panels the depth-1 closure IS the standard halo, so
        beyond the one-time plan analysis CA charges exactly the
        standard kernel's modeled time."""
        panels = tuple((k, k + 1) for k in range(1, 7))
        _, tr_std = generate("standard", panels=panels)
        _, tr_ca = generate("ca", panels=panels)
        assert tr_std.kernel_count("spmv", "halo") == 6
        assert tr_ca.kernel_count("spmv", "halo") == 6
        plan_setup = tr_ca.kernel_seconds("spmv", "ghost_plan")
        assert plan_setup > 0.0  # charged once, on the cache miss
        assert tr_ca.kernel_count("spmv", "ghost_plan") == 1
        assert (tr_ca.clock - plan_setup
                == pytest.approx(tr_std.clock, rel=1e-12))


class TestDegeneratePaths:
    @KERNEL_PATHS
    @pytest.mark.parametrize("ranks", [1, 3])
    def test_ghost_level_zero_block_diagonal(self, kernel_path, ranks):
        """No inter-rank coupling: empty ghost regions, zero-byte
        exchange, still bit-identical to the standard kernel."""
        blocks = [sp.diags([2.0] * 4) + sp.diags([1.0] * 3, 1)
                  for _ in range(3)]
        a = sp.block_diag(blocks).tocsr()
        res = {}
        for mode in MPK_MODES:
            sim = Simulation(a, ranks=ranks, machine=generic_cpu())
            basis = make_basis(sim, 5, np.random.default_rng(0))
            mpk = MatrixPowersKernel(
                PreconditionedOperator(sim.matrix), mode=mode)
            mpk.extend(basis, 1, 5)
            res[mode] = (basis.to_global(),
                         sim.tracer.kernel_seconds("spmv", "halo"))
        np.testing.assert_array_equal(res["standard"][0], res["ca"][0])
        assert res["ca"][1] == 0.0  # nothing to exchange

    @KERNEL_PATHS
    def test_single_step_panel(self, kernel_path):
        std, _ = generate("standard", panels=((1, 2),))
        ca, _ = generate("ca", panels=((1, 2),))
        np.testing.assert_array_equal(std, ca)

    def test_empty_panel_is_noop(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        basis = make_basis(sim, 4, np.random.default_rng(0))
        mpk = MatrixPowersKernel(PreconditionedOperator(sim.matrix),
                                 mode="ca")
        before = sim.tracer.clock
        mpk.extend(basis, 2, 2)
        assert sim.tracer.clock == before


class TestOverlappedCA:
    """PA2 (``"ca_overlap"``): same numerics as ``"ca"``, the deep-ring
    exchange posted behind the first owned-rows SpMV."""

    @KERNEL_PATHS
    @pytest.mark.parametrize("poly", sorted(POLYS))
    def test_bit_identical_to_ca(self, kernel_path, poly):
        ca, _ = generate("ca", poly=POLYS[poly]())
        ov, _ = generate("ca_overlap", poly=POLYS[poly]())
        np.testing.assert_array_equal(ca, ov)

    def test_two_halo_charges_per_panel(self):
        """The split exchange: one eager depth-1 charge plus one waited
        ring per panel (the blocking CA kernel pays one per panel)."""
        _, tr_ca = generate("ca", nx=16, ranks=8)
        _, tr_ov = generate("ca_overlap", nx=16, ranks=8)
        assert tr_ca.kernel_count("spmv", "halo") == 2
        assert tr_ov.kernel_count("spmv", "halo") == 4

    def test_ring_latency_partially_hidden(self):
        """ca_overlap reports hidden halo seconds; blocking ca none.
        The hidden part is bounded by what was actually posted."""
        _, tr_ca = generate("ca", nx=16, ranks=8)
        _, tr_ov = generate("ca_overlap", nx=16, ranks=8)
        assert tr_ca.overlapped_seconds(kernel="halo") == 0.0
        hidden = tr_ov.overlapped_seconds(kernel="halo")
        assert hidden > 0.0
        # exposed + hidden = the full cost of the two-message split,
        # which is at least the blocking single-message exchange
        assert (tr_ov.kernel_seconds("spmv", "halo") + hidden
                >= tr_ca.kernel_seconds("spmv", "halo"))

    def test_split_spmv_adds_only_launch_overhead(self):
        """Splitting step 1 into owned + ring charges the same flops and
        streams; the extra cost per panel is one more kernel launch (the
        per-call latency/fixed-overhead terms), never more work."""
        m = generic_cpu()
        _, tr_ca = generate("ca", nx=16, ranks=8)
        _, tr_ov = generate("ca_overlap", nx=16, ranks=8)
        ca_s = tr_ca.kernel_seconds("spmv", "spmv_local")
        ov_s = tr_ov.kernel_seconds("spmv", "spmv_local")
        assert ov_s >= ca_s
        per_panel = m.kernel_latency + m.spmv_fixed_overhead
        assert ov_s - ca_s <= 2 * per_panel + 0.05 * ca_s

    def test_s1_panels_have_no_ring_to_post(self):
        """Depth-1 panels: the eager shell IS the whole closure, so the
        posted exchange vanishes and charges match blocking ca exactly."""
        panels = tuple((k, k + 1) for k in range(1, 7))
        _, tr_ca = generate("ca", panels=panels)
        _, tr_ov = generate("ca_overlap", panels=panels)
        assert (tr_ov.kernel_count("spmv", "halo")
                == tr_ca.kernel_count("spmv", "halo") == 6)
        assert tr_ov.overlapped_seconds(kernel="halo") == 0.0
        assert tr_ov.clock == tr_ca.clock

    @pytest.mark.parametrize("pc", [JacobiPreconditioner,
                                    BlockJacobiPreconditioner])
    def test_any_preconditioner_rejected(self, pc):
        """PA2 is stricter than PA1: even closure-compatible
        preconditioners have no well-defined owned/ring cost split."""
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op = PreconditionedOperator(sim.matrix, pc().setup(sim.matrix))
        assert op.supports_ca  # fine for plain ca ...
        with pytest.raises(ConfigurationError, match="ca_overlap|PA2"):
            MatrixPowersKernel(op, mode="ca_overlap")

    @KERNEL_PATHS
    def test_sstep_gmres_solve_identical(self, kernel_path):
        results = {}
        for mode in ("ca", "ca_overlap"):
            sim = Simulation(laplace2d(16), ranks=4, machine=generic_cpu())
            results[mode] = sstep_gmres(sim, sim.ones_solution_rhs(), s=5,
                                        restart=20, tol=1e-8, maxiter=2000,
                                        options=SolverOptions(mpk_mode=mode))
        ca, ov = results["ca"], results["ca_overlap"]
        assert ov.converged
        assert ov.diagnostics["mpk_mode"] == "ca_overlap"
        np.testing.assert_array_equal(ca.x, ov.x)
        assert ca.iterations == ov.iterations
        assert ca.history.residuals == ov.history.residuals

    def test_auto_stays_on_ca_when_ring_pokes_out(self):
        """``"auto"`` escalates to overlap only when the cost model
        predicts the deep ring hides entirely; on generic_cpu the SpMV
        window is tiny (no launch/sync latency, huge stream rate) so
        the predictor keeps plain ca."""
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                          tol=1e-8, maxiter=600,
                          options=SolverOptions(mpk_mode="auto"))
        assert res.diagnostics["mpk_mode"] == "ca"

    def test_auto_overlap_tradeoff_across_machines(self):
        """The auto escalation is a machine-dependent tradeoff: on stock
        Summit the first owned-rows SpMV (big fixed launch overhead)
        swallows the deep ring, so ``auto`` picks ``ca_overlap``; with
        network/device latency scaled 16x the ring's fixed cost outgrows
        that window and ``auto`` drops back to plain ``ca``."""
        from repro.parallel.machine import summit

        def run(machine):
            sim = Simulation(laplace2d(16), ranks=4, machine=machine)
            return sstep_gmres(sim, sim.ones_solution_rhs(), s=5,
                               restart=20, tol=1e-8, maxiter=2000,
                               options=SolverOptions(mpk_mode="auto"))

        stock = summit()
        lat16 = stock.with_overrides(
            name="summit_lat16x",
            net_latency_inter=stock.net_latency_inter * 16.0,
            device_sync_latency=stock.device_sync_latency * 16.0)
        res_stock = run(stock)
        res_lat16 = run(lat16)
        assert res_stock.diagnostics["mpk_mode"] == "ca_overlap"
        assert res_lat16.diagnostics["mpk_mode"] == "ca"
        # the escalation changes charges only, never values
        np.testing.assert_array_equal(res_stock.x, res_lat16.x)


class TestComposition:
    def test_general_preconditioner_rejected(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        pc = ChebyshevPreconditioner(degree=2).setup(sim.matrix)
        op = PreconditionedOperator(sim.matrix, pc)
        assert not op.supports_ca
        with pytest.raises(ConfigurationError, match="compose"):
            MatrixPowersKernel(op, mode="ca")

    def test_unknown_mode_rejected(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        with pytest.raises(ConfigurationError):
            MatrixPowersKernel(PreconditionedOperator(sim.matrix),
                               mode="avoidant")

    def test_ghost_expand_follows_preconditioner(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        assert PreconditionedOperator(sim.matrix).ghost_expand == "pointwise"
        jac = PreconditionedOperator(
            sim.matrix, JacobiPreconditioner().setup(sim.matrix))
        assert jac.ghost_expand == "pointwise"
        bj = PreconditionedOperator(
            sim.matrix, BlockJacobiPreconditioner().setup(sim.matrix))
        assert bj.ghost_expand == "block"


class TestSolverIntegration:
    @KERNEL_PATHS
    def test_sstep_gmres_ca_converges_identically(self, kernel_path):
        self.check_ca_converges_identically(ranks=4)

    def test_sstep_gmres_ca_converges_identically_ragged(self):
        """256 rows over 5 ranks: no stack, per-shard kernels."""
        self.check_ca_converges_identically(ranks=5)

    @staticmethod
    def check_ca_converges_identically(ranks):
        results = {}
        for mode in MPK_MODES:
            sim = Simulation(laplace2d(16), ranks=ranks,
                             machine=generic_cpu())
            results[mode] = sstep_gmres(sim, sim.ones_solution_rhs(), s=5,
                                        restart=20, tol=1e-8, maxiter=2000,
                                        options=SolverOptions(mpk_mode=mode))
        std, ca = results["standard"], results["ca"]
        assert ca.converged
        assert ca.diagnostics["mpk_mode"] == "ca"
        np.testing.assert_array_equal(std.x, ca.x)
        assert std.iterations == ca.iterations

    def test_auto_mode_falls_back_for_general_preconditioner(self):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        pc = ChebyshevPreconditioner(degree=2)
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                          tol=1e-8, maxiter=600, precond=pc,
                          options=SolverOptions(mpk_mode="auto"))
        assert res.diagnostics["mpk_mode"] == "standard"
        assert res.converged

    def test_auto_mode_selects_ca_for_local_preconditioner(self):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        res = sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                          tol=1e-8, maxiter=600,
                          precond=JacobiPreconditioner(),
                          options=SolverOptions(mpk_mode="auto"))
        assert res.diagnostics["mpk_mode"] == "ca"
        assert res.converged

    def test_ca_mode_raises_for_general_preconditioner(self):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu())
        with pytest.raises(ConfigurationError, match="compose"):
            sstep_gmres(sim, sim.ones_solution_rhs(), s=4, restart=12,
                        precond=ChebyshevPreconditioner(degree=2),
                        options=SolverOptions(mpk_mode="ca"))

    def test_unknown_mpk_mode_rejected(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        with pytest.raises(ConfigurationError):
            sstep_gmres(sim, np.ones(sim.n),
                        options=SolverOptions(mpk_mode="always"))


class TestScratchInvalidation:
    def test_scratch_rebinds_on_comm_change(self):
        """A stale scratch bound to another simulation's communicator
        must not leak charges into the wrong tracer."""
        pc = JacobiPreconditioner()
        sim1 = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op = PreconditionedOperator(sim1.matrix,
                                    pc.setup(sim1.matrix))
        x1 = sim1.vector_from(np.ones(sim1.n))
        out1 = sim1.zeros(1)
        op.apply(x1, out1)
        scratch1 = op._scratch
        assert scratch1.comm is sim1.comm
        # same partition shape, different simulation/communicator
        sim2 = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op.matrix = sim2.matrix
        op.precond = JacobiPreconditioner().setup(sim2.matrix)
        x2 = sim2.vector_from(np.ones(sim2.n))
        out2 = sim2.zeros(1)
        op.apply(x2, out2)
        assert op._scratch is not scratch1
        assert op._scratch.comm is sim2.comm

    def test_scratch_rebinds_on_storage_change(self):
        sim = Simulation(laplace2d(8), ranks=4, machine=generic_cpu())
        op = PreconditionedOperator(
            sim.matrix, JacobiPreconditioner().setup(sim.matrix))
        x64 = sim.vector_from(np.ones(sim.n))
        op.apply(x64, sim.zeros(1))
        s64 = op._scratch
        assert s64.storage == "fp64"
        x32 = sim.vector_from(np.ones(sim.n), storage="fp32")
        op.apply(x32, sim.zeros(1, storage="fp32"))
        assert op._scratch is not s64
        assert op._scratch.storage == "fp32"
        # fp64 again -> rebuilds once more
        op.apply(x64, sim.zeros(1))
        assert op._scratch.storage == "fp64"
