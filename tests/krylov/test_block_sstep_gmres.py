"""Multi-RHS block s-step GMRES: value identity, per-request exits,
charge fusion.

The contract under test (ISSUE: batched multi-tenant solve path): every
member of a width-``b`` batch is bit-identical to the corresponding
independent :func:`sstep_gmres` call — at width 1 this extends to the
modeled times and sync counts — while the batch's per-cycle collective
*count* profile is width-independent and only the payload bytes grow.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ConfigurationError, ShapeError
from repro.krylov.basis import MonomialBasis
from repro.krylov.block import block_sstep_gmres
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu, summit

#: Each test so marked runs stacked ("batched") and per shard ("loop").
KERNEL_PATHS = pytest.mark.parametrize("kernel_path", ["loop", "batched"],
                                       indirect=True)

S, RESTART, TOL = 4, 12, 1e-8


def fresh_sim(machine=None, nx=12, ranks=4):
    return Simulation(laplace2d(nx), ranks=ranks,
                      machine=machine or generic_cpu())


def scalar_solve(b, machine=None, nx=12, **kw):
    kw.setdefault("s", S)
    kw.setdefault("restart", RESTART)
    kw.setdefault("tol", TOL)
    return sstep_gmres(fresh_sim(machine, nx), b, **kw)


def rhs_columns(n, width, seed=0):
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((n, width))
    return cols / np.linalg.norm(cols, axis=0)


def assert_member_matches(res, ref):
    """Member result == independent scalar solve, bit for bit."""
    np.testing.assert_array_equal(res.x, ref.x)
    assert res.converged == ref.converged
    assert res.iterations == ref.iterations
    assert res.restarts == ref.restarts
    assert res.history.residuals == ref.history.residuals
    assert res.relative_residual == ref.relative_residual
    assert res.stalled == ref.stalled


class TestBitIdentity:
    @KERNEL_PATHS
    def test_width1_matches_scalar_exactly(self, kernel_path):
        """Width 1 is the degenerate case: identical values AND
        identical modeled charges (times, sync counts)."""
        sim = fresh_sim()
        b = rhs_columns(sim.n, 1)[:, 0]
        res = block_sstep_gmres(sim, b, s=S, restart=RESTART, tol=TOL)[0]
        ref = scalar_solve(b)
        assert res.converged
        assert_member_matches(res, ref)
        assert res.sync_count == ref.sync_count
        assert res.times["total"] == ref.times["total"]
        assert res.solver == "block_sstep_gmres"
        assert res.diagnostics["batch_width"] == 1

    @KERNEL_PATHS
    def test_s1_width1_degenerate(self, kernel_path):
        """The ``s=1, block=1`` case the issue names explicitly."""
        sim = fresh_sim()
        b = rhs_columns(sim.n, 1)[:, 0]
        res = block_sstep_gmres(sim, b, s=1, restart=8, tol=TOL)[0]
        ref = scalar_solve(b, s=1, restart=8)
        assert_member_matches(res, ref)
        assert res.times["total"] == ref.times["total"]

    @KERNEL_PATHS
    def test_multiwidth_matches_independent_solves(self, kernel_path):
        width = 4
        sim = fresh_sim()
        cols = rhs_columns(sim.n, width)
        results = block_sstep_gmres(sim, cols, s=S, restart=RESTART,
                                    tol=TOL)
        assert len(results) == width
        for j, res in enumerate(results):
            assert_member_matches(res, scalar_solve(cols[:, j]))
            assert res.diagnostics["batch_index"] == j
            assert res.diagnostics["batch_width"] == width
            assert res.diagnostics["exit_cycle"] == res.restarts

    def test_rhs_as_sequence_and_shared_x0(self):
        sim = fresh_sim()
        cols = rhs_columns(sim.n, 2)
        x0 = np.full(sim.n, 0.1)
        res = block_sstep_gmres(sim, [cols[:, 0], cols[:, 1]], x0,
                                s=S, restart=RESTART, tol=TOL)
        for j in range(2):
            ref = scalar_solve(cols[:, j], x0=x0)
            assert_member_matches(res[j], ref)


class TestPerRequestExits:
    def test_zero_rhs_column_converges_at_iteration_zero(self):
        """A zero RHS member exits before any cycle; survivors keep
        fusing and match their independent solves."""
        sim = fresh_sim()
        cols = rhs_columns(sim.n, 3)
        cols[:, 1] = 0.0
        res = block_sstep_gmres(sim, cols, s=S, restart=RESTART, tol=TOL)
        zero = res[1]
        assert zero.converged and zero.iterations == 0 and zero.restarts == 0
        assert zero.relative_residual == 0.0
        np.testing.assert_array_equal(zero.x, np.zeros(sim.n))
        for j in (0, 2):
            assert_member_matches(res[j], scalar_solve(cols[:, j]))

    def test_all_converged_at_cycle_zero(self):
        sim = fresh_sim()
        res = block_sstep_gmres(sim, np.zeros((sim.n, 3)),
                                s=S, restart=RESTART, tol=TOL)
        assert all(r.converged and r.iterations == 0 and r.restarts == 0
                   for r in res)

    def test_breakdown_in_one_column_only(self):
        """Member 0's Krylov space is 2-dimensional (diagonal operator,
        two-component RHS) — its s=4 panel is rank-deficient at the
        first cycle and the solver takes its breakdown/stall exit.
        That early exit must reproduce the scalar solver's behaviour
        bit for bit AND leave the surviving member untouched."""
        n = 64
        a = sp.diags(np.arange(1.0, n + 1.0)).tocsr()
        deficient = np.zeros(n)
        deficient[0], deficient[1] = 1.0, 2.0
        healthy = rhs_columns(n, 1, seed=3)[:, 0]
        sim = Simulation(a, ranks=4, machine=generic_cpu())
        res = block_sstep_gmres(sim, np.stack([deficient, healthy], axis=1),
                                s=S, restart=RESTART, tol=TOL, maxiter=200)
        refs = [sstep_gmres(Simulation(a, ranks=4, machine=generic_cpu()),
                            b, s=S, restart=RESTART, tol=TOL, maxiter=200)
                for b in (deficient, healthy)]
        # the deficient member exits on the scalar solver's own terms...
        assert res[0].restarts < res[1].restarts
        assert_member_matches(res[0], refs[0])
        # ... and the healthy member never notices
        assert res[1].converged
        assert_member_matches(res[1], refs[1])

    def test_per_request_tol(self):
        sim = fresh_sim()
        b = rhs_columns(sim.n, 1)[:, 0]
        loose, tight = 1e-3, 1e-10
        res = block_sstep_gmres(sim, np.stack([b, b], axis=1),
                                s=S, restart=RESTART, tol=[loose, tight])
        assert res[0].iterations < res[1].iterations
        assert_member_matches(res[0], scalar_solve(b, tol=loose))
        assert_member_matches(res[1], scalar_solve(b, tol=tight))

    def test_per_request_maxiter(self):
        sim = fresh_sim()
        b = rhs_columns(sim.n, 1)[:, 0]
        res = block_sstep_gmres(sim, np.stack([b, b], axis=1),
                                s=S, restart=RESTART, tol=1e-30,
                                maxiter=[RESTART, 3 * RESTART])
        assert res[0].restarts == 1 and res[1].restarts == 3
        assert_member_matches(
            res[0], scalar_solve(b, tol=1e-30, maxiter=RESTART))


class TestChargeFusion:
    def fixed_cycle(self, width, machine):
        sim = fresh_sim(machine=machine, nx=12)
        cols = rhs_columns(sim.n, width)
        snap = sim.tracer.snapshot()
        block_sstep_gmres(sim, cols, s=S, restart=RESTART, tol=1e-30,
                          maxiter=RESTART)
        elapsed = sim.tracer.since(snap).clock
        return sim.tracer.collective_counts(payload_bytes=True), elapsed

    def test_collective_counts_width_independent(self):
        machine = summit()
        base, t1 = self.fixed_cycle(1, machine)
        for width in (2, 4):
            counts, _ = self.fixed_cycle(width, machine)
            assert {k: v["count"] for k, v in counts.items()} \
                == {k: v["count"] for k, v in base.items()}
            # payload bytes scale exactly with the width
            assert {k: v["bytes"] for k, v in counts.items()} \
                == {k: v["bytes"] * width for k, v in base.items()}

    def test_batched_cycle_is_cheaper_than_serial(self):
        machine = summit()
        _, t1 = self.fixed_cycle(1, machine)
        _, t4 = self.fixed_cycle(4, machine)
        # 4 fused solves must cost far less than 4 serial ones — on a
        # latency-dominated machine nearly all of the cycle is shared
        assert t4 < 2.0 * t1


class TestValidation:
    def test_empty_rhs_rejected(self):
        with pytest.raises(ShapeError, match="at least one"):
            block_sstep_gmres(fresh_sim(), [])

    def test_wrong_length_rhs_rejected(self):
        with pytest.raises(ShapeError):
            block_sstep_gmres(fresh_sim(), np.ones(7))

    def test_per_request_length_mismatch_rejected(self):
        sim = fresh_sim()
        with pytest.raises(ConfigurationError, match="tol"):
            block_sstep_gmres(sim, rhs_columns(sim.n, 3), tol=[1e-8, 1e-8],
                              s=S, restart=RESTART)

    def test_basis_instance_rejected_for_width_gt1(self):
        sim = fresh_sim()
        with pytest.raises(ConfigurationError, match="stateful"):
            block_sstep_gmres(sim, rhs_columns(sim.n, 2),
                              basis=MonomialBasis(), s=S, restart=RESTART)

    def test_nonfinite_rhs_or_x0_rejected_before_any_work(self):
        sim = fresh_sim()
        cols = rhs_columns(sim.n, 3)
        cols[5, 1] = np.nan
        with pytest.raises(ConfigurationError, match="non-finite"):
            block_sstep_gmres(sim, cols, s=S, restart=RESTART)
        x0 = np.zeros(sim.n)
        x0[0] = -np.inf
        with pytest.raises(ConfigurationError, match="x0"):
            block_sstep_gmres(sim, rhs_columns(sim.n, 3), x0, s=S,
                              restart=RESTART)
        assert sim.tracer.clock == 0.0

    def test_bad_x0_shape_rejected(self):
        sim = fresh_sim()
        with pytest.raises(ShapeError, match="x0"):
            block_sstep_gmres(sim, rhs_columns(sim.n, 2),
                              np.ones((sim.n, 3)), s=S, restart=RESTART)
