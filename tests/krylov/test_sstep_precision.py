"""``sstep_gmres(precision=...)``: policy-driven basis storage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.krylov.options import OPTION_FIELD_NAMES, SolverOptions
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu
from repro.precision import PrecisionPolicy
from repro.precision.kernels import MixedPrecisionTwoStageScheme

NX = 20
A = laplace2d(NX)


def _solve(**kw):
    sim = Simulation(A, ranks=4, machine=generic_cpu())
    b = sim.ones_solution_rhs()
    opts = SolverOptions(**{k: kw.pop(k) for k in tuple(kw)
                            if k in OPTION_FIELD_NAMES})
    return sstep_gmres(sim, b, s=5, restart=30, tol=1e-8, maxiter=4000,
                       options=opts, **kw)


class TestPrecisionArgument:
    def test_fp32_converges_with_diagnostics(self):
        res = _solve(precision="fp32")
        assert res.converged
        assert res.diagnostics["precision"] == "fp32"
        assert res.diagnostics["storage"] == "fp32"

    def test_default_policy_leaves_diagnostics_empty(self):
        res = _solve()
        assert "precision" not in res.diagnostics

    def test_policy_instance_accepted(self):
        p = PrecisionPolicy("custom32", storage="fp32")
        res = _solve(precision=p)
        assert res.converged
        assert res.diagnostics["precision"] == "custom32"

    def test_unknown_policy_name_raises(self):
        with pytest.raises(ValueError):
            _solve(precision="fp128")

    def test_dd_gram_policy_selects_mixed_scheme(self):
        res = _solve(precision="fp32_dd_gram")
        assert res.converged
        assert res.scheme == MixedPrecisionTwoStageScheme.name

    def test_explicit_scheme_wins_over_policy_gram(self):
        from repro.ortho.two_stage import TwoStageScheme
        res = _solve(precision="fp32_dd_gram",
                     scheme=TwoStageScheme(big_step=30))
        assert res.scheme == "two-stage"

    def test_engines_bit_identical_per_precision(self, per_shard):
        """Stacked and per-shard kernels give the same solve at every
        storage precision."""
        for precision in (None, "fp32", "bf16"):
            batched = _solve(precision=precision)
            with per_shard():
                loop = _solve(precision=precision)
            np.testing.assert_array_equal(loop.x, batched.x)
            assert loop.iterations == batched.iterations
            assert loop.total_time == batched.total_time

    def test_fp32_charges_fewer_ortho_seconds_per_iteration(self):
        """The bytes term of every panel kernel halves.  Iteration counts
        may differ (quantization perturbs convergence), so compare the
        charged ortho cost per iteration; the bandwidth-bound halving
        claim itself is pinned in tests/distla/test_precision_engine.py."""
        r64 = _solve()
        r32 = _solve(precision="fp32")
        assert (r32.ortho_time / r32.iterations
                < r64.ortho_time / r64.iterations)

    def test_fp32_with_sketched_solve_mode(self):
        res = _solve(precision="fp32", solve_mode="sketched")
        assert res.converged
        assert res.diagnostics["solve_mode"] == "sketched"
        assert res.diagnostics["precision"] == "fp32"

    def test_fp32_with_sketched_two_stage_scheme(self):
        """The randomized schemes run unchanged over low-precision
        storage (the 'fp32 sketched schemes' configuration)."""
        from repro.ortho.randomized import SketchedTwoStageScheme
        res = _solve(precision="fp32",
                     scheme=SketchedTwoStageScheme(big_step=30, fused=True),
                     solve_mode="sketched")
        assert res.converged


class TestBasisStorage:
    def test_basis_allocated_at_policy_storage(self):
        sim = Simulation(A, ranks=4, machine=generic_cpu())
        mv = sim.zeros(3, storage="bf16")
        assert mv.storage == "bf16"
        assert mv.np_dtype == np.float32
        assert mv.word_bytes == 2.0
