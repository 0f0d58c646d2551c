"""SolverOptions: validation, the options-only solver signature, and wiring."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

import repro
from repro.exceptions import ConfigurationError
from repro.krylov.options import (
    DEFAULT_RESKETCH_THRESHOLD,
    MPK_SOLVER_MODES,
    SOLVE_MODES,
    SolverOptions,
)
from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu


def make_sim():
    return Simulation(laplace2d(12), ranks=4, machine=generic_cpu())


def solve(sim, **kwargs):
    b = np.ones(sim.n)
    return sstep_gmres(sim, b, s=3, restart=9, tol=1e-8,
                       scheme=TwoStageScheme(9), **kwargs)


class TestDataclass:
    def test_defaults(self):
        opts = SolverOptions()
        assert opts.solve_mode == "classical"
        assert opts.mpk_mode == "standard"
        assert opts.precision is None
        assert opts.resketch_threshold == DEFAULT_RESKETCH_THRESHOLD

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SolverOptions().solve_mode = "sketched"

    def test_invalid_solve_mode(self):
        with pytest.raises(ConfigurationError, match="solve_mode"):
            SolverOptions(solve_mode="quantum")

    def test_invalid_mpk_mode(self):
        with pytest.raises(ConfigurationError, match="mpk_mode"):
            SolverOptions(mpk_mode="telepathy")

    def test_replace_revalidates(self):
        opts = SolverOptions().replace(solve_mode="sketched")
        assert opts.solve_mode == "sketched"
        with pytest.raises(ConfigurationError):
            opts.replace(mpk_mode="nope")

    def test_mode_constants(self):
        assert SOLVE_MODES == ("classical", "sketched", "adaptive")
        assert MPK_SOLVER_MODES == ("standard", "ca", "ca_overlap", "auto")

    def test_top_level_exports(self):
        assert repro.SolverOptions is SolverOptions
        assert "SolverOptions" in repro.__all__
        assert "make_comm" in repro.__all__
        assert repro.make_comm is repro.parallel.make_comm


class TestOptionsPath:
    def test_options_drive_the_solve(self):
        sim = make_sim()
        res = solve(sim, options=SolverOptions(solve_mode="sketched",
                                               sketch_seed=11))
        assert res.converged
        assert res.diagnostics["solve_mode"] == "sketched"

    def test_none_options_means_defaults(self):
        sim = make_sim()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no deprecation noise
            res = solve(sim)
        assert res.converged
        assert "solve_mode" not in res.diagnostics

    def test_unknown_kwarg_is_type_error(self):
        sim = make_sim()
        with pytest.raises(TypeError, match="unexpected keyword"):
            solve(sim, solver_mode="sketched")  # typo'd name

    def test_bare_knob_kwarg_is_type_error(self):
        """Knobs travel only inside ``options``; passing one directly is
        an unknown keyword like any other."""
        sim = make_sim()
        with pytest.raises(TypeError, match="unexpected keyword"):
            solve(sim, solve_mode="sketched")


class TestDownstreamWiring:
    def test_gmres_ir_builds_options_without_warning(self):
        from repro.krylov.ir import gmres_ir
        sim = make_sim()
        b = np.ones(sim.n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            res = gmres_ir(sim, b, s=3, restart=9, tol=1e-10,
                           mpk_mode="standard")  # loose knob, no warning
        assert res.converged

    def test_gmres_ir_options_base(self):
        from repro.krylov.ir import gmres_ir
        sim = make_sim()
        b = np.ones(sim.n)
        res = gmres_ir(sim, b, s=3, restart=9, tol=1e-10,
                       options=SolverOptions(solve_mode="sketched",
                                             precision="fp16"))
        # gmres_ir's precision contract overrides the options field
        assert res.converged
        assert res.diagnostics["precision"] == "fp32"

    def test_gmres_ir_rejects_options_plus_knobs(self):
        from repro.krylov.ir import gmres_ir
        sim = make_sim()
        with pytest.raises(ConfigurationError, match="options"):
            gmres_ir(sim, np.ones(sim.n), options=SolverOptions(),
                     mpk_mode="ca")

    def test_adaptive_forwards_options(self):
        from repro.krylov.adaptive import adaptive_sstep_gmres
        sim = make_sim()
        res = adaptive_sstep_gmres(
            sim, np.ones(sim.n), s_max=3, restart=9, tol=1e-8,
            options=SolverOptions(solve_mode="sketched", sketch_seed=5))
        assert res.converged
        assert res.diagnostics["solve_mode"] == "sketched"
