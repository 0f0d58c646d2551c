"""Global configuration knobs for :mod:`repro`.

Configuration is intentionally tiny: a default dtype, the default step
sizes the paper uses, and reproducibility seeds.  Everything
machine-performance-related lives in
:class:`repro.parallel.machine.MachineSpec` instances so that two machine
models can coexist in one process.  The costed BLAS layer has a single
kernel engine (:data:`repro.distla.engine.ENGINE`) with nothing to
configure: it picks stacked or per-shard execution from its operands.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Working precision of the library (the paper works in IEEE double).
DEFAULT_DTYPE = np.float64

#: Machine epsilon of the working precision (paper notation: eps).
EPS = float(np.finfo(np.float64).eps)

#: The paper's default (conservative) first-stage step size, Section VIII:
#: "a conservative step size like s = 5 is used as the default step size".
DEFAULT_STEP_SIZE = 5

#: The paper's restart length, Section VIII: "we used the restart length of
#: 60 (i.e., m = 60)".
DEFAULT_RESTART = 60

#: Default relative-residual convergence tolerance, Section VIII:
#: "converged when the relative residual norm is reduced by six orders of
#: magnitude".
DEFAULT_TOL = 1.0e-6

#: Seed used by deterministic fixtures and examples.
DEFAULT_SEED = 1729


@dataclass(frozen=True)
class SolverDefaults:
    """Bundle of the paper's default solver parameters.

    A frozen dataclass so experiment code can pass one object around and
    tests can assert against a single source of truth.
    """

    step_size: int = DEFAULT_STEP_SIZE
    restart: int = DEFAULT_RESTART
    tol: float = DEFAULT_TOL
    maxiter: int = 100_000

    def with_big_panel(self, big_step: int) -> "TwoStageDefaults":
        """Return two-stage defaults with second-stage step ``big_step``."""
        return TwoStageDefaults(step_size=self.step_size, restart=self.restart,
                                tol=self.tol, maxiter=self.maxiter,
                                big_step=big_step)


@dataclass(frozen=True)
class TwoStageDefaults(SolverDefaults):
    """Solver defaults plus the second-stage (big panel) step size ``bs``."""

    big_step: int = DEFAULT_RESTART  # bs = m is the paper's best performer
