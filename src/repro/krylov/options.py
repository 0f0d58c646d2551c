"""Solver configuration: :class:`SolverOptions` and its mode constants.

:func:`repro.krylov.sstep_gmres.sstep_gmres` historically grew one
keyword argument per knob (``solve_mode``, ``mpk_mode``, ``precision``,
sketch parameters, adaptive thresholds...).  They now travel together in
one immutable :class:`SolverOptions` value::

    opts = SolverOptions(solve_mode="sketched", mpk_mode="ca")
    result = sstep_gmres(sim, b, s=5, restart=30, options=opts)

Passing a knob directly as a keyword argument is a :class:`TypeError`;
structural parameters that shape the iteration itself (``s``,
``restart``, ``tol``, ``maxiter``, ``scheme``, ``basis``, ``precond``,
``observer``) stay first-class arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from repro.exceptions import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.precision.policy import PrecisionPolicy

#: Valid ``solve_mode`` values.  ``"adaptive"`` starts sketched (so the
#: basis-condition / residual-gap monitors are live) and switches to the
#: cheaper classical coordinate solve — and back — as the diagnostics
#: cross their thresholds.
SOLVE_MODES = ("classical", "sketched", "adaptive")

#: Valid ``mpk_mode`` values: the three kernel modes plus ``"auto"``
#: (communication-avoiding whenever the preconditioner composes,
#: standard otherwise — the fallback the paper's Trilinos setting
#: hard-codes).  ``auto`` escalates to the overlapped PA2 kernel when
#: the cost model predicts the deep-ring exchange hides entirely behind
#: the first owned-rows SpMV (see
#: :func:`repro.krylov.mpk.overlap_ring_hides`); on latency-bound
#: machines where the ring pokes out of that window it stays on plain
#: ``"ca"``.
MPK_SOLVER_MODES = ("standard", "ca", "ca_overlap", "auto")

#: Default leave-one-out distortion above which a sketched solve redraws
#: its embedding at the next cycle.  Calibration note: the split test
#: evaluates *half*-sized embeddings, so at solver sketch sizes (~4x
#: oversampling, 2x per half) healthy estimates land around 1-3, not
#: near zero — the default only fires when the held-out spectrum is far
#: outside that band (an unlucky draw stretching some direction several
#: fold).  Lower it for tighter certification, or pass ``None`` to
#: disable the automatic redraw.
DEFAULT_RESKETCH_THRESHOLD = 10.0


@dataclass(frozen=True)
class SolverOptions:
    """Immutable bundle of :func:`sstep_gmres` behaviour knobs.

    Parameters
    ----------
    solve_mode:
        ``"classical"`` minimizes the coordinate least-squares problem
        ``||gamma R e1 - H y||`` — correct while the basis is
        orthonormal.  ``"sketched"`` maintains a sketched basis ``S V``
        alongside the full one and minimizes the *embedded* residual
        ``||S V (rhs - H y)||`` instead (randomized GMRES à la RGS):
        valid for any numerically full-rank basis, e.g. the
        sketch-orthonormal one produced by
        :class:`~repro.ortho.randomized.SketchedTwoStageScheme` with
        ``fused=True``.  The sketched path also emits residual-gap /
        basis-condition diagnostics into ``SolveResult.diagnostics``.
        ``"adaptive"`` switches between the two at restart boundaries.
    mpk_mode:
        How the matrix powers kernel communicates: ``"standard"`` (one
        halo exchange per basis column — the paper's and Trilinos'
        setting), ``"ca"`` (ghost-zone communication-avoiding kernel:
        ONE aggregated deep-halo exchange per s-panel, redundant local
        work on a shrinking ghost region; raises
        :class:`~repro.exceptions.ConfigurationError` when the
        preconditioner has no finite ghost closure), ``"ca_overlap"``
        (the PA2 variant of ``"ca"``: eager depth-1 shell, deep ring
        posted nonblocking and overlapped with the first local SpMV;
        unpreconditioned operators only), or ``"auto"`` (CA when the
        preconditioner composes, standard fallback otherwise; picks
        ``"ca_overlap"`` over ``"ca"`` when
        :func:`repro.krylov.mpk.overlap_ring_hides` predicts the deep
        ring fully hides behind the first owned-rows SpMV — true on
        bandwidth-rich machines, false once network latency inflates
        the ring's fixed cost past the compute window).
        All kernels generate bit-identical bases; only the
        communication profile — and hence the modeled time — differs.
    comm_overlap:
        Opt-in overlap of the *solver-level* fused reductions: the
        pipelined/low-synch schemes post the partial fused dot products
        whose inputs are already final at the end of the previous push
        and overlap them with the next operator application
        (:meth:`post_ifused_allreduce_sum` / ``wait``).  Off by default
        because it changes the collective *count* profile (two smaller
        reductions per iteration instead of one fused one) that the
        communication-budget tests pin down; numerical results are
        bit-identical either way.
    precision:
        A :class:`~repro.precision.policy.PrecisionPolicy` (or
        registered name, e.g. ``"fp32"``) for the Krylov basis: the
        basis is stored — and its panel traffic charged — at
        ``policy.storage``, local reductions accumulate per
        ``policy.accumulate``, and when no ``scheme`` is given a
        ``policy.gram != "fp64"`` selects the mixed-precision two-stage
        scheme.  The right-hand side, iterate and residual always stay
        fp64; pair low-precision storage with
        :func:`repro.krylov.ir.gmres_ir` to recover fp64-level backward
        error.
    sketch_operator / sketch_oversample / sketch_seed:
        Sketch family, embedding-size override and base seed for the
        sketched solve path (ignored in classical mode).  When the
        scheme exposes :attr:`~repro.ortho.base.BlockOrthoScheme.
        basis_sketch`, its sketch is reused and these knobs are
        irrelevant.
    resketch_threshold:
        Leave-one-out distortion above which a sketched/adaptive solve
        *redraws* its embedding at the next restart cycle (operator
        re-derived from ``(seed, cycle, resketch_count)``), instead of
        only reporting the estimate; ``None`` disables the automatic
        re-sketch.  ``diagnostics["resketch_count"]`` records how often
        it fired.
    adaptive_cond_threshold / adaptive_gap_threshold:
        Switching thresholds for ``solve_mode="adaptive"``: the solver
        drops from sketched to classical once a cycle's basis-condition
        estimate stays below ``adaptive_cond_threshold`` AND its
        residual gap below ``adaptive_gap_threshold`` (default
        ``sqrt(eps)``), and escalates back to sketched as soon as the
        gap crosses the threshold.  Requires a scheme that actually
        orthogonalizes (not the fused RGS-contract schemes, whose bases
        are only sketch-orthonormal and never valid for the classical
        coordinate solve).
    """

    solve_mode: str = "classical"
    mpk_mode: str = "standard"
    comm_overlap: bool = False
    precision: "PrecisionPolicy | str | None" = None
    sketch_operator: str = "sparse"
    sketch_oversample: int | None = None
    sketch_seed: int | None = None
    resketch_threshold: float | None = field(
        default=DEFAULT_RESKETCH_THRESHOLD)
    adaptive_cond_threshold: float = 1.0e6
    adaptive_gap_threshold: float | None = None

    def __post_init__(self) -> None:
        if self.solve_mode not in SOLVE_MODES:
            raise ConfigurationError(
                f"unknown solve_mode {self.solve_mode!r}; expected one of "
                f"{SOLVE_MODES}")
        if self.mpk_mode not in MPK_SOLVER_MODES:
            raise ConfigurationError(
                f"unknown mpk_mode {self.mpk_mode!r}; expected one of "
                f"{MPK_SOLVER_MODES}")

    def replace(self, **changes) -> "SolverOptions":
        """Copy with ``changes`` applied (re-validates)."""
        import dataclasses
        return dataclasses.replace(self, **changes)


#: Names of the :class:`SolverOptions` fields (the solver knobs).
OPTION_FIELD_NAMES = frozenset(f.name for f in fields(SolverOptions))
