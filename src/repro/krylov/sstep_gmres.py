"""s-step GMRES with pluggable block orthogonalization (paper Fig. 1).

Per restart cycle of ``m`` steps the solver alternates the matrix powers
kernel (``s`` operator applications, no global reductions) with the
configured :class:`~repro.ortho.base.BlockOrthoScheme` — BCGS2+CholQR2
(the original), BCGS-PIP2 (Section IV-C), or the two-stage scheme
(Section V).  The Hessenberg matrix is recovered from the accumulated
``R`` factor and the change-of-basis matrix (line 14: ``H = R T R^{-1}``)
whenever the scheme reports final ``R`` columns, which is also the only
place convergence may be tested — hence the iteration counts in the
paper's tables quantize to multiples of ``s`` (one-stage) or ``bs``
(two-stage).

``solve_mode="sketched"`` turns the same loop into a *randomized* GMRES
(à la randomized Gram-Schmidt GMRES, arXiv:2503.16717): a sketched basis
``S V`` is maintained alongside the full one and the small least-squares
problem is solved in sketch space
(:func:`repro.krylov.hessenberg.sketched_least_squares`), so the basis
only needs to be numerically full rank — explicit l2 orthogonality is
never relied on.  Pair it with
:class:`~repro.ortho.randomized.SketchedTwoStageScheme` ``(fused=True)``,
whose single-collective stage passes produce exactly such a
sketch-orthonormal basis (and whose maintained basis sketch the solver
reuses for free).
"""

from __future__ import annotations

import numpy as np

import math

from repro.config import (
    DEFAULT_RESTART,
    DEFAULT_SEED,
    DEFAULT_STEP_SIZE,
    DEFAULT_TOL,
    EPS,
)
from repro.distla import blas as dblas
from repro.exceptions import CholeskyBreakdownError, ConfigurationError
from repro.krylov.basis import KrylovBasis, MonomialBasis, NewtonBasis
from repro.krylov.gmres import _explicit_residual
from repro.krylov.hessenberg import (
    assemble_hessenberg_mixed,
    least_squares_residual,
    sketched_least_squares,
)
from repro.krylov.mpk import (
    MatrixPowersKernel,
    PreconditionedOperator,
    resolve_mpk_mode,
)
from repro.krylov.options import SolverOptions
from repro.krylov.result import ConvergenceHistory, SolveResult
from repro.krylov.simulation import Simulation
from repro.obs.telemetry import SolveTelemetry
from repro.ortho.base import BlockOrthoScheme, OrthoObserver
from repro.ortho.bcgs_pip import BCGSPIP2Scheme
from repro.precision.kernels import MixedPrecisionTwoStageScheme
from repro.precision.dtypes import word_bytes as _bytes_per_word
from repro.precision.policy import resolve_policy
from repro.precond.base import Preconditioner
from repro.sketch import (
    canonical_family,
    derive_seed,
    leave_one_out_distortion,
    make_operator,
    sketch_rows,
)


class _SolveSketch:
    """Per-solve sketch context for ``solve_mode="sketched"``.

    Maintains the sketched basis ``S V`` of the *final* columns of the
    current cycle.  When the orthogonalization scheme already carries a
    basis sketch (:attr:`BlockOrthoScheme.basis_sketch` — the
    randomized schemes), that sketch is reused and the solve path adds
    ZERO collectives; otherwise newly-finalized columns are sketched on
    demand — one extra fused-size allreduce per checkpoint, charged to
    the ortho phase like every other reduction the solver issues.

    The operator is derived deterministically from ``(seed, cycle,
    resketch_count)`` so repeated solves reproduce bit-for-bit while
    each restart cycle draws a fresh embedding (reusing one across
    adaptively generated cycles would void the w.h.p. guarantee).  When
    the leave-one-out monitor reports the current embedding cannot be
    certified (:meth:`request_resketch`), ``resketch_count`` bumps and
    the next cycle redraws from the new tuple — and the context stops
    trusting scheme-provided sketches, whose operators it cannot
    redraw, maintaining its own from then on.
    """

    def __init__(self, backend, n: int, width: int, family: str,
                 oversample: int | None, seed: int) -> None:
        self.backend = backend
        self.n = n
        self.width = width
        self.family = canonical_family(family)
        self.oversample = oversample
        self.seed = seed
        self.m_rows = sketch_rows(width, n, family=self.family,
                                  oversample=self.oversample)
        self.resketch_count = 0
        self._resketch_armed = False
        self._op = None
        self._sq = np.zeros((self.m_rows, width))
        self._cols = 0

    def begin_cycle(self, cycle: int) -> None:
        if self._resketch_armed:
            self._resketch_armed = False
            self.resketch_count += 1
        # count 0 derives the historical (seed, cycle) tuple so solves
        # that never re-sketch reproduce pre-resketch results bit-for-bit
        ctx = (("sstep-gmres-solve", cycle) if self.resketch_count == 0
               else ("sstep-gmres-solve", cycle, self.resketch_count))
        self._op = make_operator(self.family, self.n, self.m_rows,
                                 derive_seed(self.seed, *ctx))
        self._sq.fill(0.0)
        self._cols = 0

    def request_resketch(self) -> None:
        """Redraw the embedding at the next cycle boundary (at most one
        bump per cycle, however many checkpoints cross the threshold)."""
        self._resketch_armed = True

    def basis_sketch(self, scheme: BlockOrthoScheme, basis_mv,
                     hi: int) -> np.ndarray:
        """``S V_{1:hi}``, reusing the scheme's sketch when it has one."""
        from_scheme = scheme.basis_sketch
        if (from_scheme is not None and from_scheme.shape[1] >= hi
                and self.resketch_count == 0):
            return from_scheme[:, :hi]
        if hi > self._cols:  # sketch only the newly-finalized columns
            view = self.backend.view(basis_mv, slice(self._cols, hi))
            self._sq[:, self._cols:hi] = self.backend.sketch(view, self._op)
            self._cols = hi
        return self._sq[:, :hi]


def _resolve_basis(basis: str | KrylovBasis) -> KrylovBasis:
    if isinstance(basis, KrylovBasis):
        return basis
    if basis == "monomial":
        return MonomialBasis()
    if basis == "newton":
        return NewtonBasis()
    raise ConfigurationError(
        f"unknown basis {basis!r}; use 'monomial', 'newton', or pass a "
        f"KrylovBasis instance (Chebyshev needs an interval)")


def _panel_bounds(s: int, total_cols: int) -> list[tuple[int, int]]:
    """Column ranges per block: first block s+1 cols (incl. the starting
    vector), then s cols each, clipped to the basis width."""
    bounds = [(0, min(s + 1, total_cols))]
    while bounds[-1][1] < total_cols:
        lo = bounds[-1][1]
        bounds.append((lo, min(lo + s, total_cols)))
    return bounds


def sstep_gmres(sim: Simulation, b: np.ndarray,
                x0: np.ndarray | None = None, *,
                s: int = DEFAULT_STEP_SIZE, restart: int = DEFAULT_RESTART,
                tol: float = DEFAULT_TOL, maxiter: int = 100_000,
                scheme: BlockOrthoScheme | None = None,
                basis: str | KrylovBasis = "monomial",
                precond: Preconditioner | None = None,
                observer: OrthoObserver | None = None,
                options: SolverOptions | None = None) -> SolveResult:
    """Solve ``A x = b`` with s-step GMRES on the simulated machine.

    Parameters
    ----------
    s:
        Step size (the paper's conservative default is 5).
    restart:
        Restart length m (paper: 60).
    scheme:
        Block orthogonalization; defaults to :class:`BCGSPIP2Scheme`.
        Pass :class:`~repro.ortho.two_stage.TwoStageScheme` for the
        paper's contribution.
    basis:
        Krylov basis polynomial ("monomial" — the paper's choice —
        "newton", or a :class:`KrylovBasis`).
    precond:
        Optional right preconditioner (set up automatically).
    observer:
        Forwarded to the scheme for numerics instrumentation.
    options:
        A :class:`~repro.krylov.options.SolverOptions` bundling every
        behaviour knob — ``solve_mode``, ``mpk_mode``, ``precision``,
        the sketch parameters and the adaptive thresholds; see its
        docstring for the knob-by-knob reference.  Defaults to
        ``SolverOptions()`` (classical coordinate solve, standard MPK,
        fp64 storage).
    """
    opts = SolverOptions() if options is None else options
    if restart < s:
        raise ConfigurationError(f"restart {restart} must be >= step {s}")
    policy = resolve_policy(opts.precision)
    if scheme is None:
        scheme = _default_scheme(policy, restart)
    poly = _resolve_basis(basis)
    snap = sim.tracer.snapshot()

    if precond is not None and not precond.is_setup:
        precond.setup(sim.matrix)
    op = PreconditionedOperator(sim.matrix, precond)
    kernel_mode = resolve_mpk_mode(op, opts.mpk_mode, sim.comm, s,
                                   word_bytes=_bytes_per_word(policy.storage))
    mpk = MatrixPowersKernel(op, poly, mode=kernel_mode)
    gen = _solve_member(sim, b, x0, s=s, restart=restart, tol=tol,
                        maxiter=maxiter, scheme=scheme, poly=poly, op=op,
                        mpk=mpk, kernel_mode=kernel_mode, observer=observer,
                        opts=opts, policy=policy, snap=snap)
    while True:
        try:
            next(gen)
        except StopIteration as stop:
            return stop.value


def _default_scheme(policy, restart: int) -> BlockOrthoScheme:
    """The no-``scheme`` default: dd-Gram policies need the
    mixed-precision two-stage scheme, everything else BCGS-PIP2."""
    return (MixedPrecisionTwoStageScheme(big_step=restart,
                                         gram=policy.gram,
                                         breakdown="shift")
            if policy.gram != "fp64" else BCGSPIP2Scheme())


def _solve_member(sim: Simulation, b: np.ndarray, x0: np.ndarray | None, *,
                  s: int, restart: int, tol: float, maxiter: int,
                  scheme: BlockOrthoScheme, poly: KrylovBasis,
                  op: PreconditionedOperator, mpk: MatrixPowersKernel,
                  kernel_mode: str, observer: OrthoObserver | None,
                  opts: SolverOptions, policy, snap):
    """The full s-step GMRES iteration for ONE right-hand side, as a
    generator that yields at every lockstep barrier.

    Driving the generator to exhaustion IS the scalar solver —
    :func:`sstep_gmres` does exactly that, so the charge stream and
    every numerical value are the unbatched solve's by construction.
    :func:`repro.krylov.block.block_sstep_gmres` instead advances ``b``
    member generators round-robin, one yield per fusion group, under
    :class:`repro.parallel.batch.BatchCharges`.  Yield points delimit
    the units whose kernels fuse across members: the explicit-residual
    pass, cycle setup, each panel's basis extension, each panel's
    orthogonalization/checkpoint, the cycle flush, and the solution
    update.  The member owns ALL its numerical state (basis, scheme,
    factors, polynomial, telemetry); only the operator/preconditioner —
    stateless per apply — may be shared.

    Returns (via ``StopIteration.value``) the member's
    :class:`SolveResult`; ``times`` are read from ``tracer.since(snap)``
    — in a batch this is the shared timeline up to the member's own
    exit.
    """
    solve_mode = opts.solve_mode
    mpk_mode = opts.mpk_mode
    sketch_operator = opts.sketch_operator
    sketch_oversample = opts.sketch_oversample
    sketch_seed = opts.sketch_seed
    resketch_threshold = opts.resketch_threshold
    adaptive_cond_threshold = opts.adaptive_cond_threshold
    adaptive_gap_threshold = opts.adaptive_gap_threshold
    tracer = sim.tracer
    backend = sim.backend

    b = np.asarray(b, dtype=np.float64).ravel()
    b_vec = sim.vector_from(b)
    x_vec = sim.vector_from(x0 if x0 is not None else np.zeros(sim.n))
    r_vec = sim.zeros(1)
    basis_mv = sim.zeros(restart + 1, storage=policy.storage,
                         accumulate=policy.accumulate)
    r_factor = np.zeros((restart + 1, restart + 1))
    w_factor = np.zeros((restart + 1, restart + 1))
    history = ConvergenceHistory()
    bounds = _panel_bounds(s, restart + 1)

    sketch_ctx: _SolveSketch | None = None
    diagnostics: dict = {}
    if mpk_mode != "standard":
        diagnostics["mpk_mode"] = kernel_mode
    if not policy.is_default:
        diagnostics["precision"] = policy.name
        diagnostics["storage"] = policy.storage
    # mode = the *current* cycle's least-squares path; fixed for the
    # classical/sketched modes, switched between cycles by "adaptive".
    mode = "classical" if solve_mode == "classical" else "sketched"
    gap_threshold = (math.sqrt(EPS) if adaptive_gap_threshold is None
                     else float(adaptive_gap_threshold))
    if solve_mode in ("sketched", "adaptive"):
        sketch_ctx = _SolveSketch(
            backend, sim.n, restart + 1, sketch_operator, sketch_oversample,
            DEFAULT_SEED if sketch_seed is None else sketch_seed)
        diagnostics.update({"solve_mode": solve_mode,
                            "basis_condition_max": 0.0,
                            "residual_gap_max": 0.0,
                            "embedding_distortion_max": 0.0,
                            "embedding_rows": sketch_ctx.m_rows,
                            "resketch_count": 0})
        if solve_mode == "adaptive":
            diagnostics["mode_switches"] = 0

    beta0 = None
    iters = 0
    restarts = 0
    converged = False
    rel_res = np.inf
    h_prev: np.ndarray | None = None
    stalled_cycles = 0
    stalled = False
    est_abs: float | None = None  # last checkpoint's residual estimate
    tel = SolveTelemetry()        # one CycleRecord per restart cycle

    while iters < maxiter and not converged:
        yield "residual"
        gamma = _explicit_residual(sim, b_vec, x_vec, r_vec)
        if beta0 is None:
            beta0 = gamma if gamma > 0 else 1.0
            history.record(0, gamma / beta0)
        if sketch_ctx is not None and est_abs is not None:
            # Residual-gap monitor (arXiv:2409.03079): the distance
            # between the estimated and the explicit residual, relative
            # to the initial residual norm.  The gap belongs to the
            # cycle whose estimate it checks — the one that just ended.
            gap = abs(gamma - est_abs) / beta0
            tel.observe_gap(gap)
            est_abs = None
            if solve_mode == "adaptive":
                # Switch between cycles, never inside one: classical is
                # cheaper (no sketch collectives) but its coordinate
                # least squares silently degrades when orthogonality
                # slips — the residual gap is exactly that slip.  The
                # switch-back guard reads the finished cycle's worst
                # kappa(S V) off its telemetry record.
                prev = tel.last
                prev_cond = (prev.basis_condition
                             if prev is not None
                             and prev.basis_condition is not None else 0.0)
                if mode == "classical" and gap > gap_threshold:
                    mode = "sketched"
                    tel.event_last("mode_switch:sketched")
                elif (mode == "sketched" and gap <= gap_threshold
                      and 0.0 < prev_cond <= adaptive_cond_threshold):
                    mode = "classical"
                    tel.event_last("mode_switch:classical")
        rel_res = gamma / beta0
        if rel_res <= tol:
            converged = True
            break
        yield "setup"
        tel.begin_cycle(restarts, mode=mode)
        tracer.set_cycle(restarts)
        poly.new_cycle(h_prev)
        t_cob = poly.change_of_basis(restart)
        with tracer.phase("ortho"):
            dblas.copy_into(basis_mv.view_cols(0), r_vec)
            backend.scale_cols(basis_mv.view_cols(0), np.array([1.0 / gamma]))
        scheme.begin_cycle(backend, basis_mv, r_factor, observer=observer,
                           w=w_factor, cycle=restarts)
        if sketch_ctx is not None and mode == "sketched":
            sketch_ctx.begin_cycle(restarts)
        # State of each MPK start column at the time it was consumed:
        # "raw" (never orthogonalized), "final" (fully orthogonalized) or
        # "pre" (two-stage stage-1 only); drives the Hessenberg recovery.
        start_state: dict[int, str] = {}

        best: tuple[int, np.ndarray] | None = None  # (c, y) at last final R

        def _check(hi: int) -> bool:
            """Hessenberg + least squares at a final-R checkpoint."""
            nonlocal best, rel_res, h_prev, est_abs
            c = hi - 1
            if c < 1:
                return False
            w_tilde = np.zeros((c + 1, c))
            for k in range(c):
                state = start_state.get(k, "raw")
                if state == "final":
                    w_tilde[k, k] = 1.0
                elif state == "pre":
                    w_tilde[:, k] = w_factor[: c + 1, k]
                else:  # raw generated vector (interior of a panel)
                    w_tilde[:, k] = r_factor[: c + 1, k]
            h = assemble_hessenberg_mixed(r_factor, w_tilde, poly, c)
            backend.host_flops(2.0 * c ** 3)
            rhs = gamma * r_factor[: c + 1, 0]
            if sketch_ctx is not None and mode == "sketched":
                with tracer.phase("ortho"):
                    sq = sketch_ctx.basis_sketch(scheme, basis_mv, c + 1)
                y, resid, info = sketched_least_squares(sq, h, rhs)
                backend.host_flops(
                    2.0 * sq.shape[0] * (c + 1) ** 2 + 2.0 * c ** 3)
                if np.isfinite(info["basis_condition"]):
                    tel.observe("basis_condition", info["basis_condition"])
                # Leave-one-out split test: does the embedding actually
                # certify these basis columns?  Host-only, no
                # collectives; the running max is the re-sketching
                # signal surfaced in SolveResult.diagnostics.
                loo = leave_one_out_distortion(sq)
                backend.host_flops(4.0 * sq.shape[0] * (c + 1) ** 2)
                tel.observe("embedding_distortion", loo)
                if (resketch_threshold is not None
                        and math.isfinite(loo)
                        and loo > resketch_threshold):
                    # a *measured* distortion past the threshold: redraw
                    # the cycle operator from (seed, cycle,
                    # resketch_count) at the next restart instead of
                    # only reporting the estimate.  An infinite estimate
                    # means the split test itself was impossible (too
                    # few sketch rows for the held-out half) — a redraw
                    # of the same shape cannot fix that, so it stays
                    # report-only.
                    sketch_ctx.request_resketch()
                    tel.event("resketch_requested")
                est_abs = resid
            else:
                y, resid = least_squares_residual(h, gamma, rhs=rhs)
                backend.host_flops(2.0 * c ** 3)
                if sketch_ctx is not None:
                    # adaptive mode in a classical cycle: keep the
                    # residual-gap monitor armed so degradation is
                    # caught at the next restart.
                    est_abs = resid
            best = (c, y)
            h_prev = h
            rel_res = resid / beta0
            history.record(iters, rel_res)
            tel.note_residual(rel_res)
            return rel_res <= tol

        cycle_converged = False
        breakdown = False
        for lo, hi in bounds:
            yield "extend"
            if lo > 0:
                start_state[lo - 1] = ("final" if scheme.final_cols >= lo
                                       else "pre")
            mpk.extend(basis_mv, max(lo, 1), hi)
            yield "panel"
            try:
                with tracer.phase("ortho"):
                    final = scheme.panel_arrived(lo, hi)
            except CholeskyBreakdownError:
                # The panel is numerically rank deficient.  Per the
                # paper's Section IV-B this means the Krylov space has
                # (nearly) closed — "otherwise GMRES has converged" —
                # so truncate the cycle at the last sound panel and let
                # the explicit restart decide.
                breakdown = True
                tel.event("breakdown")
                break
            iters += hi - max(lo, 1)
            if final and _check(scheme.final_cols):
                cycle_converged = True
                break
            if iters >= maxiter:
                break
        yield "finish"
        if not cycle_converged:
            try:
                with tracer.phase("ortho"):
                    flushed = scheme.finish_cycle()
            except CholeskyBreakdownError:
                flushed = False
                breakdown = True
                tel.event("breakdown")
            if flushed:
                cycle_converged = _check(scheme.final_cols)

        yield "update"
        # solution update from the last final checkpoint
        if best is not None:
            c, y = best
            tmp = sim.zeros(1)
            z = sim.zeros(1)
            with tracer.phase("other"):
                dblas.matvec_small(basis_mv.view_cols(slice(0, c)),
                                   y[:, np.newaxis], tmp)
            op.apply_inverse_precond(tmp, z)
            with tracer.phase("other"):
                dblas.lincomb(x_vec, [(1.0, x_vec), (1.0, z)])
            stalled_cycles = 0
        elif breakdown:
            # A cycle that produced no usable checkpoint cannot improve
            # the iterate; a second one in a row means the basis breaks
            # down immediately — stop rather than loop forever.
            stalled_cycles += 1
            if stalled_cycles >= 2:
                stalled = True
                tel.end_cycle(iters)
                break
        restarts += 1
        tel.end_cycle(iters)
        if cycle_converged:
            # loop back once more: the explicit residual at the top
            # verifies convergence (paper Fig. 1 lines 18-19)
            continue

    tracer.set_cycle(None)
    # the legacy diagnostics keys are solve-wide reductions of the
    # per-cycle telemetry records (identical values by construction)
    if solve_mode == "adaptive":
        diagnostics["final_mode"] = mode
        diagnostics["mode_switches"] = tel.count_event("mode_switch")
    if sketch_ctx is not None:
        diagnostics["resketch_count"] = sketch_ctx.resketch_count
        diagnostics["basis_condition_max"] = tel.max_of(
            "basis_condition", 0.0)
        diagnostics["residual_gap_max"] = tel.max_of("residual_gap", 0.0)
        diagnostics["embedding_distortion_max"] = tel.max_of(
            "embedding_distortion", 0.0)
    totals = tracer.since(snap)
    times = dict(totals.by_phase)
    times["total"] = totals.clock
    ortho_breakdown = {k[1]: v for k, v in totals.by_kernel.items()
                       if k[0] == "ortho"}
    sync_count = sum(c for (ph, kern), c in totals.counts.items()
                     if kern == "allreduce")
    return SolveResult(
        x=x_vec.to_global()[:, 0], converged=converged, iterations=iters,
        restarts=restarts, relative_residual=float(rel_res),
        history=history, times=times, ortho_breakdown=ortho_breakdown,
        sync_count=sync_count, solver="sstep_gmres", scheme=scheme.name,
        stalled=stalled, diagnostics=diagnostics, telemetry=tel.to_list(),
        metrics=sim.metrics_doc())
