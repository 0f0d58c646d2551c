"""Interfaces shared by all block-orthogonalization algorithms.

Two abstractions:

* :class:`IntraBlockQR` — factorizes one tall-skinny panel in place
  (HHQR, CholQR, CholQR2, shifted/mixed-precision/sketched CholQR).
* :class:`BlockOrthoScheme` — the inter-block state machine a Krylov
  cycle drives: panels of ``s`` (+1) columns arrive one at a time inside a
  shared basis; the scheme orthogonalizes them against the prefix and
  maintains the global ``R`` factor.  ``panel_arrived`` returns whether
  the ``R`` columns written so far are *final* — the solver may only test
  convergence on final columns (this is why the paper's two-stage variant
  converges at multiples of ``bs`` while one-stage variants converge at
  multiples of ``s``; compare iteration counts in Tables III/IV).

:class:`BlockDriver` feeds a pre-generated matrix through a scheme panel
by panel — the harness for the paper's Section VI numerics, where the
blocks come from synthetic matrices instead of a matrix-powers kernel.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError
from repro.ortho.backend import NumpyBackend, OrthoBackend


@dataclass(frozen=True)
class PanelInfo:
    """Event descriptor passed to observers.

    ``stage`` is one of ``"first"`` (one-stage schemes' full panel work, or
    the two-stage pre-processing), ``"second"`` (a second Gram-Schmidt
    pass), ``"big_panel"`` (two-stage second stage over ``bs`` columns).
    ``lo``/``hi`` delimit the basis columns the event finalized or
    pre-processed; ``prefix`` counts fully-final columns before ``lo``.
    """

    stage: str
    panel_index: int
    lo: int
    hi: int
    prefix: int


class OrthoObserver:
    """Callback hook for numerics experiments (condition tracking etc.).

    Subclass and override :meth:`on_event`; the default is a no-op so
    schemes can call unconditionally.
    """

    def on_event(self, info: PanelInfo, backend: OrthoBackend, basis) -> None:
        """Called after each stage transition with the live basis."""


class IntraBlockQR(ABC):
    """Factorize one tall panel in place: ``v <- Q``, return ``R``."""

    #: human-readable algorithm name (used in reports/CLI)
    name: str = "abstract"

    @abstractmethod
    def factor(self, backend: OrthoBackend, v, *, cycle: int = 0,
               panel: int = 0) -> np.ndarray:
        """Orthonormalize ``v``'s columns in place; return upper-tri R.

        ``cycle``/``panel`` identify the call site within a solve
        (restart cycle, first panel column).  Deterministic kernels
        ignore them; randomized kernels fold them into their sketch
        seeds so successive panels draw fresh, decorrelated operators
        while repeated solves stay reproducible.  Schemes that drive an
        intra-block kernel per panel must thread the context (see
        :class:`repro.ortho.bcgs.BCGS2Scheme`).
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class BlockOrthoScheme(ABC):
    """Inter-block orthogonalization state machine (one Krylov cycle).

    Lifecycle::

        scheme.begin_cycle(backend, basis, r)
        for each panel:
            final = scheme.panel_arrived(lo, hi)
            # if final: R[:, :hi] is usable for Hessenberg/convergence
        scheme.finish_cycle()     # flush (two-stage partial big panels)

    ``basis`` is a backend handle with at least ``hi`` columns; ``r`` is a
    caller-owned square ndarray at least ``(hi, hi)`` that the scheme
    fills in place (upper triangular).
    """

    name: str = "abstract"

    #: granularity at which R columns become final ("panel" or "big_panel")
    finality: str = "panel"

    def __init__(self) -> None:
        self.backend: Optional[OrthoBackend] = None
        self.basis = None
        self.r: Optional[np.ndarray] = None
        self.w: Optional[np.ndarray] = None
        self.observer: OrthoObserver = OrthoObserver()
        self.cycle = 0
        self._final_cols = 0
        self._pushed_cols = 0

    # ------------------------------------------------------------------
    def begin_cycle(self, backend: OrthoBackend, basis, r: np.ndarray,
                    observer: OrthoObserver | None = None,
                    w: np.ndarray | None = None, cycle: int = 0) -> None:
        """Reset per-cycle state; ``r`` is written in place.

        ``w`` is optional extra storage for schemes whose basis columns
        pass through an intermediate (pre-processed) state that a matrix
        powers kernel may consume: the scheme records in ``w[:, k]`` the
        representation of column k's *intermediate* content over the final
        orthonormal basis (used by the s-step solver's Hessenberg
        recovery; see :class:`repro.ortho.two_stage.TwoStageScheme`).

        ``cycle`` is the caller's restart-cycle index.  Randomized
        schemes fold it into their sketch-operator seeds, so repeated
        solves with a reused scheme instance are reproducible while
        distinct cycles still draw decorrelated embeddings.
        """
        if r.ndim != 2 or r.shape[0] != r.shape[1]:
            raise ConfigurationError(f"R storage must be square, got {r.shape}")
        self.backend = backend
        self.basis = basis
        self.r = r
        self.w = w
        self.observer = observer if observer is not None else OrthoObserver()
        self.cycle = int(cycle)
        self._final_cols = 0
        self._pushed_cols = 0
        r.fill(0.0)
        if w is not None:
            w.fill(0.0)

    @abstractmethod
    def panel_arrived(self, lo: int, hi: int) -> bool:
        """Columns ``[lo, hi)`` were filled; orthogonalize them.

        Returns True when ``R[:, :hi]`` is final.
        """

    def finish_cycle(self) -> bool:
        """Flush pending work; returns True if new columns became final."""
        return False

    # ------------------------------------------------------------------
    @property
    def final_cols(self) -> int:
        """Number of leading basis columns that are fully orthogonalized."""
        return self._final_cols

    @property
    def basis_sketch(self) -> "np.ndarray | None":
        """Sketch ``S Q`` of the final basis columns, or ``None``.

        Randomized schemes that already maintain a sketch of the basis
        (e.g. :class:`repro.ortho.randomized.RBCGSScheme`) expose it
        here as an ``(m, final_cols)`` array so a sketch-space solver
        (``SolverOptions(solve_mode="sketched")``) can reuse it
        without charging any extra collective.  Deterministic schemes
        return ``None`` and the solver sketches finalized columns
        itself.
        """
        return None

    def _emit(self, stage: str, panel_index: int, lo: int, hi: int,
              prefix: int) -> None:
        self.observer.on_event(
            PanelInfo(stage=stage, panel_index=panel_index, lo=lo, hi=hi,
                      prefix=prefix), self.backend, self.basis)

    @property
    def pushed_cols(self) -> int:
        """Total columns pushed so far (final or pre-processed)."""
        return self._pushed_cols

    def _check_panel(self, lo: int, hi: int) -> None:
        if not 0 <= lo < hi:
            raise ConfigurationError(f"bad panel range [{lo}, {hi})")
        if lo != self._pushed_cols:
            raise ConfigurationError(
                f"panel [{lo}, {hi}) arrived out of order; expected to "
                f"start at column {self._pushed_cols}")
        if hi > self.r.shape[0]:
            raise ConfigurationError(
                f"panel end {hi} exceeds R storage {self.r.shape[0]}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


@dataclass
class DriverResult:
    """Output of :class:`BlockDriver`: explicit factors plus history."""

    q: np.ndarray
    r: np.ndarray
    panels: int


class BlockDriver:
    """Feed a dense matrix through a scheme panel-by-panel (Section VI).

    Parameters
    ----------
    scheme:
        Any :class:`BlockOrthoScheme`.
    panel_width:
        Columns per arriving panel (the step size ``s`` in the paper).
    backend:
        Defaults to :class:`NumpyBackend`.
    """

    def __init__(self, scheme: BlockOrthoScheme, panel_width: int,
                 backend: OrthoBackend | None = None) -> None:
        if panel_width < 1:
            raise ConfigurationError(f"panel_width must be >= 1, got {panel_width}")
        self.scheme = scheme
        self.panel_width = panel_width
        self.backend = backend if backend is not None else NumpyBackend()

    def run(self, v: np.ndarray,
            observer: OrthoObserver | None = None) -> DriverResult:
        """Orthogonalize a copy of ``v``; returns Q, R with ``Q R = V``."""
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 2:
            raise ConfigurationError("driver input must be a 2-D matrix")
        n, k_total = v.shape
        if k_total % self.panel_width:
            raise ConfigurationError(
                f"column count {k_total} not a multiple of panel width "
                f"{self.panel_width}")
        q = self.backend.copy(v)
        r = np.zeros((k_total, k_total))
        self.scheme.begin_cycle(self.backend, q, r, observer=observer)
        n_panels = k_total // self.panel_width
        for j in range(n_panels):
            lo = j * self.panel_width
            self.scheme.panel_arrived(lo, lo + self.panel_width)
        self.scheme.finish_cycle()
        return DriverResult(q=q, r=r, panels=n_panels)
