"""Mixed-precision block-orthogonalization kernels.

The stability bottleneck of every Cholesky-based scheme in this library
is the *Gram matrix*: forming ``G = V.T V`` (and the Pythagorean update
``G - P.T P``) in working precision squares the panel's condition
number, so the factorization breaks down at ``kappa ~ eps^-1/2``.  The
mixed-precision CholQR of the paper's ref. [26]
(:class:`repro.ortho.cholqr.MixedPrecisionCholQR`) fixes the
*intra-block* factorization by accumulating ``G`` in double-double;
this module extends the same trade to the *inter-block* level:

* :func:`mixed_precision_panel` — a BCGS-PIP-shaped panel pass whose
  Gram matrix and Pythagorean subtraction run at a selectable precision
  (``"dd"`` pushes breakdown to ``kappa ~ eps^-1``; ``"fp32"``
  deliberately degrades it for studying the cliff);
* :class:`MixedPrecisionTwoStageScheme` — the paper's two-stage scheme
  with either stage's pass swapped for the mixed-precision pass.  The
  canonical configuration is storage-fp32 / accumulate-fp64 / Gram-dd:
  panels stream at half the bytes (what the cost model now charges)
  while the dd Gram keeps the second stage factorizable at condition
  numbers where plain fp64 CholQR breaks outright.

Selectable through the :mod:`repro.ortho` registry as
``get_scheme("mixed-two-stage")`` and through
``SolverOptions(precision=...)`` with a ``gram="dd"`` policy.
"""

from __future__ import annotations

import numpy as np

from repro.dd.core import dd_mul, dd_sub, dd_sum
from repro.dd.linalg import cholesky_dd
from repro.exceptions import CholeskyBreakdownError, ConfigurationError
from repro.ortho.bcgs_pip import _pythagorean_factor, bcgs_pip_panel
from repro.ortho.two_stage import TwoStageScheme
from repro.precision.dtypes import GRAM_SPECS

#: Host-side flop multiplier of scalar dd arithmetic (matches the dd
#: Cholesky accounting in :class:`repro.ortho.cholqr.MixedPrecisionCholQR`).
_DD_HOST_PENALTY = 16.0


def _round_gram_fp32(g: np.ndarray) -> np.ndarray:
    """Round a Gram matrix through fp32 (the degraded-Gram study knob)."""
    return np.asarray(g, dtype=np.float32).astype(np.float64)


def mixed_precision_panel(backend, basis, lo: int, hi: int, *,
                          gram: str = "dd", breakdown: str = "raise",
                          panel_index: int = 0
                          ) -> tuple[np.ndarray | None, np.ndarray]:
    """One inter-block pass of columns ``[lo, hi)`` with a mixed-precision
    Gram.

    Contract matches :func:`repro.ortho.bcgs_pip.bcgs_pip_panel`: the
    panel is projected against the prefix ``[0, lo)`` and orthonormalized
    internally; returns ``(P, R_jj)``.

    ``gram`` selects the Gram/Pythagorean precision:

    * ``"dd"`` — the panel Gram travels as a double-double pair (ONE
      collective of 2x payload, :meth:`OrthoBackend.dot_dd`) and the
      Pythagorean subtraction ``G - P.T P`` plus the Cholesky run in dd
      on the host.  Breakdown moves from ``kappa ~ eps^-1/2`` to
      ``kappa ~ eps^-1``.  2 synchronizations when a prefix exists
      (P cannot ride in the dd collective), 1 otherwise.
    * ``"fp32"`` — the classical fp64 pass, with the reduced Gram
      rounded through fp32 before factorization (emulates an fp32 Gram
      reduction; breakdown moves *down* to ``kappa ~ eps_fp32^-1/2 ~
      1e3..1e4`` — the study knob for the precision_stability sweep).
    * ``"fp64"`` — delegates to the classical pass unchanged.
    """
    if gram not in GRAM_SPECS:
        raise ConfigurationError(
            f"unknown gram precision {gram!r}; expected one of {GRAM_SPECS}")
    if gram == "fp64":
        return bcgs_pip_panel(backend, basis, lo, lo, hi,
                              breakdown=breakdown, panel_index=panel_index)
    v = backend.view(basis, slice(lo, hi))
    c = hi - lo
    if gram == "fp32":
        if lo == 0:
            g = backend.fused_dots([(v, v)])[0]                    # 1 sync
            p = None
            s = _round_gram_fp32(g)
        else:
            q = backend.view(basis, slice(0, lo))
            p, g = backend.fused_dots([(q, v), (v, v)])            # 1 sync
            backend.host_flops(2.0 * lo * c * c)
            s = _round_gram_fp32(g - p.T @ p)
        backend.host_flops(c ** 3 / 3.0)
        r_jj = _pythagorean_factor(s, None, breakdown=breakdown,
                                   panel_index=panel_index)
    else:  # gram == "dd"
        if lo == 0:
            p = None
            g_hi, g_lo = backend.dot_dd(v, v)                      # 1 sync
            s_hi, s_lo = g_hi, g_lo
        else:
            # Both the projection AND the Gram travel as dd pairs: an
            # fp64-rounded P would reintroduce an eps*||V||^2 error into
            # the Pythagorean cancellation below, putting the breakdown
            # right back at kappa ~ eps^-1/2.  With P and G both dd,
            # the subtraction keeps ~32 digits and breakdown moves to
            # kappa ~ eps_dd^-1/2 ~ eps^-1.
            q = backend.view(basis, slice(0, lo))
            p_hi, p_lo = backend.dot_dd(q, v)                      # 1 sync
            g_hi, g_lo = backend.dot_dd(v, v)                      # 1 sync
            pt = dd_sum(*dd_mul((p_hi[:, :, None], p_lo[:, :, None]),
                                (p_hi[:, None, :], p_lo[:, None, :])),
                        axis=0)
            s_hi, s_lo = dd_sub((g_hi, g_lo), pt)
            p = p_hi + p_lo
            backend.host_flops(_DD_HOST_PENALTY * 2.0 * lo * c * c)
        backend.host_flops(_DD_HOST_PENALTY * c ** 3 / 3.0)
        try:
            r_jj = cholesky_dd(s_hi, s_lo)
        except CholeskyBreakdownError:
            if breakdown != "shift":
                raise
            # dd factorization failed => the panel is numerically rank
            # deficient even at ~32 digits; recover with the shifted
            # fp64 factorization like the classical pass does.
            r_jj = _pythagorean_factor(s_hi + s_lo, None, breakdown="shift",
                                       panel_index=panel_index)
    if p is not None:
        backend.update(v, q, p)
    backend.trsm(v, r_jj)
    return p, r_jj


class MixedPrecisionTwoStageScheme(TwoStageScheme):
    """Two-stage scheme with mixed-precision (dd-Gram) stage passes.

    Inherits the full two-stage state machine — big-panel accumulation,
    R fix-up, ``w`` bookkeeping, ``bs``-granular finality — and swaps
    the factorization kernel of the selected ``stages`` for
    :func:`mixed_precision_panel`.

    Parameters
    ----------
    big_step:
        Second-stage step size ``bs`` (as in
        :class:`~repro.ortho.two_stage.TwoStageScheme`).
    gram:
        Gram precision for the selected stages (``"dd"`` default;
        ``"fp32"`` for the degraded-Gram study; ``"fp64"`` reduces to
        the classical scheme).
    stages:
        Which stage passes run mixed-precision: any subset of
        ``("first", "big_panel")``.  The default applies it to both —
        the safest configuration at extreme condition numbers.  The
        cheapest useful configuration is ``("big_panel",)``: stage 1
        stays a single-collective classical PIP pass over ``s``-column
        panels (their conditioning is tamed by frequent
        pre-processing), while the breakdown-prone ``bs``-wide second
        stage gets the dd Gram.
    breakdown:
        Cholesky-breakdown policy for both stages ("raise" or "shift").
    """

    name = "mixed-two-stage"

    def __init__(self, big_step: int, breakdown: str = "raise",
                 gram: str = "dd",
                 stages: tuple = ("first", "big_panel")) -> None:
        super().__init__(big_step, breakdown=breakdown)
        if gram not in GRAM_SPECS:
            raise ConfigurationError(
                f"unknown gram precision {gram!r}; expected one of "
                f"{GRAM_SPECS}")
        stages = tuple(stages)
        bad = set(stages) - {"first", "big_panel"}
        if bad:
            raise ConfigurationError(
                f"unknown stage names {sorted(bad)}; expected a subset of "
                f"('first', 'big_panel')")
        self.gram = gram
        self.stages = stages

    def _stage_pass(self, lo: int, hi: int, *, stage: str
                    ) -> tuple[np.ndarray | None, np.ndarray]:
        if stage in self.stages:
            return mixed_precision_panel(
                self.backend, self.basis, lo, hi, gram=self.gram,
                breakdown=self.breakdown, panel_index=lo)
        return super()._stage_pass(lo, hi, stage=stage)
