"""A-posteriori embedding-quality estimation (leave-one-out split test).

An (eps, k) subspace embedding guarantees ``||S x|| = (1 +- eps) ||x||``
on the sketched subspace *with high probability* — but a solver that
trusts an unlucky draw has no way to notice from the sketch alone,
because the sketched basis looks perfectly well-conditioned in its own
norm.  The classical a-posteriori device (Epperly; Martinsson & Tropp
Sec. 9.4) is a *split test*: partition the sketch rows into two halves,
use one half to whiten, and measure the whitened panel through the
*other* half.  Each half is itself a (weaker) embedding, and the two
halves are independent, so the held-out half sees exactly the
distortion the first half's whitening failed to remove:

    W = S2 V R1^{-1},   S1 V = Q1 R1
    => sigma(W) in [(1 - eps2)/(1 + eps1), (1 + eps2)/(1 - eps1)] w.h.p.

``max(|sigma_max(W) - 1|, |1 - sigma_min(W)|)`` therefore *over*-
estimates the full-sketch distortion (half the rows means a larger
eps), which is the right direction for a trigger: re-sketching fires
a bit too eagerly, never too late.

Everything here is host-side math over the already-reduced ``(m, k)``
sketched basis — no extra collectives, which is what makes it cheap
enough to run at every solver checkpoint
(``SolverOptions(solve_mode="sketched")`` surfaces the running maximum as
``SolveResult.diagnostics["embedding_distortion_max"]``).
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from repro.exceptions import ShapeError


def leave_one_out_distortion(sv: np.ndarray) -> float:
    """Distortion estimate of the embedding behind sketched basis ``sv``.

    ``sv`` is the ``(m, k)`` sketched basis ``S V``.  Rows are split
    even/odd (interleaving keeps both halves representative for
    structured operators like SRHT, where a contiguous split could be
    biased) and rescaled by ``sqrt(m / m_half)`` so each half is an
    unbiased embedding in its own right; the first half whitens, the
    second half evaluates.

    Returns ``max(|sigma_max - 1|, |1 - sigma_min|)`` of the held-out
    view of the whitened panel — ``0`` would be a perfect isometry.
    Returns ``inf`` when the test is impossible (fewer than ``2 k``
    sketch rows) or the whitening half is numerically rank-deficient:
    both mean the embedding cannot be certified, which a re-sketching
    trigger should treat as failure.
    """
    sv = np.asarray(sv, dtype=np.float64)
    if sv.ndim != 2:
        raise ShapeError(
            f"sketched basis must be 2-D, got ndim={sv.ndim}")
    m, k = sv.shape
    if k == 0:
        return 0.0
    s1 = sv[0::2]
    s2 = sv[1::2]
    if min(s1.shape[0], s2.shape[0]) < k:
        return float("inf")
    s1 = s1 * math.sqrt(m / s1.shape[0])
    s2 = s2 * math.sqrt(m / s2.shape[0])
    r1 = np.linalg.qr(s1, mode="r")
    diag = np.abs(np.diag(r1))
    if diag.size and (np.min(diag) == 0.0
                      or np.min(diag) < 1e-14 * np.max(diag)):
        return float("inf")
    # W = S2 R1^{-1} via a triangular solve (R1^T W^T = S2^T).
    w = scipy.linalg.solve_triangular(r1, s2.T, trans="T", lower=False).T
    sigma = np.linalg.svd(w, compute_uv=False)
    return float(max(abs(sigma[0] - 1.0), abs(1.0 - sigma[-1])))
