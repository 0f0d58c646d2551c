"""Distributed sketch application over :class:`DistMultiVector` shards.

``S @ V`` decomposes over a row partition as the sum of shard-local
products ``S[:, rows_r] @ V_r`` (see :mod:`repro.sketch.operators`), so
the distributed application is: every rank sketches its own shard with
no communication, then the ``(m_rows, k)`` partials meet in ONE
allreduce — the same single-synchronization pattern as a block dot
product, and the reason randomized orthogonalization fits the paper's
communication-avoiding setting.

Execution goes through the kernel engine
(:data:`repro.distla.engine.ENGINE`): operands with a contiguous
``(ranks, rows, k)`` stack (uniform partitions) go to the operator's
batched kernel and reduce with the stacked (vectorized, bit-identical)
tree; anything else is sketched shard by shard.  Both paths charge
identical modeled costs, so artifacts never depend on the path.
"""

from __future__ import annotations

import numpy as np

from repro.distla.engine import ENGINE
from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.sketch.operators import SketchOperator


def sketch_multivector(v: DistMultiVector, op: SketchOperator
                       ) -> np.ndarray:
    """Global sketch ``S @ V`` — shard-local partials + one allreduce.

    Returns the ``(m_rows, k)`` sketch, replicated on every rank like
    any other reduction result.
    """
    if op.n_rows != v.n_global:
        raise ShapeError(
            f"operator sketches {op.n_rows} rows but multivector has "
            f"{v.n_global}")
    return ENGINE.sketch_apply(v, op)


def sketch_multivector_batched(vs: list[DistMultiVector], op: SketchOperator
                               ) -> list[np.ndarray]:
    """:func:`sketch_multivector` over several multivectors as ONE
    charged pass.

    Values are bit-identical to per-multivector calls (each keeps its
    own partials and reduction tree); the modeled charges fuse under
    :class:`repro.parallel.batch.BatchCharges` — one sketch-apply kernel
    launch across the stacked shards and one allreduce whose payload
    carries every member's ``(m_rows, k)`` partial sum.
    """
    if not vs:
        return []
    comm = vs[0].comm
    if any(v.comm is not comm for v in vs):
        raise ShapeError("batched sketches must share a communicator")
    from repro.parallel.batch import BatchCharges
    out: list[np.ndarray] = []
    with BatchCharges(comm) as batch:
        with batch.group():
            for v in vs:
                with batch.member():
                    out.append(sketch_multivector(v, op))
    return out
