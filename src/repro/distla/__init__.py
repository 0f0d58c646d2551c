"""Distributed (simulated) dense and sparse linear algebra.

Containers: :class:`DistMultiVector` (1-D block-row distributed n x k
blocks of vectors) and :class:`DistSparseMatrix` (block-row CSR with a
precomputed halo-exchange plan).  All numerically-relevant operations are
routed through :mod:`repro.distla.blas` / :mod:`repro.distla.spmv`, which
perform the per-rank computation and charge modeled time.  How the
per-rank work executes is decided by one kernel engine
(:data:`repro.distla.engine.ENGINE`): uniform partitions run as single
batched kernels over the stacked shards, anything without a stack runs
one kernel per shard.
"""

from repro.distla.halo import GhostPlan, HaloPlan
from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.distla.engine import BatchedEngine, LoopEngine
from repro.distla.blas import (
    block_dot,
    block_dot_multi,
    block_update,
    column_norms,
    dot_dd_dist,
    lincomb,
    trsm_inplace,
)

__all__ = [
    "DistMultiVector",
    "DistSparseMatrix",
    "GhostPlan",
    "HaloPlan",
    "LoopEngine",
    "BatchedEngine",
    "block_dot",
    "block_dot_multi",
    "block_update",
    "column_norms",
    "dot_dd_dist",
    "lincomb",
    "trsm_inplace",
]
