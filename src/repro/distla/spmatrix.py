"""Block-row distributed sparse matrices with precomputed halo plans.

A :class:`DistSparseMatrix` slices a global CSR matrix into per-rank row
blocks and analyzes, once, which off-rank entries of the input vector each
rank's rows reference (the *halo*).  ``matvec`` then charges one
neighbourhood exchange (paper Sec. III: "applying each SpMV with
neighborhood communication ... in sequence" — Trilinos' standard, non-CA
matrix powers kernel) plus per-rank local SpMV kernels.

The values come from ONE product of the global CSR matrix: each rank's
block is a row slice of it, so every row is the dot product the rank's
own block would compute, in the same order.

The multi-level ghost-zone closures behind the *communication-avoiding*
MPK live in :mod:`repro.distla.halo`; :meth:`DistSparseMatrix.ghost_plan`
analyzes and caches one :class:`~repro.distla.halo.GhostPlan` per
``(depth, expand)`` so repeated s-step panels reuse the setup.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.distla.halo import GhostPlan, HaloPlan
from repro.distla.multivector import DistMultiVector
from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.partition import Partition


class DistSparseMatrix:
    """Square sparse matrix in 1-D block-row distribution.

    Parameters
    ----------
    global_matrix:
        Any scipy sparse matrix (converted to CSR); must be square.
    partition / comm:
        Row distribution and the simulated communicator.
    """

    def __init__(self, global_matrix: sp.spmatrix, partition: Partition,
                 comm: SimComm) -> None:
        a = sp.csr_matrix(global_matrix)
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"matrix must be square, got {a.shape}")
        if a.shape[0] != partition.n_global:
            raise ShapeError(
                f"matrix has {a.shape[0]} rows, partition expects "
                f"{partition.n_global}")
        self.partition = partition
        self.comm = comm
        self.n_global = partition.n_global
        self.local_blocks = [
            a[partition.local_slice(r), :].tocsr()
            for r in range(partition.ranks)
        ]
        self.halo = HaloPlan.analyze(self.local_blocks, partition)
        self.nnz = int(a.nnz)
        self._diag = a.diagonal().copy()
        self._global_csr = a
        self._ghost_plans: dict[tuple[int, str], GhostPlan] = {}
        # per word size: the halo descriptor, and the cost model (held to
        # compare by identity) with its per-rank local SpMV charges
        self._halo_bytes: dict[float, list[dict[int, float]]] = {}
        self._local_costs: dict[float, tuple[object, list[float]]] = {}

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_global, self.n_global)

    def diagonal(self) -> np.ndarray:
        """Copy of the global diagonal (used by Jacobi preconditioners)."""
        return self._diag.copy()

    def local_nnz(self, rank: int) -> int:
        return int(self.local_blocks[rank].nnz)

    def ghost_plan(self, depth: int, expand: str = "pointwise") -> GhostPlan:
        """Cached s-level ghost-zone closure (see :mod:`repro.distla.halo`).

        ``depth`` is the number of local operator applications the plan
        must cover; ``expand`` the per-level dependency rule of the
        composed operator (``"pointwise"`` for identity/Jacobi
        preconditioning, ``"block"`` for block Jacobi).
        """
        key = (int(depth), expand)
        plan = self._ghost_plans.get(key)
        if plan is None:
            plan = GhostPlan.analyze(self._global_csr, self.partition,
                                     depth, expand=expand)
            self._ghost_plans[key] = plan
            # closure analysis is real setup work — charge it on the
            # cache miss so short solves don't get deep-halo planning
            # for free (reuse across panels/solves stays free)
            with self.comm.tracer.phase("spmv"):
                self.comm.charge_local("ghost_plan", [
                    self.comm.cost.ghost_plan_analysis(
                        float(plan.level_rows[r].sum()),
                        float(plan.level_nnz[r].sum()))
                    for r in range(self.partition.ranks)
                ])
        return plan

    # ------------------------------------------------------------------
    def matvec(self, x: DistMultiVector, out: DistMultiVector | None = None,
               kernel_phase_halo: bool = True) -> DistMultiVector:
        """Distributed ``y = A @ x`` for a 1-column multivector.

        Numerically identical to a real distributed SpMV: one product of
        the global CSR matrix with the gathered operand (which a real run
        would have assembled via the halo exchange we charge for) gives
        every rank's rows exactly as its local block would.

        The halo descriptor and the per-rank local charges depend only
        on the matrix, the cost model and the word size, so they are
        evaluated once and reused — except while the cost model feeds a
        metrics registry, which must see every per-rank evaluation.
        """
        if x.partition != self.partition:
            raise ShapeError("operand partition differs from matrix partition")
        if x.n_cols != 1:
            raise ShapeError(f"matvec expects 1 column, got {x.n_cols}")
        comm = self.comm
        if out is None:
            out = DistMultiVector.zeros(self.partition, comm, 1)
        elif out.n_cols != 1 or out.partition != self.partition:
            raise ShapeError("out vector is not conformal")
        # a backend with real ranks may execute the SpMV itself (each
        # worker gathers the operand and computes its own block row);
        # the simulator returns False and the driver computes below —
        # modeled charges are identical either way
        executed = comm.exec_spmv(self, x, out)
        if kernel_phase_halo:
            # ghost rows travel at the operand's storage word size
            comm.charge_halo(self._recv_bytes(x.word_bytes))
        if not executed:
            self._apply(x, out)
        comm.charge_local("spmv_local", self._spmv_costs(
            comm.cost, max(x.word_bytes, out.word_bytes)))
        return out

    def _apply(self, x: DistMultiVector, out: DistMultiVector) -> None:
        """``out = A @ x`` as one CSR product over the gathered operand."""
        stack = x.stack
        # the stack of a basis column is strided: reshape gathers it
        x_global = (stack.reshape(-1) if stack is not None
                    else x.to_global()[:, 0])
        # scipy upcasts low-precision operands to float64 for the SpMV;
        # the result rounds back to ``out``'s storage grid once
        y = self._global_csr @ x_global
        if out.storage != "fp64":
            y = out.quantize(y)
        if out.stack is not None:
            out.stack[:, :, 0] = y.reshape(out.stack.shape[:2])
            return
        offsets = self.partition.offsets
        for rank, shard in enumerate(out.shards):
            shard[:, 0] = y[offsets[rank]:offsets[rank + 1]]

    def _recv_bytes(self, word_bytes: float) -> list[dict[int, float]]:
        """The halo descriptor at ``word_bytes``, built once per size:
        the same (never mutated) list each time, which the communicator
        recognizes by identity (see ``SimComm._halo_cost``)."""
        desc = self._halo_bytes.get(word_bytes)
        if desc is None:
            desc = self._halo_bytes[word_bytes] = self.halo.recv_bytes(
                word_bytes)
        return desc

    def _spmv_costs(self, cost, word_bytes: float) -> list[float]:
        """Per-rank local SpMV seconds under ``cost`` at ``word_bytes``."""
        if cost.metrics is None:
            cached = self._local_costs.get(word_bytes)
            # identity, not equality: CostModel equality ignores metrics
            if cached is not None and cached[0] is cost:
                return cached[1]
        costs = [cost.spmv(block.nnz, block.shape[0],
                           block.shape[0] + int(self.halo.halo_counts[rank]),
                           word_bytes=word_bytes)
                 for rank, block in enumerate(self.local_blocks)]
        if cost.metrics is None:
            self._local_costs[word_bytes] = (cost, costs)
        return costs

    def matvec_batched(self, xs: list[DistMultiVector],
                       outs: list[DistMultiVector | None] | None = None
                       ) -> list[DistMultiVector]:
        """Several :meth:`matvec` applications as ONE charged pass.

        Values are identical to per-operand calls; the modeled charges
        fuse under :class:`repro.parallel.batch.BatchCharges` — one halo
        exchange whose payload carries every operand's ghost rows, one
        local-SpMV launch over the stacked operands.  The batched
        multi-RHS solver's panel generation is exactly this pattern.
        """
        if outs is None:
            outs = [None] * len(xs)
        if len(outs) != len(xs):
            raise ShapeError(
                f"{len(xs)} operands but {len(outs)} output vectors")
        from repro.parallel.batch import BatchCharges
        results: list[DistMultiVector] = []
        with BatchCharges(self.comm) as batch:
            with batch.group():
                for x, out in zip(xs, outs):
                    with batch.member():
                        results.append(self.matvec(x, out=out))
        return results

    def to_scipy(self) -> sp.csr_matrix:
        """Reassemble the global CSR matrix (testing/diagnostics)."""
        return sp.vstack(self.local_blocks, format="csr")

    def __repr__(self) -> str:
        return (f"DistSparseMatrix(n={self.n_global}, nnz={self.nnz}, "
                f"ranks={self.partition.ranks})")
