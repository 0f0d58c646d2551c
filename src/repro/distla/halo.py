"""First-class halo subsystem: single- and multi-level ghost-zone plans.

Two planners over the same sparsity-pattern analysis:

* :class:`HaloPlan` — the depth-1 plan every standard SpMV uses: which
  off-rank operand entries each rank's rows reference, grouped by owning
  peer.  One neighbourhood exchange per SpMV (paper Sec. III, Trilinos'
  standard matrix powers kernel).
* :class:`GhostPlan` — the s-level dependency closure behind the
  communication-avoiding MPK (Chronopoulos & Kim; Demmel et al. "PA1"):
  every rank receives, in ONE aggregated exchange, the ghost rows it
  needs to execute ``s`` SpMVs *locally*, redundantly recomputing ghost
  values whose ghost region shrinks by one level per step.

The closure is taken over the *composed* operator ``A M^{-1}``: a
pointwise preconditioner (identity/Jacobi) adds no coupling, while a
block preconditioner (block Jacobi) couples every row of a rank's block,
so each level's dependency set is rounded up to whole owner blocks
(``expand="block"``).  General preconditioners have no finite ghost
closure and are rejected upstream by the kernel.

Payloads are charged at the operand's *storage* word size (a ghost row
of an fp32 basis moves 4 bytes), so plans store per-peer row counts and
convert to bytes at exchange time.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConfigurationError
from repro.parallel.partition import Partition
from repro.precision.dtypes import word_bytes as _word_bytes

#: Closure expansion rules: how one application of ``A M^{-1}`` grows a
#: row dependency set.  ``"pointwise"`` follows the sparsity pattern
#: only; ``"block"`` additionally rounds each level up to whole owner
#: blocks (block-Jacobi couples every row of a rank's block).
EXPAND_MODES = ("pointwise", "block")

_DOUBLE = _word_bytes("fp64")


def _row_union(a: sp.csr_matrix, rows: np.ndarray, n: int) -> np.ndarray:
    """``rows ∪ cols(A[rows, :])`` as a sorted global index array."""
    mask = np.zeros(n, dtype=bool)
    mask[rows] = True
    mask[a[rows, :].indices] = True
    return np.flatnonzero(mask)


def _block_round(rows: np.ndarray, partition: Partition) -> np.ndarray:
    """Round a row set up to whole owner blocks (sorted global indices)."""
    if rows.size == 0:
        return rows
    owners = np.unique(partition.owners(rows))
    parts = [np.arange(partition.offsets[p], partition.offsets[p + 1])
             for p in owners]
    return np.concatenate(parts) if parts else rows


class HaloPlan:
    """Per-rank description of the off-rank vector entries SpMV gathers.

    Stores per-peer *row counts*; :meth:`recv_bytes` scales them by the
    operand word size (fp64 by default — bit-identical to the historical
    fixed-8-byte charge).
    """

    __slots__ = ("recv_counts_by_peer", "halo_counts")

    def __init__(self, recv_counts_by_peer: list[dict[int, int]],
                 halo_counts: np.ndarray) -> None:
        self.recv_counts_by_peer = recv_counts_by_peer
        self.halo_counts = halo_counts

    def recv_bytes(self, word_bytes: float = _DOUBLE,
                   n_vectors: int = 1) -> list[dict[int, float]]:
        """Per-rank ``{peer: bytes}`` for exchanging ``n_vectors`` operands
        stored at ``word_bytes`` per element."""
        scale = float(word_bytes) * n_vectors
        return [{peer: cnt * scale for peer, cnt in by_peer.items()}
                for by_peer in self.recv_counts_by_peer]

    @classmethod
    def analyze(cls, local_blocks: list[sp.csr_matrix],
                partition: Partition) -> "HaloPlan":
        recv: list[dict[int, int]] = []
        counts = np.zeros(partition.ranks, dtype=np.int64)
        for rank, block in enumerate(local_blocks):
            lo, hi = partition.offsets[rank], partition.offsets[rank + 1]
            cols = np.unique(block.indices)
            external = cols[(cols < lo) | (cols >= hi)]
            counts[rank] = external.size
            by_peer = {peer: int(rows.size) for peer, rows
                       in partition.group_by_owner(external).items()}
            recv.append(by_peer)
        return cls(recv, counts)


class GhostPlan:
    """s-level ghost-zone closure for the communication-avoiding MPK.

    For each rank ``r`` the plan holds the level sets ``L_0 ⊆ L_1 ⊆ ...
    ⊆ L_depth`` where ``L_0`` is the owned row block and ``L_{l}`` is the
    set of rows whose values must be held to execute ``l`` more local
    operator applications (one :func:`expand <EXPAND_MODES>` application
    per level).  The CA kernel gathers ghost values on ``L_depth`` once,
    then step ``j`` computes the next vector on ``L_{depth-j}`` — purely
    local, redundantly recomputing the shrinking ghost region.

    Ghosted local blocks: ``level_blocks[rank][l]`` is the CSR row
    submatrix ``A[L_l, :]`` — what rank ``rank`` multiplies at the step
    landing on level ``l`` (only levels ``0..depth-1`` are ever
    computed; ``L_depth`` is the exchanged input).  Column indices stay
    global: the kernel keeps per-rank work arrays in global index space,
    which is the simulation-side equivalent of a local ghost numbering.
    """

    __slots__ = ("partition", "depth", "expand", "levels", "ghost_rows",
                 "recv_counts_by_peer", "level_blocks",
                 "level_rows", "level_nnz", "level_ranks", "n_global",
                 "_eager_counts", "_ring_counts")

    def __init__(self, partition: Partition, depth: int, expand: str,
                 levels: list[list[np.ndarray]],
                 level_blocks: list[list[sp.csr_matrix]],
                 level_nnz: np.ndarray) -> None:
        self.partition = partition
        self.depth = depth
        self.expand = expand
        self.n_global = partition.n_global
        #: ``levels[rank][l]`` — sorted global rows of ``L_l`` on ``rank``.
        self.levels = levels
        #: ``level_blocks[rank][l]`` — ghosted local block ``A[L_l, :]``.
        self.level_blocks = level_blocks
        #: ``ghost_rows[rank]`` — ``L_depth`` minus the owned block.
        self.ghost_rows = []
        #: ``recv_counts_by_peer[rank]`` — ghost row counts by owner.
        self.recv_counts_by_peer = []
        #: ``level_rows[rank, l]`` / ``level_nnz[rank, l]`` — size and CSR
        #: nonzeros of ``A[L_l, :]`` per rank (redundant-work costing).
        self.level_rows = np.array(
            [[lvl.size for lvl in per_rank] for per_rank in levels],
            dtype=np.int64)
        self.level_nnz = level_nnz
        #: ``level_ranks[rank][l]`` — owner ranks intersecting ``L_l``
        #: (block-preconditioner redundant applies touch these blocks).
        self.level_ranks = [
            [np.unique(partition.owners(lvl)) if lvl.size else
             np.zeros(0, dtype=np.int64) for lvl in per_rank]
            for per_rank in levels]
        for rank in range(partition.ranks):
            lo, hi = partition.offsets[rank], partition.offsets[rank + 1]
            top = levels[rank][depth]
            ghosts = top[(top < lo) | (top >= hi)]
            self.ghost_rows.append(ghosts)
            self.recv_counts_by_peer.append(
                {peer: int(rows.size) for peer, rows
                 in partition.group_by_owner(ghosts).items()})
        self._eager_counts = None
        self._ring_counts = None

    # ------------------------------------------------------------------
    @classmethod
    def analyze(cls, a: sp.csr_matrix, partition: Partition, depth: int,
                expand: str = "pointwise") -> "GhostPlan":
        """Build the closure for ``depth`` operator applications."""
        if depth < 0:
            raise ConfigurationError(f"ghost depth must be >= 0, got {depth}")
        if expand not in EXPAND_MODES:
            raise ConfigurationError(
                f"unknown expand mode {expand!r}; expected one of "
                f"{EXPAND_MODES}")
        a = sp.csr_matrix(a)
        n = partition.n_global
        if a.shape != (n, n):
            raise ConfigurationError(
                f"matrix shape {a.shape} does not match partition "
                f"n_global={n}")
        row_nnz = np.diff(a.indptr)
        levels: list[list[np.ndarray]] = []
        level_blocks: list[list[sp.csr_matrix]] = []
        for rank in range(partition.ranks):
            owned = np.arange(partition.offsets[rank],
                              partition.offsets[rank + 1])
            per_rank = [owned]
            for _ in range(depth):
                grown = _row_union(a, per_rank[-1], n)
                if expand == "block":
                    grown = _block_round(grown, partition)
                per_rank.append(grown)
            levels.append(per_rank)
            level_blocks.append([a[per_rank[lvl], :].tocsr()
                                 for lvl in range(depth)])
        level_nnz = np.array(
            [[int(row_nnz[lvl].sum()) for lvl in per_rank]
             for per_rank in levels], dtype=np.int64)
        return cls(partition, depth, expand, levels, level_blocks, level_nnz)

    # ------------------------------------------------------------------
    def recv_bytes(self, word_bytes: float = _DOUBLE,
                   n_vectors: int = 1) -> list[dict[int, float]]:
        """Per-rank ``{peer: bytes}`` of the ONE aggregated deep-halo
        exchange moving ``n_vectors`` operands at ``word_bytes``/element."""
        scale = float(word_bytes) * n_vectors
        return [{peer: cnt * scale for peer, cnt in by_peer.items()}
                for by_peer in self.recv_counts_by_peer]

    def _split_counts(self) -> tuple[list[dict[int, int]],
                                     list[dict[int, int]]]:
        """(eager, ring) per-rank ghost row counts — the PA2 split.

        ``eager`` is the depth-1 nearest-neighbour shell of the closure
        (``L_1`` minus the owned block); ``ring`` is everything deeper
        (``L_depth`` ghosts minus the eager shell).  Together they
        partition :attr:`ghost_rows` exactly, so eager + ring payloads
        sum to :meth:`recv_bytes` peer for peer.
        """
        if self._eager_counts is None:
            eager, ring = [], []
            for rank in range(self.partition.ranks):
                lo = self.partition.offsets[rank]
                hi = self.partition.offsets[rank + 1]
                near_lvl = self.levels[rank][min(1, self.depth)]
                near = near_lvl[(near_lvl < lo) | (near_lvl >= hi)]
                far = np.setdiff1d(self.ghost_rows[rank], near,
                                   assume_unique=True)
                eager.append({peer: int(rows.size) for peer, rows
                              in self.partition.group_by_owner(near).items()})
                ring.append({peer: int(rows.size) for peer, rows
                             in self.partition.group_by_owner(far).items()})
            self._eager_counts, self._ring_counts = eager, ring
        return self._eager_counts, self._ring_counts

    def eager_recv_bytes(self, word_bytes: float = _DOUBLE,
                         n_vectors: int = 1) -> list[dict[int, float]]:
        """Payload of the depth-1 ghost shell — what the PA2 overlapped
        kernel exchanges eagerly (blocking) before posting the ring."""
        scale = float(word_bytes) * n_vectors
        return [{peer: cnt * scale for peer, cnt in by_peer.items()}
                for by_peer in self._split_counts()[0]]

    def ring_recv_bytes(self, word_bytes: float = _DOUBLE,
                        n_vectors: int = 1) -> list[dict[int, float]]:
        """Payload of the deep-ring remainder (levels 2..depth) — what
        PA2 posts nonblocking and hides behind the first local SpMVs."""
        scale = float(word_bytes) * n_vectors
        return [{peer: cnt * scale for peer, cnt in by_peer.items()}
                for by_peer in self._split_counts()[1]]

    def ghost_counts(self) -> np.ndarray:
        """Ghost rows per rank at the deepest level (diagnostics)."""
        return np.array([g.size for g in self.ghost_rows], dtype=np.int64)

    def redundant_rows(self, level: int) -> np.ndarray:
        """Per-rank rows computed *beyond* the owned block at ``level``."""
        return self.level_rows[:, level] - self.partition.counts

    def __repr__(self) -> str:
        return (f"GhostPlan(depth={self.depth}, expand={self.expand!r}, "
                f"ranks={self.partition.ranks}, "
                f"max_ghosts={int(self.ghost_counts().max(initial=0))})")
