"""1-D block-row partitions of a global index range over P ranks.

The paper distributes matrices and basis vectors "among MPI processes in
1D block row format" (Section VII).  A :class:`Partition` is the single
source of truth for who owns which rows; the distributed containers in
:mod:`repro.distla` carry one around.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartitionError
from repro.utils.validation import check_positive_int


class Partition:
    """Contiguous block-row partition of ``n_global`` rows over ``ranks``.

    Parameters
    ----------
    n_global:
        Total number of rows.
    ranks:
        Number of MPI ranks (simulated devices).
    offsets:
        Optional explicit rank boundaries, length ``ranks + 1`` with
        ``offsets[0] == 0`` and ``offsets[-1] == n_global``; defaults to a
        balanced split (remainder spread over the leading ranks, matching
        Tpetra's default contiguous map).
    """

    def __init__(self, n_global: int, ranks: int,
                 offsets: np.ndarray | None = None) -> None:
        self.n_global = check_positive_int(n_global, "n_global")
        self.ranks = check_positive_int(ranks, "ranks")
        if offsets is None:
            base, rem = divmod(self.n_global, self.ranks)
            counts = np.full(self.ranks, base, dtype=np.int64)
            counts[:rem] += 1
            offsets = np.concatenate([[0], np.cumsum(counts)])
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.shape != (self.ranks + 1,):
            raise PartitionError(
                f"offsets must have length ranks+1={self.ranks + 1}, "
                f"got {offsets.shape}")
        if offsets[0] != 0 or offsets[-1] != self.n_global:
            raise PartitionError("offsets must start at 0 and end at n_global")
        if np.any(np.diff(offsets) < 0):
            raise PartitionError("offsets must be non-decreasing")
        self.offsets = offsets

    # ------------------------------------------------------------------
    @property
    def counts(self) -> np.ndarray:
        """Rows owned by each rank (length ``ranks``)."""
        return np.diff(self.offsets)

    def local_slice(self, rank: int) -> slice:
        """Global-row slice owned by ``rank``."""
        self._check_rank(rank)
        return slice(int(self.offsets[rank]), int(self.offsets[rank + 1]))

    def local_count(self, rank: int) -> int:
        self._check_rank(rank)
        return int(self.offsets[rank + 1] - self.offsets[rank])

    def max_local_count(self) -> int:
        """Rows on the most loaded rank — what concurrent kernels cost."""
        return int(self.counts.max())

    @property
    def is_uniform(self) -> bool:
        """True when every rank owns the same number of rows.

        Uniform partitions are what the kernel engine can stack into one
        contiguous ``(ranks, rows, k)`` array; ragged ones take its
        per-shard path.
        """
        counts = self.counts
        return bool((counts == counts[0]).all())

    def owner(self, row: int) -> int:
        """Rank owning global row ``row``."""
        if not 0 <= row < self.n_global:
            raise PartitionError(f"row {row} outside [0, {self.n_global})")
        return int(np.searchsorted(self.offsets, row, side="right") - 1)

    def owners(self, rows: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`owner`."""
        rows = np.asarray(rows)
        if rows.size and (rows.min() < 0 or rows.max() >= self.n_global):
            raise PartitionError("row indices outside global range")
        return np.searchsorted(self.offsets, rows, side="right") - 1

    def group_by_owner(self, rows: np.ndarray) -> dict[int, np.ndarray]:
        """Partition a sorted global row set by owning rank.

        Returns ``{rank: rows_owned_by_rank}`` with only non-empty
        groups — the shape halo/ghost planners need to size per-peer
        messages.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size == 0:
            return {}
        owners = self.owners(rows)
        groups: dict[int, np.ndarray] = {}
        for peer in np.unique(owners):
            groups[int(peer)] = rows[owners == peer]
        return groups

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.ranks:
            raise PartitionError(f"rank {rank} outside [0, {self.ranks})")

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Partition)
                and self.n_global == other.n_global
                and self.ranks == other.ranks
                and np.array_equal(self.offsets, other.offsets))

    def __hash__(self) -> int:  # partitions are logically immutable
        return hash((self.n_global, self.ranks, self.offsets.tobytes()))

    def __repr__(self) -> str:
        return (f"Partition(n_global={self.n_global}, ranks={self.ranks}, "
                f"counts={self.counts.tolist() if self.ranks <= 8 else '...'})")
