"""Block-row distributed multivectors (sets of long column vectors).

A :class:`DistMultiVector` owns one float64 shard per rank, each of shape
``(rows_on_rank, k)``.  Column *views* share shard memory so a Krylov
solver can preallocate the full ``n x (m+1)`` basis once and hand
orthogonalization kernels zero-copy windows into it — the same pattern
Trilinos uses with Tpetra MultiVector subviews.

When the partition is *uniform* (every rank owns the same row count) the
library constructors additionally back the shards by one contiguous
``(ranks, rows, k)`` array, exposed via :attr:`DistMultiVector.stack`.
The kernel engine (:mod:`repro.distla.engine`) runs its kernels
directly on that stack — one batched GEMM over the rank axis instead of
a Python loop — while the per-rank ``shards`` views stay valid for the
per-shard path and for the simulated sparse kernels.

Storage precision: every multivector carries a storage spec
(:data:`repro.precision.dtypes.STORAGE_SPECS` — ``"fp64"``/``"fp32"``/
``"bf16"``) that decides the shard container dtype and the word size the
cost model charges.  Low-precision vectors are *storage* formats only:
the kernel engine accumulates every reduction in float64 and round
results back to the storage grid on write (``"bf16"`` values ride in
float32 containers but are rounded to the bfloat16 grid and charged at
2 bytes/word).  The default ``"fp64"`` reproduces the historical
behavior bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ShapeError
from repro.parallel.communicator import SimComm
from repro.parallel.partition import Partition
from repro.precision import dtypes as _pdtypes


class DistMultiVector:
    """``n_global x k`` dense block, rows distributed by ``partition``.

    Not a NumPy subclass on purpose: every arithmetic op must go through
    the costed BLAS layer, so the container exposes only structure
    (shards, views, gather/scatter) and no operators.
    """

    __slots__ = ("partition", "comm", "shards", "storage", "accumulate",
                 "_base", "_stack")

    def __init__(self, partition: Partition, comm: SimComm,
                 shards: list[np.ndarray], _base: "DistMultiVector | None" = None,
                 _stack: np.ndarray | None = None,
                 storage: str | None = None, accumulate: str = "fp64"):
        if len(shards) != partition.ranks:
            raise ShapeError(
                f"need {partition.ranks} shards, got {len(shards)}")
        k = shards[0].shape[1] if shards else 0
        for r, s in enumerate(shards):
            if s.ndim != 2 or s.shape != (partition.local_count(r), k):
                raise ShapeError(
                    f"shard {r} has shape {s.shape}, expected "
                    f"({partition.local_count(r)}, {k})")
        if storage is None:
            # Infer from the container dtype (callers constructing shards
            # directly predate the precision subsystem): float32 shards
            # are fp32 storage, everything else the fp64 default.  bf16
            # cannot be inferred — its container IS float32 — so it must
            # be requested explicitly.
            storage = ("fp32" if shards and shards[0].dtype == np.float32
                       else "fp64")
        elif shards and shards[0].dtype != _pdtypes.container_dtype(storage):
            # A mislabeled vector would silently compute in the wrong
            # precision AND mischarge bytes (the engine's fast-path and
            # word-size decisions key off `storage`).
            raise ShapeError(
                f"shards have dtype {shards[0].dtype}, but storage "
                f"{storage!r} requires "
                f"{_pdtypes.container_dtype(storage)}")
        if accumulate not in _pdtypes.ACCUMULATE_SPECS:
            raise ShapeError(
                f"unknown accumulate precision {accumulate!r}; expected "
                f"one of {_pdtypes.ACCUMULATE_SPECS}")
        self.partition = partition
        self.comm = comm
        self.shards = shards
        self.storage = _pdtypes.validate_storage(storage)
        # Precision shard-local kernels accumulate partial results in
        # before the (always-float64) reduction tree; "fp32" only takes
        # effect for low-precision storage (see repro.distla.engine).
        self.accumulate = accumulate
        self._base = _base  # keeps the owning vector alive for views
        # (ranks, rows, k) array aliasing the shards, or None (ragged
        # partitions, or shards supplied directly by the caller).
        self._stack = _stack

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, partition: Partition, comm: SimComm, k: int,
              storage: str = "fp64",
              accumulate: str = "fp64") -> "DistMultiVector":
        dtype = _pdtypes.container_dtype(storage)
        if partition.is_uniform:
            # the communicator owns stack storage: the simulator hands
            # back heap arrays, the mp backend shared-memory segments its
            # worker ranks can reach (see repro.parallel.api)
            base = comm.alloc_stack(partition.ranks, partition.local_count(0),
                                    k, dtype)
            return cls(partition, comm, list(base), _stack=base,
                       storage=storage, accumulate=accumulate)
        shards = [np.zeros((partition.local_count(r), k), dtype=dtype)
                  for r in range(partition.ranks)]
        return cls(partition, comm, shards, storage=storage,
                   accumulate=accumulate)

    @classmethod
    def from_global(cls, arr: np.ndarray, partition: Partition,
                    comm: SimComm, storage: str = "fp64",
                    accumulate: str = "fp64") -> "DistMultiVector":
        """Scatter a global ``(n, k)`` or ``(n,)`` array into shards (copies).

        Values are rounded to the ``storage`` grid on the way in.
        """
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[:, np.newaxis]
        if arr.shape[0] != partition.n_global:
            raise ShapeError(
                f"array has {arr.shape[0]} rows, partition expects "
                f"{partition.n_global}")
        if partition.is_uniform:
            base = comm.alloc_stack(partition.ranks, partition.local_count(0),
                                    arr.shape[1],
                                    _pdtypes.container_dtype(storage))
            base[...] = _pdtypes.quantize(arr, storage).reshape(base.shape)
            return cls(partition, comm, list(base), _stack=base,
                       storage=storage, accumulate=accumulate)
        shards = [np.array(_pdtypes.quantize(arr[partition.local_slice(r)],
                                             storage), copy=True)
                  for r in range(partition.ranks)]
        return cls(partition, comm, shards, storage=storage,
                   accumulate=accumulate)

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    @property
    def n_global(self) -> int:
        return self.partition.n_global

    @property
    def n_cols(self) -> int:
        return int(self.shards[0].shape[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_global, self.n_cols)

    @property
    def stack(self) -> np.ndarray | None:
        """``(ranks, rows, k)`` array aliasing the shards, or None.

        Present only for uniform partitions whose storage was allocated by
        the library constructors; the engine runs stacked kernels off it.
        """
        return self._stack

    @property
    def np_dtype(self) -> np.dtype:
        """Container dtype of the shards (bf16 rides in float32)."""
        return _pdtypes.container_dtype(self.storage)

    @property
    def word_bytes(self) -> float:
        """Bytes per stored word — what the cost model charges per element."""
        return _pdtypes.word_bytes(self.storage)

    def quantize(self, arr: np.ndarray) -> np.ndarray:
        """Round ``arr`` to this vector's storage grid (container dtype)."""
        return _pdtypes.quantize(arr, self.storage)

    def view_cols(self, cols: slice | int) -> "DistMultiVector":
        """Zero-copy view of a column range (int selects one column)."""
        if isinstance(cols, int):
            cols = slice(cols, cols + 1)
        shards = [s[:, cols] for s in self.shards]
        stack = None if self._stack is None else self._stack[:, :, cols]
        return DistMultiVector(self.partition, self.comm, shards,
                               _base=self._base or self, _stack=stack,
                               storage=self.storage,
                               accumulate=self.accumulate)

    def copy(self) -> "DistMultiVector":
        if self._stack is not None:
            base = self._stack.copy()  # fresh contiguous (ranks, rows, k)
            return DistMultiVector(self.partition, self.comm, list(base),
                                   _stack=base, storage=self.storage,
                                   accumulate=self.accumulate)
        shards = [np.array(s, copy=True) for s in self.shards]
        return DistMultiVector(self.partition, self.comm, shards,
                               storage=self.storage,
                               accumulate=self.accumulate)

    def to_global(self) -> np.ndarray:
        """Gather into one ``(n, k)`` array (simulation-side; not costed)."""
        return np.concatenate(self.shards, axis=0)

    def assign_from(self, other: "DistMultiVector") -> None:
        """Copy ``other``'s values into this vector's storage.

        Cross-precision copies round to this vector's storage grid.
        """
        self._check_conformal(other)
        same = self.storage == other.storage
        if self._stack is not None and other._stack is not None:
            self._stack[...] = (other._stack if same
                                else self.quantize(other._stack))
            return
        for mine, theirs in zip(self.shards, other.shards):
            mine[...] = theirs if same else self.quantize(theirs)

    def fill(self, value: float) -> None:
        value = self.quantize(np.asarray(value, dtype=np.float64))
        if self._stack is not None:
            self._stack[...] = value
            return
        for s in self.shards:
            s[...] = value

    def _check_conformal(self, other: "DistMultiVector") -> None:
        if self.partition != other.partition:
            raise ShapeError("multivectors live on different partitions")
        if self.n_cols != other.n_cols:
            raise ShapeError(
                f"column mismatch: {self.n_cols} vs {other.n_cols}")

    def __repr__(self) -> str:
        extra = "" if self.storage == "fp64" else f", storage={self.storage!r}"
        return (f"DistMultiVector(shape={self.shape}, "
                f"ranks={self.partition.ranks}{extra})")
