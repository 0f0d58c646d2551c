"""The formal :class:`Communicator` protocol and the backend factory.

Everything the solvers, schemes, and distributed kernels ask of a
communicator is written down here as one explicit protocol — the
communication surface the simulator grew implicitly: tree-ordered global
reductions (plain, fused, stacked, and double-double), their nonblocking
``post_*``/``wait`` counterparts (iallreduce, ihalo, ibcast — posted
collectives whose modeled time subsequent compute charges drain, so the
wait charges only the exposed remainder), neighbourhood (halo) exchange
accounting, broadcasts, concurrent-kernel charging, shard storage
allocation, and an optional backend-executed SpMV hook.

Two backends implement it:

``"sim"`` — :class:`~repro.parallel.communicator.SimComm`, the *planner*.
    Executes reductions driver-side in recursive-doubling pair order and
    charges a LogGP-style :class:`~repro.parallel.costmodel.CostModel` to
    the tracer: every number it produces is **modeled** seconds.

``"mp"`` — :class:`~repro.parallel.mp_backend.MpComm`, the *executor*.
    Each rank is a real OS process (``multiprocessing`` + shared memory)
    owning its shard; reductions fold on the workers in the *same* pair
    order, so results are bit-identical to ``"sim"`` on the same problem.
    Its tracer records **measured** wall-clock per phase, and a modeled
    twin (:attr:`MpComm.modeled`) charges the exact SimComm formulas so
    one run yields predicted *and* measured numbers.  Posted reductions
    map onto genuinely asynchronous worker-side progress: the post
    scatters and dispatches the fold without collecting acknowledgements,
    the wait collects them — driver time between the two is real overlap.

Solver code never branches on the backend: construct via
:func:`make_comm` (or ``Simulation(..., backend=...)``) and the identical
solver/scheme/MPK code runs unchanged on either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.parallel.communicator import CommRequest
from repro.parallel.costmodel import CostModel
from repro.parallel.machine import MachineSpec, summit
from repro.parallel.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.distla.multivector import DistMultiVector
    from repro.distla.spmatrix import DistSparseMatrix

#: Backend names :func:`make_comm` accepts.
BACKENDS = ("sim", "mp")


@runtime_checkable
class Communicator(Protocol):
    """What a backend must provide to run the solvers unchanged.

    Reduction contract: per-rank contributions fold pairwise in
    recursive-doubling order (``items[i] + items[i + half]`` per level,
    odd leftover carried), accumulating in float64 — the order
    :meth:`SimComm._tree_sum` defines.  Any conforming backend must
    reproduce that floating-point result bit-for-bit; the cross-backend
    equivalence suite enforces it.
    """

    machine: MachineSpec
    size: int
    tracer: Tracer
    cost: CostModel
    #: Which :data:`BACKENDS` entry this communicator implements.
    backend: str

    # -- global reductions --------------------------------------------
    def allreduce_sum(self, shards: list[np.ndarray]) -> np.ndarray: ...

    def allreduce_scalar(self, values: list[float]) -> float: ...

    def fused_allreduce_sum(self, shard_groups: list[list[np.ndarray]]
                            ) -> list[np.ndarray]: ...

    def allreduce_sum_stacked(self, stack: np.ndarray) -> np.ndarray: ...

    def fused_allreduce_sum_stacked(self, stacks: list[np.ndarray]
                                    ) -> list[np.ndarray]: ...

    def allreduce_dd(self, his: list[np.ndarray], los: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]: ...

    def bcast(self, value, root: int = 0): ...

    # -- nonblocking collectives (overlap windows) --------------------
    # post_* returns a CommRequest; compute charged between post and
    # wait drains the request's modeled cost, and wait(request) charges
    # only the exposed remainder (tagged with overlapped_seconds).
    # Results are bit-identical to the blocking counterparts.
    def post_iallreduce_sum(self, shards: list[np.ndarray]
                            ) -> CommRequest: ...

    def post_ifused_allreduce_sum(self, shard_groups: list[list[np.ndarray]]
                                  ) -> CommRequest: ...

    def post_ifused_allreduce_sum_stacked(self, stacks: list[np.ndarray]
                                          ) -> CommRequest: ...

    def post_ihalo(self, recv_bytes_by_rank: list[dict[int, float]]
                   ) -> CommRequest: ...

    def post_ibcast(self, value, root: int = 0) -> CommRequest: ...

    def wait(self, request: CommRequest): ...

    # -- local-kernel and neighbourhood accounting --------------------
    def charge_local(self, kernel: str, per_rank_seconds: list[float],
                     count: int = 1, driver_side: bool = False) -> None: ...

    def charge_uniform(self, kernel: str, seconds: float,
                       count: int = 1, driver_side: bool = False) -> None: ...

    def charge_halo(self, recv_bytes_by_rank: list[dict[int, float]]
                    ) -> None: ...

    # -- storage and execution hooks ----------------------------------
    def alloc_stack(self, ranks: int, rows: int, k: int,
                    dtype: np.dtype) -> np.ndarray: ...

    def exec_spmv(self, matrix: "DistSparseMatrix", x: "DistMultiVector",
                  out: "DistMultiVector") -> bool: ...

    # -- lifecycle ----------------------------------------------------
    def close(self) -> None: ...


def make_comm(backend: str = "sim", machine: MachineSpec | None = None,
              size: int = 4, *, tracer: Tracer | None = None
              ) -> "Communicator":
    """Construct a communicator for ``backend`` (``"sim"`` or ``"mp"``).

    Parameters mirror :class:`~repro.parallel.communicator.SimComm`:
    ``machine`` defaults to Summit, ``tracer`` to a fresh
    :class:`~repro.parallel.tracing.Tracer`.  For ``"mp"`` the returned
    communicator owns real worker processes — ``close()`` it (or use it
    as a context manager / let ``Simulation.close`` do it) when done.
    """
    if backend not in BACKENDS:
        raise ConfigurationError(
            f"unknown communicator backend {backend!r}; expected one of "
            f"{BACKENDS}")
    machine = machine if machine is not None else summit()
    if backend == "mp":
        from repro.parallel.mp_backend import MpComm
        return MpComm(machine, size, tracer)
    from repro.parallel.communicator import SimComm
    return SimComm(machine, size, tracer)
