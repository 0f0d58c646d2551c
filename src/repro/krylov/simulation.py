"""The :class:`Simulation` bundle: matrix + machine + communicator + backend.

One object carries everything a solver needs to run *and* be accounted on
the (simulated or real-process) cluster.  Constructing one from a scipy
matrix is the library's main entry point::

    sim = Simulation(laplace2d(200), ranks=24, machine=summit())
    result = sstep_gmres(sim, b, scheme=TwoStageScheme(big_step=60))
    print(sim.tracer.report())

The ``backend`` argument selects the communicator implementation (see
:mod:`repro.parallel.api`): ``"sim"`` (default) models every cost,
``"mp"`` runs each rank as a real OS process and measures wall clock —
the identical solver code runs unchanged on either.  There is no kernel
engine to choose: the costed BLAS layer's one engine
(:data:`repro.distla.engine.ENGINE`) runs stacked kernels on uniform
partitions and per-shard kernels on ragged ones, with identical results
and modeled charges.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.distla.multivector import DistMultiVector
from repro.distla.spmatrix import DistSparseMatrix
from repro.exceptions import ShapeError
from repro.ortho.backend import DistBackend
from repro.parallel.api import make_comm
from repro.parallel.machine import MachineSpec
from repro.parallel.partition import Partition
from repro.parallel.tracing import Tracer


class Simulation:
    """Distributed problem instance on a modeled (or real-process) machine.

    Parameters
    ----------
    a:
        Square scipy sparse matrix (the operator).
    ranks:
        Number of devices (one MPI-style rank per device).
    machine:
        Hardware model; defaults to Summit (6 V100/node).
    tracer:
        Optional shared tracer (e.g. to accumulate across solves).  For
        ``backend="sim"`` it holds modeled seconds; for ``backend="mp"``
        it holds measured wall clock (the modeled twin lives at
        ``sim.comm.modeled``).
    partition:
        Optional explicit row partition; defaults to balanced block rows.
    backend:
        Communicator backend, ``"sim"`` (modeled, default) or ``"mp"``
        (real worker processes).  With ``"mp"``, :meth:`close` the
        simulation (or use it as a context manager) to tear the workers
        down; results are bit-identical to ``"sim"``.
    spans:
        When True, record structured
        :class:`~repro.parallel.tracing.SpanEvent` streams on every
        timeline this simulation owns (see :meth:`enable_spans`), for
        the :mod:`repro.obs` exporters and drift monitor.  Off by
        default — the disabled path costs one pointer test per charge.
    metrics:
        When True, attach a
        :class:`~repro.obs.metrics.MetricsRegistry` to the modeled
        timeline (see :meth:`enable_metrics`): per-kernel flop/byte
        counters, arithmetic intensity and roofline utilization against
        this machine's peaks.  Off by default — same one-pointer-test
        disabled path as spans; charges are identical either way.
    """

    def __init__(self, a: sp.spmatrix, ranks: int = 4,
                 machine: MachineSpec | None = None,
                 tracer: Tracer | None = None,
                 partition: Partition | None = None,
                 backend: str = "sim",
                 spans: bool = False,
                 metrics: bool = False) -> None:
        n = a.shape[0]
        if partition is None:
            partition = Partition(n, ranks)
        elif partition.n_global != n or partition.ranks != ranks:
            raise ShapeError("partition inconsistent with matrix/ranks")
        self.comm = make_comm(backend, machine, ranks, tracer=tracer)
        self.machine = self.comm.machine
        self.tracer = self.comm.tracer
        self.partition = partition
        self.metrics = None
        self.matrix = DistSparseMatrix(a, partition, self.comm)
        self.backend = DistBackend(self.comm)
        if spans:
            self.enable_spans()
        if metrics:
            self.enable_metrics()
        # setup (partition/halo analysis) is not solver time
        self.comm.mark()

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return self.partition.n_global

    @property
    def ranks(self) -> int:
        return self.partition.ranks

    @property
    def comm_backend(self) -> str:
        """Which communicator backend this simulation runs on."""
        return self.comm.backend

    def vector_from(self, arr: np.ndarray, storage: str = "fp64",
                    accumulate: str = "fp64") -> DistMultiVector:
        """Scatter a global array into a distributed (multi)vector.

        ``storage`` selects the precision the values are stored (and
        charged) at — see :mod:`repro.precision`.
        """
        return DistMultiVector.from_global(arr, self.partition, self.comm,
                                           storage=storage,
                                           accumulate=accumulate)

    def zeros(self, k: int = 1, storage: str = "fp64",
              accumulate: str = "fp64") -> DistMultiVector:
        return DistMultiVector.zeros(self.partition, self.comm, k,
                                     storage=storage, accumulate=accumulate)

    def ones_solution_rhs(self) -> np.ndarray:
        """RHS such that the solution is all-ones (paper Section VIII:
        'We generated the right-hand-side vector such that the solution is
        a vector of all ones')."""
        return np.asarray(self.matrix.to_scipy()
                          @ np.ones(self.n)).ravel()

    def enable_spans(self) -> None:
        """Start recording span streams on this simulation's timelines.

        Covers the primary tracer and, on ``backend="mp"``, the
        communicator's modeled twin — so one mp solve yields both the
        ``measured`` and the ``modeled`` track of a Chrome trace export
        (:func:`repro.obs.export.export_chrome_trace`).  Idempotent.
        """
        self.tracer.enable_spans()
        modeled = getattr(self.comm, "modeled", None)
        if modeled is not None:
            modeled.enable_spans()

    def enable_metrics(self) -> None:
        """Attach a metrics registry to the *modeled* timeline.

        Creates one :class:`~repro.obs.metrics.MetricsRegistry` (at
        ``sim.metrics``), points the modeled tracer's charge feed at it
        and rebinds the communicator's cost model so every local-kernel
        costing reports its (flops, bytes) shape.  Idempotent.  The
        registry accumulates across every solve on this simulation;
        :meth:`metrics_doc` snapshots it.
        """
        if self.metrics is not None:
            return
        from dataclasses import replace

        from repro.obs.metrics import MetricsRegistry

        self.metrics = MetricsRegistry(self.machine, self.ranks)
        modeled = getattr(self.comm, "modeled", None)
        (modeled if modeled is not None else self.tracer
         ).attach_metrics(self.metrics)
        self.comm.cost = replace(self.comm.cost, metrics=self.metrics)

    def metrics_doc(self) -> dict:
        """JSON snapshot of the metrics registry ({} when disabled).

        What solvers stamp onto ``SolveResult.metrics``.
        """
        return {} if self.metrics is None else (
            self.metrics.snapshot().to_dict())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release communicator resources (worker processes, shared
        memory).  No-op on the ``"sim"`` backend; idempotent."""
        self.comm.close()

    def __enter__(self) -> "Simulation":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Simulation(n={self.n}, ranks={self.ranks}, "
                f"machine={self.machine.name!r}, "
                f"backend={self.comm.backend!r})")
