"""Per-layer host timing, measured from outside the library.

:class:`LayerProfiler` wraps the public entry points of each ``repro``
module (see :data:`LAYERS`) with a timing shim for the duration of a
traced run and restores the originals afterwards; nothing under ``src/``
is edited.  Every wrapped call pushes a frame on one stack, so each
call's *self* time is its duration minus the time its wrapped children
covered.  Inside a region opened with :meth:`LayerProfiler.region` the
self times of all layers add up exactly to the region's root span.

Spans are kept in memory (only while :attr:`LayerProfiler.keep_spans`
is set) and converted to :class:`repro.parallel.tracing.SpanEvent`
objects on the ``measured`` stream at export time.  The bookkeeping
layers fire hundreds of thousands of times per solve, so they are
counted and timed but leave no span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

#: layer -> wrapped entry points, as ``"module:Class.member"``,
#: ``"module:Class.*"`` (every public member the class itself defines)
#: or ``"module:function"`` / ``"module:*"`` (public module functions).
LAYERS = {
    "matrices": ["repro.matrices.stencil:laplace2d"],
    "simulation": ["repro.krylov.simulation:Simulation.__init__"],
    "spmv": ["repro.distla.spmatrix:DistSparseMatrix.matvec",
             "repro.distla.spmatrix:DistSparseMatrix.matvec_batched"],
    "halo": ["repro.distla.halo:GhostPlan.analyze",
             "repro.distla.halo:HaloPlan.analyze"],
    "mpk": ["repro.krylov.mpk:MatrixPowersKernel.extend",
            "repro.krylov.mpk:PreconditionedOperator.apply",
            "repro.krylov.mpk:PreconditionedOperator.apply_inverse_precond"],
    "engine": ["repro.distla.engine:LoopEngine.*",
               "repro.distla.engine:BatchedEngine.*"],
    "ortho": ["repro.ortho.base:BlockOrthoScheme.begin_cycle",
              "repro.ortho.base:BlockOrthoScheme.finish_cycle",
              "repro.ortho.two_stage:TwoStageScheme.begin_cycle",
              "repro.ortho.two_stage:TwoStageScheme.panel_arrived",
              "repro.ortho.two_stage:TwoStageScheme.finish_cycle"],
    # the panel factorization inside a scheme: TSQR, or the BCGS-PIP
    # panel pass the two-stage scheme uses
    "panel_qr": ["repro.ortho.backend:DistBackend.tsqr",
                 "repro.ortho.backend:DistBackend.tsqr_batched",
                 "repro.ortho.bcgs_pip:bcgs_pip_panel"],
    "hessenberg": ["repro.krylov.hessenberg:*"],
    "driver": ["repro.krylov.sstep_gmres:sstep_gmres",
               "repro.krylov.block:block_sstep_gmres",
               "repro.service.queue:SolveQueue.*"],
    "comm.collective": [
        f"repro.parallel.communicator:SimComm.{m}" for m in (
            "allreduce_sum", "allreduce_scalar", "fused_allreduce_sum",
            "allreduce_sum_stacked", "fused_allreduce_sum_stacked",
            "allreduce_dd", "bcast", "post_iallreduce_sum",
            "post_ifused_allreduce_sum", "post_ifused_allreduce_sum_stacked",
            "post_ihalo", "post_ibcast", "wait")],
    "comm.charge": [
        f"repro.parallel.communicator:SimComm.{m}" for m in (
            "charge_local", "charge_uniform", "charge_halo")],
    "cost": ["repro.parallel.costmodel:CostModel.*"],
    "partition": ["repro.parallel.partition:Partition.*"],
    "tracer": ["repro.parallel.tracing:Tracer.*"],
    # "batch": BatchCharges is instrumented by _patch_batch
}

#: Layers too chatty for one span per call: timed and counted only.
NO_SPANS = frozenset({"comm.charge", "cost", "partition", "tracer", "batch"})


def _public(name: str) -> bool:
    return not name.startswith("_")


def _resolve(target: str) -> list[tuple[object, str]]:
    """``(owner, attribute)`` pairs a target string names."""
    modname, _, path = target.partition(":")
    module = importlib.import_module(modname)
    if "." not in path:
        if path != "*":
            return [(module, path)]
        return [(module, n) for n, v in vars(module).items()
                if _public(n) and inspect.isfunction(v)
                and v.__module__ == modname]
    cls_name, member = path.split(".")
    cls = getattr(module, cls_name)
    if member != "*":
        return [(cls, member)]
    return [(cls, n) for n, v in vars(cls).items()
            if _public(n) and (inspect.isfunction(v) or isinstance(
                v, (property, classmethod)))]


class LayerProfiler:
    """Stack-based self-time profiler over wrapped ``repro`` entry points.

    ``stats[region][name]`` is ``[calls, inclusive_s, self_s]`` for the
    wrapped callable ``name`` (``"Class.member"`` or ``"function"``);
    :attr:`layer_of` maps each name to its layer.  Calls made outside
    any region are timed into the ``None`` region.
    """

    def __init__(self) -> None:
        self.stats: dict = defaultdict(lambda: defaultdict(
            lambda: [0, 0.0, 0.0]))
        self.layer_of: dict[str, str] = {}
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.region_id: str | None = None
        self.origin = perf_counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._batch_depth = 0
        self._outer_batch = None
        #: lockstep counters of the outermost BatchCharges: [groups, members]
        self.lockstep = [0, 0]

    # -- timing core ----------------------------------------------------
    def _timed(self, fn, name: str, layer: str):
        stack = self._stack
        spans = self.spans
        keep = layer not in NO_SPANS
        prof = self

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                child = stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1] += dur
                st = prof.stats[prof.region_id][name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - child
                if keep and prof.keep_spans:
                    spans.append((name, layer, t0, t1, prof.region_id))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str, lockstep: int | None = None):
        """Context-manager factories: their body is the caller's work,
        so only the call is counted (no time is attributed).  With
        ``lockstep``, calls on the outermost open batch also count into
        ``self.lockstep[lockstep]``."""
        prof = self

        def wrapper(*args, **kwargs):
            prof.stats[prof.region_id][name][0] += 1
            if lockstep is not None and args[0] is prof._outer_batch:
                prof.lockstep[lockstep] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_raw(self, raw, name: str, layer: str):
        if isinstance(raw, property):
            return property(self._wrap_raw(raw.fget, name, layer),
                            raw.fset, raw.fdel, raw.__doc__)
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_raw(raw.__func__, name, layer))
        if inspect.isgeneratorfunction(inspect.unwrap(raw)):
            return self._counted(raw, name)
        return self._timed(raw, name, layer)

    # -- install / remove -------------------------------------------------
    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS` (and the batch
        layer); :meth:`uninstall` restores the originals."""
        if self._patches:
            return
        for layer, targets in LAYERS.items():
            for target in targets:
                for owner, attr in _resolve(target):
                    self._patch(owner, attr, layer)
        self._patch_batch()

    def _patch(self, owner, attr: str, layer: str) -> None:
        if inspect.ismodule(owner):
            orig = getattr(owner, attr)
            name = attr
            wrapped = self._wrap_raw(orig, name, layer)
            # callers that imported the function by name hold their own
            # reference: rebind it in every loaded repro module
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, attr, None) is orig):
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)
        else:
            raw = inspect.getattr_static(owner, attr)
            name = f"{owner.__name__}.{attr}"
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrap_raw(raw, name, layer))
        self.layer_of[name] = layer

    def _patch_batch(self) -> None:
        """Instrument :class:`BatchCharges`: count its lockstep rounds
        (``group``) and member slots (``member``) on the outermost open
        batch, and time the charge funnel it installs on the
        communicator while open — the batch layer's actual work."""
        from repro.parallel.batch import BatchCharges

        prof = self
        enter = BatchCharges.__enter__
        exit_ = BatchCharges.__exit__
        funnel = "BatchCharges.fused_charge"
        self.layer_of[funnel] = "batch"
        for idx, attr in enumerate(("group", "member")):
            name = f"BatchCharges.{attr}"
            self.layer_of[name] = "batch"
            raw = inspect.getattr_static(BatchCharges, attr)
            self._patches.append((BatchCharges, attr, raw))
            setattr(BatchCharges, attr, self._counted(raw, name, idx))

        def __enter__(batch):
            out = enter(batch)
            prof._batch_depth += 1
            if prof._batch_depth == 1:
                prof._outer_batch = batch
            fused = vars(batch.comm).get("_charge")
            if fused is not None and not hasattr(fused, "__wrapped__"):
                batch.comm._charge = prof._timed(fused, funnel, "batch")
            return out

        def __exit__(batch, *exc):
            prof._batch_depth -= 1
            if prof._batch_depth == 0:
                prof._outer_batch = None
            return exit_(batch, *exc)

        self._patches += [(BatchCharges, "__enter__", enter),
                          (BatchCharges, "__exit__", exit_)]
        BatchCharges.__enter__ = __enter__
        BatchCharges.__exit__ = __exit__

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- regions ------------------------------------------------------------
    @contextmanager
    def region(self, region_id: str, root: str):
        """Time a root span ``root`` (driver layer) under ``region_id``;
        every wrapped call inside is attributed to this region."""
        prev = self.region_id
        self.region_id = region_id
        self.layer_of[root] = "driver"
        self._stack.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            child = self._stack.pop()
            st = self.stats[region_id][root]
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - child
            if self.keep_spans:
                self.spans.append((root, "driver", t0, t1, region_id))
            self.region_id = prev

    def layer_totals(self, region_id) -> dict[str, list]:
        """``{layer: [calls, self_s]}`` for one region."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, (calls, _, self_s) in self.stats[region_id].items():
            acc = out[self.layer_of[name]]
            acc[0] += calls
            acc[1] += self_s
        return out

    def span_events(self, tags=None):
        """Recorded spans as ``measured``-stream SpanEvents.

        ``tags`` optionally maps a span's time to a finer shared id
        (e.g. the service dispatch it ran in); it is called with
        ``(region_id, t0, t1)`` and returns the id to store in the
        span's ``phase`` field.
        """
        from repro.parallel.tracing import SpanEvent

        events = []
        for name, layer, t0, t1, rid in self.spans:
            tag = rid if tags is None else tags(rid, t0, t1)
            events.append(SpanEvent(name, t0 - self.origin, t1 - self.origin,
                                    str(tag), "measured", cat=layer))
        return events
