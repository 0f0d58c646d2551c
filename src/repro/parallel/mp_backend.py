"""Real multiprocess communicator: the ``"mp"`` executor backend.

:class:`MpComm` implements the :class:`~repro.parallel.api.Communicator`
protocol with *actual* OS processes — one persistent worker per rank,
zero dependencies beyond the standard library: ``multiprocessing`` for
the ranks and ``multiprocessing.shared_memory`` for shard storage and
the reduction arena.

Execution model
---------------
* :meth:`MpComm.alloc_stack` places every library-allocated multivector
  stack in a shared-memory segment, so each worker can reach any shard.
* Global reductions scatter per-rank contributions (cast to float64,
  exactly like :meth:`SimComm._tree_sum`) into a shared ``(size, cap)``
  arena; the workers then fold the slots **in the same recursive-doubling
  pair order** — worker ``a`` executes ``slot[a] += slot[b]`` for its
  level pair, with a barrier between levels — so the reduced result is
  bit-identical to the simulator's on the same problem.
* :meth:`MpComm.exec_spmv` runs the distributed SpMV on the workers:
  each rank gathers the operand from the shared stack (the halo-exchange
  analogue) and computes its own block row.
* The communication-avoiding MPK's ghost-zone loops stay driver-executed
  (they are already plain NumPy over shared arrays); its wall clock is
  still measured.
* Posted reductions (``post_*`` / :meth:`MpComm.wait`) are *genuinely*
  asynchronous: the post scatters into a pooled slab and dispatches the
  fold **without** collecting acknowledgements, so the workers reduce
  while the driver computes; the wait matches token-tagged acks
  (stashing any that belong to other outstanding commands) and unpacks
  slot 0.  Real wall time between post and wait is recorded as the
  measured ``overlapped_seconds``, while the modeled twin drains the
  same overlap window as the sim backend — results stay bit-identical.

Measurement model (the planner/executor split)
----------------------------------------------
``MpComm.tracer`` accumulates **measured** wall-clock seconds: every
charge point records the elapsed time since the previous one
(``perf_counter`` deltas), which attributes each stretch of real work to
the kernel charged right after it — the library's convention is to
charge immediately after the work a kernel models.  ``MpComm.modeled``
is the *modeled twin*: the exact SimComm cost formulas charged through
the inherited code paths, with the phase stack aliased so one
``tracer.phase(...)`` region drives both streams.  A solve on the mp
backend therefore yields predicted AND measured numbers for every phase,
and ``modeled`` matches a ``backend="sim"`` run bit-for-bit.

Hygiene: workers are daemons, every blocking wait has a timeout, and
:meth:`close` (also wired to a ``weakref.finalize``) tears down
processes and unlinks every shared segment.
"""

from __future__ import annotations

import time
import traceback
import weakref

import multiprocessing as mp
from multiprocessing.shared_memory import SharedMemory

import numpy as np

from repro.exceptions import CommunicatorError
from repro.parallel.communicator import SimComm
from repro.parallel.machine import MachineSpec
from repro.parallel.tracing import Tracer

_MIN_ARENA_ELEMS = 4096


def _reduce_schedule(size: int) -> list[list[tuple[int, int]]]:
    """Recursive-doubling levels over slot indices.

    Level ``l`` holds ``(a, b)`` pairs meaning *slot a absorbs slot b*;
    folding them in order reproduces :meth:`SimComm._tree_sum` exactly
    (``items[i] + items[i + half]`` per level, odd leftover carried).
    """
    idx = list(range(size))
    levels: list[list[tuple[int, int]]] = []
    while len(idx) > 1:
        half = len(idx) // 2
        levels.append([(idx[i], idx[i + half]) for i in range(half)])
        idx = idx[:half] + (idx[-1:] if len(idx) % 2 else [])
    return levels


def _split_rows(row: np.ndarray, shapes: list[tuple]) -> list[np.ndarray]:
    """Slice one reduced flat row back into per-group result arrays."""
    results = []
    offset = 0
    for shape in shapes:
        m = int(np.prod(shape, dtype=np.int64)) if shape else 1
        results.append(row[offset:offset + m].reshape(shape))
        offset += m
    return results


def _attach_silent(name: str) -> SharedMemory:
    """Attach a segment created by the driver without tracking it.

    The driver's resource tracker owns cleanup; letting the worker's
    attach register the name too either double-books the shared tracker
    (fork) or schedules a bogus unlink at worker exit (spawn).  Python
    3.13 has ``track=False`` for this; earlier versions need the
    register hook silenced around the attach.
    """
    try:
        return SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker
        original = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            return SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _view(segments: dict, desc: dict) -> np.ndarray:
    """Materialize an ndarray described by ``desc`` over a shared segment."""
    shm = segments.get(desc["seg"])
    if shm is None:
        shm = _attach_silent(desc["seg"])
        segments[desc["seg"]] = shm
    return np.ndarray(desc["shape"], dtype=np.dtype(desc["dtype"]),
                      buffer=shm.buf, offset=desc["offset"],
                      strides=desc["strides"])


def _worker_main(rank: int, size: int, conn, barrier, timeout: float) -> None:
    """Per-rank worker loop (module-level: spawn-start compatible)."""
    import scipy.sparse as sp

    from repro.dd.core import dd_add
    from repro.precision.dtypes import quantize

    segments: dict[str, SharedMemory] = {}
    matrices: dict[int, "sp.csr_matrix"] = {}

    def send(ack: dict) -> None:
        # echo the command token so the driver can match this ack to an
        # outstanding (possibly posted/asynchronous) command
        ack["tok"] = cmd.get("tok")
        conn.send(ack)

    while True:
        try:
            cmd = conn.recv()
        except (EOFError, OSError):
            break
        op = cmd.get("op")
        try:
            if op == "exit":
                send({"ok": True})
                break
            if op == "matrix":
                matrices[cmd["token"]] = sp.csr_matrix(
                    (cmd["data"], cmd["indices"], cmd["indptr"]),
                    shape=cmd["shape"])
                send({"ok": True})
            elif op == "reduce":
                shm = segments.get(cmd["arena"])
                if shm is None:
                    shm = _attach_silent(cmd["arena"])
                    segments[cmd["arena"]] = shm
                n = cmd["elems"]
                arena = np.ndarray((size, cmd["cap"]), dtype=np.float64,
                                   buffer=shm.buf)
                dd = cmd["mode"] == "dd"
                h = n // 2
                for pairs in cmd["levels"]:
                    for a, b in pairs:
                        if a != rank:
                            continue
                        if dd:
                            hi, lo = dd_add(
                                (arena[a, :h], arena[a, h:n]),
                                (arena[b, :h], arena[b, h:n]))
                            arena[a, :h] = hi
                            arena[a, h:n] = lo
                        else:
                            arena[a, :n] += arena[b, :n]
                    barrier.wait(timeout)
                send({"ok": True})
            elif op == "spmv":
                t0 = time.perf_counter()
                x = _view(segments, cmd["x"])
                # assemble the global operand from the shared stack — the
                # executor's halo exchange (same values/dtype the
                # simulator feeds ``block @ x_global``)
                x_global = np.asarray(x[:, :, 0]).reshape(-1)
                t1 = time.perf_counter()
                block = matrices[cmd["mat"]]
                y = block @ x_global
                out = _view(segments, cmd["out"])
                if cmd["storage"] != "fp64":
                    y = quantize(y, cmd["storage"])
                out[rank, :, 0] = y
                t2 = time.perf_counter()
                send({"ok": True, "gather": t1 - t0, "compute": t2 - t1})
            else:
                send({"ok": False, "error": f"unknown op {op!r}"})
        except Exception:
            send({"ok": False, "error": traceback.format_exc()})
    for shm in segments.values():
        try:
            shm.close()
        except BufferError:
            pass
    conn.close()


def _cleanup(conns, procs, shms) -> None:
    """Tear down workers and shared segments (close() and GC finalizer)."""
    for conn in conns:
        try:
            conn.send({"op": "exit"})
        except (OSError, ValueError):
            pass
    for p in procs:
        p.join(timeout=5.0)
    for p in procs:
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for shm in shms:
        try:
            shm.close()
        except BufferError:
            # a live multivector still exports the buffer; the mapping
            # dies with the process, unlink below removes the name
            pass
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class MpComm(SimComm):
    """Communicator whose ranks are real ``multiprocessing`` workers.

    Same constructor surface as :class:`SimComm`; ``tracer`` here
    accumulates **measured** wall clock while :attr:`modeled` carries the
    simulator's predicted charges for the identical run.  Close it when
    done (context-manager friendly); ``Simulation.close`` does so for
    simulations constructed with ``backend="mp"``.
    """

    backend = "mp"

    def __init__(self, machine: MachineSpec, size: int,
                 tracer: Tracer | None = None, *,
                 timeout: float = 60.0) -> None:
        super().__init__(machine, size, tracer)
        self.tracer.stream = "measured"
        self.modeled = Tracer()
        # one `with tracer.phase(...)` (and one cycle marker) drives
        # both streams
        self.tracer.share_phase_stack(self.modeled)
        self._timeout = float(timeout)
        self._schedule = _reduce_schedule(self.size)
        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        ctx = mp.get_context(method)
        self._barrier = ctx.Barrier(self.size)
        self._conns: list = []
        self._procs: list = []
        self._shms: list[SharedMemory] = []
        self._segments: list[tuple[str, int, int]] = []  # (name, addr, nbytes)
        self._arena: SharedMemory | None = None
        self._arena_np: np.ndarray | None = None
        self._arena_cap = 0
        # token-tagged ack plumbing: posted reductions leave their acks
        # in the pipes; any later recv stashes mismatched tokens here
        self._tok = 0
        self._ack_stash: list[dict] = [dict() for _ in range(self.size)]
        # slab pool for posted reductions (the main arena may be busy
        # with a blocking collective inside an overlap window)
        self._slab_pool: list[tuple[SharedMemory, np.ndarray, int]] = []
        self._pending: dict[str, float] = {}
        self._matrix_tokens: dict[int, int] = {}
        self._matrix_keep: list = []
        self._closed = False
        for r in range(self.size):
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(r, self.size, child, self._barrier, self._timeout),
                daemon=True, name=f"repro-mp-rank{r}")
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
        self._finalizer = weakref.finalize(
            self, _cleanup, self._conns, self._procs, self._shms)
        self._mark = time.perf_counter()

    # -- measured-time bookkeeping -------------------------------------
    def _model_tracer(self):
        # modeled charges (and overlap-window spans) land on the twin
        return self.modeled

    def _charge(self, kernel: str, seconds: float, count: int = 1,
                payload_bytes: float | None = None, *,
                overlapped_seconds: float | None = None,
                drain: bool = True, driver_side: bool = False) -> None:
        # the inherited SimComm cost formulas land on the modeled twin;
        # modeled overlap windows drain exactly as on the sim backend
        if drain and self._inflight and seconds > 0.0:
            self._drain_inflight(seconds)
        self.modeled.add(kernel, seconds, count=count,
                         payload_bytes=payload_bytes,
                         overlapped_seconds=overlapped_seconds,
                         driver_side=driver_side)

    def mark(self) -> None:
        """Reset the wall-clock attribution mark (drop setup time)."""
        self._mark = time.perf_counter()

    def _take_elapsed(self) -> float:
        now = time.perf_counter()
        dt = now - self._mark
        self._mark = now
        return dt if dt > 0.0 else 0.0

    # -- worker round-trips --------------------------------------------
    def _require_open(self) -> None:
        if self._closed:
            raise CommunicatorError("MpComm is closed")

    def _next_tok(self) -> int:
        self._tok += 1
        return self._tok

    def _send_all(self, cmd: dict) -> int:
        """Dispatch one token-stamped command to every worker WITHOUT
        collecting acknowledgements (the asynchronous half of a posted
        collective).  Per-pipe FIFO keeps command order — and hence the
        shared barrier sequence — identical on every worker."""
        self._require_open()
        tok = self._next_tok()
        stamped = dict(cmd, tok=tok)
        for conn in self._conns:
            conn.send(stamped)
        return tok

    def _recv_ack(self, rank: int, tok: int, opname: str) -> dict:
        """Receive rank's ack for ``tok``, stashing out-of-order acks
        that belong to other outstanding (posted) commands."""
        stash = self._ack_stash[rank]
        if tok in stash:
            return stash.pop(tok)
        conn = self._conns[rank]
        deadline = time.perf_counter() + self._timeout
        while True:
            budget = deadline - time.perf_counter()
            if budget <= 0.0 or not conn.poll(budget):
                raise CommunicatorError(
                    f"rank {rank} did not answer {opname!r} within "
                    f"{self._timeout}s")
            ack = conn.recv()
            if ack.get("tok") == tok:
                return ack
            stash[ack.get("tok")] = ack

    def _collect(self, tok: int, opname: str) -> list[dict]:
        acks = [self._recv_ack(r, tok, opname) for r in range(self.size)]
        errors = [(r, a["error"]) for r, a in enumerate(acks)
                  if not a.get("ok")]
        if errors:
            try:
                self._barrier.reset()
            except Exception:
                pass
            rank, err = errors[0]
            raise CommunicatorError(
                f"rank {rank} failed {opname!r}:\n{err}")
        return acks

    def _roundtrip(self, cmd: dict) -> list[dict]:
        return self._collect(self._send_all(cmd), cmd.get("op"))

    # -- reductions on the workers -------------------------------------
    def _ensure_arena(self, elems: int) -> None:
        if elems <= self._arena_cap:
            return
        cap = max(_MIN_ARENA_ELEMS, self._arena_cap * 2, int(elems))
        shm = SharedMemory(create=True, size=self.size * cap * 8)
        self._shms.append(shm)
        self._arena = shm
        self._arena_cap = cap
        self._arena_np = np.ndarray((self.size, cap), dtype=np.float64,
                                    buffer=shm.buf)

    def _reduce_flat(self, flats: list[np.ndarray], mode: str = "sum"
                     ) -> np.ndarray:
        """Scatter one float64 row per rank, fold on the workers, gather
        slot 0.  ``flats`` are 1-D contributions (already concatenated
        for fused/dd collectives)."""
        self._require_open()
        n = int(flats[0].size)
        self._ensure_arena(n)
        for r, flat in enumerate(flats):
            self._arena_np[r, :n] = flat  # casts to float64, like _tree_sum
        self._roundtrip({"op": "reduce", "arena": self._arena.name,
                         "cap": self._arena_cap, "elems": n,
                         "levels": self._schedule, "mode": mode})
        return self._arena_np[0, :n].copy()

    # -- posted (asynchronous) reductions ------------------------------
    def _acquire_slab(self, elems: int) -> tuple[SharedMemory, np.ndarray, int]:
        """A ``(size, cap)`` float64 scratch arena for one posted
        reduction.  Pooled separately from the main ``_arena`` because a
        blocking collective may run inside the overlap window and must
        not clobber the slots the workers are still folding."""
        needed = int(elems)
        for i, slab in enumerate(self._slab_pool):
            if slab[2] >= needed:
                return self._slab_pool.pop(i)
        cap = max(_MIN_ARENA_ELEMS, needed)
        shm = SharedMemory(create=True, size=self.size * cap * 8)
        self._shms.append(shm)
        view = np.ndarray((self.size, cap), dtype=np.float64, buffer=shm.buf)
        return (shm, view, cap)

    def _release_slab(self, slab: tuple[SharedMemory, np.ndarray, int]
                      ) -> None:
        self._slab_pool.append(slab)

    def _post(self, kernel, seconds, payload_bytes, result):
        req = super()._post(kernel, seconds, payload_bytes, result)
        # park driver setup time (scatter + dispatch) for the wait's
        # measured charge, and stamp the start of the real overlap window
        req._measured_setup = self._take_elapsed()
        req._posted_wall = time.perf_counter()
        return req

    def _post_reduce_flat(self, flats: list[np.ndarray], payload: float,
                          unpack):
        """Scatter into a pooled slab and dispatch the fold WITHOUT
        collecting acks — the workers reduce while the driver computes.
        ``unpack`` maps the reduced slot-0 row to the caller's result."""
        self._require_open()
        n = int(flats[0].size)
        slab = self._acquire_slab(n)
        shm, view, _cap = slab
        for r, flat in enumerate(flats):
            view[r, :n] = flat  # casts to float64, like _tree_sum
        tok = self._send_all({"op": "reduce", "arena": shm.name,
                              "cap": slab[2], "elems": n,
                              "levels": self._schedule, "mode": "sum"})
        req = self._post("allreduce",
                         self.cost.allreduce(payload, self.size),
                         payload, None)
        req._mp = (tok, slab, n, unpack)
        return req

    def post_iallreduce_sum(self, shards):
        self._check_contributions(shards)
        arrs = [np.asarray(s) for s in shards]
        shape = arrs[0].shape
        payload = float(arrs[0].size * arrs[0].dtype.itemsize)
        return self._post_reduce_flat(
            [a.ravel() for a in arrs], payload,
            lambda row: row.reshape(shape))

    def post_ifused_allreduce_sum(self, shard_groups):
        if not shard_groups:
            return super().post_ifused_allreduce_sum(shard_groups)
        groups = [[np.asarray(s) for s in shards]
                  for shards in shard_groups]
        for shards in groups:
            self._check_contributions(shards)
        flats = [np.concatenate([g[r].ravel().astype(np.float64)
                                 for g in groups])
                 for r in range(self.size)]
        shapes = [g[0].shape for g in groups]
        payload = float(sum(
            (int(np.prod(sh, dtype=np.int64)) if sh else 1)
            * g[0].dtype.itemsize for sh, g in zip(shapes, groups)))
        return self._post_reduce_flat(flats, payload,
                                      lambda row: _split_rows(row, shapes))

    def post_ifused_allreduce_sum_stacked(self, stacks):
        if not stacks:
            return super().post_ifused_allreduce_sum_stacked(stacks)
        stacks = [np.asarray(s) for s in stacks]
        for stack in stacks:
            self._check_stack(stack)
        flats = [np.concatenate([s[r].ravel().astype(np.float64)
                                 for s in stacks])
                 for r in range(self.size)]
        shapes = [s.shape[1:] for s in stacks]
        payload = float(sum(
            (int(np.prod(sh, dtype=np.int64)) if sh else 1)
            * s.dtype.itemsize for sh, s in zip(shapes, stacks)))
        return self._post_reduce_flat(flats, payload,
                                      lambda row: _split_rows(row, shapes))

    def wait(self, request):
        """Settle a posted collective: collect the workers' token-tagged
        acks, unpack slot 0, and charge both streams.

        Measured: the parked setup time plus the collect wait, with the
        real wall clock elapsed since the post recorded as
        ``overlapped_seconds``.  Modeled: delegated to the inherited
        drain accounting, so ``modeled`` stays bit-identical to a
        ``backend="sim"`` run.
        """
        if request.done:
            raise CommunicatorError(f"wait() called twice on {request!r}")
        if request.comm is not self:
            raise CommunicatorError(
                "wait() on a request posted by a different communicator")
        hidden_wall = max(
            0.0, time.perf_counter() - getattr(request, "_posted_wall",
                                               time.perf_counter()))
        mp_state = getattr(request, "_mp", None)
        if mp_state is not None:
            tok, slab, n, unpack = mp_state
            self._collect(tok, "reduce")
            request.result = unpack(slab[1][0, :n].copy())
            self._release_slab(slab)
            del request._mp
        result = super().wait(request)
        self.tracer.add(request.kernel,
                        getattr(request, "_measured_setup", 0.0)
                        + self._take_elapsed(),
                        payload_bytes=request.payload_bytes,
                        overlapped_seconds=hidden_wall or None)
        return result

    # -- Communicator reductions ---------------------------------------
    def allreduce_sum(self, shards: list[np.ndarray]) -> np.ndarray:
        self._check_contributions(shards)
        arrs = [np.asarray(s) for s in shards]
        result = self._reduce_flat([a.ravel() for a in arrs]
                                   ).reshape(arrs[0].shape)
        payload = self._payload_bytes(result, arrs[0])
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        self.tracer.add("allreduce", self._take_elapsed(),
                        payload_bytes=payload)
        return result

    def allreduce_scalar(self, values: list[float]) -> float:
        self._check_contributions([np.asarray(v) for v in values])
        result = float(self._reduce_flat(
            [np.asarray([float(v)]) for v in values])[0])
        self._charge("allreduce", self.cost.allreduce(8.0, self.size),
                     payload_bytes=8.0)
        self.tracer.add("allreduce", self._take_elapsed(),
                        payload_bytes=8.0)
        return result

    def fused_allreduce_sum(self, shard_groups: list[list[np.ndarray]]
                            ) -> list[np.ndarray]:
        if not shard_groups:
            return []
        groups = [[np.asarray(s) for s in shards]
                  for shards in shard_groups]
        for shards in groups:
            self._check_contributions(shards)
        flats = [np.concatenate([g[r].ravel().astype(np.float64)
                                 for g in groups])
                 for r in range(self.size)]
        merged = self._reduce_flat(flats)
        results = []
        payload = 0.0
        offset = 0
        for shards in groups:
            shape = shards[0].shape
            m = int(np.prod(shape, dtype=np.int64)) if shape else 1
            red = merged[offset:offset + m].reshape(shape)
            offset += m
            payload += self._payload_bytes(red, shards[0])
            results.append(red)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        self.tracer.add("allreduce", self._take_elapsed(),
                        payload_bytes=payload)
        return results

    def allreduce_sum_stacked(self, stack: np.ndarray) -> np.ndarray:
        stack = np.asarray(stack)
        self._check_stack(stack)
        result = self._reduce_flat(
            [stack[r].ravel() for r in range(self.size)]
        ).reshape(stack.shape[1:])
        payload = self._payload_bytes(result, stack)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        self.tracer.add("allreduce", self._take_elapsed(),
                        payload_bytes=payload)
        return result

    def fused_allreduce_sum_stacked(self, stacks: list[np.ndarray]
                                    ) -> list[np.ndarray]:
        if not stacks:
            return []
        stacks = [np.asarray(s) for s in stacks]
        for stack in stacks:
            self._check_stack(stack)
        flats = [np.concatenate([s[r].ravel().astype(np.float64)
                                 for s in stacks])
                 for r in range(self.size)]
        merged = self._reduce_flat(flats)
        results = []
        payload = 0.0
        offset = 0
        for stack in stacks:
            shape = stack.shape[1:]
            m = int(np.prod(shape, dtype=np.int64)) if shape else 1
            red = merged[offset:offset + m].reshape(shape)
            offset += m
            payload += self._payload_bytes(red, stack)
            results.append(red)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        self.tracer.add("allreduce", self._take_elapsed(),
                        payload_bytes=payload)
        return results

    def allreduce_dd(self, his: list[np.ndarray], los: list[np.ndarray]
                     ) -> tuple[np.ndarray, np.ndarray]:
        self._check_contributions(his)
        self._check_contributions(los)
        shape = np.asarray(his[0]).shape
        m = int(np.asarray(his[0]).size)
        flats = [np.concatenate([np.asarray(h, dtype=np.float64).ravel(),
                                 np.asarray(lo, dtype=np.float64).ravel()])
                 for h, lo in zip(his, los)]
        merged = self._reduce_flat(flats, mode="dd")
        hi = merged[:m].reshape(shape)
        lo = merged[m:].reshape(shape)
        payload = float(hi.nbytes + lo.nbytes)
        self._charge("allreduce", self.cost.allreduce(payload, self.size),
                     payload_bytes=payload)
        self.tracer.add("allreduce", self._take_elapsed(),
                        payload_bytes=payload)
        return hi, lo

    # -- accounting: modeled via super(), measured via elapsed marks ---
    def charge_local(self, kernel: str, per_rank_seconds: list[float],
                     count: int = 1, driver_side: bool = False) -> None:
        super().charge_local(kernel, per_rank_seconds, count=count,
                             driver_side=driver_side)
        self.tracer.add(kernel, self._pending.pop(kernel, 0.0)
                        + self._take_elapsed(), count=count,
                        driver_side=driver_side)

    def charge_uniform(self, kernel: str, seconds: float,
                       count: int = 1, driver_side: bool = False) -> None:
        super().charge_uniform(kernel, seconds, count=count,
                               driver_side=driver_side)
        self.tracer.add(kernel, self._pending.pop(kernel, 0.0)
                        + self._take_elapsed(), count=count,
                        driver_side=driver_side)

    def charge_halo(self, recv_bytes_by_rank: list[dict[int, float]]) -> None:
        super().charge_halo(recv_bytes_by_rank)
        self.tracer.add("halo", self._pending.pop("halo", 0.0)
                        + self._take_elapsed(),
                        payload_bytes=self._halo_payload(recv_bytes_by_rank))

    # -- shard storage and worker-executed SpMV ------------------------
    def alloc_stack(self, ranks: int, rows: int, k: int,
                    dtype) -> np.ndarray:
        """Zeroed ``(ranks, rows, k)`` stack in a shared-memory segment.

        The segment lives until :meth:`close`; vectors allocated on this
        communicator must not outlive it.
        """
        self._require_open()
        shape = (int(ranks), int(rows), int(k))
        nbytes = max(1, int(np.prod(shape, dtype=np.int64))
                     * np.dtype(dtype).itemsize)
        shm = SharedMemory(create=True, size=nbytes)
        self._shms.append(shm)
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        arr[...] = 0
        addr = arr.__array_interface__["data"][0]
        self._segments.append((shm.name, addr, nbytes))
        return arr

    def _describe(self, arr: np.ndarray) -> dict | None:
        """Locate ``arr`` inside a registered shared segment (else None)."""
        addr = arr.__array_interface__["data"][0]
        span = arr.itemsize + sum(
            (n - 1) * abs(s) for n, s in zip(arr.shape, arr.strides) if n)
        for name, base, nbytes in self._segments:
            if base <= addr and addr + span <= base + nbytes:
                return {"seg": name, "offset": addr - base,
                        "shape": arr.shape, "strides": arr.strides,
                        "dtype": arr.dtype.str}
        return None

    def _matrix_token(self, matrix) -> int | None:
        token = self._matrix_tokens.get(id(matrix))
        if token is None:
            token = len(self._matrix_keep)
            tok = self._next_tok()  # per-rank payloads, one shared token
            for r, conn in enumerate(self._conns):
                block = matrix.local_blocks[r].tocsr()
                conn.send({"op": "matrix", "token": token, "tok": tok,
                           "data": block.data, "indices": block.indices,
                           "indptr": block.indptr, "shape": block.shape})
            self._collect(tok, "matrix")
            self._matrix_tokens[id(matrix)] = token
            self._matrix_keep.append(matrix)  # pins id() for the cache
        return token

    def exec_spmv(self, matrix, x, out) -> bool:
        """Run ``out = A @ x`` on the workers when both operands live in
        shared memory; returns False (driver fallback) otherwise.

        The measured cost is split into a halo part (slowest worker's
        operand gather) and a local-compute part, parked in ``_pending``
        for the `charge_halo` / `charge_local("spmv_local")` calls the
        caller issues next.  With spans enabled, each worker's own
        gather/compute timings land as rank-tagged spans (per-rank trace
        lanes) without touching the accumulators.
        """
        if self._closed:
            return False
        if x.stack is None or out.stack is None:
            return False
        xdesc = self._describe(x.stack)
        odesc = self._describe(out.stack)
        if xdesc is None or odesc is None:
            return False
        token = self._matrix_token(matrix)
        acks = self._roundtrip({"op": "spmv", "mat": token, "x": xdesc,
                                "out": odesc, "storage": out.storage})
        elapsed = self._take_elapsed()
        if self.tracer.spans_enabled:
            base = self.tracer.clock
            for r, ack in enumerate(acks):
                g = max(float(ack["gather"]), 0.0)
                c = max(float(ack["compute"]), 0.0)
                self.tracer.record_span("halo", base, base + g,
                                        phase="spmv", rank=r)
                self.tracer.record_span("spmv_local", base + g, base + g + c,
                                        phase="spmv", rank=r)
        gather = max(a["gather"] for a in acks)
        halo = min(max(gather, 0.0), elapsed)
        self._pending["halo"] = self._pending.get("halo", 0.0) + halo
        self._pending["spmv_local"] = (self._pending.get("spmv_local", 0.0)
                                       + (elapsed - halo))
        return True

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Terminate workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._finalizer()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (f"MpComm(machine={self.machine.name!r}, size={self.size}, "
                f"{state})")
