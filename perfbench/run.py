"""Time-to-solution benchmark of the s-step GMRES reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload laplace-paper --seed 0 --seconds 58 --trace 0
    python3 perfbench/run.py --seed 0            # all workloads, one process each

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` makes a separate traced run for the per-layer metrics
(entry points of ``src/repro`` wrapped from here, see ``layers.py``) and
writes a Chrome/Perfetto trace through ``repro.obs.export``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every solve is checked independently with
scipy; a failed check, or a modeled number that does not repeat exactly
across repetitions and runs, makes the run invalid (exit code 1).
Outputs go to ``perfbench/out/`` inside the checkout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

# one BLAS thread (<= nproc): reductions keep one summation order, so
# iteration counts are reproducible, and co-tenant load perturbs less
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

from workloads import WARMUP_NX, WORKLOADS  # noqa: E402  (after the BLAS env)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Floors per run: timed solves, and set-up samples for ``setup_s``.
MIN_SOLVES = 3
MIN_SETUPS = 50
#: Share of an untraced run spent on set-ups alone, interleaved with the
#: solves (set-up is cheap, so ``setup_s`` is a median of many samples).
SETUP_SHARE = 0.1
#: Share of ``--seconds`` each half of a traced run (plain, traced) gets,
#: and the cases it solves (a prefix of the untimed run's cases).
TRACE_SPLIT = 0.4
TRACE_CASES = 4


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import repro  # noqa: F401


# ----------------------------------------------------------------------
# statistics and environment
# ----------------------------------------------------------------------
def high_percentile(values: list[float]) -> tuple[str, float]:
    """Highest percentile with at least ten samples beyond it (else max)."""
    n = len(values)
    if n < 20:
        return "max", max(values)
    p = int(100 * (n - 10) / n)
    return f"p{p}", statistics.quantiles(values, n=100)[p - 1]


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit,
            "code_sha256": code_digest(),
            "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
            "cpu_model": cpu}


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over the program and benchmark sources: identifies the
    code that ran, also in checkouts without git history."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    except OSError:
        return BLAS_THREADS
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return BLAS_THREADS


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# determinism guard
# ----------------------------------------------------------------------
class Fingerprints:
    """Modeled numbers per (workload, case): must repeat exactly across
    repetitions in a run and across runs of the same code in this
    checkout.  Stored records are keyed by :func:`code_digest`, so code
    that changes a modeled number starts a record of its own instead of
    being compared with another version's."""

    path = OUT / "fingerprints.json"

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.code = code_digest()
        self.seen: dict[str, dict] = {}
        self.mismatches: list[str] = []
        self.stored = self._load().get(self.code, {}).get(workload, {})

    def _load(self) -> dict:
        try:
            return json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}

    def check(self, case, fp: dict) -> None:
        key = str(case)
        ref = self.seen.get(key, self.stored.get(key))
        if ref is not None and ref != fp:
            diff = sorted(k for k in set(ref) | set(fp)
                          if ref.get(k) != fp.get(k))
            self.mismatches.append(f"case {key}: {', '.join(diff)}")
        self.seen.setdefault(key, fp)

    def save(self) -> None:
        stored = self._load()
        stored.setdefault(self.code, {}).setdefault(
            self.workload, {}).update(self.seen)
        tmp = self.path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(stored, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# ----------------------------------------------------------------------
# one workload in this process
# ----------------------------------------------------------------------
@dataclass
class Sweep:
    """Solves of one loop: host seconds and first outcome per case."""

    times: dict
    outcomes: dict
    reps: range
    #: the set-up state of the solve whose spans were kept
    span_state: dict | None = None

    def case_medians(self) -> list[float]:
        """Median host seconds of each case (0.0 when every solve raised:
        the run is invalid then and the value only fills the report)."""
        return [statistics.median(ts) for ts in self.times.values()
                if ts] or [0.0]

    def mean(self, key: str) -> float:
        """Mean over the distinct cases of a deterministic number."""
        vals = [o.fingerprint[key] for o in self.outcomes.values()]
        return statistics.fmean(vals) if vals else 0.0


class Runner:
    def __init__(self, wl, seed: int) -> None:
        self.wl = wl
        self.seed = seed
        self.cases = wl.cases(seed)
        self.fingerprints = Fingerprints(wl.name)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.reps = 0

    def warmup(self) -> None:
        """Untimed tiny solve on the workload's own code path."""
        self.wl.solve(self.wl.setup(self.cases[0], nx=WARMUP_NX))

    def setup(self, case, *, prof=None):
        t0 = perf_counter()
        if prof is None:
            state = self.wl.setup(case)
        else:
            with prof.region(f"{self.wl.name}/rep{self.reps}/setup",
                             "setup"):
                state = self.wl.setup(case)
        self.setup_s.append(perf_counter() - t0)
        return state

    def solve(self, case, *, prof=None):
        """Set up and solve one case: ``(seconds, outcome, state)``;
        seconds and outcome are None when the solve raised."""
        state = self.setup(case, prof=prof)
        sim = state["sim"]
        snap = sim.tracer.snapshot()
        gc.collect()  # the previous solve's garbage is not this solve's
        rid = f"{self.wl.name}/rep{self.reps}"
        self.reps += 1
        try:
            t0 = perf_counter()
            if prof is None:
                raw = self.wl.solve(state)
            else:
                with prof.region(rid, "solve"):
                    raw = self.wl.solve(state)
            elapsed = perf_counter() - t0
        except Exception as exc:  # a raising solve is a failed solve
            n = len(state.get("bs", [None]))
            self.attempted += n
            self.failed += n
            self.errors.append(f"{rid}: {type(exc).__name__}: {exc}")
            return None, None, state
        out = self.wl.evaluate(state, raw, sim.tracer.since(snap))
        self.attempted += out.attempted
        self.failed += out.failed
        if out.failed:
            self.errors.append(f"{rid}: {out.failed} failed check(s): "
                               f"{out.details}")
        self.fingerprints.check(case, out.fingerprint)
        return elapsed, out, state

    def sweep(self, budget: float, *, prof=None,
              setup_share: float = 0.0) -> Sweep:
        """Solves cycling over the cases while the next one still fits in
        ``budget`` seconds (every case at least once, at least
        :data:`MIN_SOLVES` solves), then one more solve of the first case
        if no case repeated yet, so the repetition guard always compares
        a pair.  ``setup_share`` of the time goes to set-ups alone,
        interleaved with the solves: host speed drifts during a run, and
        both samples then cover the whole run.  With ``prof``, the first
        solve keeps its spans."""
        first_rep = self.reps
        sw = Sweep({c: [] for c in self.cases}, {}, range(first_rep))
        start = perf_counter()

        def one(case) -> None:
            if prof is not None:
                prof.keep_spans = sw.span_state is None
            t, out, state = self.solve(case, prof=prof)
            if prof is not None and sw.span_state is None:
                sw.span_state = state
                prof.keep_spans = False
            if t is not None:
                sw.times[case].append(t)
                sw.outcomes.setdefault(case, out)

        n = len(self.cases)
        solves = 0
        setup_only = 0.0
        while True:
            one(self.cases[solves % n])
            solves += 1
            while setup_only < setup_share * (perf_counter() - start):
                t0 = perf_counter()
                self.setup(self.cases[len(self.setup_s) % n])
                setup_only += perf_counter() - t0
            elapsed = perf_counter() - start
            if (solves >= max(n, MIN_SOLVES)
                    and elapsed * (solves + 1) / solves > budget):
                break
        if solves == n > 1:
            one(self.cases[0])
        sw.reps = range(first_rep, self.reps)
        return sw

    def extra_setups(self) -> None:
        while len(self.setup_s) < MIN_SETUPS:
            self.setup(self.cases[len(self.setup_s) % len(self.cases)])

    def valid(self) -> bool:
        return not (self.failed or self.errors
                    or self.fingerprints.mismatches)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    runner.warmup()
    sw = runner.sweep(seconds, setup_share=SETUP_SHARE)
    runner.extra_setups()
    attempted = max(runner.attempted, 1)
    metrics = {
        "setup_s": (statistics.median(runner.setup_s), "s"),
        "solve_s": (statistics.median(sw.case_medians()), "s"),
        "modeled_s": (sw.mean("modeled_s"), "s_modeled"),
        "iterations": (sw.mean("iterations"), "count"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "solved_frac": ((attempted - runner.failed) / attempted, "ratio"),
    }
    samples = {"setup_s": runner.setup_s,
               "solve_s": [t for ts in sw.times.values() for t in ts],
               "modeled_s": [o.fingerprint["modeled_s"]
                             for o in sw.outcomes.values()],
               "iterations": [o.fingerprint["iterations"]
                              for o in sw.outcomes.values()]}
    return metrics, {"samples": samples,
                     "cases": {str(c): o.fingerprint
                               for c, o in sw.outcomes.items()}}


#: Layers of LAYERS that run inside a solve -> (calls metric, self-time
#: metric).  With the batch layer (reported as a share: it only runs in
#: the service) and halo analysis (part of ``halo.ghost_plan_s``) their
#: self times must add up to the traced solve_s (see REPORTED_IN_SOLVE).
SOLVE_LAYERS = {
    "spmv": ("spmv.calls", "spmv.self_s"),
    "mpk": ("mpk.calls", "mpk.self_s"),
    "engine": ("engine.calls", "engine.self_s"),
    "ortho": ("ortho.calls", "ortho.self_s"),
    "panel_qr": (None, "ortho.tsqr_s"),
    "hessenberg": ("hessenberg.calls", "hessenberg.s"),
    "driver": (None, "driver.self_s"),
    "comm.collective": ("comm.collective_calls", "comm.collective_s"),
    "comm.charge": ("comm.charge_calls", "comm.charge_s"),
    "cost": ("cost.calls", "cost.s"),
    "partition": ("partition.calls", "partition.s"),
    "tracer": (None, "tracer.s"),
}
#: Plan analyses of distla.halo (in set-up, or lazily inside a solve).
HALO_ANALYSIS = ["GhostPlan.analyze", "HaloPlan.analyze"]
#: Every layer whose self time inside a solve some metric reports.
REPORTED_IN_SOLVE = [*SOLVE_LAYERS, "batch", "halo"]
ENGINE_PARTS = {"trsm": ["trsm_inplace"],
                "dot": ["block_dot", "block_dot_multi",
                        "post_block_dot_multi"],
                "update": ["block_update"]}


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Plain solves, then the same solves with every layer wrapped."""
    from layers import LayerProfiler

    wl = runner.wl
    runner.cases = runner.cases[:TRACE_CASES]
    runner.warmup()
    plain_s = statistics.median(
        runner.sweep(TRACE_SPLIT * seconds).case_medians())
    prof = LayerProfiler()
    prof.install()
    try:
        sw = runner.sweep(TRACE_SPLIT * seconds, prof=prof)
    finally:
        prof.uninstall()

    def med(fn):
        return statistics.median(fn(r) for r in sw.reps)

    def stat(r, names, idx, region=""):
        st = prof.stats[f"{wl.name}/rep{r}{region}"]
        return sum(st[n][idx] for n in names if n in st)

    def layer_self(r, layer):
        return prof.layer_totals(f"{wl.name}/rep{r}")[layer][1]

    solve_s = med(lambda r: stat(r, ["solve"], 1))
    first = prof.layer_totals(f"{wl.name}/rep{sw.reps.start}")
    m = {"trace.solve_s": (solve_s, "s"),
         "trace.overhead_frac": (solve_s / plain_s - 1.0, "ratio"),
         "matrices.build_s": (med(lambda r: stat(
             r, ["laplace2d"], 1, "/setup")), "s"),
         "simulation.init_s": (med(lambda r: stat(
             r, ["Simulation.__init__"], 1, "/setup")), "s"),
         "halo.ghost_plan_s": (med(lambda r: stat(
             r, HALO_ANALYSIS, 1, "/setup") + stat(r, HALO_ANALYSIS, 1)),
             "s")}
    for layer, (calls, self_s) in SOLVE_LAYERS.items():
        if calls:
            m[calls] = (first[layer][0], "count")
        m[self_s] = (med(lambda r, ly=layer: layer_self(r, ly)), "s")
    for prefix in ("spmv", "engine"):
        m[f"{prefix}.share"] = (m[f"{prefix}.self_s"][0] / solve_s, "ratio")
    m["batch.share"] = (med(lambda r: layer_self(r, "batch")) / solve_s,
                        "ratio")
    for part, names in ENGINE_PARTS.items():
        full = [f"{c}.{n}" for c in ("LoopEngine", "BatchedEngine")
                for n in names]
        m[f"engine.{part}_s"] = (med(lambda r, f=full: stat(r, f, 2)), "s")
    m["tracer.add_calls"] = (stat(sw.reps.start, ["Tracer.add"], 0), "count")
    m["batch.groups"] = (stat(sw.reps.start, ["BatchCharges.group"], 0),
                         "count")
    groups, members = prof.lockstep
    m["block.active_frac"] = (
        members / (groups * wl.width) if groups else 1.0, "ratio")

    # the reported layers must account for the whole solve: self time
    # of a layer the report does not list would be missing from the sum
    for r in sw.reps:
        total = sum(layer_self(r, layer) for layer in REPORTED_IN_SOLVE)
        root = stat(r, ["solve"], 1)
        if abs(total - root) > 1e-9 + 1e-6 * root:
            runner.errors.append(f"rep {r}: reported layer self times sum "
                                 f"to {total} s, solve took {root} s")

    widths = [w for o in sw.outcomes.values()
              for w in o.fingerprint.get("dispatched_widths", [])]
    requests = [t for o in sw.outcomes.values() for t in o.request_modeled]
    m["queue.dispatches"] = (len(widths) / len(sw.outcomes), "count")
    m["queue.fill_frac"] = (statistics.fmean(widths) / wl.width
                            if widths else 0.0, "ratio")
    m["queue.req_modeled_p50_s"] = (statistics.median(requests), "s_modeled")
    m["queue.req_modeled_max_s"] = (max(requests), "s_modeled")
    for key in ("modeled.spmv_s", "modeled.ortho_s", "modeled.small_dense_s",
                "modeled.allreduce_s", "modeled.halo_s",
                "modeled.overlapped_s"):
        m[key] = (sw.mean(key), "s_modeled")
    for key in ("comm.allreduce.count", "comm.halo.count",
                "comm.bcast.count"):
        m[key] = (sw.mean(key), "count")
    for key in ("comm.allreduce.bytes", "comm.halo.bytes"):
        m[key] = (sw.mean(key), "B")
    m.update(kernel_counts(runner))
    trace = export_trace(prof, runner, sw.span_state)
    return m, {"trace": str(trace.relative_to(ROOT)),
               "plain_solve_s": plain_s}


def kernel_counts(runner: Runner) -> dict:
    """Computed (not measured) flop and byte totals of one solve of the
    first case, from the MetricsRegistry of a metrics-enabled run."""
    case = runner.cases[0]
    state = runner.wl.setup(case, metrics=True)
    sim = state["sim"]
    before = sim.metrics.snapshot().totals
    snap = sim.tracer.snapshot()
    raw = runner.wl.solve(state)
    after = sim.metrics.snapshot().totals
    out = runner.wl.evaluate(state, raw, sim.tracer.since(snap))
    # metrics only observe the charges: the fingerprint must not move
    runner.fingerprints.check(case, out.fingerprint)
    flops = after["flops"] - before["flops"]
    nbytes = after["mem_bytes"] - before["mem_bytes"]
    return {"kernel.flops": (flops, "flop"),
            "kernel.bytes_computed": (nbytes, "B"),
            "kernel.intensity": (flops / nbytes if nbytes else 0.0,
                                 "flop/B")}


def export_trace(prof, runner: Runner, state: dict) -> Path:
    """Write the kept spans as one Chrome trace (stream ``measured``).

    Spans of one solve share its id (``<workload>/rep<k>``).  In the
    service, spans inside dispatch ``d`` carry ``.../dispatch<d>`` and
    each request gets a span from its submit to the end of its dispatch,
    tagged ``.../dispatch<d>/req<i>`` (``flush`` drains FIFO in
    ``max_width`` slices, so request ``i`` rides dispatch ``i // 8``).
    """
    from repro.obs.export import export_chrome_trace
    from repro.parallel.tracing import SpanEvent

    dispatches = sorted((t0, t1) for name, _, t0, t1, _ in prof.spans
                        if name == "block_sstep_gmres")

    def tag(rid, t0, t1):
        for d, (d0, d1) in enumerate(dispatches):
            if d0 <= t0 and t1 <= d1:
                return f"{rid}/dispatch{d}"
        return rid

    events = prof.span_events(tag)
    solve_id = next(rid for name, *_, rid in prof.spans if name == "solve")
    queue = state.get("queue")
    widths = queue.dispatched_widths if queue is not None else []
    i = 0
    for d, width in enumerate(widths):
        for _ in range(width):
            events.append(SpanEvent(
                "request", state["submit_t"][i] - prof.origin,
                dispatches[d][1] - prof.origin,
                f"{solve_id}/dispatch{d}/req{i}", "measured", cat="request"))
            i += 1
    OUT.mkdir(exist_ok=True)
    return export_chrome_trace(
        OUT / f"trace_{runner.wl.name}_seed{runner.seed}.json", events)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    _import_program()
    wl = WORKLOADS[name]
    runner = Runner(wl, seed)
    OUT.mkdir(exist_ok=True)
    if trace:
        metrics, extra = traced(runner, seconds)
    else:
        metrics, extra = end_to_end(runner, seconds)
    valid = runner.valid()
    if valid:
        runner.fingerprints.save()
    env = environment(seed)
    doc = {"workload": name, "trace": trace, "env": env, "valid": valid,
           "errors": runner.errors,
           "determinism_mismatches": runner.fingerprints.mismatches,
           "metrics": {k: {"value": v, "unit": u}
                       for k, (v, u) in metrics.items()}, **extra}
    (OUT / f"result_{name}_seed{seed}_trace{int(trace)}.json").write_text(
        json.dumps(doc, indent=1, default=float))
    print_table(name, metrics, extra.get("samples", {}), env)
    for err in runner.errors + runner.fingerprints.mismatches:
        print(f"INVALID: {err}")
    print(json.dumps({
        "correct": valid, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if valid else 1


def print_table(name, metrics, samples, env) -> None:
    print(f"# {name}  env={json.dumps(env)}")
    print(f"{'metric':<28}{'unit':<16}{'median':>14}{'high':>20}{'n':>6}")
    for key, (value, unit) in metrics.items():
        vals = samples.get(key)
        if vals:
            label, hi = high_percentile(vals)
            high = f"{label}={hi:.6g}"
            n = len(vals)
        else:
            high, n = "-", 1
        print(f"{key:<28}{unit:<16}{value:>14.6g}{high:>20}{n:>6}")


def run_all(args) -> int:
    """Each workload in its own fresh process; prints a combined table."""
    combined = {}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or not lines:
            status = 1
        combined[name] = json.loads(lines[-1]) if lines else None
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=58.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
