"""Sanity checks of the CI pipeline configuration itself.

Equivalent-of-actionlint guard: the workflow must stay parseable, every
job must have steps, and the commands CI runs must reference files that
exist — so a rename cannot silently turn CI green-by-vacuity.
"""

from __future__ import annotations

from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"


class TestWorkflow:
    def test_workflow_exists(self):
        assert WORKFLOW.is_file()

    def test_workflow_structure(self):
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        jobs = doc["jobs"]
        assert {"lint", "tier1", "bench-smoke", "nightly"} <= set(jobs)
        for name, spec in jobs.items():
            assert spec.get("steps"), f"job {name} has no steps"
            for step in spec["steps"]:
                assert "uses" in step or "run" in step, (name, step)
        # tier-1 command matches ROADMAP.md's verify line
        runs = "\n".join(step.get("run", "")
                         for step in jobs["tier1"]["steps"])
        assert "PYTHONPATH=src python -m pytest -x -q" in runs

    def test_tier1_engine_matrix(self):
        """Tier-1 runs one leg per Python version: the library has a
        single kernel engine, so there is no engine axis to multiply the
        legs, and each leg makes exactly one pytest invocation."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        matrix = tier1["strategy"]["matrix"]
        assert set(matrix) == {"python-version"}
        assert len(matrix["python-version"]) >= 3
        runs = "\n".join(step.get("run", "") for step in tier1["steps"])
        assert runs.count("python -m pytest") == 1
        assert "REPRO_ENGINE" not in WORKFLOW.read_text()

    def test_tier1_mp_smoke_step(self):
        """The real-process backend smoke is a separate non-pytest step
        under a hard timeout, so a deadlocked worker kills the step
        instead of hanging the whole test job."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        smoke = [step for step in tier1["steps"]
                 if "mp_smoke" in step.get("run", "")]
        assert smoke, "tier-1 has no MpComm smoke step"
        run = smoke[0]["run"]
        assert "timeout" in run
        assert "pytest" not in run
        assert "scripts/mp_smoke.py" in run

    def test_tier1_docs_lint_step(self):
        """The docs linter runs as a standalone non-pytest tier-1 step
        (the matrix contract keeps a single pytest invocation per leg;
        dead-link checking needs no test session anyway)."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        tier1 = doc["jobs"]["tier1"]
        lint = [step for step in tier1["steps"]
                if "docs_lint" in step.get("run", "")]
        assert lint, "tier-1 has no docs lint step"
        run = lint[0]["run"]
        assert "pytest" not in run
        assert "scripts/docs_lint.py" in run

    def test_setup_python_uses_pip_cache(self):
        """Every setup-python step caches pip to keep matrix wall-clock
        flat."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        seen = 0
        for name, spec in doc["jobs"].items():
            for step in spec["steps"]:
                if "setup-python" in str(step.get("uses", "")):
                    seen += 1
                    assert step["with"].get("cache") == "pip", (
                        f"job {name}: setup-python step without pip cache")
        assert seen >= 4

    def test_nightly_job(self):
        """The scheduled nightly runs the full suite including slow
        tests plus the experiment smokes, and uploads their artifacts."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        # a schedule trigger exists (yaml parses the 'on' key as True)
        triggers = doc.get("on") or doc.get(True)
        assert "schedule" in triggers
        assert triggers["schedule"][0]["cron"].split()[:2] != ["0", "0"]
        nightly = doc["jobs"]["nightly"]
        assert "schedule" in nightly["if"]
        # one nightly job, not one per kernel engine
        assert "strategy" not in nightly
        runs = "\n".join(step.get("run", "") for step in nightly["steps"])
        assert "slow" in runs
        assert "sketch_stability" in runs
        assert "rgs_convergence" in runs
        assert "precision_stability" in runs
        assert "ca_mpk_tradeoff" in runs
        # the overlap-window trade-off smoke drops BENCH_overlap.json
        # and trace_overlap.json into the uploaded dir
        overlap_step = next((s.get("run", "") for s in nightly["steps"]
                             if "overlap_tradeoff" in s.get("run", "")),
                            "")
        assert overlap_step, "nightly has no overlap_tradeoff smoke"
        assert "--quick" in overlap_step
        assert "--out experiment-out" in overlap_step
        # the service-throughput smoke re-asserts the batching claims
        # nightly and drops BENCH_service.json into the uploaded dir
        assert "service_throughput --quick" in runs, (
            "nightly has no service_throughput smoke")
        assert "tee experiment-out/service_throughput.txt" in runs
        # predicted-vs-measured validation runs nightly under a hard
        # timeout and drops BENCH_measured.json into the uploaded dir
        assert "backend_validation" in runs
        assert "timeout" in runs
        assert "--out experiment-out" in runs
        uploads = [step for step in nightly["steps"]
                   if "upload-artifact" in str(step.get("uses", ""))]
        assert uploads and uploads[0]["with"]["path"] == "experiment-out/"
        # nightly-only jobs must not run the PR matrix twice
        assert doc["jobs"]["tier1"]["if"] == "github.event_name != 'schedule'"

    def test_nightly_trace_summarize_smoke(self):
        """The Chrome traces backend_validation writes into the uploaded
        artifact dir must stay loadable by the repro-trace CLI."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        steps = doc["jobs"]["nightly"]["steps"]
        smoke = [s for s in steps if "repro.obs.cli" in s.get("run", "")]
        assert smoke, "nightly has no repro-trace summarize smoke step"
        run = smoke[0]["run"]
        assert "summarize" in run and "diff" in run
        assert "experiment-out/trace_" in run
        # trace smoke runs after the step that produces the traces
        runs = [s.get("run", "") for s in steps]
        assert (runs.index(run)
                > runs.index(next(r for r in runs
                                  if "backend_validation" in r)))

    def test_nightly_calibration_step(self):
        """The LogGP calibration experiment runs nightly under a hard
        timeout and drops BENCH_calibration.json plus the Prometheus
        metrics snapshot into the uploaded experiment-out/ directory."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        steps = doc["jobs"]["nightly"]["steps"]
        cal = [s for s in steps
               if "repro.experiments.calibration" in s.get("run", "")]
        assert cal, "nightly has no calibration step"
        run = cal[0]["run"]
        assert "--quick" in run
        assert "--out experiment-out" in run
        assert "timeout" in run
        # runs after the backend validation it mirrors, before upload
        runs = [s.get("run", "") for s in steps]
        assert (runs.index(run)
                > runs.index(next(r for r in runs
                                  if "backend_validation" in r)))
        uploads = [i for i, s in enumerate(steps)
                   if "upload-artifact" in str(s.get("uses", ""))]
        assert steps.index(cal[0]) < uploads[0]

    def test_bench_smoke_span_overhead_gate(self):
        """bench-smoke asserts the disabled span path stays free and
        charge-identical, protecting the committed baselines."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        runs = "\n".join(step.get("run", "")
                         for step in doc["jobs"]["bench-smoke"]["steps"])
        assert "scripts/span_overhead_check.py" in runs

    def test_bench_smoke_speedup_gate(self):
        """bench-smoke keeps the stacked-vs-shards speedup gate at 1.5x
        on the two kernels the committed baseline proves it for."""
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        runs = "\n".join(step.get("run", "")
                         for step in doc["jobs"]["bench-smoke"]["steps"])
        assert "--check-speedup test_block_dot" in runs
        assert "--check-speedup test_block_axpy" in runs
        assert "--min-speedup 1.5" in runs

    def test_bench_smoke_gates_all_baselines(self):
        yaml = pytest.importorskip("yaml")
        doc = yaml.safe_load(WORKFLOW.read_text())
        runs = "\n".join(step.get("run", "")
                         for step in doc["jobs"]["bench-smoke"]["steps"])
        for artifact in ("BENCH_kernels", "BENCH_sketch", "BENCH_gmres",
                         "BENCH_precision", "BENCH_mpk", "BENCH_service"):
            assert (f"benchmarks/{artifact}.json" in runs
                    and f"bench-out/{artifact}.json" in runs), (
                f"{artifact} not gated against its committed baseline")
        assert "--threshold 3.0" in runs

    def test_referenced_files_exist(self):
        text = WORKFLOW.read_text()
        for ref in ("scripts/compare_bench.py",
                    "scripts/mp_smoke.py",
                    "scripts/span_overhead_check.py",
                    "scripts/docs_lint.py",
                    "benchmarks/bench_kernels.py",
                    "benchmarks/BENCH_kernels.json",
                    "benchmarks/bench_sketch_kernels.py",
                    "benchmarks/BENCH_sketch.json",
                    "benchmarks/bench_sstep_gmres.py",
                    "benchmarks/BENCH_gmres.json",
                    "benchmarks/bench_precision_kernels.py",
                    "benchmarks/BENCH_precision.json",
                    "benchmarks/bench_mpk.py",
                    "benchmarks/BENCH_mpk.json",
                    "benchmarks/BENCH_service.json",
                    "src/repro/experiments/sketch_stability.py",
                    "src/repro/experiments/rgs_convergence.py",
                    "src/repro/experiments/precision_stability.py",
                    "src/repro/experiments/ca_mpk_tradeoff.py",
                    "src/repro/experiments/overlap_tradeoff.py",
                    "src/repro/experiments/backend_validation.py",
                    "src/repro/experiments/calibration.py",
                    "src/repro/experiments/service_throughput.py"):
            path = ref
            if ref.startswith("src/repro/experiments/"):
                # referenced as a module invocation in the nightly job
                module = ref.removeprefix("src/repro/experiments/")
                assert module.removesuffix(".py") in text, (
                    f"{ref} not exercised by CI")
            else:
                assert ref in text, f"{ref} not exercised by CI"
            assert (REPO / path).exists(), f"{ref} missing from repo"


class TestCommittedBaseline:
    def test_baseline_artifact_loads(self):
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_kernels.json")
        assert art.name == "kernels"

    def test_baseline_records_batched_speedup(self):
        """The committed artifact proves the acceptance claim: stacked
        kernels >=1.5x faster than per-shard ones on block_dot and
        block_axpy at >=16 simulated ranks."""
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_kernels.json")
        for name in ("test_block_dot", "test_block_axpy"):
            assert art.speedup(f"{name}[shards]", f"{name}[stacked]") >= 1.5
            assert art.record(f"{name}[stacked]").extra["ranks"] >= 16

    def test_sketch_baseline_artifact(self):
        """The committed sketch baseline covers every operator family,
        each with its modeled cost."""
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_sketch.json")
        assert art.name == "sketch"
        for family in ("sparse", "gaussian", "srht"):
            rec = art.record(f"test_sketch_apply[{family}]")
            assert rec.extra["modeled_seconds"] > 0.0

    def test_precision_baseline_artifact(self):
        """The committed precision baseline proves the storage-precision
        claim: fp32 panels are charged roughly half the fp64 bytes."""
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_precision.json")
        assert art.name == "precision"
        for kernel in ("test_block_dot", "test_block_update"):
            m64 = art.record(f"{kernel}[fp64]").extra["modeled_seconds"]
            m32 = art.record(f"{kernel}[fp32]").extra["modeled_seconds"]
            assert m32 < 0.65 * m64, kernel
        ir = art.record("test_gmres_ir_fp32")
        assert ir.extra["refinements"] >= 1
        assert ir.extra["iterations"] > 0

    def test_fp64_charged_costs_match_committed_sketch_baseline(self):
        """Regression net for the word-size parameterization: recomputing
        a committed benchmark's modeled seconds with today's cost model
        must reproduce the recorded fp64 value to ~1 ulp (a wrong word
        size would be off by 2x; the tolerance only absorbs last-digit
        noise from the environment the artifact was recorded on)."""
        import math

        import numpy as np

        from repro.bench.artifacts import load_artifact
        from repro.distla.multivector import DistMultiVector
        from repro.parallel.communicator import SimComm
        from repro.parallel.machine import generic_cpu
        from repro.parallel.partition import Partition
        from repro.parallel.tracing import Tracer
        from repro.sketch import make_operator, sketch_multivector, \
            sketch_rows

        art = load_artifact(REPO / "benchmarks" / "BENCH_sketch.json")
        n, ranks, k = 8_192, 64, 30  # bench_sketch_kernels.py constants
        comm = SimComm(generic_cpu(), ranks, Tracer())
        part = Partition(n, ranks)
        basis = DistMultiVector.from_global(
            np.random.default_rng(0).standard_normal((n, k)), part, comm)
        for family in ("sparse", "gaussian", "srht"):
            m = sketch_rows(k, n, family=family)
            op = make_operator(family, n, m, seed=0xC0FFEE)
            before = comm.tracer.clock
            sketch_multivector(basis, op)
            modeled = comm.tracer.clock - before
            rec = art.record(f"test_sketch_apply[{family}]")
            assert math.isclose(modeled, rec.extra["modeled_seconds"],
                                rel_tol=1e-12), family

    def test_mpk_baseline_artifact(self):
        """The committed MPK baseline proves the CA acceptance claims:
        1 halo exchange per panel (vs s per panel standard), modeled
        speedup > 1 in a latency-dominated regime."""
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_mpk.json")
        assert art.name == "mpk"
        for mode, halos in (("standard", 30), ("ca", 6)):
            rec = art.record(f"test_mpk_basis[{mode}]")
            assert rec.extra["halo_count"] == halos
        lat = art.record("test_mpk_ca_latency_speedup")
        assert lat.extra["modeled_speedup_lat16x"] > 1.0
        assert lat.extra["halo_ca"] < lat.extra["halo_standard"]

    def test_gmres_baseline_artifact(self):
        """The committed end-to-end solver baseline covers the classical
        pipeline plus the randomized solve path."""
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_gmres.json")
        assert art.name == "gmres"
        two = art.record("test_solve_two_stage")
        assert two.extra["iterations"] > 0
        assert two.extra["modeled_seconds"] > 0.0
        rgs = art.record("test_solve_rgs_sketched")
        assert rgs.extra["iterations"] > 0
        assert art.record("test_solve_bcgs_pip2").extra["sync_count"] > 0

    def test_service_baseline_artifact(self):
        """The committed service baseline proves the batching acceptance
        claim: width-8 >= 3x width-1 solves/sec on the latency-dominated
        machine, per-dispatch collective counts width-invariant, and
        every width bit-identical to independent solves."""
        from repro.bench.artifacts import load_artifact
        art = load_artifact(REPO / "benchmarks" / "BENCH_service.json")
        assert art.name == "service"
        assert art.record(
            "service[summit_lat16x,w8]").extra["speedup"] >= 3.0
        for machine in ("summit", "summit_lat16x"):
            recs = [art.record(f"service[{machine},w{w}]")
                    for w in (1, 2, 4, 8)]
            counts = [r.extra["counts_per_batch"] for r in recs]
            assert all(c == counts[0] for c in counts)
            assert all(r.extra["bit_identical"] for r in recs)


class TestPyproject:
    def test_markers_registered(self):
        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads((REPO / "pyproject.toml").read_text())
        markers = doc["tool"]["pytest"]["ini_options"]["markers"]
        names = {m.split(":")[0] for m in markers}
        assert {"slow", "bench"} <= names

    def test_ruff_configured(self):
        tomllib = pytest.importorskip("tomllib")
        doc = tomllib.loads((REPO / "pyproject.toml").read_text())
        assert "ruff" in doc["tool"]
