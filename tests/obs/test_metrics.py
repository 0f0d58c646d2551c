"""MetricsRegistry: charge-stream feed, derived gauges, Prometheus text."""

from __future__ import annotations

import json
import math

import numpy as np

from repro.krylov.simulation import Simulation
from repro.krylov.sstep_gmres import sstep_gmres
from repro.matrices.stencil import laplace2d
from repro.obs.metrics import DURATION_BUCKETS, MetricsRegistry
from repro.ortho.two_stage import TwoStageScheme
from repro.parallel.machine import generic_cpu
from repro.parallel.tracing import Tracer


def _registry(ranks=4):
    return MetricsRegistry(generic_cpu(), ranks)


class TestFeed:
    def test_observe_accumulates_seconds_and_calls(self):
        reg = _registry()
        reg.observe("ortho", "dot", 0.5, 2, None, False)
        reg.observe("ortho", "dot", 0.25, 1, None, False)
        assert reg.seconds[("ortho", "dot")] == 0.75
        assert reg.calls[("ortho", "dot")] == 3

    def test_pending_op_shapes_drain_into_next_charge(self):
        """CostModel.record_op shapes land on the (phase, kernel) of the
        charge that follows them — exactly where the seconds land."""
        reg = _registry()
        reg.record_op(100.0, 800.0)
        reg.record_op(50.0, 400.0)
        reg.observe("ortho", "dot", 0.5, 1, None, False)
        assert reg.flops[("ortho", "dot")] == 150.0
        assert reg.mem_bytes[("ortho", "dot")] == 1200.0
        assert reg._pending == []
        # the next charge gets nothing carried over
        reg.observe("ortho", "update", 0.5, 1, None, False)
        assert ("ortho", "update") not in reg.flops

    def test_collective_payload_feeds_net_bytes_only(self):
        reg = _registry()
        reg.observe("ortho", "allreduce", 0.1, 1, 64.0, False)
        reg.observe("spmv", "halo", 0.1, 1, 256.0, False)
        reg.observe("ortho", "dot", 0.1, 1, 999.0, False)  # not a collective
        assert reg.net_bytes["allreduce"] == 64.0
        assert reg.net_bytes["halo"] == 256.0
        assert reg.net_bytes["bcast"] == 0.0
        assert ("ortho", "dot") not in reg.flops

    def test_driver_side_seconds_tracked_separately(self):
        reg = _registry()
        reg.observe("ortho", "dot", 0.5, 1, None, True)
        reg.observe("ortho", "dot", 0.25, 1, None, False)
        assert reg.driver_seconds[("ortho", "dot")] == 0.5
        assert reg.seconds[("ortho", "dot")] == 0.75

    def test_scale_pending_fans_shapes_out_by_ranks(self):
        """charge_uniform sites cost ONE rank's shard; the rank fan-out
        multiplies the queued shapes before they drain."""
        reg = _registry()
        reg.record_op(100.0, 800.0)
        reg.scale_pending(4.0)
        reg.observe("ortho", "dot", 0.5, 1, None, False)
        assert reg.flops[("ortho", "dot")] == 400.0
        assert reg.mem_bytes[("ortho", "dot")] == 3200.0
        # no-op on an empty queue and at factor 1.0
        reg.scale_pending(4.0)
        reg.record_op(10.0, 80.0)
        reg.scale_pending(1.0)
        reg.observe("ortho", "update", 0.5, 1, None, False)
        assert reg.flops[("ortho", "update")] == 10.0

    def test_tracer_attach_feeds_registry_with_phase(self):
        reg = _registry()
        t = Tracer()
        t.attach_metrics(reg)
        with t.phase("ortho"):
            t.add("allreduce", 0.1, payload_bytes=32.0)
        t.detach_metrics()
        t.add("dot", 1.0)  # after detach: not observed
        assert reg.seconds == {("ortho", "allreduce"): 0.1}
        assert reg.net_bytes["allreduce"] == 32.0


class TestSnapshot:
    def test_derived_gauges(self):
        reg = _registry(ranks=4)
        m = reg.machine
        reg.record_op(1.0e9, 2.0e8)
        reg.observe("ortho", "dot", 0.5, 1, None, False)
        row = reg.snapshot().kernels[("ortho", "dot")]
        assert math.isclose(row["arithmetic_intensity"], 5.0)
        assert math.isclose(row["flop_utilization"],
                            1.0e9 / (0.5 * 4 * m.peak_flops))
        assert math.isclose(row["mem_bw_utilization"],
                            2.0e8 / (0.5 * 4 * m.mem_bandwidth))

    def test_totals_cover_all_kernels(self):
        reg = _registry()
        reg.record_op(100.0, 50.0)
        reg.observe("ortho", "dot", 0.5, 1, None, False)
        reg.observe("spmv", "halo", 0.1, 1, 64.0, False)
        snap = reg.snapshot()
        assert snap.totals["seconds"] == 0.6
        assert snap.totals["flops"] == 100.0
        assert snap.totals["net_bytes"] == 64.0
        assert math.isclose(snap.totals["arithmetic_intensity"], 2.0)

    def test_zero_byte_kernel_has_no_intensity_gauge(self):
        reg = _registry()
        reg.observe("ortho", "allreduce", 0.1, 1, 8.0, False)
        row = reg.snapshot().kernels[("ortho", "allreduce")]
        assert "arithmetic_intensity" not in row
        assert "flop_utilization" in row  # seconds > 0

    def test_to_dict_flattens_keys_and_is_json_safe(self):
        reg = _registry()
        reg.record_op(10.0, 5.0)
        reg.observe("ortho", "dot", 0.5, 2, None, True)
        doc = reg.snapshot().to_dict()
        json.dumps(doc)
        assert doc["machine"] == reg.machine.name
        assert doc["kernels"]["ortho/dot"]["calls"] == 2
        assert doc["kernels"]["ortho/dot"]["driver_seconds"] == 0.5

    def test_histogram_buckets_are_cumulative_with_inf(self):
        reg = _registry()
        reg.observe("other", "dot", DURATION_BUCKETS[0] / 2, 1, None, False)
        reg.observe("other", "dot", DURATION_BUCKETS[3], 1, None, False)
        reg.observe("other", "dot", DURATION_BUCKETS[-1] * 10, 1, None, False)
        h = reg.snapshot().histograms["dot"]
        les = [le for le, _ in h["buckets"]]
        counts = [n for _, n in h["buckets"]]
        assert les[-1] == float("inf")
        assert counts == sorted(counts)  # cumulative
        assert counts[0] == 1 and counts[3] == 2 and counts[-1] == 3
        assert h["count"] == 3

    def test_snapshot_is_repeatable(self):
        reg = _registry()
        reg.observe("ortho", "dot", 0.5, 1, None, False)
        assert reg.snapshot().to_dict() == reg.snapshot().to_dict()


class TestPrometheus:
    def _snap(self):
        reg = _registry()
        reg.record_op(1.0e6, 1.0e5)
        reg.observe("ortho", "dot", 0.5, 2, None, True)
        reg.observe("ortho", "allreduce", 0.1, 1, 64.0, False)
        return reg.snapshot()

    def test_exposition_format(self):
        text = self._snap().to_prometheus()
        assert text.endswith("\n")
        assert "# TYPE repro_kernel_seconds_total counter" in text
        assert ('repro_kernel_seconds_total{phase="ortho",kernel="dot"} 0.5'
                in text)
        assert 'repro_net_bytes_total{kind="allreduce"} 64.0' in text
        assert "# TYPE repro_arithmetic_intensity gauge" in text
        assert ('repro_kernel_driver_seconds_total'
                '{phase="ortho",kernel="dot"} 0.5') in text

    def test_totals_row_and_histogram(self):
        text = self._snap().to_prometheus()
        assert 'repro_roofline_flop_utilization{phase="all",kernel="all"}' \
            in text
        assert "# TYPE repro_kernel_duration_seconds histogram" in text
        assert 'repro_kernel_duration_seconds_bucket{kernel="dot",le="+Inf"}' \
            in text
        # one charge (count=2 calls) is one histogram sample
        assert 'repro_kernel_duration_seconds_count{kernel="dot"} 1' in text


class TestSimulationIntegration:
    def _solve(self, **sim_kw):
        sim = Simulation(laplace2d(12), ranks=4, machine=generic_cpu(),
                         **sim_kw)
        res = sstep_gmres(sim, np.ones(sim.n), s=3, restart=9, tol=1.0e-8,
                          maxiter=100, scheme=TwoStageScheme(9))
        return sim, res

    def test_disabled_by_default(self):
        sim, res = self._solve()
        assert sim.metrics is None
        assert res.metrics == {}
        assert sim.metrics_doc() == {}

    def test_enabled_snapshot_rides_on_result(self):
        sim, res = self._solve(metrics=True)
        assert res.metrics["machine"] == sim.machine.name
        assert res.metrics["ranks"] == 4
        assert res.metrics["totals"]["flops"] > 0.0
        assert res.metrics["net_bytes"]["allreduce"] > 0.0
        # seconds in the registry match the tracer's accumulators
        assert math.isclose(res.metrics["totals"]["seconds"],
                            sum(sim.tracer.by_phase.values()))

    def test_enable_metrics_is_idempotent(self):
        sim, _ = self._solve(metrics=True)
        reg = sim.metrics
        sim.enable_metrics()
        assert sim.metrics is reg

    def test_prometheus_from_live_solve(self):
        sim, _ = self._solve(metrics=True)
        text = sim.metrics.snapshot().to_prometheus()
        assert "repro_kernel_flops_total" in text
        assert 'kind="halo"' in text

    def test_counters_are_engine_invariant(self, per_shard):
        """The per-shard path costs every rank's shard; the stacked path
        costs one uniform shard and fans it out by the rank count — the
        aggregate flop, memory-byte, and wire-byte counters must agree
        exactly."""
        _, stacked = self._solve(metrics=True)
        with per_shard():
            _, shards = self._solve(metrics=True)
        for field in ("flops", "mem_bytes", "net_bytes", "seconds"):
            assert (stacked.metrics["totals"][field]
                    == shards.metrics["totals"][field]), field
