"""Matrix powers kernel benchmarks -> ``BENCH_mpk.json``.

Standard vs communication-avoiding basis generation (one restart cycle
of s-step panels).  Each bench asserts the
CA contract — bit-identical basis, exactly one halo exchange per panel
against ``s`` for the standard kernel — and records the modeled
seconds, halo counts and (for CA) a latency-dominated regime's modeled
speedup as ``extra_info``, so the committed artifact documents the
acceptance claim: CA-MPK's modeled time wins in at least one
latency-dominated machine regime.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ca_mpk_tradeoff import _summit_lat, generate_basis
from repro.krylov.sstep_gmres import _panel_bounds
from repro.parallel.machine import summit

NX = 24          # 576 unknowns
RANKS = 8
S = 5
RESTART = 30
PANELS = len(_panel_bounds(S, RESTART + 1))


def _gen(machine, mode):
    return generate_basis(machine, mode, nx=NX, ranks=RANKS, s=S,
                          restart=RESTART)


def _record(benchmark, stats):
    benchmark.extra_info["ranks"] = RANKS
    benchmark.extra_info["n"] = NX * NX
    benchmark.extra_info["modeled_seconds"] = stats["seconds"]
    benchmark.extra_info["halo_count"] = stats["halo_count"]


@pytest.mark.parametrize("mode", ["standard", "ca"])
def test_mpk_basis(benchmark, check, mode):
    stats = _gen(summit(), mode)
    if mode == "ca":
        ref = _gen(summit(), "standard")
        check(np.array_equal(stats["basis"], ref["basis"]),
              "CA-MPK generates a bit-identical basis to the standard "
              "kernel")
    expected = PANELS if mode == "ca" else RESTART
    check(stats["halo_count"] == expected,
          f"{mode} MPK charges {expected} halo exchanges per cycle")
    _record(benchmark, stats)
    benchmark(lambda: _gen(summit(), mode))


def test_mpk_ca_latency_speedup(benchmark, check):
    """The acceptance claim: modeled CA speedup > 1 in a
    latency-dominated regime."""
    lat = _summit_lat(16.0)
    std = _gen(lat, "standard")
    ca = _gen(lat, "ca")
    speedup = std["seconds"] / ca["seconds"]
    check(speedup > 1.0,
          "CA-MPK modeled time wins in the latency-dominated regime")
    benchmark.extra_info["modeled_speedup_lat16x"] = speedup
    benchmark.extra_info["modeled_seconds_standard"] = std["seconds"]
    benchmark.extra_info["modeled_seconds_ca"] = ca["seconds"]
    benchmark.extra_info["halo_standard"] = std["halo_count"]
    benchmark.extra_info["halo_ca"] = ca["halo_count"]
    benchmark(lambda: _gen(lat, "ca"))
