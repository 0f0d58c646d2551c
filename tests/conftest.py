"""Shared fixtures for the repro test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro.distla.multivector import DistMultiVector
from repro.krylov.simulation import Simulation
from repro.matrices.stencil import laplace2d
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.communicator import SimComm
from repro.parallel.tracing import Tracer


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def per_shard(monkeypatch):
    """Context-manager factory that hides every multivector's
    ``(ranks, rows, k)`` stack, so the kernel engine (and TSQR) take
    their per-shard path, as they do on a ragged partition.  Lets a test
    run the same uniform problem stacked and per shard and compare."""
    @contextmanager
    def scope():
        with monkeypatch.context() as m:
            m.setattr(DistMultiVector, "stack", property(lambda self: None))
            yield
    return scope


@pytest.fixture
def kernel_path(request, per_shard):
    """The kernel execution path a test runs on, set by indirect
    parametrization over ``["loop", "batched"]``: ``"batched"`` keeps
    the stacks (stacked kernels), ``"loop"`` hides them for the whole
    test, so every kernel runs per shard through ``LoopEngine`` on the
    same partition."""
    if request.param == "batched":
        yield request.param
        return
    with per_shard():
        yield request.param


@pytest.fixture
def comm4() -> SimComm:
    """A 4-rank communicator on the generic CPU machine."""
    return SimComm(generic_cpu(), 4, Tracer())


@pytest.fixture
def comm_summit() -> SimComm:
    return SimComm(summit(), 12, Tracer())


@pytest.fixture
def small_sim() -> Simulation:
    """20x20 Laplacian distributed over 4 ranks (400 unknowns)."""
    return Simulation(laplace2d(20), ranks=4, machine=generic_cpu())
