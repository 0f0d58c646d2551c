"""Communicator protocol conformance + the make_comm factory."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.parallel.api import BACKENDS, Communicator, make_comm
from repro.parallel.communicator import SimComm
from repro.parallel.machine import generic_cpu, summit
from repro.parallel.mp_backend import MpComm
from repro.parallel.tracing import Tracer

#: Every method the protocol promises; conformance is checked name by
#: name so a backend silently dropping one fails with a message naming
#: the missing method rather than a bare isinstance failure.
PROTOCOL_METHODS = (
    "allreduce_sum", "allreduce_scalar", "fused_allreduce_sum",
    "allreduce_sum_stacked", "fused_allreduce_sum_stacked", "allreduce_dd",
    "charge_local", "charge_uniform", "charge_halo",
    "alloc_stack", "exec_spmv", "mark", "close",
)


@pytest.fixture
def mp2():
    comm = MpComm(generic_cpu(), 2, Tracer())
    yield comm
    comm.close()


class TestProtocolConformance:
    def test_backends_tuple(self):
        assert BACKENDS == ("sim", "mp")

    @pytest.mark.parametrize("cls", [SimComm, MpComm])
    def test_methods_present(self, cls):
        for name in PROTOCOL_METHODS:
            assert callable(getattr(cls, name, None)), (
                f"{cls.__name__} is missing Communicator.{name}")

    def test_sim_is_communicator(self, comm4):
        assert isinstance(comm4, Communicator)

    def test_mp_is_communicator(self, mp2):
        assert isinstance(mp2, Communicator)

    def test_backend_attribute(self, comm4, mp2):
        assert comm4.backend == "sim"
        assert mp2.backend == "mp"

    def test_incomplete_object_is_not_communicator(self):
        class Half:
            machine = size = tracer = cost = None
            backend = "half"

            def allreduce_sum(self, shards):
                return shards[0]

        assert not isinstance(Half(), Communicator)


class TestSimCommDefaults:
    """SimComm's protocol additions: planner-side no-op/fallback hooks."""

    def test_alloc_stack_plain_zeros(self, comm4):
        stack = comm4.alloc_stack(4, 10, 3, np.float32)
        assert stack.shape == (4, 10, 3)
        assert stack.dtype == np.float32
        assert not stack.any()

    def test_exec_spmv_defers_to_driver(self, comm4):
        assert comm4.exec_spmv(None, None, None) is False

    def test_mark_and_close_are_noops(self, comm4):
        comm4.mark()
        comm4.close()
        comm4.allreduce_scalar([1.0] * 4)  # still usable after close

    def test_context_manager(self):
        with SimComm(generic_cpu(), 4) as comm:
            assert comm.allreduce_scalar([1.0] * 4) == 4.0


class TestMakeComm:
    def test_default_backend_is_sim(self):
        comm = make_comm()
        assert isinstance(comm, SimComm) and not isinstance(comm, MpComm)
        assert comm.size == 4
        assert comm.machine.name == summit().name

    def test_sim_with_machine_and_size(self):
        comm = make_comm("sim", generic_cpu(), 8)
        assert comm.size == 8
        assert comm.machine.name == generic_cpu().name

    def test_mp_backend(self):
        with make_comm("mp", generic_cpu(), 2) as comm:
            assert isinstance(comm, MpComm)
            assert comm.allreduce_scalar([1.0, 2.0]) == 3.0

    def test_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="backend"):
            make_comm("mpi")

    def test_tracer_threaded_through(self):
        tracer = Tracer()
        comm = make_comm("sim", tracer=tracer)
        assert comm.tracer is tracer
