"""Shared fixtures and helpers for the test suite."""

import os
import signal
from multiprocessing.connection import wait

import numpy as np
import pytest

from repro.circuit import QuantumCircuit
from repro.hardware import grid_coupling_map, linear_coupling_map, montreal_coupling_map
from repro.synthesis import allclose_up_to_global_phase


@pytest.fixture
def linear5():
    return linear_coupling_map(5)


@pytest.fixture
def linear10():
    return linear_coupling_map(10)


@pytest.fixture
def grid9():
    return grid_coupling_map(3, 3)


@pytest.fixture
def montreal():
    return montreal_coupling_map()


def assert_unitary_equiv(circuit_a: QuantumCircuit, circuit_b: QuantumCircuit, tol: float = 1e-6):
    """Assert two circuits implement the same unitary up to a global phase."""
    mat_a = circuit_a.without_directives().to_matrix()
    mat_b = circuit_b.without_directives().to_matrix()
    assert allclose_up_to_global_phase(mat_a, mat_b, tol), "circuits are not equivalent"


def bell_pair() -> QuantumCircuit:
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return circuit


def kill_pool_workers(engine) -> None:
    """SIGKILL every worker process of a :class:`BatchTranspiler`'s pool and wait for
    them to die.  Skips the test where process pools cannot be created."""
    if engine.pool_kind != "process":
        pytest.skip("process pools unavailable in this environment")
    processes = list(engine._pool._processes.values())
    assert processes, "the pool has no live worker processes"
    for process in processes:
        os.kill(process.pid, signal.SIGKILL)
    sentinels = [process.sentinel for process in processes]
    while sentinels:
        ready = wait(sentinels, timeout=30)
        assert ready, "killed pool workers did not exit"
        sentinels = [sentinel for sentinel in sentinels if sentinel not in ready]
