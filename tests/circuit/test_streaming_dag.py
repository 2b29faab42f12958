"""Tests for :class:`repro.circuit.StreamingDAG` — the windowed dependency frontier.

The contract: walked with the same resolve sequence, a StreamingDAG must be
step-for-step identical to a frontier over the full DAG (front content *and order*,
lookahead content and order), while keeping the live node count bounded by the window
and its spill allowance.  :class:`FullDAGFrontier` below is that reference: an
independent execution frontier that walks a materialised :class:`DAGCircuit` through
its own predecessor/successor sets.
"""

from typing import Dict, List, Set

import pytest

from repro.circuit import DAGCircuit, DAGNode, StreamingDAG, random_circuit
from repro.circuit.random import random_circuit_stream
from repro.exceptions import CircuitError


class FullDAGFrontier:
    """Test oracle: incremental front-layer tracker over a whole :class:`DAGCircuit`.

    Keeps the remaining in-degree of every unresolved node; successors are visited in
    sorted node-id order, both when resolving and in the lookahead BFS.
    """

    def __init__(self, dag: DAGCircuit) -> None:
        self.dag = dag
        self._remaining_pred: Dict[int, int] = {
            nid: len(dag._predecessors[nid]) for nid in dag.nodes
        }
        self._front: List[DAGNode] = [
            node for node in dag.op_nodes() if self._remaining_pred[node.node_id] == 0
        ]
        self._resolved: Set[int] = set()

    @property
    def front(self) -> List[DAGNode]:
        return list(self._front)

    def is_done(self) -> bool:
        return not self._front

    def resolve(self, node: DAGNode) -> List[DAGNode]:
        """Mark a front-layer node as executed; returns newly executable nodes."""
        if node not in self._front:
            raise CircuitError(f"node {node.node_id} is not currently executable")
        self._front.remove(node)
        self._resolved.add(node.node_id)
        newly: List[DAGNode] = []
        for succ_id in sorted(self.dag._successors[node.node_id]):
            self._remaining_pred[succ_id] -= 1
            if self._remaining_pred[succ_id] == 0:
                succ = self.dag.nodes[succ_id]
                self._front.append(succ)
                newly.append(succ)
        return newly

    def lookahead(self, size: int) -> List[DAGNode]:
        """Up to ``size`` closest two-qubit successors of the front layer (BFS)."""
        result: List[DAGNode] = []
        visited: Set[int] = {n.node_id for n in self._front}
        queue: List[int] = []
        for node in self._front:
            queue.extend(sorted(self.dag._successors[node.node_id]))
        idx = 0
        while idx < len(queue) and len(result) < size:
            nid = queue[idx]
            idx += 1
            if nid in visited or nid in self._resolved:
                continue
            visited.add(nid)
            node = self.dag.nodes[nid]
            if node.is_two_qubit():
                result.append(node)
            queue.extend(sorted(self.dag._successors[nid]))
        return result


def frontier_pair(circuit, window_gates):
    full = FullDAGFrontier(DAGCircuit.from_circuit(circuit))
    streamed = StreamingDAG(
        iter(circuit.data), circuit.num_qubits, circuit.num_clbits,
        window_gates=window_gates,
    )
    return full, streamed


def walk_both(full, streamed, lookahead_size=20):
    """Resolve front-first in lockstep, asserting equality at every step."""
    steps = 0
    while not full.is_done():
        assert not streamed.is_done()
        full_front = full.front
        stream_front = streamed.front
        assert [n.node_id for n in stream_front] == [n.node_id for n in full_front]
        assert [n.node_id for n in streamed.lookahead(lookahead_size)] == [
            n.node_id for n in full.lookahead(lookahead_size)
        ]
        # resolve a rotating choice of front node so the walk isn't purely FIFO
        pick = steps % len(full_front)
        new_full = full.resolve(full_front[pick])
        new_stream = streamed.resolve(stream_front[pick])
        assert [n.node_id for n in new_stream] == [n.node_id for n in new_full]
        steps += 1
    assert streamed.is_done()
    return steps


@pytest.mark.parametrize("window", [64, 512, 10**6])
@pytest.mark.parametrize("num_qubits,depth,seed", [(5, 12, 0), (8, 10, 3), (4, 20, 7)])
def test_lockstep_with_execution_frontier(num_qubits, depth, seed, window):
    circuit = random_circuit(num_qubits, depth, seed=seed)
    circuit.measure_all()
    full, streamed = frontier_pair(circuit, window)
    steps = walk_both(full, streamed)
    assert steps == len(circuit.data)
    assert streamed.retired == len(circuit.data)


def test_live_window_stays_bounded():
    window = 32
    streamed = StreamingDAG(
        random_circuit_stream(6, 5000, seed=0), 6, window_gates=window
    )
    peak = 0
    while not streamed.is_done():
        streamed.lookahead(20)
        peak = max(peak, streamed.num_remaining())
        for node in streamed.front:
            streamed.resolve(node)
            peak = max(peak, streamed.num_remaining())
    assert streamed.retired == 5000
    # resolve/lookahead may spill past the window, but never past the allowance
    assert peak <= streamed.max_live_gates
    assert peak < 5000


def test_resolve_rejects_non_front_nodes():
    circuit = random_circuit(4, 6, seed=1)
    streamed = StreamingDAG(iter(circuit.data), 4, window_gates=8)
    front = streamed.front
    blocked = next(
        node for node in streamed.nodes.values()
        if node.node_id not in {f.node_id for f in front}
    )
    with pytest.raises(CircuitError, match="not currently executable"):
        streamed.resolve(blocked)


def test_out_of_range_qubit_rejected():
    circuit = random_circuit(5, 4, seed=2)
    with pytest.raises(CircuitError, match="out of range"):
        StreamingDAG(iter(circuit.data), 3, window_gates=1024).is_done()


def test_version_bumps_on_resolve():
    circuit = random_circuit(4, 6, seed=3)
    streamed = StreamingDAG(iter(circuit.data), 4, window_gates=1024)
    before = streamed.version
    streamed.resolve(streamed.front[0])
    assert streamed.version == before + 1
