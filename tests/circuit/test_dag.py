"""Unit tests for the DAG circuit representation and the whole-circuit routing frontier."""

import pytest

from repro.circuit import DAGCircuit, QuantumCircuit, StreamingDAG
from repro.exceptions import CircuitError


def layered_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(4)
    circuit.h(0)          # 0
    circuit.cx(0, 1)      # 1
    circuit.cx(2, 3)      # 2
    circuit.cx(1, 2)      # 3
    circuit.x(3)          # 4
    return circuit


class TestDAGConstruction:
    def test_round_trip_preserves_order_per_wire(self):
        circuit = layered_circuit()
        rebuilt = DAGCircuit.from_circuit(circuit).to_circuit()
        assert rebuilt.count_ops() == circuit.count_ops()
        assert [i.name for i in rebuilt.data if 0 in i.qubits] == ["h", "cx"]
        assert [i.qubits for i in rebuilt.data if 2 in i.qubits] == [(2, 3), (1, 2)]

    def test_front_layer(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        front = dag.front_layer()
        assert {n.name for n in front} == {"h", "cx"}
        assert {n.qubits for n in front} == {(0,), (2, 3)}

    def test_successors_and_predecessors(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        nodes = dag.op_nodes()
        h_node = nodes[0]
        cx01 = nodes[1]
        assert dag.successors(h_node) == [cx01]
        assert dag.predecessors(cx01) == [h_node]

    def test_topological_order_respects_dependencies(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        order = [n.node_id for n in dag.topological_nodes()]
        position = {nid: i for i, nid in enumerate(order)}
        for node in dag.op_nodes():
            for succ in dag.successors(node):
                assert position[node.node_id] < position[succ.node_id]

    def test_descendants(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        nodes = dag.op_nodes()
        assert nodes[3].node_id in dag.descendants(nodes[0])

    def test_two_qubit_nodes(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        assert len(dag.two_qubit_nodes()) == 3

    def test_out_of_range_qubit_rejected(self):
        dag = DAGCircuit(2)
        with pytest.raises(CircuitError):
            dag.add_node(layered_circuit().data[0].gate, (5,))

    def test_measure_creates_clbit_dependency(self):
        circuit = QuantumCircuit(2, 1)
        circuit.measure(0, 0)
        circuit.measure(1, 0)
        dag = DAGCircuit.from_circuit(circuit)
        nodes = dag.op_nodes()
        assert dag.predecessors(nodes[1]) == [nodes[0]]


class TestRemoveNode:
    def test_remove_reconnects_wire(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.x(0)
        circuit.cx(0, 1)
        dag = DAGCircuit.from_circuit(circuit)
        nodes = dag.op_nodes()
        dag.remove_node(nodes[1])
        assert len(dag) == 2
        remaining = dag.op_nodes()
        assert dag.successors(remaining[0]) == [remaining[1]]

    def test_remove_front_node_updates_front_layer(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        first = dag.op_nodes()[0]
        dag.remove_node(first)
        assert all(n.node_id != first.node_id for n in dag.front_layer())

    def test_remove_missing_node_raises(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        node = dag.op_nodes()[0]
        dag.remove_node(node)
        with pytest.raises(CircuitError):
            dag.remove_node(node)


def whole_window_frontier(dag: DAGCircuit) -> StreamingDAG:
    """A frontier whose window holds the whole DAG, as in-memory routing opens it."""
    return StreamingDAG(
        dag.op_nodes(), dag.num_qubits, dag.num_clbits, window_gates=len(dag) + 1
    )


class TestWholeWindowFrontier:
    def test_resolve_unlocks_successors(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window_frontier(dag)
        start_names = {n.name for n in frontier.front}
        assert start_names == {"h", "cx"}
        h_node = next(n for n in frontier.front if n.name == "h")
        newly = frontier.resolve(h_node)
        assert [n.qubits for n in newly] == [(0, 1)]

    def test_cannot_resolve_blocked_node(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window_frontier(dag)
        blocked = frontier.nodes[3]  # cx(1,2) depends on both earlier CNOTs
        assert blocked.qubits == (1, 2)
        with pytest.raises(CircuitError):
            frontier.resolve(blocked)

    def test_full_resolution_drains_dag(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window_frontier(dag)
        resolved = 0
        while not frontier.is_done():
            frontier.resolve(frontier.front[0])
            resolved += 1
        assert resolved == len(dag)
        assert frontier.num_remaining() == 0

    def test_lookahead_returns_upcoming_two_qubit_gates(self):
        dag = DAGCircuit.from_circuit(layered_circuit())
        frontier = whole_window_frontier(dag)
        lookahead = frontier.lookahead(5)
        # Successors of the front layer that are not themselves executable yet.
        assert [n.qubits for n in lookahead] == [(0, 1), (1, 2)]
        assert all(n not in frontier.front for n in lookahead)

    def test_lookahead_respects_size(self):
        circuit = QuantumCircuit(2)
        for _ in range(10):
            circuit.cx(0, 1)
        frontier = whole_window_frontier(DAGCircuit.from_circuit(circuit))
        assert len(frontier.lookahead(3)) == 3
