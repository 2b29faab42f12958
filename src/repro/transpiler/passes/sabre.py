"""SABRE qubit routing (Li, Ding, Xie - ASPLOS 2019), the paper's baseline.

The router processes the logical circuit's DAG layer by layer (resolved / front / extended
layers, paper Fig. 6), inserting SWAPs chosen by a lookahead heuristic cost function over the
device distance matrix.  :class:`SabreSwapRouter` is also the base class for the NASSC router
in :mod:`repro.core.nassc`, which only overrides the cost function and the SWAP labelling.

Every routing run is one walk of :meth:`SabreSwapRouter.route_stream_steps` over a
:class:`~repro.circuit.dag.StreamingDAG` frontier, writing into a :class:`RoutedSink`.
In-memory routing (:meth:`SabreSwapRouter.route`) and the layout-refinement sweeps open
the frontier over the whole circuit (:func:`whole_frontier`);
:func:`repro.core.stream.transpile_stream` opens it over a bounded window.  The sink hands
every placed operation to an ``emit(position, op)`` callback — in-memory routing appends
it to a fresh output DAG, the sweeps drop it, streaming writes QASM — and retains only
the routed tail the NASSC estimators can still inspect.  Candidates are scored by one
numpy kernel, :func:`front_ext_sums`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ...circuit.circuit import QuantumCircuit
from ...circuit.dag import DAGCircuit, DAGNode, StreamingDAG
from ...circuit.gates import Gate, gate as make_gate
from ...exceptions import TranspilerError
from ...hardware.coupling import CouplingMap
from ...obs.counters import COUNTERS
from ..passmanager import AnalysisPass, PropertySet, TransformationPass
from .layout import Layout

#: Per-wire bound on the router's position history.  The NASSC estimators scan the
#: routed prefix backward through :meth:`repro.core.estimators.OptimizationEstimator`
#: and consume at most ``MAX_COMMUTE_SCAN + 1`` merged positions (trailing-block
#: reconstruction stops even earlier at ``MAX_BLOCK_GATES + 1``), so keeping a few more
#: than that per wire is exactly equivalent to unbounded history — without the unbounded
#: memory growth on long circuits.  ``tests/transpiler/test_sabre.py`` asserts this
#: constant dominates the estimator scan depths.
WIRE_HISTORY_BOUND = 24


def front_ext_sums(
    distance: np.ndarray, mapped_a: np.ndarray, mapped_b: np.ndarray, front_cols: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (front, extended) distance sums — the router's scoring kernel.

    ``mapped_a``/``mapped_b`` are (rows x cols) integer tables of physical qubit
    indices; column ``c < front_cols`` belongs to the front layer, the rest to the
    extended layer.  One fancy-indexed gather, then sequential (not pairwise) column
    sums: that keeps the result bit-identical to a per-gate scalar loop even for
    non-integer (noise-aware) distance matrices, where pairwise summation could differ
    in the last ulp and flip a 1e-12 tie-break.
    """
    table = distance[mapped_a, mapped_b]
    rows, cols = table.shape
    front = np.zeros(rows)
    for column in range(front_cols):
        front += table[:, column]
    ext = np.zeros(rows)
    for column in range(front_cols, cols):
        ext += table[:, column]
    return front, ext


class _LiteOp:
    """Minimal instruction record with the ``gate``/``name``/``qubits`` shape the
    NASSC estimators read."""

    __slots__ = ("gate", "qubits", "clbits")

    def __init__(self, gate: Gate, qubits: Tuple[int, ...], clbits: Tuple[int, ...]) -> None:
        self.gate = gate
        self.qubits = qubits
        self.clbits = clbits

    @property
    def name(self) -> str:
        return self.gate.name


class RoutedSink:
    """Where one routing run writes its output: emit every op, retain only the scan tail.

    :meth:`append` records the op's position in the bounded per-wire ``wire_history``,
    stores the op in the position-keyed ``data`` dict and hands it to
    ``emit(position, op)`` (``op`` has the ``gate``/``name``/``qubits``/``clbits`` shape
    of an :class:`~repro.circuit.circuit.Instruction`).  Every ``_SCAN_INTERVAL``
    appends, positions no wire history references any more are dropped.  The NASSC
    estimators index ``data`` only at positions recorded in those histories, so they see
    exactly the full routed prefix while the retained set stays bounded by
    ``num_wires * WIRE_HISTORY_BOUND + _SCAN_INTERVAL`` entries, whatever the circuit
    length.
    """

    __slots__ = ("data", "wire_history", "_emit", "_count")

    _SCAN_INTERVAL = 256

    def __init__(self, num_wires: int, emit) -> None:
        self.wire_history: Dict[int, Deque[int]] = {
            q: deque(maxlen=WIRE_HISTORY_BOUND) for q in range(num_wires)
        }
        self.data: Dict[int, _LiteOp] = {}
        self._emit = emit
        self._count = 0

    def append(self, gate: Gate, qubits: Sequence[int], clbits: Sequence[int] = ()) -> None:
        position = self._count
        op = _LiteOp(gate, tuple(qubits), tuple(clbits))
        self.data[position] = op
        for q in op.qubits:
            self.wire_history[q].append(position)
        self._count += 1
        self._emit(position, op)
        if self._count % self._SCAN_INTERVAL == 0:
            live = {pos for history in self.wire_history.values() for pos in history}
            self.data = {pos: kept for pos, kept in self.data.items() if pos in live}

    def __len__(self) -> int:
        return self._count


def _discard(position: int, op: _LiteOp) -> None:
    """Emit callback of the layout sweeps, which use only the final layout."""


@dataclass
class RoutingResult:
    """Output of one routing run."""

    #: The routed DAG for :meth:`SabreSwapRouter.route`; ``None`` for emit-only runs.
    dag: Optional[DAGCircuit]
    initial_layout: Layout
    final_layout: Layout
    num_swaps: int
    swap_labels: Dict[int, str] = field(default_factory=dict)
    _circuit: Optional[QuantumCircuit] = field(default=None, repr=False, compare=False)

    @property
    def circuit(self) -> QuantumCircuit:
        """Linearized view of the routed DAG (materialised lazily and cached)."""
        if self._circuit is None:
            self._circuit = self.dag.to_circuit()
        return self._circuit


@dataclass
class ScoreRequest:
    """One pending candidate-scoring evaluation, yielded by the routing loop.

    The router suspends at every heuristic scoring point and yields one of these; the
    driver answers with the float score array (``generator.send(scores)``).  The solo
    driver (:func:`drive_steps`) simply calls :meth:`evaluate`; the ensemble engine in
    :mod:`repro.transpiler.ensemble` instead stacks the index tables of every live
    trial's request into one batched kernel call per step.
    """

    router: "SabreSwapRouter"
    candidates: List[Tuple[int, int]]
    front_gates: List[DAGNode]
    extended: List[DAGNode]
    layout: Layout

    def evaluate(self) -> np.ndarray:
        """Score this request in isolation (the single-trial path)."""
        return self.router._score_candidates(
            self.candidates, self.front_gates, self.extended, self.layout
        )


def drive_steps(steps):
    """Run a routing-step generator to completion, answering each request in place.

    This is the trampoline behind :meth:`SabreSwapRouter.route` and the solo layout
    traversals.
    """
    reply = None
    while True:
        try:
            request = steps.send(reply)
        except StopIteration as stop:
            return stop.value
        reply = request.evaluate()


def prepare_layout_circuits(dag: DAGCircuit):
    """Forward/backward traversal circuits for SABRE layout selection (or ``None``).

    Returns ``None`` when the circuit has no two-qubit interaction to refine on —
    the random seed layout is then final.  Factored out so the ensemble engine can
    build the (trial-independent) traversals once and share them across trials.
    """
    unitary_only = dag.to_circuit().without_directives()
    if not unitary_only.two_qubit_pairs():
        return None
    return unitary_only, unitary_only.reverse_ops()


def whole_frontier(circuit) -> StreamingDAG:
    """Frontier over all of ``circuit`` (a ``DAGCircuit`` or ``QuantumCircuit``).

    In-memory routing and the layout sweeps walk this.  ``window_gates`` one larger
    than the circuit exhausts the source on the first fill, so the walk never spills
    and :meth:`StreamingDAG.lookahead` never tracks wire tails: it is the plain
    full-circuit walk, in the circuit's topological (insertion) order.
    """
    ops = circuit.op_nodes() if isinstance(circuit, DAGCircuit) else circuit.data
    for op in ops:
        if len(op.qubits) > 2 and op.name != "barrier":
            raise TranspilerError(
                f"cannot route gate '{op.name}' on {len(op.qubits)} qubits; decompose first"
            )
    return StreamingDAG(
        ops, circuit.num_qubits, circuit.num_clbits, window_gates=len(ops) + 1,
        name=circuit.name,
    )


def layout_selection_steps(router, layout, iterations, forward, backward):
    """Generator form of the SABRE reverse-traversal layout refinement.

    Yields the underlying routers' :class:`ScoreRequest`\\ s; returns the refined
    :class:`Layout`.  ``drive_steps`` makes this the classic solo refinement; the
    ensemble engine interleaves several of these (one per trial) in lockstep.
    """
    for _ in range(iterations):
        for circuit in (forward, backward):
            # The sweeps' routed circuits are discarded: only their final layout matters.
            sweep = yield from router.route_stream_steps(
                whole_frontier(circuit), layout, emit=_discard
            )
            layout = sweep.final_layout
    return layout


class SabreSwapRouter:
    """SWAP-based bidirectional heuristic router (SABRE).

    Parameters mirror the paper's configuration (Sec. V): extended-layer size 20 and
    extended-layer weight 0.5.
    """

    #: Number of SWAP insertions without resolving any gate before the safety valve engages.
    _STALL_LIMIT_FACTOR = 10

    def __init__(
        self,
        coupling_map: CouplingMap,
        *,
        extended_set_size: int = 20,
        extended_set_weight: float = 0.5,
        decay_delta: float = 0.001,
        seed: Optional[int] = None,
        distance_matrix: Optional[np.ndarray] = None,
    ) -> None:
        self.coupling_map = coupling_map
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.decay_delta = decay_delta
        self.seed = seed
        self.distance = np.ascontiguousarray(
            np.asarray(distance_matrix, dtype=float)
            if distance_matrix is not None
            else coupling_map.distance_matrix()
        )
        # Flat device structure consumed by the vectorized inner loop: CSR adjacency for
        # candidate generation and a dense boolean matrix for executability checks.
        self._adj_indptr, self._adj_indices = coupling_map.adjacency_arrays()
        self._adj_matrix = coupling_map.adjacency_matrix()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def route(self, circuit, initial_layout: Optional[Layout] = None) -> RoutingResult:
        """Route a logical circuit (``QuantumCircuit`` or ``DAGCircuit``) onto the device."""
        return drive_steps(self.route_steps(circuit, initial_layout))

    def route_steps(self, circuit, initial_layout: Optional[Layout] = None):
        """Generator form of :meth:`route`: yields a :class:`ScoreRequest` at every
        heuristic scoring point and expects the score array back via ``send()``.

        Walks the whole circuit through :meth:`route_stream_steps`, emitting into a
        fresh output DAG, and returns the :class:`RoutingResult` carrying it (as the
        generator's ``StopIteration`` value).  The ensemble engine drives many of these
        concurrently, batching the per-step score evaluations of all live trials into
        one kernel call.
        """
        frontier = whole_frontier(circuit)
        out_dag = DAGCircuit(self.coupling_map.num_qubits, circuit.num_clbits, circuit.name)
        out_dag.metadata = dict(circuit.metadata)

        def emit(position: int, op: _LiteOp) -> None:
            out_dag.add_node(op.gate, op.qubits, op.clbits)

        result = yield from self.route_stream_steps(frontier, initial_layout, emit=emit)
        result.dag = out_dag
        return result

    def route_stream_steps(
        self, frontier: StreamingDAG, initial_layout: Optional[Layout] = None, *, emit
    ):
        """The SABRE routing loop, as a generator over a :class:`StreamingDAG` frontier.

        Every routed operation is pushed to ``emit(position, op)`` the moment it is
        placed (through a :class:`RoutedSink`); no output DAG or full instruction list
        is retained, so a bounded window keeps peak memory O(window), not O(gates).
        Yields a :class:`ScoreRequest` at every scoring point and returns a
        :class:`RoutingResult` with ``dag=None``.  When the window covers the whole
        circuit the emitted sequence is exactly what :meth:`route` builds its DAG from.
        """
        if frontier.num_qubits > self.coupling_map.num_qubits:
            raise TranspilerError(
                f"circuit needs {frontier.num_qubits} qubits but the device has "
                f"{self.coupling_map.num_qubits}"
            )
        rng = np.random.default_rng(self.seed)
        layout = (initial_layout or Layout.trivial(frontier.num_qubits)).copy()
        initial = layout.copy()
        out = RoutedSink(self.coupling_map.num_qubits, emit)
        # The routed prefix and its wire histories, as the NASSC estimators read them.
        self._out = out
        self._wire_history = out.wire_history
        self._decay = np.ones(self.coupling_map.num_qubits)
        self._reset_routing_memos()

        swap_labels: Dict[int, str] = {}
        num_swaps = 0
        #: Live progress gauge the ensemble driver reads to prune hopeless trials.
        self.swaps_so_far = 0
        stall_counter = 0
        stall_limit = self._STALL_LIMIT_FACTOR * (self.coupling_map.diameter() + 1)
        last_swap: Optional[Tuple[int, int]] = None
        cached_extended: Optional[List[DAGNode]] = None
        cached_frontier_version = -1

        while not frontier.is_done():
            executed_any = self._execute_ready_gates(frontier, layout, out)
            if executed_any:
                self._decay[:] = 1.0
                stall_counter = 0
                last_swap = None
                continue
            if frontier.is_done():
                break

            front_gates = [n for n in frontier.front if n.is_two_qubit()]
            if not front_gates:
                raise TranspilerError("routing stalled with no two-qubit gate in the front layer")
            # The extended layer depends only on the frontier state, which is unchanged
            # between consecutive SWAP insertions that execute no gate — reuse it then.
            if frontier.version != cached_frontier_version:
                cached_extended = frontier.lookahead(self.extended_set_size)
                cached_frontier_version = frontier.version
            extended = cached_extended

            if stall_counter >= stall_limit:
                # Safety valve: march the first blocked gate together along a shortest path.
                swap = self._forced_swap(front_gates[0], layout)
            else:
                candidates = self._swap_candidates(front_gates, layout)
                if last_swap in candidates and len(candidates) > 1:
                    candidates = [c for c in candidates if c != last_swap]
                # Selection is split around a yield so the code stepping this generator
                # may batch the score evaluation across trials.
                self._begin_scoring(candidates)
                scores = yield ScoreRequest(self, candidates, front_gates, extended, layout)
                swap = self._choose_swap(candidates, scores, rng)

            label = self._swap_label(swap)
            position = len(out)
            # The bare swap flyweight is immutable; labelled swaps get a fresh instance.
            gate_obj = make_gate("swap") if label is None else Gate("swap", (), None, label)
            out.append(gate_obj, swap)
            if label:
                swap_labels[position] = label
            layout.swap_physical(*swap)
            self._decay[swap[0]] += self.decay_delta
            self._decay[swap[1]] += self.decay_delta
            num_swaps += 1
            self.swaps_so_far = num_swaps
            stall_counter += 1
            last_swap = swap

        COUNTERS.inc("routing.swaps_inserted", num_swaps)
        return RoutingResult(
            dag=None,
            initial_layout=initial,
            final_layout=layout,
            num_swaps=num_swaps,
            swap_labels=swap_labels,
        )

    def _reset_routing_memos(self) -> None:
        """Hook: clear per-run scoring caches before a routing loop starts (no-op here)."""

    # ------------------------------------------------------------------
    # Gate execution
    # ------------------------------------------------------------------

    def _execute_ready_gates(
        self, frontier: StreamingDAG, layout: Layout, out: RoutedSink
    ) -> bool:
        executed_any = False
        progress = True
        while progress:
            progress = False
            for node in list(frontier.front):
                if self._is_executable(node, layout):
                    self._emit(node, layout, out)
                    frontier.resolve(node)
                    progress = True
                    executed_any = True
        return executed_any

    def _is_executable(self, node: DAGNode, layout: Layout) -> bool:
        if node.name == "barrier" or not node.gate.is_unitary or len(node.qubits) == 1:
            return True
        a, b = node.qubits
        l2p = layout.physical_array()
        return bool(self._adj_matrix[l2p[a], l2p[b]])

    def _emit(self, node: DAGNode, layout: Layout, out: RoutedSink) -> None:
        l2p = layout.physical_array()
        physical = tuple(int(l2p[q]) for q in node.qubits)
        if node.name == "barrier":
            out.append(node.gate, physical)
        else:
            out.append(node.gate.copy(), physical, node.clbits)

    # ------------------------------------------------------------------
    # SWAP selection
    # ------------------------------------------------------------------

    def _swap_candidates(self, front_gates: List[DAGNode], layout: Layout) -> List[Tuple[int, int]]:
        l2p = layout.physical_array()
        indptr, indices = self._adj_indptr, self._adj_indices
        candidates: Set[Tuple[int, int]] = set()
        for node in front_gates:
            for logical in node.qubits:
                physical = int(l2p[logical])
                for neighbor in indices[indptr[physical]:indptr[physical + 1]]:
                    neighbor = int(neighbor)
                    if physical < neighbor:
                        candidates.add((physical, neighbor))
                    else:
                        candidates.add((neighbor, physical))
        return sorted(candidates)

    def _begin_scoring(self, candidates: List[Tuple[int, int]]) -> None:
        """Validate the candidate set and account for the upcoming scoring step."""
        if not candidates:
            raise TranspilerError("no SWAP candidates available (disconnected coupling map?)")
        COUNTERS.inc("routing.swap_candidates_scored", len(candidates))
        COUNTERS.inc("routing.swap_selections")

    def _choose_swap(
        self,
        candidates: List[Tuple[int, int]],
        scores: np.ndarray,
        rng: np.random.Generator,
    ) -> Tuple[int, int]:
        """Tie-broken argmin over the scored candidates (consumes one rng draw)."""
        best = scores.min()
        best_indices = np.flatnonzero(scores <= best + 1e-12)
        choice = int(rng.integers(len(best_indices)))
        return candidates[int(best_indices[choice])]

    @staticmethod
    def _candidate_arrays(candidates: Sequence[Tuple[int, int]]) -> Tuple[np.ndarray, np.ndarray]:
        pairs = np.asarray(candidates, dtype=np.intp).reshape(len(candidates), 2)
        return pairs[:, 0], pairs[:, 1]

    def _mapped_index_arrays(
        self,
        c0: np.ndarray,
        c1: np.ndarray,
        nodes: List[DAGNode],
        layout: Layout,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(candidates x gates) tables of post-swap physical indices for ``nodes``.

        Entry ``[s, g]`` of the pair is gate ``g``'s qubit pair after virtually
        applying candidate swap ``s`` to the current layout — the index form the
        scoring kernel gathers distances from, and what the ensemble engine stacks
        across trials.
        """
        l2p = layout.physical_array()
        qubit_pairs = np.asarray([node.qubits for node in nodes], dtype=np.intp)
        pa = l2p[qubit_pairs[:, 0]]  # (G,)
        pb = l2p[qubit_pairs[:, 1]]
        c0 = c0[:, None]  # (S, 1)
        c1 = c1[:, None]
        mapped_a = np.where(pa == c0, c1, np.where(pa == c1, c0, pa))  # (S, G)
        mapped_b = np.where(pb == c0, c1, np.where(pb == c1, c0, pb))
        return mapped_a, mapped_b

    def _front_ext_sums(
        self,
        c0: np.ndarray,
        c1: np.ndarray,
        front_gates: List[DAGNode],
        extended: List[DAGNode],
        layout: Layout,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-candidate (front, extended) distance sums through the shared kernel."""
        mapped_a, mapped_b = self._mapped_index_arrays(
            c0, c1, front_gates + extended, layout
        )
        return front_ext_sums(self.distance, mapped_a, mapped_b, len(front_gates))

    def _score_candidates(
        self,
        candidates: Sequence[Tuple[int, int]],
        front_gates: List[DAGNode],
        extended: List[DAGNode],
        layout: Layout,
    ) -> np.ndarray:
        """SABRE lookahead cost of every candidate in one vectorized evaluation.

        Normalised front-layer distance plus weighted lookahead, scaled by the decay of
        the candidate's hotter qubit.
        """
        c0, c1 = self._candidate_arrays(candidates)
        front_raw, ext_raw = self._front_ext_sums(c0, c1, front_gates, extended, layout)
        return self._finalize_scores(
            candidates, c0, c1, front_raw, ext_raw, front_gates, extended
        )

    def _finalize_scores(
        self,
        candidates: Sequence[Tuple[int, int]],
        c0: np.ndarray,
        c1: np.ndarray,
        front_raw: np.ndarray,
        ext_raw: np.ndarray,
        front_gates: List[DAGNode],
        extended: List[DAGNode],
    ) -> np.ndarray:
        """Turn the kernel's raw (front, extended) sums into the SABRE cost array.

        Split from :meth:`_score_candidates` so the ensemble engine can run the raw
        sums for every live trial through one batched kernel call, then finalize each
        trial's slice with its own decay state.  NASSC overrides this (not the kernel).
        """
        cost = front_raw / max(len(front_gates), 1)
        if extended:
            cost = cost + self.extended_set_weight * ext_raw / len(extended)
        decay = np.maximum(self._decay[c0], self._decay[c1])
        return decay * cost

    def _swap_label(self, swap: Tuple[int, int]) -> Optional[str]:
        """Hook for optimization-aware SWAP decomposition labels (fixed orientation here)."""
        return None

    def _forced_swap(self, node: DAGNode, layout: Layout) -> Tuple[int, int]:
        """Deterministically move the first blocked gate one hop along a shortest path."""
        a, b = node.qubits
        pa, pb = layout.physical(a), layout.physical(b)
        path = self.coupling_map.shortest_path(pa, pb)
        return (min(path[0], path[1]), max(path[0], path[1]))


class SabreRouting(TransformationPass):
    """Transpiler pass wrapper around :class:`SabreSwapRouter`."""

    def __init__(
        self,
        coupling_map: CouplingMap,
        *,
        extended_set_size: int = 20,
        extended_set_weight: float = 0.5,
        seed: Optional[int] = None,
        distance_matrix: Optional[np.ndarray] = None,
        router_cls: type = SabreSwapRouter,
        router_kwargs: Optional[dict] = None,
    ) -> None:
        super().__init__()
        self.coupling_map = coupling_map
        kwargs = dict(router_kwargs or {})
        kwargs.setdefault("extended_set_size", extended_set_size)
        kwargs.setdefault("extended_set_weight", extended_set_weight)
        kwargs.setdefault("seed", seed)
        kwargs.setdefault("distance_matrix", distance_matrix)
        self.router = router_cls(coupling_map, **kwargs)

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> DAGCircuit:
        layout = property_set.get("layout") or Layout.trivial(dag.num_qubits)
        result = self.router.route(dag, layout)
        property_set["final_layout"] = result.final_layout
        property_set["initial_layout"] = result.initial_layout
        property_set["num_swaps"] = result.num_swaps
        return result.dag


class SabreLayoutSelection(AnalysisPass):
    """SABRE-style initial layout: random start plus reverse-traversal refinement.

    This is the layout method the paper uses for both SABRE and NASSC (Sec. IV-A): route the
    circuit forward, use the final mapping as the initial mapping of the reversed circuit,
    route backward, and repeat.  The refined layout is stored in ``property_set["layout"]``.
    """

    def __init__(
        self,
        coupling_map: CouplingMap,
        *,
        iterations: int = 2,
        seed: Optional[int] = None,
        router_cls: type = SabreSwapRouter,
        router_kwargs: Optional[dict] = None,
    ) -> None:
        super().__init__()
        self.coupling_map = coupling_map
        self.iterations = iterations
        self.seed = seed
        kwargs = dict(router_kwargs or {})
        kwargs.setdefault("seed", seed)
        self.router = router_cls(coupling_map, **kwargs)

    def run(self, dag: DAGCircuit, property_set: PropertySet) -> None:
        layout = Layout.random(dag.num_qubits, self.coupling_map.num_qubits, seed=self.seed)
        traversals = prepare_layout_circuits(dag)
        if traversals is not None:
            layout = drive_steps(
                layout_selection_steps(self.router, layout, self.iterations, *traversals)
            )
        property_set["layout"] = layout
