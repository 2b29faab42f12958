"""Shared helpers of the benchmark: statistics, memory, output checks, staged compiles.

Everything here calls the repro package only through its public API; per-layer timing
is taken around calls into each layer, never from spans inside ``src/``.
"""

from __future__ import annotations

import heapq
import math
import re
import resource
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro import COUNTERS, DAGCircuit, PipelineBuilder, QuantumCircuit
from repro.core.estimators import OptimizationEstimator
from repro.simulator import StatevectorSimulator
from repro.simulator.statevector import active_qubit_subcircuit
from repro.transpiler.passmanager import PassManager, PropertySet

#: Passes whose time the traced run reports one by one (``pass.<Name>_s``).
REPORTED_PASSES = (
    "SabreLayoutSelection",
    "SabreRouting",
    "NASSCRouting",
    "UnitarySynthesis",
    "CommutativeCancellation",
    "Optimize1qGates",
    "SwapLowering",
    "CommuteSingleQubitsThroughSwap",
)

#: Pipeline stages the staged compile times one by one (``stage.<name>_s``).
STAGES = PipelineBuilder.STAGES

#: Counters whose deltas the traced runs report.
ROUTING_COUNTERS = {
    "routing.candidates_scored": "routing.swap_candidates_scored",
    "routing.selections": "routing.swap_selections",
    "routing.swaps_inserted": "routing.swaps_inserted",
    "routing.nassc.estimates": "routing.nassc.estimates",
}
HIT_RATIO_CACHES = ("kak_memo", "commutation", "gate_matrix")

#: Largest routed register (active physical qubits) the statevector check simulates.
MAX_SIM_QUBITS = 16
#: Random product input states per equivalence check, besides |0...0>.
RANDOM_INPUTS = 2

_TWO_QUBIT_LINE = re.compile(r"^(\w+)(?:\([^)]*\))? q\[(\d+)\],\s*q\[(\d+)\];$")


# -- host speed -----------------------------------------------------------------

#: Seconds the reference work takes on the nominal host: a 2-vCPU Intel Xeon VM at the
#: fast end of the speeds it shows.
REFERENCE_NOMINAL_S = 0.004
_REFERENCE_MATRICES = [
    m + 1j * m.T for m in np.random.default_rng(0).normal(size=(20, 4, 4))
]


def _reference_work() -> None:
    """A fixed mix of interpreter work (dicts, tuples, a heap) and small complex
    matrix products with an eigenvalue solve, the kinds of work a compile does.  It
    never calls the repro package, so no change to the program moves its time."""
    for _ in range(2):
        counts: Dict[int, int] = {}
        heap: List[tuple] = []
        for i in range(3000):
            key = (i * 7919) % 251
            counts[key] = counts.get(key, 0) + 1
            heapq.heappush(heap, (counts[key], key))
            if len(heap) > 50:
                heapq.heappop(heap)
        acc = np.eye(4, dtype=complex)
        for m in _REFERENCE_MATRICES:
            acc = acc @ m
            acc /= np.abs(acc).max()
        np.linalg.eigvals(acc)


class HostScale:
    """Scales measured seconds to the nominal host's speed.

    On a shared host the same work takes up to twice as long for stretches of seconds
    to minutes, and a whole run can fall into one such stretch; no statistic over one
    run's raw times removes that.  So right after each timed interval this process
    samples the time of :func:`_reference_work` and scales the interval by
    ``REFERENCE_NOMINAL_S`` over the mean of the samples just before and just after it.
    Call :meth:`sample` after untimed work, so that the "before" sample is adjacent to
    the next interval.
    """

    def __init__(self) -> None:
        _reference_work()  # untimed: loads numpy's linear algebra
        self.samples: List[float] = []
        self.sample()

    def sample(self) -> None:
        """Time one run of the reference work."""
        start = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - start)

    def scale(self, seconds: float) -> float:
        """``seconds`` just measured, at the nominal host's speed."""
        self.sample()
        return seconds * REFERENCE_NOMINAL_S / (sum(self.samples[-2:]) / 2)

    def slowdown(self) -> float:
        """Median reference time over the nominal one: 2.0 means a host half as fast."""
        return percentile(self.samples, 0.5) / REFERENCE_NOMINAL_S


# -- statistics ---------------------------------------------------------------

def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``values`` by linear interpolation; NaN if empty."""
    if not len(values):
        return math.nan
    return float(np.percentile(np.asarray(values, dtype=float), 100.0 * q))


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class CounterDeltas:
    """Sums of ``COUNTERS.snapshot()`` deltas over the blocks run under :meth:`counting`."""

    def __init__(self) -> None:
        self.totals: Dict[str, int] = {}

    @contextmanager
    def counting(self):
        before = COUNTERS.snapshot()
        try:
            yield self
        finally:
            for key, value in COUNTERS.snapshot().items():
                self.totals[key] = self.totals.get(key, 0) + value - before.get(key, 0)


def cache_hit_ratios(delta: Dict[str, int]) -> Dict[str, float]:
    out = {}
    for cache in HIT_RATIO_CACHES:
        hits = delta.get(f"cache.{cache}.hits", 0)
        misses = delta.get(f"cache.{cache}.misses", 0)
        out[f"cache.{cache}.hit_ratio"] = ratio(hits, hits + misses)
    return out


def routing_counters(delta: Dict[str, int], per: float) -> Dict[str, float]:
    """Routing counters from a snapshot delta, divided by ``per`` (e.g. cycles run)."""
    out = {name: delta.get(key, 0) / per for name, key in ROUTING_COUNTERS.items()}
    estimates = delta.get("routing.nassc.estimates", 0)
    memo_hits = delta.get("routing.nassc.estimate_memo_hits", 0)
    out["routing.nassc.memo_hit_ratio"] = ratio(memo_hits, memo_hits + estimates)
    return out


# -- estimator wrapper (traced runs only) -------------------------------------

class EstimatorTimer:
    """Times every ``OptimizationEstimator.estimate`` call while active.

    The wrapper replaces the class attribute for the duration of a ``with`` block and
    restores it afterwards, so untraced runs execute the unmodified method.
    """

    def __init__(self) -> None:
        self.seconds = 0.0

    @contextmanager
    def active(self):
        original = OptimizationEstimator.estimate
        timer = self

        def timed_estimate(self_, *args, **kwargs):
            start = time.perf_counter()
            try:
                return original(self_, *args, **kwargs)
            finally:
                timer.seconds += time.perf_counter() - start

        OptimizationEstimator.estimate = timed_estimate
        try:
            yield self
        finally:
            OptimizationEstimator.estimate = original


# -- output checks ------------------------------------------------------------

def coupling_violations(circuit: QuantumCircuit, edges: set) -> int:
    """Two-qubit gates of ``circuit`` that do not sit on an edge of the coupling map."""
    bad = 0
    for inst in circuit.data:
        if len(inst.qubits) == 2 and inst.name != "barrier":
            a, b = inst.qubits
            if (a, b) not in edges and (b, a) not in edges:
                bad += 1
    return bad


def qasm_line_violations(lines: Iterable[str], edges: set) -> int:
    """Like :func:`coupling_violations`, over routed OpenQASM 2.0 text lines."""
    bad = 0
    for line in lines:
        match = _TWO_QUBIT_LINE.match(line)
        if match and match.group(1) != "barrier":
            a, b = int(match.group(2)), int(match.group(3))
            if (a, b) not in edges and (b, a) not in edges:
                bad += 1
    return bad


def coupling_edges(coupling_map) -> set:
    return {tuple(edge) for edge in coupling_map.edges}


def _random_rotations(rng: np.random.Generator, num: int) -> List[tuple]:
    return [tuple(rng.uniform(0, 2 * np.pi, size=3)) for _ in range(num)]


def equivalent_up_to_layout(
    logical: QuantumCircuit, result, seed: int
) -> Optional[bool]:
    """Statevector equivalence of ``result.circuit`` with ``logical`` up to the layouts.

    Runs from |0...0> and from ``RANDOM_INPUTS`` seeded random product states: the same
    single-qubit rotations are prepended to the logical circuit and, at the
    ``initial_layout`` positions, to the routed circuit.  The routed output must then
    equal the logical output placed at the ``final_layout`` positions, with every other
    active physical qubit back in |0>, up to one global phase.  A product input makes a
    relative phase error visible that the |0...0> input alone can miss.  Returns None
    when the routed circuit touches more than ``MAX_SIM_QUBITS`` physical qubits.
    """
    n = logical.num_qubits
    initial = [result.initial_layout.physical(q) for q in range(n)]
    final = [result.final_layout.physical(q) for q in range(n)]
    reduced, active = active_qubit_subcircuit(result.circuit, include=initial + final)
    if len(active) > MAX_SIM_QUBITS:
        return None
    index = {phys: i for i, phys in enumerate(active)}
    sim = StatevectorSimulator(max_qubits=MAX_SIM_QUBITS)
    rng = np.random.default_rng(seed)
    inputs = [None] + [_random_rotations(rng, n) for _ in range(RANDOM_INPUTS)]
    for rotations in inputs:
        prepared_logical = QuantumCircuit(n)
        prepared_routed = QuantumCircuit(len(active))
        if rotations is not None:
            for q, (theta, phi, lam) in enumerate(rotations):
                prepared_logical.u(theta, phi, lam, q)
                prepared_routed.u(theta, phi, lam, index[initial[q]])
        prepared_logical.extend(inst for inst in logical.data if inst.name != "measure")
        prepared_routed.extend(inst for inst in reduced.data if inst.name != "measure")
        want = sim.run(prepared_logical)
        got = sim.run(prepared_routed)
        # Move the routed state's axes so logical qubit q sits where the logical state
        # has it, with the idle physical qubits as the leading (most significant) axes.
        m = len(active)
        tensor = got.reshape((2,) * m)
        final_axes = [m - 1 - index[final[q]] for q in reversed(range(n))]
        idle_axes = [axis for axis in range(m) if axis not in final_axes]
        permuted = np.transpose(tensor, idle_axes + final_axes).reshape(-1, 2 ** n)
        if np.linalg.norm(permuted[1:]) > 1e-6:
            return False
        overlap = abs(np.vdot(want, permuted[0]))
        if abs(overlap - 1.0) > 1e-6:
            return False
    return True


# -- staged compile (traced runs) -------------------------------------------

class StagedCompile:
    """``transpile()``'s pipeline run stage by stage, with one timing per stage.

    Builds ``PipelineBuilder(target, options)`` and runs each named stage as its own
    ``PassManager`` over one DAG and one shared ``PropertySet``.  The SWAP-lowering pass
    at the head of ``post_routing`` runs on its own so the CX count after it can be
    read; its time is still credited to the ``post_routing`` stage.
    """

    def __init__(self) -> None:
        self.stage_s = {stage: 0.0 for stage in STAGES}
        self.pass_s = {name: 0.0 for name in REPORTED_PASSES}
        self.dag_build_s = 0.0
        self.wall_s = 0.0
        self.cx_removed = 0
        self.coverage: List[float] = []

    def run(self, circuit: QuantumCircuit, target, options) -> QuantumCircuit:
        start = time.perf_counter()
        builder = PipelineBuilder(target, options)
        props = PropertySet()
        t0 = time.perf_counter()
        dag = DAGCircuit.from_circuit(circuit)
        dag_build = time.perf_counter() - t0
        covered = 0.0
        cx_after_lowering = None
        for stage in STAGES:
            items = list(builder.stage(stage))
            parts = [items[:1], items[1:]] if stage == "post_routing" else [items]
            for part in parts:
                manager = PassManager(part)
                manager.property_set = props
                t0 = time.perf_counter()
                dag = manager.run_dag(dag)
                elapsed = time.perf_counter() - t0
                self.stage_s[stage] += elapsed
                covered += elapsed
                for name, seconds in manager.timing_log:
                    if name in self.pass_s:
                        self.pass_s[name] += seconds
                if stage == "post_routing" and cx_after_lowering is None:
                    cx_after_lowering = dag.count_gate("cx")
        if cx_after_lowering is not None:
            self.cx_removed += cx_after_lowering - dag.count_gate("cx")
        t0 = time.perf_counter()
        out = dag.to_circuit()
        dag_build += time.perf_counter() - t0
        wall = time.perf_counter() - start
        self.dag_build_s += dag_build
        self.wall_s += wall
        self.coverage.append((covered + dag_build) / wall)
        return out
