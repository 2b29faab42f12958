"""paper-tables: in-process ``transpile()`` at O1 over Table I/III/IV circuits.

A closed loop with one thread compiles a fixed list of ops, cycle after cycle until
``seconds`` have passed (at least ``MIN_CYCLES`` cycles).  An op is a (circuit, device)
case with ``sabre`` or ``nassc`` and the case's routing seed, drawn from the workload
seed and shared by the ``sabre``/``nassc`` pair.  Each compile's time is
scaled to the nominal host speed (:class:`common.HostScale`), and an op's time is its
median over the cycles.  Outputs are deterministic, so quality counts and output checks
are taken once per op, on the first cycle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import (
    Target,
    TranspileOptions,
    grid_coupling_map,
    linear_coupling_map,
    montreal_coupling_map,
    optimize_logical,
    qasm,
    transpile,
)
from repro.benchlib import get_benchmark

from common import (
    CounterDeltas,
    EstimatorTimer,
    HostScale,
    StagedCompile,
    cache_hit_ratios,
    coupling_edges,
    coupling_violations,
    equivalent_up_to_layout,
    geomean,
    own_peak_rss_mb,
    percentile,
    ratio,
    routing_counters,
)

DEVICES = {
    "montreal": montreal_coupling_map,
    "linear_25": lambda: linear_coupling_map(25),
    "grid_5x5": lambda: grid_coupling_map(5, 5),
}

#: (benchmark, device): grover_n4-sized up to the RevLib sqn_258 class; each entry
#: draws its own routing seed.  The small cases (the Fig. 11 set and grover_n4 on every
#: device) make the ops dense around the median compile time: with only the larger
#: ones, the median fell between two ops 30% apart whose order depends on the routing
#: seed, and it spread 0.43 over ten seeds.
CASES = (
    ("bv_n5", "montreal"),
    ("decod24-v2_43", "montreal"),
    ("mod5d2_64", "montreal"),
    ("mod5mils_65", "montreal"),
    ("grover_n4", "montreal"),
    ("grover_n4", "linear_25"),
    ("grover_n4", "grid_5x5"),
    ("adder_n10", "montreal"),
    ("sqn_258", "montreal"),
    ("vqe_n8", "linear_25"),
    ("bv_n19", "linear_25"),
    ("grover_n6", "grid_5x5"),
    ("qpe_n9", "grid_5x5"),
    ("qft_n15", "grid_5x5"),
)
ROUTINGS = ("sabre", "nassc")
#: A cycle takes about 3.8 s at the nominal host speed.  An op's median over at least
#: three cycles also drops a cold first compile.
MIN_CYCLES = 3
#: The warm-up compiles every other case once with nassc; this one would double it.
WARM_UP_SKIP = "sqn_258"
#: Cases up to this many logical qubits get the statevector equivalence check.
MAX_CHECKED_QUBITS = 12


@dataclass
class Op:
    case: str
    device: str
    routing: str
    qasm_text: str
    circuit: object
    target: Target
    options: TranspileOptions

    @property
    def key(self) -> str:
        return f"{self.case}/{self.device}/{self.routing}/{self.options.seed}"


def setup(seed: int, seconds: float) -> Dict:
    rng = np.random.default_rng(seed)
    targets = {name: Target(coupling_map=build()) for name, build in DEVICES.items()}
    ops: List[Op] = []
    for case, device in CASES:
        text = qasm.dumps(get_benchmark(case))
        routing_seed = int(rng.integers(0, 2**31 - 1))
        for routing in ROUTINGS:
            options = TranspileOptions(routing=routing, level="O1", seed=routing_seed)
            ops.append(
                Op(case, device, routing, text, qasm.loads(text), targets[device], options)
            )
    # Warm-up: one untimed pass fills the lazy caches (KAK memo, commutation cache,
    # gate-matrix cache).  A cold compile runs up to 3x slower.
    for op in ops:
        if op.routing == "nassc" and op.case != WARM_UP_SKIP:
            transpile(op.circuit, op.target, op.options)
    return {"seed": seed, "ops": ops}


def _loop(ops: List[Op], seconds: float, body, min_cycles: int) -> int:
    """Call ``body(op, cycle)`` over ``ops`` cycle after cycle until ``seconds`` have
    passed and at least ``min_cycles`` cycles ran; returns the cycle count."""
    deadline = time.perf_counter() + seconds
    cycles = 0
    while cycles < min_cycles or time.perf_counter() < deadline:
        for op in ops:
            body(op, cycles)
        cycles += 1
    return cycles


def _check(state: Dict, results: List[tuple], failures: List[str]) -> Dict:
    """Output checks on the first cycle's (op, result); returns quality counts."""
    cx_added = depth_out = skipped = 0
    logical_cx: Dict[str, int] = {}
    for index, (op, result) in enumerate(results):
        if op.case not in logical_cx:
            logical_cx[op.case] = optimize_logical(op.circuit).cx_count()
        cx_added += result.cx_count - logical_cx[op.case]
        depth_out += result.depth
        bad = coupling_violations(result.circuit, coupling_edges(op.target.coupling_map))
        if bad:
            failures.append(f"{op.key}: {bad} two-qubit gates off the coupling map")
        if op.circuit.num_qubits <= MAX_CHECKED_QUBITS:
            verdict = equivalent_up_to_layout(op.circuit, result, seed=state["seed"] + index)
            if verdict is None:
                skipped += 1
            elif not verdict:
                failures.append(f"{op.key}: routed output not equivalent to the input")
    return {"cx_added": cx_added, "depth_out": depth_out, "equivalence_skipped": skipped}


def measure(state: Dict, seconds: float) -> Dict:
    ops = state["ops"]
    times: Dict[str, List[float]] = {op.key: [] for op in ops}
    results: List[tuple] = []
    failures: List[str] = []
    host = HostScale()

    def body(op: Op, cycle: int) -> None:
        start = time.perf_counter()
        try:
            result = transpile(op.circuit, op.target, op.options)
        except Exception as exc:  # counted as a failed op; the run goes on
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            host.sample()
            return
        times[op.key].append(host.scale(time.perf_counter() - start))
        if cycle == 0:
            results.append((op, result))

    cycles = _loop(ops, seconds, body, MIN_CYCLES)
    peak_rss = own_peak_rss_mb()
    quality = _check(state, results, failures)
    typical = {key: percentile(values, 0.5) for key, values in times.items() if values}
    per_op = list(typical.values())
    busy = sum(per_op)
    gates = sum(len(op.circuit.data) for op in ops if op.key in typical)
    return {
        "attempted": cycles * len(ops),
        "failed": len(failures),
        "correct": not failures,
        "failures": failures,
        "notes": {"cycles": cycles, "host_slowdown": round(host.slowdown(), 3), **quality,
                  "op_s": {key: round(value, 4) for key, value in typical.items()}},
        "metrics": {
            "compile_s_p50": percentile(per_op, 0.5),
            "compile_s_p90": percentile(per_op, 0.9),
            "job_s_p50": percentile(per_op, 0.5),
            "job_s_p90": percentile(per_op, 0.9),
            "first_chunk_s": percentile(per_op, 0.5),
            "jobs_per_s": ratio(len(per_op), busy),
            "gates_per_s": ratio(gates, busy),
            "cx_added": quality["cx_added"],
            "depth_out": quality["depth_out"],
            "peak_rss_mb": peak_rss,
        },
    }


def trace(state: Dict, seconds: float) -> Dict:
    ops = state["ops"]
    staged = StagedCompile()
    estimator = EstimatorTimer()
    counters = CounterDeltas()
    untraced: Dict[str, List[float]] = {op.key: [] for op in ops}
    traced: Dict[str, List[float]] = {op.key: [] for op in ops}
    parse_s = 0.0
    failures: List[str] = []
    host = HostScale()

    def body(op: Op, cycle: int) -> None:
        nonlocal parse_s
        start = time.perf_counter()
        circuit = qasm.loads(op.qasm_text)
        parse_s += time.perf_counter() - start
        try:
            host.sample()
            start = time.perf_counter()
            reference = transpile(circuit, op.target, op.options)
            elapsed = host.scale(time.perf_counter() - start)
            with counters.counting(), estimator.active():
                start = time.perf_counter()
                out = staged.run(circuit, op.target, op.options)
                traced_seconds = host.scale(time.perf_counter() - start)
        except Exception as exc:  # counted as a failed op; the run goes on
            failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return
        if cycle:
            # In the first cycle the untraced compile, which runs first in each pair,
            # fills the content caches that the traced one then finds.
            untraced[op.key].append(elapsed)
            traced[op.key].append(traced_seconds)
        if qasm.dumps(out) != qasm.dumps(reference.circuit):
            failures.append(f"{op.key}: staged output differs from transpile()")

    cycles = _loop(ops, seconds, body, 2)
    pairs = [
        percentile(untraced[nassc.key], 0.5) / percentile(untraced[sabre.key], 0.5)
        for sabre, nassc in zip(ops[::2], ops[1::2])
        if untraced[nassc.key] and untraced[sabre.key]
    ]
    metrics = {
        f"stage.{name}_s": seconds_ / cycles for name, seconds_ in staged.stage_s.items()
    }
    metrics["stage.coverage"] = min(staged.coverage, default=0.0)
    metrics.update({f"pass.{name}_s": s / cycles for name, s in staged.pass_s.items()})
    metrics.update(routing_counters(counters.totals, cycles))
    metrics.update(cache_hit_ratios(counters.totals))
    metrics.update(
        {
            "estimator.s": estimator.seconds / cycles,
            "post_routing.cx_removed": staged.cx_removed / cycles,
            "nassc.time_ratio_vs_sabre": geomean(pairs),
            "circuit.dag_build_s": staged.dag_build_s / cycles,
            "circuit.qasm_parse_s": parse_s / cycles,
            "trace_overhead": ratio(sum(percentile(v, 0.5) for v in traced.values() if v),
                                    sum(percentile(v, 0.5) for v in untraced.values() if v)),
        }
    )
    attempted = cycles * len(ops)
    return {
        "attempted": attempted,
        "failed": len(failures),
        "correct": not failures,
        "failures": failures,
        "notes": {"cycles": cycles, "coverage": [round(c, 4) for c in staged.coverage]},
        "metrics": metrics,
    }
