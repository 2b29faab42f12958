"""stream-long: ``transpile_stream()`` over seeded random QASM streams on montreal.

Each stream is ``random_circuit_stream`` rendered to OpenQASM text and read back through
``loads_stream``, then routed with ``nassc`` at O0 (``layout_iterations=0``, the
default window).  A stream is half again as long as the routing window, so the window
slides.  Every stream of a run is new content: the estimator's process-wide CNOT-count
memo would make a repeated stream about twice as fast as a new one.  A run routes new
streams until ``seconds`` have passed (at least ``MIN_STREAMS``), each followed by
``FIRST_CHUNK_PROBES`` new streams routed only up to their first chunk.  The time
spent producing each chunk is scaled to the nominal host speed
(:class:`common.HostScale`).

``numpy.linalg.LinAlgError`` raised in ``weyl_coordinates`` via the NASSC estimator's
``estimate_c2q`` is a recorded known defect (see ``perfbench/NOTES.md``): a stream that
raises it counts as a failed op but does not fail the run's output checks.  Any other
exception, a ``LinAlgError`` from elsewhere included, fails them.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro import (
    Target,
    TranspileOptions,
    montreal_coupling_map,
    random_circuit_stream,
    transpile_stream,
)
from repro.circuit.qasm import header_lines, instruction_line, loads_stream

from common import (
    CounterDeltas,
    EstimatorTimer,
    HostScale,
    cache_hit_ratios,
    coupling_edges,
    own_peak_rss_mb,
    percentile,
    qasm_line_violations,
    ratio,
    routing_counters,
)

NUM_QUBITS = 20
STREAM_GATES = 6144
#: One stream takes 2.5-5 s on a 2-vCPU host.
MIN_STREAMS = 3
#: New streams routed only up to their first chunk after each full stream, so that the
#: first-chunk latency (0.2-0.3 s) has samples spread over the run.
FIRST_CHUNK_PROBES = 2
#: Functions the known defect's traceback passes through, outermost first.
KNOWN_DEFECT_FRAMES = ("estimate_c2q", "weyl_coordinates")


def is_known_defect(exc: BaseException) -> bool:
    """Whether ``exc`` is the recorded ``LinAlgError`` from ``weyl_coordinates`` called,
    directly or not, from ``OptimizationEstimator.estimate_c2q``."""
    if not isinstance(exc, np.linalg.LinAlgError):
        return False
    frames = [frame.name for frame in traceback.extract_tb(exc.__traceback__)]
    try:
        outer = frames.index(KNOWN_DEFECT_FRAMES[0])
        return KNOWN_DEFECT_FRAMES[1] in frames[outer + 1:]
    except ValueError:
        return False


@dataclass
class Stream:
    index: int
    seed: int
    text: str
    source_cx: int
    gates: int


def _render(index: int, seed: int) -> Stream:
    lines = header_lines(NUM_QUBITS)
    source_cx = 0
    for inst in random_circuit_stream(NUM_QUBITS, STREAM_GATES, seed=seed):
        source_cx += inst.name == "cx"
        lines.append(instruction_line(inst))
    return Stream(index, seed, "\n".join(lines) + "\n", source_cx, STREAM_GATES)


class Sink:
    """Receives routed chunks and checks their two-qubit gates against the map."""

    def __init__(self, edges: set) -> None:
        self.edges = edges
        self.violations = 0

    def write(self, chunk: str) -> None:
        self.violations += qasm_line_violations(chunk.splitlines(), self.edges)


def setup(seed: int, seconds: float) -> Dict:
    rng = np.random.default_rng(seed)
    target = Target(coupling_map=montreal_coupling_map())
    options = TranspileOptions(
        routing="nassc", level="O0", layout_iterations=0, seed=int(rng.integers(0, 2**31 - 1))
    )
    # Warm-up: a short stream through the same path fills the lazy caches that do not
    # depend on the stream's content.
    warm = "\n".join(
        header_lines(NUM_QUBITS)
        + [instruction_line(i) for i in random_circuit_stream(NUM_QUBITS, 1024, seed=seed)]
    ) + "\n"
    try:
        for _ in transpile_stream(loads_stream(warm), target, options):
            pass
    except np.linalg.LinAlgError as exc:
        if not is_known_defect(exc):
            raise
        print(f"known defect in the warm-up stream: LinAlgError: {exc}", file=sys.stderr)
    return {"target": target, "options": options, "rng": rng,
            "edges": coupling_edges(target.coupling_map)}


def _new_stream(state: Dict, index: int) -> Stream:
    return _render(index, int(state["rng"].integers(0, 2**31 - 1)))


def _timed_source(instructions, spent: List[float]):
    """Yield from ``instructions``, adding the time spent pulling each item to spent[0]."""
    while True:
        start = time.perf_counter()
        try:
            item = next(instructions)
        except StopIteration:
            spent[0] += time.perf_counter() - start
            return
        spent[0] += time.perf_counter() - start
        yield item


def _run_stream(state: Dict, stream: Stream, traced: bool, timings: Dict, host: HostScale):
    """Route one stream; returns (summary, seconds, first-chunk seconds, sink).

    Seconds are the time spent producing chunks, each interval scaled to the nominal
    host speed; the sink's checks between chunks are not counted.  Raw parse time and
    the raw time spent producing chunks are added to ``timings``; ``traced`` measures
    parse time by passing the reader's instruction iterator, wrapped, as the source."""
    sink = Sink(state["edges"])
    parse = [0.0]
    wall = raw = 0.0
    first = None
    host.sample()
    start = time.perf_counter()
    reader = loads_stream(stream.text)
    if traced:
        t0 = time.perf_counter()
        num_qubits, num_clbits = reader.num_qubits, reader.num_clbits
        parse[0] += time.perf_counter() - t0
        chunks = transpile_stream(
            _timed_source(iter(reader.instructions()), parse), state["target"],
            state["options"], num_qubits=num_qubits, num_clbits=num_clbits,
        )
    else:
        chunks = transpile_stream(reader, state["target"], state["options"])
    while True:
        try:
            chunk = next(chunks)
        except StopIteration as stop:
            chunk, summary = None, stop.value
        elapsed = time.perf_counter() - start
        raw += elapsed
        wall += host.scale(elapsed)
        if chunk is None:
            break
        if first is None:
            first = wall
        sink.write(chunk)
        host.sample()
        start = time.perf_counter()
    timings["chunk_s"] = timings.get("chunk_s", 0.0) + raw
    timings["parse_s"] = timings.get("parse_s", 0.0) + parse[0]
    return summary, wall, first, sink


def _first_chunk(state: Dict, stream: Stream, host: HostScale) -> float:
    """Seconds from the ``transpile_stream()`` call to its first routed chunk, scaled to
    the nominal host speed."""
    host.sample()
    start = time.perf_counter()
    chunks = transpile_stream(loads_stream(stream.text), state["target"], state["options"])
    try:
        next(chunks)
        return host.scale(time.perf_counter() - start)
    finally:
        chunks.close()


def _route_all(state: Dict, seconds: float, body) -> None:
    """``body(stream)`` over new streams until ``seconds`` have passed and at least
    ``MIN_STREAMS`` were routed (or twice as many tried); a failed stream does not
    count."""
    deadline = time.perf_counter() + seconds
    routed = index = 0
    while time.perf_counter() < deadline or (routed < MIN_STREAMS and index < 2 * MIN_STREAMS):
        routed += bool(body(_new_stream(state, index)))
        index += 1


class Outcomes:
    """Failure bookkeeping shared by the plain and the traced run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.known_defects = 0

    def run(self, label: str, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception as exc:  # counted as a failed op; the run goes on
            if is_known_defect(exc):
                self.known_defects += 1
                print(f"known defect in {label}: LinAlgError: {exc}", file=sys.stderr)
                return None
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
        return None

    @property
    def failed(self) -> int:
        return len(self.failures) + self.known_defects


def measure(state: Dict, seconds: float) -> Dict:
    outcomes = Outcomes()
    walls: List[float] = []
    firsts: List[float] = []
    cx_added = depth_out = 0
    timings: Dict = {}
    host = HostScale()

    def body(stream: Stream) -> bool:
        nonlocal cx_added, depth_out
        label = f"stream {stream.index} (seed {stream.seed})"
        out = outcomes.run(label, lambda: _run_stream(state, stream, False, timings, host))
        if out is None:
            return False
        summary, wall, first, sink = out
        walls.append(wall)
        firsts.append(first)
        if sink.violations:
            outcomes.failures.append(f"{label}: {sink.violations} gates off the coupling map")
        if summary["source_gates"] != stream.gates:
            outcomes.failures.append(f"{label}: {summary['source_gates']} source gates "
                                     f"admitted, {stream.gates} sent")
        if len(walls) <= MIN_STREAMS:
            # Quality counts over the first streams only, so they repeat for a seed.
            cx_added += summary["cx_count"] - stream.source_cx
            depth_out += summary["depth"]
        for _ in range(FIRST_CHUNK_PROBES):
            probe = _new_stream(state, -1)
            first = outcomes.run(f"first-chunk probe (seed {probe.seed})",
                                 lambda: _first_chunk(state, probe, host))
            if first is not None:
                firsts.append(first)
        return True

    _route_all(state, seconds, body)
    peak_rss = own_peak_rss_mb()
    busy = sum(walls)
    return {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "correct": not outcomes.failures,
        "failures": outcomes.failures,
        "notes": {"streams": len(walls), "known_defects": outcomes.known_defects,
                  "host_slowdown": round(host.slowdown(), 3),
                  "stream_s": [round(w, 3) for w in walls]},
        "metrics": {
            "compile_s_p50": percentile(walls, 0.5),
            "compile_s_p90": percentile(walls, 0.9),
            "job_s_p50": percentile(walls, 0.5),
            "job_s_p90": percentile(walls, 0.9),
            "first_chunk_s": percentile(firsts, 0.5),
            "jobs_per_s": ratio(len(walls), busy) if walls else math.nan,
            "gates_per_s": ratio(STREAM_GATES * len(walls), busy) if walls else math.nan,
            "cx_added": cx_added,
            "depth_out": depth_out,
            "peak_rss_mb": peak_rss,
        },
    }


def trace(state: Dict, seconds: float) -> Dict:
    """Route new streams traced, each after a new stream routed untraced for
    ``trace_overhead`` (a repeated stream would run with a warm estimator memo)."""
    outcomes = Outcomes()
    estimator = EstimatorTimer()
    counters = CounterDeltas()
    timings: Dict = {}
    host = HostScale()
    walls = {False: 0.0, True: 0.0}
    gates = {False: 0, True: 0}
    runs = {False: 0, True: 0}

    def body(stream: Stream, traced: bool) -> bool:
        label = f"stream {stream.index} (seed {stream.seed})"
        if traced:
            with counters.counting(), estimator.active():
                out = outcomes.run(
                    label, lambda: _run_stream(state, stream, True, timings, host))
        else:
            out = outcomes.run(label, lambda: _run_stream(state, stream, False, {}, host))
        if out is None:
            return False
        walls[traced] += out[1]
        gates[traced] += stream.gates
        runs[traced] += 1
        return True

    def paired(stream: Stream) -> bool:
        body(_new_stream(state, stream.index), False)
        return body(stream, True)

    _route_all(state, seconds, paired)
    traced_runs = max(1, runs[True])
    metrics = {
        "circuit.qasm_parse_s": timings.get("parse_s", 0.0) / traced_runs,
        "stream.route_s": (timings.get("chunk_s", 0.0)
                           - timings.get("parse_s", 0.0)) / traced_runs,
        "estimator.s": estimator.seconds / traced_runs,
        "trace_overhead": ratio(ratio(walls[True], gates[True]),
                                ratio(walls[False], gates[False])),
    }
    metrics.update(routing_counters(counters.totals, traced_runs))
    metrics.update(cache_hit_ratios(counters.totals))
    return {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "correct": not outcomes.failures,
        "failures": outcomes.failures,
        "notes": {"known_defects": outcomes.known_defects},
        "metrics": metrics,
    }
