"""served-mix: one ``ReproServer`` process driven over HTTP by two closed-loop clients.

The server runs as ``python -m repro serve`` with its production defaults: a process
pool sized to the host's cores (at most 8) and an in-memory result cache.  This process
is the load generator: two client threads, each with its own ``ReproClient``, take the
next job of a seeded sequence as soon as their previous job's result is decoded.  The
jobs are small circuits (the Fig. 11 set plus grover_n4/adder_n10/qpe_n9/vqe_n8) x
{sabre, nassc} x {O1, O2, O3} on a calibrated montreal, a quarter of them with an ASAP
schedule.  40% of the positions repeat an earlier job, so they hit the result cache or
coalesce onto the in-flight twin (see :func:`_rounds`).  A run sends a number of
rounds set by ``seconds``.  The in-process reference compiles are scaled to the nominal
host speed (:class:`common.HostScale`); the HTTP times are not: a job's latency and the
throughput follow a single-thread speed sample much less than a compile does (over ten
seeds, scaling them by the run's median sample made jobs/s spread 0.22 where the raw
figures spread about 0.08).
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro import (
    ReproClient,
    Target,
    TranspileJob,
    TranspileOptions,
    TranspileResult,
    fake_montreal_calibration,
    montreal_coupling_map,
    optimize_logical,
    qasm,
    transpile,
)
from repro.benchlib import get_benchmark
from repro.exceptions import ReproError
from repro.server.metrics import iter_samples

from common import (
    CounterDeltas,
    EstimatorTimer,
    HostScale,
    StagedCompile,
    cache_hit_ratios,
    coupling_edges,
    coupling_violations,
    percentile,
    ratio,
    routing_counters,
)

ROOT = Path(__file__).resolve().parent.parent
CIRCUITS = (
    "bv_n5", "mod5mils_65", "decod24-v2_43", "mod5d2_64", "grover_n4",
    "adder_n10", "qpe_n9", "vqe_n8",
)
ROUTINGS = ("sabre", "nassc")
LEVELS = ("O1", "O2", "O3")
CLIENT_THREADS = 2
SCHEDULE_PROB = 0.25
#: Sizes the number of rounds in a run, at least two: a round, with its reference
#: compiles, takes about 9 s at the nominal host speed.  The count does not depend on
#: the host's speed, so every run of a seed sends the same jobs.  The latency
#: percentiles follow the seeded mix (routing seeds, schedules, repeats), and three
#: rounds at ``--seconds 12`` spread less over seeds than two.
SECONDS_PER_ROUND = 4
#: Routing seed of the warm-up jobs; timed jobs draw theirs below it.
WARM_SEED = 2**31 - 1
JOB_TIMEOUT_S = 120.0
SERVER_START_TIMEOUT_S = 60.0
SERVER_STOP_TIMEOUT_S = 30.0


# -- server process -------------------------------------------------------------

class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, in its own process group."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=str(ROOT), env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self.url = self._wait_for_banner()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_banner(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.1, deadline - time.monotonic()))
            except queue.Empty:
                line = None
            if line is None:
                self.stop()
                raise RuntimeError("the repro server did not start")
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]

    def peak_rss_mb(self) -> float:
        """Summed peak RSS (VmHWM) of the server and its pool workers, in MiB."""
        pids = [self.proc.pid]
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[1]) == self.proc.pid:
                pids.append(int(entry))
        total_kb = 0
        for pid in pids:
            try:
                with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kb += int(line.split()[1])
            except OSError:
                continue
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM (the server drains and exits), then make sure its group is gone."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=SERVER_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + SERVER_STOP_TIMEOUT_S
        while True:
            try:
                os.killpg(self.proc.pid, 0)
            except ProcessLookupError:
                break
            if time.monotonic() > deadline:
                os.killpg(self.proc.pid, signal.SIGKILL)
                deadline = time.monotonic() + SERVER_STOP_TIMEOUT_S
            time.sleep(0.05)
        self._reader.join(timeout=5)


def _scrape(client: ReproClient) -> Dict[str, float]:
    """Sum every sample of each metric family on the server's ``/metrics`` page."""
    out: Dict[str, float] = {}
    for sample, value in iter_samples(client.metrics_text()):
        name = sample.split("{", 1)[0]
        out[name] = out.get(name, 0.0) + value
    return out


# -- inputs -------------------------------------------------------------------

def _rounds(seed: int, target: Target, texts: Dict[str, str]):
    """The run's job sequence, one round at a time: lists of (job, key).

    A round issues one new job for every (circuit, routing, level) combination, in
    seeded random order and with a seeded routing seed and schedule, and after two of
    every three new jobs repeats an earlier job: in the first round one issued before
    it, later one of the previous round's jobs, each at most once.  So 40% of the
    positions repeat, and every round has the same mix of circuits whatever the seed.
    A job's key is its combination and whether it repeats.
    """
    rng = np.random.default_rng(seed)
    combos = [(c, r, lv) for c in CIRCUITS for r in ROUTINGS for lv in LEVELS]
    previous: List[tuple] = []
    while True:
        fresh: List[tuple] = []
        jobs: List[tuple] = []
        repeat_order = list(rng.permutation(len(previous)))
        for k, index in enumerate(rng.permutation(len(combos))):
            name, routing, level = combos[index]
            options = TranspileOptions(
                routing=routing, level=level, seed=int(rng.integers(0, WARM_SEED)),
                schedule="asap" if rng.random() < SCHEDULE_PROB else None,
            )
            job = TranspileJob.from_spec(texts[name], target, options, name=name)
            fresh.append((job, combos[index]))
            jobs.append((job, combos[index] + ("new",)))
            if k % 3 != 2:
                pool = previous if previous else fresh
                pick = repeat_order.pop() if previous else int(rng.integers(len(fresh)))
                job, combo = pool[pick]
                jobs.append((job, combo + ("repeat",)))
        previous = fresh
        yield jobs


def setup(seed: int, seconds: float) -> Dict:
    target = Target(coupling_map=montreal_coupling_map(), calibration=fake_montreal_calibration())
    texts = {name: qasm.dumps(get_benchmark(name)) for name in CIRCUITS}
    server = ServerProcess()
    try:
        # Warm-up: start every pool worker and fill its lazy caches with jobs outside
        # the timed sequence (their seed is never drawn for it).
        warm = [
            TranspileJob.from_spec(
                texts[name], target, TranspileOptions(routing="nassc", seed=WARM_SEED),
                name=name,
            )
            for name in CIRCUITS
        ]
        _drive(server.url, warm)
        # The same jobs warm this process, which compiles the references of the
        # output check after each round.
        for job in warm:
            reference_compile(job)
    except BaseException:
        server.stop()
        raise
    return {"rounds": _rounds(seed, target, texts), "server": server, "target": target}


def teardown(state: Dict) -> None:
    state["server"].stop()


# -- load generation ------------------------------------------------------------

@dataclass
class Completed:
    position: int
    latency: float
    result: TranspileResult
    #: (submit, wait, decode) seconds when the job went through :func:`_run_split`.
    split: Optional[tuple] = None


def _run_split(client: ReproClient, job: TranspileJob):
    """One job through the public client calls, each timed on its own."""
    start = time.perf_counter()
    remote = client.submit_job(job)
    submitted = time.perf_counter()
    status = client.job(remote.id)
    while status["state"] in ("queued", "running"):
        status = client.job(remote.id, wait=30.0)
    waited = time.perf_counter()
    if status["state"] != "done":
        raise ReproError(f"job {remote.id} ended {status['state']}: {status.get('error')}")
    result = TranspileResult.from_dict(status["result"])
    decoded = time.perf_counter()
    return result, (submitted - start, waited - submitted, decoded - waited)


def _drive(url: str, jobs: List[TranspileJob], traced: bool = False):
    """Closed loop of ``CLIENT_THREADS`` clients over ``jobs``; returns (done, failures).

    With ``traced``, every other position goes through :func:`_run_split`.
    """
    lock = threading.Lock()
    position = 0
    done: List[Completed] = []
    failures: List[str] = []

    def client_loop(index: int) -> None:
        nonlocal position
        client = ReproClient(url, timeout=JOB_TIMEOUT_S, client_id=f"bench-{index}")
        while True:
            with lock:
                if position >= len(jobs):
                    return
                mine = position
                position += 1
            job = jobs[mine]
            start = time.perf_counter()
            try:
                if traced and mine % 2 == 0:
                    result, split = _run_split(client, job)
                else:
                    result, split = client.submit_job(job).result(timeout=JOB_TIMEOUT_S), None
            except ReproError as exc:  # counted as a failed op; the run goes on
                with lock:
                    failures.append(f"position {mine} ({job.name}): {exc}")
                continue
            latency = time.perf_counter() - start
            with lock:
                done.append(Completed(mine, latency, result, split))

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CLIENT_THREADS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return done, failures


@dataclass
class Round:
    jobs: List[tuple]
    done: List[Completed]
    seconds: float


class Rounds:
    """Rounds of the job sequence through the server, each followed, with the server
    idle, by the output checks of its results against in-process compiles.

    ``compile_new(job)`` compiles a job issued for the first time in this process and
    returns its ``qasm.dumps`` text.
    """

    def __init__(self, state: Dict, compile_new) -> None:
        self.state = state
        self.compile_new = compile_new
        self.host = HostScale()
        self.rounds: List[Round] = []
        self.failures: List[str] = []
        self.attempted = 0
        self.expected: Dict[int, str] = {}
        self.edges = coupling_edges(state["target"].coupling_map)
        self.logical_cx: Dict[str, int] = {}
        self.cx_added = self.depth_out = 0

    def run(self, seconds: float, traced: bool) -> None:
        """``max(2, round(seconds / SECONDS_PER_ROUND))`` rounds."""
        for _ in range(max(2, round(seconds / SECONDS_PER_ROUND))):
            jobs = next(self.state["rounds"])
            start = time.perf_counter()
            done, failures = _drive(self.state["server"].url, [job for job, _ in jobs],
                                    traced=traced)
            self.rounds.append(Round(jobs, done, time.perf_counter() - start))
            self.failures.extend(failures)
            self.host.sample()
            self.attempted += len(jobs)
            self._check(self.rounds[-1])

    def _check(self, round_: Round) -> None:
        """Byte-compare every served result with an in-process compile of its job."""
        first_round = len(self.rounds) == 1
        for item in sorted(round_.done, key=lambda item: item.position):
            job, key = round_.jobs[item.position]
            if id(job) not in self.expected:
                self.expected[id(job)] = self.compile_new(job)
                bad = coupling_violations(item.result.circuit, self.edges)
                if bad:
                    self.failures.append(f"{job.name}: {bad} two-qubit gates off the map")
                if first_round and key[-1] == "new":
                    if job.name not in self.logical_cx:
                        circuit = job.build_circuit()
                        self.logical_cx[job.name] = optimize_logical(circuit).cx_count()
                    self.cx_added += item.result.cx_count - self.logical_cx[job.name]
                    self.depth_out += item.result.depth
            if qasm.dumps(item.result.circuit) != self.expected[id(job)]:
                self.failures.append(f"{job.name} ({'/'.join(key)}): served output "
                                     "differs from an in-process transpile()")

    def latencies(self) -> List[float]:
        """Latencies of every job but the first round's repeats, which often wait on an
        in-flight twin; every other repeat is a cache hit."""
        return [
            item.latency
            for index, round_ in enumerate(self.rounds)
            for item in round_.done
            if index or round_.jobs[item.position][1][-1] == "new"
        ]

    def source_gates(self) -> int:
        counts: Dict[int, int] = {}
        total = 0
        for round_ in self.rounds:
            for item in round_.done:
                job = round_.jobs[item.position][0]
                if id(job) not in counts:
                    counts[id(job)] = len(job.build_circuit().data)
                total += counts[id(job)]
        return total


def reference_compile(job: TranspileJob):
    """``transpile()`` of one job in this process: (``qasm.dumps`` text, seconds)."""
    circuit, target, options = job.build_circuit(), job.target(), job.options()
    start = time.perf_counter()
    out = transpile(circuit, target, options).circuit
    return qasm.dumps(out), time.perf_counter() - start


def measure(state: Dict, seconds: float) -> Dict:
    compile_times: List[float] = []

    def compile_new(job: TranspileJob) -> str:
        # The server is idle by now; this process was warmed in set-up.
        text, seconds_ = reference_compile(job)
        compile_times.append(rounds.host.scale(seconds_))
        return text

    rounds = Rounds(state, compile_new)
    rounds.run(seconds, traced=False)
    peak_rss = state["server"].peak_rss_mb()
    latencies = rounds.latencies()
    busy = sum(round_.seconds for round_ in rounds.rounds)
    failures = rounds.failures
    return {
        "attempted": rounds.attempted,
        "failed": len(failures),
        "correct": not failures,
        "failures": failures,
        "notes": {"rounds": len(rounds.rounds),
                  "host_slowdown": round(rounds.host.slowdown(), 3),
                  "round_s": [round(r.seconds, 3) for r in rounds.rounds],
                  "cx_added": rounds.cx_added, "depth_out": rounds.depth_out},
        "metrics": {
            "compile_s_p50": percentile(compile_times, 0.5),
            "compile_s_p90": percentile(compile_times, 0.9),
            "job_s_p50": percentile(latencies, 0.5),
            "job_s_p90": percentile(latencies, 0.9),
            "first_chunk_s": percentile(latencies, 0.5),
            "jobs_per_s": sum(len(r.done) for r in rounds.rounds) / busy,
            "gates_per_s": rounds.source_gates() / busy,
            "cx_added": rounds.cx_added,
            "depth_out": rounds.depth_out,
            "peak_rss_mb": peak_rss,
        },
    }


def trace(state: Dict, seconds: float) -> Dict:
    probe = ReproClient(state["server"].url, timeout=JOB_TIMEOUT_S)
    staged = StagedCompile()
    estimator = EstimatorTimer()
    counters = CounterDeltas()
    parse_s = 0.0

    def compile_new(job: TranspileJob) -> str:
        nonlocal parse_s
        start = time.perf_counter()
        circuit = job.build_circuit()
        parse_s += time.perf_counter() - start
        with counters.counting(), estimator.active():
            out = staged.run(circuit, job.target(), job.options())
        return qasm.dumps(out)

    before = _scrape(probe)
    rounds = Rounds(state, compile_new)
    rounds.run(seconds, traced=True)
    after = _scrape(probe)

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    done = [item for round_ in rounds.rounds for item in round_.done]
    split = [item.split for item in done if item.split is not None]
    traced = [item.latency for item in done if item.split is not None]
    untraced = [item.latency for item in done if item.split is None]
    per = max(1, len(rounds.expected))
    metrics = {f"stage.{name}_s": s / per for name, s in staged.stage_s.items()}
    metrics["stage.coverage"] = min(staged.coverage, default=0.0)
    metrics.update({f"pass.{name}_s": s / per for name, s in staged.pass_s.items()})
    metrics.update(routing_counters(counters.totals, per))
    metrics.update(cache_hit_ratios(counters.totals))
    hits, misses = delta("repro_cache_hits"), delta("repro_cache_misses")
    metrics.update(
        {
            "estimator.s": estimator.seconds / per,
            "post_routing.cx_removed": staged.cx_removed / per,
            "circuit.dag_build_s": staged.dag_build_s / per,
            "circuit.qasm_parse_s": parse_s / per,
            "client.submit_s": sum(s[0] for s in split) / max(1, len(split)),
            "client.wait_s": sum(s[1] for s in split) / max(1, len(split)),
            "client.decode_s": sum(s[2] for s in split) / max(1, len(split)),
            "server.queue_wait_s": ratio(delta("repro_job_queue_wait_seconds_sum"),
                                         delta("repro_job_queue_wait_seconds_count")),
            "server.run_s": ratio(delta("repro_job_run_seconds_sum"),
                                  delta("repro_job_run_seconds_count")),
            "cache.result.hit_ratio": ratio(hits, hits + misses),
            "server.deduplicated": delta("repro_jobs_deduplicated_total"),
            "server.rejected": delta("repro_jobs_rejected_total"),
            "trace_overhead": ratio(sum(traced) / max(1, len(traced)),
                                    sum(untraced) / max(1, len(untraced))),
        }
    )
    failures = rounds.failures
    return {
        "attempted": rounds.attempted,
        "failed": len(failures),
        "correct": not failures,
        "failures": failures,
        "notes": {"rounds": len(rounds.rounds), "distinct": len(rounds.expected)},
        "metrics": metrics,
    }
