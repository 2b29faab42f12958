"""Benchmark entry point: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-tables --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics listed in ``BENCHMARK.json``; ``--trace 1``
runs the traced variant of the same workload and reports the per-layer metrics.  The
last line of standard output is the result object; a human-readable summary and any
check failures go to standard error.  The exit code is non-zero when an output check
fails (the recorded known defect of stream-long excepted, see ``perfbench/NOTES.md``)
or when the repository cannot be imported.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = {
    "paper-tables": "paper_tables",
    "served-mix": "served_mix",
    "stream-long": "stream_long",
}
#: Set-up is sampled this many times per run (this process plus fresh probes), and
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the set-up time and exit")
    return parser.parse_args(argv)


def _load_spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _import_workload(name):
    # The checkout's own sources, never an installed copy of the package.
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise ImportError(f"no repro package under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import importlib

    return importlib.import_module(WORKLOADS[name])


def _setup_probes(args, count: int):
    """Set-up times of ``count`` fresh processes, one after the other, that each run
    this workload's set-up only."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only",
    ]
    samples = []
    for _ in range(count):
        proc = subprocess.Popen(command, cwd=str(ROOT), stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True)
        try:
            out, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            # SIGTERM first: a probe stops the server it started before it exits.
            if proc.poll() is None:
                proc.terminate()
                try:
                    proc.wait(timeout=PROBE_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        samples.append(float(json.loads(out.strip().splitlines()[-1])["setup_s"]))
    return samples


def _result_metrics(spec_metrics, values, correct: bool):
    """The result's metrics; a run whose checks failed leaves out what it could not
    measure (e.g. every op failed) instead of stopping before its result."""
    out = {}
    for entry in spec_metrics:
        value = float(values[entry["name"]])
        if not math.isfinite(value):
            if not correct:
                continue
            raise ValueError(f"metric {entry['name']} is not finite: {value}")
        out[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return out


def main(argv=None) -> int:
    # On SIGTERM, unwind so that the workload's teardown stops what it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = _parse_args(argv)
    try:
        spec = _load_spec()
        workload = _import_workload(args.workload)
    except (OSError, ImportError, ValueError) as exc:
        print(f"error: cannot load the benchmark or the repository: {exc}", file=sys.stderr)
        return 2

    from common import HostScale

    # Set-up time is scaled to the nominal host speed like every other time, by host
    # speed samples taken before and after the workload's set-up.
    host = HostScale()
    state = workload.setup(args.seed, args.seconds)
    try:
        setup_s = host.scale(time.perf_counter() - _PROCESS_START)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        run = workload.trace if args.trace else workload.measure
        outcome = run(state, args.seconds)
    finally:
        teardown = getattr(workload, "teardown", None)
        if teardown is not None:
            teardown(state)

    values = dict(outcome["metrics"])
    if args.trace:
        names = spec["per_layer"]
        values["failed_frac"] = outcome["failed"] / outcome["attempted"]
        # Layers a workload does not exercise did no work on it.
        for entry in names:
            values.setdefault(entry["name"], 0.0)
    else:
        names = spec["end_to_end"]
        samples = [setup_s] + _setup_probes(args, SETUP_SAMPLES - 1)
        values["setup_s"] = statistics.median(samples)
        outcome["notes"]["setup_samples"] = samples

    for failure in outcome["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **outcome["notes"]}),
          file=sys.stderr)
    result = {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": _result_metrics(names, values, bool(outcome["correct"])),
    }
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    sys.stdout.flush()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
