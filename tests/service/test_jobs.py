"""Tests for TranspileJob specs: fingerprints, serialization, and execution."""

import json
import os
import subprocess
import sys

import pytest

from repro import QuantumCircuit, Target, TranspileOptions, linear_coupling_map
from repro.core.nassc import NASSCConfig
from repro.core.pipeline import TranspileResult, transpile
from repro.exceptions import TranspilerError
from repro.hardware.calibration import fake_montreal_calibration
from repro.hardware.topologies import montreal_coupling_map
from repro.service.jobs import JobError, TranspileJob


def small_circuit(name: str = "small") -> QuantumCircuit:
    circuit = QuantumCircuit(4, name=name)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.cx(0, 3)
    circuit.crx(0.3, 1, 3)
    return circuit


class TestFingerprint:
    def test_deterministic_for_identical_content(self):
        coupling = linear_coupling_map(5)
        job_a = TranspileJob.from_circuit(small_circuit(), coupling, routing="sabre", seed=0)
        job_b = TranspileJob.from_circuit(small_circuit(), coupling, routing="sabre", seed=0)
        assert job_a.fingerprint() == job_b.fingerprint()

    def test_name_does_not_enter_fingerprint(self):
        coupling = linear_coupling_map(5)
        job_a = TranspileJob.from_circuit(small_circuit("a"), coupling, seed=0, name="first")
        job_b = TranspileJob.from_circuit(small_circuit("b"), coupling, seed=0, name="second")
        assert job_a.fingerprint() == job_b.fingerprint()

    @pytest.mark.parametrize(
        "change",
        [
            {"routing": "nassc"},
            {"seed": 1},
            {"best_of": 4},
            {"nassc_config": NASSCConfig(True, False, True)},
            {"noise_aware": True, "calibration": "montreal"},
        ],
    )
    def test_content_changes_change_fingerprint(self, change):
        coupling = montreal_coupling_map()
        base = TranspileJob.from_circuit(small_circuit(), coupling, routing="sabre", seed=0)
        kwargs = dict(routing="sabre", seed=0)
        if change.get("calibration") == "montreal":
            change = dict(change, calibration=fake_montreal_calibration())
        kwargs.update(change)
        other = TranspileJob.from_circuit(small_circuit(), coupling, **kwargs)
        assert base.fingerprint() != other.fingerprint()

    def test_circuit_changes_change_fingerprint(self):
        coupling = linear_coupling_map(5)
        base = TranspileJob.from_circuit(small_circuit(), coupling, seed=0)
        circuit = small_circuit()
        circuit.x(2)
        other = TranspileJob.from_circuit(circuit, coupling, seed=0)
        assert base.fingerprint() != other.fingerprint()

    def test_pipeline_version_enters_fingerprint(self):
        """A pipeline refactor (version bump) must never serve pre-refactor cache entries."""
        import repro.service.jobs as jobs_module

        coupling = linear_coupling_map(5)
        job = TranspileJob.from_circuit(small_circuit(), coupling, seed=0)
        assert job.content_dict()["pipeline_version"] == jobs_module.PIPELINE_VERSION
        before = job.fingerprint()
        original = jobs_module.PIPELINE_VERSION
        jobs_module.PIPELINE_VERSION = original + 1
        try:
            assert job.fingerprint() != before
        finally:
            jobs_module.PIPELINE_VERSION = original
        assert job.fingerprint() == before

    def test_pipeline_version_bump_misses_result_cache(self):
        """End to end: a cached result is not served once the pipeline version changes."""
        import repro.service.jobs as jobs_module
        from repro.service.cache import ResultCache

        coupling = linear_coupling_map(5)
        job = TranspileJob.from_circuit(small_circuit(), coupling, routing="none", seed=0)
        cache = ResultCache()
        cache.put(job.fingerprint(), job.run().to_dict())
        assert cache.get(job.fingerprint()) is not None
        original = jobs_module.PIPELINE_VERSION
        jobs_module.PIPELINE_VERSION = original + 1
        try:
            assert cache.get(job.fingerprint()) is None
        finally:
            jobs_module.PIPELINE_VERSION = original

    def test_stable_across_processes(self):
        """The fingerprint is a pure content hash: a fresh interpreter computes the same."""
        coupling = linear_coupling_map(5)
        job = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="nassc", seed=3,
            nassc_config=NASSCConfig(True, True, False),
        )
        script = (
            "import json, sys\n"
            "from repro.service.jobs import TranspileJob\n"
            "job = TranspileJob.from_dict(json.load(sys.stdin))\n"
            "print(job.fingerprint())\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "12345"  # prove independence from hash randomisation
        proc = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(job.to_dict()),
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.strip() == job.fingerprint()


class TestTargetOptionsFingerprint:
    """The Target/TranspileOptions canonical dicts are the fingerprint input (v3 schema)."""

    def test_target_options_equivalent_to_legacy_kwargs(self):
        """A job built from a Target+options fingerprints like the flat legacy build."""
        coupling = linear_coupling_map(5)
        via_target = TranspileJob.from_circuit(
            small_circuit(), Target(coupling_map=coupling),
            TranspileOptions(routing="nassc", seed=3),
        )
        via_kwargs = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="nassc", seed=3
        )
        assert via_target.fingerprint() == via_kwargs.fingerprint()

    def test_content_dict_nests_target_and_options(self):
        job = TranspileJob.from_circuit(small_circuit(), linear_coupling_map(5), seed=0)
        content = job.content_dict()
        assert content["target"] == job.target().content_dict()
        assert content["options"] == job.options().content_dict()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("level", "O2"),
            ("final_basis", "u"),
            ("extended_set_size", 10),
            ("extended_set_weight", 0.75),
            ("layout_iterations", 3),
        ],
    )
    def test_option_and_target_field_changes_change_fingerprint(self, field, value):
        coupling = linear_coupling_map(5)
        base = TranspileJob.from_circuit(small_circuit(), coupling, seed=0)
        import dataclasses

        changed = dataclasses.replace(base, **{field: value})
        assert base.fingerprint() != changed.fingerprint()

    def test_adding_calibration_to_target_changes_fingerprint(self):
        coupling = montreal_coupling_map()
        plain = TranspileJob.from_circuit(small_circuit(), Target(coupling_map=coupling))
        calibrated = TranspileJob.from_circuit(
            small_circuit(),
            Target(coupling_map=coupling, calibration=fake_montreal_calibration()),
        )
        assert plain.fingerprint() != calibrated.fingerprint()

    def test_changed_options_miss_result_cache(self):
        """End to end: an O1 cache entry is not served to an O2 job (and vice versa)."""
        from repro.service.cache import ResultCache

        coupling = linear_coupling_map(5)
        o1 = TranspileJob.from_circuit(small_circuit(), coupling, routing="none", seed=0)
        o2 = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="none", seed=0, level="O2"
        )
        cache = ResultCache()
        cache.put(o1.fingerprint(), o1.run().to_dict())
        assert cache.get(o1.fingerprint()) is not None
        assert cache.get(o2.fingerprint()) is None

    def test_legacy_coupling_map_keyword_still_accepted(self):
        coupling = linear_coupling_map(5)
        by_keyword = TranspileJob.from_circuit(
            small_circuit(), coupling_map=coupling, routing="sabre", seed=0
        )
        positional = TranspileJob.from_circuit(small_circuit(), coupling, routing="sabre", seed=0)
        assert by_keyword.fingerprint() == positional.fingerprint()
        with pytest.raises(TypeError, match="not both"):
            TranspileJob.from_circuit(
                small_circuit(), Target(coupling_map=coupling), coupling_map=coupling
            )

    def test_final_basis_kwarg_with_target_rejected(self):
        with pytest.raises(TypeError, match="on the Target"):
            TranspileJob.from_circuit(
                small_circuit(), Target(coupling_map=linear_coupling_map(5)), final_basis="u"
            )

    def test_unregistered_routing_rejected_at_construction(self):
        with pytest.raises(TranspilerError, match="unknown routing method"):
            TranspileJob(qasm="OPENQASM 2.0;", routing="not_registered")

    def test_level_normalised_at_construction(self):
        job = TranspileJob(qasm="OPENQASM 2.0;", routing="none", level=2)
        assert job.level == "O2"

    def test_job_run_honours_level(self):
        coupling = linear_coupling_map(5)
        o0 = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="sabre", seed=0, level="O0"
        ).run()
        o1 = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="sabre", seed=0, level="O1"
        ).run()
        assert o0.level == "O0" and o1.level == "O1"
        assert o0.cx_count >= o1.cx_count


class TestSerialization:
    def test_job_round_trip(self):
        coupling = montreal_coupling_map()
        job = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="nassc", seed=7,
            nassc_config=NASSCConfig(False, True, True),
            calibration=fake_montreal_calibration(), noise_aware=True, name="rt",
        )
        clone = TranspileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.fingerprint() == job.fingerprint()

    def test_best_of_round_trips(self):
        coupling = linear_coupling_map(5)
        job = TranspileJob.from_circuit(
            small_circuit(), coupling, routing="sabre", seed=0, best_of=4
        )
        clone = TranspileJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone == job
        assert clone.best_of == 4
        assert clone.options().effective_best_of == 4
        assert clone.fingerprint() == job.fingerprint()

    def test_pre_target_flat_dict_still_loads(self):
        """Job specs saved before the Target redesign (no ``level`` key) still load."""
        coupling = linear_coupling_map(5)
        legacy = TranspileJob.from_circuit(small_circuit(), coupling, routing="sabre", seed=1)
        data = legacy.to_dict()
        del data["level"]
        clone = TranspileJob.from_dict(data)
        assert clone.level == "O1"
        assert clone.fingerprint() == legacy.fingerprint()

    def test_target_built_from_job_round_trips(self):
        target = Target(
            coupling_map=montreal_coupling_map(), calibration=fake_montreal_calibration(),
            final_basis="u",
        )
        job = TranspileJob.from_circuit(small_circuit(), target, noise_aware=True)
        assert job.target() == target

    def test_job_error_round_trip(self):
        error = JobError("f" * 64, "job", "ValueError", "boom", "trace")
        clone = JobError.from_dict(error.to_dict())
        assert clone == error
        assert "boom" in str(clone)


class TestExecution:
    def test_run_matches_direct_transpile(self):
        coupling = linear_coupling_map(5)
        circuit = small_circuit()
        direct = transpile(circuit, Target(coupling), routing="nassc", seed=0)
        via_job = TranspileJob.from_circuit(circuit, coupling, routing="nassc", seed=0).run()
        assert via_job.cx_count == direct.cx_count
        assert via_job.depth == direct.depth
        assert via_job.num_swaps == direct.num_swaps
        assert via_job.final_layout == direct.final_layout

    def test_routing_none_needs_no_coupling_map(self):
        result = TranspileJob.from_circuit(small_circuit(), None, routing="none").run()
        assert result.routing == "none"
        assert result.coupling_map is None


class TestTranspileResultRoundTrip:
    def test_to_dict_from_dict(self):
        coupling = linear_coupling_map(5)
        result = transpile(small_circuit(), Target(coupling), routing="nassc", seed=1)
        clone = TranspileResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.cx_count == result.cx_count
        assert clone.depth == result.depth
        assert clone.num_swaps == result.num_swaps
        assert clone.routing == result.routing
        assert clone.initial_layout == result.initial_layout
        assert clone.final_layout == result.final_layout
        assert clone.coupling_map.edges == result.coupling_map.edges
        assert clone.count_ops() == result.count_ops()
        assert clone.transpile_time == pytest.approx(result.transpile_time)

    def test_metrics_embedded_in_payload(self):
        coupling = linear_coupling_map(5)
        result = transpile(small_circuit(), Target(coupling), routing="sabre", seed=0)
        payload = result.to_dict()
        assert payload["metrics"]["cx_count"] == result.cx_count
        assert payload["metrics"]["depth"] == result.depth
