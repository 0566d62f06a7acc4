"""Spec construction, named RQS resolution and registry error cases."""

import dataclasses
import gc
import weakref
from collections import Counter

import pytest

from repro.core import rqs as rqs_module
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import PropertyViolation, ScenarioError, UnknownProtocolError
from repro.experiments import stress
from repro.scenarios import spec as spec_module
from repro.scenarios import (
    FaultPlan,
    RandomMix,
    ScenarioSpec,
    Write,
    available_protocols,
    get_protocol,
    named_rqs,
    resolve_rqs,
    run,
    run_grid,
)
from tests.counting import counted


class TestScenarioSpec:
    def test_spec_is_frozen(self):
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6")
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.protocol = "abd"

    def test_workload_normalized_to_tuple(self):
        spec = ScenarioSpec(protocol="abd", workload=[Write(0.0, "v")])
        assert isinstance(spec.workload, tuple)

    def test_params_are_read_only(self):
        spec = ScenarioSpec(protocol="abd", params={"n": 7})
        assert spec.param("n") == 7
        assert spec.param("missing", 3) == 3
        with pytest.raises(TypeError):
            spec.params["n"] = 9

    def test_with_replaces_fields(self):
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6")
        other = spec.with_(protocol="abd", rqs=None)
        assert other.protocol == "abd" and spec.protocol == "rqs-storage"

    @pytest.mark.parametrize("n_keys", (0, -3))
    def test_n_keys_validated_at_construction(self, n_keys):
        with pytest.raises(ScenarioError, match="n_keys must be >= 1"):
            ScenarioSpec(protocol="abd", n_keys=n_keys)

    def test_n_writers_validated_at_construction(self):
        with pytest.raises(ScenarioError, match="n_writers must be >= 1"):
            ScenarioSpec(protocol="abd", n_writers=0)

    @pytest.mark.parametrize("skew", (-0.1, -2.0))
    def test_random_mix_skew_validated_at_construction(self, skew):
        with pytest.raises(ScenarioError, match="skew must be >= 0"):
            RandomMix(2, 3, horizon=10.0, distribution="zipfian",
                      skew=skew)

    def test_random_mix_zero_skew_is_valid(self):
        mix = RandomMix(2, 3, horizon=10.0, distribution="zipfian",
                        skew=0.0)
        assert mix.skew == 0.0


class TestNamedRqs:
    def test_known_names_resolve(self):
        for name in named_rqs():
            assert isinstance(resolve_rqs(name), RefinedQuorumSystem)

    def test_instance_and_none_pass_through(self):
        rqs = resolve_rqs("example6")
        assert resolve_rqs(rqs) is rqs
        assert resolve_rqs(None) is None

    def test_a_name_is_built_and_validated_once_per_process(self):
        for name in named_rqs():
            assert resolve_rqs(name) is resolve_rqs(name)
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6")
        assert spec.resolved_rqs() is resolve_rqs("example6")

    def test_the_unvalidated_name_still_reports_its_violation(self):
        for _ in range(2):
            rqs = resolve_rqs("example6-broken-p3")
            assert not rqs.is_valid()
            assert [name for name, _ in rqs.violations()] == ["P3"]

    def test_threshold_construction_string(self):
        rqs = resolve_rqs("threshold:8,3,1,1,2")
        assert len(rqs.ground_set) == 8 and rqs.is_valid()

    def test_novalidate_suffix(self):
        rqs = resolve_rqs("threshold:8,3,1,1,3,novalidate")
        assert not rqs.is_valid()

    def test_majority_and_byzantine_and_pbft(self):
        assert len(resolve_rqs("majority:5").ground_set) == 5
        assert len(resolve_rqs("byzantine:7").ground_set) == 7
        assert len(resolve_rqs("pbft:1").ground_set) == 4

    def test_unknown_name_raises(self):
        with pytest.raises(ScenarioError, match="unknown RQS name"):
            resolve_rqs("no-such-system")

    def test_bad_construction_string_raises(self):
        with pytest.raises(ScenarioError):
            resolve_rqs("threshold:8,oops")

    def test_an_unknown_name_raises_where_the_spec_is_built(self):
        with pytest.raises(ScenarioError, match="unknown RQS name"):
            ScenarioSpec(protocol="rqs-storage", rqs="no-such-system")
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6")
        with pytest.raises(ScenarioError, match="unknown RQS name"):
            spec.with_(rqs="no-such-system")


def distinct_literals(count):
    """``count`` distinct construction strings, each the small valid
    ``threshold:4,1,0,0,0`` (an empty argument is skipped)."""
    return [f"threshold:4,1,0,0,0{',' * extra}" for extra in range(count)]


class TestSharedConstructions:
    """A construction string resolves to one shared system while it is
    among the last eight built; registered names are kept for good."""

    def test_one_string_is_one_instance_while_cached(self):
        spec_module._construct.cache_clear()
        for text in ("threshold:8,3,1,1,2", "threshold:8,3,1,1,3,novalidate",
                     "majority:5", "byzantine:7", "pbft:1"):
            rqs = resolve_rqs(text)
            assert resolve_rqs(text) is rqs
            assert ScenarioSpec("rqs-storage", rqs=text).resolved_rqs() is rqs

    def test_a_thousand_literals_leave_at_most_eight_cached(self):
        first = weakref.ref(resolve_rqs("threshold: 4,1,0,0,0"))
        for text in distinct_literals(1000):
            resolve_rqs(text)
        info = spec_module._construct.cache_info()
        assert info.maxsize == 8 and info.currsize <= 8
        gc.collect()
        assert first() is None
        assert set(spec_module._BUILT_RQS) <= set(named_rqs())

    def test_registered_names_are_never_evicted(self):
        named = {name: resolve_rqs(name) for name in named_rqs()}
        for text in distinct_literals(3 * 8):
            resolve_rqs(text)
        for name, rqs in named.items():
            assert resolve_rqs(name) is rqs

    def test_a_refused_string_is_not_kept(self):
        spec_module._construct.cache_clear()
        with pytest.raises(PropertyViolation):
            resolve_rqs("threshold:8,3,1,1,3")
        with pytest.raises(ScenarioError):
            resolve_rqs("majority:five")
        assert spec_module._construct.cache_info().currsize == 0

    def test_serial_and_multiprocessing_stress_grids_are_byte_identical(self):
        grid = stress.storage_stress_grid(range(5000, 5004))
        serial = run_grid(grid).to_json()
        assert serial == run_grid(
            grid, executor="multiprocessing", processes=2
        ).to_json()

    def test_the_stress_cells_build_validate_and_index_one_system(
        self, monkeypatch
    ):
        """E6's eight cells name one construction string: the first
        builds (and validates) the system and fills the index tables
        its reads ask for, the other seven find both done."""
        spec_module._construct.cache_clear()
        calls = Counter()
        monkeypatch.setattr(RefinedQuorumSystem, "__init__", counted(
            RefinedQuorumSystem, "__init__", calls
        ))
        monkeypatch.setattr(rqs_module, "_minimal_masks", counted(
            rqs_module, "_minimal_masks", calls
        ))
        seeds = range(5000, 5008)
        first = run_grid(stress.storage_stress_grid(seeds[:1]))
        assert calls["__init__"] == 1 and calls["_minimal_masks"] > 0
        calls.clear()
        rest = run_grid(stress.storage_stress_grid(seeds[1:]))
        assert calls == {}
        assert (first.verdict_counts(), rest.verdict_counts()) == (
            {"wait-free atomic": 1}, {"wait-free atomic": 7}
        )


class TestRegistry:
    def test_all_paper_protocols_registered(self):
        registered = available_protocols()
        for protocol in ("rqs-storage", "abd", "fastabd",
                         "rqs-consensus", "paxos", "pbft"):
            assert protocol in registered

    def test_unknown_protocol_raises_with_known_list(self):
        with pytest.raises(UnknownProtocolError, match="rqs-storage"):
            get_protocol("raft")

    def test_run_rejects_unknown_protocol(self):
        with pytest.raises(UnknownProtocolError):
            run(ScenarioSpec(protocol="raft"))

    def test_an_unknown_protocol_raises_where_the_spec_is_built(self):
        spec = ScenarioSpec(protocol="abd")
        with pytest.raises(UnknownProtocolError, match="raft"):
            ScenarioSpec(protocol="raft")
        with pytest.raises(UnknownProtocolError, match="raft"):
            spec.with_(protocol="raft")

    def test_storage_protocol_requires_rqs(self):
        with pytest.raises(ScenarioError, match="requires a quorum"):
            run(ScenarioSpec(protocol="rqs-storage"))

    def test_crash_target_must_exist(self):
        from repro.scenarios import Crash

        spec = ScenarioSpec(
            protocol="abd",
            faults=FaultPlan(crashes=(Crash("ghost", 0.0),)),
        )
        with pytest.raises(ScenarioError, match="ghost"):
            run(spec)
