"""Spec construction, named RQS resolution and registry error cases."""

import dataclasses
import gc
import weakref
from collections import Counter
from functools import partial

import pytest

from repro.core import rqs as rqs_module
from repro.core.constructions import (
    byzantine_quorum_system,
    majority_quorum_system,
    pbft_style_rqs,
)
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import PropertyViolation, ScenarioError, UnknownProtocolError
from repro.experiments import stress
from repro.storage.server import FabricatingServer, ForgetfulServer
from repro.consensus.acceptor import Acceptor
from repro.consensus.proposer import EquivocatingProposer
from repro.scenarios import spec as spec_module
from repro.scenarios import (
    ACCEPTOR,
    PROPOSER,
    ByzantineRole,
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
        spec = ScenarioSpec(protocol="rqs-storage", rqs="example6",
                            params={"bounded_history": True})
        assert spec.param("bounded_history") is True
        assert spec.param("capacity_model", 3) == 3
        with pytest.raises(TypeError):
            spec.params["bounded_history"] = False

    def test_delta_is_the_unit_not_a_field(self):
        # Every deployment runs its network at Δ = 1: time is counted
        # in message delays, as the paper states its bounds.
        with pytest.raises(TypeError, match="delta"):
            ScenarioSpec(protocol="abd", delta=2.0)
        result = run(ScenarioSpec(protocol="abd",
                                  workload=(Write(0.0, "v"),)))
        assert result.adapter.network.delta == 1.0

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


class TestParamsContract:
    """Each registry row names the ``params`` keys it reads; the spec
    refuses any other key, by name, where it is built."""

    @pytest.mark.parametrize("protocol, rqs, misspelled, accepted", (
        ("rqs-storage", "example6", "bounded_histroy", "bounded_history"),
        ("rqs-consensus", "example6", "sync_dealy", "sync_delay"),
    ))
    def test_a_misspelled_key_is_refused(self, protocol, rqs, misspelled,
                                         accepted):
        with pytest.raises(ScenarioError) as refused:
            ScenarioSpec(protocol, rqs=rqs, params={misspelled: True})
        message = str(refused.value)
        assert f"reads no params key {misspelled!r}" in message
        assert accepted in message

    def test_each_row_declares_the_keys_it_reads(self):
        shard_view = ("shard_index", "shard_count")
        rqs_storage = ("bounded_history", "capacity_model", *shard_view)
        expected = {
            "abd": shard_view, "fastabd": shard_view, "naive": shard_view,
            "rqs-storage": rqs_storage, "rqs-regular": rqs_storage,
            "rqs-consensus": ("sync_delay", "proposer_values"),
            "paxos": (), "pbft": (),
        }
        assert {
            protocol: get_protocol(protocol).param_keys
            for protocol in expected
        } == expected


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
            assert rqs.violated() == ("P3",)

    def test_threshold_construction_string(self):
        rqs = resolve_rqs("threshold:8,3,1,1,2")
        assert len(rqs.ground_set) == 8 and rqs.is_valid()

    def test_a_novalidate_suffix_is_refused(self):
        # An unvalidated system is an instance built with
        # threshold_rqs(..., validate=False), not a string.
        with pytest.raises(ScenarioError, match="threshold:n,t,k,q,r"):
            resolve_rqs("threshold:8,3,1,1,3,novalidate")

    def test_majority_and_byzantine_and_pbft(self):
        # The majority:n / byzantine:n / pbft:t strings are gone; the
        # PBFT-style system is the threshold string with k = r = t, q = 0.
        for text in ("majority:5", "byzantine:7", "pbft:1"):
            with pytest.raises(ScenarioError, match="unknown RQS name"):
                resolve_rqs(text)
        pbft, threshold = pbft_style_rqs(1), resolve_rqs("threshold:4,1,1,0,1")
        assert len(threshold.ground_set) == 4
        for cls in (1, 2, 3):
            assert (set(threshold.class_quorums(cls))
                    == set(pbft.class_quorums(cls)))
        assert (len(majority_quorum_system(5).ground_set),
                len(byzantine_quorum_system(7).ground_set)) == (5, 7)

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
    ``threshold:4,1,0,0,0`` (its last zero written with leading
    zeros)."""
    return [f"threshold:4,1,0,0,{'0' * (extra + 1)}" for extra in range(count)]


class TestSharedConstructions:
    """A construction string resolves to one shared system while it is
    among the last eight built; registered names are kept for good."""

    def test_one_string_is_one_instance_while_cached(self):
        spec_module._construct.cache_clear()
        for text in ("threshold:8,3,1,1,2", "threshold:7,2,2,0,2",
                     "threshold:4,1,1,0,1"):
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
            resolve_rqs("threshold:4,1,1,0,five")
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

    @pytest.mark.parametrize("protocol, rqs, role, could", (
        # Server 9 of a four-server system.
        ("rqs-storage", "threshold:4,1,1,0,1",
         ByzantineRole(9, partial(FabricatingServer, forged_ts=9,
                                  forged_value="EVIL")),
         "server 1, 2, 3, 4"),
        # An acceptor role on a storage deployment.
        ("rqs-storage", "example6",
         ByzantineRole(1, partial(FabricatingServer, forged_ts=9,
                                  forged_value="EVIL"), role=ACCEPTOR),
         "server 1, 2, 3, 4, 5, 6, 7, 8"),
        # Acceptor 9 of example6's eight, then proposer index 2 of two.
        ("rqs-consensus", "example6",
         ByzantineRole(9, Acceptor, role=ACCEPTOR),
         "acceptor 1, 2, 3, 4, 5, 6, 7, 8; proposer 0, 1"),
        ("rqs-consensus", "example6",
         ByzantineRole(2, EquivocatingProposer, role=PROPOSER),
         "acceptor 1, 2, 3, 4, 5, 6, 7, 8; proposer 0, 1"),
        ("abd", None, ByzantineRole(1, partial(FabricatingServer,
                                               forged_ts=9,
                                               forged_value="EVIL")),
         "none"),
    ))
    def test_a_byzantine_role_that_binds_nothing_is_refused(
        self, protocol, rqs, role, could
    ):
        # Dropped, the role would leave every process benign and the
        # Byzantine experiment would pass vacuously.
        spec = ScenarioSpec(protocol, rqs=rqs,
                            faults=FaultPlan(byzantine=(role,)))
        with pytest.raises(ScenarioError) as refused:
            run(spec)
        message = str(refused.value)
        assert (f"cannot bind the {role.role} role of process "
                f"{role.process!r}") in message
        assert message.endswith(f"the Byzantine roles it binds: {could}")

    def test_two_byzantine_roles_for_one_process_are_refused(self):
        # Kept silently, the last role would win and the fabricator
        # would never run.
        fabricator = partial(FabricatingServer, forged_ts=999,
                             forged_value="EVIL")
        forgetter = partial(ForgetfulServer, trigger_time=1.0)
        spec = ScenarioSpec("rqs-storage", rqs="example6", faults=FaultPlan(
            byzantine=(ByzantineRole(8, fabricator),
                       ByzantineRole(8, forgetter)),
        ))
        with pytest.raises(ScenarioError) as refused:
            run(spec)
        message = str(refused.value)
        assert "the server role of process 8" in message
        assert repr(fabricator) in message and repr(forgetter) in message

    def test_crash_target_must_exist(self):
        from repro.scenarios import Crash

        spec = ScenarioSpec(
            protocol="abd",
            faults=FaultPlan(crashes=(Crash("ghost", 0.0),)),
        )
        with pytest.raises(ScenarioError, match="ghost"):
            run(spec)
