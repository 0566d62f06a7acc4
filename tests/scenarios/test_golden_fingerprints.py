"""Golden single-key backward compatibility: the keyed-register-space
refactor must not change a single pre-existing execution.

The fingerprints below were captured from the pre-keyed code (PR 3
state) for a representative set of single-key specs spanning every
storage protocol, the fault-plan families, seeded RandomMix workloads
and the consensus baselines.  Every spec must keep producing the exact
same operation records and message counts — byte-identical traces —
with the keyed register space in place (`RunResult.fingerprint` keeps
the historical digest shape for single-key histories, so these compare
bit-for-bit against the old code's output).

Four more specs (a healed partition and three consensus fault plans) are
pinned by the sha256 of :func:`execution_digest` — records, blocked
operations, event and message counts and the full ordered message log.
They come from the suite that ran every spec here under the indexed
wake-up loop *and* the re-poll-every-parked-task loop it replaced and
required identical digests; the old loop is gone, its executions stay.
"""

import hashlib
from functools import partial

import pytest

from repro.scenarios import (
    ByzantineRole,
    Crash,
    FaultPlan,
    Hold,
    Partition,
    Propose,
    RandomMix,
    Read,
    Resync,
    ScenarioSpec,
    Write,
    available_protocols,
    crashes,
    lossy_until_gst,
    run,
)
from repro.storage.server import FabricatingServer

SPECS = {
    "rqs-storage-plain": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=2,
        workload=(Write(0.0, "a"), Read(5.0), Write(6.0, "b"),
                  Read(7.0, reader=1))),
    "rqs-storage-crashes": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=1,
        faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0})),
        workload=(Write(0.0, "v"), Read(6.0))),
    "rqs-storage-byzantine": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=1,
        faults=FaultPlan(byzantine=(
            ByzantineRole(8, partial(
                FabricatingServer, forged_ts=999, forged_value="EVIL")),)),
        workload=(Write(0.0, "good"), Read(5.0))),
    "rqs-storage-asynchrony": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=1,
        faults=FaultPlan(
            crashes=(Crash(2, 5.0), Crash(3, 5.0)),
            asynchrony=(Hold(src=("writer",), dst=(1,)),)),
        workload=(Write(0.0, "v"), Read(5.0))),
    "rqs-storage-randommix": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=3,
        faults=FaultPlan(crashes=(Crash(4, 20.0),)),
        workload=(RandomMix(5, 8, horizon=50.0),), seed=7),
    "rqs-storage-randommix-seed3": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=2,
        workload=(RandomMix(6, 6, horizon=40.0),), seed=3),
    "rqs-regular-randommix": ScenarioSpec(
        protocol="rqs-regular", rqs="threshold:5,1,1,0,1", readers=3,
        workload=(RandomMix(5, 9, horizon=40.0),), seed=1),
    "abd": ScenarioSpec(
        protocol="abd", readers=2,
        workload=(Write(0.0, "v"), Read(5.0), Read(5.5, reader=1))),
    "abd-randommix": ScenarioSpec(
        protocol="abd", readers=2,
        workload=(RandomMix(4, 6, horizon=30.0),), seed=11),
    "fastabd-crash": ScenarioSpec(
        protocol="fastabd", readers=2,
        faults=FaultPlan(crashes=(Crash(1, 0.0),)),
        workload=(Write(0.0, "v"), Read(6.0), Write(8.0, "w"),
                  Read(9.0, reader=1))),
    "naive": ScenarioSpec(
        protocol="naive", readers=2,
        workload=(Write(0.0, "v"), Read(4.0))),
    "rqs-consensus-contended": ScenarioSpec(
        protocol="rqs-consensus", rqs="example6",
        workload=(Propose(0.0, "A", proposer=0),
                  Propose(0.0, "B", proposer=1)),
        horizon=300.0),
    "paxos": ScenarioSpec(
        protocol="paxos", workload=(Propose(0.0, "v"),), horizon=60.0),
    "pbft": ScenarioSpec(
        protocol="pbft", workload=(Propose(0.0, "v"),), horizon=60.0),
}

#: Captured from the pre-keyed code — do not regenerate from current
#: code when they disagree; a mismatch IS the regression.  (The
#: ``rqs-regular`` row was captured later, from the hand-wired regular
#: deployment class that registry row replaced.)
GOLDEN_FINGERPRINTS = {
    'rqs-storage-plain': (('write', 'writer', 0.0, 2.0, "'OK'", 1), ('read', 'reader1', 5.0, 7.0, "'a'", 1), ('write', 'writer', 6.0, 8.0, "'OK'", 1), ('read', 'reader2', 7.0, 9.0, "'b'", 1), 64),
    'rqs-storage-crashes': (('write', 'writer', 0.0, 4.0, "'OK'", 2), ('read', 'reader1', 6.0, 8.0, "'v'", 1), 42),
    'rqs-storage-byzantine': (('write', 'writer', 0.0, 2.0, "'OK'", 1), ('read', 'reader1', 5.0, 7.0, "'good'", 1), 32),
    'rqs-storage-asynchrony': (('write', 'writer', 0.0, 2.0, "'OK'", 1), ('read', 'reader1', 5.0, 9.0, "'v'", 2), 43),
    'rqs-storage-randommix': (('read', 'reader1', 1.874782922099244, 3.874782922099244, '⊥', 1), ('read', 'reader2', 2.8999462387353403, 4.899946238735341, '⊥', 1), ('read', 'reader3', 3.492771178730947, 5.492771178730947, '⊥', 1), ('write', 'writer', 3.621814333377138, 5.621814333377138, "'OK'", 1), ('read', 'reader1', 4.535650667193253, 6.535650667193253, '1', 1), ('write', 'writer', 7.542458696225096, 9.542458696225097, "'OK'", 1), ('write', 'writer', 16.19163824165812, 18.19163824165812, "'OK'", 1), ('read', 'reader1', 18.28444584562928, 20.28444584562928, '3', 1), ('read', 'reader2', 21.225959457125697, 23.225959457125697, '3', 1), ('read', 'reader2', 23.225959457125697, 25.225959457125697, '3', 1), ('read', 'reader3', 25.371786659471013, 27.371786659471013, '3', 1), ('write', 'writer', 26.79410021533446, 28.79410021533446, "'OK'", 1), ('write', 'writer', 32.546723651992686, 34.546723651992686, "'OK'", 1), 203),
    'rqs-storage-randommix-seed3': (('read', 'reader1', 0.5267196621949655, 2.5267196621949655, '⊥', 1), ('write', 'writer', 2.6211543695925243, 4.621154369592524, "'OK'", 1), ('read', 'reader2', 9.373238441867855, 11.373238441867855, '1', 1), ('write', 'writer', 9.518585083675655, 11.518585083675655, "'OK'", 1), ('read', 'reader1', 10.374160573120307, 12.374160573120307, '2', 1), ('write', 'writer', 14.798206661923171, 16.79820666192317, "'OK'", 1), ('read', 'reader2', 18.81054030089792, 20.81054030089792, '3', 1), ('write', 'writer', 21.769169011838073, 23.769169011838073, "'OK'", 1), ('write', 'writer', 24.156801543847777, 26.156801543847777, "'OK'", 1), ('write', 'writer', 26.156801543847777, 28.156801543847777, "'OK'", 1), ('read', 'reader2', 33.4987632838584, 35.4987632838584, '6', 1), ('read', 'reader1', 39.82579342041851, 41.82579342041851, '6', 1), 192),
    'rqs-regular-randommix': (('read', 'reader3', 0.08424213404442771, 2.0842421340444277, '⊥', 1), ('read', 'reader2', 1.1338990608802524, 3.1338990608802524, '⊥', 1), ('read', 'reader1', 3.7543834709693957, 5.754383470969396, '⊥', 1), ('write', 'writer', 5.374569764496049, 7.374569764496049, "'OK'", 1), ('write', 'writer', 10.202761029576868, 12.202761029576868, "'OK'", 1), ('read', 'reader1', 17.310682716202134, 19.310682716202134, '2', 1), ('read', 'reader1', 19.310682716202134, 21.310682716202134, '2', 1), ('write', 'writer', 19.817403483677637, 21.817403483677637, "'OK'", 1), ('read', 'reader2', 26.063718908910516, 28.063718908910516, '3', 1), ('read', 'reader2', 30.49120329831768, 32.49120329831768, '3', 1), ('write', 'writer', 30.550984759064562, 32.55098475906456, "'OK'", 1), ('read', 'reader3', 31.548934045420527, 33.54893404542052, '4', 1), ('read', 'reader3', 33.54893404542052, 35.54893404542052, '4', 1), ('write', 'writer', 33.89734947748931, 35.89734947748931, "'OK'", 1), 140),
    'abd': (('write', 'writer', 0.0, 2.0, "'OK'", 1), ('read', 'reader1', 5.0, 9.0, "'v'", 2), ('read', 'reader2', 5.5, 9.5, "'v'", 2), 50),
    'abd-randommix': (('read', 'reader1', 5.5398103156462986, 9.5398103156463, '⊥', 2), ('write', 'writer', 13.571386605294558, 15.571386605294558, "'OK'", 1), ('read', 'reader1', 15.235238191868133, 19.235238191868135, '1', 2), ('read', 'reader2', 15.357259171254166, 19.357259171254164, '1', 2), ('write', 'writer', 15.571386605294558, 17.571386605294556, "'OK'", 1), ('write', 'writer', 17.571386605294556, 19.571386605294556, "'OK'", 1), ('read', 'reader1', 19.235238191868135, 23.235238191868135, '3', 2), ('read', 'reader2', 19.357259171254164, 23.357259171254164, '3', 2), ('read', 'reader2', 23.78930617559858, 25.78930617559858, '3', 2), ('write', 'writer', 27.72631752071188, 29.72631752071188, "'OK'", 1), 160),
    'fastabd-crash': (('write', 'writer', 0.0, 2.0, "'OK'", 1), ('read', 'reader1', 6.0, 8.0, "'v'", 1), ('write', 'writer', 8.0, 10.0, "'OK'", 1), ('read', 'reader2', 9.0, 11.0, "'w'", 1), 36),
    'naive': (('write', 'writer', 0.0, 2.0, "'OK'", 1), ('read', 'reader1', 4.0, 6.0, "'v'", 1), 20),
    'rqs-consensus-contended': (('learn', 'l1', 0.0, 2.0, "'A'", 0), ('learn', 'l2', 0.0, 2.0, "'A'", 0), ('learn', 'l3', 0.0, 2.0, "'A'", 0), ('propose', 'p1', 0.0, 0.0, "'proposed'", 0), ('propose', 'p2', 0.0, 0.0, "'proposed'", 0), 8488),
    'paxos': (('learn', 'l1', 0.0, 4.0, "'v'", 0), ('learn', 'l2', 0.0, 4.0, "'v'", 0), ('learn', 'l3', 0.0, 4.0, "'v'", 0), ('propose', 'p1', 0.0, 4.0, "'v'", 0), 35),
    'pbft': (('learn', 'l1', 0.0, 5.0, "'v'", 0), ('learn', 'l2', 0.0, 5.0, "'v'", 0), ('learn', 'l3', 0.0, 5.0, "'v'", 0), ('propose', 'client', 0.0, 0.0, "'requested'", 0), 45),
}


DIGEST_SPECS = {
    "rqs-storage-partition-heal": ScenarioSpec(
        protocol="rqs-storage", rqs="example6", readers=1,
        faults=FaultPlan(partitions=(
            Partition(frozenset({"writer"}),
                      frozenset(range(1, 8)), until=10.0),)),
        workload=(Write(0.0, "v"),), horizon=40.0),
    "rqs-consensus-best-case": ScenarioSpec(
        protocol="rqs-consensus", rqs="example6",
        workload=(Propose(0.0, "V"),), horizon=60.0),
    "rqs-consensus-crashes": ScenarioSpec(
        protocol="rqs-consensus", rqs="example6",
        faults=FaultPlan(crashes=crashes({1: 0.0, 2: 0.0})),
        workload=(Propose(0.0, "V"),), horizon=60.0),
    "rqs-consensus-lossy-gst": ScenarioSpec(
        protocol="rqs-consensus", rqs="example6",
        faults=FaultPlan(asynchrony=(lossy_until_gst(30.0),)),
        workload=(Propose(0.0, "V"),) + tuple(
            Resync(float(when)) for when in range(10, 60, 10)),
        horizon=1500.0, params={"sync_delay": 5.0}),
}

#: Captured at the parent of the scan loop's removal, under both wake-up
#: modes and two PYTHONHASHSEEDs (identical four ways) — do not
#: regenerate.
GOLDEN_DIGESTS = {
    "rqs-storage-partition-heal": "7f439ff7d07ce57eb503dba3ac7d36d2d9076165d78a9f0ea0565f587027c736",
    "rqs-consensus-best-case": "195ba96173fbd2415ef65db8bd6a68073472fb8ddd6862eb16f457de67d8ddfa",
    "rqs-consensus-crashes": "7bea989bb4ca088f2cb908250203862b6e0a682e76951941ed0a9a8fd530a678",
    "rqs-consensus-lossy-gst": "036a73c008d75c62a0e5695861e43f683c972180e4428f12da4396fe627cb0dc",
}


def execution_digest(result):
    """Everything observable about one run, as a comparable value."""
    network = result.adapter.network
    return {
        "records": tuple(
            (r.op_id, r.kind, r.process, r.invoked_at, r.completed_at,
             repr(r.result), r.rounds)
            for r in result.records
        ),
        "blocked": result.blocked,
        "events": result.adapter.sim.events_processed,
        "sent": network.sent_count,
        "log": tuple(
            (m.src, m.dst, repr(m.payload), m.send_time, m.deliver_time,
             m.held, m.dropped)
            for m in network.log
        ),
    }


@pytest.mark.parametrize("name", sorted(DIGEST_SPECS))
def test_execution_digests_match_the_goldens(name):
    # The digest covers the message log, which only FULL keeps.
    spec = DIGEST_SPECS[name].with_(trace_level="full")
    digest = execution_digest(run(spec))
    text = repr(sorted(digest.items()))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name]


def test_every_registered_protocol_is_covered():
    covered = {spec.protocol for spec in (*SPECS.values(),
                                          *DIGEST_SPECS.values())}
    assert set(available_protocols()) <= covered


@pytest.mark.parametrize("name", sorted(SPECS))
def test_single_key_fingerprints_match_pre_keyed_goldens(name):
    result = run(SPECS[name])
    assert result.fingerprint() == GOLDEN_FINGERPRINTS[name]


def test_every_golden_spec_is_single_key():
    """The goldens pin the *single-key* compatibility surface — every
    spec must stay on the default register and the default writer."""
    for name, spec in SPECS.items():
        assert spec.n_keys == 1 and spec.n_writers == 1, name
