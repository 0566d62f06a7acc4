"""Work-count regression for a batched ABD op — no wall clock.

A 16-element batch used to pay, per element, Python frames that decide
nothing: three ``random`` wrappers per open-loop draw
(``randrange`` → ``_randbelow_with_getrandbits``, ``uniform``), a
generator resume per key in each server's batched reply and in the
writer's ``WriteBatch`` elements, one list per read element in the
reader's write-back decision, an identity schedule generator per read
element in the adapter, and a ``meta`` dict per record.  Now the draw
calls ``getrandbits`` / ``random`` itself (still one ``_KeyDrawer.draw``
per drawn op, which the benchmark's draw ledger counts), a batched reply
is one comprehension per message, the read decision walks the reply
columns, the reader's ``(at, key)`` stream feeds the batch driver as it
is, and a record's stamp is its ``ts`` slot.

A batched RQS read used to pay Figure 7's line 49 write-back on every
element — three rounds for a read its unbatched twin returns in one —
and a batched regular read wrote back although the regular reader never
does.  Now a batch of one costs exactly what the unbatched read costs
(rounds, messages, simulated events) on every staged case of
``test_batched_read_oracle.py``, a batched ``rqs-regular`` reader sends
no ``WriteBatch``, and each write-back group is one named task.  A
batched write runs the
unbatched write's Figure 5 ladder, so a batch of one write costs what
the unbatched write costs at each of the ladder's three exits, and a
batched regular read costs what the unbatched regular read costs.
"""

import dataclasses
import random
from collections import Counter

import pytest

from repro.experiments import batched as batched_tail
from repro.core.constructions import threshold_rqs
from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import (
    Crash, FaultPlan, ScenarioSpec, Write, adapters, get_protocol, run,
    workloads,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import OperationRecord
from repro.storage import abd
from repro.storage.batching import ReadBatch, WriteBatch
from repro.storage.messages import WR
from tests.counting import profiled
from tests.storage.test_batched_read_oracle import (
    HORIZON, SCRIPTS, batched, deploy,
)

OPS = 320
SPEC = keyed_mix_spec(
    "abd", 16, writes=40, reads=60, readers=2, seed=5,
    trace_level="metrics", max_ops=OPS, batch_size=16,
)
WRAPPERS = {
    "random.randrange", "random.uniform", "random._randbelow_with_getrandbits",
}
COMPREHENSIONS = {"<listcomp>", "<genexpr>", "<dictcomp>", "<setcomp>"}
SERVE = abd.RegisterServer.on_message.__code__
#: The kernel's batched paths: a server's handler, the batched clients.
BATCHED = {
    SERVE, abd.RegisterWriter.write_batch.__code__,
    abd.RegisterReader.read_batch.__code__,
}
DRAW = workloads._KeyDrawer.draw.__code__


def test_a_batched_op_pays_only_for_its_protocol_decision():
    # Per comprehension or generator code object of the kernel's
    # batched paths, its runs by the frame that ran it: one handled
    # message, or one batch.
    per_frame = Counter()

    def count(frame, event, arg):
        if event != "call":
            return None
        code = frame.f_code
        if code is DRAW:
            return "draw"
        if code.co_filename == random.__file__:
            return "random." + code.co_name
        if code.co_filename == adapters.__file__:
            return "adapters." + code.co_name
        if code.co_filename == abd.__file__:
            if (code.co_name in COMPREHENSIONS
                    and frame.f_back.f_code in BATCHED):
                per_frame[code.co_firstlineno, frame.f_back] += 1
                return "kernel comprehension"
            if code is SERVE and isinstance(
                frame.f_locals["payload"], (ReadBatch, WriteBatch)
            ):
                return "batch message"
        return None

    result, calls = profiled(lambda: run(SPEC), count)

    assert result.ops_completed() == result.ops_begun() == OPS
    online = result.online
    assert online.violation_count == 0
    assert online.checked_writes + online.checked_reads == OPS
    # The draw: one method call per drawn op, no wrapper under it.
    assert calls["draw"] == OPS
    assert WRAPPERS.isdisjoint(calls)
    # The kernel: no comprehension or generator runs more than once
    # per batch message it answers or batch it builds (from Python
    # 3.12 on, a list comprehension runs in its caller's frame).
    assert calls["batch message"] > 0
    assert set(per_frame.values()) <= {1}
    assert calls["kernel comprehension"] < 2 * calls["batch message"]
    # The adapter: a write element is reshaped by its schedule (one
    # resume each, and one more per writer at the end); a read element
    # costs the adapter nothing.
    writes = result.ops_begun("write")
    assert 0 < writes < OPS
    adapter_runs = sum(
        n for name, n in calls.items() if name.startswith("adapters.")
    )
    assert calls["adapters._write_batch_schedule"] <= writes + 1
    assert adapter_runs - calls["adapters._write_batch_schedule"] < 64
    # The stamp is a slot: a record carries no dict.
    assert "meta" not in {
        field.name for field in dataclasses.fields(OperationRecord)
    }
    assert "ts" in OperationRecord.__slots__


def _one_read(case, key, batch, protocol="rqs-storage"):
    """Rounds, messages and simulated events of one read of ``key`` on
    ``case``'s staged deployment: a batch of one, or unbatched."""
    adapter = deploy(case, protocol)
    reader = adapter.readers[0]
    adapter.sim.spawn(reader.read_batch([key]) if batch else reader.read(key))
    adapter.sim.run(until=HORIZON)
    record, = adapter.trace.records
    return (record.rounds, adapter.network.sent_count,
            adapter.sim.events_processed)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_a_batch_of_one_costs_an_unbatched_read(name):
    case = SCRIPTS[name]
    for key in dict.fromkeys(case.keys):
        assert _one_read(case, key, True) == _one_read(case, key, False)


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_a_batch_of_one_costs_an_unbatched_regular_read(name):
    case = SCRIPTS[name]
    for key in dict.fromkeys(case.keys):
        batch = _one_read(case, key, True, "rqs-regular")
        assert batch == _one_read(case, key, False, "rqs-regular")
        # The regular reader stops after its collect rounds.
        assert batch[0] <= _one_read(case, key, False)[0]


#: A threshold RQS of eight servers in which two crashes cost a write
#: its class-1 exit and three its round-2 exit.
WRITE_RQS = threshold_rqs(8, 3, 1, 1, 2)
#: The servers down from the start, per exit of the Figure 5 ladder.
WRITE_EXITS = {"class-1": (), "class-2": (1, 2), "round-3": (1, 2, 3)}


def _one_write(crashed, n_writers, batch):
    """What one write of key ``k`` by writer 0 showed and cost: a batch
    of one, or unbatched — its rounds and timestamp, messages, simulated
    events, the ``(rnd, QC'2)`` each write message carried, and the
    servers' histories of ``k`` after it."""
    spec = ScenarioSpec(
        "rqs-storage", rqs=WRITE_RQS, readers=0, n_writers=n_writers,
        workload=(Write(0.0, "v"),), trace_level="full",
        faults=FaultPlan(crashes=tuple(Crash(sid, 0.0) for sid in crashed)),
    )
    adapter = get_protocol("rqs-storage").build(spec)
    adapter.apply_faults(spec)
    writer = adapter.writers[0]
    adapter.sim.spawn(
        writer.write_batch([("v", "k")]) if batch else writer.write("v", "k")
    )
    adapter.sim.run(until=HORIZON)
    record, = adapter.trace.records
    carried = [
        (payload.rnd, payload.sets if batch else payload.qc2_ids)
        for payload in (message.payload for message in adapter.network.log)
        if isinstance(payload, WriteBatch if batch else WR)
    ]
    histories = tuple(
        server.history_for("k").snapshot()
        for server in adapter.servers.values()
    )
    return (record.rounds, record.ts, adapter.network.sent_count,
            adapter.sim.events_processed, carried, histories)


@pytest.mark.parametrize("n_writers", (1, 2), ids=("sw", "mw"))
@pytest.mark.parametrize("ladder_exit", sorted(WRITE_EXITS))
def test_a_batch_of_one_costs_an_unbatched_write(ladder_exit, n_writers):
    crashed = WRITE_EXITS[ladder_exit]
    batch = _one_write(crashed, n_writers, True)
    assert batch == _one_write(crashed, n_writers, False)
    # Discovery is one more round for a multi-writer.
    rounds = {"class-1": 1, "class-2": 2, "round-3": 3}[ladder_exit]
    assert batch[0] == rounds + (n_writers > 1)


def test_a_batched_regular_reader_never_writes_back():
    # E17's batched rqs-storage tail cell: its atomic reads write back.
    spec = batched_tail.TAIL_GRID.build({
        "protocol": "rqs-storage", "batch": batched_tail.TAIL_BATCH,
        "plan": "tail", "seed": batched_tail.TAIL_SEED,
    })

    def reader_write_backs(protocol):
        result = run(spec.with_(protocol=protocol, trace_level="full"))
        assert result.ops_completed("read") == batched_tail.TAIL_READS
        readers = {reader.pid for reader in result.adapter.readers}
        return sum(
            isinstance(message.payload, WriteBatch)
            for message in result.adapter.network.log
            if message.src in readers
        )

    assert reader_write_backs("rqs-storage") > 0
    assert reader_write_backs("rqs-regular") == 0


def test_each_write_back_group_is_one_named_task():
    spawn = Simulator.spawn.__code__

    def count(frame, event, arg):
        if event == "call" and frame.f_code is spawn:
            return frame.f_locals["name"]
        return None

    # One element collects a second round while the other's write-back
    # group runs; the first element's group follows: two groups, each
    # spawned once, besides the batch's own (unnamed) task.
    elements, calls = profiled(
        lambda: batched(SCRIPTS["second-round"]), count
    )
    assert [element["rounds"] for element in elements] == [4, 3]
    assert calls == Counter({
        "": 1, "reader1 write-back#1": 1, "reader1 write-back#2": 1,
    })
