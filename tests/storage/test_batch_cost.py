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
"""

import dataclasses
import random
from collections import Counter

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import adapters, run, workloads
from repro.sim.trace import OperationRecord
from repro.storage import abd
from repro.storage.batching import ReadBatch, WriteBatch
from tests.counting import profiled

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
