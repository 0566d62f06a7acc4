"""Golden digests of batched RQS runs.

A batched RQS read (``StorageReader.read_batch``) collects over all its
keys, hands each element it resolves the write-back plan its unbatched
read would take, and writes back the elements of one plan as one group
— concurrently with further collect rounds and with the other groups.
Each group is a task of its own, which the batch waits for before it
returns.  The digests below were captured when the groups still ran as
generator branches of the batch's one task, parked on a disjunction of
their conditions; every cell must keep them.

A cell is ``rqs-storage`` or ``rqs-regular`` × 1 or 3 writers × batch 2
or 16 × one of three fault plans, each a different way to give readers
a view in which the newest pair is not yet safe: two readers' replies
from some servers lost or held, one server's requests to it slowed, and
the writers' messages reaching the servers at staggered times.  Every
cell has reads that take more than one round (for ``rqs-regular``, a
second collect round: its reader never writes back), and in one cell a
reader has two write-back groups pending at once.  A digest is the
sha256 of ``repr((fingerprint(), events_processed))``.

The one observable difference of group tasks is ``RunResult.blocked``:
a batched read stuck in a write-back lists its group's task too.
"""

import hashlib
import itertools

import pytest

from repro.experiments.builders import keyed_mix_spec
from repro.scenarios import (
    Crash, Delay, Drop, FaultPlan, Hold, payload_is, run,
)
from repro.storage.batching import WriteBatch
from repro.storage.reader import StorageReader

WRITERS = ("writer", "writer2", "writer3")
READERS = ("reader1", "reader2")

PLANS = {
    # Servers 6-8 never answer a reader; requests to 1 arrive late;
    # writes reach 2 late and 3-5 later still.
    "split-view": FaultPlan(asynchrony=(
        Drop(src=(6, 7, 8), dst=READERS),
        Delay(5.0, src=READERS, dst=(1,)),
        Delay(2.0, src=WRITERS, dst=(2,)),
        Delay(20.0, src=WRITERS, dst=(3, 4, 5)),
    )),
    # Replies from 5-7 held until 25, when 8 crashes; requests to 4
    # arrive late; writes reach 3 late and 1-2 later still.
    "held-view": FaultPlan(crashes=(Crash(8, 25.0),), asynchrony=(
        Hold(src=(5, 6, 7), dst=READERS, until=25.0),
        Delay(4.0, src=READERS, dst=(4,)),
        Delay(2.5, src=WRITERS, dst=(3,)),
        Delay(15.0, src=WRITERS, dst=(1, 2)),
    )),
    # Replies from 1-3 and writes to 4-6 lost until 40; requests to 8
    # arrive late; writes reach 7 late.
    "lossy-view": FaultPlan(asynchrony=(
        Drop(src=(1, 2, 3), dst=READERS, until=40.0),
        Delay(6.0, src=READERS, dst=(8,)),
        Delay(2.0, src=WRITERS, dst=(7,)),
        Drop(src=WRITERS, dst=(4, 5, 6), until=40.0),
    )),
}

CELLS = tuple(itertools.product(
    ("rqs-storage", "rqs-regular"), (1, 3), (2, 16), tuple(PLANS),
))


def cell_spec(protocol, writers, batch, plan):
    return keyed_mix_spec(
        protocol, 2, writes=30, reads=60, readers=2, n_writers=writers,
        horizon=30.0, seed=3, batch_size=batch,
    ).with_(faults=PLANS[plan])


def digest(result):
    return hashlib.sha256(
        repr((result.fingerprint(), result.events_processed)).encode()
    ).hexdigest()


#: Captured from the branch version, never regenerated.
GOLDEN = {
    ('rqs-storage', 1, 2, 'split-view'):
        "b622a2df5b3222e567c5a9259197865f28f72b016d5cd5f4672415c828855a6b",
    ('rqs-storage', 1, 2, 'held-view'):
        "8b9c646d888fb796a4a3839c1b3b486cfe22302e3a31a2963317257b80ccffa8",
    ('rqs-storage', 1, 2, 'lossy-view'):
        "b66e5be6d8bb33b39bad99bbeb81943821fca185af404e69a93142a2698fa24a",
    ('rqs-storage', 1, 16, 'split-view'):
        "6e3eef77544a3597af65ae48292cc9ed3c7213237ec742709d894be86a452047",
    ('rqs-storage', 1, 16, 'held-view'):
        "093b8bc719397b15c3be0a30d5e784c39ea0bb9e07d427945e1c9e1d46f8f406",
    ('rqs-storage', 1, 16, 'lossy-view'):
        "87db8edf0f773aae4c08b9e09ddaf3d59aa3f710fa813c16a1ff2ae8e3797cc1",
    ('rqs-storage', 3, 2, 'split-view'):
        "94cc90ee3a1a85721c56eb8e37413093d804f02395656ebf73fc5cb2a6b683f9",
    ('rqs-storage', 3, 2, 'held-view'):
        "8e1f7f4a3da637ec57bdf9f19f4120cac922b7263633610366b303e59824594d",
    ('rqs-storage', 3, 2, 'lossy-view'):
        "dee2f3ef55ede205c145a0a46a6ecaca7286bcf340bbe6e76f55348749b91251",
    ('rqs-storage', 3, 16, 'split-view'):
        "f425f1faf90bb8d3d65bd9af9c6ea72b1360adf7dc47da9c942b969be3b47d80",
    ('rqs-storage', 3, 16, 'held-view'):
        "617cda33cfe19a2daa651c1dfafe441f4f001ac9f99ce9b3e1ec3688c054e7f6",
    ('rqs-storage', 3, 16, 'lossy-view'):
        "b4e3f876f4f2347f72b9b372f8c164e9c804d4ac3c9d88fc7035ed73094d6701",
    ('rqs-regular', 1, 2, 'split-view'):
        "435a0b8da9bd6e15c02a6376a91cd6fe7f435df12bddd1b7c0b055c6be1de26c",
    ('rqs-regular', 1, 2, 'held-view'):
        "069c68e42ad454393e92c9e84da061a9fe5037f0d98ba3c09d70dbfaa8a224db",
    ('rqs-regular', 1, 2, 'lossy-view'):
        "046678a807d70d876ae88466488b7f6a0ca40ae3b211360adcbc29f3d2809646",
    ('rqs-regular', 1, 16, 'split-view'):
        "65dc980bd024f91829585b5a40021079cb1fc426525dcbd78f5d8dad5960a268",
    ('rqs-regular', 1, 16, 'held-view'):
        "873bba5239f06dc4f439b8b279469d3eb400cf138a8782ce0b0b5091e7090783",
    ('rqs-regular', 1, 16, 'lossy-view'):
        "7b73cbcddd132f1ff9e8baa8578249da643f5a8537566693fd2a0eb8847fbff5",
    ('rqs-regular', 3, 2, 'split-view'):
        "3263d79973c504bb415f446d2224f83251478ba32f89044f4fc61d4e2a0d548d",
    ('rqs-regular', 3, 2, 'held-view'):
        "001c4d2f8a95fa917a5fec91ea43c13d8a56c0761113be7317bf6aa1ffaab6f6",
    ('rqs-regular', 3, 2, 'lossy-view'):
        "8755c7b4f68b8ed212934e135610ac316718dabbc9f60eeab4459523d8eb9939",
    ('rqs-regular', 3, 16, 'split-view'):
        "672ddae70f5a6c1b12d3d4da5323c8a7076e6b6dd979db92a8ee117ae54cdd3e",
    ('rqs-regular', 3, 16, 'held-view'):
        "27f6fa7555c675c0620e4a913a90a7892d9fc876fdcc8ab433d42b37bb557226",
    ('rqs-regular', 3, 16, 'lossy-view'):
        "441a0c28664e6d7276b415485bbf646518a71da2988ac8f78598d2f02984d863",
}


@pytest.mark.parametrize(
    "cell", CELLS, ids=["{}-w{}-b{}-{}".format(*cell) for cell in CELLS]
)
def test_a_batched_rqs_run_keeps_its_digest(cell):
    result = run(cell_spec(*cell))
    assert any(read.complete and read.rounds > 1 for read in result.reads)
    assert digest(result) == GOLDEN[cell]


def test_a_reader_can_have_two_write_back_groups_pending(monkeypatch):
    pending, most = {}, []
    write_back_group = StorageReader._write_back_group

    def counted(self, *args):
        pending[self.pid] = pending.get(self.pid, 0) + 1
        most.append(pending[self.pid])
        yield from write_back_group(self, *args)
        pending[self.pid] -= 1

    monkeypatch.setattr(StorageReader, "_write_back_group", counted)
    result = run(cell_spec("rqs-storage", 3, 2, "split-view"))
    assert result.ops_completed() == result.ops_begun()
    assert max(most) == 2


def test_a_read_stuck_in_a_write_back_lists_its_group_task():
    # Three servers down: every read of a written key writes back
    # (line 49), and server 5 never gets the reader's write-backs, so
    # no write-back reaches a quorum.  The batch's task waits on its
    # group's task, and both stay parked.
    spec = keyed_mix_spec(
        "rqs-storage", 1, writes=2, reads=4, readers=1, horizon=10.0,
        seed=1, batch_size=2,
    ).with_(faults=FaultPlan(
        crashes=(Crash(2, 0.0), Crash(3, 0.0), Crash(4, 0.0)),
        asynchrony=(Hold(src=("reader1",), dst=(5,),
                         payload=payload_is(WriteBatch)),),
    ))
    result = run(spec)
    assert [read.complete for read in result.reads] == [False, False]
    assert result.blocked == ("reader1 write-back#1", "reader1-workload")
