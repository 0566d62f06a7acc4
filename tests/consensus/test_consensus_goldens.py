"""Golden consensus executions, captured before the consensus half moved
onto the quorum index.

Each digest is the sha256 of ``RunResult.fingerprint()`` followed by the
whole ordered message log ``(send_time, src, dst, type(payload).__name__)``
— every message an execution ever sent, in send order.  The specs are
the 10 consensus cells of the paper exhibits (``consensus-latency``,
``theorem6-end-to-end``, ``baseline-consensus``, ``consensus-liveness``),
a Byzantine :class:`EquivocatingProposer` run and a view change forced
by a crashed initial leader.

The digests were generated on the tree *before* the indexed update
cascade (PR 13 state, the per-quorum frozenset walk) by running this
file as a script; a mismatch IS the regression — never regenerate them
from the code under test.
"""

import hashlib

import pytest

from repro.consensus.messages import Prepare
from repro.consensus.proposer import EquivocatingProposer
from repro.experiments import baselines, consensus_latency, stress, theorem6
from repro.scenarios import (
    PROPOSER,
    ByzantineRole,
    Crash,
    FaultPlan,
    Hold,
    Propose,
    ScenarioSpec,
    run,
)


def _is_prepare(payload) -> bool:
    return isinstance(payload, Prepare)


def _grid_specs(grid):
    return {
        "{}[{}]".format(
            grid.name, ",".join(cell.labels[n] for n in grid.axis_names)
        ): grid.spec_for(cell)
        for cell in grid.cells()
    }


SPECS = {
    **_grid_specs(consensus_latency.GRID),
    **_grid_specs(theorem6.END_TO_END_GRID),
    **_grid_specs(baselines.CONSENSUS_GRID),
    **_grid_specs(stress.liveness_grid(40.0, 2000.0)),
    "equivocating-proposer": ScenarioSpec(
        protocol="rqs-consensus", rqs="example6", proposers=2,
        faults=FaultPlan(
            byzantine=(
                ByzantineRole(0, EquivocatingProposer, role=PROPOSER),
            )
        ),
        workload=(Propose(0.0, "EVIL", proposer=0),
                  Propose(1.0, "GOOD", proposer=1)),
        horizon=600.0,
    ),
    # p1's prepare reaches acceptors 3..8; 7 and 8 crash after their
    # update1, so 3..6 store seven 1-update quorums but nobody decides:
    # the view change must gather sign_acks (SignReq targets come from
    # update_q's iteration order) and p2's choose() re-proposes "A".
    "view-change-under-crash": ScenarioSpec(
        protocol="rqs-consensus", rqs="example6", proposers=2,
        faults=FaultPlan(
            crashes=(Crash(7, 1.5), Crash(8, 1.5)),
            asynchrony=(
                Hold(src=("p1",), dst=(1, 2), payload=_is_prepare,
                     label="p1's prepare misses 1 and 2"),
            ),
        ),
        workload=(Propose(0.0, "A", proposer=0),),
        horizon=600.0,
        params={"proposer_values": {1: "B"}},
    ),
}


def digest(result) -> str:
    log = tuple(
        (m.send_time, repr(m.src), repr(m.dst), type(m.payload).__name__)
        for m in result.adapter.network.log
    )
    text = repr((result.fingerprint(), log))
    return hashlib.sha256(text.encode()).hexdigest()


#: Captured at the parent of the indexed cascade — do not regenerate.
GOLDEN_DIGESTS = {
    'baseline-consensus[PBFT-lite]': 'd5d2dc3fb1eeb8df64d70cb7f891ce530c52a30c8a2a24e7277d69bef3239979',
    'baseline-consensus[RQS consensus (class 1)]': '272eff0133db61486a3350bd60d2ce405ce7bdc6090e59de9d9f1d8f4074e8c2',
    'baseline-consensus[RQS consensus (class 2)]': 'c08d1e087596c03468d8c45f03674b72d7e71f69aff09794bc19e1335b4b2247',
    'baseline-consensus[RQS consensus (class 3)]': '902118747b992c76ed1dc5234d3742a75908c3448a2a10cb3fb2b72f536946ad',
    'baseline-consensus[crash Paxos]': '6806fc733306008915916a995c277cc944e2113bb816f2bb34cc1ade6f975230',
    'consensus-latency[1]': '4a5a224f3891386283be82e952e7131b24efd5a675bd578167cc005991dc563e',
    'consensus-latency[2]': '83371a2927f80399290f9cbd11835755dd0bb2a4e6d2ff255e005f37697a1d2d',
    'consensus-latency[3]': 'e992d8cd62c4bc3f8776f0112de40eb153d77ed53c59fad879de77ec42d14769',
    'consensus-liveness[40.0,2000.0]': 'd91604877c5a05a9591c896224b9811a7efc753fdff9f4fb535428f7fcc89058',
    'equivocating-proposer': '84dc135d2664191c7dd29c7bd4e37407000d047856652cf177ff30017131b5e6',
    'theorem6-end-to-end[proof-schedule]': '639a875a843a1cad19e960ec2c81c3899f274724645888e31d0ae0fee20456d2',
    'view-change-under-crash': '616839ae9b8fb64a0c4fcd055ec8fd868def9d14bd1a279db83a287dd9972f12',
}


def test_the_ten_consensus_exhibit_cells_are_pinned():
    assert len(SPECS) == 12 and set(SPECS) == set(GOLDEN_DIGESTS)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_consensus_execution_matches_parent_golden(name):
    assert digest(run(SPECS[name])) == GOLDEN_DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - the capture script
    for spec_name in sorted(SPECS):
        print(f"    {spec_name!r}: {digest(run(SPECS[spec_name]))!r},")
