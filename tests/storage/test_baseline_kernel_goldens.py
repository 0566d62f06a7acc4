"""Golden keyed / multi-writer / batched traces of the count-quorum
baselines: folding ``abd``, ``fastabd`` and ``naive`` into one kernel
must not change a single pre-existing execution.

``test_golden_fingerprints.py`` pins single-key, single-writer,
unbatched baseline traces only.  The digests below were captured from
the three separate pre-kernel modules (PR 11 state) for every protocol
× writer count × batching mode × fault plan at ``n_keys=4``, FULL
trace — exactly the MW-discovery, keyed and batched paths the kernel
refactor rewrote.  Each is ``sha256(repr(result.fingerprint()))``, so
every operation record and the message count must stay byte-identical.
The batching modes are ``batch_size`` 1 and 4: the third mode the
corpus was captured with, ``"auto"``, was deleted with its knob, and its
eighteen digests with it.
"""

import hashlib

import pytest

from repro.scenarios import RandomMix, ScenarioSpec, run
from repro.scenarios.faults import Crash, Drop, FaultPlan
from repro.sim.network import TraceLevel

# The three plans of tests/scenarios/test_batching.py, restated here so
# an edit there cannot silently move these pins.
FAULT_PLANS = {
    "fault-free": FaultPlan(),
    "crash": FaultPlan(crashes=(Crash(1, 5.0),)),
    "lossy": FaultPlan(asynchrony=(
        Drop(src=(2,), until=10.0, label="lossy server 2"),
    )),
}


def _spec(protocol, n_writers, batch_size, fault):
    return ScenarioSpec(
        protocol=protocol,
        readers=3,
        n_writers=n_writers,
        n_keys=4,
        workload=(RandomMix(30, 40, horizon=70.0, batch_size=batch_size),),
        seed=11,
        faults=FAULT_PLANS[fault],
        trace_level=TraceLevel.FULL,
    )


#: Captured from the pre-kernel code — do not regenerate from current
#: code when they disagree; a mismatch IS the regression.
GOLDEN_DIGESTS = {
    ('abd', 1, 1, 'fault-free'):
        '448c7290b6ba55d50f1f159824ef27d4c1c6c8955db8854242813de28be929dd',
    ('abd', 1, 1, 'crash'):
        '5897544793ea04bac5706d12674adc58054d2e302a76fe0f3f7783ea6aea3421',
    ('abd', 1, 1, 'lossy'):
        '448c7290b6ba55d50f1f159824ef27d4c1c6c8955db8854242813de28be929dd',
    ('abd', 1, 4, 'fault-free'):
        'b06eaf93695155481f575d776b2f754ff1723d85d1768f7f16db07f9c90a0d3d',
    ('abd', 1, 4, 'crash'):
        'a04ce73dbf84307cf9bd4081cfbd3a81979963f48ac0b826f051919e10a61bd3',
    ('abd', 1, 4, 'lossy'):
        'b06eaf93695155481f575d776b2f754ff1723d85d1768f7f16db07f9c90a0d3d',
    ('abd', 3, 1, 'fault-free'):
        '41fb5c0b45b257fb1b24ed5abafb8e436ae4d5f87435960628ea2b8f3d6749e7',
    ('abd', 3, 1, 'crash'):
        '4410cb8ca687198382ba5f1940d2bd06bffab016780171a6571c6256cf524bab',
    ('abd', 3, 1, 'lossy'):
        '41fb5c0b45b257fb1b24ed5abafb8e436ae4d5f87435960628ea2b8f3d6749e7',
    ('abd', 3, 4, 'fault-free'):
        '8d548e1030e65bf8cbddb410dfa816afe21572ae275af0207ac035010523466b',
    ('abd', 3, 4, 'crash'):
        '619a31e8c4ec2791a2d14353596feb4a4c50806eaf503aadb5059cb9c81d6429',
    ('abd', 3, 4, 'lossy'):
        '8d548e1030e65bf8cbddb410dfa816afe21572ae275af0207ac035010523466b',
    ('fastabd', 1, 1, 'fault-free'):
        'fce89e0d954bcc09b761303ec614e910f299a5c26a52f68af25f91ace97fbb9d',
    ('fastabd', 1, 1, 'crash'):
        '88f6225cf507ebc6ff197a701e2517e0ce48df54597e2e20ce5e85fd8926b6f4',
    ('fastabd', 1, 1, 'lossy'):
        'fce89e0d954bcc09b761303ec614e910f299a5c26a52f68af25f91ace97fbb9d',
    ('fastabd', 1, 4, 'fault-free'):
        'db1be0ece97890696efa80e83138530c59ee7669e91843a9d9a855ef3e990560',
    ('fastabd', 1, 4, 'crash'):
        '23e2697f548300559c5b722ea4024d2d4c8a89d1b60aa845374c009992000a29',
    ('fastabd', 1, 4, 'lossy'):
        'db1be0ece97890696efa80e83138530c59ee7669e91843a9d9a855ef3e990560',
    ('fastabd', 3, 1, 'fault-free'):
        'aa9b17b027c76ccf058d2b968c939208d873b461e9a90fa98fa20ea77f4a5f4d',
    ('fastabd', 3, 1, 'crash'):
        'be352a3f8a8c873d28f236fc334fb9efe7aea9132d80a7e67645a55a7127aa9a',
    ('fastabd', 3, 1, 'lossy'):
        'aa9b17b027c76ccf058d2b968c939208d873b461e9a90fa98fa20ea77f4a5f4d',
    ('fastabd', 3, 4, 'fault-free'):
        '3defa46372e428fa10e6ba07e30356860fb166e9c7601b499697a9787d067b09',
    ('fastabd', 3, 4, 'crash'):
        'e5e4d26bf0c6c1ecad8127951530286129a6277e8a2f1b09908d160d887d7c04',
    ('fastabd', 3, 4, 'lossy'):
        '3defa46372e428fa10e6ba07e30356860fb166e9c7601b499697a9787d067b09',
    ('naive', 1, 1, 'fault-free'):
        'fce89e0d954bcc09b761303ec614e910f299a5c26a52f68af25f91ace97fbb9d',
    ('naive', 1, 1, 'crash'):
        '88f6225cf507ebc6ff197a701e2517e0ce48df54597e2e20ce5e85fd8926b6f4',
    ('naive', 1, 1, 'lossy'):
        'fce89e0d954bcc09b761303ec614e910f299a5c26a52f68af25f91ace97fbb9d',
    ('naive', 1, 4, 'fault-free'):
        'db1be0ece97890696efa80e83138530c59ee7669e91843a9d9a855ef3e990560',
    ('naive', 1, 4, 'crash'):
        '23e2697f548300559c5b722ea4024d2d4c8a89d1b60aa845374c009992000a29',
    ('naive', 1, 4, 'lossy'):
        'db1be0ece97890696efa80e83138530c59ee7669e91843a9d9a855ef3e990560',
    ('naive', 3, 1, 'fault-free'):
        'aa9b17b027c76ccf058d2b968c939208d873b461e9a90fa98fa20ea77f4a5f4d',
    ('naive', 3, 1, 'crash'):
        'be352a3f8a8c873d28f236fc334fb9efe7aea9132d80a7e67645a55a7127aa9a',
    ('naive', 3, 1, 'lossy'):
        'aa9b17b027c76ccf058d2b968c939208d873b461e9a90fa98fa20ea77f4a5f4d',
    ('naive', 3, 4, 'fault-free'):
        '3defa46372e428fa10e6ba07e30356860fb166e9c7601b499697a9787d067b09',
    ('naive', 3, 4, 'crash'):
        'e5e4d26bf0c6c1ecad8127951530286129a6277e8a2f1b09908d160d887d7c04',
    ('naive', 3, 4, 'lossy'):
        '3defa46372e428fa10e6ba07e30356860fb166e9c7601b499697a9787d067b09',
}


@pytest.mark.parametrize(
    "protocol,n_writers,batch_size,fault", sorted(GOLDEN_DIGESTS, key=repr)
)
def test_keyed_mw_batched_traces_match_pre_kernel_goldens(
    protocol, n_writers, batch_size, fault
):
    result = run(_spec(protocol, n_writers, batch_size, fault))
    digest = hashlib.sha256(repr(result.fingerprint()).encode()).hexdigest()
    assert digest == GOLDEN_DIGESTS[(protocol, n_writers, batch_size, fault)]


def test_the_corpus_covers_the_whole_grid():
    assert len(GOLDEN_DIGESTS) == 3 * 2 * 2 * 3
