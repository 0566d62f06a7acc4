"""Differential oracle for the quorum mathematics (Definition 2).

Properties 1–3 and the adversary's answers used to be frozenset
algebra — ``contains`` / ``is_large`` by subset tests against the
maximal sets, Property 3 by ``restricted_to`` + ``enumerate`` over every
element of ``B`` inside each ``Q2 ∩ Q`` — and now run on the bitmasks
the protocols already use: the adversary has a mask view, each property
is an integer loop, Property 3 is decided on the maximal sets alone and
only the one failing pair is enumerated to name its witness.  The
frozenset code lives on *only here*, verbatim from the parent commit:

* :class:`ReferenceAdversary` / :class:`ReferenceThreshold` /
  :class:`ReferenceExplicit` — ``contains``, ``is_basic``, ``is_large``,
  ``enumerate``, ``restricted_to`` as they were (one deliberate
  difference: ``_maximal_antichain`` is the shipped one, whose tie order
  became total in the same change — see ``test_witnesses_do_not_depend_
  on_the_hash_seed``);
* ``reference_check_property1/2/3`` with ``reference_p3a`` /
  ``reference_p3b`` / ``_reference_failing_q1`` /
  ``_reference_covering_pair``.

Reference and shipped code must return *equal witness objects* — not
only equal verdicts — on random threshold and explicit adversaries
(int and string ids) × random families with random nested
``QC1 ⊆ QC2``, through the free functions and through
``RefinedQuorumSystem``, and agree that the paper's constructions are
valid.  Five seeded bugs are each killed by a named input.
"""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import properties as props
from repro.core.adversary import (
    Adversary,
    ExplicitAdversary,
    ThresholdAdversary,
    _maximal_antichain,
    as_subset,
)
from repro.core.constructions import (
    byzantine_quorum_system,
    example7_rqs,
    fast_consensus_quorum_system,
    figure3_rqs,
    majority_quorum_system,
    pbft_style_rqs,
    section12_rqs,
    threshold_rqs,
    threshold_rqs_predicted_valid,
)
from repro.core.properties import P1Witness, P2Witness, P3Witness
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import AdversaryError
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant


# -- the parent's adversary, verbatim ---------------------------------------------

class ReferenceAdversary:
    def __init__(self, ground_set):
        self._ground = as_subset(ground_set)
        if not self._ground:
            raise AdversaryError("ground set must be non-empty")

    @property
    def ground_set(self):
        return self._ground

    def is_basic(self, subset):
        return not self.contains(subset)

    def is_large(self, subset):
        target = as_subset(subset)
        maxima = self.maximal_sets()
        for b1 in maxima:
            remainder = target - b1
            # target ⊆ b1 ∪ b2  ⇔  (target \ b1) ⊆ b2 for some b2 ∈ B.
            if self.contains(remainder):
                return False
        return True

    def enumerate(self):
        seen = set()
        for maximal in self.maximal_sets():
            for size in range(len(maximal) + 1):
                for combo in combinations(sorted(maximal, key=repr), size):
                    candidate = frozenset(combo)
                    if candidate not in seen:
                        seen.add(candidate)
                        yield candidate

    def restricted_to(self, subset):
        universe = as_subset(subset)
        if not universe <= self._ground:
            raise AdversaryError("restriction target is not a subset of S")
        maxima = tuple(
            frozenset(m & universe) for m in self.maximal_sets()
        )
        return ReferenceExplicit(universe, maxima)


class ReferenceThreshold(ReferenceAdversary):
    def __init__(self, ground_set, k):
        super().__init__(ground_set)
        self._k = k

    def contains(self, subset):
        target = as_subset(subset)
        if not target <= self._ground:
            return False
        return len(target) <= self._k

    def maximal_sets(self):
        if self._k == 0:
            return (frozenset(),)
        ordered = sorted(self._ground, key=repr)
        return tuple(
            frozenset(combo) for combo in combinations(ordered, self._k)
        )

    def is_large(self, subset):
        # For B_k, "not covered by a union of two elements" is simply a
        # cardinality check: |subset| > 2k.
        target = as_subset(subset)
        return len(target) > 2 * self._k

    def is_basic(self, subset):
        target = as_subset(subset)
        if not target <= self._ground:
            return True
        return len(target) > self._k


class ReferenceExplicit(ReferenceAdversary):
    def __init__(self, ground_set, corruptible=()):
        super().__init__(ground_set)
        sets = [as_subset(c) for c in corruptible]
        for candidate in sets:
            if not candidate <= self._ground:
                raise AdversaryError(
                    f"corruptible set {set(candidate)!r} not within S"
                )
        self._maxima = _maximal_antichain(sets)

    def contains(self, subset):
        target = as_subset(subset)
        if not target <= self._ground:
            return False
        return any(target <= maximal for maximal in self._maxima)

    def maximal_sets(self):
        return self._maxima


# -- the parent's property checks, verbatim ---------------------------------------

def reference_p3a(adversary, q2, q, b):
    return adversary.is_basic((q2 & q) - b)


def reference_p3b(qc1, q2, q, b):
    if not qc1:
        return False
    difference = (q2 & q) - b
    return all(q1 & difference for q1 in qc1)


def reference_check_property1(adversary, quorums):
    quorums = list(quorums)
    for i, q in enumerate(quorums):
        for q_prime in quorums[i:]:
            if adversary.contains(q & q_prime):
                return P1Witness(q, q_prime)
    return None


def reference_check_property2(adversary, qc1, quorums):
    qc1 = list(qc1)
    for i, q1 in enumerate(qc1):
        for q1_prime in qc1[i:]:
            pair = q1 & q1_prime
            for q in quorums:
                triple = pair & q
                if adversary.is_large(triple):
                    continue
                b1, b2 = _reference_covering_pair(adversary, triple)
                return P2Witness(q1, q1_prime, q, b1, b2)
    return None


def reference_check_property3(adversary, qc1, qc2, quorums):
    qc1 = list(qc1)
    passed = set()
    for q2 in qc2:
        for q in quorums:
            base = q2 & q
            if base in passed:
                continue
            if not base:
                # An empty intersection fails P3a (∅ ∈ B by closure) and
                # P3b (it meets no class-1 quorum) for B = ∅.
                return P3Witness(
                    _reference_failing_q1(qc1, q2, q, frozenset()),
                    q2, q, frozenset(), frozenset(),
                )
            # Only elements B that actually intersect Q2∩Q matter: P3a and
            # P3b depend on B only through B ∩ (Q2∩Q).  Enumerate subsets
            # of Q2∩Q that lie in B (via restriction) instead of all of B.
            restricted = adversary.restricted_to(base)
            for b in restricted.enumerate():
                if reference_p3a(adversary, q2, q, b):
                    continue
                if reference_p3b(qc1, q2, q, b):
                    continue
                q1_witness = _reference_failing_q1(qc1, q2, q, b)
                return P3Witness(q1_witness, q2, q, b, base - b)
            passed.add(base)
    return None


def _reference_failing_q1(qc1, q2, q, b):
    difference = (q2 & q) - b
    for q1 in qc1:
        if not (q1 & difference):
            return q1
    return None


def _reference_covering_pair(adversary, target):
    for b1 in adversary.maximal_sets():
        remainder = target - b1
        if adversary.contains(remainder):
            return frozenset(b1 & target), frozenset(remainder)
    raise AssertionError("caller promised target is not large")


# -- the differential ----------------------------------------------------------------

def reference_of(adversary):
    """The reference twin of a shipped adversary."""
    if isinstance(adversary, ThresholdAdversary):
        return ReferenceThreshold(adversary.ground_set, adversary.k)
    return ReferenceExplicit(adversary.ground_set, adversary.maximal_sets())


def reference_answers(reference, qc1, qc2, quorums):
    return (
        reference_check_property1(reference, quorums),
        reference_check_property2(reference, qc1, quorums),
        reference_check_property3(reference, qc1, qc2, quorums),
    )


def assert_same_witnesses(adversary, classifications):
    """Every check, through both entry points, on one adversary.

    ``classifications`` are ``(qc1, qc2, quorums)`` triples checked one
    after the other on the *same* adversary objects, the way
    ``search.classify_quorums`` grows a classification.
    """
    def witnesses(side, families):
        qc1, qc2, quorums = families
        # ... and through a system, which normalises the families and
        # checks them on the masks it holds.
        rqs = RefinedQuorumSystem(
            adversary, quorums, qc1=qc1, qc2=qc2, validate=False
        )
        if side is adversary:
            checks = (
                props.check_property1(adversary, quorums),
                props.check_property2(adversary, qc1, quorums),
                props.check_property3(adversary, qc1, qc2, quorums),
            )
            system = (rqs.violations(), rqs.first_violation(),
                      rqs.is_valid(), rqs.violated())
            return {"checks": checks, "system": system,
                    "maximal_sets": adversary.maximal_sets()}
        named = tuple(
            (name, witness)
            for name, witness in zip(("P1", "P2", "P3"), reference_answers(
                side, rqs.qc1, rqs.qc2, rqs.quorums
            ))
            if witness is not None
        )
        return {"checks": reference_answers(side, qc1, qc2, quorums),
                "system": (named, named[0] if named else None, not named,
                           tuple(name for name, _ in named)),
                "maximal_sets": side.maximal_sets()}

    agree(reference_of(adversary), adversary, classifications, witnesses)


def servers_of(kind, n):
    if kind == "int":
        return tuple(range(1, n + 1))
    return tuple(f"s{i}" for i in range(1, n + 1))


@st.composite
def adversaries(draw):
    servers = servers_of(
        draw(st.sampled_from(("int", "str"))), draw(st.integers(3, 6))
    )
    if draw(st.booleans()):
        return ThresholdAdversary(servers, draw(st.integers(0, 2)))
    member = st.sampled_from(servers)
    return ExplicitAdversary(servers, draw(st.lists(
        st.frozensets(member, max_size=3), max_size=4
    )))


@st.composite
def systems(draw):
    """An adversary and one or two nested classifications of one random
    quorum family — quorums either arbitrary or missing few servers, so
    that passing and failing checks are both common."""
    adversary = draw(adversaries())
    servers = adversary.servers
    member = st.sampled_from(servers)
    quorum = st.one_of(
        st.frozensets(member, min_size=1),
        st.frozensets(member, max_size=2).map(
            lambda missing: frozenset(servers) - missing
        ),
    )
    quorums = draw(st.lists(quorum, min_size=1, max_size=7, unique=True))
    classifications = []
    for _ in range(draw(st.integers(1, 2))):
        qc2 = draw(st.lists(st.sampled_from(quorums), unique=True))
        qc1 = (
            draw(st.lists(st.sampled_from(qc2), unique=True)) if qc2 else []
        )
        classifications.append((qc1, qc2, quorums))
    return adversary, classifications


@settings(DIFFERENTIAL, max_examples=250,
          suppress_health_check=[HealthCheck.too_slow])
@given(systems())
def test_random_systems_return_equal_witnesses(system):
    assert_same_witnesses(*system)


@settings(DIFFERENTIAL, max_examples=150)
@given(st.data())
def test_adversary_answers_agree(data):
    adversary = data.draw(adversaries())
    reference = reference_of(adversary)
    probe = data.draw(st.frozensets(st.sampled_from(adversary.servers)))
    assert adversary.contains(probe) == reference.contains(probe)
    assert adversary.is_basic(probe) == reference.is_basic(probe)
    assert adversary.is_large(probe) == reference.is_large(probe)
    assert list(adversary.enumerate()) == list(reference.enumerate())
    mask = adversary.mask(probe)
    assert adversary.members(mask) == probe
    assert adversary.contains_mask(mask) == reference.contains(probe)
    assert adversary.is_large_mask(mask) == reference.is_large(probe)
    if probe:
        restricted = adversary.restricted_to(probe)
        twin = reference.restricted_to(probe)
        assert restricted.maximal_sets() == twin.maximal_sets()
        assert list(restricted.enumerate()) == list(twin.enumerate())
    if not reference.is_large(probe):
        assert props._covering_pair(
            adversary, mask
        ) == _reference_covering_pair(reference, probe)


def valid_constructions():
    yield "figure3", figure3_rqs()
    yield "example7", example7_rqs()
    yield "section12", section12_rqs()
    yield "majority-5", majority_quorum_system(5)
    yield "byzantine-7", byzantine_quorum_system(7)
    yield "pbft-t1", pbft_style_rqs(1)
    yield "pbft-t2", pbft_style_rqs(2)
    yield "fast-consensus", fast_consensus_quorum_system(7, 2, 1, 1)
    for params in ((5, 1, 1, 0, 1), (6, 2, 1, 0, 1), (7, 2, 1, 1, 2),
                   (7, 3, 0, 1, 3), (8, 3, 1, 1, 2)):
        assert threshold_rqs_predicted_valid(*params)
        yield "threshold-%d-%d-%d-%d-%d" % params, threshold_rqs(*params)


CONSTRUCTIONS = dict(valid_constructions())


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_constructions_are_valid_and_break_alike(name):
    """The paper's systems pass both implementations; with one server
    struck from one quorum they fail both with the same witness."""
    rqs = CONSTRUCTIONS[name]
    families = (rqs.qc1, rqs.qc2, rqs.quorums)
    assert_same_witnesses(rqs.adversary, [families])
    assert rqs.violations() == ()
    victim = rqs.quorums[0]
    struck = victim - {min(victim, key=repr)}
    if struck:
        broken = tuple(
            tuple(struck if q == victim else q for q in family)
            for family in families
        )
        assert_same_witnesses(rqs.adversary, [broken])


# -- seeded mutants ------------------------------------------------------------------

def p3b_asked_of_the_whole_maximal_set(adversary, qc1_masks, base):
    """Property 3 decided on ``M`` without restricting to ``Q2 ∩ Q``: a
    class-1 quorum counts as meeting the difference when it merely
    leaves ``M``."""
    if adversary.is_large_mask(base):
        return False
    for maximal in adversary.maximal_masks:
        if adversary.contains_mask(base & ~maximal) and not (
            qc1_masks and all(q1 & ~maximal for q1 in qc1_masks)
        ):
            return True
    return False


def empty_qc1_never_fails(adversary, qc1_masks, base):
    """The ``QC1 = ∅`` case (P3b cannot hold) is skipped."""
    if adversary.is_large_mask(base):
        return False
    for maximal in adversary.maximal_masks:
        difference = base & ~maximal
        if adversary.contains_mask(difference) and not all(
            q1 & difference for q1 in qc1_masks
        ):
            return True
    return False


def large_against_one_maximal_set(self, mask):
    """``large`` = not inside *one* maximal set, i.e. merely basic."""
    return not self.contains_mask(mask)


def passed_intersections_outlive_their_qc1(shipped):
    """An intersection that passed is never asked again — not even by a
    later check with a different ``QC1``."""
    passed = set()

    def fails(adversary, qc1_masks, base):
        if base in passed:
            return False
        failing = shipped(adversary, qc1_masks, base)
        if not failing:
            passed.add(base)
        return failing

    return fails


def empty_intersection_passes(shipped):
    """Disjoint ``Q2`` and ``Q`` are skipped instead of convicted."""
    return lambda adversary, qc1_masks, base: bool(base) and shipped(
        adversary, qc1_masks, base
    )


def F(*sets):
    return [frozenset(s) for s in sets]


def instead(mutant):
    return lambda shipped: mutant


#: mutant -> (what to patch, shipped -> replacement, the killing input).
MUTANTS = {
    "P3bAskedOfTheWholeMaximalSet": (
        props, "_fails_property3",
        instead(p3b_asked_of_the_whole_maximal_set),
        # Q2∩Q = {1,2}; M = {1} leaves {2} ∈ B, which Q1 = {1,3} misses
        # although Q1 \ M = {3} is not empty.
        (ThresholdAdversary((1, 2, 3), 1),
         [(F({1, 3}), F({1, 2, 3}, {1, 3}), F({1, 2}, {1, 2, 3}, {1, 3}))]),
    ),
    "EmptyQC1NeverFails": (
        props, "_fails_property3", instead(empty_qc1_never_fails),
        # A masking system (QC1 = ∅, QC2 = RQS) whose quorums meet in
        # 2k = 2 servers only.
        (ThresholdAdversary((1, 2, 3, 4), 1),
         [([], F({1, 2, 3}, {2, 3, 4}), F({1, 2, 3}, {2, 3, 4}))]),
    ),
    "LargeAgainstOneMaximalSet": (
        Adversary, "is_large_mask", instead(large_against_one_maximal_set),
        # {s1, s3} is in neither {s1,s2} nor {s3,s4} but inside their
        # union: Property 2 fails, the mutant calls the triple large.
        (ExplicitAdversary(
            ("s1", "s2", "s3", "s4", "s5"), [{"s1", "s2"}, {"s3", "s4"}]
         ),
         [(F({"s1", "s3", "s5"}, {"s1", "s3"}),
           F({"s1", "s3", "s5"}, {"s1", "s3"}),
           F({"s1", "s3", "s5"}, {"s1", "s3"}))]),
    ),
    "PassedIntersectionsOutliveTheirQC1": (
        props, "_fails_property3", passed_intersections_outlive_their_qc1,
        # Q2∩Q = {1,2} passes while Q1 = {1,2,3} meets {1} and {2}, and
        # fails once QC1 is {{2,3,4}}, which misses {1,2} \ {2}.
        (ThresholdAdversary((1, 2, 3, 4), 1),
         [(F({1, 2, 3}), F({1, 2, 3}), F({1, 2, 3}, {1, 2, 4})),
          (F({2, 3, 4}), F({2, 3, 4}, {1, 2, 3}),
           F({1, 2, 3}, {1, 2, 4}, {2, 3, 4}))]),
    ),
    "EmptyIntersectionPasses": (
        props, "_fails_property3", empty_intersection_passes,
        (ExplicitAdversary((1, 2, 3, 4), [{1}]),
         [(F({1, 2}), F({1, 2}, {3, 4}), F({1, 2}, {3, 4}))]),
    ),
}


@each_mutant(MUTANTS)
def test_named_inputs_agree_and_kill_their_mutant(mutant, monkeypatch):
    target, name, replace, system = MUTANTS[mutant]
    shipped = getattr(target, name)

    def run(variant):
        monkeypatch.setattr(target, name, variant)
        assert_same_witnesses(*system)

    assert_killed(run, shipped, replace(shipped))


# -- the tie order -------------------------------------------------------------------

_HASH_SEED_SCRIPT = """
import random
from repro.core.adversary import ExplicitAdversary
from repro.core.rqs import RefinedQuorumSystem

rng = random.Random(11)
servers = tuple("s%d" % i for i in range(1, 7))
for _ in range(120):
    adversary = ExplicitAdversary(servers, [
        rng.sample(servers, rng.randint(1, 3)) for _ in range(rng.randint(1, 4))
    ])
    quorums = [
        rng.sample(servers, rng.randint(2, 6)) for _ in range(rng.randint(1, 5))
    ]
    qc2 = quorums[:rng.randint(0, len(quorums))]
    qc1 = qc2[:rng.randint(0, len(qc2))]
    rqs = RefinedQuorumSystem(
        adversary, quorums, qc1=qc1, qc2=qc2, validate=False
    )
    print([sorted(m) for m in adversary.maximal_sets()])
    for name, witness in rqs.violations():
        print(name, [
            None if field is None else sorted(field)
            for field in vars(witness).values()
        ])
"""


def test_witnesses_do_not_depend_on_the_hash_seed():
    """String ids hash differently in every interpreter run; the
    maximal sets are ordered by a total order, so the witnesses of a
    fixed list of systems are the same bytes under any seed."""
    src = str(Path(__file__).resolve().parents[2] / "src")
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _HASH_SEED_SCRIPT],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True, check=True, timeout=60,
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"P2") > 5 and outputs[0].count(b"P3") > 5
