"""Differential oracle for the greedy RQS search (``core/search.py``).

``property1_family`` used to probe frozensets through the adversary's
public answers, and ``classify_quorums`` re-ran a *full*
``check_property2`` / ``check_property3`` — every pair of the grown
class against every quorum, the families converted to masks afresh —
for each candidate.  Both now convert the pool once and decide a
candidate on the instances it adds.  The previous code lives on *only
here*, verbatim from the parent commit:

* :func:`reference_property1_family`,
* :func:`reference_classify_quorums`,
* :func:`reference_search_rqs` (the shipped composition over them).

Reference and shipped code must return *equal tuples, order included*
on random threshold and explicit adversaries (int and string ids) ×
random candidate pools, and on the systems the examples and exhibits
search for.  The incremental pass rests on one lemma — a class that
holds Property 2 holds Property 3 as its own ``QC2`` — which is pinned
on random classifications that were *not* grown greedily.  Three seeded
bugs are each killed by a named input, and a count pin says what a
Property 3 candidate may cost.
"""

from collections import Counter
from types import SimpleNamespace
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import properties as props
from repro.core import search
from repro.core.adversary import ExplicitAdversary, ThresholdAdversary
from repro.core.constructions import example7_adversary
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import QuorumSystemError
from tests.core.test_properties_oracle import F, adversaries
from tests.counting import counted
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant


# -- the parent's search, verbatim ------------------------------------------------

def reference_property1_family(adversary, candidates):
    kept: List = []
    ordered = sorted(
        set(candidates), key=lambda s: (-len(s), sorted(map(repr, s)))
    )
    for candidate in ordered:
        if adversary.contains(candidate):
            continue
        if adversary.contains(candidate & candidate):
            continue
        if all(
            adversary.is_basic(candidate & other) for other in kept
        ):
            kept.append(candidate)
    return tuple(kept)


def reference_classify_quorums(adversary, quorums):
    ordered = sorted(
        quorums, key=lambda s: (-len(s), sorted(map(repr, s)))
    )
    qc1: List = []
    for candidate in ordered:
        trial = qc1 + [candidate]
        if props.check_property2(adversary, trial, quorums) is None:
            qc1.append(candidate)

    qc2: List = list(qc1)
    for candidate in ordered:
        if candidate in qc2:
            continue
        trial = qc2 + [candidate]
        if props.check_property3(adversary, qc1, trial, quorums) is None:
            qc2.append(candidate)
    return tuple(qc1), tuple(qc2)


def reference_search_rqs(adversary, candidates=None, min_quorum_size=1):
    if candidates is None:
        pool = search.all_subsets(adversary.ground_set, min_quorum_size)
    else:
        pool = props.normalize_family(candidates)
    family = reference_property1_family(adversary, pool)
    if not family:
        raise QuorumSystemError(
            "no Property-1 quorum family exists for this adversary"
        )
    qc1, qc2 = reference_classify_quorums(adversary, family)
    return RefinedQuorumSystem(adversary, family, qc1=qc1, qc2=qc2)


# -- the differential ----------------------------------------------------------------

def searched(search_rqs, adversary, **kwargs):
    """The three families of a search, or the refusal it ended in."""
    try:
        rqs = search_rqs(adversary, **kwargs)
    except QuorumSystemError as refusal:
        return str(refusal)
    assert rqs.is_valid()
    return rqs.quorums, rqs.qc2, rqs.qc1


#: The reference's entry points under the shipped module's names.
REFERENCE = SimpleNamespace(
    property1_family=reference_property1_family,
    classify_quorums=reference_classify_quorums,
    search_rqs=reference_search_rqs,
)


def assert_same_search(adversary, pool):
    """Every entry point on one adversary and one candidate pool (which
    may repeat a candidate and need not satisfy Property 1)."""
    family = reference_property1_family(adversary, pool)
    distinct = tuple(dict.fromkeys(pool))
    # The classification of the Property-1 family the search goes on
    # with, and of the raw pool: `classify_quorums` is public and does
    # not require Property 1 of what it is given.
    agree(REFERENCE, search, (
        lambda side: side.property1_family(adversary, pool),
        lambda side: side.classify_quorums(adversary, family),
        lambda side: side.classify_quorums(adversary, tuple(pool)),
        lambda side: searched(side.search_rqs, adversary, candidates=distinct),
    ), lambda side, entry: entry(side))


@st.composite
def pools(draw):
    """An adversary and a candidate pool over its servers: arbitrary
    subsets, subsets missing few servers (so that non-trivial classes
    are common), or every subset above a size — sometimes with a
    repeated candidate."""
    adversary = draw(adversaries())
    servers = adversary.servers
    if draw(st.integers(0, 3)) == 0:
        pool = list(search.all_subsets(
            servers, draw(st.integers(1, len(servers)))
        ))
    else:
        member = st.sampled_from(servers)
        candidate = st.one_of(
            st.frozensets(member, min_size=1),
            st.frozensets(member, max_size=2).map(
                lambda missing: frozenset(servers) - missing
            ),
        )
        pool = draw(st.lists(candidate, min_size=1, max_size=12))
    return adversary, pool


@settings(DIFFERENTIAL, max_examples=250, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(pools())
def test_random_pools_return_equal_families(pool):
    assert_same_search(*pool)


@settings(DIFFERENTIAL, max_examples=100, derandomize=True)
@given(pools(), st.data())
def test_a_class_holding_property2_holds_property3_as_its_own_qc2(pool, data):
    """The base of the Property 3 induction, on classes that were not
    grown greedily: any ``QC1`` that passes Property 2 against a family
    passes Property 3 as ``QC2 = QC1`` against it."""
    adversary, quorums = pool
    qc1 = data.draw(st.lists(st.sampled_from(quorums), unique=True))
    if props.check_property2(adversary, qc1, quorums) is None:
        assert props.check_property3(adversary, qc1, qc1, quorums) is None


def test_the_systems_the_examples_search_for():
    """Example 7's adversary at every minimum size (4 is
    `examples/general_adversary.py`), the "fragile pair" adversaries of
    `experiments/metrics_ablation.py`, and threshold adversaries."""
    cases = [(example7_adversary(), min_size) for min_size in range(1, 7)]
    for n in (4, 5, 6, 7):
        servers = tuple(range(1, n + 1))
        cases.append((
            ExplicitAdversary(servers, [{1, 2}] + [{i} for i in servers]),
            max(2, n - 2),
        ))
    for n, k in ((5, 1), (6, 1), (7, 1), (7, 2), (8, 2)):
        cases.append((ThresholdAdversary(range(1, n + 1), k), 1))

    def search_for(side, case):
        found = searched(side.search_rqs, case[0], min_quorum_size=case[1])
        assert type(found) is not str, found      # none of them is refused
        return found

    agree(REFERENCE, search, cases, search_for)


def test_a_candidate_outside_the_ground_set_is_refused():
    """A quorum is a subset of ``S``; the reference kept such a
    candidate (its intersections "are not in B") and left the refusal
    to the classification."""
    adversary = ThresholdAdversary((1, 2, 3, 4), 1)
    pool = [frozenset({1, 2, 3, 9}), frozenset({1, 2, 3, 4})]
    for refused in (
        lambda: search.property1_family(adversary, pool),
        lambda: search.classify_quorums(adversary, pool),
        lambda: search.search_rqs(adversary, candidates=pool),
        lambda: reference_classify_quorums(adversary, pool),
    ):
        with pytest.raises(QuorumSystemError):
            refused()


# -- seeded mutants ------------------------------------------------------------------

def property2_on_the_candidate_alone(adversary, candidate, qc1_masks,
                                     masks, large):
    """Only the pair ``(c, c)`` is tested: a candidate that is fine by
    itself joins whatever the class already holds."""
    return all(
        adversary.is_large_mask(candidate & quorum) for quorum in masks
    )


def property2_without_the_candidate_pair(adversary, candidate, qc1_masks,
                                         masks, large):
    """``Q1' ∈ QC1`` instead of ``QC1 ∪ {c}``: the first candidate has
    nothing to be tested against and always joins."""
    return all(
        adversary.is_large_mask(candidate & other & quorum)
        for other in qc1_masks for quorum in masks
    )


def property3_without_the_loop_over_q(adversary, candidate, qc1_masks,
                                      masks, passed):
    """Only the pair ``(c, c)`` is tested for Property 3."""
    return not props._fails_property3(adversary, qc1_masks, candidate)


#: mutant -> (the function it replaces, the replacement, the killing input).
MUTANTS = {
    "Property2OnTheCandidateAlone": (
        "_keeps_property2", property2_on_the_candidate_alone,
        # The majorities of three servers under crash faults: each
        # meets every quorum, but the three of them share no server, so
        # only the first is class 1.
        (ThresholdAdversary((1, 2, 3), 0), F({1, 2}, {1, 3}, {2, 3})),
    ),
    "Property2WithoutTheCandidatePair": (
        "_keeps_property2", property2_without_the_candidate_pair,
        # The largest candidate meets another quorum in one server,
        # which B_1 covers: it must not become class 1.
        (ThresholdAdversary((1, 2, 3, 4, 5), 1),
         F({1, 2, 3, 4}, {1, 2, 3, 5}, {1, 4, 5})),
    ),
    "Property3WithoutTheLoopOverQ": (
        "_keeps_property3", property3_without_the_loop_over_q,
        # The 3-of-4 quorums under B_1: each is large by itself, but two
        # of them meet in 2 = 2k servers — with no class-1 quorum that
        # is the masking condition failing, so none is class 2.
        (ThresholdAdversary((1, 2, 3, 4), 1),
         F({1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {2, 3, 4})),
    ),
}


@each_mutant(MUTANTS)
def test_named_inputs_agree_and_kill_their_mutant(mutant, monkeypatch):
    name, replacement, system = MUTANTS[mutant]

    def run(variant):
        monkeypatch.setattr(search, name, variant)
        assert_same_search(*system)

    assert_killed(run, getattr(search, name), replacement)


# -- what a candidate costs, without a clock ---------------------------------------

def test_a_property3_candidate_decides_at_most_one_intersection_a_quorum(
    monkeypatch,
):
    """`B_1` over eight servers (93 quorums): a Property 3 candidate
    asks about its own ``c ∩ Q`` only — never about a pair of the class
    it would join — and an intersection that passed is not asked again
    by a later candidate; the families are converted once, by
    ``classify_quorums`` itself."""
    adversary = ThresholdAdversary(range(1, 9), 1)
    family = search.property1_family(
        adversary, search.all_subsets(adversary.ground_set)
    )
    assert len(family) == 93

    asked, decided, conversions = Counter(), Counter(), Counter()
    monkeypatch.setattr(
        props, "_fails_property3",
        counted(props, "_fails_property3", decided,
                lambda adversary, qc1_masks, base: [(len(asked), base)]),
    )
    monkeypatch.setattr(
        search, "_keeps_property3",
        counted(search, "_keeps_property3", asked, lambda *args: [len(asked)]),
    )
    monkeypatch.setattr(
        adversary, "masks",
        counted(adversary, "masks", conversions, lambda family: [len(family)]),
    )
    qc1, qc2 = search.classify_quorums(adversary, family)
    monkeypatch.undo()

    assert (len(qc1), len(qc2)) == (9, 37)
    # The family; the maximal sets of B.
    assert list(conversions.items()) == [(93, 1), (8, 1)]
    assert len(asked) == 93 - len(qc1)  # one pass per candidate
    per_candidate = Counter(candidate for candidate, _ in decided.elements())
    assert max(per_candidate.values()) <= 93
    # The per-candidate full check decided 18 344 intersections here
    # (every pair of each trial class, afresh).
    assert decided.total() == 266
    rejected = len(asked) - (len(qc2) - len(qc1))
    distinct = {base for _, base in decided}
    assert decided.total() - len(distinct) <= rejected
    assert (qc1, qc2) == reference_classify_quorums(adversary, family)
