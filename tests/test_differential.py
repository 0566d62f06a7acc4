"""The differential harness and the counting hook, on a toy subject."""

import sys
from functools import partial

import pytest

from tests.counting import profiled
from tests.differential import Divergence, agree, assert_killed

STEPS = (3, 1, 4, 1, 5)


class Tally:
    """A running sum of the steps — one too many at ``broken_at``."""

    def __init__(self, broken_at=None):
        self.total, self.steps, self.broken_at = 0, 0, broken_at

    def add(self, amount):
        self.total += amount + (self.steps == self.broken_at)
        self.steps += 1


class Asserting(Tally):
    def add(self, amount):
        assert amount < 4, "a check of the subject's own"
        super().add(amount)


class Raising(Tally):
    def add(self, amount):
        raise TypeError(amount)


def add(tally, amount):
    tally.add(amount)


def snapshot(tally):
    return {"steps": tally.steps, "total": tally.total}


def run(subject):
    agree(Tally(), subject(), STEPS, add, snapshot)


def test_a_faithful_subject_agrees():
    reference, subject = agree(Tally(), Tally(), STEPS, add, snapshot)
    assert subject.total == reference.total == 14


def test_a_divergence_names_its_step_and_its_first_differing_field():
    with pytest.raises(Divergence) as caught:
        agree(Tally(), Tally(broken_at=2), STEPS, add, snapshot)
    assert (caught.value.index, caught.value.step) == (2, 4)
    assert caught.value.field == "total"
    # Without a snapshot, what ``apply`` returned is compared.
    with pytest.raises(Divergence) as caught:
        agree(1, 2, STEPS, lambda side, step: side * step)
    assert (caught.value.index, caught.value.field) == (0, "observation")


def test_a_kill_is_a_divergence_or_the_mutants_named_error():
    assert_killed(run, Tally, partial(Tally, broken_at=1))
    assert_killed(run, Tally, Raising, dies_of=TypeError)
    with pytest.raises(TypeError):
        assert_killed(run, Tally, Raising)
    with pytest.raises(pytest.fail.Exception, match="survived"):
        assert_killed(run, Tally, Tally)


def test_an_assertion_error_inside_apply_is_no_kill():
    with pytest.raises(AssertionError, match="own") as caught:
        assert_killed(run, Tally, Asserting)
    assert not isinstance(caught.value, Divergence)


def test_profiled_puts_back_the_hook_it_found():
    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name.startswith("marker"):
            return frame.f_code.co_name

    def marker_inner():
        pass

    def marker_outer():
        pass

    def nested():
        _, inner = profiled(marker_inner, count)
        marker_outer()        # the outer hook must be back to see this
        return inner

    before = sys.getprofile()
    inner, outer = profiled(nested, count)
    assert sys.getprofile() is before
    assert (inner, outer) == ({"marker_inner": 1}, {"marker_outer": 1})
