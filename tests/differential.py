"""The differential method, written once (ROADMAP invariant 8).

:func:`agree` drives a reference and a subject with the same steps and
compares them after every one; :func:`assert_killed` holds a seeded
mutant to dying of that comparison on its named script.  An oracle test
writes ``@settings(DIFFERENTIAL, max_examples=N)``.
"""

import pytest
from hypothesis import settings

DIFFERENTIAL = settings(deadline=None)


class Divergence(AssertionError):
    """After step number ``index`` (``step``) the subject's ``field``
    is not the reference's: the first field of the two that differs."""

    def __init__(self, index, step, field, expected, actual):
        super().__init__(
            f"after step {index} {step!r:.300}, {field!r} is {actual!r:.300}"
            f"; the reference's is {expected!r:.300}"
        )
        self.index, self.step, self.field = index, step, field


def agree(reference, subject, steps, apply, snapshot=None):
    """``apply(side, step)`` every step to ``reference``, then to
    ``subject``, comparing ``snapshot(side)`` after each — or, with no
    snapshot, what ``apply`` returned.  A dict is compared field by
    field, in the reference's order, with the reference's value on the
    left of ``==``; anything else is the one field ``"observation"``.
    Raises :class:`Divergence`; returns both sides."""
    missing = object()
    for index, step in enumerate(steps):
        expected, actual = apply(reference, step), apply(subject, step)
        if snapshot is not None:
            expected, actual = snapshot(reference), snapshot(subject)
        if not (isinstance(expected, dict) and isinstance(actual, dict)):
            expected, actual = ({"observation": expected},
                                {"observation": actual})
        for field in {**expected, **actual}:
            want, got = expected.get(field, missing), actual.get(field, missing)
            if not want == got:
                raise Divergence(index, step, field, want, got)
    return reference, subject


def assert_killed(run, shipped, mutant, dies_of=Divergence):
    """``run(shipped)`` — the mutant's killing script on the shipped
    subject — must agree, and ``run(mutant)`` raise :class:`Divergence`
    or ``dies_of``, an error type named for this one mutant.  Any other
    error, an ``AssertionError`` included, is no kill: it propagates."""
    run(shipped)
    try:
        run(mutant)
    except (Divergence, dies_of):
        return
    pytest.fail(f"{getattr(mutant, '__name__', mutant)} survived its script")


def each_mutant(table):
    """Parametrize a kill test over the mutants keying ``table``."""
    return pytest.mark.parametrize("mutant", sorted(
        table, key=lambda mutant: getattr(mutant, "__name__", mutant)
    ))
