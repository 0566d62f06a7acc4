"""Counting what a run does, without a clock: the one profile hook and
the one call-wrapper the cost pins share (ROADMAP invariant 8)."""

import sys
from collections import Counter


def profiled(run, count):
    """Call ``run()`` under a profile hook that counts, in a ``Counter``,
    every key ``count(frame, event, arg)`` returns (``None`` counts
    nothing).  Returns ``run``'s result and the counter; the hook that
    was installed before is installed again."""
    counts = Counter()

    def hook(frame, event, arg):
        key = count(frame, event, arg)
        if key is not None:
            counts[key] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, counts


def counted(owner, name, counter, tally=None):
    """``owner.<name>`` wrapped to count each call in ``counter`` before
    it runs — for ``monkeypatch.setattr(owner, name, counted(...))``.
    ``tally(*args, **kwargs)`` says what a call adds: an iterable of
    keys or a mapping of keys to amounts, as ``Counter.update`` takes
    them; without it, one ``name``."""
    real = getattr(owner, name)

    def call(*args, **kwargs):
        counter.update((name,) if tally is None else tally(*args, **kwargs))
        return real(*args, **kwargs)

    return call
