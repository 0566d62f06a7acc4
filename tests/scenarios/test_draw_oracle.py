"""Differential oracle for the open-loop draw.

``_KeyDrawer.draw`` calls the generator's primitives itself: a uniform
key is ``randrange(n_keys)``'s own rejection loop (``n_keys.bit_length()``
bits, drawn again while they read ``>= n_keys``), a zipfian key one
``random()`` scaled onto the cumulative weights; ``open_loop_stream``
draws a gap as ``span * random()`` with ``span = 2.0 * period`` hoisted
out of its loop, which is ``uniform(0.0, span)`` bit for bit.

The wrappers these replaced live on *only here*, verbatim, as
:class:`ReferenceKeyDrawer` and :func:`reference_open_loop_stream`
(``randrange`` and ``uniform`` calls and all).  Both sides draw from
generators seeded alike and must agree, after every key or op, on what
was drawn and on ``rng.getstate()`` — uniform and zipfian keyspaces of
sizes on both sides of powers of two, writers and readers, shard-local
views and op budgets.  Seeded bugs in the new draw must each be caught
by the same comparison.
"""

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Hashable, Iterator, List, Optional, Tuple

from hypothesis import given, settings, strategies as st

from repro.scenarios import workloads
from repro.scenarios.workloads import (
    DEFAULT_KEY, OpBudget, RandomMix, _KeyDrawer, client_seed, key_shard,
    open_loop_stream, shard_assignment,
)
from tests.differential import DIFFERENTIAL, agree, assert_killed, each_mutant


# -- the reference: the random wrappers, verbatim ---------------------------------

class ReferenceKeyDrawer:
    """Per-client register draws from the mix's keyspace distribution."""

    def __init__(self, mix: RandomMix, n_keys: int):
        self.n_keys = n_keys
        self.cumulative: Optional[List[float]] = None
        if n_keys > 1 and mix.distribution == "zipfian":
            weights = [1.0 / (k + 1) ** mix.skew for k in range(n_keys)]
            self.cumulative = list(accumulate(weights))

    def draw(self, rng: random.Random) -> Hashable:
        if self.n_keys <= 1:
            return DEFAULT_KEY
        if self.cumulative is None:
            return rng.randrange(self.n_keys)
        return bisect_right(
            self.cumulative, rng.random() * self.cumulative[-1]
        )


def reference_open_loop_stream(
    mix: RandomMix,
    role: str,
    index: int,
    count: int,
    seed: int,
    budget: OpBudget,
    duration: Optional[float],
    n_keys: int = 1,
    first_value: int = 1,
    shard: Optional[Tuple[int, int]] = None,
) -> Iterator[Tuple]:
    per_role_ops = mix.writes if role == "writer" else mix.reads
    if per_role_ops <= 0:
        return
    rng = random.Random(client_seed(seed, role, index))
    keys = ReferenceKeyDrawer(mix, n_keys)
    table: Tuple[int, ...] = ()
    if shard is not None:
        table = shard_assignment(
            n_keys, shard[1], seed, mix.distribution, mix.skew
        )
    # Mean gap that reproduces the closed-loop op density per client.
    period = mix.horizon * count / per_role_ops
    at = mix.start
    serial = 0
    while True:
        at += rng.uniform(0.0, 2.0 * period)
        if duration is not None and at >= duration:
            return
        if shard is None:
            if not budget.take():
                return
            key = keys.draw(rng)
        else:
            key = keys.draw(rng)
            owner = (
                table[key]
                if isinstance(key, int) and 0 <= key < len(table)
                else key_shard(key, shard[1], seed)
            )
            if owner != shard[0]:
                serial += 1
                continue
            if not budget.take():
                return
        if role == "writer":
            yield at, first_value + index + serial * count, key
        else:
            yield at, key
        serial += 1


# -- the two sides ----------------------------------------------------------------

def shipped_open_loop_stream(
    mix, role, index, count, seed, budget, duration, n_keys=1, shard=None
):
    """``open_loop_stream`` handed the ``(shard_index, table)`` the
    adapter computes once per run from an ``(index, count)`` view."""
    if shard is not None:
        shard = (shard[0], shard_assignment(
            n_keys, shard[1], seed, mix.distribution, mix.skew
        ))
    return open_loop_stream(
        mix, role, index, count, seed, budget, duration,
        n_keys=n_keys, shard=shard,
    )


KEYSPACES = sorted(
    {1, 2, 3, 16, 17, 64}
    | {2 ** k + d for k in range(2, 12) for d in (-1, 1)}
)


def mixes(distribution=None):
    return st.builds(
        RandomMix,
        writes=st.integers(0, 40),
        reads=st.integers(0, 40),
        horizon=st.sampled_from([1.0, 7.5, 100.0, 1e6]),
        start=st.sampled_from([0.0, 3.25]),
        distribution=(
            st.sampled_from(["uniform", "zipfian"])
            if distribution is None else st.just(distribution)
        ),
        skew=st.sampled_from([0.6, 1.0, 1.2, 2.0]),
    )


def draw_keys(drawer, mix, n_keys, seed, draws):
    """Both sides' key draws on one seeded generator each: what was
    drawn and the generator's state after every draw."""
    sides = [
        {"drawer": drawer(mix, n_keys), "rng": random.Random(seed)}
        for drawer in (ReferenceKeyDrawer, drawer)
    ]

    def apply(side, _):
        return {
            "key": side["drawer"].draw(side["rng"]),
            "state": side["rng"].getstate(),
        }

    agree(*sides, range(draws), apply)


def stream_ops(stream, mix, role, n_keys, seed, max_ops, duration, shard):
    """Both sides' op streams for one client, pulled one op at a time:
    the op (or the end) and the client generator's state after it."""
    sides = [
        make(
            mix, role, 1, 3, seed, OpBudget(max_ops), duration,
            n_keys=n_keys, shard=shard,
        )
        for make in (reference_open_loop_stream, stream)
    ]

    def apply(side, _):
        op = next(side, "end")
        frame = side.gi_frame
        return {
            "op": op,
            "state": None if frame is None else frame.f_locals["rng"].getstate(),
        }

    agree(*sides, range(60), apply)


@settings(DIFFERENTIAL, max_examples=300, derandomize=True)
@given(
    mixes(),
    st.sampled_from(KEYSPACES),
    st.integers(0, 2 ** 32),
)
def test_a_key_draw_is_the_wrappers_draw(mix, n_keys, seed):
    draw_keys(_KeyDrawer, mix, n_keys, seed, 40)


@settings(DIFFERENTIAL, max_examples=200, derandomize=True)
@given(
    mixes(),
    st.sampled_from(["writer", "reader"]),
    st.sampled_from(KEYSPACES),
    st.integers(0, 2 ** 31),
    st.one_of(st.none(), st.integers(0, 50)),
    st.one_of(st.none(), st.floats(0.0, 400.0)),
    st.one_of(
        st.none(),
        st.integers(2, 4).flatmap(
            lambda count: st.tuples(st.integers(0, count - 1), st.just(count))
        ),
    ),
)
def test_an_open_loop_stream_is_the_wrappers_stream(
    mix, role, n_keys, seed, max_ops, duration, shard
):
    stream_ops(
        shipped_open_loop_stream, mix, role, n_keys, seed, max_ops,
        duration, shard,
    )


# -- seeded bugs --------------------------------------------------------------------

class BitsOfTheLargestKey(_KeyDrawer):
    """``(n_keys - 1).bit_length()`` bits: the same count off powers of
    two, one bit short on them — where no draw is ever redrawn."""

    def __init__(self, mix, n_keys):
        super().__init__(mix, n_keys)
        self.bits = (n_keys - 1).bit_length()


class OneRedrawThenModulo(_KeyDrawer):
    """One redraw, then folded into range by ``% n_keys``: agrees until
    two draws in a row read ``>= n_keys``."""

    def draw(self, rng):
        if self.n_keys <= 1 or self.cumulative is not None:
            return super().draw(rng)
        key = rng.getrandbits(self.bits)
        if key >= self.n_keys:
            key = rng.getrandbits(self.bits) % self.n_keys
        return key


UNIFORM = RandomMix(4, 4, horizon=8.0)

MUTANTS = {
    # Sixteen keys: the shipped draw takes five bits and redraws about
    # every other time, the mutant four and never.
    BitsOfTheLargestKey: (UNIFORM, 16, 7, 40),
    # Seventeen keys: five bits read >= 17 almost half the time, so two
    # in a row come within a few draws.
    OneRedrawThenModulo: (UNIFORM, 17, 11, 60),
}


@each_mutant(MUTANTS)
def test_named_draws_agree_and_kill_their_mutant(mutant):
    mix, n_keys, seed, draws = MUTANTS[mutant]
    assert_killed(
        lambda drawer: draw_keys(drawer, mix, n_keys, seed, draws),
        _KeyDrawer, mutant,
    )


def test_a_mutant_draw_also_kills_the_stream(monkeypatch):
    """The stream draws through ``_KeyDrawer``: a wrong draw surfaces
    as a wrong op of the stream, not only of the drawer."""

    def run(drawer):
        monkeypatch.setattr(workloads, "_KeyDrawer", drawer)
        stream_ops(shipped_open_loop_stream, UNIFORM, "reader", 16, 7, None,
                   None, None)

    assert_killed(run, _KeyDrawer, BitsOfTheLargestKey)
